"""Brute-force ground truth for small instances.

Exact cover/matching/independence numbers via branch and bound, an
exhaustive scanner for tent configurations, sub-hypergraph embedding
search, and the edge-density parameter used to size random constructions.
They use nothing of the LP machinery, so they can serve as oracles for
it.  Every search runs under one ``guards.NodeBudget``, on an explicit
stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from .errors import ParameterError
from .guards import NodeBudget, check_comb, check_limit
from .hypergraph import Hypergraph, dual
from .setcover import greedy_set_cover

__all__ = [
    "Embedding",
    "brute_tau",
    "brute_nu",
    "max_independent_set",
    "find_tents",
    "contains_subhypergraph",
    "rho",
]

TENT_CHECK_LIMIT = 5_000_000
RHO_EDGE_LIMIT = 20


@dataclass(frozen=True)
class Embedding:
    """An injective structure-preserving map from a pattern into a host.

    ``vertex_map`` sends pattern vertices to host vertices, ``edge_map``
    pattern edge ids to host edge ids, and the image of each pattern edge
    equals its mapped host edge as a set.
    """

    vertex_map: dict
    edge_map: dict


def _greedy_matching_size(edge_sets) -> int:
    """Admissible cover lower bound: pairwise disjoint edges each need a
    distinct cover vertex."""
    used: set = set()
    count = 0
    for e in edge_sets:
        if used.isdisjoint(e):
            used |= e
            count += 1
    return count


def brute_tau(H: Hypergraph, limit=None) -> int:
    """Exact minimum vertex cover size.

    Branches on the vertices of the lowest-id uncovered edge, pruning
    with a greedy disjoint-edge lower bound per node, and stops once a
    cover meets the root's bound.
    """
    budget = NodeBudget(limit)
    edge_sets = [frozenset(e) for e in H.edges]
    if not edge_sets:
        return 0
    # a vertex cover of H is a set cover of its dual
    best = len(greedy_set_cover(dual(H)).picked)
    root_lb = _greedy_matching_size(edge_sets)
    if best == root_lb:
        return best

    def visit(node):
        nonlocal best
        uncovered, size = node
        if not uncovered:
            best = min(best, size)
            return None if best == root_lb else ()
        if size + _greedy_matching_size(uncovered) >= best:
            return ()
        return (([e for e in uncovered if v not in e], size + 1) for v in sorted(uncovered[0]))

    budget.search((edge_sets, 0), visit)
    return best


def brute_nu(H: Hypergraph, limit=None) -> int:
    """Exact maximum matching size by include/exclude over edges in id order."""
    budget = NodeBudget(limit)
    edge_sets = [frozenset(e) for e in H.edges]
    m = len(edge_sets)
    best = 0

    def visit(node):
        nonlocal best
        i, used, count = node
        if count > best:
            best = count
        if i == m or count + (m - i) <= best:
            return ()
        e = edge_sets[i]
        if used.isdisjoint(e):
            return (i + 1, used | e, count + 1), (i + 1, used, count)
        return ((i + 1, used, count),)

    budget.search((0, frozenset(), 0), visit)
    return best


def max_independent_set(H: Hypergraph, limit=None) -> int:
    """Largest vertex set containing no edge entirely.

    Independent include/exclude search over vertices; complements
    brute_tau for the identity independence + cover = n.
    """
    budget = NodeBudget(limit)
    # the rest of each edge, filed under its highest vertex
    rests_at = [[] for _ in range(H.n)]
    for e in H.edges:
        rests_at[max(e)].append(frozenset(e) - {max(e)})
    best = 0

    def visit(node):
        nonlocal best
        v, chosen, count = node
        if count > best:
            best = count
        if v == H.n or count + (H.n - v) <= best:
            return ()
        # taking v is allowed unless it completes an edge inside chosen
        if any(map(chosen.issuperset, rests_at[v])):
            return ((v + 1, chosen, count),)
        return (v + 1, chosen | {v}, count + 1), (v + 1, chosen, count)

    budget.search((0, frozenset(), 0), visit)
    return best


def find_tents(H: Hypergraph, limit=None) -> list[tuple[int, int, int, int]]:
    """All tent configurations, as 4-tuples of edge ids.

    A tent is three edges meeting pairwise in one common vertex, the
    apex, plus a crossing edge that meets each of the three in exactly
    one vertex, those three meeting points pairwise distinct: for t = 3,
    a copy of ``three_tent``.  Result tuples list the three concurrent
    edges sorted ascending, the crossing edge last, ordered by their
    sorted 4-set of edge ids and then by the crossing edge.

    Found by apex: every triple of edges through one vertex that meet
    pairwise only there, then every edge through a vertex of each of the
    three besides the apex that meets each of them once.  Such an edge
    misses the apex, so its meeting points lie in the three edges' rests,
    which are pairwise disjoint: the points are distinct.  The limit
    still counts the 4*C(m, 4) checks of trying every 4-set of edges in
    every crossing role, which returns the same list.
    """
    check_comb(H.m, 4, 4, TENT_CHECK_LIMIT, "tent checks", limit)
    sets = [frozenset(e) for e in H.edges]
    through = {}
    for i, e in enumerate(H.edges):
        for v in e:
            through.setdefault(v, set()).add(i)
    found = []
    for apex, star in through.items():
        for trio in combinations(sorted(star), 3):
            legs = [sets[i] - {apex} for i in trio]
            if legs[0] & legs[1] or legs[0] & legs[2] or legs[1] & legs[2]:
                continue
            near = [set().union(*(through[v] for v in leg)) for leg in legs]
            for cross in near[0] & near[1] & near[2]:
                if all(len(sets[cross] & sets[i]) == 1 for i in trio):
                    found.append((*trio, cross))
    found.sort(key=lambda tent: (sorted(tent), tent[3]))
    return found


def contains_subhypergraph(H: Hypergraph, F: Hypergraph, limit=None) -> Embedding | None:
    """First embedding of pattern F into H, or None.

    Backtracks over pattern edges in id order; host edges are tried in id
    order and unmatched pattern vertices are assigned over the remaining
    host-edge vertices in sorted permutation order, so the result is
    deterministic.  A pattern of any size is searched under the node
    budget.
    """
    budget = NodeBudget(limit)
    if F.t != H.t:
        return None
    host_sets = [frozenset(e) for e in H.edges]
    found = None

    def visit(node):
        nonlocal found
        fi, vmap, used_hv, used_he = node
        if fi == F.m:
            found = Embedding(vmap, dict(enumerate(used_he)))
            return None
        fedge = F.edges[fi]
        mapped = [vmap[u] for u in fedge if u in vmap]
        free = sorted(u for u in fedge if u not in vmap)
        return ((fi + 1, {**vmap, **dict(zip(free, images))}, used_hv | set(images),
                 used_he + (hi,))
                for hi, hset in enumerate(host_sets)
                if hi not in used_he and all(img in hset for img in mapped)
                for images in permutations(sorted(hset - used_hv), len(free)))

    budget.search((0, {}, frozenset(), ()), visit)
    return found


def rho(F: Hypergraph, limit=None) -> Fraction:
    """Density parameter of a pattern: the maximum of
    (edges' - 1) / (vertices' - t) over all sub-collections of at least
    two edges, where vertices' counts the union of the collection.

    Controls the edge probability n**(-1/rho) below which random
    instances survive pattern removal with positive density.
    """
    if F.m < 2:
        raise ParameterError("density parameter needs at least two edges")
    check_limit(F.m, RHO_EDGE_LIMIT, "pattern edges", limit)
    bits = []
    for e in F.edges:
        b = 0
        for v in e:
            b |= 1 << v
        bits.append(b)
    best = None
    for mask in range(3, 1 << F.m):
        e_count = mask.bit_count()
        if e_count < 2:
            continue
        union = 0
        rest = mask
        while rest:
            low = rest & -rest
            union |= bits[low.bit_length() - 1]
            rest ^= low
        value = Fraction(e_count - 1, union.bit_count() - F.t)
        if best is None or value > best:
            best = value
    return best
