"""Brute-force ground truth for small instances.

Exact cover/matching/independence numbers via branch and bound, an
exhaustive scanner for tent configurations, sub-hypergraph embedding
search, and the edge-density parameter used to size random constructions.
These are deliberately independent of the LP machinery (the optional LP
pruning bound can be switched off) so they can serve as oracles for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from .errors import ParameterError, ResourceLimitError
from .guards import check_comb, check_limit, resolve_limit
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

BRUTE_NODE_LIMIT = 2_000_000
TENT_CHECK_LIMIT = 5_000_000
PATTERN_EDGE_LIMIT = 6
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


class _NodeBudget:
    """A search's node budget, ``BRUTE_NODE_LIMIT`` nodes by default."""

    __slots__ = ("left",)

    def __init__(self, limit):
        self.left = resolve_limit(limit, BRUTE_NODE_LIMIT)

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise ResourceLimitError("search budget exceeded")


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


def brute_tau(H: Hypergraph, limit=None, lp_bound: bool = True) -> int:
    """Exact minimum vertex cover size.

    Branches on the vertices of the lowest-id uncovered edge, pruning
    with a greedy disjoint-edge lower bound per node.  When ``lp_bound``
    is set the fractional covering optimum is used once at the root for
    early termination; oracle-vs-LP tests pass lp_bound=False to stay
    independent of the solver under test.
    """
    budget = _NodeBudget(limit)
    edge_sets = [frozenset(e) for e in H.edges]
    if not edge_sets:
        return 0
    # a vertex cover of H is a set cover of its dual
    best = len(greedy_set_cover(dual(H)).picked)
    root_lb = _greedy_matching_size(edge_sets)
    if lp_bound:
        from .lp import solve_vc_lp

        frac = solve_vc_lp(H).objective
        root_lb = max(root_lb, -(-frac.numerator // frac.denominator))
    if best == root_lb:
        return best

    def descend(uncovered, size):
        nonlocal best
        budget.spend()
        if not uncovered:
            if size < best:
                best = size
            return
        if size + _greedy_matching_size(uncovered) >= best:
            return
        pivot_edge = uncovered[0]
        for v in sorted(pivot_edge):
            if best == root_lb:
                return
            descend([e for e in uncovered if v not in e], size + 1)

    descend(edge_sets, 0)
    return best


def brute_nu(H: Hypergraph, limit=None, lp_bound: bool = True) -> int:
    """Exact maximum matching size by include/exclude over edges in id order."""
    budget = _NodeBudget(limit)
    edge_sets = [frozenset(e) for e in H.edges]
    m = len(edge_sets)
    best = 0
    root_ub = m
    if lp_bound and m:
        from .lp import solve_matching_lp

        frac = solve_matching_lp(H).objective
        root_ub = frac.numerator // frac.denominator

    def descend(i, used, count):
        nonlocal best
        budget.spend()
        if count > best:
            best = count
        if i == m or best == root_ub or count + (m - i) <= best:
            return
        e = edge_sets[i]
        if used.isdisjoint(e):
            descend(i + 1, used | e, count + 1)
        descend(i + 1, used, count)

    descend(0, frozenset(), 0)
    return best


def max_independent_set(H: Hypergraph, limit=None) -> int:
    """Largest vertex set containing no edge entirely.

    Independent include/exclude search over vertices; complements
    brute_tau for the identity independence + cover = n.
    """
    budget = _NodeBudget(limit)
    edges_at = [[] for _ in range(H.n)]
    for e in H.edges:
        edges_at[max(e)].append(frozenset(e))
    best = 0

    def descend(v, chosen, count):
        nonlocal best
        budget.spend()
        if count > best:
            best = count
        if v == H.n or count + (H.n - v) <= best:
            return
        # taking v is allowed unless it completes an edge inside chosen
        completes = any(e - {v} <= chosen for e in edges_at[v])
        if not completes:
            descend(v + 1, chosen | {v}, count + 1)
        descend(v + 1, chosen, count)

    descend(0, frozenset(), 0)
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
    deterministic.  Patterns are capped at 6 edges.
    """
    budget = _NodeBudget(limit)
    if F.m > PATTERN_EDGE_LIMIT:
        raise ResourceLimitError(f"pattern has {F.m} edges, limit {PATTERN_EDGE_LIMIT}")
    if F.t != H.t:
        return None
    host_sets = [frozenset(e) for e in H.edges]

    def extend(fi, vmap, used_hv, used_he):
        budget.spend()
        if fi == F.m:
            return Embedding(dict(vmap), {i: used_he[i] for i in range(F.m)})
        fedge = F.edges[fi]
        mapped = [(u, vmap[u]) for u in fedge if u in vmap]
        free = sorted(u for u in fedge if u not in vmap)
        for hi, hset in enumerate(host_sets):
            if hi in used_he.values():
                continue
            if any(img not in hset for _, img in mapped):
                continue
            slots = sorted(hset - used_hv)
            if len(slots) < len(free):
                continue
            used_he[fi] = hi
            for images in permutations(slots, len(free)):
                for u, w in zip(free, images):
                    vmap[u] = w
                result = extend(fi + 1, vmap, used_hv | set(images), used_he)
                if result is not None:
                    return result
                for u in free:
                    del vmap[u]
            del used_he[fi]
        return None

    return extend(0, {}, frozenset(), {})


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
