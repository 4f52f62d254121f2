"""Instance constructions: complete and random hypergraphs, pattern-free
random instances, the combinatorial-lines hypergraph, a set system that
forces the greedy cover algorithm to overshoot, and the cloud expansion
that turns any hypergraph into a simple one.

Everything randomized takes an explicit seed, an int in [0, 2**64)
checked before any other argument, and is reproducible: the same
arguments always yield the same instance, byte for byte after
serialization.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, product

from .errors import ParameterError
from .guards import ENUMERATION_GUARD, check_comb, check_limit, check_power, check_seed
from .hypergraph import Hypergraph
from .oracles import contains_subhypergraph, rho
from .setcover import SetSystem, _kept_flags

__all__ = [
    "complete",
    "random_hypergraph",
    "f_free_random",
    "combinatorial_lines",
    "greedy_hard_setsystem",
    "simplify_reduction",
    "three_tent",
]

LINES_GUARD = 50_000


def _check_candidates(n: int, t: int) -> None:
    if n < t:
        raise ParameterError(f"need at least {t} vertices, got {n}")
    check_comb(n, t, 1, ENUMERATION_GUARD, "candidate edges")
    if t < 2:  # the trusted constructor of the callers does not check it
        raise ParameterError(f"uniformity must be at least 2, got {t}")


def complete(n: int, t: int) -> Hypergraph:
    """All t-subsets of n vertices, in lexicographic order.

    Refused with ResourceLimitError above ``ENUMERATION_GUARD`` edges.
    """
    _check_candidates(n, t)
    return Hypergraph._from_canonical(t, n, tuple(combinations(range(n), t)))


def random_hypergraph(n: int, t: int, p: float, seed: int) -> Hypergraph:
    """Keep each of the C(n,t) possible edges independently with probability p.

    Candidate edges are scanned in lexicographic order with one RNG draw
    each, so the output is a pure function of (n, t, p, seed).  Refused
    with ResourceLimitError above ``ENUMERATION_GUARD`` candidates, even
    for p = 0.
    """
    check_seed(seed)
    if not 0 <= p <= 1:
        raise ParameterError(f"probability must lie in [0,1], got {p}")
    _check_candidates(n, t)
    rng = random.Random(seed)
    edges = tuple(e for e in combinations(range(n), t) if rng.random() < p)
    return Hypergraph._from_canonical(t, n, edges)


def f_free_random(n: int, t: int, family, p=None, seed: int = 0) -> Hypergraph:
    """Random hypergraph purged of every copy of the given patterns.

    Samples edges with probability p (default n to the power -1/rho,
    with rho minimized over the family), then repeatedly locates the
    first remaining copy of a family member in deterministic search
    order and deletes that copy's edges.  The survivor contains no copy
    of any member: one would have been found and deleted.  Every member
    must be t-uniform: the density rule and the copies it purges are
    those of t-uniform patterns.
    """
    check_seed(seed)
    family = list(family)
    if not family:
        raise ParameterError("need at least one pattern to exclude")
    other = next((F.t for F in family if F.t != t), None)
    if other is not None:
        raise ParameterError(f"an excluded pattern is {other}-uniform, expected {t}")
    _check_candidates(n, t)  # before n ** (-1/rho), which fails for n <= 0
    if p is None:
        density = min(rho(F) for F in family)
        p = float(n) ** (-1 / float(density))
    H = random_hypergraph(n, t, p, seed)
    while True:
        hit = None
        for F in family:
            found = contains_subhypergraph(H, F)
            if found is not None:
                hit = found
                break
        if hit is None:
            return H
        doomed = set(hit.edge_map.values())
        H = Hypergraph(H.t, H.n, [e for i, e in enumerate(H.edges) if i not in doomed])


def combinatorial_lines(n: int, limit=None) -> Hypergraph:
    """The 3-uniform hypergraph of combinatorial lines of the n-cube over
    three symbols.

    Points of {1,2,3}^n get ids by base-3 place value (first coordinate
    most significant, symbol s contributing s-1).  Each template over
    {1,2,3,wildcard} with at least one wildcard yields the line of the
    three points obtained by setting every wildcard to a common symbol,
    so there are 4^n - 3^n edges.  Refused with ResourceLimitError when
    the 4^n templates exceed ``LINES_GUARD``.
    """
    if n < 1:
        raise ParameterError(f"cube dimension must be positive, got {n}")
    check_power(4, n, LINES_GUARD, "line templates", limit)
    weights = [3 ** (n - 1 - i) for i in range(n)]

    def point_id(symbols) -> int:
        return sum((s - 1) * w for s, w in zip(symbols, weights))

    edges = []
    for template in product((1, 2, 3, None), repeat=n):
        if None not in template:
            continue
        line = tuple(point_id(s if s is not None else fill for s in template)
                     for fill in (1, 2, 3))
        edges.append(line)
    return Hypergraph(3, 3 ** n, edges)


def greedy_hard_setsystem(k: int) -> SetSystem:
    """Set system on k*k elements where greedy ignores the k-block optimum.

    The universe splits into k blocks of k consecutive elements.  On top
    of them, ceil((k-1) ln k) pairwise disjoint decoy sets are built: each
    round ranks blocks by how many elements they still hold (ties to the
    lower block index), takes the maximum remaining element from each of
    the top p blocks where p is the largest remaining count, and retires
    those elements.  Decoys come first in the listing so that greedy,
    which breaks coverage ties toward lower set ids, prefers them;
    following them all costs about (k-1) ln k picks against the optimum k.
    Refused with ResourceLimitError when k*k exceeds ``ENUMERATION_GUARD``.

    The ranking is kept as a bucket order by remaining count instead of
    being re-sorted, so a round costs O(p).  Only two buckets are ever
    filled: blocks s..k-1 hold c elements and blocks 0..s-1 hold c - 1
    (none when s = 0), so the ranking is s, ..., k-1, 0, ..., s-1.  A
    round takes its first p = c blocks, each giving up its largest
    remaining element, block * k + count - 1.  If s + c <= k, the taken
    blocks join the lower bucket and s moves past them (back to 0, with c
    lowered, once every block is at c - 1); otherwise the whole top
    bucket and the first s + c - k blocks of the lower one were taken,
    and the untaken rest of the lower bucket is the new top.  Elements of
    the wrapped-around blocks are the smaller ones, so each decoy comes
    out sorted.
    """
    if k < 2:
        raise ParameterError(f"block count must be at least 2, got {k}")
    check_limit(k * k, ENUMERATION_GUARD, "universe k*k")
    decoys = []
    s, c = 0, k
    for _ in range(math.ceil((k - 1) * math.log(k))):
        wrap = max(0, s + c - k)
        top = min(s + c, k)
        decoys.append(tuple(range(c - 2, wrap * k + c - 2, k))
                      + tuple(range(s * k + c - 1, top * k + c - 1, k)))
        if wrap:
            s, c = wrap, c - 1
        elif s + c == k:
            s, c = 0, c - 1
        else:
            s += c
    full_blocks = [tuple(range(j * k, (j + 1) * k)) for j in range(k)]
    return SetSystem(k * k, decoys + full_blocks)


def simplify_reduction(G: Hypergraph, B: int, P: int, seed: int) -> Hypergraph:
    """Cloud expansion producing a simple hypergraph from any input.

    Each base vertex v becomes a cloud of B copies (ids v*B .. v*B+B-1).
    Every base edge spawns P candidate edges picking one cloud copy per
    endpoint (endpoints consume RNG draws in sorted order).  Candidates
    are then scanned in generation order and one is kept only when it
    meets every previously kept edge in at most one vertex, so the later
    member of any conflicting pair is the one dropped.  Exact duplicates
    conflict in t places and are dropped the same way.

    Each candidate is tested against the pairs of the kept edges, as
    ``is_simple`` tests edges, so it costs at most C(t, 2) lookups.
    Refused with ResourceLimitError when the m * P candidates exceed
    ``ENUMERATION_GUARD``.
    """
    check_seed(seed)
    if B < 1 or P < 1:
        raise ParameterError("cloud size and per-edge count must be positive")
    check_limit(G.m * P, ENUMERATION_GUARD, "candidate edges m*P")
    rng = random.Random(seed)
    # copies of a sorted edge's endpoints are sorted, since v*B + r < (v+1)*B
    candidates = [tuple(v * B + rng.randrange(B) for v in edge)
                  for edge in G.edges for _ in range(P)]
    edges = [cand for cand, kept in zip(candidates, _kept_flags(candidates)) if kept]
    edges.sort()  # kept edges are distinct: duplicates conflict
    return Hypergraph._from_canonical(G.t, G.n * B, tuple(edges))


def three_tent() -> Hypergraph:
    """The canonical 7-vertex tent: three edges through a common apex and
    one crossing edge meeting each in a single distinct vertex."""
    return Hypergraph(3, 7, [(0, 1, 4), (0, 2, 5), (0, 3, 6), (4, 5, 6)])
