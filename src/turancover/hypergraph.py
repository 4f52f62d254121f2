"""Uniform hypergraphs, k-subset blow-ups, and feasibility checks.

Conventions: vertices are dense integer ids 0..n-1, every edge is a
strictly increasing tuple of t distinct ids, and the edge list is sorted
lexicographically with duplicates rejected.  The canonical form makes
equality structural and keeps every downstream artifact reproducible.

All types are immutable after construction and all operations are pure
functions, so values can be shared freely between threads.  The one
derived value, ``Hypergraph.edge_array``, is built lazily, cached and
read-only.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb

from .errors import ParameterError, ResourceLimitError
from .guards import comb_exceeds, resolve_limit
from .setcover import SetSystem, _kept_flags, dual_system

__all__ = [
    "Hypergraph",
    "BlowUp",
    "blow_up",
    "is_simple",
    "is_vertex_cover",
    "first_non_cover",
    "is_matching",
    "dual",
]

BLOWUP_GUARD = 1_000_000


@dataclass(frozen=True)
class Hypergraph:
    """A t-uniform hypergraph in canonical form.

    ``n`` may exceed the ids actually used (isolated vertices are fine).
    An edgeless hypergraph with n = 0 is allowed so that blow-ups of
    edgeless inputs stay representable.
    """

    t: int
    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.t < 2:
            raise ParameterError(f"uniformity must be at least 2, got {self.t}")
        if self.n < 0 or (self.n < self.t and not (self.n == 0 and not self.edges)):
            raise ParameterError(f"vertex count {self.n} below uniformity {self.t}")
        norm = []
        for e in self.edges:
            te = tuple(sorted(e))
            if len(te) != self.t or len(set(te)) != self.t:
                raise ParameterError(f"edge {e} is not a {self.t}-subset")
            if te[0] < 0 or te[-1] >= self.n:
                raise ParameterError(f"edge {e} has out-of-range vertex ids")
            norm.append(te)
        norm.sort()
        for a, b in zip(norm, norm[1:]):
            if a == b:
                raise ParameterError(f"duplicate edge {a}")
        object.__setattr__(self, "edges", tuple(norm))

    @classmethod
    def _from_canonical(cls, t: int, n: int, edges: tuple, array=None) -> "Hypergraph":
        """Trusted constructor: skips ``__post_init__``.

        The caller guarantees what ``__post_init__`` would check and
        establish: a valid shape, and ``edges`` a tuple of strictly
        increasing t-tuples of ids below n, sorted and distinct.  A given
        ``array`` must equal ``edge_array``; it is made read-only and
        cached as such.
        """
        H = object.__new__(cls)
        object.__setattr__(H, "t", t)
        object.__setattr__(H, "n", n)
        object.__setattr__(H, "edges", edges)
        if array is not None:
            array.flags.writeable = False
            H.__dict__["edge_array"] = array
        return H

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_array(self):
        """The edges as a read-only numpy ``(m, t)`` array of ``intp`` ids.

        Built on first use; numpy is imported only then.
        """
        import numpy as np

        arr = np.array(self.edges, dtype=np.intp).reshape(self.m, self.t)
        arr.flags.writeable = False
        return arr


@dataclass(frozen=True)
class BlowUp:
    """A blown-up hypergraph together with its vertex labels.

    Vertex i of ``hyper`` stands for the k-subset ``labels[i]`` of the
    base vertex set 0..base_n-1.  Labels are strictly increasing tuples,
    listed in lexicographic order, one per blow-up vertex.
    """

    hyper: Hypergraph
    labels: tuple[tuple[int, ...], ...]
    base_t: int
    base_n: int
    k: int

    def __post_init__(self):
        if not 1 <= self.k < self.base_t:
            raise ParameterError(f"subset size {self.k} not in [1, {self.base_t})")
        if len(self.labels) != self.hyper.n:
            raise ParameterError("one label per blow-up vertex required")
        if self.hyper.edges and self.hyper.t != comb(self.base_t, self.k):
            raise ParameterError("blow-up uniformity does not match C(base_t, k)")
        norm = []
        for lab in self.labels:
            tl = tuple(sorted(lab))
            if len(tl) != self.k or len(set(tl)) != self.k:
                raise ParameterError(f"label {lab} is not a {self.k}-subset")
            if tl and (tl[0] < 0 or tl[-1] >= self.base_n):
                raise ParameterError(f"label {lab} has out-of-range base ids")
            norm.append(tl)
        if sorted(norm) != norm or len(set(norm)) != len(norm):
            raise ParameterError("labels must be distinct and lexicographically sorted")
        object.__setattr__(self, "labels", tuple(norm))

    @classmethod
    def _from_canonical(cls, hyper: Hypergraph, labels: tuple, base_t: int,
                        base_n: int, k: int) -> "BlowUp":
        """Trusted constructor: skips ``__post_init__``, whose checks and
        normal form (sorted, distinct, in-range labels) the caller
        guarantees."""
        B = object.__new__(cls)
        for name, value in (("hyper", hyper), ("labels", labels), ("base_t", base_t),
                            ("base_n", base_n), ("k", k)):
            object.__setattr__(B, name, value)
        return B


def _as_hypergraph(instance) -> Hypergraph:
    """The hypergraph of an instance: a blow-up's ``hyper``, else the instance."""
    return instance.hyper if isinstance(instance, BlowUp) else instance


def blow_up(base: Hypergraph, k: int) -> BlowUp:
    """Build the k-subset blow-up of ``base``.

    Vertices are the k-subsets of the base vertex set contained in at
    least one base edge, numbered in lexicographic subset order.  Each
    base edge contributes the edge collecting all C(t, k) of its
    k-subsets.  For k = t - 1 the result is simple: two blow-up edges
    meet in at most one vertex because two distinct base edges share at
    most t - 1 base vertices, hence at most one (t-1)-subset.

    Refused with ResourceLimitError when C(t, k) exceeds ``BLOWUP_GUARD``
    (or the ``TURANCOVER_SIZE_GUARD`` override), edgeless bases included.
    """
    if not 1 <= k < base.t:
        raise ParameterError(f"subset size {k} not in [1, {base.t})")
    cap = resolve_limit(None, BLOWUP_GUARD)
    if comb_exceeds(base.t, k, cap):
        raise ResourceLimitError(f"C({base.t},{k}) vertices per blown-up edge exceed limit {cap}")
    labels = tuple(sorted({sub for e in base.edges for sub in combinations(e, k)}))
    index = {lab: i for i, lab in enumerate(labels)}
    # Canonical by construction.  A canonical base edge yields its k-subsets
    # in lexicographic order, so their label ids increase.  Edges e < f first
    # differ at some position j, and the first k-subset using position j is
    # also the first at which their subset sequences differ, smaller for e:
    # blown-up edges come out sorted and distinct.
    edges = tuple(tuple(map(index.__getitem__, combinations(e, k))) for e in base.edges)
    hyper = Hypergraph._from_canonical(comb(base.t, k), len(labels), edges)
    return BlowUp._from_canonical(hyper, labels, base.t, base.n, k)


def is_simple(H: Hypergraph) -> bool:
    """True when every pair of distinct edges shares at most one vertex."""
    return all(_kept_flags(H.edges))


def _id_set(ids, bound: int, what: str) -> set[int]:
    """The distinct ``ids`` as ints in 0..bound-1.  Other types pass if
    ``operator.index`` takes them; all-int ids are checked in C passes."""
    out = set(ids)
    if not set(map(type, out)) <= {int}:
        for v in out:
            if not hasattr(type(v), "__index__"):
                raise ParameterError(f"{what} {v!r} is not an integer")
        out = set(map(operator.index, out))
    if out and (min(out) < 0 or max(out) >= bound):
        raise ParameterError(f"{what} {next(v for v in out if not 0 <= v < bound)} out of range")
    return out


def is_vertex_cover(H: Hypergraph, cover) -> bool:
    """True when every edge of H contains a vertex of ``cover``."""
    cov = _id_set(cover, H.n, "vertex id")
    return all(not cov.isdisjoint(e) for e in H.edges)


def first_non_cover(H: Hypergraph, covers) -> int | None:
    """Index of the first of ``covers`` that misses an edge of H, or None.

    Equivalent to checking each cover with ``is_vertex_cover`` in turn,
    ids validated the same way, but bit-sliced: cover i sets bit i % 64
    of a per-vertex word, each edge ORs the words of its vertices, and
    the AND over all edges has a zero bit for every non-cover.  One
    64-cover word is gathered at a time, so the pass over the edges
    takes m * t * 8 bytes.
    """
    sets = [_id_set(cover, H.n, "vertex id") for cover in covers]
    if not sets or H.m == 0:
        return None
    import numpy as np

    E = H.edge_array
    for start in range(0, len(sets), 64):
        chunk = sets[start:start + 64]
        bits = np.zeros(H.n, dtype=np.uint64)
        for i, cov in enumerate(chunk):
            ids = np.fromiter(cov, dtype=np.intp, count=len(cov))
            bits[ids] |= np.uint64(1 << i)
        covered = np.bitwise_and.reduce(np.bitwise_or.reduce(bits[E], axis=1))
        missed = ~int(covered) & ((1 << len(chunk)) - 1)
        if missed:
            return start + (missed & -missed).bit_length() - 1
    return None


def is_matching(H: Hypergraph, edge_ids) -> bool:
    """True when the selected edges are pairwise disjoint.

    ``edge_ids`` must be distinct valid indices into H.edges; every id
    is checked before any edge is compared.
    """
    ids = list(edge_ids)
    if len(set(ids)) != len(ids):
        raise ParameterError("edge ids must be distinct")
    used: set[int] = set()
    for ei in _id_set(ids, H.m, "edge id"):
        e = set(H.edges[ei])
        if used & e:
            return False
        used |= e
    return True


def dual(H: Hypergraph) -> SetSystem:
    """Edge/vertex incidence transpose as a set system.

    The universe is the edge ids of H; each vertex with nonempty
    incidence contributes the set of edges through it.  A vertex cover of
    H is exactly a set cover of the dual, and when H is simple the dual
    is a simple system.
    """
    return dual_system(SetSystem(H.n, H.edges))
