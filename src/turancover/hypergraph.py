"""Uniform hypergraphs, k-subset blow-ups, and feasibility checks.

Conventions: vertices are dense integer ids 0..n-1, every edge is a
strictly increasing tuple of t distinct ids, and the edge list is sorted
lexicographically with duplicates rejected.  The canonical form makes
equality structural and keeps every downstream artifact reproducible.

A ``Hypergraph`` holds its edges in two forms: ``edges``, a tuple of id
tuples, and ``edge_array``, a read-only numpy ``(m, t)`` array.  It
keeps the form it was built from and derives the other on first use,
once, cached.  The validating constructor, the pure-Python blow-up, the
line parser and the generators other than ``random_hypergraph`` build
tuples; the array blow-up, the array parser, the threshold loop's
residuals and ``random_hypergraph`` where numpy is loaded build arrays
only, so that the float pipeline, which reads only ``edge_array``,
never pays for tuples.  Equality, hashing, ``repr`` and pickling do not
depend on which forms an instance holds.

All types are immutable after construction and all operations are pure
functions, so values can be shared freely between threads.
"""

from __future__ import annotations

import sys
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import combinations
from math import comb

from .errors import ParameterError
from .guards import ENUMERATION_GUARD, _index, _int_rows, check_comb
from .setcover import SetSystem, _kept_flags, dual_system

__all__ = [
    "Hypergraph",
    "BlowUp",
    "blow_up",
    "is_simple",
    "is_vertex_cover",
    "is_matching",
    "dual",
]


class Hypergraph:
    """A t-uniform hypergraph in canonical form.

    ``n`` may exceed the ids actually used (isolated vertices are fine).
    An edgeless hypergraph with n = 0 is allowed so that blow-ups of
    edgeless inputs stay representable.  Frozen: ``t``, ``n`` and the
    edge forms cannot be assigned.
    """

    def __init__(self, t: int, n: int, edges):
        t = _index(t, "uniformity")
        n = _index(n, "vertex count")
        edges = _int_rows(edges, "vertex id")
        if t < 2:
            raise ParameterError(f"uniformity must be at least 2, got {t}")
        if n < 0 or (n < t and not (n == 0 and not edges)):
            raise ParameterError(f"vertex count {n} below uniformity {t}")
        norm = []
        for e in edges:
            te = tuple(sorted(e))
            if len(te) != t or len(set(te)) != t:
                raise ParameterError(f"edge {e} is not a {t}-subset")
            if te[0] < 0 or te[-1] >= n:
                raise ParameterError(f"edge {e} has out-of-range vertex ids")
            norm.append(te)
        norm.sort()
        for a, b in zip(norm, norm[1:]):
            if a == b:
                raise ParameterError(f"duplicate edge {a}")
        self.__dict__.update(t=t, n=n, edges=tuple(norm))

    @classmethod
    def _from_canonical(cls, t: int, n: int, edges: tuple | None = None,
                        array=None) -> "Hypergraph":
        """Trusted constructor: checks nothing.

        The caller gives ``edges``, ``array`` or both, and guarantees what
        the validating constructor would check and establish: a valid
        shape, and edges that are strictly increasing t-tuples of ids
        below n, sorted and distinct, as a tuple of tuples or as an
        ``(m, t)`` intp array, equal where both are given.  The array is
        made read-only.
        """
        H = object.__new__(cls)
        H.__dict__.update(t=t, n=n)
        if edges is not None:
            H.__dict__["edges"] = edges
        if array is not None:
            array.flags.writeable = False
            H.__dict__["edge_array"] = array
        return H

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        """Equal shapes and edges; the tuples are compared where both
        sides hold them, else the arrays."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        if (self.t, self.n) != (other.t, other.n):
            return False
        if "edges" in vars(self) and "edges" in vars(other):
            return self.edges == other.edges
        E, F = self.edge_array, other.edge_array
        return E.shape == F.shape and bool((E == F).all())

    def __hash__(self):
        return hash((self.t, self.n, self.edges))

    def __repr__(self):
        return f"{type(self).__qualname__}(t={self.t!r}, n={self.n!r}, edges={self.edges!r})"

    def __reduce__(self):
        return type(self), (self.t, self.n, self.edges)

    @property
    def m(self) -> int:
        form = vars(self).get("edges")
        return len(form if form is not None else self.edge_array)

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """The edges as a tuple of id tuples, built from ``edge_array`` on
        first use where the instance was built from arrays."""
        return tuple(map(tuple, self.edge_array.tolist()))

    @cached_property
    def edge_array(self):
        """The edges as a read-only numpy ``(m, t)`` array of ``intp`` ids,
        built from ``edges`` on first use where the instance was built
        from tuples; numpy is imported only then.
        """
        import numpy as np

        arr = np.array(self.edges, dtype=np.intp).reshape(len(self.edges), self.t)
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
        base_t = _index(self.base_t, "base uniformity")
        base_n = _index(self.base_n, "base vertex count")
        k = _index(self.k, "subset size")
        labels = _int_rows(self.labels, "base id")
        if not 1 <= k < base_t:
            raise ParameterError(f"subset size {k} not in [1, {base_t})")
        if len(labels) != self.hyper.n:
            raise ParameterError("one label per blow-up vertex required")
        if self.hyper.m and self.hyper.t != comb(base_t, k):
            raise ParameterError("blow-up uniformity does not match C(base_t, k)")
        norm = []
        for lab in labels:
            tl = tuple(sorted(lab))
            if len(tl) != k or len(set(tl)) != k:
                raise ParameterError(f"label {lab} is not a {k}-subset")
            if tl and (tl[0] < 0 or tl[-1] >= base_n):
                raise ParameterError(f"label {lab} has out-of-range base ids")
            norm.append(tl)
        if sorted(norm) != norm or len(set(norm)) != len(norm):
            raise ParameterError("labels must be distinct and lexicographically sorted")
        for name, value in (("base_t", base_t), ("base_n", base_n), ("k", k),
                            ("labels", tuple(norm))):
            object.__setattr__(self, name, value)

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

    Built by array operations (``_array_blow_up``) when numpy is already
    loaded and there are no more possible k-subsets of the base ids,
    n**k, than k-subsets of edges, m*C(t, k), as in pair blow-ups of dense
    bases; otherwise in pure Python (``_tuple_blow_up``), so that a
    short-lived process that needs no numpy never loads it (importing it
    costs about 70 ms).  Both give the same instance.

    Refused with ResourceLimitError when its m*C(t, k) edge entries (an
    edgeless base counting as one edge) exceed ``ENUMERATION_GUARD``.
    """
    if not 1 <= k < base.t:
        raise ParameterError(f"subset size {k} not in [1, {base.t})")
    check_comb(base.t, k, max(base.m, 1), ENUMERATION_GUARD, "blow-up entries")
    if "numpy" in sys.modules and base.n ** k <= base.m * comb(base.t, k):
        return _array_blow_up(base, k)
    return _tuple_blow_up(base, k)


def _tuple_blow_up(base: Hypergraph, k: int) -> BlowUp:
    """``blow_up`` in pure Python, from sets and dicts of label tuples."""
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


def _array_blow_up(base: Hypergraph, k: int) -> BlowUp:
    """``blow_up`` by array operations, for n**k <= m*C(t, k).

    Each k-subset of each base edge is coded as the base-n integer of its
    ids, so that for a fixed k numeric order is lexicographic order.  A
    table of one flag per possible code, no longer than the codes, marks
    the codes present: the marked codes, decoded digit by digit, are the
    labels in order, and the table's running count numbers them, which
    gives every edge's label ids, ``edge_array``, without a sort.  The
    instance holds that array only: building the edge tuples from it took
    most of this function's time on the benchmark's pair blow-ups, and
    the float pipeline never reads them.  A sort by ``np.unique`` would
    serve any n**k below 2**62, but took about 1.4 times as long on those
    blow-ups.
    """
    import numpy as np

    n = base.n
    E = base.edge_array
    columns = np.array(list(combinations(range(base.t), k)), dtype=np.intp).T
    codes = E[:, columns[0]]
    for c in columns[1:]:
        codes *= n
        codes += E[:, c]
    present = np.zeros(n ** k, dtype=bool)
    present[codes] = True
    found = np.flatnonzero(present)
    rank = np.cumsum(present, dtype=np.intp)
    rank -= 1
    ids = rank[codes]
    labels = found[:, None] // n ** np.arange(k - 1, -1, -1) % n
    hyper = Hypergraph._from_canonical(comb(base.t, k), len(found), array=ids)
    return BlowUp._from_canonical(hyper, tuple(map(tuple, labels.tolist())), base.t, n, k)


def is_simple(H: Hypergraph) -> bool:
    """True when every pair of distinct edges shares at most one vertex."""
    return all(_kept_flags(H.edges))


def _id_set(ids, bound: int, what: str) -> set[int]:
    """The distinct ``ids`` as ints in 0..bound-1.  Other types pass if
    ``operator.index`` takes them; all-int ids are checked in C passes."""
    out = set(ids)
    if not set(map(type, out)) <= {int}:
        out = {_index(v, what) for v in out}
    if out and (min(out) < 0 or max(out) >= bound):
        raise ParameterError(f"{what} {next(v for v in out if not 0 <= v < bound)} out of range")
    return out


def is_vertex_cover(H: Hypergraph, cover) -> bool:
    """True when every edge of H contains a vertex of ``cover``.

    An instance that holds only ``edge_array`` is checked on it, through
    a flag per vertex, unless n exceeds its m*t entries; anything else
    on its tuples.
    """
    cov = _id_set(cover, H.n, "vertex id")
    if "edges" in vars(H) or H.n > H.edge_array.size:
        return all(not cov.isdisjoint(e) for e in H.edges)
    import numpy as np

    chosen = np.zeros(H.n, dtype=bool)
    chosen[list(cov)] = True
    return bool(chosen[H.edge_array].any(axis=1).all())


def _first_non_cover_row(H: Hypergraph, incidence) -> int | None:
    """Index of the first row of a ``(rows, n)`` boolean incidence matrix
    whose vertex set misses an edge of H, or None.

    Bit-sliced: row i sets bit i % 64 of a per-vertex word, each edge
    ORs the words of its vertices, and the AND over all edges has a zero
    bit for every non-cover.  One 64-row word is gathered at a time, so
    the pass over the edges takes m * t * 8 bytes.
    """
    if H.m == 0:
        return None
    import numpy as np

    E = H.edge_array
    for start in range(0, len(incidence), 64):
        rows = incidence[start:start + 64]
        # each row sets its own bit, so the sum is their OR
        shifts = np.arange(len(rows), dtype=np.uint64)[:, None]
        bits = (rows.astype(np.uint64) << shifts).sum(axis=0, dtype=np.uint64)
        covered = np.bitwise_and.reduce(np.bitwise_or.reduce(bits[E], axis=1))
        missed = ~int(covered) & ((1 << len(rows)) - 1)
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
