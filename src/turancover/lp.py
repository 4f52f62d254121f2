"""Exact and floating-point solvers for the covering/matching LP pair.

For a t-uniform hypergraph H the two programs are

    cover:    minimize sum_v x_v   subject to  sum_{v in e} x_v >= 1  for every edge e,  x >= 0
    matching: maximize sum_e y_e   subject to  sum_{e through v} y_e <= 1  for every vertex v,  y >= 0

They share one optimal value, and any optimal pair is complementary:
a positively weighted vertex sits on a tight matching constraint and a
positively weighted edge on a tight covering constraint.  That tightness
also bounds the primal support: every supported vertex v has
sum_{e through v} y_e = 1, so |support| = sum_{v in S} sum_{e through v} y_e
<= t * sum_e y_e = t * objective.

Both modes solve the covering program with HiGHS's dual simplex
through the binding bundled with scipy
(``scipy.optimize._highspy._core``), its constraint matrix straight
from ``Hypergraph.edge_array``; float mode may answer before that (the
uniform rung below).  The binding is loaded from its extension file on
its own (``_extension``, which loads scipy's LAPACK for the rung the
same way): importing it the ordinary way runs
``scipy/optimize/__init__.py`` first, about 0.45 s and 40 MB per
process that nothing here uses.  Both sides are read off that one
solve: the primal x and the dual y (the negated row duals).  Exact mode
turns them into an exact rational pair through a fixed ladder:

1. rationalize each value to the nearest fraction with denominator up
   to 10**6 (what ``Fraction.limit_denominator`` returns, found by an
   integer continued fraction), once per distinct float;
2. failing that, solve the system of HiGHS's optimal basis exactly
   over the integers by fraction-free (Bareiss) elimination: with S the
   basic columns and T the rows whose slack is nonbasic (|S| = |T|),
   ``A[T,S] x_S = 1`` and ``A[T,S]^T y_T = 1``, square and nonsingular,
   so no float value or tolerance enters;
3. failing that, run the rational simplex below.

A pair is returned only once ``check_complementary_slackness`` accepts
it exactly: both sides feasible, complementary and of equal objective,
which certifies both optimal.  The simplex uses Bland's anticycling
rule, so it terminates.  It solves the matching program, one row per
vertex, from its slack basis, which is feasible, so it needs one phase
and no artificial columns; the covering optimum is read off the final
reduced costs of the slack columns.  HiGHS is deterministic, so the
returned optimum is a pure function of the instance, though not always
the vertex the simplex would pick.

The certificate check runs in integers: every value is scaled by the
least common multiple D of all denominators, and each edge and vertex
load is compared against D.  The objectives are likewise one integer
sum over the common denominator.  This is the scheme of QSopt_ex
(Applegate, Cook, Dash and Espinoza, ORL 2007): a float solve, then an
exact rational check.

Exact solves share one HiGHS object per thread, emptied after each
solve.  Float solves build a fresh one each time and drop it: a reused
object keeps memory that ``clearModel`` does not hand back, which
raised the float benchmarks' peak RSS, while exact LPs are small by
``EXACT_SIZE_GUARD``, so what their object holds on to stays small.

Both modes skip HiGHS's presolve, which took about half of its time
on the benchmark's corpus LPs and removes nothing from pair blow-ups.
Instead they make the one reduction that matters for full blow-ups
themselves: a vertex of degree 1 that shares its edge e with a vertex
k left free gets upper bound 0 (``_dominated``).  This is sound.
Moving x_j onto x_k keeps every row covered at the same cost, so the
optimum is unchanged.  On the dual side, the reduced LP's optimum has
load(k) <= 1 because x_k is free, and j's only load is y_e <= load(k),
so its y is a matching of H itself.  And in exact mode, whatever HiGHS
returns, ``check_complementary_slackness`` checks the pair against the
unreduced H.  The fixing also keeps covers small: without it, HiGHS
with presolve off returns optimal vertices that make larger covers on
the benchmark's corpus (``BENCH_12.json``).  A pair blow-up of a dense
base has no vertex of degree 1, so nothing is fixed there, and HiGHS's
values are the same bit for bit with presolve on or off.

Float mode returns HiGHS's values as they are (or the uniform rung's,
below), both sides with the solve's objective.  Support membership
then uses a 1e-9 tolerance and no exactness assertions are made.  Its guard bounds n + m*t, the
columns plus the nonzeros HiGHS holds, by ``FLOAT_SIZE_GUARD``.  A
``size_guard`` argument sets the guard of the mode in use: n*m in exact
mode, n + m*t in float mode.

The uniform rung.  Before its covering solve, float mode tries to
certify x = 1/t on each of the n' non-isolated vertices
(``_uniform_pair``) by dense linear algebra, with no HiGHS model.  That
x covers every edge exactly, at cost n'/t.  It is optimal exactly when
a perfect fractional matching exists, a y >= 0 with load 1 on every
non-isolated vertex, as then sum y = n'/t as well.  It is the unique
optimum when some such y is positive on an edge set B whose incidence
``A[B]`` has full column rank n': an optimal x' is complementary to y,
so ``A[B] x' = 1``, which has one solution, so x' = x.  This is the
rank criterion of Mangasarian, *Uniqueness of solution in linear
programming* (Linear Algebra Appl. 25, 1979).  The covering solve
returns that unique optimum too, up to HiGHS's tolerances, so the rung
changes no support and no cover, only trailing float digits and the
matching.

The rung never holds A whole.  Each round forms the co-degree matrix
``G = A[B]^T A[B]`` (``_gram``), summed over one BLAS product per block
of rows of ``A[B]``, at most 2.5 MiB of float32 each, built in one
reused buffer from the rows of ``edge_array`` that B keeps.  Entry
(u, v) of G counts the edges of B through u and v, so every partial sum
is an integer of at most m < 2**24, which float32 adds exactly in any
order: G, and G in float64, is exact.  G is positive definite exactly when
``A[B]`` has full column rank, so the rung factors it by Cholesky in
float64, with LAPACK's ``dpotrf`` from scipy's ``_flapack``, loaded by
``_extension`` once the gates below pass.  A singular G can still
factor in floats, with a pivot left at rounding level, so every pivot
must exceed ``_PIVOT_FLOOR`` = 1e-8 times its diagonal entry; a
factorization that fails (``info != 0``) rejects too.  Over 4000 small
pair blow-ups, singular Grams left pivots of at most 7e-15 of their
diagonal entry and nonsingular ones at least 5e-3 (``BENCH_17.json``).
G must stay the exact integer matrix: the floor tells singular from
nonsingular only because G carries no rounding of its own, and without
the floor the rung accepts instances whose x = 1/t is optimal but not
unique (``tests/test_lp.py``).  The rung then solves ``G z = 1`` once,
by ``dpotrs`` from the same factor, so G is factored once per round,
and sets ``y = A[B] z``, the least-norm solution of ``A[B]^T y = 1``.
No refinement step is needed: the load check below bounds the solve's
error, and over the 180 ``float_pairs`` LPs of seeds 201-220 the worst
``|load - 1|`` was 2.4e-15.  The rung accepts
if y exceeds ``FLOAT_SUPPORT_TOL`` on all of B and every vertex load
is within 1e-9 of 1, and returns x, that y and n'/t as both objectives; y can be
positive on all m edges.  If y is not positive somewhere, those edges
leave B, which only shortens the list of kept rows the next G is summed
over, and the rung goes again while |B| >= n'.  Each round shrinks B,
so the loop ends.  A failed factorization or a low pivot ends the rung
at once, as no subset of B has full rank either.

The rung is tried only where these gates hold:

- no vertex has degree 1.  Such a vertex forces y_e = 1 on its edge e,
  which leaves e the only positive edge at each of its t vertices.  Their
  t columns of ``A[B]`` are then equal, so no B can certify;
- n' <= m < 2**24.  Full column rank needs n' edges, and exact float32
  sums need m below 2**24;
- a dense incidence and G, 4*m*n' + 8*n'**2 bytes, would take no more
  than HiGHS would hold for the covering model, about 200 bytes per
  unit of n + m*t (the guard in ``_solve_pair``).  On the benchmark's
  pair blow-ups that is 6.8 MB against 13.9 MB.  The rung holds at most
  2.5 MiB of the incidence, so it stays inside this bound, which decides
  where the rung is tried.

Every rejection runs the covering solve as it would without the rung.
A rejection costs the rung's own rounds on top: 0.04-0.5 ms on sparse
pair blow-ups of 28x30 to 91x100, and up to 16 ms on 190x388, where
many rounds run, against a covering solve of 3-57 ms (``BENCH_17.json``).
An acceptance takes 4.2-8.4 ms on the benchmark's pair blow-ups
(``BENCH_25.json``), whose covering solve takes 72-154 ms.  Exact mode does not
try the rung: its ladder needs a rational y, and the rung's y is a
float.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError, VerificationError
from .guards import check_limit
from .hypergraph import Hypergraph

__all__ = [
    "LPSolution",
    "SlacknessReport",
    "solve_vc_lp",
    "solve_matching_lp",
    "check_complementary_slackness",
    "EXACT_SIZE_GUARD",
    "FLOAT_SIZE_GUARD",
    "FLOAT_SUPPORT_TOL",
]

EXACT_SIZE_GUARD = 50_000
FLOAT_SIZE_GUARD = 1_000_000
FLOAT_SUPPORT_TOL = 1e-9

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LPSolution:
    """One side of the covering/matching pair.

    ``kind`` is "primal" for vertex weights of the covering program and
    "dual" for edge weights of the matching program.  ``values`` maps ids
    to nonzero weights (Fractions in exact mode, floats otherwise) and
    must not be mutated.
    """

    kind: str
    values: dict
    objective: object
    mode: str

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.values))

    def value(self, i: int):
        return self.values.get(i, 0)


@dataclass(frozen=True)
class SlacknessReport:
    """Outcome of a successful complementary-slackness verification."""

    objective: Fraction
    support_size: int


def _simplex_pair(H: Hypergraph):
    """Ladder step 3: Bland's rational simplex on the matching program.

    One row per vertex, ``sum_{e through v} y_e + s_v = 1``, over the m
    edge columns then the n slack columns.  The slack basis is feasible
    and costs nothing, so there is one phase and the reduced costs start
    as the costs, -1 per edge.  The entering column is the lowest-index
    one with a negative reduced cost; the leaving row has the minimum
    ratio, ties to the lowest basic id.  At optimality y is read off the
    basic edge columns and x off the reduced costs of the slack columns.
    Each row maps a column to its nonzero entry, so a tall instance costs
    its nonzeros and fill-in, not n * (m + n) entries.
    """
    n, m = H.n, H.m
    rows = [{m + v: _ONE} for v in range(n)]
    for ei, e in enumerate(H.edges):
        for v in e:
            rows[v][ei] = _ONE
    rhs = [_ONE] * n
    basis = list(range(m, m + n))
    red = [-_ONE] * m + [_ZERO] * n
    while True:
        enter = next((j for j, c in enumerate(red) if c < _ZERO), None)
        if enter is None:
            break
        leave, best = None, None
        for r, row in enumerate(rows):
            a = row.get(enter, _ZERO)
            if a > _ZERO:
                key = (rhs[r] / a, basis[r])
                if best is None or key < best:
                    leave, best = r, key
        if leave is None:
            raise VerificationError("internal: unbounded tableau in a bounded program")
        piv = rows[leave][enter]
        if piv != _ONE:
            rows[leave] = {j: a / piv for j, a in rows[leave].items()}
            rhs[leave] /= piv
        row = rows[leave]
        for r, other in enumerate(rows):
            f = other.get(enter)
            if f and r != leave:
                for j, a in row.items():
                    b = other.get(j, _ZERO) - f * a
                    if b:
                        other[j] = b
                    else:
                        del other[j]
                rhs[r] -= f * rhs[leave]
        f = red[enter]
        for j, a in row.items():
            red[j] -= f * a
        basis[leave] = enter
    y = {basis[r]: rhs[r] for r in range(n) if basis[r] < m and rhs[r]}
    x = {v: red[m + v] for v in range(n) if red[m + v]}
    return x, y


_MAX_DENOMINATOR = 10**6


def _nearest_fraction(value: float) -> Fraction:
    """``Fraction(value).limit_denominator()``, in integers.

    The continued fraction of N/D = ``value.as_integer_ratio()`` runs
    until the next convergent's denominator passes 10**6; the answer is
    the last convergent p1/q1 or the semiconvergent pb/qb below the bound,
    whichever is nearer to N/D, ties to p1/q1, as ``limit_denominator``
    decides them.  Its Fraction arithmetic cost more than HiGHS's solve on
    LPs with many distinct values.
    """
    N, D = value.as_integer_ratio()
    if D <= _MAX_DENOMINATOR:
        return Fraction(N, D)
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = N, D
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > _MAX_DENOMINATOR:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (_MAX_DENOMINATOR - q0) // q1
    pb, qb = p0 + k * p1, q0 + k * q1
    if abs(p1 * D - N * q1) * qb <= abs(pb * D - N * qb) * q1:
        return Fraction(p1, q1)
    return Fraction(pb, qb)


def _float_values(values):
    """The entries of a float array above ``FLOAT_SUPPORT_TOL``, as a dict
    of Python ints to Python floats: the support, as both modes read it."""
    import numpy as np

    support = np.flatnonzero(values > FLOAT_SUPPORT_TOL)
    return dict(zip(support.tolist(), values[support].tolist()))


def _rationalized_pair(x, y):
    """Ladder step 1: the nearest fractions with denominators up to 10**6.

    A solve has few distinct values (about 2.5 in 29 nonzeros on the
    benchmark's corpus), so each distinct float is rationalized once and
    equal values share one Fraction.
    """
    memo = {}

    def rationalize(values):
        out = {}
        for i, value in _float_values(values).items():
            q = memo.get(value)
            if q is None:
                q = memo[value] = _nearest_fraction(value)
            if q:
                out[i] = q
        return out

    return rationalize(x), rationalize(y)


def _solve_ones(matrix, ncols):
    """Exact z with ``matrix @ z = 1`` for a list of integer rows.

    Fraction-free (Bareiss) forward elimination with row swaps, so every
    intermediate entry is an integer minor.  A basis system is square and
    nonsingular, so every column pivots; a column without a pivot would
    get z = 0, for the caller's certificate to reject.
    """
    rows = [list(row) + [1] for row in matrix]
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        top = rows[r]
        piv = top[c]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            f = row[c]
            rows[i] = [(piv * a - f * b) // prev for a, b in zip(row, top)]
        prev = piv
        pivots.append(c)
    z = [Fraction(0)] * ncols
    for r in reversed(range(len(pivots))):
        row = rows[r]
        c = pivots[r]
        rest = sum(row[j] * z[j] for j in pivots[r + 1:] if row[j])
        z[c] = (row[ncols] - rest) / Fraction(row[c])
    return z


def _basis_pair(H: Hypergraph, basis):
    """Ladder step 2: solve the square system of HiGHS's optimal basis exactly.

    S is the basic columns and T the rows whose slack is nonbasic, so
    |S| = |T| and ``A[T,S]`` is the basis matrix with its slack columns
    and their rows struck out, nonsingular like it: ``A[T,S] x_S = 1``
    and ``A[T,S]^T y_T = 1`` each have one solution.
    """
    basic = _extension(_HIGHS).HighsBasisStatus.kBasic
    S = [v for v, status in enumerate(basis.col_status) if status == basic]
    T = [ei for ei, status in enumerate(basis.row_status) if status != basic]
    rows = [[int(v in e) for v in S] for e in (set(H.edges[ei]) for ei in T)]
    xs = _solve_ones(rows, len(S))
    ys = _solve_ones(list(zip(*rows)), len(T))
    return ({v: q for v, q in zip(S, xs) if q},
            {ei: q for ei, q in zip(T, ys) if q})


def _total(values) -> Fraction:
    """Exact sum of Fractions, as one integer sum over their common denominator."""
    D = math.lcm(*{q.denominator for q in values})
    return Fraction(sum(q.numerator * (D // q.denominator) for q in values), D)


def _exact_pair(x: dict, y: dict):
    return (LPSolution("primal", x, _total(x.values()), "exact"),
            LPSolution("dual", y, _total(y.values()), "exact"))


_HIGHS = "scipy.optimize._highspy._core"
_LAPACK = "scipy.linalg._flapack"
_extension_lock = threading.Lock()


def _extension(name: str):
    """The scipy extension module ``name``, loaded without its package.

    An ordinary import of HiGHS's binding first runs
    ``scipy/optimize/__init__.py``, which loads ``scipy.linalg``,
    ``scipy.fft``, ``linprog`` and more that nothing here uses, and an
    ordinary import of ``_flapack`` runs ``scipy/linalg/__init__.py``,
    about 0.34 s.  So the extension file is found in scipy's directory,
    located by its import spec without running ``scipy/__init__.py``
    either (about 8 ms), and executed on its own, registered under its
    full name first, so that a later ordinary import reuses this module
    (pybind11 refuses to register its types twice).  A module already
    imported is used as it is; a scipy without the file at that place
    gets the ordinary import.  The lock keeps two threads from executing
    an extension at once.
    """
    with _extension_lock:
        module = sys.modules.get(name)
        if module is not None:
            return module
        from importlib import import_module
        from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
        from importlib.util import find_spec, module_from_spec

        scipy_dir = find_spec("scipy").submodule_search_locations[0]
        finder = FileFinder(os.path.join(scipy_dir, *name.split(".")[1:-1]),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        if spec is None:
            return import_module(name)
        module = module_from_spec(spec)
        sys.modules[name] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[name]
            raise
        return module


_thread = threading.local()


def _dominated(H: Hypergraph):
    """Ids of the vertices ``_highs`` fixes at 0: each has degree 1 and
    shares its one edge with a free vertex.

    In an edge that also holds a vertex of degree >= 2 every degree-1
    vertex is fixed; in an edge whose vertices all have degree 1, all but
    the lowest id (``edge_array`` rows are sorted).  A dominated-column
    rule in the sense of Andersen and Andersen (Math. Programming 71,
    1995); the module docstring says why it is sound.
    """
    import numpy as np

    E = H.edge_array
    once = (np.bincount(E.ravel(), minlength=H.n) == 1)[E]
    once[once.all(axis=1), 0] = False
    return E[once]


def _highs(H: Hypergraph, exact: bool = True):
    """One HiGHS dual-simplex solve of the covering program, through the
    binding bundled with scipy, loaded by ``_extension`` so that
    ``scipy.optimize`` itself is never imported.

    The program goes in as ``minimize sum(x)  subject to  -A x <= -1,
    x >= 0``, with A the edge-by-vertex incidence given row-wise: row i
    of ``H.edge_array`` is already the sorted index list of row i.  This
    is the form ``scipy.optimize.linprog`` passes to HiGHS, and HiGHS's
    results are not invariant under negating rows.  The model goes in
    through the binding's array form of ``passModel`` (the zero
    integrality marks every column continuous), about 15 us against
    45 us for filling a ``HighsLp``, with the same results bit for bit.
    The ``_dominated`` vertices get upper bound 0, which keeps covers
    from growing (module docstring).  Returns the optimal value, the
    primal x, the negated row duals y (H has edges) and the optimal
    basis, a copy that ``clearModel`` leaves intact; y is an optimal
    matching, so this one layout serves both sides in both modes.  Only
    ladder step 2 reads the basis.

    Every solve runs one configuration, presolve off, which about halves
    HiGHS's ``run`` on the benchmark's corpus LPs and saves about an
    eighth on the pair blow-ups.  ``exact`` only chooses the object.
    Exact mode solves on this thread's HiGHS object, emptied by
    ``clearModel`` once the solution is read; building one costs about
    0.1 ms, a tenth of a certified corpus LP.  The object is taken off
    the thread while it solves, so a solve that raises leaves none behind
    and the next one builds a fresh object.  Float mode (``exact=False``)
    builds a fresh object and drops it: a reused object keeps memory that
    ``clearModel`` does not return, which raised the float benchmarks'
    peak RSS, while exact LPs are small by ``EXACT_SIZE_GUARD``.
    """
    import numpy as np

    _core = _extension(_HIGHS)

    highs = getattr(_thread, "highs", None) if exact else None
    if highs is None:
        highs = _core._Highs()
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue("presolve", "off")
    else:
        _thread.highs = None
    n, m, t = H.n, H.m, H.t
    index = H.edge_array.ravel().astype(np.int32)
    upper = np.full(n, np.inf)
    upper[_dominated(H)] = 0.0
    status = highs.passModel(
        n, m, index.size, int(_core.MatrixFormat.kRowwise), int(_core.ObjSense.kMinimize),
        0.0, np.ones(n), np.zeros(n), upper, np.full(m, -np.inf), np.full(m, -1.0),
        np.arange(0, index.size, t, dtype=np.int32), index, np.full(index.size, -1.0),
        np.zeros(n, dtype=np.int32))
    if status == _core.HighsStatus.kError:  # pragma: no cover - a well-formed model
        raise VerificationError("HiGHS refused the model")
    highs.run()
    result = None
    if highs.getModelStatus() == _core.HighsModelStatus.kOptimal:
        solution = highs.getSolution()
        result = (highs.getObjectiveValue(), np.array(solution.col_value),
                  -np.array(solution.row_dual), highs.getBasis())
    if exact:
        highs.clearModel()
        _thread.highs = highs
    if result is None:  # pragma: no cover - feasible and bounded
        raise VerificationError("HiGHS found no optimum of a feasible, bounded program")
    return result


# HiGHS holds about 200 bytes per unit of n + m*t of the covering model
# (the guard in ``_solve_pair``); the rung's gate lets a dense incidence and G take as much
_HIGHS_BYTES_PER_UNIT = 200
# a Cholesky pivot below this fraction of its diagonal entry is taken for 0
_PIVOT_FLOOR = 1e-8
# the largest violation of A^T y = 1 an accepted rung may leave
_MATCHING_TOL = 1e-9
# bytes of float32 incidence rows built at a time while G is summed (``_gram``)
_GRAM_BLOCK_BYTES = 5 << 19  # 2.5 MiB


def _gram(E, size: int):
    """The co-degree matrix ``A^T A`` in float32, where row i of the 0/1
    incidence A has its ones at the ``size`` columns listed in row i of ``E``.

    A is never held whole: G is summed over blocks of its rows, as many
    as fit ``_GRAM_BLOCK_BYTES`` (at least one), each set up in one
    reused buffer and multiplied into one reused product buffer.  Every
    entry is an integer of at most m < 2**24, so float32 sums it exactly
    in any order.  Smaller blocks were slower: glibc hands freed heap
    back to the system beyond twice the largest chunk it has unmapped,
    so with 1-2 MiB blocks the other temporaries of a benchmark operation
    were re-faulted every time (380-740 page faults per ``float_pairs``
    operation against 30-40, and 85 against 96-99 operations per
    second).  Larger blocks raised ``cli_pipes``' peak RSS.
    """
    import numpy as np

    G = np.zeros((size, size), dtype=np.float32)
    product = np.empty_like(G)
    block = np.empty((min(max(_GRAM_BLOCK_BYTES // (4 * size), 1), len(E)), size),
                     dtype=np.float32)
    at = np.arange(len(block))[:, None]
    for start in range(0, len(E), len(block)):
        rows = E[start:start + len(block)]
        A = block[:len(rows)]
        A.fill(0)
        A[at[:len(rows)], rows] = 1
        G += np.matmul(A.T, A, out=product)
    return G


def _float_pair(obj, primal, dual, side):
    """A float (primal, dual) pair of objective ``obj``, each side's values
    built by calling ``primal`` or ``dual``; with ``side`` 0 or 1 only that
    side is built and the other is None."""
    return (LPSolution("primal", primal(), obj, "float") if side != 1 else None,
            LPSolution("dual", dual(), obj, "float") if side != 0 else None)


def _uniform_pair(H: Hypergraph, side=None):
    """Float rung: certify x = 1/t on every non-isolated vertex as the
    unique covering optimum, or return None (module docstring); ``side``
    as in ``_float_pair``.

    Each round factors the exact co-degree matrix G of the edges B left
    (all of them at first) by LAPACK's ``dpotrf``, solves ``G z = 1``
    from that factor by ``dpotrs`` and sets y = A[B] z, the least-norm
    solution of ``A[B]^T y = 1``; it accepts a y that is positive on B,
    keeps only the edges where it is and goes again, and gives up once G
    is singular or fewer than n' edges are left.  LAPACK is loaded only
    once the gates pass.
    """
    import numpy as np

    E = H.edge_array
    degree = np.bincount(E.ravel(), minlength=H.n)
    used = np.flatnonzero(degree)
    size = used.size
    if degree[used].min() == 1 or not size <= H.m < 2**24:
        return None
    if 4 * H.m * size + 8 * size * size > _HIGHS_BYTES_PER_UNIT * (H.n + H.m * H.t):
        return None
    lapack = _extension(_LAPACK)
    if size < H.n:  # number the non-isolated vertices 0..n'-1
        column = np.zeros(H.n, dtype=np.intp)
        column[used] = np.arange(size)
        E = column[E]
    kept = np.arange(H.m)
    ones = np.ones(size)
    while kept.size >= size:
        G = _gram(E, size).astype(np.float64)
        diagonal = np.diagonal(G).copy()
        # G is symmetric, so G.T is G in the column order LAPACK factors in place
        L, info = lapack.dpotrf(G.T, lower=1, clean=0, overwrite_a=1)
        if info or not (np.diagonal(L) ** 2 > _PIVOT_FLOOR * diagonal).all():
            return None
        y = lapack.dpotrs(L, ones, lower=1)[0][E].sum(axis=1)
        positive = y > FLOAT_SUPPORT_TOL
        if positive.all():
            loads = np.bincount(E.ravel(), weights=np.repeat(y, H.t), minlength=size)
            if np.abs(loads - 1).max() > _MATCHING_TOL:
                return None
            return _float_pair(size / H.t, lambda: dict.fromkeys(used.tolist(), 1 / H.t),
                               lambda: dict(zip(kept.tolist(), y.tolist())), side)
        E, kept = E[positive], kept[positive]
    return None


def _solve_pair(H: Hypergraph, mode: str, size_guard=None, side=None):
    """Optimal (primal, dual) pair from HiGHS; see the module docstring.

    In float mode ``side`` 0 or 1 builds only that side (``_float_pair``);
    exact mode builds both, the certificate needing each.
    """
    if mode == "exact":
        check_limit(H.n * H.m, EXACT_SIZE_GUARD, "exact LP size n*m", size_guard)
    elif mode == "float":
        # HiGHS, which no edgeless LP calls, holds 200-330 bytes per unit of n + m*t
        check_limit(H.n + H.m * H.t if H.m else 0, FLOAT_SIZE_GUARD, "float LP size n+m*t",
                    size_guard)
    else:
        raise ParameterError(f"unknown mode {mode!r}")
    if H.m == 0:
        zero = _ZERO if mode == "exact" else 0.0
        return LPSolution("primal", {}, zero, mode), LPSolution("dual", {}, zero, mode)
    if mode == "float":
        pair = _uniform_pair(H, side)
        if pair is not None:
            return pair
        obj, x, y, _ = _highs(H, exact=False)
        return _float_pair(float(obj), lambda: _float_values(x), lambda: _float_values(y), side)
    _, x, y, basis = _highs(H)
    for step in (lambda: _rationalized_pair(x, y), lambda: _basis_pair(H, basis)):
        primal, dual = _exact_pair(*step())
        try:
            check_complementary_slackness(primal, dual, H)
        except VerificationError:
            continue
        return primal, dual
    primal, dual = _exact_pair(*_simplex_pair(H))
    check_complementary_slackness(primal, dual, H)
    return primal, dual


def solve_vc_lp(H: Hypergraph, mode: str = "exact", size_guard=None) -> LPSolution:
    """Optimal fractional vertex cover of H.

    Exact mode returns a Fraction-valued optimum that has passed
    ``check_complementary_slackness`` together with its matching, with
    a Fraction objective.  An edgeless instance yields the empty
    solution with objective 0.
    """
    return _solve_pair(H, mode, size_guard, 0)[0]


def solve_matching_lp(H: Hypergraph, mode: str = "exact", size_guard=None) -> LPSolution:
    """Optimal fractional matching of H; same conventions as solve_vc_lp.

    Both sides come from the same solve, so in float mode this objective
    equals ``solve_vc_lp``'s bit for bit.
    """
    return _solve_pair(H, mode, size_guard, 1)[1]


def check_complementary_slackness(
    primal: LPSolution, dual: LPSolution, H: Hypergraph
) -> SlacknessReport:
    """Verify an exact optimal pair certificate.

    Checks feasibility of both solutions, equality of objectives, the
    complementary tightness conditions, and the support bound
    |support(x)| <= t * objective.  Raises VerificationError naming the
    offending vertex or edge on the first violation.
    """
    if primal.mode != "exact" or dual.mode != "exact":
        raise ParameterError("slackness verification requires exact-mode solutions")
    if primal.kind != "primal" or dual.kind != "dual":
        raise ParameterError("expected a (primal, dual) pair in that order")
    for v, xv in primal.values.items():
        if not 0 <= v < H.n:
            raise ParameterError(f"primal id {v} out of range")
        if xv.numerator < 0:
            raise VerificationError(f"vertex {v} has negative weight {xv}")
    for e, ye in dual.values.items():
        if not 0 <= e < H.m:
            raise ParameterError(f"dual id {e} out of range")
        if ye.numerator < 0:
            raise VerificationError(f"edge {e} has negative weight {ye}")

    # every load is compared in integers scaled by the common denominator D
    D = math.lcm(*{q.denominator for q in (*primal.values.values(), *dual.values.values())})
    x = [0] * H.n
    for v, xv in primal.values.items():
        x[v] = xv.numerator * (D // xv.denominator)
    edge_load = []
    for ei, e in enumerate(H.edges):
        load = sum(map(x.__getitem__, e))
        if load < D:
            raise VerificationError(
                f"edge {ei} is undercovered: total weight {Fraction(load, D)}"
            )
        edge_load.append(load)
    vertex_load = [0] * H.n
    for ei, ye in dual.values.items():
        scaled = ye.numerator * (D // ye.denominator)
        for v in H.edges[ei]:
            vertex_load[v] += scaled
    if max(vertex_load, default=0) > D:
        # report the first overloaded vertex in order of first incidence
        loaded = (v for ei, e in enumerate(H.edges) if dual.value(ei) for v in e)
        v = next(v for v in loaded if vertex_load[v] > D)
        raise VerificationError(
            f"vertex {v} is overloaded: matching weight {Fraction(vertex_load[v], D)}"
        )

    for v in primal.support:
        if vertex_load[v] != D:
            raise VerificationError(
                f"vertex {v} has positive weight but its matching constraint is slack"
            )
    for ei in dual.support:
        if edge_load[ei] != D:
            raise VerificationError(
                f"edge {ei} has positive weight but its covering constraint is slack"
            )

    # tightness plus feasibility already forces equal objectives; kept as a net
    if primal.objective != dual.objective:
        raise VerificationError(
            f"objectives differ: cover {primal.objective} vs matching {dual.objective}"
        )

    bound = Fraction(H.t) * Fraction(primal.objective)
    size = len(primal.support)
    if size > bound:
        raise VerificationError(f"support size {size} exceeds t * objective = {bound}")
    return SlacknessReport(Fraction(primal.objective), size)
