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

Both modes make one call to HiGHS's dual simplex through the binding
bundled with scipy (``scipy.optimize._highspy._core``), handing it the
covering program in one layout, its constraint matrix straight from
``Hypergraph.edge_array``.  Both sides are read off that one solve: the
primal x and the dual y (the negated row duals).  Exact mode turns them
into an exact rational pair through a fixed ladder:

1. rationalize each value with ``Fraction.limit_denominator``;
2. failing that, re-solve the support systems exactly over the
   integers by fraction-free (Bareiss) elimination: ``A[T,S] x_S = 1``
   over the edges whose covering constraint is tight and
   ``A[T,S]^T y_T = 1`` over the vertices whose matching constraint is
   tight, where S and T are the float supports; columns that do not
   pivot (degenerate supports) are set to zero;
3. failing that, run the dense rational tableau simplex below.

A pair is returned only once ``check_complementary_slackness`` accepts
it exactly: both sides feasible, complementary and of equal objective,
which certifies both optimal.  The simplex uses Bland's anticycling
rule, so it terminates; its tableau is oriented so the row count is
min(n, m): with few vertices the matching program is solved from its
slack basis, with few edges the covering program is solved in two
phases, and in either orientation the other program's optimum is read
off the final reduced costs of the slack or surplus columns.  HiGHS is
deterministic, so the returned optimum is a pure function of the
instance, though not always the vertex the simplex would pick.

The certificate check runs in integers: every value is scaled by the
least common multiple D of all denominators, and each edge and vertex
load is compared against D.

Float mode returns HiGHS's values as they are, both sides with the
solve's objective.  Support membership then uses a 1e-9 tolerance and
no exactness assertions are made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError, ResourceLimitError, VerificationError
from .guards import resolve_limit
from .hypergraph import Hypergraph

__all__ = [
    "LPSolution",
    "SlacknessReport",
    "solve_vc_lp",
    "solve_matching_lp",
    "check_complementary_slackness",
    "EXACT_SIZE_GUARD",
    "FLOAT_SUPPORT_TOL",
]

EXACT_SIZE_GUARD = 50_000
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
    support_bound: Fraction
    tight_vertices: int
    tight_edges: int


class _Tableau:
    """Dense simplex tableau over exact rationals, Bland pivoting."""

    def __init__(self, rows, rhs, basis, ncols):
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.ncols = ncols

    def reduced_costs(self, costs):
        red = list(costs)
        for r, row in enumerate(self.rows):
            cb = costs[self.basis[r]]
            if cb:
                for j in range(self.ncols):
                    if row[j]:
                        red[j] -= cb * row[j]
        return red

    def objective(self, costs):
        total = _ZERO
        for r in range(len(self.rows)):
            cb = costs[self.basis[r]]
            if cb:
                total += cb * self.rhs[r]
        return total

    def pivot(self, r, c, red):
        row = self.rows[r]
        piv = row[c]
        if piv != _ONE:
            inv = _ONE / piv
            row = [v * inv for v in row]
            self.rows[r] = row
            self.rhs[r] = self.rhs[r] * inv
        for i, other in enumerate(self.rows):
            if i != r:
                f = other[c]
                if f:
                    self.rows[i] = [a - f * b for a, b in zip(other, row)]
                    self.rhs[i] = self.rhs[i] - f * self.rhs[r]
        f = red[c]
        if f:
            for j in range(self.ncols):
                if row[j]:
                    red[j] -= f * row[j]
        self.basis[r] = c

    def minimize(self, red, allowed):
        """Pivot to optimality: lowest-index entering column with negative
        reduced cost, min-ratio row with ties broken by lowest basic id."""
        while True:
            enter = -1
            for j in range(self.ncols):
                if allowed[j] and red[j] < _ZERO:
                    enter = j
                    break
            if enter < 0:
                return
            leave = -1
            best_ratio = None
            best_var = -1
            for r, row in enumerate(self.rows):
                a = row[enter]
                if a > _ZERO:
                    ratio = self.rhs[r] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[r] < best_var)
                    ):
                        best_ratio, best_var, leave = ratio, self.basis[r], r
            if leave < 0:
                raise VerificationError("internal: unbounded tableau in a bounded program")
            self.pivot(leave, enter, red)


def _pair_matching_oriented(H: Hypergraph):
    """Solve the pair with one row per vertex (good when n <= m).

    Columns are the edge weights then one slack per vertex; the slack
    basis is immediately feasible.  At optimality the covering weights
    are the reduced costs of the slack columns.
    """
    n, m = H.n, H.m
    ncols = m + n
    incident = [[] for _ in range(n)]
    for ei, e in enumerate(H.edges):
        for v in e:
            incident[v].append(ei)
    rows = []
    for v in range(n):
        row = [_ZERO] * ncols
        for ei in incident[v]:
            row[ei] = _ONE
        row[m + v] = _ONE
        rows.append(row)
    tab = _Tableau(rows, [_ONE] * n, list(range(m, m + n)), ncols)
    costs = [-_ONE] * m + [_ZERO] * n
    red = tab.reduced_costs(costs)
    tab.minimize(red, [True] * ncols)
    y = {}
    for r in range(n):
        if tab.basis[r] < m and tab.rhs[r] != _ZERO:
            y[tab.basis[r]] = tab.rhs[r]
    x = {v: red[m + v] for v in range(n) if red[m + v] != _ZERO}
    return -tab.objective(costs), x, y


def _pair_covering_oriented(H: Hypergraph):
    """Solve the pair with one row per edge (good when m < n).

    Columns are vertex weights, surplus, then one artificial per row.
    Phase one drives the artificials to zero, phase two minimizes the
    true cost; the matching weights are the reduced costs of the surplus
    columns at optimality.
    """
    n, m = H.n, H.m
    art = n + m
    ncols = n + 2 * m
    rows = []
    for ei, e in enumerate(H.edges):
        row = [_ZERO] * ncols
        for v in e:
            row[v] = _ONE
        row[n + ei] = -_ONE
        row[art + ei] = _ONE
        rows.append(row)
    tab = _Tableau(rows, [_ONE] * m, list(range(art, art + m)), ncols)
    allowed = [True] * art + [False] * m  # artificials may never re-enter

    phase1 = [_ZERO] * art + [_ONE] * m
    red = tab.reduced_costs(phase1)
    tab.minimize(red, allowed)
    if tab.objective(phase1) != _ZERO:
        raise VerificationError("internal: covering program reported infeasible")
    for r in range(m):
        if tab.basis[r] >= art:
            row = tab.rows[r]
            piv = next((j for j in range(art) if row[j]), -1)
            if piv >= 0:
                tab.pivot(r, piv, red)
            # else the row is redundant; its artificial stays basic at zero

    phase2 = [_ONE] * n + [_ZERO] * (ncols - n)
    red = tab.reduced_costs(phase2)
    tab.minimize(red, allowed)
    x = {}
    for r in range(m):
        if tab.basis[r] < n and tab.rhs[r] != _ZERO:
            x[tab.basis[r]] = tab.rhs[r]
    y = {ei: red[n + ei] for ei in range(m) if red[n + ei] != _ZERO}
    return tab.objective(phase2), x, y


def _simplex_pair(H: Hypergraph):
    """Ladder step 3: the rational tableau simplex, in its smaller orientation."""
    if H.n <= H.m:
        _, x, y = _pair_matching_oriented(H)
    else:
        _, x, y = _pair_covering_oriented(H)
    return x, y


def _rationalized_pair(H: Hypergraph, x, y):
    """Ladder step 1: the nearest fractions with denominators up to 10**6."""

    def rationalize(values):
        out = {}
        for i, value in enumerate(values):
            if value > FLOAT_SUPPORT_TOL:
                q = Fraction(float(value)).limit_denominator()
                if q:
                    out[i] = q
        return out

    return rationalize(x), rationalize(y)


def _solve_ones(matrix, ncols):
    """Exact z with ``matrix @ z = 1`` for a list of integer rows.

    Fraction-free (Bareiss) forward elimination with row swaps, so every
    intermediate entry is an integer minor; a column with no pivot gets
    z = 0.  Rows left without a pivot are not checked: the caller's
    certificate rejects an inconsistent system.
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


def _support_pair(H: Hypergraph, x, y):
    """Ladder step 2: re-solve the float supports' tight systems exactly."""
    tol = FLOAT_SUPPORT_TOL
    S = [v for v in range(H.n) if x[v] > tol]
    T = [e for e in range(H.m) if y[e] > tol]
    members = [set(e) for e in H.edges]
    tight_edges = [ei for ei, e in enumerate(H.edges)
                   if abs(sum(x[v] for v in e) - 1) <= tol]
    vertex_load = [0.0] * H.n
    for ei in T:
        for v in H.edges[ei]:
            vertex_load[v] += y[ei]
    tight_vertices = [v for v in range(H.n) if abs(vertex_load[v] - 1) <= tol]
    xs = _solve_ones([[int(v in members[ei]) for v in S] for ei in tight_edges], len(S))
    ys = _solve_ones([[int(v in members[ei]) for ei in T] for v in tight_vertices], len(T))
    return ({v: q for v, q in zip(S, xs) if q},
            {ei: q for ei, q in zip(T, ys) if q})


def _exact_pair(x: dict, y: dict):
    return (LPSolution("primal", x, sum(x.values(), Fraction(0)), "exact"),
            LPSolution("dual", y, sum(y.values(), Fraction(0)), "exact"))


def _highs(H: Hypergraph):
    """One HiGHS dual-simplex solve of the covering program, through the
    binding bundled with scipy.

    The program goes in as ``minimize sum(x)  subject to  -A x <= -1,
    x >= 0``, with A the edge-by-vertex incidence given row-wise: row i
    of ``H.edge_array`` is already the sorted index list of row i.  This
    is the form ``scipy.optimize.linprog`` passes to HiGHS, and HiGHS's
    results are not invariant under negating rows.  Returns the optimal
    value, the primal x and the negated row duals y (H has edges); y is
    an optimal matching, so this one layout serves both sides in both
    modes.
    """
    import numpy as np
    from scipy.optimize._highspy import _core

    E = H.edge_array
    model = _core.HighsLp()
    A = model.a_matrix_
    A.format_ = _core.MatrixFormat.kRowwise
    model.num_col_ = A.num_col_ = H.n
    model.num_row_ = A.num_row_ = H.m
    model.col_cost_ = np.ones(H.n)
    model.col_lower_ = np.zeros(H.n)
    model.col_upper_ = np.full(H.n, np.inf)
    model.row_lower_ = np.full(H.m, -np.inf)
    model.row_upper_ = np.full(H.m, -1.0)
    A.start_ = np.arange(0, E.size + 1, H.t)
    A.index_ = E.ravel()
    A.value_ = np.full(E.size, -1.0)

    highs = _core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.passModel(model)
    highs.run()
    status = highs.getModelStatus()
    if status != _core.HighsModelStatus.kOptimal:  # pragma: no cover - feasible and bounded
        raise VerificationError(f"HiGHS solve failed: {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    return (highs.getObjectiveValue(), np.array(solution.col_value),
            -np.array(solution.row_dual))


def _float_values(values):
    import numpy as np

    return {int(i): float(values[i]) for i in np.flatnonzero(values > FLOAT_SUPPORT_TOL)}


def _solve_pair(H: Hypergraph, mode: str, size_guard=None):
    """Optimal (primal, dual) pair from one HiGHS solve; see the module docstring."""
    if mode == "exact":
        guard = resolve_limit(size_guard, EXACT_SIZE_GUARD)
    elif mode != "float":
        raise ParameterError(f"unknown mode {mode!r}")
    if H.m == 0:
        zero = _ZERO if mode == "exact" else 0.0
        return LPSolution("primal", {}, zero, mode), LPSolution("dual", {}, zero, mode)
    if mode == "exact" and H.n * H.m > guard:
        raise ResourceLimitError(
            f"exact mode needs n*m <= {guard}, got {H.n}*{H.m} = {H.n * H.m}"
        )
    obj, x, y = _highs(H)
    if mode == "float":
        obj = float(obj)
        return (LPSolution("primal", _float_values(x), obj, "float"),
                LPSolution("dual", _float_values(y), obj, "float"))
    for step in (_rationalized_pair, _support_pair):
        primal, dual = _exact_pair(*step(H, x, y))
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
    return _solve_pair(H, mode, size_guard)[0]


def solve_matching_lp(H: Hypergraph, mode: str = "exact", size_guard=None) -> LPSolution:
    """Optimal fractional matching of H; same conventions as solve_vc_lp.

    Both sides come from the same solve, so in float mode this objective
    equals ``solve_vc_lp``'s bit for bit.
    """
    return _solve_pair(H, mode, size_guard)[1]


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
        if xv < 0:
            raise VerificationError(f"vertex {v} has negative weight {xv}")
    for e, ye in dual.values.items():
        if not 0 <= e < H.m:
            raise ParameterError(f"dual id {e} out of range")
        if ye < 0:
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

    tight_v = 0
    for v in primal.support:
        if vertex_load[v] != D:
            raise VerificationError(
                f"vertex {v} has positive weight but its matching constraint is slack"
            )
        tight_v += 1
    tight_e = 0
    for ei in dual.support:
        if edge_load[ei] != D:
            raise VerificationError(
                f"edge {ei} has positive weight but its covering constraint is slack"
            )
        tight_e += 1

    # tightness plus feasibility already forces equal objectives; kept as a net
    if primal.objective != dual.objective:
        raise VerificationError(
            f"objectives differ: cover {primal.objective} vs matching {dual.objective}"
        )

    bound = Fraction(H.t) * Fraction(primal.objective)
    size = len(primal.support)
    if size > bound:
        raise VerificationError(f"support size {size} exceeds t * objective = {bound}")
    return SlacknessReport(Fraction(primal.objective), size, bound, tight_v, tight_e)
