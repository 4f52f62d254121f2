"""Exact and float LP solves plus the optimal-pair certificate checks."""

import functools
import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from turancover import lp
from turancover.errors import ParameterError, ResourceLimitError, VerificationError
from turancover.generators import complete, random_hypergraph
from turancover.hypergraph import Hypergraph, blow_up
from turancover.lp import (
    LPSolution,
    check_complementary_slackness,
    solve_matching_lp,
    solve_vc_lp,
)
from turancover.rounding import t2_cover_blowup


def test_single_edge_optimum_is_one():
    H = Hypergraph(3, 3, [(0, 1, 2)])
    primal = solve_vc_lp(H)
    dual = solve_matching_lp(H)
    assert primal.objective == 1
    assert dual.objective == 1
    assert len(primal.support) == 1


def test_complete_triples_fractional_optimum():
    # all four triples of a 4-set force weight 1/3 everywhere
    G = complete(4, 3)
    primal = solve_vc_lp(G)
    assert primal.objective == Fraction(4, 3)
    assert solve_matching_lp(G).objective == Fraction(4, 3)


def test_edgeless_instance_solves_to_zero():
    H = Hypergraph(3, 6, [])
    assert solve_vc_lp(H).objective == 0
    assert solve_matching_lp(H).objective == 0
    assert solve_vc_lp(H).support == ()


def test_values_are_fractions_in_exact_mode():
    G = complete(4, 3)
    sol = solve_vc_lp(G, mode="exact")
    assert all(isinstance(x, Fraction) for x in sol.values.values())
    assert isinstance(sol.objective, Fraction)


def test_float_mode_matches_exact_objective():
    for seed in range(12):
        G = random_hypergraph(9, 3, 0.4, seed)
        exact = solve_vc_lp(G, mode="exact").objective
        approx = solve_vc_lp(G, mode="float").objective
        assert abs(float(exact) - approx) < 1e-6


def test_float_matching_agrees_too():
    instances = [complete(5, 3)]
    instances += [random_hypergraph(9, 3, 0.4, seed) for seed in range(12)]
    instances.append(blow_up(random_hypergraph(8, 4, 0.4, seed=3), 2).hyper)
    for G in instances:
        exact = solve_matching_lp(G, mode="exact").objective
        approx = solve_matching_lp(G, mode="float")
        assert abs(float(exact) - approx.objective) < 1e-6
        # both sides come from one solve and carry its objective
        assert approx.objective == solve_vc_lp(G, mode="float").objective
        loads = [0.0] * G.n
        for ei, ye in approx.values.items():
            for v in G.edges[ei]:
                loads[v] += ye
        assert max(loads) <= 1 + 1e-9


def test_unknown_mode_rejected():
    for solve in (solve_vc_lp, solve_matching_lp):
        with pytest.raises(ParameterError, match="unknown mode"):
            solve(complete(4, 3), mode="fast")


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4), st.integers(5, 10))
def test_strong_duality_and_support_bound(seed, t, n):
    G = random_hypergraph(n, t, 0.45, seed)
    primal = solve_vc_lp(G)
    dual = solve_matching_lp(G)
    assert primal.objective == dual.objective
    assert len(primal.support) <= G.t * primal.objective
    report = check_complementary_slackness(primal, dual, G)
    assert report.support_size == len(primal.support)
    assert report.objective == primal.objective


def test_primal_feasible_and_dual_feasible():
    G = random_hypergraph(10, 3, 0.35, seed=77)
    primal = solve_vc_lp(G)
    dual = solve_matching_lp(G)
    for e in G.edges:
        assert sum(primal.value(v) for v in e) >= 1
    loads = {}
    for ei, e in enumerate(G.edges):
        for v in e:
            loads[v] = loads.get(v, Fraction(0)) + dual.value(ei)
    assert all(load <= 1 for load in loads.values())


def test_slackness_rejects_perturbed_primal():
    """A feasible but non-optimal primal must be called out by name.

    Both edges alone are optimal matchings; against either one the
    checker names the slack side of the first broken complementarity.
    """
    H = Hypergraph(3, 5, [(0, 1, 2), (0, 3, 4)])
    bad = LPSolution(
        kind="primal",
        values={0: Fraction(1), 1: Fraction(1, 3)},
        objective=Fraction(4, 3),
        mode="exact",
    )
    dual = LPSolution("dual", {1: Fraction(1)}, Fraction(1), "exact")
    with pytest.raises(VerificationError, match="vertex 1 has positive weight"):
        check_complementary_slackness(bad, dual, H)
    dual = LPSolution("dual", {0: Fraction(1)}, Fraction(1), "exact")
    with pytest.raises(VerificationError, match="edge 0 has positive weight"):
        check_complementary_slackness(bad, dual, H)


def test_slackness_rejects_undercovered_primal():
    H = Hypergraph(3, 3, [(0, 1, 2)])
    dual = solve_matching_lp(H)
    bad = LPSolution("primal", {0: Fraction(1, 2)}, Fraction(1, 2), "exact")
    with pytest.raises(VerificationError, match="undercovered"):
        check_complementary_slackness(bad, dual, H)


def test_slackness_requires_exact_mode():
    G = complete(4, 3)
    primal = solve_vc_lp(G, mode="float")
    dual = solve_matching_lp(G, mode="exact")
    with pytest.raises(ParameterError, match="exact"):
        check_complementary_slackness(primal, dual, G)


@pytest.mark.parametrize("swap, primal_values, message", [
    (True, None, r"expected a \(primal, dual\) pair in that order"),
    (False, {3: Fraction(1)}, "primal id 3 out of range"),
    (False, {-1: Fraction(1)}, "primal id -1 out of range"),
])
def test_slackness_refuses_a_misordered_pair_or_a_foreign_id(swap, primal_values, message):
    H = Hypergraph(3, 3, [(0, 1, 2)])
    primal, dual = lp._solve_pair(H, "exact")
    if primal_values is not None:
        primal = LPSolution("primal", primal_values, Fraction(1), "exact")
    with pytest.raises(ParameterError, match=f"^{message}$"):
        check_complementary_slackness(*((dual, primal) if swap else (primal, dual)), H)


def test_size_guard_blocks_large_exact_solves():
    G = complete(15, 7)  # 15 vertices times 6435 edges is over the default cap
    with pytest.raises(ResourceLimitError):
        solve_vc_lp(G, mode="exact")
    # an explicit override unblocks it
    sol = solve_vc_lp(G, mode="exact", size_guard=200_000)
    assert sol.objective == Fraction(15, 7)


def test_size_guard_env_override(monkeypatch):
    G = complete(4, 3)  # built first: the generator reads the same guard
    monkeypatch.setenv("TURANCOVER_SIZE_GUARD", "10")
    with pytest.raises(ResourceLimitError):
        solve_vc_lp(G, mode="exact")
    # explicit argument wins over the environment
    assert solve_vc_lp(G, mode="exact", size_guard=1000).objective == Fraction(4, 3)


def test_negative_size_guard_rejected(monkeypatch):
    G = complete(4, 3)  # built first: the generator reads the same guard
    with pytest.raises(ParameterError, match="non-negative"):
        solve_vc_lp(G, mode="exact", size_guard=-5)
    monkeypatch.setenv("TURANCOVER_SIZE_GUARD", "-1")
    with pytest.raises(ParameterError, match="TURANCOVER_SIZE_GUARD"):
        solve_vc_lp(G, mode="exact")


@pytest.mark.parametrize("value", ["ten", "1.5", "1e6"])
def test_non_integer_size_guard_rejected(monkeypatch, value):
    G = complete(4, 3)  # built first: the generator reads the same guard
    monkeypatch.setenv("TURANCOVER_SIZE_GUARD", value)
    with pytest.raises(ParameterError) as info:
        solve_vc_lp(G, mode="exact")
    assert str(info.value) == f"TURANCOVER_SIZE_GUARD must be an integer, got {value!r}"


def test_size_guard_argument_sets_the_float_guard(monkeypatch):
    monkeypatch.delenv("TURANCOVER_SIZE_GUARD", raising=False)
    H = Hypergraph(2, 3, [(0, 1), (1, 2)])  # n + m*t = 7
    for solve in (solve_vc_lp, solve_matching_lp):
        with pytest.raises(ResourceLimitError, match="= 7 exceeds limit 6$"):
            solve(H, mode="float", size_guard=6)
        assert solve(H, mode="float", size_guard=7).objective == 1
    # the argument wins over the environment, as in exact mode
    monkeypatch.setenv("TURANCOVER_SIZE_GUARD", "1")
    assert solve_vc_lp(H, mode="float", size_guard=7).objective == 1
    with pytest.raises(ParameterError, match="non-negative"):
        solve_vc_lp(H, mode="float", size_guard=-1)


def test_float_size_guard_counts_columns_and_nonzeros(monkeypatch):
    monkeypatch.delenv("TURANCOVER_SIZE_GUARD", raising=False)
    big = Hypergraph(2, lp.FLOAT_SIZE_GUARD - 1, [(0, 1)])
    with pytest.raises(ResourceLimitError, match=f" = {lp.FLOAT_SIZE_GUARD + 1} exceeds"):
        solve_matching_lp(big, mode="float")
    H = Hypergraph(2, 10, [(0, 1)])  # n + m*t = 12
    monkeypatch.setenv("TURANCOVER_SIZE_GUARD", "12")
    assert solve_vc_lp(H, mode="float").objective == 1
    monkeypatch.setenv("TURANCOVER_SIZE_GUARD", "11")
    with pytest.raises(ResourceLimitError, match="exceeds limit 11$"):
        solve_vc_lp(H, mode="float")


def test_blow_up_lp_known_value():
    B = blow_up(complete(4, 3), 2)
    primal = solve_vc_lp(B.hyper)
    assert primal.objective == 2


# --- the certification ladder of exact mode ---------------------------------


def _forbid(monkeypatch, name):
    def forbidden(*args, **kwargs):
        raise RuntimeError(f"ladder reached {name}")

    monkeypatch.setattr(lp, name, forbidden)


def _spy(monkeypatch, name):
    calls = []
    real = getattr(lp, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lp, name, spy)
    return calls


def _assert_certified(H):
    primal, dual = lp._solve_pair(H, "exact")
    report = check_complementary_slackness(primal, dual, H)
    assert report.objective == primal.objective == dual.objective
    return primal


def test_ladder_step1_rationalizes_a_corpus_instance(monkeypatch):
    # acceptance-corpus instance 5: t = 8, n = 11, about 23 base edges
    G = random_hypergraph(11, 8, 23 / math.comb(11, 8), seed=31_005)
    H = blow_up(G, 7).hyper
    _forbid(monkeypatch, "_basis_pair")
    _forbid(monkeypatch, "_simplex_pair")
    assert _assert_certified(H).objective > 0


# LPs whose rounded pair fails its certificate: (base n, t, p, seed, k), with
# (n, m) of the blow-up; the first optimum has denominators past 10**6
_STEP2_INSTANCES = [
    ((10, 6, 0.45, 40_000, 5), (243, 98)),
    ((10, 5, 0.2, 50_012, 2), (45, 57)),
    ((11, 7, 0.2, 50_009, 2), (55, 68)),
    ((11, 6, 0.2, 50_033, 2), (55, 101)),
    ((10, 5, 0.5, 50_032, 4), (207, 123)),
]


def test_ladder_step2_solves_the_support_exactly(monkeypatch):
    calls = _spy(monkeypatch, "_basis_pair")
    _forbid(monkeypatch, "_simplex_pair")
    basic = lp._highs_core().HighsBasisStatus.kBasic
    objectives = []
    for expected, ((n, t, p, seed, k), shape) in enumerate(_STEP2_INSTANCES, start=1):
        H = blow_up(random_hypergraph(n, t, p, seed), k).hyper
        assert (H.n, H.m) == shape
        _, x, y, basis = lp._highs(H)
        # the basis system is square: one basic column per tight row
        assert (sum(s == basic for s in basis.col_status)
                == sum(s != basic for s in basis.row_status))
        rounded = lp._exact_pair(*lp._rationalized_pair(x, y))
        with pytest.raises(VerificationError):
            check_complementary_slackness(*rounded, H)
        objectives.append(_assert_certified(H).objective)
        assert len(calls) == expected
        assert abs(solve_vc_lp(H, mode="float").objective - objectives[-1]) <= 1e-9
    assert objectives[0].denominator > 10**6


def test_ladder_step2_certifies_a_float_pairs_blow_up_in_seconds(monkeypatch):
    # the pair blow-up of a dense 8-uniform float_pairs base: step 1 fails on
    # its dual, whose denominators run to hundreds of bits
    B = blow_up(random_hypergraph(20, 8, 0.03, 1), 2)
    assert (B.hyper.n, B.hyper.m) == (190, 3836)
    calls = _spy(monkeypatch, "_basis_pair")
    _forbid(monkeypatch, "_simplex_pair")
    exact = t2_cover_blowup(B, seed=3, trials=2, mode="exact", size_guard=10**6)
    assert exact.lp_opt == Fraction(95, 14) and calls
    fl = t2_cover_blowup(B, seed=3, trials=2, mode="float")
    assert abs(fl.lp_opt - exact.lp_opt) <= 1e-9


def _force_step3(monkeypatch, H):
    """Certify H with HiGHS patched to zero vectors and an empty basis, which
    fail steps 1 and 2."""
    reference = solve_vc_lp(H).objective
    empty = lp._highs_core().HighsBasis()
    monkeypatch.setattr(lp, "_highs", lambda H: (0.0, np.zeros(H.n), np.zeros(H.m), empty))
    calls = _spy(monkeypatch, "_simplex_pair")
    assert _assert_certified(H).objective == reference
    assert len(calls) == 1


def test_ladder_step3_runs_the_simplex_when_both_cheap_steps_fail(monkeypatch):
    _force_step3(monkeypatch, random_hypergraph(8, 3, 0.4, seed=5))


def test_ladder_step3_on_a_full_blow_up_with_more_vertices_than_edges(monkeypatch):
    H = blow_up(random_hypergraph(9, 4, 0.12, seed=7), 3).hyper
    assert (H.n, H.m) == (59, 21)
    _force_step3(monkeypatch, H)


def test_ladder_step3_stores_only_nonzero_entries(monkeypatch):
    # a dense n x (m + n) tableau of this tall instance would hold 16M entries
    H = Hypergraph(3, 4000, [(0, 1, 2), (2, 3, 4), (5, 6, 7)])
    tracemalloc.start()
    try:
        _force_step3(monkeypatch, H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def _assert_simplex_agrees(G):
    if G.m == 0:
        return
    certified = lp._solve_pair(G, "exact")
    check_complementary_slackness(*certified, G)
    x, y = lp._simplex_pair(G)
    assert all(type(q) is Fraction for q in (*x.values(), *y.values()))
    pair = lp._exact_pair(x, y)
    check_complementary_slackness(*pair, G)
    assert pair[0].objective == certified[0].objective


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4), st.integers(4, 9),
       st.sampled_from([0.15, 0.3, 0.6]))
def test_certified_pair_agrees_with_the_simplex(seed, t, n, p):
    _assert_simplex_agrees(random_hypergraph(n, t, p, seed))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4), st.integers(4, 8),
       st.sampled_from([0.15, 0.3]))
def test_certified_pair_agrees_with_the_simplex_on_full_blow_ups(seed, t, n, p):
    # most full blow-ups have more vertices than edges, so more simplex
    # rows than edge columns; these bases keep each run under about 0.2 s
    _assert_simplex_agrees(blow_up(random_hypergraph(n, t, p, seed), t - 1).hyper)


# --- both sides from one HiGHS solve ----------------------------------------


def _corpus_bases():
    """The 100 non-empty bases of the acceptance corpus (test_acceptance seeds)."""
    bases = []
    i = 0
    while len(bases) < 100:
        t = 3 + (i % 6)
        n = min(14, t + 2 + (i % 4))
        p = min(1.0, (18 + (i % 12)) / math.comb(n, t))
        G = random_hypergraph(n, t, p, seed=31_000 + i)
        i += 1
        if G.m:
            bases.append(G)
    return bases


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_each_solve_makes_one_highs_call(monkeypatch, mode):
    H = blow_up(random_hypergraph(9, 4, 0.3, seed=2), 2).hyper
    calls = _spy(monkeypatch, "_highs")
    for expected, solve in enumerate((solve_vc_lp, solve_matching_lp), start=1):
        solve(H, mode=mode)
        assert len(calls) == expected


def test_float_pair_is_feasible_and_complementary():
    corpus = blow_up(_corpus_bases()[5], 2).hyper
    float_pairs_shape = blow_up(random_hypergraph(22, 7, 0.02, seed=1), 2).hyper
    for H in (corpus, float_pairs_shape):
        x = solve_vc_lp(H, mode="float").values
        y = solve_matching_lp(H, mode="float").values
        vertex_load = [0.0] * H.n
        for ei, ye in y.items():
            for v in H.edges[ei]:
                vertex_load[v] += ye
        assert max(vertex_load) <= 1 + 1e-9
        assert all(abs(vertex_load[v] - 1) <= 1e-9 for v in x)
        assert all(abs(sum(x.get(v, 0.0) for v in H.edges[ei]) - 1) <= 1e-9 for ei in y)


@functools.cache
def _corpus_blow_ups():
    """Full and pair blow-ups of every corpus base, 200 LPs of varied sizes."""
    return tuple(blow_up(G, k).hyper for G in _corpus_bases() for k in sorted({G.t - 1, 2}))


def test_exact_and_float_objectives_agree_over_the_acceptance_corpus():
    # the simplex is left out, as it takes about 30 s over these 200 blow-ups
    for H in _corpus_blow_ups():
        certified = solve_vc_lp(H).objective
        for solve in (solve_vc_lp, solve_matching_lp):
            assert abs(solve(H, mode="float").objective - certified) <= 1e-9


# --- ladder step 1 against the per-value rationalizer it replaced -----------


def _reference_rationalized(values):
    """The per-value ``limit_denominator`` loop, kept verbatim as the test oracle."""
    out = {}
    for i, value in enumerate(values):
        if value > lp.FLOAT_SUPPORT_TOL:
            q = Fraction(float(value)).limit_denominator()
            if q:
                out[i] = q
    return out


def _assert_rationalized_like_the_oracle(x, y):
    got = lp._rationalized_pair(x, y)
    expected = (_reference_rationalized(x), _reference_rationalized(y))
    # equal in value and in id order, with plain int ids
    assert [list(side.items()) for side in got] == [list(side.items()) for side in expected]
    assert all(type(i) is int for side in got for i in side)


def test_ladder_step1_matches_the_per_value_oracle_over_the_acceptance_corpus():
    for H in _corpus_blow_ups():
        _, x, y, _ = lp._highs(H)
        _assert_rationalized_like_the_oracle(x, y)


# repeated values, the support tolerance and its neighbours, values that
# rationalize to 0 (below 5e-7) or to 1/10**6, near neighbours that
# rationalize apart or together, and NaN, which is never support
_SPECIAL_FLOATS = [0.0, -0.0, -0.25, math.nan, 1e-9, math.nextafter(1e-9, 1), 2e-9,
                   4.9999e-7, 5e-7, 5.0001e-7, 1e-6, 1 / 3, 1 / 3 + 1e-7, 0.3331, 0.3334,
                   2 / 3, 0.1 + 0.2, 0.3, 1 / 7, 0.5, 0.5 + 1e-7, 1.0, 1 - 1e-12]
_rationalizer_inputs = st.lists(
    st.one_of(st.sampled_from(_SPECIAL_FLOATS),
              st.floats(-1, 2, allow_nan=False), st.floats(0, 1e-5)), max_size=40)


@settings(max_examples=300, deadline=None)
@given(_rationalizer_inputs, _rationalizer_inputs)
def test_ladder_step1_matches_the_per_value_oracle(xs, ys):
    _assert_rationalized_like_the_oracle(np.array(xs, dtype=float), np.array(ys, dtype=float))


# --- one HiGHS object per thread in exact mode ------------------------------


def _count_highs_objects(monkeypatch):
    """Record the thread of every ``_Highs`` built, starting with no cached object."""
    core = lp._highs_core()
    real = core._Highs
    made = []

    def counting():
        made.append(threading.get_ident())
        return real()

    monkeypatch.setattr(core, "_Highs", counting)
    monkeypatch.setattr(lp._thread, "highs", None, raising=False)
    return made


def test_exact_solves_share_one_highs_object_per_thread(monkeypatch):
    made = _count_highs_objects(monkeypatch)
    instances = _corpus_blow_ups()[:20]
    for H in instances:
        lp._solve_pair(H, "exact")
    assert made == [threading.get_ident()]
    held = lp._thread.highs
    for expected, H in enumerate(instances[:3], start=2):
        lp._solve_pair(H, "float")
        assert len(made) == expected
    lp._solve_pair(instances[0], "exact")
    assert len(made) == 4 and lp._thread.highs is held


def test_reused_highs_object_returns_what_fresh_objects_return(monkeypatch):
    # every corpus LP, in both orders, so each follows others of other sizes;
    # the reference is a fresh object of the exact configuration per LP
    instances = _corpus_blow_ups()
    fresh = []
    for H in instances:
        monkeypatch.setattr(lp._thread, "highs", None, raising=False)
        fresh.append(lp._highs(H))
    for order in (range(len(instances)), reversed(range(len(instances)))):
        for i in order:
            obj, x, y, basis = lp._highs(instances[i])
            assert obj == fresh[i][0]
            assert np.array_equal(x, fresh[i][1]) and np.array_equal(y, fresh[i][2])
            assert basis.col_status == fresh[i][3].col_status
            assert basis.row_status == fresh[i][3].row_status


def test_concurrent_exact_solves_use_one_object_per_thread(monkeypatch):
    # more threads than the two cores of the benchmark host, half of them in
    # reverse order, so that solves of different LPs interleave
    instances = _corpus_blow_ups()[:40]
    serial = [repr(lp._solve_pair(H, "exact")) for H in instances]
    made = _count_highs_objects(monkeypatch)
    start = threading.Barrier(4, timeout=60)
    found = []

    def solve(order):
        start.wait()
        pairs = {i: repr(lp._solve_pair(instances[i], "exact")) for i in order}
        found.append((threading.get_ident(), lp._thread.highs,
                      [pairs[i] for i in range(len(instances))]))

    threads = [threading.Thread(target=solve, args=(order,))
               for order in (range(40), range(39, -1, -1)) * 2]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(made) == sorted(ident for ident, _, _ in found) and len(made) == 4
    assert len({id(obj) for _, obj, _ in found}) == 4 and lp._thread.highs is None
    assert all(pairs == serial for _, _, pairs in found)


def test_a_solve_after_one_that_raised_still_certifies(monkeypatch):
    H = _corpus_blow_ups()[7]
    expected = repr(lp._solve_pair(H, "exact"))
    core = lp._highs_core()
    real_run = core._Highs.run

    def crash(self):
        raise RuntimeError("solver crashed")

    monkeypatch.setattr(core._Highs, "run", crash)
    with pytest.raises(RuntimeError, match="solver crashed"):
        lp._solve_pair(H, "exact")
    assert lp._thread.highs is None  # the failed object is not reused
    monkeypatch.setattr(core._Highs, "run", real_run)
    primal, dual = lp._solve_pair(H, "exact")
    check_complementary_slackness(primal, dual, H)
    assert repr((primal, dual)) == expected
    assert lp._thread.highs is not None


# --- exact mode fixes dominated vertices at 0 -------------------------------


def _reference_dominated(H):
    """The fixing rule as a loop over the edges, kept as the test oracle."""
    degree = Counter(v for e in H.edges for v in e)
    fixed = set()
    for e in H.edges:
        once = [v for v in e if degree[v] == 1]
        fixed.update(once[1:] if len(once) == len(e) else once)
    return fixed


def _with_isolated_edge(H):
    return Hypergraph(H.t, H.n + H.t, [*H.edges, tuple(range(H.n, H.n + H.t))])


def test_dominated_vertices_are_fixed_at_zero_over_the_acceptance_corpus():
    for H in _corpus_blow_ups():
        fixed = lp._dominated(H)
        assert sorted(fixed.tolist()) == sorted(_reference_dominated(H))
        _, x, _, _ = lp._highs(H)
        assert not x[fixed].any()
        assert set(solve_vc_lp(H).values).isdisjoint(fixed.tolist())


def test_an_edge_of_degree_one_vertices_keeps_its_lowest_id_free():
    H = Hypergraph(3, 8, [(0, 1, 2), (0, 3, 4), (5, 6, 7)])
    assert lp._dominated(H).tolist() == [1, 2, 3, 4, 6, 7]
    assert solve_vc_lp(H).values == {0: 1, 5: 1}
    B = blow_up(random_hypergraph(9, 4, 0.3, seed=2), 3).hyper
    H = _with_isolated_edge(B)
    assert set(lp._dominated(H).tolist()) & set(range(B.n, H.n)) == set(range(B.n + 1, H.n))
    assert solve_vc_lp(H).objective == solve_vc_lp(B).objective + 1


def test_fixed_optimum_equals_the_presolved_float_optimum():
    B = blow_up(random_hypergraph(14, 5, 0.15, seed=6), 4).hyper
    for H in (B, _with_isolated_edge(B)):
        assert len(lp._dominated(H)) >= 339
        primal, dual = lp._solve_pair(H, "exact", 10**6)
        check_complementary_slackness(primal, dual, H)
        assert abs(solve_vc_lp(H, mode="float").objective - primal.objective) <= 1e-9


# --- the integer certificate against the Fraction checker it replaced -------


def _reference_check(primal, dual, H):
    """The Fraction-arithmetic checker, kept verbatim as the test oracle."""
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

    edge_load = []
    for ei, e in enumerate(H.edges):
        load = sum(primal.value(v) for v in e)
        if load < 1:
            raise VerificationError(f"edge {ei} is undercovered: total weight {load}")
        edge_load.append(load)
    vertex_load = {}
    for ei, e in enumerate(H.edges):
        ye = dual.value(ei)
        if ye:
            for v in e:
                vertex_load[v] = vertex_load.get(v, Fraction(0)) + ye
    for v, load in vertex_load.items():
        if load > 1:
            raise VerificationError(f"vertex {v} is overloaded: matching weight {load}")

    tight_v = 0
    for v in primal.support:
        if vertex_load.get(v, Fraction(0)) != 1:
            raise VerificationError(
                f"vertex {v} has positive weight but its matching constraint is slack"
            )
        tight_v += 1
    tight_e = 0
    for ei in dual.support:
        if edge_load[ei] != 1:
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
    return lp.SlacknessReport(Fraction(primal.objective), size, bound, tight_v, tight_e)


def _outcome(check, primal, dual, H):
    try:
        return check(primal, dual, H)
    except (ParameterError, VerificationError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4), st.integers(4, 9), st.booleans(),
       st.sampled_from(["none", "bump", "drop", "add", "negate"]), st.booleans(),
       st.integers(0, 10**6), st.integers(-12, 12).filter(bool), st.booleans())
def test_integer_certificate_matches_the_fraction_checker(
        seed, t, n, blown, change, on_primal, pick, q, resum):
    G = random_hypergraph(n, t, 0.45, seed)
    H = blow_up(G, t - 1).hyper if blown else G
    if H.m == 0:
        return
    primal, dual = lp._solve_pair(H, "exact")
    side = primal if on_primal else dual
    values = dict(side.values)
    ids = sorted(values)
    if change == "bump" and ids:
        i = ids[pick % len(ids)]
        values[i] += Fraction(1, q)
    elif change == "drop" and ids:
        del values[ids[pick % len(ids)]]
    elif change == "add":  # any id, out of range or already present included
        size = H.n if on_primal else H.m
        values[pick % (size + 2) - 1] = Fraction(1, abs(q))
    elif change == "negate" and ids:
        i = ids[pick % len(ids)]
        values[i] = -values[i]
    objective = sum(values.values(), Fraction(0)) if resum else side.objective
    changed = LPSolution(side.kind, values, objective, "exact")
    pair = (changed, dual) if on_primal else (primal, changed)
    expected = _outcome(_reference_check, *pair, H)
    assert _outcome(check_complementary_slackness, *pair, H) == expected


def test_overload_is_reported_in_order_of_first_incidence():
    # vertex 3 is reached (by edge 0) before vertex 1, and both are overloaded
    H = Hypergraph(2, 5, [(0, 3), (1, 2), (1, 4), (3, 4)])
    primal = LPSolution("primal", {v: Fraction(1) for v in range(5)}, Fraction(5), "exact")
    y = {0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(2, 3), 3: Fraction(2, 3)}
    dual = LPSolution("dual", y, sum(y.values()), "exact")
    expected = (VerificationError, "vertex 3 is overloaded: matching weight 7/6")
    assert _outcome(_reference_check, primal, dual, H) == expected
    assert _outcome(check_complementary_slackness, primal, dual, H) == expected


def _linprog_reference(H, exact):
    """scipy's linprog on the covering program in the configuration of ``_highs``:
    its defaults for float mode; presolve off and the dominated vertices'
    upper bounds 0 for exact mode."""
    from scipy import sparse
    from scipy.optimize import linprog

    E = H.edge_array
    A = sparse.csr_matrix((np.ones(E.size), E.ravel(), np.arange(0, E.size + 1, H.t)),
                          shape=(H.m, H.n))
    if not exact:
        return linprog(np.ones(H.n), A_ub=-A, b_ub=-np.ones(H.m), method="highs-ds")
    upper = np.full(H.n, np.inf)
    upper[lp._dominated(H)] = 0
    return linprog(np.ones(H.n), A_ub=-A, b_ub=-np.ones(H.m), method="highs-ds",
                   bounds=np.column_stack([np.zeros(H.n), upper]), options={"presolve": False})


def _assert_matches_linprog(H, exact):
    ref = _linprog_reference(H, exact)
    obj, x, y, _ = lp._highs(H, exact=exact)
    assert obj == ref.fun
    assert np.array_equal(x, ref.x) and np.array_equal(y, -ref.ineqlin.marginals)


def test_direct_highs_call_matches_linprog_bit_for_bit():
    # scipy's linprog with its defaults is the reference for the float
    # configuration.  HiGHS is not invariant under negating rows, and the
    # 842x324 blow-up here returns other last bits if the covering rows go in
    # as 1 <= A x.
    for H in (complete(5, 3), blow_up(random_hypergraph(14, 5, 0.15, seed=6), 4).hyper):
        _assert_matches_linprog(H, exact=False)


def test_exact_highs_call_matches_linprog_without_presolve_bit_for_bit():
    # the 842x324 blow-up has 339 dominated vertices; complete(5, 3) has none
    for H in (complete(5, 3), blow_up(random_hypergraph(14, 5, 0.15, seed=6), 4).hyper):
        _assert_matches_linprog(H, exact=True)


# ------------------------------------------------ the HiGHS binding, loaded on its own

def _fresh(code):
    """Run ``code`` in a new interpreter, where nothing has loaded HiGHS yet."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_binding_imported_through_scipy_optimize_first_is_reused():
    assert _fresh("""
        import scipy.optimize
        from scipy.optimize._highspy import _core
        from turancover import lp
        from turancover.generators import complete
        assert lp.solve_vc_lp(complete(4, 3), mode="float").objective == 4 / 3
        print(lp._highs_core() is _core)
    """) == "True\n"


def test_linprog_after_a_solve_shares_the_binding_bit_for_bit():
    # linprog then imports scipy.optimize, which finds the binding lp registered;
    # each configuration is compared as in _linprog_reference
    assert _fresh("""
        import sys
        import numpy as np
        from scipy import sparse
        from turancover import lp
        from turancover.generators import random_hypergraph
        from turancover.hypergraph import blow_up

        H = blow_up(random_hypergraph(14, 5, 0.15, seed=6), 4).hyper
        solved = {exact: lp._highs(H, exact=exact) for exact in (True, False)}
        core = lp._highs_core()
        assert "scipy.optimize" not in sys.modules
        from scipy.optimize import linprog
        E = H.edge_array
        A = sparse.csr_matrix((np.ones(E.size), E.ravel(), np.arange(0, E.size + 1, H.t)),
                              shape=(H.m, H.n))
        upper = np.full(H.n, np.inf)
        upper[lp._dominated(H)] = 0
        options = {True: dict(bounds=np.column_stack([np.zeros(H.n), upper]),
                              options={"presolve": False}),
                   False: {}}
        for exact, (obj, x, y, _) in solved.items():
            ref = linprog(np.ones(H.n), A_ub=-A, b_ub=-np.ones(H.m), method="highs-ds",
                          **options[exact])
            assert obj == ref.fun
            assert np.array_equal(x, ref.x) and np.array_equal(y, -ref.ineqlin.marginals)
        print(sys.modules["scipy.optimize._highspy._core"] is core)
    """) == "True\n"


def test_concurrent_first_solves_load_the_binding_once():
    assert _fresh("""
        import sys
        import threading
        from turancover import lp
        from turancover.generators import complete

        H = complete(5, 3)
        start = threading.Barrier(4, timeout=60)
        found = []

        def solve():
            start.wait()
            found.append((lp.solve_vc_lp(H, mode="float").objective, lp._highs_core()))

        threads = [threading.Thread(target=solve) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        print(len(found), len(set(found)), abs(found[0][0] - 5 / 3) < 1e-9)
    """) == "4 1 True\n"


def test_binding_falls_back_to_the_ordinary_import(tmp_path):
    # scipy's first path entry has no optimize/_highspy: the import system finds it
    assert _fresh(f"""
        import sys
        import scipy
        scipy.__path__.insert(0, {str(tmp_path)!r})
        from turancover import lp
        from turancover.generators import complete
        assert lp.solve_vc_lp(complete(4, 3), mode="float").objective == 4 / 3
        print("scipy.optimize" in sys.modules)
    """) == "True\n"


def test_failed_load_leaves_no_module_behind():
    assert _fresh("""
        import sys
        from importlib.machinery import ExtensionFileLoader
        from turancover import lp
        from turancover.generators import complete

        real = ExtensionFileLoader.exec_module

        def fail(self, module):
            raise ImportError("refused")

        ExtensionFileLoader.exec_module = fail
        try:
            lp.solve_vc_lp(complete(4, 3), mode="float")
        except ImportError:
            pass
        print(lp._BINDING_NAME in sys.modules, end=" ")
        ExtensionFileLoader.exec_module = real
        print(lp.solve_vc_lp(complete(4, 3), mode="float").objective == 4 / 3)
    """) == "False True\n"
