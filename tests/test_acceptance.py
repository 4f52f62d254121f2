"""Acceptance gates, one test per shipped guarantee.

Every randomized check fixes its seeds, so the file is deterministic
end to end.  Run with -v to get one pass/fail line per gate.  The
shared fixture drives the full rounding pipeline over a hundred random
instances once and feeds the two gates that inspect it.
"""

import math
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from turancover.generators import (
    combinatorial_lines,
    complete,
    f_free_random,
    greedy_hard_setsystem,
    random_hypergraph,
    simplify_reduction,
    three_tent,
)
from turancover.hypergraph import Hypergraph, blow_up, is_simple, is_vertex_cover
from turancover.lp import solve_matching_lp, solve_vc_lp
from turancover.oracles import (
    brute_nu,
    brute_tau,
    contains_subhypergraph,
    find_tents,
    rho,
)
from turancover.rounding import (
    GAMMA_DENOMINATOR,
    RoundingParams,
    ahtp_cover_blowup,
    child_seed,
    color_trial,
    recursive_threshold,
    t2_cover_blowup,
    two_coloring,
)
from turancover.setcover import SetSystem, brute_set_cover, greedy_set_cover


@pytest.fixture(scope="module")
def rounding_suite():
    """100 random instances (t 3..8, n <= 14), full exact pipeline, 100
    colorings each, with per-trial validity tallied for the gates."""
    t0 = time.monotonic()
    records = []
    i = 0
    while len(records) < 100:
        t = 3 + (i % 6)
        n = min(14, t + 2 + (i % 4))
        target = 18 + (i % 12)
        p = min(1.0, target / math.comb(n, t))
        G = random_hypergraph(n, t, p, seed=31_000 + i)
        i += 1
        if G.m == 0:
            continue
        B = blow_up(G, t - 1)
        params = RoundingParams(t=t, seed=52_000 + i, trials=100)
        thr = recursive_threshold(B.hyper, params.gamma_value, mode="exact")
        support = thr.solution.support
        forced = set(thr.thresholded)
        invalid = 0
        for trial in range(params.trials):
            coloring = two_coloring(B.base_n, child_seed(params.seed, trial))
            lopsided, parity = color_trial(support, B.labels, t, coloring)
            if 2 * len(parity) > len(support):
                invalid += 1
                continue
            cover = tuple(sorted(forced | set(lopsided) | set(parity)))
            if not is_vertex_cover(B.hyper, cover):
                invalid += 1
        records.append({
            "blow_up": B,
            "params": params,
            "forced": thr.thresholded,
            "lp_opt": thr.lp_opt,
            "lp_opt_residual": thr.lp_opt_residual,
            "trials": params.trials,
            "invalid_trials": invalid,
            "support": len(support),
        })
    return {"records": records, "build_seconds": time.monotonic() - t0}


def test_criterion_01_extremal_blowup_cover_numbers():
    start = time.monotonic()
    expected_tau = {3: 2, 4: 3, 5: 3}
    for t in (3, 4, 5):
        B = blow_up(complete(t + 1, t), t - 1)
        assert brute_nu(B.hyper) == 1
        assert brute_tau(B.hyper) == expected_tau[t]
    assert time.monotonic() - start < 5


def test_criterion_02_lp_duality_and_support_bound():
    start = time.monotonic()
    checked = 0
    for i in range(200):
        t = 2 + (i % 4)
        n = min(12, t + 3 + (i % 5))
        p = 0.2 if i % 2 == 0 else 0.5
        G = random_hypergraph(n, t, p, seed=9_000 + i)
        primal = solve_vc_lp(G, mode="exact")
        dual = solve_matching_lp(G, mode="exact")
        assert isinstance(primal.objective, Fraction)
        assert primal.objective == dual.objective
        assert len(primal.support) <= G.t * primal.objective
        checked += 1
    assert checked >= 200
    assert time.monotonic() - start < 120


def test_criterion_03_every_rounding_trial_is_a_cover(rounding_suite):
    records = rounding_suite["records"]
    assert len(records) >= 100
    assert all(rec["trials"] >= 100 for rec in records)
    assert sum(rec["invalid_trials"] for rec in records) == 0
    assert rounding_suite["build_seconds"] < 300
    # with t <= 67 at the default threshold every residual is edgeless, so
    # these trials only ever see an empty support (ROADMAP item 2)
    assert sum(1 for rec in records if rec["support"]) == 0


def test_criterion_04_threshold_accounting_is_exact(rounding_suite):
    # every residual is empty here, so the final objective is 0 throughout
    assert sum(1 for rec in rounding_suite["records"] if rec["support"]) == 0
    for rec in rounding_suite["records"]:
        gv = rec["params"].gamma_value
        gamma_rat = Fraction(math.floor(gv * GAMMA_DENOMINATOR), GAMMA_DENOMINATOR)
        drop = rec["lp_opt"] - rec["lp_opt_residual"]
        assert Fraction(len(rec["forced"])) * gamma_rat <= drop
    # spot-check the packaged entry point end to end as well
    for rec in rounding_suite["records"][::10]:
        res = ahtp_cover_blowup(rec["blow_up"], rec["params"], mode="exact")
        assert is_vertex_cover(rec["blow_up"].hyper, res.cover)
        if res.trial_index is not None:
            gv = rec["params"].gamma_value
            gamma_rat = Fraction(math.floor(gv * GAMMA_DENOMINATOR), GAMMA_DENOMINATOR)
            assert Fraction(len(res.forced)) * gamma_rat <= res.lp_opt - res.lp_opt_residual


def _disjoint_cliques(t: int, copies: int) -> Hypergraph:
    """Disjoint union of `copies` copies of complete(t+1, t).

    Each component's full blow-up behaves like fractional edge cover of
    an odd clique, so basic LP optima keep a fractional core whose
    support survives thresholding; unions give supports of size 3 per
    copy regardless of which basic optimum the solver lands on.
    """
    base = complete(t + 1, t)
    edges = []
    for c in range(copies):
        off = c * (t + 1)
        edges.extend(tuple(v + off for v in e) for e in base.edges)
    return Hypergraph(t, copies * (t + 1), edges)


def test_criterion_05_discrepancy_set_shrinks_residual_support():
    root = 20_260_817
    for t in (8, 14, 20):
        B = blow_up(_disjoint_cliques(t, 7), t - 1)
        thr = recursive_threshold(B.hyper, 0.99, mode="float")
        support = thr.solution.support
        assert len(support) >= 20
        sizes = []
        for i in range(1000):
            coloring = two_coloring(B.base_n, child_seed(root, i))
            lopsided, _ = color_trial(support, B.labels, t, coloring)
            sizes.append(len(lopsided))
        mean = statistics.fmean(sizes)
        se = statistics.stdev(sizes) / math.sqrt(len(sizes))
        assert mean <= (2 / t) * len(support) + 3 * se


def test_criterion_06_large_instance_mean_output_size():
    start = time.monotonic()
    supported = 0
    for inst_seed, root in ((424_242, 606), (515_151, 707)):
        rng = random.Random(inst_seed)
        edge_set = set()
        while len(edge_set) < 50:
            edge_set.add(tuple(sorted(rng.sample(range(300), 100))))
        G = Hypergraph(100, 300, sorted(edge_set))
        B = blow_up(G, 99)
        params = RoundingParams(t=100, seed=root, trials=1)
        thr = recursive_threshold(B.hyper, params.gamma_value, mode="float")
        support = thr.solution.support
        supported += bool(support)
        forced = set(thr.thresholded)
        sizes = []
        for i in range(200):
            coloring = two_coloring(B.base_n, child_seed(root, i))
            lopsided, parity = color_trial(support, B.labels, 100, coloring)
            cover = tuple(sorted(forced | set(lopsided) | set(parity)))
            assert is_vertex_cover(B.hyper, cover)
            sizes.append(len(cover))
        mean = statistics.fmean(sizes)
        se = statistics.stdev(sizes) / math.sqrt(len(sizes))
        assert mean <= params.t_prime * thr.lp_opt + 3 * se
    # t = 100 > 67, yet both vertex optima leave an empty residual support
    assert supported == 0
    assert time.monotonic() - start < 600


def test_criterion_07_pair_blowup_transversal():
    start = time.monotonic()
    G = complete(4, 3)
    B = blow_up(G, 2)
    res = t2_cover_blowup(B, seed=2_026, trials=20, mode="exact")
    assert is_vertex_cover(B.hyper, res.cover)
    assert res.size <= 4
    assert brute_tau(B.hyper) == 2
    assert time.monotonic() - start < 10


def test_criterion_08_greedy_lower_bound_on_hard_family():
    start = time.monotonic()
    system = greedy_hard_setsystem(20)
    blocks = system.sets[-20:]
    assert set().union(*map(set, blocks)) == set(range(system.n))
    trace = greedy_set_cover(system)
    assert len(trace.picked) >= 57
    assert len(trace.picked) / 20 >= 2.85
    assert time.monotonic() - start < 5


def _random_simple_system(seed: int) -> SetSystem:
    rng = random.Random(seed)
    n = rng.randrange(10, 25)
    sets: list[tuple[int, ...]] = []
    for _ in range(40):
        if len(sets) >= 12:
            break
        cand = tuple(sorted(rng.sample(range(n), rng.randrange(2, 5))))
        if all(len(set(cand) & set(s)) <= 1 for s in sets):
            sets.append(cand)
    covered = set().union(*map(set, sets)) if sets else set()
    sets.extend((v,) for v in range(n) if v not in covered)
    return SetSystem(n, sets)


def test_criterion_09_greedy_upper_bound_on_simple_systems():
    start = time.monotonic()
    for i in range(50):
        system = _random_simple_system(77_000 + i)
        picks = len(greedy_set_cover(system).picked)
        opt = brute_set_cover(system, limit=40)
        assert opt >= 1
        assert picks / opt <= math.log(system.n) / 2 + 1
    assert time.monotonic() - start < 120


def test_criterion_10_tent_freeness_of_pair_blowups_and_lines():
    start = time.monotonic()
    count = 0
    i = 0
    while count < 50:
        G = random_hypergraph(7 + (i % 4), 3, 0.25 + 0.1 * (i % 3), seed=7_000 + i)
        i += 1
        if G.m == 0:
            continue
        assert find_tents(blow_up(G, 2).hyper) == []
        count += 1
    assert find_tents(combinatorial_lines(2)) == []
    assert find_tents(combinatorial_lines(3)) == []
    assert find_tents(three_tent()) == [(0, 1, 2, 3)]
    assert time.monotonic() - start < 60


def test_criterion_11_local_edge_density_oracle():
    start = time.monotonic()
    assert rho(three_tent()) == Fraction(3, 4)
    assert rho(three_tent()) > Fraction(1, 2)
    assert rho(Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])) == Fraction(1, 3)
    assert rho(Hypergraph(4, 8, [(0, 1, 2, 3), (4, 5, 6, 7)])) == Fraction(1, 4)
    assert rho(Hypergraph(3, 5, [(0, 1, 2), (0, 3, 4)])) == Fraction(1, 2)
    assert time.monotonic() - start < 1


def test_criterion_12_pattern_free_and_simplifying_generators():
    start = time.monotonic()
    tent = three_tent()
    for seed in range(20):
        G = f_free_random(12, 3, [tent], seed=seed)
        assert contains_subhypergraph(G, tent) is None
    for seed in range(20):
        base = random_hypergraph(9, 3, 0.5, seed=88_000 + seed)
        assert is_simple(simplify_reduction(base, B=4, P=3, seed=seed))
    assert time.monotonic() - start < 60


CLI_SUITE = [
    [["gen", "complete", "--n", "4", "--t", "3"], ["blowup", "--k", "2"],
     ["oracle", "tau"]],
    [["gen", "complete", "--n", "4", "--t", "3"], ["blowup", "--k", "2"],
     ["round", "ahtp", "--seed", "7", "--trials", "20", "--mode", "exact"],
     ["verify", "cover"]],
    [["gen", "lines", "--n", "2"], ["oracle", "tents"]],
    [["gen", "random", "--n", "10", "--t", "4", "--p", "0.3", "--seed", "17"],
     ["blowup", "--k", "3"],
     ["round", "ahtp", "--seed", "99", "--trials", "50", "--mode", "exact"]],
    [["gen", "complete", "--n", "5", "--t", "4"], ["blowup", "--k", "2"],
     ["round", "t2", "--seed", "5", "--trials", "10", "--mode", "exact"]],
    [["gen", "complete", "--n", "5", "--t", "4"], ["blowup", "--k", "3"],
     ["round", "colorcode", "--seed", "8"]],
    [["gen", "ffree", "--n", "12", "--seed", "3"]],
    [["gen", "hard-setcover", "--k", "6"], ["setcover", "greedy"]],
    [["gen", "complete", "--n", "4", "--t", "3"], ["lp", "vc", "--mode", "exact"]],
    [["gen", "random", "--n", "9", "--t", "3", "--p", "0.4", "--seed", "11"],
     ["oracle", "taustar"]],
]


def _run_cli_suite() -> list[str]:
    outputs = []
    for pipeline in CLI_SUITE:
        text = ""
        for cmd in pipeline:
            proc = subprocess.run(
                [sys.executable, "-m", "turancover", *cmd],
                input=text, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, (cmd, proc.stderr)
            text = proc.stdout
        outputs.append(text)
    return outputs


def test_criterion_13_cli_suite_is_byte_identical_on_rerun():
    first = _run_cli_suite()
    second = _run_cli_suite()
    assert first == second
