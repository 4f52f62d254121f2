"""Tests for the LP threshold loop, color trials, and the cover producers."""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from turancover import rounding
from turancover.errors import ParameterError, VerificationError
from turancover.generators import complete, random_hypergraph
from turancover.hypergraph import Hypergraph, blow_up, is_vertex_cover
from turancover.lp import LPSolution
from turancover.rounding import (
    Coloring,
    RoundingParams,
    ahtp_cover_blowup,
    child_seed,
    color_code_cover,
    color_trial,
    fallback_threshold_cover,
    monochromatic_pairs,
    recursive_threshold,
    sample_coloring,
    t2_cover_blowup,
    two_coloring,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(0, 2, max_denominator=50), max_size=20),
       st.fractions(Fraction(1, 10**6), Fraction(999_999, 10**6), max_denominator=10**6),
       st.integers(0, 20))
def test_exact_threshold_test_in_integers_matches_fraction_comparison(values, cut, tie):
    values.insert(min(tie, len(values)), cut)  # a value exactly at the cut is taken
    solution = LPSolution("primal", dict(enumerate(values)), sum(values), "exact")
    assert rounding._reaching(solution, cut) == [v for v, q in enumerate(values) if q >= cut]


def test_child_seed_frozen_values():
    assert [child_seed(123, i) for i in range(3)] == [
        16294208416658607572,
        10451216379200822458,
        10905525725756348085,
    ]


def test_child_seeds_distinct_and_in_range():
    seeds = {child_seed(99, i) for i in range(64)}
    assert len(seeds) == 64
    assert all(0 <= s < 2**64 for s in seeds)


def test_sample_coloring_is_deterministic():
    a = sample_coloring(30, 4, 12345)
    b = sample_coloring(30, 4, 12345)
    assert a == b
    assert len(a.colors) == 30
    assert all(0 <= c < 4 for c in a.colors)
    assert sample_coloring(30, 4, 54321).colors != a.colors


def test_two_coloring_uses_two_colors():
    c = two_coloring(50, 7)
    assert c.num_colors == 2
    assert set(c.colors) <= {0, 1}


def test_params_validation():
    with pytest.raises(ParameterError):
        RoundingParams(t=2)
    with pytest.raises(ParameterError):
        RoundingParams(t=4, trials=0)
    with pytest.raises(ParameterError):
        RoundingParams(t=4, seed=2**64)
    with pytest.raises(ParameterError):
        RoundingParams(t=4, gamma=1.5)
    p = RoundingParams(t=4)
    assert p.gamma_value == pytest.approx(1 / p.t_prime)
    assert RoundingParams(t=4, gamma=0.25).gamma_value == 0.25


def test_delta_crosses_one_at_eleven():
    assert RoundingParams(t=10).delta > 1
    assert RoundingParams(t=11).delta < 1


def test_threshold_collects_uniform_optimum():
    G = complete(4, 3)
    res = recursive_threshold(G, Fraction(1, 4), mode="exact")
    assert set(res.thresholded) == {0, 1, 2, 3}
    assert res.residual.m == 0
    assert res.lp_opt == Fraction(4, 3)
    assert res.lp_opt_residual == 0


def test_threshold_accounting_bound():
    for seed in range(8):
        G = random_hypergraph(9, 3, 0.4, seed)
        gamma = Fraction(1, 5)
        res = recursive_threshold(G, gamma, mode="exact")
        assert len(res.thresholded) * gamma <= res.lp_opt - res.lp_opt_residual


def test_threshold_high_cut_leaves_half_integral_core():
    """Stripping only near-integral weights must halt on an all-1/2 core."""
    B = blow_up(complete(9, 8), 7)
    res = recursive_threshold(B, Fraction(99, 100), mode="exact")
    support = res.solution.support
    assert res.residual.m > 0
    assert len(support) >= 3
    assert all(res.solution.values[v] == Fraction(1, 2) for v in support)


def test_threshold_residual_keeps_vertex_ids():
    B = blow_up(complete(9, 8), 7)
    res = recursive_threshold(B, Fraction(99, 100), mode="exact")
    assert res.residual.n == B.hyper.n
    leftover = {v for e in res.residual.edges for v in e}
    assert leftover.isdisjoint(res.thresholded)


def test_color_trial_flags_lopsided_labels():
    # t = 14 puts the imbalance cutoff just under 0.65, so only labels
    # with a color seen at most zero times count as high-discrepancy;
    # colors are rigged by hand below.
    t = 14
    labels = [tuple(range(13)), tuple(range(13, 26)), tuple(range(26, 39))]
    colors = [0] * 13 + [1] * 7 + [0] * 6 + [1] * 6 + [0] * 7
    coloring = Coloring(tuple(colors), 2, seed=0)
    lopsided, parity = color_trial([0, 1, 2], labels, t, coloring)
    assert lopsided == (0,)
    # ones-counts are 0, 7, 6, so vertex 1 sits alone in the odd class
    assert parity == (1,)


def test_color_trial_tie_prefers_even_class():
    t = 14
    labels = [tuple(range(13)), tuple(range(13, 26))]
    colors = [0] * 13 + [1] * 7 + [0] * 6
    coloring = Coloring(tuple(colors), 2, seed=0)
    lopsided, parity = color_trial([0, 1], labels, t, coloring)
    assert lopsided == (0,)
    assert parity == (0,)


def test_color_trial_small_t_never_flags():
    t = 4
    labels = [(0, 1, 2), (1, 2, 3)]
    coloring = Coloring((0, 0, 0, 1), 2, seed=0)
    lopsided, parity = color_trial([0, 1], labels, t, coloring)
    assert lopsided == ()
    assert parity == (0,)


def test_color_trial_needs_two_colors():
    coloring = Coloring((0, 1, 2, 0), 3, seed=0)
    with pytest.raises(ParameterError, match="^parity trials need exactly two colors$"):
        color_trial([0, 1], [(0, 1, 2), (1, 2, 3)], 4, coloring)


@pytest.mark.parametrize("gamma", [1e-7, 9.99e-7])
def test_exact_threshold_below_a_millionth_is_refused(gamma):
    with pytest.raises(ParameterError, match="too small to rationalize"):
        rounding._resolve_gamma(gamma, "exact")
    assert rounding._resolve_gamma(gamma, "float") > 0


def test_monochromatic_pairs_picks_single_color_labels():
    labels = [(0, 1), (1, 2), (2, 3)]
    coloring = Coloring((0, 0, 1, 1), 2, seed=0)
    assert monochromatic_pairs([0, 1, 2], labels, coloring) == (0, 2)


def test_fallback_cover_on_pair_blow_up():
    B = blow_up(complete(4, 3), 2)
    res = fallback_threshold_cover(B, mode="exact")
    assert sorted(res.cover) == [2, 3]
    assert res.size == 2
    assert res.lp_opt == 2
    assert is_vertex_cover(B.hyper, res.cover)
    assert res.size <= B.hyper.t * res.lp_opt


def test_ahtp_cover_on_complete_triples():
    B = blow_up(complete(4, 3), 2)
    res = ahtp_cover_blowup(B, RoundingParams(t=3, seed=7, trials=20), mode="exact")
    assert is_vertex_cover(B.hyper, res.cover)
    assert res.size == 2
    assert res.lp_opt == 2
    assert res.rounding_size == 2 and res.fallback_size == 2
    assert set(res.cover) == set(res.forced) | set(res.high_discrepancy) | set(res.parity_class)


def test_ahtp_cover_records_both_candidate_sizes():
    B = blow_up(random_hypergraph(8, 3, 0.5, seed=3), 2)
    res = ahtp_cover_blowup(B, RoundingParams(t=3, seed=1, trials=5), mode="exact")
    assert res.rounding_size is not None and res.fallback_size is not None
    assert res.size == min(res.rounding_size, res.fallback_size)


def test_ahtp_cover_returns_the_fallback_when_it_is_smaller():
    # acceptance-corpus base 37: the rounding takes 20 vertices, the trivial
    # threshold cover of the same root LP solution 12
    B = blow_up(random_hypergraph(7, 4, 19 / 35, seed=31_037), 3)
    res = ahtp_cover_blowup(B, RoundingParams(t=4, seed=52_038, trials=5), mode="exact")
    root = recursive_threshold(B.hyper, RoundingParams(t=4).gamma_value, mode="exact").root
    assert (res.rounding_size, res.fallback_size, res.size) == (20, 12, 12)
    assert res.trial_index is None and res.seed == 52_038
    assert res.forced == res.cover and is_vertex_cover(B.hyper, res.cover)
    assert res.high_discrepancy == res.parity_class == ()
    assert res.lp_opt == root.objective and res.lp_opt_residual == 0


def _assert_built_from_parts(res):
    assert res.cover == tuple(sorted(
        set(res.forced) | set(res.high_discrepancy) | set(res.parity_class)))


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_lp_producers_build_the_cover_from_its_parts(mode):
    # complete(8, 7) at gamma 99/100: the rounding takes 4 vertices, the
    # trivial threshold cover 7; complete(4, 3) ties at 2; acceptance-corpus
    # base 37 is won by the trivial cover
    base37 = blow_up(random_hypergraph(7, 4, 19 / 35, seed=31_037), 3)
    won = ahtp_cover_blowup(blow_up(complete(8, 7), 6),
                            RoundingParams(t=7, seed=1, trials=10, gamma=Fraction(99, 100)),
                            mode=mode)
    tied = ahtp_cover_blowup(blow_up(complete(4, 3), 2),
                             RoundingParams(t=3, seed=7, trials=20), mode=mode)
    lost = ahtp_cover_blowup(base37, RoundingParams(t=4, seed=52_038, trials=5), mode=mode)
    assert [(r.rounding_size, r.fallback_size, r.size, r.trial_index)
            for r in (won, tied, lost)] == [(4, 7, 4, 0), (2, 2, 2, 0), (20, 12, 12, None)]
    # every pair of complete(5, 3) stays in the residual support
    pairs = t2_cover_blowup(blow_up(complete(5, 3), 2), seed=3, trials=20, mode=mode)
    assert pairs.parity_class and pairs.high_discrepancy == ()
    assert (pairs.rounding_size, pairs.fallback_size) == (pairs.size, None)
    trivial = fallback_threshold_cover(base37, mode=mode)
    assert trivial.cover == lost.cover
    assert (trivial.rounding_size, trivial.fallback_size) == (None, None)
    for res in (won, tied, lost, pairs, trivial):
        _assert_built_from_parts(res)


def test_ahtp_cover_solves_root_once_and_skips_idle_trials(monkeypatch):
    # the residual of a full blow-up at the default threshold is edgeless
    # (t <= 67), so the trivial cover reuses the root solve and no coloring
    # is drawn
    from turancover import rounding

    counts = {"solve_vc_lp": 0, "two_coloring": 0}
    for name in counts:
        real = getattr(rounding, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(rounding, name, spy)
    B = blow_up(random_hypergraph(8, 4, 0.3, seed=2), 3)
    res = ahtp_cover_blowup(B, RoundingParams(t=4, seed=9, trials=50), mode="exact")
    assert res.trial_index == 0 and res.parity_class == ()
    assert counts == {"solve_vc_lp": 2, "two_coloring": 0}


def test_ahtp_cover_reports_first_failing_trial(monkeypatch):
    # gamma = 9/10 leaves three residual edges, so empty classes miss them
    from turancover import rounding

    monkeypatch.setattr(rounding, "color_trial", lambda *args: ((), ()))
    B = blow_up(complete(5, 4), 3)
    params = RoundingParams(t=4, seed=3, trials=70, gamma=Fraction(9, 10))
    with pytest.raises(VerificationError, match=r"^rounding trial 0 produced a non-cover$"):
        ahtp_cover_blowup(B, params, mode="exact")


def test_t2_cover_reports_first_failing_trial(monkeypatch):
    # every pair of complete(5, 3) stays in the residual support
    from turancover import rounding

    monkeypatch.setattr(rounding, "monochromatic_pairs", lambda *args: ())
    B = blow_up(complete(5, 3), 2)
    with pytest.raises(VerificationError, match=r"^pair trial 0 produced a non-cover$"):
        t2_cover_blowup(B, seed=3, trials=70, mode="exact")


def _best_trial_reference(B, forced, support, trials, seed, finish, context):
    """The build-every-trial-then-check-once loop that the chunked one replaced."""
    from turancover import rounding

    runs = []
    for trial in range(trials if support else 1):
        classes = finish(two_coloring(B.base_n, child_seed(seed, trial)))
        runs.append((tuple(sorted(forced.union(*classes))), classes))
    bad = rounding.first_non_cover(B.hyper, [cover for cover, _ in runs])
    if bad is not None:
        raise VerificationError(f"{context} trial {bad} produced a non-cover")
    trial = min(range(len(runs)), key=lambda i: len(runs[i][0]))
    return (trial, *runs[trial])


@pytest.mark.parametrize("trials", [1, 63, 64, 65, 129, 200])
def test_chunked_trials_match_the_all_at_once_loop(monkeypatch, trials):
    from turancover import rounding

    checked = []
    real = rounding.first_non_cover

    def spy(H, covers):
        checked.append(len(covers))
        return real(H, covers)

    monkeypatch.setattr(rounding, "first_non_cover", spy)
    # complete bases keep every pair in the residual support, so all trials run
    cases = [(blow_up(complete(n, t), 2), s) for s, (n, t) in enumerate([(5, 3), (6, 3), (7, 4)])]
    new = [t2_cover_blowup(B, seed=s, trials=trials, mode="float") for B, s in cases]
    assert max(checked) <= 64 and sum(checked) == 3 * trials  # every trial checked
    monkeypatch.setattr(rounding, "_best_trial", _best_trial_reference)
    assert new == [t2_cover_blowup(B, seed=s, trials=trials, mode="float") for B, s in cases]


def test_an_empty_residual_gives_what_the_loop_gives(monkeypatch):
    # full blow-ups at the default threshold leave an empty residual support
    cases = [(blow_up(random_hypergraph(8, 4, 0.3, seed=s), 3), s) for s in range(5)]
    new = [ahtp_cover_blowup(B, RoundingParams(t=4, seed=s, trials=50)) for B, s in cases]
    monkeypatch.setattr(rounding, "_best_trial", _best_trial_reference)
    assert new == [ahtp_cover_blowup(B, RoundingParams(t=4, seed=s, trials=50))
                   for B, s in cases]


def test_an_empty_residual_still_verifies_the_forced_set(monkeypatch):
    real = rounding.recursive_threshold
    monkeypatch.setattr(rounding, "recursive_threshold",
                        lambda *args, **kwargs: replace(real(*args, **kwargs), thresholded=()))
    B = blow_up(random_hypergraph(8, 4, 0.3, seed=2), 3)
    with pytest.raises(VerificationError, match=r"^rounding trial 0 produced a non-cover$"):
        ahtp_cover_blowup(B, RoundingParams(t=4, seed=9, trials=50), mode="exact")


def test_lowest_failing_trial_raises_across_chunks(monkeypatch):
    from turancover import rounding

    failing = {child_seed(3, 70), child_seed(3, 100)}
    real = rounding.monochromatic_pairs
    monkeypatch.setattr(rounding, "monochromatic_pairs",
                        lambda support, labels, coloring: ()
                        if coloring.seed in failing else real(support, labels, coloring))
    B = blow_up(complete(5, 3), 2)
    assert t2_cover_blowup(B, seed=3, trials=70, mode="exact").size > 0
    with pytest.raises(VerificationError, match=r"^pair trial 70 produced a non-cover$"):
        t2_cover_blowup(B, seed=3, trials=150, mode="exact")


def test_trials_guard_refuses_before_solving(monkeypatch):
    from turancover import rounding
    from turancover.errors import ResourceLimitError

    B2 = blow_up(complete(5, 3), 2)
    # the float LP's size guard reads the same override: 40 admits its n + m*t
    monkeypatch.setenv("TURANCOVER_SIZE_GUARD", "40")
    assert B2.hyper.n + B2.hyper.m * B2.hyper.t == 40
    assert t2_cover_blowup(B2, seed=1, trials=40, mode="float").trial_index < 40
    assert ahtp_cover_blowup(B2, RoundingParams(t=3, trials=40), mode="float").size > 0

    def refuse(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(rounding, "solve_vc_lp", refuse)
    with pytest.raises(ResourceLimitError, match="41 trials exceed limit 40"):
        t2_cover_blowup(B2, seed=1, trials=41, mode="float")
    with pytest.raises(ResourceLimitError, match="41 trials exceed limit 40"):
        ahtp_cover_blowup(B2, RoundingParams(t=3, trials=41), mode="float")
    monkeypatch.delenv("TURANCOVER_SIZE_GUARD")
    with pytest.raises(ResourceLimitError, match=f"limit {rounding.TRIALS_GUARD}$"):
        t2_cover_blowup(B2, trials=rounding.TRIALS_GUARD + 1)


def test_ahtp_cover_uniformity_mismatch():
    with pytest.raises(ParameterError):
        ahtp_cover_blowup(blow_up(complete(5, 4), 3), RoundingParams(t=3), mode="exact")


def test_ahtp_blowup_requires_top_subsets():
    B = blow_up(complete(5, 4), 2)  # pair blow-up of a 4-uniform base
    with pytest.raises(ParameterError):
        ahtp_cover_blowup(B, RoundingParams(t=4), mode="exact")


def test_ahtp_cover_deterministic():
    B = blow_up(random_hypergraph(9, 3, 0.4, seed=11), 2)
    a = ahtp_cover_blowup(B, RoundingParams(t=3, seed=42, trials=8), mode="exact")
    b = ahtp_cover_blowup(B, RoundingParams(t=3, seed=42, trials=8), mode="exact")
    assert a == b


def test_ahtp_cover_float_mode_valid():
    B = blow_up(random_hypergraph(9, 3, 0.4, seed=19), 2)
    res = ahtp_cover_blowup(B, RoundingParams(t=3, seed=5, trials=4), mode="float")
    assert is_vertex_cover(B.hyper, res.cover)


def test_t2_cover_on_triangle_system():
    B = blow_up(complete(4, 3), 2)
    res = t2_cover_blowup(B, seed=0, trials=20, mode="exact")
    assert is_vertex_cover(B.hyper, res.cover)
    assert res.size <= 4


def test_t2_cover_valid_on_random_bases():
    for seed in range(6):
        G = random_hypergraph(9, 4, 0.3, seed=seed)
        if G.m == 0:
            continue
        B = blow_up(G, 2)
        res = t2_cover_blowup(B, seed=seed, trials=3, mode="exact")
        assert is_vertex_cover(B.hyper, res.cover)


def test_color_code_cover_degenerate_single_color():
    # with t = 3 there is only one color, so nothing is ever missing a
    # color and the residue class swallows every vertex
    B = blow_up(complete(4, 3), 2)
    res = color_code_cover(B, seed=5)
    assert res.size == B.hyper.n
    assert is_vertex_cover(B.hyper, res.cover)
    assert res.lp_opt is None and res.lp_opt_residual is None


def test_color_code_cover_two_colors():
    # t = 10 uses two colors, so the residue split is non-trivial
    B = blow_up(complete(11, 10), 9)
    sizes = []
    for seed in range(10):
        res = color_code_cover(B, seed=seed)
        assert is_vertex_cover(B.hyper, res.cover)
        sizes.append(res.size)
    assert min(sizes) < B.hyper.n


def test_color_code_cover_builds_the_cover_from_its_parts():
    # t = 12 uses three colors, so some labels miss one and are forced
    B = blow_up(complete(13, 12), 11)
    results = [color_code_cover(B, seed=seed) for seed in range(10)]
    assert sum(bool(res.forced) for res in results) == 4
    for res in results:
        _assert_built_from_parts(res)
        assert (res.rounding_size, res.fallback_size) == (None, None)


def test_color_code_cover_requires_top_blow_up():
    B = blow_up(complete(5, 4), 2)
    with pytest.raises(ParameterError):
        color_code_cover(B, seed=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 5))
def test_ahtp_cover_always_valid(seed, t):
    G = random_hypergraph(t + 4, t, 0.45, seed)
    B = blow_up(G, t - 1)
    res = ahtp_cover_blowup(B, RoundingParams(t=t, seed=seed, trials=3), mode="exact")
    assert is_vertex_cover(B.hyper, res.cover)
    assert res.size <= B.hyper.n
