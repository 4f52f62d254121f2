"""Tests for the LP threshold loop, color trials, and the cover producers."""

import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from turancover import rounding
from turancover.errors import ParameterError, VerificationError
from turancover.generators import (complete, f_free_random, random_hypergraph,
                                   simplify_reduction, three_tent)
from turancover.hypergraph import Hypergraph, blow_up, is_vertex_cover
from turancover.lp import LPSolution
from turancover.rounding import (
    RoundingParams,
    ahtp_cover_blowup,
    child_seed,
    color_code_cover,
    fallback_threshold_cover,
    recursive_threshold,
    t2_cover_blowup,
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


def test_vectorised_child_seeds_equal_child_seed():
    index = [*range(40), 2**32, 2**63, 2**64 - 3, 2**64 - 2, 2**64 - 1, *range(1000, 1005)]
    assert len(index) == 50
    for seed in (0, 123, 2**63 + 11, 2**64 - 1):
        seeds = child_seed(seed, np.array(index, dtype=np.uint64))
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [child_seed(seed, i) for i in index]


_M64 = (1 << 64) - 1


def _splitmix64_stream(state):
    """The splitmix64 generator as a pure-Python stream: each output adds
    the golden gamma to the state and mixes the sum."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _M64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        yield z ^ (z >> 31)


def _stream_colors(n, seed):
    """n two-colors from the splitmix64 stream seeded by ``seed``: 64 per
    output word, least significant bit first."""
    colors = []
    for word in _splitmix64_stream(seed):
        if len(colors) >= n:
            return colors[:n]
        colors.extend((word >> b) & 1 for b in range(64))


def test_splitmix64_stream_reference_is_the_published_generator():
    # the first outputs of splitmix64 seeded with 1234567
    stream = _splitmix64_stream(1234567)
    assert [next(stream) for _ in range(3)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]


@pytest.mark.parametrize("trials", [range(0), range(3), range(60, 130)])
def test_coloring_matrix_rows_are_two_colorings(trials):
    for n in (1, 13, 63, 64, 65, 130):  # across the 64-bit word boundaries
        matrix = rounding._colorings(n, 99, trials)
        assert matrix.shape == (len(trials), n)
        assert matrix.tolist() == [_stream_colors(n, child_seed(99, trial))
                                   for trial in trials]


def test_two_coloring_uses_two_colors():
    matrix = rounding._colorings(1000, 7, range(200))
    assert matrix.dtype == np.uint8
    assert set(matrix.ravel().tolist()) == {0, 1}
    assert abs(matrix.mean() - 0.5) < 0.005


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
    assert type(RoundingParams(t=np.int64(4)).t) is int


@pytest.mark.parametrize("t", [4.0, "4", None])
def test_params_refuse_a_uniformity_that_is_not_an_integer(t):
    message = f"^uniformity {re.escape(repr(t))} is not an integer$"
    with pytest.raises(ParameterError, match=message):
        RoundingParams(t=t)


@pytest.mark.parametrize("gamma", ["0.5", 0, 1, Fraction(3, 2), float("nan"), [0.5]])
def test_one_threshold_rule(gamma):
    message = f"^threshold must lie in \\(0,1\\), got {re.escape(repr(gamma))}$"
    with pytest.raises(ParameterError, match=message):
        RoundingParams(t=4, gamma=gamma)
    for mode in ("exact", "float"):
        with pytest.raises(ParameterError, match=message):
            recursive_threshold(complete(4, 3), gamma, mode=mode)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_every_seeded_cover_refuses_a_seed_outside_64_bits(seed):
    # t2 would color 2**64 as seed 0 (child_seed masks it) yet print SEED 2**64
    B = blow_up(complete(5, 3), 2)  # k = 2 = t - 1: both a pair and a full blow-up
    with pytest.raises(ParameterError, match="^seed must fit in 64 bits$"):
        RoundingParams(t=3, seed=seed)
    with pytest.raises(ParameterError, match="^seed must fit in 64 bits$"):
        t2_cover_blowup(B, seed=seed)
    with pytest.raises(ParameterError, match="^seed must fit in 64 bits$"):
        color_code_cover(B, seed=seed)
    assert t2_cover_blowup(B, seed=2**64 - 1).seed == 2**64 - 1
    assert color_code_cover(B, seed=2**64 - 1).seed == 2**64 - 1


_PAIR = blow_up(complete(5, 3), 2)  # k = 2 = t - 1: both a pair and a full blow-up
_SEEDED = {  # each public seeded function: a valid call, and one with another bad argument
    "RoundingParams": (lambda s: RoundingParams(t=3, seed=s),
                       lambda s: RoundingParams(t=2, seed=s, trials=0)),
    "t2_cover_blowup": (lambda s: t2_cover_blowup(_PAIR, seed=s),
                        lambda s: t2_cover_blowup(blow_up(complete(5, 4), 3), seed=s)),
    "color_code_cover": (lambda s: color_code_cover(_PAIR, seed=s),
                         lambda s: color_code_cover(blow_up(complete(5, 4), 2), seed=s)),
    "child_seed": (lambda s: child_seed(s, 3), None),
    "random_hypergraph": (lambda s: random_hypergraph(6, 3, 0.5, s),
                          lambda s: random_hypergraph(2, 3, 1.5, s)),
    "f_free_random": (lambda s: f_free_random(8, 3, [three_tent()], seed=s),
                      lambda s: f_free_random(0, 4, [], seed=s)),
    "simplify_reduction": (lambda s: simplify_reduction(complete(4, 3), 2, 2, s),
                           lambda s: simplify_reduction(complete(4, 3), 0, 0, s)),
}


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "7", True],
                         ids=["-1", "2**64", "1.5", "str", "True"])
@pytest.mark.parametrize("name", sorted(_SEEDED))
def test_every_seeded_function_checks_its_seed_first(name, seed):
    # random.Random folds -5 onto 5, child_seed masked 2**64 + 5 onto 5,
    # and True would reproduce seed 1 yet print SEED True
    for call in _SEEDED[name]:
        if call is not None:
            with pytest.raises(ParameterError, match="^seed must fit in 64 bits$"):
                call(seed)


@pytest.mark.parametrize("name", sorted(_SEEDED))
def test_every_seeded_function_takes_the_ends_of_the_seed_range(name):
    valid, _ = _SEEDED[name]
    assert valid(0) != valid(2**64 - 1)


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


def _parity_rows(support, labels, t, colorings):
    """``_parity_classes`` over a coloring matrix, each row as (lopsided,
    smaller) id tuples."""
    matrix = np.array(colorings, dtype=np.uint8)
    lopsided, smaller = rounding._parity_classes(
        matrix, rounding._label_matrix(support, labels), t)
    return [(rounding._ids(support, a), rounding._ids(support, b))
            for a, b in zip(lopsided, smaller)]


def _pair_rows(support, labels, colorings):
    """``_pair_classes`` over a coloring matrix, each row's chosen ids."""
    matrix = np.array(colorings, dtype=np.uint8)
    _, chosen = rounding._pair_classes(matrix, rounding._label_matrix(support, labels))
    return [rounding._ids(support, row) for row in chosen]


def test_color_trial_flags_lopsided_labels():
    # t = 14 puts the imbalance cutoff just under 0.65, so only labels
    # with a color seen at most zero times count as high-discrepancy;
    # colors are rigged by hand below.
    t = 14
    labels = [tuple(range(13)), tuple(range(13, 26)), tuple(range(26, 39))]
    colors = [0] * 13 + [1] * 7 + [0] * 6 + [1] * 6 + [0] * 7
    [(lopsided, parity)] = _parity_rows([0, 1, 2], labels, t, [colors])
    assert lopsided == (0,)
    # ones-counts are 0, 7, 6, so vertex 1 sits alone in the odd class
    assert parity == (1,)


def test_color_trial_tie_prefers_even_class():
    t = 14
    labels = [tuple(range(13)), tuple(range(13, 26))]
    colors = [0] * 13 + [1] * 7 + [0] * 6
    [(lopsided, parity)] = _parity_rows([0, 1], labels, t, [colors])
    assert lopsided == (0,)
    assert parity == (0,)


def test_color_trial_small_t_never_flags():
    t = 4
    labels = [(0, 1, 2), (1, 2, 3)]
    [(lopsided, parity)] = _parity_rows([0, 1], labels, t, [(0, 0, 0, 1)])
    assert lopsided == ()
    assert parity == (0,)


@pytest.mark.parametrize("gamma", [1e-7, 9.99e-7])
def test_exact_threshold_below_a_millionth_is_refused(gamma):
    with pytest.raises(ParameterError, match="too small to rationalize"):
        rounding._resolve_gamma(gamma, "exact")
    assert rounding._resolve_gamma(gamma, "float") > 0


def _color_trial_reference(support, labels, t, colors):
    """The parity/discrepancy rule of one coloring as one Python pass
    over the support."""
    low_count = (1 - rounding._delta(t)) * (t - 1) / 2
    lopsided = []
    classes = ([], [])
    for v in support:
        label = labels[v]
        ones = sum(colors[u] for u in label)
        zeros = len(label) - ones
        if ones <= low_count or zeros <= low_count:
            lopsided.append(v)
        classes[ones & 1].append(v)
    smaller = classes[0] if len(classes[0]) <= len(classes[1]) else classes[1]
    return tuple(sorted(lopsided)), tuple(sorted(smaller))


def _monochromatic_pairs_reference(support, labels, colors):
    """The monochromatic-pair rule of one coloring as one Python pass
    over the support."""
    return tuple(sorted(
        v for v in support
        if colors[labels[v][0]] == colors[labels[v][1]]))


@pytest.mark.parametrize("t", [3, 4, 8, 11, 14])
def test_one_coloring_views_match_the_python_rules(t):
    # each row of a block's class masks is the rule applied to that row's coloring
    rng = random.Random(t)
    base_n = t + 4
    labels = list(combinations(range(base_n), t - 1))
    pairs = list(combinations(range(base_n), 2))
    for block in range(5):
        colorings = rounding._colorings(base_n, t, range(8 * block, 8 * block + 8)).tolist()
        support = sorted(rng.sample(range(len(labels)), rng.randrange(1, len(labels) + 1)))
        assert _parity_rows(support, labels, t, colorings) == [
            _color_trial_reference(support, labels, t, colors) for colors in colorings]
        support = sorted(rng.sample(range(len(pairs)), rng.randrange(1, len(pairs) + 1)))
        assert _pair_rows(support, pairs, colorings) == [
            _monochromatic_pairs_reference(support, pairs, colors) for colors in colorings]


def test_monochromatic_pairs_picks_single_color_labels():
    labels = [(0, 1), (1, 2), (2, 3)]
    assert _pair_rows([0, 1, 2], labels, [(0, 0, 1, 1), (0, 1, 1, 0)]) == [(0, 2), (1,)]


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

    counts = {"solve_vc_lp": 0, "_colorings": 0}
    for name in counts:
        real = getattr(rounding, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(rounding, name, spy)
    B = blow_up(random_hypergraph(8, 4, 0.3, seed=2), 3)
    res = ahtp_cover_blowup(B, RoundingParams(t=4, seed=9, trials=50), mode="exact")
    assert res.trial_index == 0 and res.parity_class == ()
    assert counts == {"solve_vc_lp": 2, "_colorings": 0}


def _no_classes(colorings, labels, *args):
    """A class rule that selects no vertex in any trial."""
    empty = np.zeros((len(colorings), len(labels)), dtype=bool)
    return empty, empty.copy()


def test_ahtp_cover_reports_first_failing_trial(monkeypatch):
    # gamma = 9/10 leaves three residual edges, so empty classes miss them
    from turancover import rounding

    monkeypatch.setattr(rounding, "_parity_classes", _no_classes)
    B = blow_up(complete(5, 4), 3)
    params = RoundingParams(t=4, seed=3, trials=70, gamma=Fraction(9, 10))
    with pytest.raises(VerificationError, match=r"^rounding trial 0 produced a non-cover$"):
        ahtp_cover_blowup(B, params, mode="exact")


def test_t2_cover_reports_first_failing_trial(monkeypatch):
    # every pair of complete(5, 3) stays in the residual support
    from turancover import rounding

    monkeypatch.setattr(rounding, "_pair_classes", _no_classes)
    B = blow_up(complete(5, 3), 2)
    with pytest.raises(VerificationError, match=r"^pair trial 0 produced a non-cover$"):
        t2_cover_blowup(B, seed=3, trials=70, mode="exact")


def _best_trial_reference(B, forced, support, trials, seed, finish, context):
    """The trial loop one trial at a time: each trial's colors read off
    the pure-Python splitmix64 stream of its child seed, its classes from
    the Python rules, its cover built as a tuple and checked by
    ``is_vertex_cover``.  ``context`` names the rounder ("pair" for
    ``t2_cover_blowup``, "rounding" for ``ahtp_cover_blowup``), and so its
    rule; ``finish``, the array form, is not used."""
    runs = []
    for trial in range(trials if support else 1):
        colors = _stream_colors(B.base_n, child_seed(seed, trial))
        if context == "pair":
            classes = ((), _monochromatic_pairs_reference(support, B.labels, colors))
        else:
            classes = _color_trial_reference(support, B.labels, B.base_t, colors)
            if 2 * len(classes[1]) > len(support):
                raise VerificationError("parity class exceeds half the support")
        runs.append((tuple(sorted(forced.union(*classes))), classes))
    bad = next((i for i, (cover, _) in enumerate(runs)
                if not is_vertex_cover(B.hyper, cover)), None)
    if bad is not None:
        raise VerificationError(f"{context} trial {bad} produced a non-cover")
    trial = min(range(len(runs)), key=lambda i: len(runs[i][0]))
    return (trial, *runs[trial])


@pytest.mark.parametrize("trials", [1, 63, 64, 65, 129, 200])
def test_chunked_trials_match_the_all_at_once_loop(monkeypatch, trials):
    from turancover import rounding

    checked = []
    real = rounding._first_non_cover_row

    def spy(H, incidence):
        checked.append(len(incidence))
        return real(H, incidence)

    monkeypatch.setattr(rounding, "_first_non_cover_row", spy)
    # complete bases keep every pair in the residual support, so all trials run
    cases = [(blow_up(complete(n, t), 2), s) for s, (n, t) in enumerate([(5, 3), (6, 3), (7, 4)])]
    new = [t2_cover_blowup(B, seed=s, trials=trials, mode="float") for B, s in cases]
    assert max(checked) <= 64 and sum(checked) == 3 * trials  # every trial checked
    monkeypatch.setattr(rounding, "_best_trial", _best_trial_reference)
    assert new == [t2_cover_blowup(B, seed=s, trials=trials, mode="float") for B, s in cases]


def _outcome(call):
    """What ``call`` returns, or the message of the VerificationError it raises."""
    try:
        return call()
    except VerificationError as exc:
        return f"raised: {exc}"


# pair blow-ups of complete bases and of one base of each float_pairs
# shape; full blow-ups whose overridden gamma leaves residual edges, so
# that some trials fail: first at trial 86 (seed 12676, in the second
# block), 33 (seed 2) and 0
_T2_BASES = [complete(5, 3), complete(6, 3), complete(7, 4),
             random_hypergraph(26, 6, 0.02, 1), random_hypergraph(22, 7, 0.02, 2),
             random_hypergraph(20, 8, 0.03, 3)]
_AHTP_CASES = [(complete(7, 4), Fraction(1, 2), 12676), (complete(7, 4), Fraction(1, 2), 2),
               (complete(5, 4), Fraction(9, 10), 0)]


def test_ahtp_cases_fail_first_where_their_comment_says():
    assert [_outcome(lambda: ahtp_cover_blowup(
                blow_up(G, G.t - 1), RoundingParams(t=G.t, seed=s, trials=200, gamma=gamma)))
            for G, gamma, s in _AHTP_CASES] == [
        f"raised: rounding trial {i} produced a non-cover" for i in (86, 33, 0)]


@pytest.mark.parametrize("trials", [1, 63, 64, 65, 129, 200])
def test_array_trials_match_the_per_trial_reference(monkeypatch, trials):
    supports = []
    real = rounding._best_trial

    def spy(B, forced, support, *args):
        supports.append(len(support))
        return real(B, forced, support, *args)

    def run_all():
        t2 = [_outcome(lambda: t2_cover_blowup(blow_up(G, 2), seed=s, trials=trials,
                                               mode="float"))
              for s, G in enumerate(_T2_BASES)]
        ahtp = [_outcome(lambda: ahtp_cover_blowup(
                    blow_up(G, G.t - 1),
                    RoundingParams(t=G.t, seed=s, trials=trials, gamma=gamma)))
                for G, gamma, s in _AHTP_CASES]
        return t2, ahtp

    monkeypatch.setattr(rounding, "_best_trial", spy)
    new = run_all()
    assert all(supports)  # every case finishes a non-empty support
    monkeypatch.setattr(rounding, "_best_trial", _best_trial_reference)
    assert new == run_all()


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

    failing = {70, 100}
    block = []
    real_colorings, real_classes = rounding._colorings, rounding._pair_classes

    def colorings(n, seed, trials):
        block[:] = trials
        return real_colorings(n, seed, trials)

    def pair_classes(colorings, labels):
        lopsided, chosen = real_classes(colorings, labels)
        chosen[[trial in failing for trial in block]] = False
        return lopsided, chosen

    monkeypatch.setattr(rounding, "_colorings", colorings)
    monkeypatch.setattr(rounding, "_pair_classes", pair_classes)
    B = blow_up(complete(5, 3), 2)
    assert t2_cover_blowup(B, seed=3, trials=70, mode="exact").size > 0
    with pytest.raises(VerificationError, match=r"^pair trial 70 produced a non-cover$"):
        t2_cover_blowup(B, seed=3, trials=150, mode="exact")


@pytest.mark.parametrize("trials", [0, -3, 2.5, "3", None, True])
def test_every_rounder_takes_one_trials_rule(trials):
    # a pair blow-up of complete(4, 3) leaves an empty residual support,
    # one of complete(5, 3) keeps every pair; k = t - 1 makes the second
    # a full blow-up for ahtp too
    message = f"^trials must be an integer of at least 1, got {re.escape(repr(trials))}$"
    for B in (blow_up(complete(4, 3), 2), blow_up(complete(5, 3), 2)):
        with pytest.raises(ParameterError, match=message):
            t2_cover_blowup(B, seed=1, trials=trials)
        with pytest.raises(ParameterError, match=message):
            ahtp_cover_blowup(B, RoundingParams(t=3, seed=1, trials=trials))
    with pytest.raises(ParameterError, match=message):
        RoundingParams(t=4, trials=trials)


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
    with pytest.raises(ResourceLimitError, match="^trials = 41 exceeds limit 40$"):
        t2_cover_blowup(B2, seed=1, trials=41, mode="float")
    with pytest.raises(ResourceLimitError, match="^trials = 41 exceeds limit 40$"):
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
