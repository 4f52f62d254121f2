"""Greedy set cover, its trace, duality with hypergraph covers, and brute OPT."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from turancover.errors import ParameterError, ResourceLimitError, VerificationError
from turancover.generators import greedy_hard_setsystem
from turancover.hypergraph import Hypergraph, dual
from turancover.oracles import brute_tau
from turancover.setcover import (
    GreedyTrace,
    SetSystem,
    brute_set_cover,
    dual_system,
    greedy_ratio_check,
    greedy_set_cover,
    is_simple_system,
)


def test_sets_are_normalized():
    sys_ = SetSystem(5, ((3, 1), (0,)))
    assert sys_.sets == ((1, 3), (0,))
    assert sys_.m == 2


def test_invalid_sets_rejected():
    with pytest.raises(ParameterError):
        SetSystem(3, ((0, 0),))
    with pytest.raises(ParameterError):
        SetSystem(3, ((0, 5),))


def test_greedy_trace_on_hand_instance():
    sys_ = SetSystem(5, ((0, 1, 2), (2, 3), (3, 4), (0, 4)))
    trace = greedy_set_cover(sys_)
    assert trace.picked == (0, 2)
    assert trace.newly_covered == (3, 2)
    assert trace.uncovered_after == (2, 0)


def test_greedy_tie_breaks_to_lowest_id():
    sys_ = SetSystem(4, ((2, 3), (0, 1)))
    trace = greedy_set_cover(sys_)
    assert trace.picked == (0, 1)


def test_greedy_uncoverable_universe():
    with pytest.raises(ParameterError, match="element 2"):
        greedy_set_cover(SetSystem(3, ((0, 1),)))


def test_brute_cover_small_anchors():
    sys_ = SetSystem(5, ((0, 1, 2), (2, 3), (3, 4), (0, 4)))
    assert brute_set_cover(sys_) == 2
    assert brute_set_cover(SetSystem(0, ())) == 0


def test_brute_cover_beats_greedy_sometimes():
    # classic greedy trap: the big set draws greedy away from the 2-cover
    sys_ = SetSystem(6, ((0, 1, 2, 3), (0, 1, 4), (2, 3, 5)))
    greedy = len(greedy_set_cover(sys_).picked)
    opt = brute_set_cover(sys_)
    assert opt == 2
    assert greedy == 3


def test_brute_cover_set_limit():
    sets = tuple((i,) for i in range(31))
    with pytest.raises(ResourceLimitError):
        brute_set_cover(SetSystem(31, sets))


def test_simplicity_check():
    assert is_simple_system(SetSystem(5, ((0, 1), (1, 2), (2, 3))))
    assert not is_simple_system(SetSystem(5, ((0, 1, 2), (1, 2))))


def test_ratio_check_requires_simple_system():
    sys_ = SetSystem(5, ((0, 1, 2), (1, 2, 3), (3, 4)))
    with pytest.raises(ParameterError, match="simple"):
        greedy_ratio_check(sys_, 2)


def test_ratio_check_passes_on_easy_instance():
    sys_ = SetSystem(6, ((0, 1), (2, 3), (4, 5)))
    assert greedy_ratio_check(sys_, 3) == 1


def test_ratio_check_rejects_wrong_opt():
    sys_ = SetSystem(6, ((0, 1), (2, 3), (4, 5)))
    with pytest.raises(ParameterError):
        greedy_ratio_check(sys_, 0)


def test_dual_system_roundtrip_shape():
    sys_ = SetSystem(4, ((0, 1), (1, 2), (2, 3)))
    d = dual_system(sys_)
    assert d.n == 3
    assert d.m == 4
    dd = dual_system(d)
    assert dd.sets == sys_.sets


def test_hypergraph_dual_cover_equivalence():
    # tau of the hypergraph equals the set-cover optimum of its dual
    G = Hypergraph(3, 6, [(0, 1, 2), (1, 3, 4), (2, 4, 5)])
    assert brute_set_cover(dual(G)) == brute_tau(G)


def test_hard_system_blows_up_greedy_at_small_k():
    sys_ = greedy_hard_setsystem(2)
    assert sys_.sets == ((1, 3), (0, 1), (2, 3))
    trace = greedy_set_cover(sys_)
    assert len(trace.picked) == 3  # all three sets, twice the 2-block optimum
    assert brute_set_cover(sys_) == 2


def _is_simple_system_reference(system):
    """The pairwise-intersection check that ``is_simple_system`` replaced."""
    sets = [set(s) for s in system.sets]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if len(sets[i] & sets[j]) > 1:
                return False
    return True


def _greedy_reference(system):
    """The rescan-every-set greedy that ``greedy_set_cover`` replaced."""
    uncovered = set(range(system.n))
    member_sets = [set(s) for s in system.sets]
    picked, newly, after = [], [], []
    while uncovered:
        best_id = None
        best_gain = 0
        for sid, s in enumerate(member_sets):
            gain = len(s & uncovered)
            if gain > best_gain:
                best_gain, best_id = gain, sid
        if best_id is None:
            raise ParameterError(
                f"universe not coverable: element {min(uncovered)} lies in no set"
            )
        uncovered -= member_sets[best_id]
        picked.append(best_id)
        newly.append(best_gain)
        after.append(len(uncovered))
    return GreedyTrace(tuple(picked), tuple(newly), tuple(after))


def _outcome(fn, system):
    try:
        return fn(system)
    except ParameterError as exc:
        return type(exc), str(exc)


@st.composite
def _set_systems(draw):
    """Small systems with empty, singleton and repeated sets, many gain ties,
    and universes that the family may leave partly uncovered."""
    n = draw(st.integers(0, 12))
    if n == 0:
        return SetSystem(0, tuple(() for _ in range(draw(st.integers(0, 3)))))
    size = draw(st.integers(0, n))
    sets = draw(st.lists(st.sets(st.integers(0, n - 1), max_size=size), max_size=14))
    for _ in range(draw(st.integers(0, 3))):
        if sets:
            sets.insert(draw(st.integers(0, len(sets))),
                        sets[draw(st.integers(0, len(sets) - 1))])
    return SetSystem(n, tuple(tuple(s) for s in sets))


@settings(max_examples=400, deadline=None)
@given(_set_systems())
def test_linear_time_set_routines_match_the_quadratic_reference(system):
    assert is_simple_system(system) == _is_simple_system_reference(system)
    assert _outcome(greedy_set_cover, system) == _outcome(_greedy_reference, system)


@pytest.mark.parametrize("system", [
    SetSystem(3, ()),                        # no sets at all
    SetSystem(4, ((), (1,), (), (3,))),      # empty sets, two elements uncoverable
    SetSystem(4, ((0, 1), (0, 1), (2, 3))),  # a repeated set
    SetSystem(2, ((0,), (0,), (1,))),        # repeated singletons stay simple
    greedy_hard_setsystem(7),
])
def test_set_routine_corner_cases_match_the_reference(system):
    assert is_simple_system(system) == _is_simple_system_reference(system)
    assert _outcome(greedy_set_cover, system) == _outcome(_greedy_reference, system)


def test_a_large_set_stores_only_pairs_it_could_share():
    # all C(600, 2) pairs of the big set would take tens of megabytes
    big = tuple(range(600))
    simple = SetSystem(600, (big, (0,), (7,), (599,)))
    not_simple = SetSystem(600, (big, (3, 5)))
    tracemalloc.start()
    try:
        assert is_simple_system(simple)
        assert not is_simple_system(not_simple)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_greedy_universe_guard_admits_exactly_the_limit(monkeypatch):
    monkeypatch.setenv("TURANCOVER_SIZE_GUARD", "10")
    assert greedy_set_cover(SetSystem(10, (tuple(range(10)),))).picked == (0,)
    with pytest.raises(ResourceLimitError, match="universe of 11 elements exceeds limit 10"):
        greedy_set_cover(SetSystem(11, (tuple(range(11)),)))
