"""Instance generators: completeness, determinism, and advertised guarantees."""

import math
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from turancover import generators
from turancover.errors import ParameterError, ResourceLimitError
from turancover.generators import (
    combinatorial_lines,
    complete,
    f_free_random,
    greedy_hard_setsystem,
    random_hypergraph,
    simplify_reduction,
    three_tent,
)
from turancover.guards import comb_exceeds
from turancover.hypergraph import Hypergraph, blow_up, is_simple
from turancover.oracles import (
    brute_tau,
    contains_subhypergraph,
    find_tents,
    max_independent_set,
)
from turancover.setcover import SetSystem, greedy_set_cover, is_simple_system


def test_complete_counts():
    assert complete(4, 3).m == 4
    assert complete(5, 3).m == 10
    assert complete(5, 4).m == 5
    assert complete(3, 3).m == 1


def test_complete_is_lexicographic():
    G = complete(4, 3)
    assert G.edges[0] == (0, 1, 2)
    assert G.edges[-1] == (1, 2, 3)


def test_random_hypergraph_deterministic():
    a = random_hypergraph(10, 3, 0.3, seed=6)
    b = random_hypergraph(10, 3, 0.3, seed=6)
    assert a == b
    assert a != random_hypergraph(10, 3, 0.3, seed=7)


def test_random_hypergraph_extreme_probabilities():
    assert random_hypergraph(6, 3, 1.0, seed=0) == complete(6, 3)
    assert random_hypergraph(6, 3, 0.0, seed=0).m == 0


def test_random_hypergraph_rejects_bad_probability():
    with pytest.raises(ParameterError):
        random_hypergraph(6, 3, 1.5, seed=0)


@pytest.mark.parametrize("make, message", [
    (lambda: complete(3, 1), "uniformity must be at least 2, got 1"),
    (lambda: f_free_random(8, 3, [], seed=0), "need at least one pattern to exclude"),
    (lambda: combinatorial_lines(0), "cube dimension must be positive, got 0"),
    (lambda: greedy_hard_setsystem(1), "block count must be at least 2, got 1"),
], ids=["complete", "ffree", "lines", "hard-setcover"])
def test_generator_parameter_errors(make, message):
    with pytest.raises(ParameterError) as info:
        make()
    assert str(info.value) == message


def test_f_free_random_refuses_a_pattern_of_another_uniformity(monkeypatch):
    # p and the purge would both come from a 3-uniform pattern that no
    # 4-uniform instance contains; nothing is sampled
    monkeypatch.setattr(generators, "random_hypergraph", None)
    with pytest.raises(ParameterError) as info:
        f_free_random(9, 4, [three_tent()], p=0.3, seed=1)
    assert str(info.value) == "an excluded pattern is 3-uniform, expected 4"


def test_three_tent_shape():
    tent = three_tent()
    assert tent.t == 3 and tent.n == 7 and tent.m == 4
    assert find_tents(tent) == [(0, 1, 2, 3)]


def test_f_free_removes_every_tent_copy():
    family = [three_tent()]
    for seed in range(6):
        G = f_free_random(12, 3, family, seed=seed)
        assert contains_subhypergraph(G, three_tent()) is None


def test_f_free_explicit_probability_bypasses_density():
    # a single-edge pattern has no density value, but an explicit p works
    family = [Hypergraph(3, 3, [(0, 1, 2)])]
    G = f_free_random(8, 3, family, p=0.5, seed=3)
    assert G.m == 0  # every edge contains the pattern, so everything dies


def test_f_free_needs_three_uniform_default_probability():
    # the default p comes from the family's density, so the family sets it
    family = [three_tent()]
    G = f_free_random(12, 3, family, seed=1)
    out_density = G.m / comb(12, 3)
    assert 0 <= out_density < 0.2


def test_lines_counts_by_dimension():
    assert combinatorial_lines(1).m == 1
    assert combinatorial_lines(2).m == 7
    assert combinatorial_lines(3).m == 37
    assert combinatorial_lines(2).n == 9
    assert combinatorial_lines(3).n == 27


def test_lines_are_tent_free():
    assert find_tents(combinatorial_lines(2)) == []


def test_lines_small_cover_and_independence():
    L = combinatorial_lines(2)
    assert brute_tau(L) == 3
    assert max_independent_set(L) == 6


def test_lines_guard():
    with pytest.raises(ResourceLimitError):
        combinatorial_lines(8)
    # explicit limit unlocks moderately larger boards
    assert combinatorial_lines(3, limit=10**7).m == 37


def test_hard_setsystem_small_instance():
    sys_ = greedy_hard_setsystem(2)
    assert sys_.n == 4
    assert sys_.sets == ((1, 3), (0, 1), (2, 3))


def test_hard_setsystem_structure():
    k = 6
    sys_ = greedy_hard_setsystem(k)
    assert sys_.n == k * k
    assert is_simple_system(sys_)
    blocks = sys_.sets[-k:]
    covered = set()
    for b in blocks:
        assert len(b) == k
        covered.update(b)
    assert covered == set(range(k * k))
    # greedy must burn through well over k sets
    assert len(greedy_set_cover(sys_).picked) > k


def _hard_setsystem_reference(k):
    """The re-sort-every-round construction that the bucket order replaced."""
    blocks = [list(range(j * k, (j + 1) * k)) for j in range(k)]
    decoys = []
    for _ in range(math.ceil((k - 1) * math.log(k))):
        order = sorted(range(k), key=lambda j: (-len(blocks[j]), j))
        p = len(blocks[order[0]])
        decoys.append(tuple(sorted(blocks[j].pop() for j in order[:p])))
    return SetSystem(k * k, decoys + [tuple(range(j * k, (j + 1) * k)) for j in range(k)])


def test_hard_setsystem_matches_the_resorting_reference():
    for k in range(2, 81):
        assert greedy_hard_setsystem(k) == _hard_setsystem_reference(k), k


def test_simplify_reduction_output_is_simple():
    G = complete(5, 3)
    for seed in range(5):
        H = simplify_reduction(G, B=4, P=3, seed=seed)
        assert is_simple(H)
        assert H.t == G.t
        assert H.n == G.n * 4


def test_simplify_reduction_frozen_shape():
    H = simplify_reduction(complete(5, 3), B=5, P=3, seed=9)
    assert (H.n, H.m) == (25, 21)


def test_simplify_reduction_deterministic():
    G = complete(5, 3)
    assert simplify_reduction(G, 4, 2, seed=5) == simplify_reduction(G, 4, 2, seed=5)


def test_simplify_parameter_checks():
    with pytest.raises(ParameterError):
        simplify_reduction(complete(4, 3), B=0, P=2, seed=0)
    with pytest.raises(ParameterError):
        simplify_reduction(complete(4, 3), B=3, P=0, seed=0)


def _simplify_reference(G, B, P, seed):
    """The compare-with-every-kept-edge scan that ``simplify_reduction`` replaced."""
    rng = random.Random(seed)
    candidates = []
    for edge in G.edges:
        for _ in range(P):
            candidates.append(tuple(v * B + rng.randrange(B) for v in edge))
    kept = []
    edges = []
    for cand in candidates:
        cset = frozenset(cand)
        if all(len(cset & old) <= 1 for old in kept):
            kept.append(cset)
            edges.append(cand)
    return Hypergraph(G.t, G.n * B, edges)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4), st.integers(0, 3), st.floats(0.05, 0.9), st.integers(1, 5),
       st.integers(1, 4), st.integers(0, 2**64 - 1))
def test_simplify_reduction_matches_the_quadratic_reference(t, extra, p, B, P, seed):
    # B = 1 makes every copy of an edge an exact duplicate; t = 2 graphs are
    # simple from the start, so only duplicates are dropped there
    G = random_hypergraph(t + 2 + extra, t, p, seed % 1000)
    H = simplify_reduction(G, B, P, seed)
    assert H == _simplify_reference(G, B, P, seed)
    assert is_simple(H)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 80), st.data(), st.integers(0, 10**7))
def test_comb_exceeds_matches_math_comb(n, data, cap):
    k = data.draw(st.integers(0, n))
    assert comb_exceeds(n, k, cap) == (comb(n, k) > cap)
    assert comb_exceeds(n, k, comb(n, k)) is False
    assert comb_exceeds(n, k, comb(n, k) - 1) is True


def test_enumeration_guards_admit_exactly_the_limit(monkeypatch):
    monkeypatch.setenv("TURANCOVER_SIZE_GUARD", "10")
    assert complete(5, 3).m == 10
    assert random_hypergraph(5, 2, 0.0, seed=0).m == 0
    assert greedy_hard_setsystem(3).n == 9
    # 10 candidates of one pair each: 10 pairs in the simplicity table
    assert simplify_reduction(complete(5, 2), 2, 1, seed=0).n == 10
    assert blow_up(Hypergraph(5, 5, [(0, 1, 2, 3, 4)]), 2).hyper.t == 10  # 1*C(5,2)
    assert blow_up(Hypergraph(10, 0, []), 1).hyper.m == 0  # edgeless counts as one edge
    assert is_simple(Hypergraph(2, 5, combinations(range(5), 2)))  # 10 pairs
    # every element of the 5-set lies in a second set: all C(5,2) pairs are stored
    assert is_simple_system(SetSystem(5, (tuple(range(5)), *((x,) for x in range(5)))))
    shape = "^{} exceeds limit 10$"
    with pytest.raises(ResourceLimitError, match=shape.format(r"candidate edges = C\(6,3\)")):
        complete(6, 3)
    with pytest.raises(ResourceLimitError, match=shape.format(r"candidate edges = C\(6,3\)")):
        random_hypergraph(6, 3, 0.0, seed=0)
    with pytest.raises(ResourceLimitError, match=shape.format(r"universe k\*k = 16")):
        greedy_hard_setsystem(4)
    with pytest.raises(ResourceLimitError,
                       match=shape.format(r"blow-up entries = 6\*C\(5,2\)")):
        blow_up(complete(6, 5), 2)
    with pytest.raises(ResourceLimitError, match=shape.format(r"blow-up entries = C\(11,1\)")):
        blow_up(Hypergraph(11, 0, []), 1)
    with pytest.raises(ResourceLimitError, match=shape.format(r"candidate edges m\*P = 20")):
        simplify_reduction(complete(5, 2), 2, 2, seed=0)
    # 10 candidates of three pairs each: the kept edges' pairs pass the limit
    with pytest.raises(ResourceLimitError, match=shape.format("simplicity pairs = 12")):
        simplify_reduction(complete(5, 3), 2, 1, seed=0)
    with pytest.raises(ResourceLimitError, match=shape.format("simplicity pairs = 11")):
        is_simple(Hypergraph(2, 6, combinations(range(6), 2)))
    with pytest.raises(ResourceLimitError, match=shape.format("simplicity pairs = 15")):
        is_simple_system(SetSystem(6, (tuple(range(6)), *((x,) for x in range(6)))))
    # parameter errors still come first
    with pytest.raises(ParameterError):
        complete(3, 4)
    with pytest.raises(ParameterError):
        random_hypergraph(60, 8, 2.0, seed=0)


def test_default_guards_admit_the_largest_pipeline_instances(monkeypatch):
    monkeypatch.delenv("TURANCOVER_SIZE_GUARD", raising=False)
    assert random_hypergraph(24, 6, 0.03, seed=1).m > 0  # 134,596 candidates
    assert greedy_hard_setsystem(60).n == 3600
    with pytest.raises(ResourceLimitError):
        random_hypergraph(60, 8, 0.0, seed=0)
    with pytest.raises(ResourceLimitError):
        greedy_hard_setsystem(1001)
