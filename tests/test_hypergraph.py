"""Structural tests for hypergraphs, blow-ups, and feasibility checks."""

import re

import pytest
from hypothesis import given, settings, strategies as st
from itertools import combinations
from math import comb

from turancover.errors import ParameterError
from turancover.formats import _array_instance, serialize_instance
from turancover.generators import complete, random_hypergraph, simplify_reduction
from turancover.hypergraph import (
    BlowUp,
    Hypergraph,
    blow_up,
    dual,
    first_non_cover,
    is_matching,
    is_simple,
    is_vertex_cover,
)
from turancover.rounding import recursive_threshold


def test_edges_are_canonicalized():
    H = Hypergraph(3, 5, [(4, 2, 0), (1, 0, 2)])
    assert H.edges == ((0, 1, 2), (0, 2, 4))
    assert H.m == 2


def test_duplicate_edges_rejected():
    with pytest.raises(ParameterError, match="duplicate"):
        Hypergraph(3, 4, [(0, 1, 2), (2, 1, 0)])


def test_malformed_edges_rejected():
    with pytest.raises(ParameterError):
        Hypergraph(3, 4, [(0, 1, 1)])
    with pytest.raises(ParameterError):
        Hypergraph(3, 4, [(0, 1)])
    with pytest.raises(ParameterError):
        Hypergraph(3, 4, [(0, 1, 4)])
    with pytest.raises(ParameterError):
        Hypergraph(1, 4, [])


def test_vertex_count_below_uniformity_rejected():
    with pytest.raises(ParameterError, match="below uniformity"):
        Hypergraph(3, 2, [])
    # edgeless n=0 is the one allowed degenerate shape
    assert Hypergraph(3, 0, []).m == 0


def test_isolated_vertices_allowed():
    H = Hypergraph(2, 10, [(0, 1)])
    assert H.n == 10


def test_blow_up_of_triangle_edge():
    H = Hypergraph(3, 3, [(0, 1, 2)])
    B = blow_up(H, 2)
    assert B.labels == ((0, 1), (0, 2), (1, 2))
    assert B.hyper.edges == ((0, 1, 2),)
    assert B.base_t == 3 and B.base_n == 3 and B.k == 2


def test_blow_up_uniformity_and_vertex_count():
    G = complete(5, 3)
    B = blow_up(G, 2)
    assert B.hyper.t == comb(3, 2)
    # every pair lies in some triple of the complete hypergraph
    assert B.hyper.n == comb(5, 2)
    assert B.hyper.m == G.m


def test_blow_up_skips_subsets_outside_edges():
    G = Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])
    B = blow_up(G, 2)
    assert B.hyper.n == 6
    assert (0, 3) not in B.labels


def test_blow_up_k_range_checked():
    G = complete(4, 3)
    with pytest.raises(ParameterError):
        blow_up(G, 0)
    with pytest.raises(ParameterError):
        blow_up(G, 3)


def test_blowup_label_validation():
    H = Hypergraph(3, 3, [(0, 1, 2)])
    with pytest.raises(ParameterError, match="one label per"):
        BlowUp(H, ((0, 1),), 3, 3, 2)
    with pytest.raises(ParameterError, match="sorted"):
        BlowUp(H, ((0, 2), (0, 1), (1, 2)), 3, 3, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(5, 9))
def test_top_blow_up_is_simple(seed, n):
    G = random_hypergraph(n, 3, 0.5, seed)
    B = blow_up(G, 2)
    assert is_simple(B.hyper)


def test_is_simple_counterexample():
    assert not is_simple(Hypergraph(3, 5, [(0, 1, 2), (0, 1, 3)]))


def _is_simple_reference(H):
    """The pairwise-intersection check that ``is_simple`` replaced."""
    sets = [set(e) for e in H.edges]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if len(sets[i] & sets[j]) > 1:
                return False
    return True


@st.composite
def _small_hypergraphs(draw):
    t = draw(st.integers(2, 5))
    n = draw(st.integers(t, 12))
    edges = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=t, max_size=t),
                          max_size=12, unique_by=lambda e: tuple(sorted(e))))
    return Hypergraph(t, n, [tuple(e) for e in edges])


@settings(max_examples=300, deadline=None)
@given(_small_hypergraphs())
def test_is_simple_matches_the_quadratic_reference(H):
    B = blow_up(H, H.t - 1).hyper
    assert is_simple(H) == _is_simple_reference(H)
    assert is_simple(B) == _is_simple_reference(B)


def test_vertex_cover_check():
    G = complete(4, 3)
    assert is_vertex_cover(G, {0, 1})
    assert not is_vertex_cover(G, {0})
    assert is_vertex_cover(G, range(4))


def test_edge_array_is_cached_and_read_only():
    G = Hypergraph(3, 5, [(4, 2, 0), (1, 0, 2)])
    E = G.edge_array
    assert E is G.edge_array
    assert E.shape == (2, 3) and E.tolist() == [[0, 1, 2], [0, 2, 4]]
    with pytest.raises(ValueError):
        E[0, 0] = 3
    assert Hypergraph(3, 0, []).edge_array.shape == (0, 3)


def _first_non_cover_reference(H, covers):
    return next((i for i, c in enumerate(covers) if not is_vertex_cover(H, c)), None)


@st.composite
def _hypergraph_and_covers(draw):
    t = draw(st.integers(2, 4))
    n = draw(st.integers(t - 1, 8).map(lambda n: n if n >= t else 0))
    candidates = list(combinations(range(n), t))
    edges = draw(st.lists(st.sampled_from(candidates), unique=True)) if n else []
    H = Hypergraph(t, n, edges)
    # everything but at most t-1 vertices always covers; a few arbitrary
    # sets at drawn positions put the first failure anywhere in 0..149,
    # across the 64- and 128-cover word boundaries
    k = draw(st.integers(0, 150))
    ids = st.integers(0, max(n - 1, 0))
    covers = [[v for v in range(n) if v not in draw(st.sets(ids, max_size=t - 1))]
              for _ in range(k)]
    if k:
        for i in draw(st.lists(st.integers(0, 149).map(lambda i: i % k), max_size=2)):
            covers[i] = sorted(draw(st.sets(ids, max_size=n)))
    return H, covers


@settings(max_examples=150, deadline=None)
@given(_hypergraph_and_covers())
def test_first_non_cover_matches_per_cover_check(case):
    H, covers = case
    assert first_non_cover(H, covers) == _first_non_cover_reference(H, covers)


@pytest.mark.parametrize("bad", [None, 0, 62, 63, 64, 127, 128, 149])
def test_first_non_cover_across_word_boundaries(bad):
    G = complete(5, 3)
    covers = [range(5)] * 150
    if bad is not None:
        covers[bad] = [0, 1]
        covers[-1] = []
    assert first_non_cover(G, covers) == bad
    assert first_non_cover(Hypergraph(3, 5, []), covers) is None
    assert first_non_cover(Hypergraph(3, 0, []), [[]] * 70) is None


def test_first_non_cover_rejects_bad_ids():
    G = complete(4, 3)
    for bad in (-1, 4):
        with pytest.raises(ParameterError, match="out of range"):
            first_non_cover(G, [range(4), [0, bad]])
    with pytest.raises(ParameterError, match="out of range"):
        first_non_cover(Hypergraph(3, 0, []), [[0]])


def test_ids_are_accepted_by_operator_index():
    import numpy as np

    G = complete(4, 3)
    assert is_vertex_cover(G, np.array([0, 1]))
    assert not is_vertex_cover(G, [np.int64(0)])
    assert first_non_cover(G, [np.arange(4), np.array([0, 1], dtype=np.int32)]) is None
    assert first_non_cover(G, [[True, 2, 3], [0]]) == 1  # True is vertex 1
    H = Hypergraph(3, 7, [(0, 1, 2), (3, 4, 5), (2, 3, 6)])
    assert is_matching(H, np.array([0, 2]))
    assert not is_matching(H, [np.uint8(1), 2])
    with pytest.raises(ParameterError, match="^vertex id 4 out of range$"):
        is_vertex_cover(G, np.array([0, 4]))
    with pytest.raises(ParameterError, match="^edge id 3 out of range$"):
        is_matching(H, np.array([3]))


@pytest.mark.parametrize("bad", [1.0, 0.5, float("nan"), "1", None])
def test_ids_that_are_not_integers_are_named_so(bad):
    G = complete(4, 3)
    message = f"^{{}} id {re.escape(repr(bad))} is not an integer$"
    with pytest.raises(ParameterError, match=message.format("vertex")):
        is_vertex_cover(G, [0, bad])
    with pytest.raises(ParameterError, match=message.format("vertex")):
        first_non_cover(G, [range(4), [bad]])
    with pytest.raises(ParameterError, match=message.format("edge")):
        is_matching(G, [bad])


def test_matching_ids_are_all_checked_before_any_edge_is_compared():
    H = Hypergraph(3, 7, [(0, 1, 2), (3, 4, 5), (2, 3, 6)])
    # edges 1 and 2 meet, but id 5 names no edge
    with pytest.raises(ParameterError, match="^edge id 5 out of range$"):
        is_matching(H, [1, 2, 5])


def test_matching_check():
    # canonical edge order: (0,1,2), (2,3,6), (3,4,5)
    G = Hypergraph(3, 7, [(0, 1, 2), (3, 4, 5), (2, 3, 6)])
    assert is_matching(G, [0, 2])
    assert not is_matching(G, [1, 2])
    with pytest.raises(ParameterError):
        is_matching(G, [0, 0])
    with pytest.raises(ParameterError):
        is_matching(G, [5])


def test_dual_swaps_cover_and_matching_roles():
    G = Hypergraph(3, 5, [(0, 1, 2), (0, 3, 4), (1, 3, 4)])
    D = dual(G)
    assert D.n == G.m
    assert D.m == 5  # one dual set per vertex that appears in an edge


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_cover_complement_meets_no_edge(seed):
    """The complement of a minimal-looking cover never swallows an edge."""
    G = random_hypergraph(8, 3, 0.4, seed)
    cover = set()
    for e in G.edges:
        if not cover & set(e):
            cover.add(e[0])
    assert is_vertex_cover(G, cover)
    outside = set(range(G.n)) - cover
    assert all(not set(e) <= outside for e in G.edges)


def _assert_validated_equal(instance):
    """The validating constructors accept ``instance`` and return it unchanged,
    so a trusted constructor built it in canonical form; a cached edge array
    matches the edges."""
    H = instance.hyper if isinstance(instance, BlowUp) else instance
    assert Hypergraph(H.t, H.n, H.edges) == H
    assert type(H.edges) is tuple and all(type(e) is tuple for e in H.edges)
    if isinstance(instance, BlowUp):
        B = instance
        assert BlowUp(B.hyper, B.labels, B.base_t, B.base_n, B.k) == B
        assert type(B.labels) is tuple and all(type(lab) is tuple for lab in B.labels)
    if "edge_array" in vars(H):
        E = H.edge_array
        assert not E.flags.writeable and E.shape == (H.m, H.t)
        assert E.tolist() == [list(e) for e in H.edges]


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 5), st.integers(0, 4), st.floats(0, 1), st.integers(0, 999),
       st.data())
def test_trusted_constructor_call_sites_match_the_validating_ones(t, extra, p, seed, data):
    n = t + extra
    G = random_hypergraph(n, t, p, seed)
    _assert_validated_equal(G)
    _assert_validated_equal(complete(n, t))
    k = data.draw(st.integers(1, t - 1))
    B = blow_up(G, k)
    _assert_validated_equal(B)
    if B.hyper.n:  # an edgeless blow-up serializes to an empty LABELS block
        _assert_validated_equal(_array_instance(serialize_instance(B))[0])
    _assert_validated_equal(simplify_reduction(G, data.draw(st.integers(1, 3)),
                                               data.draw(st.integers(1, 3)), seed))
    gamma = data.draw(st.sampled_from([0.2, 0.34, 0.5, 0.6]))
    for mode in ("float", "exact"):
        _assert_validated_equal(recursive_threshold(B, gamma, mode=mode).residual)
