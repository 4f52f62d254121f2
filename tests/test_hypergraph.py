"""Structural tests for hypergraphs, blow-ups, and feasibility checks."""

import pickle
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from itertools import chain, combinations
from math import comb

from turancover import hypergraph
from turancover.errors import ParameterError
from turancover import formats
from turancover.formats import _array_instance, serialize_instance, serialize_setsystem
from turancover.generators import complete, random_hypergraph, simplify_reduction
from turancover.hypergraph import (
    BlowUp,
    Hypergraph,
    blow_up,
    dual,
    is_matching,
    is_simple,
    is_vertex_cover,
)
from turancover.rounding import recursive_threshold
from turancover.setcover import SetSystem


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


@st.composite
def _blow_up_cases(draw):
    """A base with k = 1, 2 or t - 1: small and dense, or with ids spread
    up to 2**31, where n**k may pass 2**62."""
    t = draw(st.integers(2, 6))
    if draw(st.booleans()):
        n = draw(st.integers(t, 10))
        edges = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=t, max_size=t),
                              max_size=40, unique_by=frozenset))
    else:
        n = draw(st.sampled_from([t, 2**20, 2**31 - 1, 2**31, 2**31 + 1]))
        spread = (0, 1, 2, 3, 4, 5, 6, n // 2, n - 2, n - 1)
        ids = st.sampled_from(sorted({v % n for v in spread}))
        edges = draw(st.lists(st.sets(ids, min_size=t, max_size=t), max_size=8,
                              unique_by=frozenset))
    k = draw(st.sampled_from(sorted({1, min(2, t - 1), t - 1})))
    return Hypergraph(t, n, [tuple(e) for e in edges]), k


def _blow_up_fields(B):
    H = B.hyper
    return B.labels, H.edges, H.n, H.t, B.base_n, B.base_t, B.k, H.edge_array.tolist()


def _assert_same_blow_up(B, reference):
    assert _blow_up_fields(B) == _blow_up_fields(reference)
    E = B.hyper.edge_array
    assert E.dtype == np.intp and not E.flags.writeable
    assert E.shape == reference.hyper.edge_array.shape == (B.hyper.m, B.hyper.t)


@settings(max_examples=300, deadline=None)
@given(_blow_up_cases())
def test_array_blow_up_equals_the_pure_path(case):
    base, k = case
    reference = hypergraph._tuple_blow_up(base, k)
    B = blow_up(base, k)  # numpy is loaded here
    # only the array path hands over edge_array; it runs where its table of
    # n**k flags is no longer than the m*C(t,k) codes
    assert ("edge_array" in B.hyper.__dict__) == (base.n ** k <= base.m * comb(base.t, k))
    _assert_same_blow_up(B, reference)
    if base.n ** k <= 2**20:
        _assert_same_blow_up(hypergraph._array_blow_up(base, k), reference)


@pytest.mark.parametrize("n, k, array", [(6, 1, True), (7, 1, False), (2**31, 2, False)])
def test_blow_up_takes_the_array_path_while_its_table_is_no_longer_than_the_codes(n, k, array):
    base = Hypergraph(3, n, [(0, 1, n - 1), (2, 3, n - 2)])  # 2 * C(3, k) = 6 codes
    B = blow_up(base, k)
    assert ("edge_array" in B.hyper.__dict__) == array
    _assert_same_blow_up(B, hypergraph._tuple_blow_up(base, k))


def test_edgeless_blow_ups_are_equal_on_both_paths():
    for base in (Hypergraph(4, 0, []), Hypergraph(4, 9, [])):
        B = blow_up(base, 2)
        assert _blow_up_fields(B) == ((), (), 0, 6, base.n, 4, 2, [])
        _assert_same_blow_up(hypergraph._array_blow_up(base, 2), B)


def _forms(instance):
    H = instance.hyper if isinstance(instance, BlowUp) else instance
    return {"edges", "edge_array"} & set(vars(H))


def _assert_one_instance(from_arrays, from_tuples):
    """Two builds of one instance, holding the array form and the tuple
    form alone, behave as one value whichever form each side holds."""
    assert _forms(from_arrays) == {"edge_array"} and _forms(from_tuples) == {"edges"}
    pair = (from_arrays, from_tuples)
    hypers = [x.hyper if isinstance(x, BlowUp) else x for x in pair]
    # compared, counted, written and checked from the arrays: no tuples are
    # built, unless n passes the m*t array entries
    assert from_arrays == from_tuples and from_tuples == from_arrays
    assert not from_arrays != from_tuples
    assert hypers[0].m == hypers[1].m
    assert serialize_instance(from_arrays) == serialize_instance(from_tuples)
    n = hypers[0].n
    for cover in ((), range(0, n, 2), range(1, n, 3), range(n)):
        assert is_vertex_cover(hypers[0], cover) == is_vertex_cover(hypers[1], cover)
    assert is_vertex_cover(hypers[0], ()) == (hypers[0].m == 0)
    if hypers[0].n <= hypers[0].m * hypers[0].t:
        assert _forms(from_arrays) == {"edge_array"}
    assert hash(from_arrays) == hash(from_tuples)
    assert repr(from_arrays) == repr(from_tuples)
    assert pickle.dumps(hypers[0]) == pickle.dumps(hypers[1])
    for x in pair:
        clone = pickle.loads(pickle.dumps(x))
        assert clone == x and hash(clone) == hash(x)
    with pytest.raises(FrozenInstanceError):
        hypers[0].n = 3
    with pytest.raises(FrozenInstanceError):
        del hypers[1].t


_FORM_BASES = (Hypergraph(4, 0, []), Hypergraph(4, 9, []), Hypergraph(3, 3, [(0, 1, 2)]),
               Hypergraph(4, 6, [(0, 1, 2, 3), (1, 2, 3, 5)]),
               random_hypergraph(9, 4, 0.5, seed=3), random_hypergraph(20, 8, 0.03, seed=1))


@pytest.mark.parametrize("base", _FORM_BASES, ids=lambda G: f"{G.t}-{G.n}-{G.m}")
def test_array_and_tuple_blow_ups_are_one_instance(base):
    for k in sorted({1, 2, base.t - 1}):
        if base.n ** k > 2**20:  # the array path's table of n**k flags
            continue
        _assert_one_instance(hypergraph._array_blow_up(base, k),
                             hypergraph._tuple_blow_up(base, k))


@pytest.mark.parametrize("base", _FORM_BASES, ids=lambda G: f"{G.t}-{G.n}-{G.m}")
def test_array_and_line_parsed_instances_are_one_instance(base):
    # an edgeless blow-up reads back as a Hypergraph, which the base cases cover
    for instance in (base, *(blow_up(base, k) for k in (1, 2) if base.m)):
        text = serialize_instance(instance)
        parsed, offset, _ = _array_instance(text)
        assert offset == len(text)
        _assert_one_instance(parsed, formats._parse_instance(formats._Cursor(text), False))


def test_unequal_instances_differ_in_either_form():
    G = random_hypergraph(9, 4, 0.5, seed=3)
    missing = next(e for e in combinations(range(G.n), G.t) if e not in G.edges)
    swapped = Hypergraph(G.t, G.n, (missing, *G.edges[1:]))  # one edge differs
    arrays = Hypergraph._from_canonical(G.t, G.n, array=np.array(G.edges, dtype=np.intp))
    for H in (swapped, Hypergraph(G.t, G.n, G.edges[1:])):
        for other in (H, Hypergraph._from_canonical(H.t, H.n, array=H.edge_array.copy())):
            assert arrays != other and other != arrays and G != other
    assert arrays != Hypergraph(G.t, G.n + 1, G.edges)
    assert _forms(arrays) == {"edge_array"}


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


def _first_failing_row(H, covers):
    """``_first_non_cover_row`` on the ``(len(covers), n)`` incidence matrix of ``covers``."""
    incidence = np.zeros((len(covers), H.n), dtype=bool)
    for i, cover in enumerate(covers):
        incidence[i, np.array(list(cover), dtype=np.intp)] = True
    return hypergraph._first_non_cover_row(H, incidence)


@st.composite
def _hypergraph_and_covers(draw):
    t = draw(st.integers(2, 4))
    n = draw(st.integers(t - 1, 8).map(lambda n: n if n >= t else 0))
    candidates = list(combinations(range(n), t))
    edges = draw(st.lists(st.sampled_from(candidates), unique=True)) if n else []
    H = Hypergraph(t, n, edges)
    # everything but at most t-1 vertices always covers; a few arbitrary
    # sets at drawn positions put the first failure anywhere in 0..149,
    # across the 64- and 128-cover word boundaries.  Each cover is drawn
    # as one integer: the t-1 base-n digits of the vertices it leaves out,
    # or the bitmask of an arbitrary set's vertices
    k = draw(st.integers(0, 150))
    left_out = draw(st.lists(st.integers(0, max(n ** (t - 1) - 1, 0)), min_size=k, max_size=k))
    covers = [[v for v in range(n) if v not in {r // n ** j % n for j in range(t - 1)}]
              for r in left_out]
    if k:
        for i in draw(st.lists(st.integers(0, 149).map(lambda i: i % k), max_size=2)):
            mask = draw(st.integers(0, 2 ** n - 1))
            covers[i] = [v for v in range(n) if mask >> v & 1]
    return H, covers


@settings(max_examples=150, deadline=None)
@given(_hypergraph_and_covers())
def test_first_non_cover_matches_per_cover_check(case):
    H, covers = case
    assert _first_failing_row(H, covers) == _first_non_cover_reference(H, covers)


@pytest.mark.parametrize("bad", [None, 0, 62, 63, 64, 127, 128, 149])
def test_first_non_cover_across_word_boundaries(bad):
    G = complete(5, 3)
    covers = [range(5)] * 150
    if bad is not None:
        covers[bad] = [0, 1]
        covers[-1] = []
    assert _first_failing_row(G, covers) == bad
    assert _first_failing_row(Hypergraph(3, 5, []), covers) is None
    assert _first_failing_row(Hypergraph(3, 0, []), [[]] * 70) is None


def test_first_non_cover_rejects_bad_ids():
    # a block of trials is checked as a boolean matrix, which holds no
    # ids; one cover's ids are checked by is_vertex_cover
    G = complete(4, 3)
    for bad in (-1, 4):
        with pytest.raises(ParameterError, match=f"^vertex id {bad} out of range$"):
            is_vertex_cover(G, [0, 1, bad])
    with pytest.raises(ParameterError, match="^vertex id 0 out of range$"):
        is_vertex_cover(Hypergraph(3, 0, []), [0])


def test_ids_are_accepted_by_operator_index():
    import numpy as np

    G = complete(4, 3)
    assert is_vertex_cover(G, np.array([0, 1]))
    assert not is_vertex_cover(G, [np.int64(0)])
    assert is_vertex_cover(G, np.array([0, 1], dtype=np.int32))
    assert is_vertex_cover(G, [True, 2, 3])  # True is vertex 1
    assert not is_vertex_cover(G, [True])
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
    with pytest.raises(ParameterError, match=message.format("edge")):
        is_matching(G, [bad])


@pytest.mark.parametrize("bad", [0.5, 3.0, "1", None])
def test_instance_fields_that_are_not_integers_are_named_so(bad):
    # Hypergraph(3, 5, [(0.5, 1, 2)]) was built: its edge_array read 0.5
    # as 0, and blow_up gave it a label holding 0.5
    B = blow_up(complete(4, 3), 2)
    cases = [
        (lambda: Hypergraph(3, 5, [(bad, 1, 2), (1, 2, 3)]), "vertex id"),
        (lambda: Hypergraph(bad, 5, []), "uniformity"),
        (lambda: Hypergraph(3, bad, []), "vertex count"),
        (lambda: BlowUp(B.hyper, ((bad, 1), *B.labels[1:]), 3, 4, 2), "base id"),
        (lambda: BlowUp(B.hyper, B.labels, bad, 4, 2), "base uniformity"),
        (lambda: BlowUp(B.hyper, B.labels, 3, bad, 2), "base vertex count"),
        (lambda: BlowUp(B.hyper, B.labels, 3, 4, bad), "subset size"),
        # SetSystem(3, [(0.5, 1), (2,)]) was built, and greedy_set_cover raised TypeError
        (lambda: SetSystem(3, [(bad, 1), (2,)]), "element"),
        (lambda: SetSystem(bad, []), "universe size"),
    ]
    named = re.escape(repr(bad))
    for build, what in cases:
        with pytest.raises(ParameterError, match=f"^{what} {named} is not an integer$"):
            build()


def test_instance_fields_are_stored_as_ints():
    H = Hypergraph(np.int64(3), np.int32(5), [(np.int8(4), True, 2), [0, 1, 2]])
    assert H.edges == ((0, 1, 2), (1, 2, 4))
    assert {type(v) for v in (H.t, H.n, *chain.from_iterable(H.edges))} == {int}
    B = blow_up(complete(4, 3), 2)
    C = BlowUp(B.hyper, [tuple(map(np.int64, label)) for label in B.labels],
               np.int64(3), np.uint8(4), np.int16(2))
    assert C == B
    assert {type(v) for v in (C.base_t, C.base_n, C.k, *chain.from_iterable(C.labels))} == {int}
    # SetSystem(3, [(True, 2), (0,)]) was written "2 True 2", which parse_setsystem refuses
    S = SetSystem(np.int64(3), [(True, 2), (np.uint8(0),)])
    assert (S.n, S.sets) == (3, ((1, 2), (0,)))
    assert {type(v) for v in (S.n, *chain.from_iterable(S.sets))} == {int}
    assert serialize_setsystem(S) == "SS 3 2\n2 1 2\n1 0\n"


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
