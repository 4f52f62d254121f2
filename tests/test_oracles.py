"""Brute-force ground truth oracles: covers, matchings, tents, patterns."""

from collections import Counter
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings, strategies as st

from turancover.errors import ParameterError, ResourceLimitError
from turancover.generators import combinatorial_lines, complete, random_hypergraph, three_tent
from turancover.hypergraph import Hypergraph, blow_up, dual, is_vertex_cover
from turancover.lp import solve_vc_lp
from turancover.oracles import (
    brute_nu,
    brute_tau,
    contains_subhypergraph,
    find_tents,
    max_independent_set,
    rho,
)
from turancover.setcover import greedy_set_cover


def test_single_edge_cover_and_matching():
    H = Hypergraph(3, 3, [(0, 1, 2)])
    assert brute_tau(H) == 1
    assert brute_nu(H) == 1


def test_disjoint_edges():
    H = Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])
    assert brute_tau(H) == 2
    assert brute_nu(H) == 2


def test_complete_triples_anchor():
    G = complete(4, 3)
    assert brute_tau(G) == 2
    assert brute_nu(G) == 1
    assert max_independent_set(G) == 2


def test_edgeless_everything_zero():
    H = Hypergraph(3, 5, [])
    assert brute_tau(H) == 0
    assert brute_nu(H) == 0
    assert max_independent_set(H) == 5


def test_lp_bound_does_not_change_answers():
    for seed in range(10):
        G = random_hypergraph(8, 3, 0.4, seed)
        assert brute_tau(G, lp_bound=False) == brute_tau(G, lp_bound=True)
        assert brute_nu(G, lp_bound=False) == brute_nu(G, lp_bound=True)


def _highest_degree_greedy(H):
    """Cover size of repeatedly taking a highest-degree vertex, ties to the
    lowest id: the initial bound brute_tau once computed itself."""
    remaining = [set(e) for e in H.edges]
    size = 0
    while remaining:
        degree = Counter(v for e in remaining for v in e)
        best = max(degree, key=lambda v: (degree[v], -v))
        remaining = [e for e in remaining if best not in e]
        size += 1
    return size


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5), st.integers(0, 7), st.floats(0, 0.6))
def test_greedy_on_the_dual_is_the_highest_degree_greedy(seed, t, extra, p):
    # brute_tau starts from this bound, so its search and node budget depend on it
    G = random_hypergraph(t + extra, t, p, seed)
    assert len(greedy_set_cover(dual(G)).picked) == _highest_degree_greedy(G)


def test_node_budget_trips():
    G = complete(9, 3)
    with pytest.raises(ResourceLimitError):
        brute_tau(G, limit=10, lp_bound=False)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 4))
def test_cover_matching_sandwich(seed, t):
    """nu <= ceil(tau*) <= tau <= t * tau* on anything brute-forceable."""
    G = random_hypergraph(t + 4, t, 0.35, seed)
    tau = brute_tau(G, lp_bound=False)
    nu = brute_nu(G, lp_bound=False)
    frac = solve_vc_lp(G).objective
    assert nu <= frac <= tau
    assert tau <= G.t * frac
    assert ceil(frac) <= tau


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_independent_set_complements_cover(seed):
    G = random_hypergraph(9, 3, 0.35, seed)
    assert max_independent_set(G) + brute_tau(G, lp_bound=False) == G.n


def test_cover_witness_is_reconstructible():
    # tau itself is a size; cross-check it against an LP-free greedy cover
    G = random_hypergraph(9, 3, 0.5, seed=2)
    tau = brute_tau(G)
    covers = []
    from itertools import combinations
    for size in range(tau + 1):
        for cand in combinations(range(G.n), size):
            if is_vertex_cover(G, cand):
                covers.append(cand)
        if covers:
            break
    assert covers and len(covers[0]) == tau


def test_canonical_tent_found_exactly_once():
    tent = three_tent()
    assert find_tents(tent) == [(0, 1, 2, 3)]


def test_tent_roles_are_checked():
    # three concurrent edges but a crossing edge meeting one of them twice
    H = Hypergraph(3, 7, [(0, 1, 4), (0, 2, 5), (0, 3, 6), (1, 4, 5)])
    assert find_tents(H) == []


def test_pair_blow_up_is_tent_free():
    B = blow_up(complete(5, 3), 2)
    assert find_tents(B.hyper) == []


def test_find_tents_budget():
    G = random_hypergraph(12, 3, 0.9, seed=1)
    with pytest.raises(ResourceLimitError):
        find_tents(G, limit=5)


def test_pattern_embeds_into_itself():
    tent = three_tent()
    emb = contains_subhypergraph(tent, tent)
    assert emb is not None
    mapped = {tuple(sorted(emb.vertex_map[v] for v in e)) for e in tent.edges}
    assert mapped <= set(tent.edges)
    assert len(set(emb.vertex_map.values())) == len(emb.vertex_map)


def test_pattern_search_finds_triangle_pattern():
    pattern = Hypergraph(3, 3, [(0, 1, 2)])
    emb = contains_subhypergraph(complete(5, 3), pattern)
    assert emb is not None
    assert emb.edge_map == {0: 0}


def test_pattern_search_negative():
    tent = three_tent()
    assert contains_subhypergraph(combinatorial_lines(2), tent) is None


def test_pattern_uniformity_mismatch_returns_none():
    pattern = Hypergraph(4, 4, [(0, 1, 2, 3)])
    assert contains_subhypergraph(complete(5, 3), pattern) is None


def test_pattern_edge_cap():
    big = complete(5, 3)  # ten edges is over the pattern cap
    with pytest.raises(ResourceLimitError):
        contains_subhypergraph(complete(6, 3), big)


def test_density_of_tent():
    assert rho(three_tent()) == Fraction(3, 4)


def test_density_trivial_shapes():
    two_disjoint = Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])
    assert rho(two_disjoint) == Fraction(1, 3)
    four_disjoint = Hypergraph(4, 8, [(0, 1, 2, 3), (4, 5, 6, 7)])
    assert rho(four_disjoint) == Fraction(1, 4)
    shared = Hypergraph(3, 5, [(0, 1, 2), (0, 3, 4)])
    assert rho(shared) == Fraction(1, 2)


def test_density_maximizes_over_subcollections():
    assert rho(complete(4, 3)) == Fraction(3, 1)


def test_density_parameter_errors():
    with pytest.raises(ParameterError):
        rho(Hypergraph(3, 3, [(0, 1, 2)]))
    with pytest.raises(ResourceLimitError):
        rho(complete(7, 3))  # 35 edges exceeds the subset-scan cap
