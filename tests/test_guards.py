"""The one limit rule: every ``size_guard=``/``limit=`` argument takes the
same values and every guard refuses in the same words."""

import re
import sys
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from turancover.errors import ParameterError, ResourceLimitError
from turancover.generators import combinatorial_lines, complete, three_tent
from turancover.guards import ENV_VAR, NodeBudget, check_comb, check_limit, check_power
from turancover.hypergraph import Hypergraph, blow_up
from turancover.lp import solve_matching_lp, solve_vc_lp
from turancover.oracles import (brute_nu, brute_tau, contains_subhypergraph, find_tents,
                                max_independent_set, rho)
from turancover.rounding import (RoundingParams, ahtp_cover_blowup, fallback_threshold_cover,
                                 recursive_threshold, t2_cover_blowup)
from turancover.setcover import SetSystem, brute_set_cover

H = complete(5, 3)  # n*m = 50, n + m*t = 35, 4*C(10,4) = 840 tent checks
B = blow_up(H, 2)  # n*m = 100
SYSTEM = SetSystem(6, ((0, 1, 2, 3), (0, 1, 4), (2, 3, 5)))
EXACT_50, FLOAT_35 = r"exact LP size n\*m = 50", r"float LP size n\+m\*t = 35"

# name: (call with a limit, the count it checks, the counted part of the
# refusal, or None for a node budget, which counts nodes as it searches)
CASES = {
    "solve_vc_lp exact": (lambda g: solve_vc_lp(H, "exact", g), 50, EXACT_50),
    "solve_vc_lp float": (lambda g: solve_vc_lp(H, "float", g), 35, FLOAT_35),
    "solve_matching_lp exact": (lambda g: solve_matching_lp(H, "exact", g), 50, EXACT_50),
    "solve_matching_lp float": (lambda g: solve_matching_lp(H, "float", g), 35, FLOAT_35),
    "recursive_threshold": (lambda g: recursive_threshold(H, 0.5, size_guard=g), 50, EXACT_50),
    "fallback_threshold_cover": (lambda g: fallback_threshold_cover(H, size_guard=g), 50,
                                 EXACT_50),
    "ahtp_cover_blowup": (lambda g: ahtp_cover_blowup(B, RoundingParams(t=3), size_guard=g),
                          100, r"exact LP size n\*m = 100"),
    "t2_cover_blowup": (lambda g: t2_cover_blowup(B, size_guard=g), 100,
                        r"exact LP size n\*m = 100"),
    "combinatorial_lines": (lambda g: combinatorial_lines(2, limit=g), 16,
                            r"line templates = 4\^2"),
    "find_tents": (lambda g: find_tents(H, limit=g), 840, r"tent checks = 4\*C\(10,4\)"),
    "rho": (lambda g: rho(three_tent(), limit=g), 4, "pattern edges = 4"),
    "brute_set_cover": (lambda g: brute_set_cover(SYSTEM, limit=g), 6, None),
    "brute_tau": (lambda g: brute_tau(H, limit=g), 13, None),
    "brute_nu": (lambda g: brute_nu(H, limit=g), 64, None),
    "max_independent_set": (lambda g: max_independent_set(H, limit=g), 29, None),
    "contains_subhypergraph": (lambda g: contains_subhypergraph(three_tent(), three_tent(),
                                                                limit=g), 5, None),
}


@pytest.mark.parametrize("value", ["10", 2.5, True, -1])
@pytest.mark.parametrize("name", CASES)
def test_every_limit_argument_takes_one_value_rule(monkeypatch, name, value):
    monkeypatch.setenv(ENV_VAR, "1000000")  # an explicit value is checked, not passed over
    with pytest.raises(ParameterError, match="^a limit must be a non-negative integer, "
                                             f"got {re.escape(repr(value))}$"):
        CASES[name][0](value)


@pytest.mark.parametrize("text", ["2.5", "True", "-1"])
@pytest.mark.parametrize("name", CASES)
def test_every_guard_reads_the_override_by_the_same_rule(monkeypatch, name, text):
    monkeypatch.setenv(ENV_VAR, text)
    with pytest.raises(ParameterError, match=f"^{ENV_VAR} must be a non-negative integer, "
                                             f"got '{text}'$"):
        CASES[name][0](None)


@pytest.mark.parametrize("name", CASES)
def test_every_limit_argument_admits_exactly_its_count(monkeypatch, name):
    monkeypatch.delenv(ENV_VAR, raising=False)
    call, count, counted = CASES[name]
    call(count)
    refusal = "search budget exceeded" if counted is None else \
        f"{counted} exceeds limit {count - 1}"
    with pytest.raises(ResourceLimitError, match=f"^{refusal}$"):
        call(count - 1)


def test_a_node_budget_visits_in_preorder_and_makes_children_lazily():
    # the binary tree of the prefixes of length <= 3, ending the search at "101"
    visited, made = [], []

    def children(node):
        for bit in "01":
            made.append(node + bit)
            yield node + bit

    def visit(node):
        visited.append(node)
        if node == "101":
            return None
        return children(node) if len(node) < 3 else ()

    NodeBudget(100).search("", visit)
    assert visited == ["", "0", "00", "000", "001", "01", "010", "011", "1", "10", "100", "101"]
    assert made == visited[1:]  # each child is made just before it is visited
    with pytest.raises(ResourceLimitError, match="^search budget exceeded$"):
        NodeBudget(11).search("", visit)


def test_a_node_budget_searches_past_the_recursion_limit():
    depth = 2 * sys.getrecursionlimit()
    deepest = []
    NodeBudget(depth + 1).search(0, lambda i: deepest.append(i) or ((i + 1,) if i < depth else ()))
    assert deepest[-1] == depth and len(deepest) == depth + 1
    # the oracles on such depths: one node per edge, or per vertex, on the first descent
    assert brute_nu(Hypergraph(2, 2 * depth, [(2 * i, 2 * i + 1) for i in range(depth)])) == depth
    assert max_independent_set(Hypergraph(2, depth, [])) == depth


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40), st.integers(0, 50), st.integers(0, 5), st.integers(0, 10**9))
def test_check_comb_refuses_exactly_above_the_limit(n, k, per, cap):
    refused = per * comb(n, k) > cap  # comb(n, k) = 0 for k > n
    try:
        check_comb(n, k, per, 0, "items", limit=cap)
    except ResourceLimitError as exc:
        assert refused and str(exc).endswith(f"C({n},{k}) exceeds limit {cap}")
    else:
        assert not refused


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 17), st.integers(0, 80), st.integers(0, 2**70))
def test_check_power_refuses_exactly_above_the_limit(base, exp, cap):
    try:
        check_power(base, exp, 0, "items", limit=cap)
    except ResourceLimitError as exc:
        assert base ** exp > cap and str(exc) == f"items = {base}^{exp} exceeds limit {cap}"
    else:
        assert base ** exp <= cap


def test_check_limit_returns_the_active_limit(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert check_limit(0, 7, "items") == 7
    monkeypatch.setenv(ENV_VAR, "5")
    assert check_limit(5, 7, "items") == 5
    assert check_limit(0, 7, "items", limit=9) == 9
    monkeypatch.setenv(ENV_VAR, "")  # an empty override is no override
    assert check_limit(0, 7, "items") == 7
