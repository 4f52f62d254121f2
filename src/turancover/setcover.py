"""Set cover on simple set systems.

A set system is *simple* (linear) when any two member sets share at most
one element.  On simple systems the greedy algorithm is much better than
its general ln(n) guarantee: it uses at most opt * (1 + ln(n)/2) sets.
``greedy_ratio_check`` asserts that bound against a known optimum, and
``brute_set_cover`` computes the optimum exactly on small instances so
the two can be cross-checked.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

from .errors import ParameterError, VerificationError
from .guards import ENUMERATION_GUARD, NodeBudget, _index, _int_rows, check_limit

__all__ = [
    "SetSystem",
    "GreedyTrace",
    "is_simple_system",
    "dual_system",
    "greedy_set_cover",
    "greedy_ratio_check",
    "brute_set_cover",
]

@dataclass(frozen=True)
class SetSystem:
    """Universe 0..n-1 plus an ordered family of subsets.

    Sets are stored as strictly increasing tuples.  Coverability of the
    universe is not assumed; it is checked when a cover is requested.
    """

    n: int
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = _index(self.n, "universe size")
        if n < 0:
            raise ParameterError("universe size must be nonnegative")
        norm = []
        for idx, s in enumerate(_int_rows(self.sets, "element")):
            ts = tuple(sorted(s))
            if len(set(ts)) != len(ts):
                raise ParameterError(f"set {idx} has repeated elements")
            if ts and (ts[0] < 0 or ts[-1] >= n):
                raise ParameterError(f"set {idx} has out-of-range elements")
            norm.append(ts)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "sets", tuple(norm))

    @classmethod
    def _from_canonical(cls, n: int, sets: tuple) -> "SetSystem":
        """Trusted constructor: skips ``__post_init__``, whose checks and
        normal form (n >= 0, each set a strictly increasing tuple of ids
        below n) the caller guarantees."""
        S = object.__new__(cls)
        object.__setattr__(S, "n", n)
        object.__setattr__(S, "sets", sets)
        return S

    @property
    def m(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class GreedyTrace:
    """Pick-by-pick record of a greedy run.

    ``picked[i]`` is the chosen set id, ``newly_covered[i]`` how many new
    elements it covered, ``uncovered_after[i]`` how many remained.
    """

    picked: tuple[int, ...]
    newly_covered: tuple[int, ...]
    uncovered_after: tuple[int, ...]


def _kept_flags(members):
    """For each of ``members`` (sorted tuples) in order, whether it meets
    every earlier kept member in at most one element; it is kept if so.

    Two members share two or more elements exactly when they share a
    pair, so each member is checked by looking up its pairs in one set
    holding the kept members' pairs.  Only elements lying in two or more
    members can be in a shared pair, so a member of more than three
    elements contributes only the pairs of those: a single large member
    whose elements lie nowhere else stores none, where all its pairs
    would take memory quadratic in its size.  Before a member's pairs are
    built, the pairs stored so far plus its own are checked against
    ``ENUMERATION_GUARD``.
    """
    cap = check_limit(0, ENUMERATION_GUARD, "simplicity pairs")
    degree = Counter(chain.from_iterable(members))
    used: set[tuple[int, int]] = set()
    for s in members:
        if len(s) > 3:  # below four elements C(|s|, 2) <= |s|: filtering cannot pay
            s = [x for x in s if degree[x] > 1]
        needed = len(used) + len(s) * (len(s) - 1) // 2
        if needed > cap:
            check_limit(needed, ENUMERATION_GUARD, "simplicity pairs")
        pairs = list(combinations(s, 2))
        kept = used.isdisjoint(pairs)
        if kept:
            used.update(pairs)
        yield kept


def is_simple_system(system: SetSystem) -> bool:
    """True when every pair of member sets intersects in at most one element."""
    return all(_kept_flags(system.sets))


def _containing(system: SetSystem) -> list[list[int]]:
    """For each element, the ids of the sets containing it, in increasing order."""
    containing = [[] for _ in range(system.n)]
    for sid, s in enumerate(system.sets):
        for x in s:
            containing[x].append(sid)
    return containing


def dual_system(system: SetSystem) -> SetSystem:
    """Swap the roles of elements and sets.

    The dual's universe is the set ids of ``system``; element x of the
    original contributes the set of ids containing x.  Elements covered
    by nothing contribute nothing (empty sets are omitted), so applying
    this twice returns the original system restricted to its nonempty
    incidences, with elements renumbered by rank.
    """
    return SetSystem(len(system.sets),
                     tuple(tuple(inc) for inc in _containing(system) if inc))


def greedy_set_cover(system: SetSystem) -> GreedyTrace:
    """Repeatedly pick the set covering the most uncovered elements.

    Ties break toward the lowest set id.  Raises ParameterError naming an
    uncoverable element when the family does not cover the universe.

    Each set's gain (its count of uncovered elements) is kept up to date:
    covering an element lowers the gain of every set containing it, so
    the whole run touches each incidence once plus one scan of the gains
    per pick.  A universe of more than ``ENUMERATION_GUARD`` elements is
    refused with ResourceLimitError before anything is allocated.
    """
    check_limit(system.n, ENUMERATION_GUARD, "greedy universe")
    gains = [len(s) for s in system.sets]
    containing = _containing(system)
    covered = [False] * system.n
    left = system.n
    picked, newly, after = [], [], []
    while left:
        best_gain = max(gains, default=0)
        if best_gain == 0:
            raise ParameterError(
                f"universe not coverable: element {covered.index(False)} lies in no set"
            )
        best_id = gains.index(best_gain)
        for x in system.sets[best_id]:
            if not covered[x]:
                covered[x] = True
                for sid in containing[x]:
                    gains[sid] -= 1
        left -= best_gain
        picked.append(best_id)
        newly.append(best_gain)
        after.append(left)
    return GreedyTrace(tuple(picked), tuple(newly), tuple(after))


def greedy_ratio_check(system: SetSystem, opt: int) -> Fraction:
    """Run greedy and assert picks/opt <= ln(n)/2 + 1.

    Requires a simple system and the exact optimum ``opt`` (e.g. from
    ``brute_set_cover``).  Returns the achieved ratio as a Fraction.
    """
    if opt < 1:
        raise ParameterError("opt must be a positive integer")
    if not is_simple_system(system):
        raise ParameterError("ratio bound only applies to simple systems")
    trace = greedy_set_cover(system)
    ratio = Fraction(len(trace.picked), opt)
    bound = math.log(system.n) / 2 + 1
    if float(ratio) > bound + 1e-12:
        raise VerificationError(
            f"greedy used {len(trace.picked)} sets, opt {opt}: "
            f"ratio {float(ratio):.4f} exceeds ln(n)/2 + 1 = {bound:.4f}"
        )
    return ratio


def brute_set_cover(system: SetSystem, limit: int | None = None) -> int:
    """Exact minimum cover size by branch and bound.

    Branches on the sets containing the lowest uncovered element; prunes
    with a count/max-set-size bound.  Searched under a ``NodeBudget`` of
    ``limit`` nodes.
    """
    budget = NodeBudget(limit)
    if system.n == 0:
        return 0
    member_sets = [set(s) for s in system.sets]
    containing = _containing(system)
    for x in range(system.n):
        if not containing[x]:
            raise ParameterError(f"universe not coverable: element {x} lies in no set")
    best = len(greedy_set_cover(system).picked)
    max_size = max(len(s) for s in member_sets)

    def visit(node):
        nonlocal best
        uncovered, count = node
        if not uncovered:
            best = min(best, count)
            return ()
        if count + -(-len(uncovered) // max_size) >= best:
            return ()
        return ((uncovered - member_sets[sid], count + 1) for sid in containing[min(uncovered)])

    budget.search((frozenset(range(system.n)), 0), visit)
    return best
