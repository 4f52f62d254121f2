"""The rules every module shares: one limit rule, the seed rule, integer ids.

Each guarded operation passes the count of what it would build to
``check_limit`` (or to ``check_comb``/``check_power``, which never compute
a count they refuse).  The limit is the explicit ``size_guard=``/``limit=``,
else the ``TURANCOVER_SIZE_GUARD`` override, else the operation's default;
either source must be an int, not a bool, of at least 0 (else
ParameterError).  A count above it is a ResourceLimitError reading
``<what> = <count> exceeds limit <limit>``.  An exact search, whose size
is not known in advance, runs under a ``NodeBudget`` of that many nodes
instead and is refused with ``search budget exceeded`` once it passes it.
"""

import operator
import os
from contextlib import suppress
from itertools import chain

from .errors import ParameterError, ResourceLimitError

ENV_VAR = "TURANCOVER_SIZE_GUARD"
ENUMERATION_GUARD = 1_000_000
BRUTE_NODE_LIMIT = 2_000_000


def _index(value, what: str) -> int:
    """``value`` as an int, if ``operator.index`` takes it."""
    if not hasattr(type(value), "__index__"):
        raise ParameterError(f"{what} {value!r} is not an integer")
    return operator.index(value)


def _int_rows(rows, what: str):
    """``rows`` of ids with every id an int.  All-int rows, the common
    case, are checked in one C-level pass over their types and returned
    as given; otherwise each id is converted by ``_index``."""
    rows = tuple(rows)
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return rows
    return tuple(tuple(_index(v, what) for v in row) for row in rows)


def check_seed(seed) -> None:
    """Refuse a seed that is not an int in [0, 2**64).

    ``random.Random`` folds a negative seed onto its absolute value and
    ``True`` onto 1, and the per-trial child seeds keep only 64 bits, so
    such a seed would reproduce another seed's output under its own name.
    """
    if not (isinstance(seed, int) and not isinstance(seed, bool) and 0 <= seed < 2 ** 64):
        raise ParameterError("seed must fit in 64 bits")


def resolve_limit(explicit, default) -> int:
    """The active limit: ``explicit``, else the override, else ``default``."""
    source, value, shown = "a limit", explicit, explicit
    if explicit is None:
        shown = os.environ.get(ENV_VAR)
        if not shown:
            return default
        source, value = ENV_VAR, shown
        with suppress(ValueError):
            value = int(shown)
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return value
    raise ParameterError(f"{source} must be a non-negative integer, got {shown!r}")


def check_limit(count: int, default: int, what: str, limit=None) -> int:
    """Refuse ``count`` items of ``what`` above the active limit; return
    that limit, so a loop whose count grows can compare against it."""
    cap = resolve_limit(limit, default)
    if count > cap:
        raise ResourceLimitError(f"{what} = {count} exceeds limit {cap}")
    return cap


class NodeBudget:
    """A depth-first search's node budget: ``limit`` nodes, resolved by the
    one limit rule with ``BRUTE_NODE_LIMIT`` as the default.  The limit is
    checked when the budget is made, before the search looks at its input.
    """

    __slots__ = ("left",)

    def __init__(self, limit=None):
        self.left = resolve_limit(limit, BRUTE_NODE_LIMIT)

    def search(self, root, visit) -> None:
        """Visit ``root`` and its descendants depth first, in order, on an
        explicit stack, so no depth exhausts Python's recursion limit.

        ``visit(node)`` is called once per node, after the node is paid
        for, and returns the node's children as an iterable, or None to
        end the whole search.  The children are read lazily, so a
        generator makes each child only once the subtrees of its earlier
        siblings are searched, as a recursive search would.  Visiting a
        node past the budget raises ResourceLimitError.
        """
        stack = [iter((root,))]
        while stack:
            for node in stack[-1]:
                self.left -= 1
                if self.left < 0:
                    raise ResourceLimitError("search budget exceeded")
                children = visit(node)
                if children is None:
                    return
                if children:  # an empty tuple is a leaf; a generator is always pushed
                    stack.append(iter(children))
                    break
            else:
                stack.pop()


def check_comb(n: int, k: int, per: int, default: int, what: str, limit=None) -> None:
    """``check_limit`` for per * C(n, k) items, k >= 0, without computing
    C(n, k): per * C(n, k) > cap exactly when C(n, k) > cap // per."""
    cap = resolve_limit(limit, default)
    if per and comb_exceeds(n, k, cap // per):
        count = f"C({n},{k})" if per == 1 else f"{per}*C({n},{k})"
        raise ResourceLimitError(f"{what} = {count} exceeds limit {cap}")


def check_power(base: int, exp: int, default: int, what: str, limit=None) -> None:
    """``check_limit`` for base**exp items, base >= 2: base**exp is at least
    2**(exp * (bits(base) - 1)), so it is computed only if that is not
    already past the limit's bit length, and then has at most twice its bits."""
    cap = resolve_limit(limit, default)
    if exp * (base.bit_length() - 1) >= cap.bit_length() or base ** exp > cap:
        raise ResourceLimitError(f"{what} = {base}^{exp} exceeds limit {cap}")


def comb_exceeds(n: int, k: int, cap: int) -> bool:
    """True when C(n, k) > cap, for k >= 0 (C(n, k) = 0 when k > n).

    Builds C(n - j + i, i) for i = 1..j with j = min(k, n - k), a
    nondecreasing sequence ending at C(n, k), and stops at the first term
    above ``cap``, so a huge binomial is never computed in full.
    """
    if k > n:
        return False
    j = min(k, n - k)
    c = 1
    for i in range(1, j + 1):
        c = c * (n - j + i) // i
        if c > cap:
            return True
    return c > cap
