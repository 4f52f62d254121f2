"""Resource-limit plumbing.

Every brute-force search, exact LP solve, generator enumeration and
blow-up is guarded by a limit.  When no explicit limit is given, the
environment variable ``TURANCOVER_SIZE_GUARD`` (if set) replaces the
per-operation default, as a desk-scale escape hatch.
"""

import os

from .errors import ParameterError

ENV_VAR = "TURANCOVER_SIZE_GUARD"


def resolve_limit(explicit, default):
    """Pick the active limit: explicit argument > env override > default.

    A negative explicit or environment limit is a ParameterError.
    """
    if explicit is not None:
        if explicit < 0:
            raise ParameterError(f"a limit must be non-negative, got {explicit}")
        return explicit
    env = os.environ.get(ENV_VAR)
    if not env:
        return default
    try:
        limit = int(env)
    except ValueError:
        raise ParameterError(f"{ENV_VAR} must be an integer, got {env!r}") from None
    if limit < 0:
        raise ParameterError(f"{ENV_VAR} must be non-negative, got {env!r}")
    return limit


def comb_exceeds(n: int, k: int, cap: int) -> bool:
    """True when C(n, k) > cap, for 0 <= k <= n.

    Builds C(n - j + i, i) for i = 1..j with j = min(k, n - k), a
    nondecreasing sequence ending at C(n, k), and stops at the first term
    above ``cap``, so a huge binomial is never computed in full.
    """
    j = min(k, n - k)
    c = 1
    for i in range(1, j + 1):
        c = c * (n - j + i) // i
        if c > cap:
            return True
    return c > cap
