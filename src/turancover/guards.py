"""Resource-limit plumbing.

Every brute-force search and exact LP solve takes an optional explicit
limit.  When none is given, the environment variable
``TURANCOVER_SIZE_GUARD`` (if set) replaces the per-operation default,
as a desk-scale escape hatch.
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
