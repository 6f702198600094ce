"""Size guards for exhaustive enumeration."""

import os

#: default cap on the elections a brute-force count enumerates
DEFAULT_BRUTE_CALLS = 10**8


def brute_call_guard() -> int:
    """The brute-force call guard, overridable via the VOTELACE_GUARD env var."""
    raw = os.environ.get("VOTELACE_GUARD")
    if raw is None:
        return DEFAULT_BRUTE_CALLS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"VOTELACE_GUARD must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError("VOTELACE_GUARD must be positive")
    return value
