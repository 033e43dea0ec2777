"""Exception taxonomy shared by all procyclic modules.

Callers can rely on three coarse classes: bad arguments (UsageError),
work refused because it would exceed a size budget (ResourceLimitError),
and searches that ran out of room (SearchExhaustedError).  The CLI maps
these to exit codes 2 and 3.  Size budgets read from the environment are
parsed here too, so a malformed value is a UsageError like any other bad
argument.
"""

import os


class UsageError(ValueError):
    """Arguments violate a documented precondition (mismatched prime,
    mismatched precision, invalid subgroup, ...)."""


class NotAUnitError(UsageError):
    """Inversion was requested for a non-invertible element."""


class ResourceLimitError(RuntimeError):
    """The requested computation exceeds a hard size budget."""


class SearchExhaustedError(RuntimeError):
    """A bounded search ended without a witness.

    ``counts`` holds one ``(level, census_size, coset_count)`` triple per
    level that was tried, so the caller can see what blocked the search.
    """

    def __init__(self, message, counts=None):
        super().__init__(message)
        self.counts = list(counts or [])


def env_budget(name: str, default: int, limit: int | None = None) -> int:
    """Integer budget from environment variable name, or default if unset.

    Raises UsageError for a value that is not an integer or exceeds limit.
    """
    value = os.environ.get(name)
    if not value:
        return default
    try:
        budget = int(value)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None
    if limit is not None and budget > limit:
        raise UsageError(f"{name} must be at most {limit}, got {budget}")
    return budget
