"""Exception taxonomy shared by all procyclic modules, and the entry gate.

Callers can rely on three coarse classes: bad arguments (UsageError),
work refused because it would exceed a size budget (ResourceLimitError),
and searches that ran out of room (SearchExhaustedError).  The CLI maps
these to exit codes 2 and 3.

Outside values are parsed here too, so a malformed one is a UsageError
like any other bad argument.  Size budgets read from the environment must
be integers of at least 1.  Integers handed to a constructor, parser or
builder (coefficients, digits, matrix entries, table and element indices,
precisions, levels) pass through one gate, ``exact_ints`` and its scalar form ``exact_int``: Python
ints and numpy integers of any dtype pass, while floats (2.0 included),
bools, strings and None are refused rather than truncated or coerced.
Residues mod p are reduced whatever their size; indices and digits must
already lie in range.  Outside JSON (a group file, a series argument) is
decoded by ``load_json``, so malformed, non-UTF-8 or too deeply nested
text is a UsageError too.
"""

import json
import os

import numpy as np


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

    Raises UsageError for a value that is not an integer, is below 1 or
    exceeds limit.
    """
    value = os.environ.get(name)
    if not value:
        return default
    try:
        budget = int(value)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None
    if budget < 1:
        raise UsageError(f"{name} must be at least 1, got {budget}")
    if limit is not None and budget > limit:
        raise UsageError(f"{name} must be at most {limit}, got {budget}")
    return budget


def load_json(text, what: str):
    """The decoded JSON text (str or bytes); UsageError "what: reason" when it
    does not decode, including nesting past the decoder's recursion limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"{what}: {exc}") from None


def exact_int(value, what: str) -> int:
    """value as a Python int; UsageError unless it is an int or numpy integer."""
    if type(value) is int or isinstance(value, np.integer):  # not bool, not np.bool_
        return int(value)
    raise UsageError(f"{what} must be an integer, got {value!r}")


def exact_ints(values, what: str, ndim: int = 1, hi=None, mod=None, dtype=np.int64):
    """The caller's integers as an ndim-dimensional array of dtype.

    values is a numpy integer array or nested sequences of exact_int
    entries.  With mod, entries of any size are reduced into [0, mod);
    without it, each must lie in [0, hi).  An integer array is checked in
    its own dtype, and returned uncopied when it has dtype and no mod.
    """
    arr = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    if arr.ndim != ndim:
        raise UsageError(f"{what} data must be {ndim}-dimensional, got {arr.ndim} dimensions")
    if arr.dtype.kind in "iu":
        # a Python int mod takes arr's dtype (int8 cannot hold 65521), and an
        # int64 one would promote uint64 to float64
        wide = np.uint64 if arr.dtype == np.uint64 else np.int64
    else:
        flat = [exact_int(v, what) for v in arr.flat]
        arr, wide = np.array(flat, dtype=object).reshape(arr.shape), int
    if mod is not None:
        arr = np.mod(arr, wide(mod))
    elif arr.size and (arr.min() < 0 or arr.max() >= hi):
        raise UsageError(f"{what} {arr[(arr < 0) | (arr >= hi)][0]} is not in [0, {hi})")
    return arr.astype(dtype, copy=False)
