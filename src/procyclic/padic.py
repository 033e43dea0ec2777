"""p-adic integers at finite digit precision.

A value is a little-endian digit vector d[0..k-1] in base p, representing
sum(d[i] * p^i) modulo p^k.  These serve as exponents for the procyclic
action on power series, so the arithmetic here is plain ring arithmetic
mod p^k, implemented digit-by-digit with explicit carry propagation.
Values are immutable and operations pure.

Sums carry through ``add_digit_rows``, which adds two stacks of digit rows
at once: a digit sum s_j = a_j + b_j decides its own carry out unless
s_j = p - 1, where it passes the carry in on, so the carry into digit i is
set by the last deciding digit below i, found for every i with one running
maximum.  ``PadicInt.__add__`` is its one-row case, and negation adds one
to the digit complement.  A product carries its digit convolution, whose
column sums exceed 2p, digit by digit.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError, exact_int, exact_ints
from .fpx import validate_prime

__all__ = ["PadicInt"]


def add_digit_rows(p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-by-row sums mod p^k of two (rows, k) int64 digit stacks.

    Entries must lie in [0, p) and p be a validated prime; nothing is
    checked.  Row r of the new (rows, k) int64 result holds the base-p
    digits, digit 0 first, of the sum of rows a[r] and b[r] mod p^k.
    """
    s = a + b
    # code_j = 2(j + 1) + carry out of digit j where digit j decides it,
    # else 0; the running maximum picks the last deciding digit
    code = (s >= p) + np.arange(2, 2 * s.shape[1] + 2, 2)
    code *= s != p - 1
    np.maximum.accumulate(code, axis=1, out=code)
    s[:, 1:] += code[:, :-1] & 1
    s[s >= p] -= p  # s + carry <= 2p - 1
    return s


class PadicInt:
    """Element of Z/p^k written in base-p digits, digit 0 first."""

    __slots__ = ("p", "prec", "digits")

    def __init__(self, p: int, digits, prec: int | None = None):
        p = validate_prime(p)
        # no mod: reducing a digit mod p on its own would change the value
        arr = exact_ints(digits, "digit", hi=p)
        prec = arr.size if prec is None else exact_int(prec, "digit precision")
        if prec < 1:
            raise UsageError("digit precision must be a positive integer")
        if arr.size < prec:
            arr = np.concatenate([arr, np.zeros(prec - arr.size, dtype=np.int64)])
        else:
            arr = arr[:prec].copy()
        arr.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "digits", arr)

    def __setattr__(self, name, value):
        raise AttributeError("PadicInt is immutable")

    @classmethod
    def from_int(cls, n: int, p: int, prec: int) -> "PadicInt":
        """Digits of n mod p^prec; negative n is reduced into range."""
        p, prec = validate_prime(p), exact_int(prec, "digit precision")
        if prec < 1:
            raise UsageError("digit precision must be a positive integer")
        n = exact_int(n, "n") % (p**prec)
        digits = np.zeros(prec, dtype=np.int64)
        for i in range(prec):
            n, digits[i] = divmod(n, p)
        return cls(p, digits, prec)

    def to_int(self) -> int:
        """Canonical representative in [0, p^prec)."""
        total = 0
        for d in self.digits[::-1]:
            total = total * self.p + int(d)
        return total

    def truncate(self, prec: int) -> "PadicInt":
        """Drop high digits; reduction mod p^prec is a ring homomorphism."""
        prec = exact_int(prec, "digit precision")
        if prec < 1 or prec > self.prec:
            raise UsageError(f"cannot truncate digit precision {self.prec} to {prec}")
        return PadicInt(self.p, self.digits[:prec], prec)

    def is_zero(self) -> bool:
        return not self.digits.any()

    def _check_compatible(self, other: "PadicInt") -> None:
        if not isinstance(other, PadicInt):
            raise UsageError(f"expected PadicInt, got {type(other).__name__}")
        if self.p != other.p:
            raise UsageError(f"mixed primes {self.p} and {other.p}")
        if self.prec != other.prec:
            raise UsageError(f"mixed digit precisions {self.prec} and {other.prec}")

    def __add__(self, other: "PadicInt") -> "PadicInt":
        self._check_compatible(other)
        out = add_digit_rows(self.p, self.digits[None], other.digits[None])
        return PadicInt(self.p, out[0], self.prec)

    def __neg__(self) -> "PadicInt":
        if self.is_zero():
            return self
        # (p-1)-complement of every digit, plus one
        one = np.zeros((1, self.prec), dtype=np.int64)
        one[0, 0] = 1
        out = add_digit_rows(self.p, self.p - 1 - self.digits[None], one)
        return PadicInt(self.p, out[0], self.prec)

    def __sub__(self, other: "PadicInt") -> "PadicInt":
        return self + (-other)

    def __mul__(self, other: "PadicInt") -> "PadicInt":
        self._check_compatible(other)
        p, k = self.p, self.prec
        acc = np.zeros(k, dtype=np.int64)
        for i in range(k):
            di = int(self.digits[i])
            if di:
                acc[i:] += di * other.digits[: k - i]
        out = np.zeros(k, dtype=np.int64)
        carry = 0
        for i in range(k):
            carry, out[i] = divmod(int(acc[i]) + carry, p)
        return PadicInt(p, out, k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PadicInt):
            return NotImplemented
        return (
            self.p == other.p
            and self.prec == other.prec
            and np.array_equal(self.digits, other.digits)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.prec, self.digits.tobytes()))

    def __repr__(self) -> str:
        return f"PadicInt(p={self.p}, digits={list(map(int, self.digits))})"
