"""Truncated power series and Laurent series over the prime field F_p.

An element of F_p[x]/(x^N) is a dense little-endian coefficient vector
``c[0..N-1]`` with every entry reduced into [0, p).  Values are immutable
after construction and all operations are pure, so they are safe to share
across threads.

Multiplication uses plain convolution below a cutoff and Kronecker
substitution above it: coefficients are packed into fixed-width limbs of
one big integer and multiplied with CPython's integer product (schoolbook
below its internal threshold, Karatsuba above), then unpacked and reduced
mod p.  The limb width is chosen from p and N so neighbouring limbs can
never carry into each other.  Both paths produce identical results; the
schoolbook path doubles as the test oracle.

Binary operations require equal primes and equal precisions; use
``truncate()`` to bring an operand down to a common precision when mixing
precisions on purpose.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache

import numpy as np

from .errors import NotAUnitError, UsageError

__all__ = [
    "TruncSeries",
    "LaurentTrunc",
    "validate_prime",
    "mul_schoolbook",
    "render_series",
    "parse_series",
]

MAX_PRIME = 1 << 16

# Below this precision plain convolution beats the pack/unpack overhead of
# Kronecker substitution (measured crossover is near 256).
SCHOOLBOOK_CUTOFF = 256

# Operands with at most this many nonzero terms are multiplied by shifted
# accumulation instead of either dense path.
_SMALL_SUPPORT = 4


@lru_cache(maxsize=None)
def validate_prime(p: int) -> int:
    """Return p if it is a prime in [2, 2^16]; raise UsageError otherwise."""
    if not isinstance(p, (int, np.integer)):
        raise UsageError(f"prime must be an integer, got {type(p).__name__}")
    p = int(p)
    if p < 2 or p > MAX_PRIME:
        raise UsageError(f"prime must lie in [2, {MAX_PRIME}], got {p}")
    if p % 2 == 0 and p != 2:
        raise UsageError(f"{p} is not prime")
    d = 3
    while d * d <= p:
        if p % d == 0:
            raise UsageError(f"{p} is not prime")
        d += 2
    return p


def _as_coeff_array(coeffs, p: int, prec: int) -> np.ndarray:
    arr = np.asarray(coeffs, dtype=np.int64)
    if arr.ndim != 1:
        raise UsageError("coefficients must be one-dimensional")
    if arr.size > prec:
        arr = arr[:prec]
    elif arr.size < prec:
        arr = np.concatenate([arr, np.zeros(prec - arr.size, dtype=np.int64)])
    arr = np.mod(arr, p)
    arr.flags.writeable = False
    return arr


class TruncSeries:
    """Element of F_p[x]/(x^prec), coefficients little-endian."""

    __slots__ = ("p", "prec", "coeffs")

    def __init__(self, p: int, coeffs, prec: int | None = None):
        p = validate_prime(p)
        if prec is None:
            prec = len(coeffs)
        if prec < 1:
            raise UsageError("precision must be a positive integer")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "prec", int(prec))
        object.__setattr__(self, "coeffs", _as_coeff_array(coeffs, p, prec))

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    @classmethod
    def _reduced(cls, p: int, coeffs: np.ndarray) -> "TruncSeries":
        """Wrap coeffs without validating or copying them.

        coeffs must be a one-dimensional int64 array already reduced into
        [0, p) that no caller writes to again, and p a validated prime; the
        precision is its length.  The array is marked read-only.
        """
        coeffs.flags.writeable = False
        self = object.__new__(cls)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "prec", coeffs.size)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, p: int, prec: int) -> "TruncSeries":
        return cls(p, (), prec)

    @classmethod
    def one(cls, p: int, prec: int) -> "TruncSeries":
        return cls(p, (1,), prec)

    @classmethod
    def monomial(cls, p: int, prec: int, degree: int, coeff: int = 1) -> "TruncSeries":
        if degree < 0:
            raise UsageError("monomial degree must be nonnegative")
        c = np.zeros(prec, dtype=np.int64)
        if degree < prec:
            c[degree] = coeff
        return cls(p, c, prec)

    @classmethod
    def x(cls, p: int, prec: int) -> "TruncSeries":
        return cls.monomial(p, prec, 1)

    @classmethod
    def one_minus_x(cls, p: int, prec: int) -> "TruncSeries":
        return cls(p, (1, p - 1), prec)

    @classmethod
    def geometric(cls, p: int, prec: int) -> "TruncSeries":
        """1 + x + x^2 + ..., the inverse of 1 - x."""
        return cls(p, np.ones(prec, dtype=np.int64), prec)

    # -- bookkeeping ----------------------------------------------------

    def _check_compatible(self, other: "TruncSeries") -> None:
        if not isinstance(other, TruncSeries):
            raise UsageError(f"expected TruncSeries, got {type(other).__name__}")
        if self.p != other.p:
            raise UsageError(f"mixed primes {self.p} and {other.p}")
        if self.prec != other.prec:
            raise UsageError(
                f"mixed precisions {self.prec} and {other.prec}; "
                "use truncate() to reduce one explicitly"
            )

    def truncate(self, prec: int) -> "TruncSeries":
        """Reduce to a smaller precision (a ring homomorphism)."""
        if prec < 1 or prec > self.prec:
            raise UsageError(f"cannot truncate precision {self.prec} to {prec}")
        return TruncSeries._reduced(self.p, self.coeffs[:prec].copy())

    def extend(self, prec: int) -> "TruncSeries":
        """Pad with zero coefficients up to a larger precision.

        Unlike truncate this is not canonical (the new coefficients are a
        choice of lift), so it is separate from the arithmetic ops.
        """
        if prec < self.prec:
            raise UsageError("extend target below current precision")
        coeffs = np.zeros(prec, dtype=np.int64)
        coeffs[: self.prec] = self.coeffs
        return TruncSeries._reduced(self.p, coeffs)

    def valuation(self) -> int | None:
        """Index of the lowest nonzero coefficient, or None for zero."""
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[0]) if nz.size else None

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def shift_up(self, k: int) -> "TruncSeries":
        """Multiply by x^k, growing precision by k (no information loss)."""
        if k < 0:
            raise UsageError("shift_up needs k >= 0")
        if k == 0:
            return self
        c = np.concatenate([np.zeros(k, dtype=np.int64), self.coeffs])
        return TruncSeries(self.p, c, self.prec + k)

    def shift_down(self, k: int) -> "TruncSeries":
        """Divide by x^k; the k low coefficients must vanish.

        Precision shrinks by k because the top k coefficients of the
        quotient are not determined by a truncation of the original.
        """
        if k < 0:
            raise UsageError("shift_down needs k >= 0")
        if k == 0:
            return self
        if k >= self.prec:
            raise UsageError("shift_down would consume the whole precision")
        if self.coeffs[:k].any():
            raise UsageError(f"series is not divisible by x^{k}")
        return TruncSeries(self.p, self.coeffs[k:], self.prec - k)

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_compatible(other)
        return TruncSeries._reduced(self.p, (self.coeffs + other.coeffs) % self.p)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_compatible(other)
        return TruncSeries._reduced(self.p, (self.coeffs - other.coeffs) % self.p)

    def __neg__(self) -> "TruncSeries":
        return TruncSeries._reduced(self.p, (-self.coeffs) % self.p)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_compatible(other)
        na = int(np.count_nonzero(self.coeffs))
        nb = int(np.count_nonzero(other.coeffs))
        if na == 0 or nb == 0:
            return TruncSeries._reduced(self.p, np.zeros(self.prec, dtype=np.int64))
        if min(na, nb) <= _SMALL_SUPPORT:
            prod = _mul_small_support(self, other)
        elif self.prec <= SCHOOLBOOK_CUTOFF:
            prod = _convolve_mod(self.coeffs, other.coeffs, self.p, self.prec)
        else:
            prod = _kronecker_mod(self.coeffs, other.coeffs, self.p, self.prec)
        return TruncSeries._reduced(self.p, prod)

    def __pow__(self, n: int) -> "TruncSeries":
        if not isinstance(n, (int, np.integer)):
            raise UsageError("exponent must be an integer")
        n = int(n)
        if n < 0:
            return self.invert() ** (-n)
        result = TruncSeries.one(self.p, self.prec)
        if n == 0:
            return result
        base = self
        while True:
            if n & 1:
                result = result * base
            n >>= 1
            if n == 0:
                return result
            base = base * base

    def invert(self) -> "TruncSeries":
        """Multiplicative inverse; requires a nonzero constant term.

        Newton iteration b <- b(2 - ab), doubling the valid precision each
        round, so the cost is a constant number of full-size products.
        """
        if self.coeffs[0] == 0:
            raise NotAUnitError("constant term is zero; series is not a unit")
        p, n = self.p, self.prec
        inv0 = pow(int(self.coeffs[0]), -1, p)
        b = TruncSeries._reduced(p, np.array([inv0], dtype=np.int64))
        m = 1
        while m < n:
            m = min(2 * m, n)
            two = np.zeros(m, dtype=np.int64)
            two[0] = 2 % p
            b = b.extend(m)
            b = b * (TruncSeries._reduced(p, two) - self.truncate(m) * b)
        return b

    def substitute(self, g: "TruncSeries") -> "TruncSeries":
        """Composition self(g(x)); g must have zero constant term."""
        self._check_compatible(g)
        if g.coeffs[0] != 0:
            raise UsageError("substitution requires g(0) = 0")
        # Horner from the top coefficient; x^prec-truncation is exact
        # because val(g^k) >= k kills all higher terms.
        result = TruncSeries.zero(self.p, self.prec)
        for c in self.coeffs[::-1]:
            result = result * g
            if c:
                result = result + TruncSeries(self.p, (int(c),), self.prec)
        return result

    # -- comparison / hashing / display ----------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.p == other.p
            and self.prec == other.prec
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.prec, self.coeffs.tobytes()))

    def __repr__(self) -> str:
        return f"TruncSeries(p={self.p}, prec={self.prec}, {render_series(self)!r})"

    def __str__(self) -> str:
        return render_series(self)

    def to_json(self) -> str:
        return json.dumps([int(c) for c in self.coeffs])


# -- multiplication kernels --------------------------------------------


def _convolve_mod(a: np.ndarray, b: np.ndarray, p: int, prec: int) -> np.ndarray:
    return np.convolve(a, b)[:prec] % p


def _mul_small_support(a: TruncSeries, b: TruncSeries) -> np.ndarray:
    dense, sparse = a, b
    if np.count_nonzero(a.coeffs) < np.count_nonzero(b.coeffs):
        dense, sparse = b, a
    prec, p = dense.prec, dense.p
    out = np.zeros(prec, dtype=np.int64)
    for k in np.nonzero(sparse.coeffs)[0]:
        c = int(sparse.coeffs[k])
        out[k:] += c * dense.coeffs[: prec - k]
    return out % p


def _limb_bytes(p: int, prec: int) -> int:
    # Max convolution coefficient is prec * (p-1)^2; one spare bit on top.
    bound = prec * (p - 1) * (p - 1)
    bits = max(1, bound.bit_length()) + 1
    return (bits + 7) // 8


def _pack(coeffs: np.ndarray, limb: int) -> int:
    shifts = 8 * np.arange(limb, dtype=np.int64)
    buf = ((coeffs[:, None] >> shifts) & 0xFF).astype(np.uint8)
    return int.from_bytes(buf.tobytes(), "little")


def _kronecker_mod(a: np.ndarray, b: np.ndarray, p: int, prec: int) -> np.ndarray:
    limb = _limb_bytes(p, prec)
    prod = _pack(a, limb) * _pack(b, limb)
    nlimbs = len(a) + len(b) - 1
    raw = prod.to_bytes(nlimbs * limb + 8, "little")[: nlimbs * limb]
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(nlimbs, limb).astype(np.int64)
    vals = arr @ (np.int64(256) ** np.arange(limb, dtype=np.int64))
    return vals[:prec] % p


def mul_schoolbook(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """Plain convolution product; the oracle for the fast paths."""
    a._check_compatible(b)
    return TruncSeries(a.p, _convolve_mod(a.coeffs, b.coeffs, a.p, a.prec), a.prec)


# -- Laurent series ------------------------------------------------------


class LaurentTrunc:
    """x^val * body with body a unit of F_p[x]/(x^N), or the canonical zero.

    The element is known modulo x^(val + N).  Zero is always stored as
    (val=0, zero body of the working precision), giving unique equality.
    """

    __slots__ = ("val", "body")

    def __init__(self, val: int, body: TruncSeries):
        if body.is_zero():
            val = 0
        elif body.coeffs[0] == 0:
            raise UsageError(
                "Laurent body must be a unit (nonzero constant term); "
                "use from_series to normalize"
            )
        object.__setattr__(self, "val", int(val))
        object.__setattr__(self, "body", body)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentTrunc is immutable")

    @classmethod
    def zero(cls, p: int, prec: int) -> "LaurentTrunc":
        return cls(0, TruncSeries.zero(p, prec))

    @classmethod
    def from_series(cls, f: TruncSeries, val: int = 0) -> "LaurentTrunc":
        """Normalize x^val * f by absorbing the valuation of f."""
        v = f.valuation()
        if v is None:
            return cls.zero(f.p, f.prec)
        return cls(val + v, f.shift_down(v))

    @property
    def p(self) -> int:
        return self.body.p

    @property
    def prec(self) -> int:
        return self.body.prec

    def is_zero(self) -> bool:
        return self.body.is_zero()

    def __mul__(self, other: "LaurentTrunc") -> "LaurentTrunc":
        if not isinstance(other, LaurentTrunc):
            raise UsageError(f"expected LaurentTrunc, got {type(other).__name__}")
        if self.is_zero() or other.is_zero():
            return LaurentTrunc.zero(self.p, min(self.prec, other.prec))
        return LaurentTrunc(self.val + other.val, self.body * other.body)

    def invert(self) -> "LaurentTrunc":
        if self.is_zero():
            raise NotAUnitError("cannot invert the zero Laurent series")
        return LaurentTrunc(-self.val, self.body.invert())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentTrunc):
            return NotImplemented
        return self.val == other.val and self.body == other.body

    def __hash__(self) -> int:
        return hash((self.val, self.body))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"LaurentTrunc(0, p={self.p}, prec={self.prec})"
        return f"LaurentTrunc(x^{self.val} * ({render_series(self.body)}))"


# -- text and JSON rendering ----------------------------------------------


def render_series(f: TruncSeries) -> str:
    """Render as ``c0 + c1*x + c2*x^2 + ...`` keeping only nonzero terms."""
    parts = []
    for k, c in enumerate(f.coeffs):
        if c == 0:
            continue
        c = int(c)
        if k == 0:
            parts.append(str(c))
        elif k == 1:
            parts.append("x" if c == 1 else f"{c}*x")
        else:
            parts.append(f"x^{k}" if c == 1 else f"{c}*x^{k}")
    return " + ".join(parts) if parts else "0"


_TERM_RE = re.compile(
    r"^\s*(?P<sign>-)?\s*(?:(?P<coeff>\d+)\s*\*?\s*)?(?P<var>x(?:\^(?P<exp>\d+))?)?\s*$"
)


def parse_series(text: str, p: int, prec: int) -> TruncSeries:
    """Parse either the rendered text form or a JSON coefficient array."""
    text = text.strip()
    if text.startswith("["):
        try:
            coeffs = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"series is not a JSON array: {exc}") from None
        if not isinstance(coeffs, list) or not all(
            isinstance(c, int) for c in coeffs
        ):
            raise UsageError("JSON series must be an array of integers")
        return TruncSeries(p, coeffs, prec)
    coeffs = np.zeros(prec, dtype=np.int64)
    # normalize "a - b" to "a + -b" before splitting on +
    normalized = text.replace("-", "+-")
    for chunk in normalized.split("+"):
        if not chunk.strip():
            continue
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise UsageError(f"cannot parse series term {chunk!r}")
        coeff = int(m.group("coeff")) if m.group("coeff") is not None else 1
        if m.group("sign"):
            coeff = -coeff
        if m.group("var") is None:
            degree = 0
        elif m.group("exp") is not None:
            degree = int(m.group("exp"))
        else:
            degree = 1
        if degree < prec:
            coeffs[degree] += coeff
    return TruncSeries(p, coeffs, prec)
