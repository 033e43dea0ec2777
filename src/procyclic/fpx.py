"""Truncated power series and Laurent series over the prime field F_p.

An element of F_p[x]/(x^N) is a dense little-endian coefficient vector
``c[0..N-1]`` with every entry reduced into [0, p).  Values are immutable
after construction and all operations are pure, so they are safe to share
across threads.

A product takes one of four exact kernels, chosen by the operands:

* N <= 64: ``np.convolve`` in int64, where every partial sum is below
  64 * (p-1)^2 < 2^38.  This is the only branch at small N, where a
  product costs a few microseconds, nearly all of it call overhead;
* N > 64 and an operand with at most four nonzero terms: shifted
  accumulation of the other operand in int64;
* 64 < N <= 768: ``np.convolve`` on float64 copies of the operands, each
  cut at its last nonzero coefficient.  Every term and every partial sum
  is an integer below 768 * (2^16)^2 < 2^53, so each float64 operation is
  exact and the result does not depend on summation order;
* N > 768: a float64 FFT product (``numpy.fft``, loaded on first use) of
  the operands cut at their last nonzero terms, la and lb long, at length
  L = 2^n >= la + lb - 1.  Each coefficient is split into the fewest k
  limbs of w = ceil(bits(p-1) / k) bits with k * M * ((1+e)^(3n)
  (1+e*sqrt(5))^(3n+1) (1+e)^(3n) - 1) <= 1/8, M = (2^w-1)^2 sqrt(la lb),
  e = 2^-53.  By the floating-point FFT error bound (Percival, Math. Comp.
  72, 2003; Brent & Zimmermann, Modern Computer Arithmetic, CUP 2010,
  section 3.3.2) each of the 2k - 1 limb-product sums is then within 1/8
  of an integer; they are rounded, reduced mod p and recombined with
  2^(w*s) mod p.  An entry more than 1/4 from an integer raises
  ArithmeticError, so a rounded product is never returned.

The FFT kernel also takes two equal-shaped stacks of coefficient rows with
a leading row axis and returns their row-by-row products; la and lb are
then the common support lengths, the largest over the rows of each stack,
so the limb bound and the 1/4 check cover every row.  ``mul_rows`` takes
this stacked kernel at every N, so a block of products pays the numpy call
overhead once; ``TruncSeries.__mul__`` keeps the choice above.

``mul_schoolbook`` (int64 convolution at any N) is the oracle for all of
them.

``invert`` is Newton iteration on the precision h of b = a^(-1): with
m = min(2h, N), a * b = 1 + x^h * e mod x^m, and b - x^h * (b * e) is the
inverse mod x^m.  Only the low m - h coefficients of b * e are kept, so
that product is taken at size m - h, about half the size of the first.

Binary operations require equal primes and equal precisions; use
``truncate()`` to bring an operand down to a common precision when mixing
precisions on purpose.

Large int64 arrays are reduced mod p by ``mod_p``, here and in census,
taumap, homology, cycmod and linfp: ``& 1`` at p = 2, otherwise
``x - (x // p) * p`` once an array holds MOD_CUTOFF entries, because
numpy's ``//`` by a scalar divides through libdivide and ``%`` does not.
The result is exact for every entry x >= -2^63 + p; the package reduces
only entries below 2^53 in magnitude.  The oracles (``mul_schoolbook``
and the small-N product path it shares) and scalar residues keep ``%``.
"""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache

import numpy as np

from .errors import NotAUnitError, UsageError, exact_int, exact_ints, load_json

__all__ = [
    "TruncSeries",
    "LaurentTrunc",
    "validate_prime",
    "mul_schoolbook",
    "render_series",
    "parse_series",
]

MAX_PRIME = 1 << 16

# At or below this precision products are int64 convolutions; above it the
# float64 copies cost less than the int64 convolution loop.
INT64_CUTOFF = 64

# At or below this precision products are float64 convolutions, exact while
# SCHOOLBOOK_CUTOFF * (MAX_PRIME - 1)^2 < 2^53; above it the FFT product is
# faster.  Dense products at p = 2, 3, 5 and 65521 cross over near 768: the
# convolution is faster at 512 (50-80 us against 60-110 us on x86-64) and
# slower at 1024 (140-210 us against 90-150 us).
SCHOOLBOOK_CUTOFF = 768

# Below this many entries mod_p takes np.remainder, above it floor division;
# see mod_p for the crossover measured.
MOD_CUTOFF = 1024

# Above INT64_CUTOFF, operands with at most this many nonzero terms are
# multiplied by shifted accumulation instead of either dense path.
_SMALL_SUPPORT = 4


def mod_p(x: np.ndarray, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """Reduce the int64 array x into [0, p), into out when given (out may be x).

    At p = 2 this is x & 1, exact in two's complement with no temporary.
    Below MOD_CUTOFF entries it is np.remainder.  Otherwise it is x - q * p
    with q = x // p: numpy divides an int64 array by a scalar through
    libdivide for //, but entry by entry for %.  q * p lies in (x - p, x],
    so the result is exact for x >= -2^63 + p.  Measured on one x86-64
    core (numpy 2.4.6, best of 7, µs, % against floor division, new
    output): 16 entries 1.35 / 3.21, 256 2.33 / 3.56, 1,024 4.72 / 3.35,
    4,096 17.5 / 10.9, 16,384 125 / 33.
    """
    if p == 2:
        return np.bitwise_and(x, 1, out=out)
    if x.size < MOD_CUTOFF:
        return np.remainder(x, p, out=out)
    q = np.floor_divide(x, p)
    q *= p
    return np.subtract(x, q, out=q if out is None else out)


# typed, or validate_prime(2.0) would hit the entry of validate_prime(np.int64(2))
@lru_cache(maxsize=None, typed=True)
def validate_prime(p: int) -> int:
    """Return p if it is a prime in [2, 2^16]; raise UsageError otherwise."""
    p = exact_int(p, "prime")
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


class TruncSeries:
    """Element of F_p[x]/(x^prec), coefficients little-endian."""

    __slots__ = ("p", "prec", "coeffs")

    def __init__(self, p: int, coeffs, prec: int | None = None):
        p = validate_prime(p)
        arr = exact_ints(coeffs, "coefficient", mod=p)
        prec = arr.size if prec is None else exact_int(prec, "precision")
        if prec < 1:
            raise UsageError("precision must be a positive integer")
        if arr.size > prec:
            arr = arr[:prec].copy()
        elif arr.size < prec:
            arr = np.concatenate([arr, np.zeros(prec - arr.size, dtype=np.int64)])
        arr.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    @classmethod
    def _reduced(cls, p: int, coeffs: np.ndarray) -> "TruncSeries":
        """Wrap coeffs without validating or copying them.

        coeffs must be a one-dimensional int64 array already reduced into
        [0, p) that no caller writes to again, and p a validated prime; the
        precision is its length.  The array is marked read-only.  Filling
        the slots through their member descriptors takes a call from 1.0 to
        0.55 us against object.__setattr__ (one x86-64 core).
        """
        coeffs.setflags(write=False)
        self = object.__new__(cls)
        _set_p(self, p)
        _set_prec(self, coeffs.size)
        _set_coeffs(self, coeffs)
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
        prec = exact_int(prec, "precision")
        degree = exact_int(degree, "monomial degree")
        if degree < 0:
            raise UsageError("monomial degree must be nonnegative")
        if degree >= prec:
            return cls.zero(p, prec)
        c = np.zeros(degree + 1, dtype=np.int64)
        c[degree] = exact_int(coeff, "monomial coefficient") % validate_prime(p)
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
        prec = exact_int(prec, "precision")
        if prec < 1 or prec > self.prec:
            raise UsageError(f"cannot truncate precision {self.prec} to {prec}")
        return TruncSeries._reduced(self.p, self.coeffs[:prec].copy())

    def extend(self, prec: int) -> "TruncSeries":
        """Pad with zero coefficients up to a larger precision.

        Unlike truncate this is not canonical (the new coefficients are a
        choice of lift), so it is separate from the arithmetic ops.
        """
        prec = exact_int(prec, "precision")
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
        k = exact_int(k, "shift")
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
        k = exact_int(k, "shift")
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
        total = self.coeffs + other.coeffs
        return TruncSeries._reduced(self.p, mod_p(total, self.p, out=total))

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_compatible(other)
        diff = self.coeffs - other.coeffs
        return TruncSeries._reduced(self.p, mod_p(diff, self.p, out=diff))

    def __neg__(self) -> "TruncSeries":
        neg = np.negative(self.coeffs)
        return TruncSeries._reduced(self.p, mod_p(neg, self.p, out=neg))

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_compatible(other)
        p, n = self.p, self.prec
        if n <= INT64_CUTOFF:
            return TruncSeries._reduced(p, _convolve_mod(self.coeffs, other.coeffs, p, n))
        na = int(np.count_nonzero(self.coeffs))
        nb = int(np.count_nonzero(other.coeffs))
        if nb <= _SMALL_SUPPORT:
            prod = _mul_small_support(self.coeffs, other.coeffs, p)
        elif na <= _SMALL_SUPPORT:
            prod = _mul_small_support(other.coeffs, self.coeffs, p)
        elif n <= SCHOOLBOOK_CUTOFF:
            prod = _convolve_float(self.coeffs, other.coeffs, p, n)
        else:
            prod = _convolve_fft(self.coeffs, other.coeffs, p, n)
        return TruncSeries._reduced(p, prod)

    def __pow__(self, n: int) -> "TruncSeries":
        n = exact_int(n, "exponent")
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

        Newton iteration as in the module docstring: each round doubles
        the precision with one product at size m and one at size m - h.
        """
        if self.coeffs[0] == 0:
            raise NotAUnitError("constant term is zero; series is not a unit")
        p, n = self.p, self.prec
        b = np.array([pow(int(self.coeffs[0]), -1, p)], dtype=np.int64)
        h = 1
        while h < n:
            m = min(2 * h, n)
            a = self if m == n else self.truncate(m)
            ab = a * TruncSeries._reduced(p, b).extend(m)
            e = TruncSeries._reduced(p, ab.coeffs[h:])
            be = TruncSeries._reduced(p, b[: m - h]) * e
            b, h = np.concatenate([b, -be.coeffs % p]), m
        return TruncSeries._reduced(p, b)

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
                coeffs = result.coeffs.copy()
                coeffs[0] += c  # below p: (result * g)(0) = 0
                result = TruncSeries._reduced(self.p, coeffs)
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


# the slots' member descriptors: _reduced fills them past the __setattr__ guard
_set_p = TruncSeries.p.__set__
_set_prec = TruncSeries.prec.__set__
_set_coeffs = TruncSeries.coeffs.__set__


# -- multiplication kernels --------------------------------------------


def _convolve_mod(a: np.ndarray, b: np.ndarray, p: int, prec: int) -> np.ndarray:
    return np.convolve(a, b)[:prec] % p


def _mul_small_support(dense: np.ndarray, sparse: np.ndarray, p: int) -> np.ndarray:
    prec = dense.size
    out = np.zeros(prec, dtype=np.int64)
    for k in np.nonzero(sparse)[0]:
        out[k:] += int(sparse[k]) * dense[: prec - k]
    return mod_p(out, p, out=out)


def _support_end(a: np.ndarray) -> int:
    """One past the last nonzero column of an array or row stack.

    For a stack with a leading row axis this is the common support length,
    the largest over its rows.  A zero array gives its full length.
    """
    nz = a != 0
    if nz.ndim > 1:
        nz = nz.any(axis=0)
    return nz.size - int(np.argmax(nz[::-1]))


def _convolve_float(a: np.ndarray, b: np.ndarray, p: int, prec: int) -> np.ndarray:
    # exact for prec <= SCHOOLBOOK_CUTOFF: see the module docstring
    fa = a[: _support_end(a)].astype(np.float64)
    fb = b[: _support_end(b)].astype(np.float64)
    prod = np.convolve(fa, fb)[:prec]
    out = np.zeros(prec, dtype=np.int64)
    out[: prod.size] = prod.astype(np.int64) % p
    return out


def _limb_split(p: int, la: int, lb: int, n: int) -> tuple[int, int]:
    """(k, w) of the module docstring's limb bound for an FFT product of length 2^n."""
    bits = (p - 1).bit_length()
    eps = 2.0**-53
    growth = math.expm1(6 * n * math.log1p(eps) + (3 * n + 1) * math.log1p(eps * math.sqrt(5)))
    for k in range(1, bits + 1):
        w = -(-bits // k)
        if k * (2**w - 1) ** 2 * math.sqrt(la * lb) * growth <= 0.125:
            return k, w
    raise ArithmeticError(f"no limb width keeps an FFT product of length 2^{n} exact")


def _convolve_fft(a: np.ndarray, b: np.ndarray, p: int, prec: int) -> np.ndarray:
    # exact by the limb bound, or ArithmeticError: see the module docstring;
    # a and b are single rows or equal-shaped stacks with a leading row axis
    square = b is a
    a = a[..., : _support_end(a)]
    b = a if square else b[..., : _support_end(b)]
    la, lb = a.shape[-1], b.shape[-1]
    m = min(prec, la + lb - 1)
    size = 1 << (la + lb - 2).bit_length()
    k, w = _limb_split(p, la, lb, size.bit_length() - 1)
    mask = (1 << w) - 1
    fa = [np.fft.rfft((a >> (w * i)) & mask, size) for i in range(k)]
    fb = fa if square else [np.fft.rfft((b >> (w * i)) & mask, size) for i in range(k)]
    out = np.zeros(a.shape[:-1] + (prec,), dtype=np.int64)
    head = out[..., :m]
    for s in range(2 * k - 1):
        lo, hi = max(0, s - k + 1), min(s, k - 1)
        spec = fa[lo] * fb[s - lo]
        for i in range(lo + 1, hi + 1):
            spec += fa[i] * fb[s - i]
        if s >= k - 1:
            fa[lo] = fb[lo] = None  # the last sum that uses limb lo
        y = np.fft.irfft(spec, size)[..., :m]
        del spec
        r = np.rint(y)
        if np.abs(y - r).max() > 0.25:
            raise ArithmeticError("FFT product is not within 1/4 of an integer")
        term = r.astype(np.int64)
        mod_p(term, p, out=term)
        term *= pow(2, w * s, p)
        head += term
    mod_p(head, p, out=head)
    return out


def mul_rows(p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-by-row products mod x^N of two (rows, N) int64 coefficient stacks.

    Entries must lie in [0, p), the shapes be equal and p be a validated
    prime; nothing is checked.  Row r of the new (rows, N) int64 result
    holds a[r] * b[r] mod x^N, reduced into [0, p).  Every N takes one
    stacked FFT product, so the numpy call overhead is paid once per stack.
    """
    return _convolve_fft(a, b, p, a.shape[1])


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
        val = exact_int(val, "Laurent valuation")
        if not isinstance(body, TruncSeries):
            raise UsageError(f"expected TruncSeries, got {type(body).__name__}")
        if body.is_zero():
            val = 0
        elif body.coeffs[0] == 0:
            raise UsageError(
                "Laurent body must be a unit (nonzero constant term); "
                "use from_series to normalize"
            )
        object.__setattr__(self, "val", val)
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
        self.body._check_compatible(other.body)
        if self.is_zero() or other.is_zero():
            return LaurentTrunc.zero(self.p, self.prec)
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
        return TruncSeries(p, load_json(text, "series is not a JSON array"), prec)
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
            coeffs[degree] = (int(coeffs[degree]) + coeff) % p
    return TruncSeries(p, coeffs, prec)
