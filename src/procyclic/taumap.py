"""The continuous homomorphism from p-adic exponents into power series.

tau sends the generator t of an infinite procyclic group to 1 - x, and a
p-adic exponent alpha = sum(d_j * p^j) with digits 0 <= d_j < p to the
product form

    prod_j (1 - x^(p^j))^(d_j)   mod x^N,

which is well defined because (1 - x)^(p^j) = 1 - x^(p^j) over F_p.
Factors with p^j >= N are congruent to 1 and are skipped, so only about
log_p(N) digits ever matter; the digit precision of alpha must cover at
least those.

tau computes the product form's coefficients in closed form.  The factor
of digit j is a polynomial in x^(p^j) of degree d_j < p, and every
exponent m < N has exactly one base-p expansion m = sum(m_j * p^j), so
the coefficient of x^m is

    prod_j (-1)^(m_j) * C(d_j, m_j)   mod p,

zero as soon as some m_j > d_j.  For the integer n = sum(d_j * p^j) this
is Lucas's theorem, C(n, m) = prod_j C(n_j, m_j) mod p (E. Lucas, Amer.
J. Math. 1, 1878; N. J. Fine, "Binomial coefficients modulo a prime",
Amer. Math. Monthly 54, 1947), applied to the coefficient (-1)^m C(n, m)
of x^m in (1 - x)^n; the two forms agree because (1 - x)^(p^j) =
1 - x^(p^j).  The coefficient vector is thus the Kronecker product of one
short row per digit, the coefficients of (1 - y)^(d_j), built from
factorials mod p; the tests keep the product form as the oracle.

sigma is the ring involution induced by t -> t^(-1): it fixes constants
and sends x to 1 - (1 - x)^(-1), and is computed by a single substitution.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import UsageError
from .fpx import TruncSeries, validate_prime
from .padic import PadicInt

__all__ = ["tau", "sigma", "act", "min_digit_precision"]


def min_digit_precision(p: int, prec: int) -> int:
    """Number of base-p digits needed to act at series precision prec.

    This is the count of i with p^i < prec, i.e. ceil(log_p(prec)).
    """
    p = validate_prime(p)  # p < 2 would never reach prec
    k = 0
    q = 1
    while q < prec:
        q *= p
        k += 1
    return k


@lru_cache(maxsize=16)
def _factorials(p: int) -> tuple[np.ndarray, np.ndarray]:
    """k! and 1/k! mod p for 0 <= k < p: O(p) data per prime."""
    fact = [1] * p
    for k in range(1, p):
        fact[k] = fact[k - 1] * k % p
    inv_fact = [1] * p
    inv_fact[p - 1] = pow(fact[p - 1], -1, p)
    for k in range(p - 1, 0, -1):
        inv_fact[k - 1] = inv_fact[k] * k % p
    tables = np.array(fact, dtype=np.int64), np.array(inv_fact, dtype=np.int64)
    for table in tables:
        table.flags.writeable = False
    return tables


def tau(alpha: PadicInt, prec: int) -> TruncSeries:
    """(1 - x)^alpha in F_p[x]/(x^prec) for a p-adic exponent alpha."""
    p = alpha.p
    if prec < 1:
        raise UsageError("precision must be a positive integer")
    needed = min_digit_precision(p, prec)
    if alpha.prec < needed:
        raise UsageError(
            f"digit precision {alpha.prec} too small: series precision "
            f"{prec} needs at least {needed} base-{p} digits"
        )
    fact, inv_fact = _factorials(p)
    # rows[j, k] = (-1)^k C(d_j, k) mod p, the coefficients of (1 - y)^(d_j);
    # no exponent below prec has a digit >= prec
    width = min(p, prec)
    digits = alpha.digits[:needed, None]
    rest = digits - np.arange(width)
    # rest % p keeps the indices of the masked entries k > d_j in range
    rows = fact[digits] * inv_fact[:width] % p * inv_fact[rest % p] % p
    rows[rest < 0] = 0
    rows[:, 1::2] = -rows[:, 1::2] % p
    # before row j, coeffs holds the coefficients of x^m for m < p^j; the
    # outer product puts row[k] * coeffs[r] at m = k * p^j + r
    coeffs = np.ones(1, dtype=np.int64)
    for row in rows:
        top = -(-prec // coeffs.size)  # the digits k with k * p^j < prec
        coeffs = np.multiply.outer(row[:top], coeffs).ravel()[:prec] % p
    return TruncSeries._reduced(p, coeffs)


@lru_cache(maxsize=128)
def _sigma_image_of_x(p: int, prec: int) -> TruncSeries:
    one = TruncSeries.one(p, prec)
    return one - TruncSeries.one_minus_x(p, prec).invert()


def sigma(f: TruncSeries) -> TruncSeries:
    """The antipode: ring involution with sigma(1 - x) = (1 - x)^(-1)."""
    return f.substitute(_sigma_image_of_x(f.p, f.prec))


def act(alpha: PadicInt, f: TruncSeries) -> TruncSeries:
    """Multiply f by tau(alpha): the procyclic module action on series."""
    if alpha.p != f.p:
        raise UsageError(f"mixed primes {alpha.p} and {f.p}")
    return tau(alpha, f.prec) * f
