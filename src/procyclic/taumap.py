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
``tau_rows`` evaluates the closed form for a block of exponents at once,
with a leading row axis on every array, so the numpy call overhead is paid
once per block rather than once per exponent; ``tau`` is its one-row case.

sigma is the ring involution induced by t -> t^(-1): it fixes constants
and sends x to 1 - (1 - x)^(-1) = -x/(1 - x) = -(x + x^2 + ...).  sigma(f)
is the Horner loop of the substitution f(sigma(x)), but multiplying by
sigma(x) needs no product: the coefficient of x^(n+1) in sigma(x) * r is
-(r_0 + ... + r_n), a negated prefix sum.  Each step is exact in int64,
since every partial sum of coefficients in [0, p) is below N * p < 2^63,
and is reduced mod p before the next.  The loop costs O(N^2) element
operations in N vectorised steps; the Horner ``TruncSeries.substitute``
with sigma(x) built by ``invert`` is the test oracle.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import UsageError, exact_int
from .fpx import TruncSeries, mod_p, validate_prime
from .padic import PadicInt

__all__ = ["tau", "sigma", "min_digit_precision"]


def min_digit_precision(p: int, prec: int) -> int:
    """Number of base-p digits needed to act at series precision prec.

    This is the count of i with p^i < prec, i.e. ceil(log_p(prec)).
    """
    p = validate_prime(p)  # p < 2 would never reach prec
    prec = exact_int(prec, "precision")
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


def tau_rows(p: int, digits: np.ndarray, prec: int) -> np.ndarray:
    """tau of a block of exponents: one coefficient row per digit row.

    digits is an int64 array of shape (rows, needed) with entries in
    [0, p), needed = min_digit_precision(p, prec) and p a validated prime;
    nothing is checked.  Row r of the (rows, prec) int64 result holds the
    coefficients of (1 - x)^alpha mod x^prec, reduced into [0, p), for the
    exponent alpha with digits digits[r].
    """
    fact, inv_fact = _factorials(p)
    # factors[r, j, k] = (-1)^k C(d_rj, k) mod p, the coefficients of
    # (1 - y)^(d_rj); no exponent below prec has a digit >= prec
    width = min(p, prec)
    digits = digits[:, :, None]
    rest = digits - np.arange(width)
    # rest mod p keeps the indices of the masked entries k > d_rj in range
    factors = fact[digits] * inv_fact[:width]
    mod_p(factors, p, out=factors)
    factors *= inv_fact[mod_p(rest, p)]
    mod_p(factors, p, out=factors)
    factors[rest < 0] = 0
    odd = factors[:, :, 1::2]
    np.negative(odd, out=odd)
    mod_p(odd, p, out=odd)
    # before digit j, coeffs[r] holds the coefficients of x^m for m < p^j;
    # the outer product puts factor[k] * coeffs[r, m] at k * p^j + m
    rows = digits.shape[0]
    coeffs = np.ones((rows, 1), dtype=np.int64)
    for j in range(factors.shape[1]):
        top = -(-prec // coeffs.shape[1])  # the digits k with k * p^j < prec
        outer = factors[:, j, :top, None] * coeffs[:, None, :]
        coeffs = mod_p(outer.reshape(rows, outer.shape[1] * outer.shape[2])[:, :prec], p)
    return coeffs


def tau(alpha: PadicInt, prec: int) -> TruncSeries:
    """(1 - x)^alpha in F_p[x]/(x^prec) for a p-adic exponent alpha."""
    p = alpha.p
    prec = exact_int(prec, "precision")
    if prec < 1:
        raise UsageError("precision must be a positive integer")
    needed = min_digit_precision(p, prec)
    if alpha.prec < needed:
        raise UsageError(
            f"digit precision {alpha.prec} too small: series precision "
            f"{prec} needs at least {needed} base-{p} digits"
        )
    return TruncSeries._reduced(p, tau_rows(p, alpha.digits[None, :needed], prec)[0])


def times_sigma_x(r: np.ndarray, p: int) -> None:
    """Overwrite r with sigma(x) * r shifted down one degree.

    sigma(x) = -(x + x^2 + ...), so the coefficient of x^(n+1) in
    sigma(x) * r is -(r[0] + ... + r[n]) mod p, a negated prefix sum.  r
    must be int64 with entries in [0, p); every partial sum is below
    len(r) * p < 2^63.
    """
    np.cumsum(r, out=r)
    np.negative(r, out=r)
    mod_p(r, p, out=r)


def sigma(f: TruncSeries) -> TruncSeries:
    """The antipode: ring involution with sigma(1 - x) = (1 - x)^(-1)."""
    if not isinstance(f, TruncSeries):
        raise UsageError(f"expected TruncSeries, got {type(f).__name__}")
    # Horner down from the top nonzero coefficient: r_k = c_k + sigma(x) r_(k+1).
    # r_k is multiplied by sigma(x)^k, of valuation k, so only its first
    # prec - k coefficients matter; they live in out[k:], which holds c_k
    # followed by zeros until the loop reaches it.
    out = f.coeffs.copy()
    nz = np.flatnonzero(out)
    for k in range(int(nz[-1]) - 1 if nz.size else -1, -1, -1):
        times_sigma_x(out[k + 1 :], f.p)
    return TruncSeries._reduced(f.p, out)

