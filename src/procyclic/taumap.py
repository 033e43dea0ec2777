"""The continuous homomorphism from p-adic exponents into power series.

tau sends the generator t of an infinite procyclic group to 1 - x, and a
p-adic exponent alpha = sum(d_i * p^i) to

    prod_i (1 - x^(p^i))^(d_i)   mod x^N,

which is well defined because (1 - x)^(p^i) = 1 - x^(p^i) over F_p.
Factors with p^i >= N are congruent to 1 and are skipped, so only about
log_p(N) digits ever matter; the digit precision of alpha must cover at
least those.

sigma is the ring involution induced by t -> t^(-1): it fixes constants
and sends x to 1 - (1 - x)^(-1), and is computed by a single substitution.
"""

from __future__ import annotations

from functools import lru_cache

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


def tau(alpha: PadicInt, prec: int) -> TruncSeries:
    """(1 - x)^alpha in F_p[x]/(x^prec) for a p-adic exponent alpha."""
    p = alpha.p
    needed = min_digit_precision(p, prec)
    if alpha.prec < needed:
        raise UsageError(
            f"digit precision {alpha.prec} too small: series precision "
            f"{prec} needs at least {needed} base-{p} digits"
        )
    result = TruncSeries.one(p, prec)
    q = 1
    for d in alpha.digits:
        if q >= prec:
            break
        if d:
            factor = TruncSeries.one(p, prec) - TruncSeries.monomial(p, prec, q)
            result = result * factor ** int(d)
        q *= p
    return result


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
