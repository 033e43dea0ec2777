"""Census machinery for the image of tau and its ratio sets.

Level i works in the quotient ring F_p[x]/(x^(p^i)).  The census of the
procyclic image there is the set of powers (1-x)^m, m < p^i, which has
exactly p^i elements.  Ratio sets collect every solution r of

    r * (beta_1 b_1 + ... + beta_n b_n) = alpha_1 a_1 + ... + alpha_n a_n

with the a's and b's drawn from the census and the denominator outside
(x^(p^k)).  A denominator of valuation v < p^k factors as x^v times a
unit, so the solution set for one pair is either empty (when x^v does not
divide the numerator) or a coset of the annihilator of x^v, which has p^v
elements; this keeps the enumeration at one inversion per pair and yields
the two counting factors (at most p^(2in) pairs, at most p^(p^k) solutions
per pair) that bound the census size by p^(2in + p^k).

The density-gap search scans coset representatives in lexicographic
coefficient order and returns the first ball that misses the census; a
separate element-by-element verifier confirms the miss before the witness
is returned.

Sets are stored as hash sets of packed words: a series is packed as the
integer sum(c_j * p^j).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError, SearchExhaustedError, UsageError
from .fpx import LaurentTrunc, TruncSeries, validate_prime

__all__ = [
    "CensusSet",
    "TensorRep",
    "DensityGapResult",
    "pack_series",
    "unpack_series",
    "enum_A",
    "census_ratio_set",
    "density_gap",
    "kappa",
    "mu",
]

MAX_CENSUS_PRECISION = 1 << 16


def pack_series(f: TruncSeries) -> int:
    """Pack a series into the integer sum(c_j * p^j)."""
    value = 0
    for c in f.coeffs[::-1]:
        value = value * f.p + int(c)
    return value


def unpack_series(p: int, prec: int, value: int) -> TruncSeries:
    coeffs = np.zeros(prec, dtype=np.int64)
    for j in range(prec):
        value, coeffs[j] = divmod(value, p)
    return TruncSeries(p, coeffs, prec)


@dataclass(frozen=True)
class CensusSet:
    """Deduplicated set of residues in F_p[x]/(x^(p^level))."""

    p: int
    level: int
    elements: frozenset[int]

    @property
    def prec(self) -> int:
        return self.p**self.level

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, item) -> bool:
        if isinstance(item, TruncSeries):
            if item.prec != self.prec or item.p != self.p:
                raise UsageError("membership test at the wrong precision or prime")
            item = pack_series(item)
        return item in self.elements

    def series(self):
        """Iterate members as TruncSeries in deterministic (sorted) order."""
        for value in sorted(self.elements):
            yield unpack_series(self.p, self.prec, value)


def enum_A(p: int, i: int) -> CensusSet:
    """All powers (1-x)^m mod x^(p^i); exactly p^i distinct elements."""
    p = validate_prime(p)
    if i < 1:
        raise UsageError("census level must be >= 1")
    prec = p**i
    if prec > MAX_CENSUS_PRECISION:
        raise ResourceLimitError(
            f"census level {i} needs precision {prec} > {MAX_CENSUS_PRECISION}"
        )
    base = TruncSeries.one_minus_x(p, prec)
    members = []
    cur = TruncSeries.one(p, prec)
    for _ in range(prec):
        members.append(pack_series(cur))
        cur = cur * base
    elements = frozenset(members)
    # 1 - x has multiplicative order exactly p^i here, so no collisions
    if len(elements) != prec:
        raise RuntimeError(f"enum_A({p}, {i}) has {len(elements)} members, not {prec}")
    return CensusSet(p=p, level=i, elements=elements)


def _combination(coeffs, members, p, prec):
    total = TruncSeries.zero(p, prec)
    for c, m in zip(coeffs, members):
        if c % p == 0:
            continue
        scaled = TruncSeries(p, (m.coeffs * (c % p)) % p, prec)
        total = total + scaled
    return total


def census_ratio_set(p: int, alpha, beta, k: int, i: int) -> CensusSet:
    """All solutions of r * den = num over census numerators/denominators.

    alpha and beta are coefficient vectors of equal length n >= 1; the
    denominator must lie outside (x^(p^k)), and i >= k.
    """
    p = validate_prime(p)
    alpha = [int(a) % p for a in alpha]
    beta = [int(b) % p for b in beta]
    n = len(alpha)
    if n < 1 or len(beta) != n:
        raise UsageError("alpha and beta must have equal positive length")
    if k < 1:
        raise UsageError("k must be >= 1")
    if i < k:
        raise UsageError(f"census level {i} must be at least k = {k}")
    census = enum_A(p, i)
    prec = census.prec
    pk = p**k
    members = list(census.series())

    nums = [
        _combination(alpha, t, p, prec)
        for t in itertools.product(members, repeat=n)
    ]
    dens = [
        _combination(beta, t, p, prec)
        for t in itertools.product(members, repeat=n)
    ]

    solutions: set[int] = set()
    pairs_scanned = 0
    max_solutions = 0
    for den in dens:
        v = den.valuation()
        if v is None or v >= pk:
            pairs_scanned += len(nums)
            continue  # denominator inside (x^(p^k)): not admissible
        unit_inv = TruncSeries(p, den.coeffs[v:], prec).invert()
        for num in nums:
            pairs_scanned += 1
            if v and num.coeffs[:v].any():
                continue  # x^v does not divide the numerator
            base = TruncSeries(p, num.coeffs[v:], prec) * unit_inv
            # every solution agrees with base below degree prec - v; the
            # top v coefficients are free (the annihilator of x^v)
            count_here = 0
            body = base.coeffs.copy()
            for tail in itertools.product(range(p), repeat=v):
                body[prec - v :] = tail
                solutions.add(pack_series(TruncSeries(p, body, prec)))
                count_here += 1
            max_solutions = max(max_solutions, count_here)
    # the two factors behind the p^(2in + p^k) counting bound
    if pairs_scanned > p ** (2 * i * n):
        raise RuntimeError(f"scanned {pairs_scanned} pairs, above p^(2in)")
    if max_solutions > p**pk:
        raise RuntimeError(f"{max_solutions} solutions for one pair, above p^(p^k)")
    return CensusSet(p=p, level=i, elements=frozenset(solutions))


@dataclass(frozen=True)
class DensityGapResult:
    """A verified ball disjoint from the census at some level."""

    witness: TruncSeries
    level: int
    scanned: int
    log: list = field(default_factory=list)


def density_gap(provider, f: TruncSeries, s: int, i_max: int) -> DensityGapResult:
    """Find g in f + (x^(p^s)) and a level L with census(L) missing g's ball.

    ``provider`` maps a level L to the census set at that level.  Levels
    s+1 .. s+i_max are tried in order; at each level the coset
    representatives of (x^(p^s))/(x^(p^L)) are scanned in lexicographic
    coefficient order, and at most |census| + 1 candidates need looking at
    before a gap is certain (distinct representatives give distinct balls).
    The returned witness is re-verified against every census element by
    direct comparison before being accepted.
    """
    p = f.p
    if s < 0 or i_max < 1:
        raise UsageError("need s >= 0 and i_max >= 1")
    ps = p**s
    log = []
    for step in range(1, i_max + 1):
        level = s + step
        prec = p**level
        census = provider(level)
        if not isinstance(census, CensusSet):
            raise UsageError("provider must return CensusSet instances")
        if census.p != p or census.prec != prec:
            raise UsageError(f"provider returned a set at the wrong level {census.level}")
        coset_count = p ** (prec - ps)
        size = len(census)
        log.append((level, size, coset_count))
        if size >= coset_count:
            continue
        base = np.zeros(prec, dtype=np.int64)
        upto = min(f.prec, prec)
        base[:upto] = f.coeffs[:upto]
        scanned = 0
        for tail in itertools.product(range(p), repeat=prec - ps):
            coeffs = base.copy()
            coeffs[ps:] = (coeffs[ps:] + np.asarray(tail, dtype=np.int64)) % p
            g = TruncSeries(p, coeffs, prec)
            scanned += 1
            if g not in census:
                _verify_gap(census, g)
                return DensityGapResult(witness=g, level=level, scanned=scanned, log=log)
            if scanned > size:  # pigeonhole: a miss must have appeared
                raise AssertionError("pigeonhole violated; census membership is broken")
    raise SearchExhaustedError(
        f"no census gap found through level {s + i_max}", counts=log
    )


def _verify_gap(census: CensusSet, g: TruncSeries) -> None:
    # independent of the hash lookup used by the search: walk every member
    for member in census.series():
        if np.array_equal(member.coeffs, g.coeffs):
            raise AssertionError("gap verification failed: witness is in the census")


# -- tensor representatives over the partial-fraction shift ----------------


@dataclass(frozen=True)
class TensorRep:
    """left (x) x^(-shift), a tensor representative of a Laurent element.

    The canonical form has shift 0 or a left factor with nonzero constant
    term; normalized() applies the relation a*x (x) b = a (x) x*b until
    that holds.
    """

    left: TruncSeries
    shift: int

    def __post_init__(self):
        if self.shift < 0:
            raise UsageError("tensor shift must be nonnegative")

    def is_normalized(self) -> bool:
        if self.left.is_zero():
            return self.shift == 0
        return self.shift == 0 or self.left.coeffs[0] != 0

    def normalized(self) -> "TensorRep":
        if self.left.is_zero():
            return TensorRep(TruncSeries.zero(self.left.p, self.left.prec), 0)
        v = self.left.valuation()
        strip = min(self.shift, v)
        if strip == 0:
            return self
        return TensorRep(self.left.shift_down(strip), self.shift - strip)


def kappa(laurent: LaurentTrunc) -> TensorRep:
    """Rewrite a Laurent element as power-series (x) monomial-shift.

    Nonnegative valuations fold into the left factor; negative valuations
    become the shift, so the result is always normalized.
    """
    if laurent.is_zero():
        return TensorRep(TruncSeries.zero(laurent.p, laurent.prec), 0)
    if laurent.val >= 0:
        return TensorRep(laurent.body.shift_up(laurent.val), 0)
    return TensorRep(laurent.body, -laurent.val)


def mu(rep: TensorRep) -> LaurentTrunc:
    """Multiply out a tensor representative: left * x^(-shift)."""
    if rep.left.is_zero():
        return LaurentTrunc.zero(rep.left.p, rep.left.prec)
    v = rep.left.valuation()
    return LaurentTrunc(v - rep.shift, rep.left.shift_down(v))
