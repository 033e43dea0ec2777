"""Census machinery for the image of tau and its ratio sets.

Level i works in the quotient ring F_p[x]/(x^(p^i)).  The census of the
procyclic image there is the set of powers (1-x)^m, m < p^i, which has
exactly p^i elements.  Ratio sets collect every solution r of

    r * (beta_1 b_1 + ... + beta_n b_n) = alpha_1 a_1 + ... + alpha_n a_n

with the a's and b's drawn from the census and the denominator outside
(x^(p^k)).  A denominator of valuation v < p^k factors as x^v times a
unit u, so the solution set for one pair is either empty (when x^v does
not divide the numerator) or a coset of the annihilator of x^v, which has
p^v elements.  That gives the two counting factors (at most p^(2in) pairs,
at most p^(p^k) solutions per pair) behind the p^(2in + p^k) bound on the
census size; both are checked on every call.

Everything runs on int64 coefficient arrays, one row per series:

* The powers (1-x)^m come from the recurrence row_{m+1} = row_m minus
  row_m shifted up by one, one numpy operation per row.
* Numerators and denominators are (p^(in) x prec) arrays built by
  broadcasting alpha_j * A over the census rows A.  Each distinct
  admissible denominator x^v * u costs one inversion of u and one matmul:
  the numerators divisible by x^v, shifted down by v, times the
  upper-triangular Toeplitz matrix of u^(-1).  A product entry is a sum of
  at most prec terms below p^2, so it stays under
  MAX_CENSUS_PRECISION * MAX_PRIME^2 = 2^48 < 2^63 and the int64 matmul is
  exact; the bound is checked with a raise before any product.  The top v
  coefficients of a solution are free, so each product row stands for the
  p^v packed words base + q * p^(prec - v), q < p^v.

Sets are stored as hash sets of packed words: a series is packed as the
integer sum(c_j * p^j).  ``_pack_rows`` packs many rows at once: b digits
at a time into int64 limbs, with b the largest width that keeps p^b below
2^62, by one matmul against the powers of p, then Horner over the limbs
in Python integers.  Rows are generated and packed in blocks of
_BLOCK_ROWS, so no prec x prec array is ever held; at level (2, 10) that
array would be 8 MB, and 256-row blocks raise the peak RSS of the
benchmark's census pass by about 3.4 MB against 16-row blocks.

The work of a ratio set grows as p^(2i(n+1)), and its arrays as
p^(i(n+1)).  Calls above MAX_CENSUS_WORK = 2^32 are refused with
ResourceLimitError before anything is allocated.  Measured on one core
of a 2-CPU machine at p = 2: n = 2, i = 5 (2^30) 0.5 s; n = 3, i = 4
(2^32) 0.8 s; n = 1, i = 8 (2^32) 8 s; n = 2, i = 6 (2^36) 12 s.  Past
the budget the arrays grow quickly: n = 3, i = 8 would need a 32 GB
numerator array.

The density-gap search scans coset representatives in lexicographic
coefficient order and returns the first ball that misses the census; a
separate element-by-element verifier confirms the miss before the witness
is returned.
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
    "check_census_budget",
    "density_gap",
    "kappa",
    "mu",
]

MAX_CENSUS_PRECISION = 1 << 16
# ratio-set work p^(2i(n+1)) above this is refused (see the module docstring)
MAX_CENSUS_WORK = 1 << 32

# rows generated and packed at a time; bounds the transient arrays
_BLOCK_ROWS = 16


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


def _limb_digits(p: int) -> int:
    """The largest b with p^b < 2^62: digits per int64 limb."""
    b = 1
    while p ** (b + 1) < 1 << 62:
        b += 1
    return b


def _pack_rows(rows: np.ndarray, p: int) -> list[int]:
    """pack_series of every row of a 2-D array of digits in [0, p)."""
    count, length = rows.shape
    b = _limb_digits(p)
    powers = np.int64(p) ** np.arange(b, dtype=np.int64)
    full = length // b * b
    limbs = list((rows[:, :full].reshape(count, full // b, b) @ powers).T.astype(object))
    if full < length:
        limbs.append((rows[:, full:] @ powers[: length - full]).astype(object))
    radix = p**b
    words = limbs.pop()
    while limbs:
        words = words * radix + limbs.pop()
    return words.tolist()


def _power_blocks(p: int, prec: int):
    """Yield the rows (1-x)^m mod p, m = 0 .. prec-1, _BLOCK_ROWS at a time.

    Each block continues from the last row of the one before, the first
    from (1-x)^(-1) = 1 + x + x^2 + ..., and is reduced mod p once: after
    r unreduced steps an entry is below 2^r * p in absolute value.
    """
    prev = np.ones(prec, dtype=np.int64)
    for start in range(0, prec, _BLOCK_ROWS):
        block = np.empty((min(_BLOCK_ROWS, prec - start), prec), dtype=np.int64)
        for row in block:
            row[0] = prev[0]
            np.subtract(prev[1:], prev[:-1], out=row[1:])
            prev = row
        np.mod(block, p, out=block)
        yield block


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
    elements = frozenset(
        itertools.chain.from_iterable(_pack_rows(b, p) for b in _power_blocks(p, prec))
    )
    # 1 - x has multiplicative order exactly p^i here, so no collisions
    if len(elements) != prec:
        raise RuntimeError(f"enum_A({p}, {i}) has {len(elements)} members, not {prec}")
    return CensusSet(p=p, level=i, elements=elements)


def check_census_budget(p: int, n: int, i: int) -> None:
    """Refuse a level-i ratio set with n terms whose work p^(2i(n+1)) is too big."""
    p = validate_prime(p)
    if n < 1:
        raise UsageError("alpha and beta must have equal positive length")
    work = p ** (2 * i * (n + 1))
    if work > MAX_CENSUS_WORK:
        raise ResourceLimitError(
            f"census ratio set at p={p}, n={n}, i={i} needs p^(2i(n+1)) = {work} "
            f"steps > {MAX_CENSUS_WORK}"
        )


def _combinations(coeffs, rows: np.ndarray, p: int) -> np.ndarray:
    """sum_j coeffs[j] * rows[t_j] mod p for every n-tuple t, in product order."""
    out = np.zeros((1, rows.shape[1]), dtype=np.int64)
    for c in coeffs:
        out = ((out[:, None, :] + c * rows[None, :, :]) % p).reshape(-1, rows.shape[1])
    return out


def _valuations(rows: np.ndarray) -> np.ndarray:
    """Index of each row's lowest nonzero entry, or the row length for zero."""
    nonzero = rows != 0
    return np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), rows.shape[1])


def _distinct(rows: np.ndarray, p: int) -> dict[int, list[int]]:
    """Packed word of each distinct row -> [first row index, multiplicity]."""
    groups: dict[int, list[int]] = {}
    for idx, word in enumerate(_pack_rows(rows, p)):
        entry = groups.setdefault(word, [idx, 0])
        entry[1] += 1
    return groups


def _toeplitz(coeffs: np.ndarray) -> np.ndarray:
    """T with T[a, b] = coeffs[b - a] for b >= a, else 0: row @ T multiplies."""
    w = coeffs.size
    padded = np.concatenate([np.zeros(w - 1, dtype=np.int64), coeffs])
    idx = np.arange(w)
    return padded[(w - 1) + idx[None, :] - idx[:, None]]


def _ratio_scan(p: int, alpha, beta, k: int, i: int):
    """Solutions of r * den = num as packed words, with the two counting factors.

    Returns (solutions, pairs_scanned, max_solutions); see census_ratio_set.
    """
    prec = p**i
    pk = p**k
    if prec * (p - 1) ** 2 >= 1 << 63:
        raise ResourceLimitError(f"Toeplitz products at p={p}, prec={prec} overflow int64")
    rows = np.concatenate(list(_power_blocks(p, prec)))
    nums = _combinations(alpha, rows, p)
    dens = _combinations(beta, rows, p)
    num_count = len(nums)
    nums = nums[[idx for idx, _ in _distinct(nums, p).values()]]
    num_vals = _valuations(nums)
    den_vals = _valuations(dens)

    solutions: set[int] = set()
    pairs_scanned = 0
    max_solutions = 0
    for idx, mult in _distinct(dens, p).values():
        pairs_scanned += mult * num_count
        v = int(den_vals[idx])
        if v >= pk:
            continue  # denominator inside (x^(p^k)): not admissible
        divisible = nums[num_vals >= v]  # x^v must divide the numerator
        if not len(divisible):
            continue
        max_solutions = max(max_solutions, p**v)
        w = prec - v
        unit_inv = TruncSeries(p, dens[idx, v:], w).invert()
        base = (divisible[:, v:] @ _toeplitz(unit_inv.coeffs)) % p
        # every solution agrees with base below degree w; the top v
        # coefficients are free (the annihilator of x^v)
        step = p**w
        for word in set(_pack_rows(base, p)):
            solutions.update(range(word, word + step * p**v, step))
    return solutions, pairs_scanned, max_solutions


def census_ratio_set(p: int, alpha, beta, k: int, i: int) -> CensusSet:
    """All solutions of r * den = num over census numerators/denominators.

    alpha and beta are coefficient vectors of equal length n >= 1; the
    denominator must lie outside (x^(p^k)), and i >= k.  Raises
    ResourceLimitError when the work p^(2i(n+1)) exceeds MAX_CENSUS_WORK.
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
    check_census_budget(p, n, i)
    solutions, pairs_scanned, max_solutions = _ratio_scan(p, alpha, beta, k, i)
    # the two factors behind the p^(2in + p^k) counting bound
    if pairs_scanned > p ** (2 * i * n):
        raise RuntimeError(f"scanned {pairs_scanned} pairs, above p^(2in)")
    if max_solutions > p ** (p**k):
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
