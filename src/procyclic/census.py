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

The census itself is held as packed words (below) and built level by
level with no coefficient rows above level 1.  Level 1 packs the p rows
of (1-x)^m, m < p.  The Frobenius identity (1-x)^(a p^k + r) =
(1 - x^(p^k))^a (1-x)^r, which is Lucas' theorem on C(m, j) mod p, then
makes each word of level k + 1 a sum of level-k words, scaled by the
digits of row a of level 1 and placed in disjoint p^k-digit ranges, so
exact Python-int arithmetic builds it with no carries.  At level 1 alone
a large prime keeps its rows in blocks of _BLOCK_ROWS (at p = 2039 the
p x p array would be 33 MB); a higher level admits only p <= 73, whose
level-1 arrays are tiny.

Ratio sets run on int64 coefficient arrays, one row per series:

* The powers (1-x)^m come from the recurrence row_{m+1} = row_m minus
  row_m shifted up by one, one numpy operation per row, a block of
  _BLOCK_ROWS rows at a time.
* Numerators and denominators are (p^(in) x prec) arrays built by
  broadcasting alpha_j * A over the census rows A.  The distinct
  admissible denominators x^v * u are handled one valuation v at a time.
  The unit parts
  of a class are inverted together by the column recurrence
  b_0 = u_0^(-1), b_j = -b_0 * sum_{l=1..j} u_l b_(j-l) mod p, one numpy
  step per coefficient.  A partial sum of the recurrence has at most
  prec terms below p^2, so it stays under prec * (p-1)^2; MAX_CENSUS_WORK
  caps prec^4 <= p^(2i(n+1)) at 2^32, so that is below prec^3 <= 2^24 <
  2^63 and int64 is exact, which is checked with a raise.  Then, in
  chunks of a few denominators, the numerators divisible by x^v (shifted
  down by v) are multiplied by the stacked upper-triangular Toeplitz
  matrices of the inverses in one exact float64 product,
  linfp.matmul_mod, and the product rows are packed in one call.  Each
  chunk's product holds at most _CHUNK_ENTRIES entries.  The top v
  coefficients of a solution are free, so each distinct packed word of a
  class stands for the p^v words base + q * p^(prec - v), q < p^v.

Sets are stored as hash sets of packed words: a series is packed as the
integer sum(c_j * p^j).  ``_pack_rows`` packs many rows at once.  A row
of at most b digits, with b the largest width that keeps p^b below 2^62,
is one matmul against the powers of p (cached per p).  At p = 2 a longer
row is its bit pattern: np.packbits and int.from_bytes.  At odd p a
longer row is cut into b-digit int64 limbs by one matmul, and each row's
limbs are joined by one Horner loop over Python integers, most
significant limb first.

The work of a ratio set grows as p^(2i(n+1)), and its arrays as
p^(i(n+1)).  Calls above MAX_CENSUS_WORK = 2^32 are refused with
ResourceLimitError before anything is allocated.  Measured on one core
of a 2-CPU machine at p = 2 (best of 3, BLAS on one thread): n = 2,
i = 5 (2^30) 0.044 s; n = 3, i = 4 (2^32) 0.053 s; n = 1, i = 8 (2^32)
0.47 s; n = 2, i = 6 (2^36, budget raised, one run) 2.7 s.  Past the
budget the arrays grow quickly: n = 3, i = 8 would need a 32 GB
numerator array.

The density-gap search takes the census of each level from enum_A, scans
coset representatives in lexicographic coefficient order and returns the
first ball that misses the census; a separate element-by-element verifier
confirms the miss before the witness is returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ResourceLimitError, SearchExhaustedError, UsageError, exact_int, exact_ints
from .fpx import LaurentTrunc, TruncSeries, mod_p, validate_prime
from .linfp import matmul_mod

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

# ratio-set work p^(2i(n+1)) above this is refused (see the module docstring)
MAX_CENSUS_WORK = 1 << 32
# enum_A holds p^i packed words of p^i digits, prec^2 * bit_length(p - 1)
# bits in all; above 2^28 bits (32 MiB) it is refused, so prec <= 2^14
MAX_CENSUS_BITS = 1 << 28

# rows generated and packed at a time; bounds the transient arrays
_BLOCK_ROWS = 16
# int64 entries of one ratio-set product chunk (32 KiB)
_CHUNK_ENTRIES = 1 << 12


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


@lru_cache(maxsize=16)
def _limb_powers(p: int) -> np.ndarray:
    """p^0 .. p^(b-1) for the largest b with p^b < 2^62: one int64 limb's digits."""
    b = 1
    while p ** (b + 1) < 1 << 62:
        b += 1
    powers = np.int64(p) ** np.arange(b, dtype=np.int64)
    powers.flags.writeable = False
    return powers


def _pack_rows(rows: np.ndarray, p: int) -> list[int]:
    """pack_series of every row of a 2-D array of digits in [0, p)."""
    count, length = rows.shape
    powers = _limb_powers(p)
    b = powers.size
    if length <= b:
        return (rows @ powers[:length]).tolist()
    if p == 2:
        # the word is the row's bit pattern, lowest coefficient first
        packed = np.packbits(rows.astype(bool), axis=1, bitorder="little")
        width = packed.shape[1]
        data = packed.tobytes()
        return [int.from_bytes(data[s : s + width], "little") for s in range(0, len(data), width)]
    full = length // b * b
    limbs = rows[:, :full].reshape(count, full // b, b) @ powers
    if full < length:
        top = rows[:, full:] @ powers[: length - full]
        limbs = np.concatenate([limbs, top[:, None]], axis=1)
    radix = p**b
    words = []
    for row in limbs[:, ::-1].tolist():
        word = 0
        for limb in row:
            word = word * radix + limb
        words.append(word)
    return words


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
        mod_p(block, p, out=block)
        yield block


def _scaled_power_words(p: int, k: int, scales) -> dict[int, list[int]]:
    """T_k[c] for c in scales: the packed words of c * (1-x)^m mod (p, x^(p^k)), m < p^k.

    Each list is in order of m, and scales must lie in [1, p).  Level 1 is
    packed from _power_blocks(p, p).  With row a of level 1 giving
    B[a][l] = (-1)^l C(a, l) mod p, nonzero for l <= a < p and zero above,
    the Frobenius identity (1-x)^(a p^j + r) = (1 - x^(p^j))^a (1-x)^r
    (Lucas' theorem on C(m, l) mod p) lifts level j to level j + 1:

        T_(j+1)[c][a p^j + r] = sum_(l <= a) T_j[c B[a][l] mod p][r] * p^(l p^j).

    The terms fill disjoint p^j-digit ranges with digits already in
    [0, p), so nothing carries and Horner's rule over l is exact.  Levels
    below k are built for every unit scale; the top only for scales.
    """
    if k == 1:  # p may be large here: keep the rows in blocks
        tables = {c: [] for c in scales}
        for block in _power_blocks(p, p):
            for c in scales:
                tables[c] += _pack_rows(block if c == 1 else mod_p(c * block, p), p)
        return tables
    units = range(1, p)
    tables = _scaled_power_words(p, 1, units)
    # MAX_CENSUS_BITS admits k >= 2 only for p <= 73: the p x p array is small
    coef = np.concatenate(list(_power_blocks(p, p))).tolist()  # B[a][l]
    size = p  # p^j at level j
    for j in range(1, k):
        lifted = {}
        for c in scales if j == k - 1 else units:
            if p == 2:  # radix 2^size: a shift, where CPython would multiply
                lifted[c] = tables[1] + [w | w << size for w in tables[1]]
                continue
            radix = p**size
            out = []
            for a in range(p):
                for parts in zip(*[tables[c * b % p] for b in coef[a][a::-1]]):
                    word = 0
                    for part in parts:
                        word = word * radix + part
                    out.append(word)
            lifted[c] = out
        tables, size = lifted, size * p
    return tables


def check_enum_budget(p: int, i: int) -> int:
    """p^i, or ResourceLimitError if enum_A(p, i) holds over MAX_CENSUS_BITS bits.

    i is compared with the highest level the budget admits first, so a
    huge level is refused without forming p^i; past 64 bits the word
    count is written as p^i.
    """
    digit_bits = (p - 1).bit_length()
    top, prec = 0, p
    while prec * prec * digit_bits <= MAX_CENSUS_BITS:
        top, prec = top + 1, prec * p
    if i <= top:
        return p**i
    if i * p.bit_length() > 64:
        raise ResourceLimitError(
            f"census at p={p}, level {i} holds {p}^{i} words of {p}^{i} digits, "
            f"over {MAX_CENSUS_BITS} bits"
        )
    prec = p**i
    raise ResourceLimitError(
        f"census at p={p}, level {i} holds {prec} words of {prec} digits, "
        f"{prec * prec * digit_bits} bits > {MAX_CENSUS_BITS}"
    )


def enum_A(p: int, i: int) -> CensusSet:
    """All powers (1-x)^m mod x^(p^i); exactly p^i distinct elements."""
    p = validate_prime(p)
    i = exact_int(i, "census level")
    if i < 1:
        raise UsageError("census level must be >= 1")
    prec = check_enum_budget(p, i)
    elements = frozenset(_scaled_power_words(p, i, (1,))[1])
    # 1 - x has multiplicative order exactly p^i here, so no collisions
    if len(elements) != prec:
        raise RuntimeError(f"enum_A({p}, {i}) has {len(elements)} members, not {prec}")
    return CensusSet(p=p, level=i, elements=elements)


def check_census_budget(p: int, n: int, i: int) -> None:
    """Refuse a level-i ratio set with n terms whose work p^(2i(n+1)) is too big.

    Exponents are compared, so a huge level is refused without forming p^e.
    """
    p = validate_prime(p)
    if n < 1:
        raise UsageError("alpha and beta must have equal positive length")
    top, work = 0, p
    while work <= MAX_CENSUS_WORK:
        top, work = top + 1, work * p
    e = 2 * i * (n + 1)
    if e > top:
        work = p**e if e <= 64 and p**e <= 1 << 64 else f"{p}^{e}"
        raise ResourceLimitError(
            f"census ratio set at p={p}, n={n}, i={i} needs p^(2i(n+1)) = {work} "
            f"steps > {MAX_CENSUS_WORK}"
        )


def _combinations(coeffs, rows: np.ndarray, p: int) -> np.ndarray:
    """sum_j coeffs[j] * rows[t_j] mod p for every n-tuple t, in product order."""
    out = np.zeros((1, rows.shape[1]), dtype=np.int64)
    for c in coeffs:
        out = out[:, None, :] + c * rows[None, :, :]
        out = mod_p(out, p, out=out).reshape(-1, rows.shape[1])
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


def _unit_inverses(units: np.ndarray, p: int) -> np.ndarray:
    """The inverse mod x^w of each row of a (count x w) array of units mod p.

    Column recurrence b_0 = u_0^(-1), b_j = -b_0 * sum_{l=1..j} u_l b_(j-l),
    one vectorised step per column.  A partial sum has fewer than w terms
    below p^2, so it stays under prec * (p-1)^2 < 2^63, which _ratio_scan
    checks first.
    """
    w = units.shape[1]
    table = np.array([0] + [pow(c, -1, p) for c in range(1, p)], dtype=np.int64)
    out = np.empty_like(units)
    out[:, 0] = table[units[:, 0]]
    minus_b0 = p - out[:, 0]
    for j in range(1, w):
        total = np.einsum("rl,rl->r", units[:, 1 : j + 1], out[:, j - 1 :: -1])
        mod_p(total, p, out=total)
        total *= minus_b0
        out[:, j] = mod_p(total, p, out=total)
    return out


def _toeplitz_stack(coeffs: np.ndarray) -> np.ndarray:
    """T[r] with T[r, a, b] = coeffs[r, b - a] for b >= a, else 0: row @ T[r] multiplies."""
    count, w = coeffs.shape
    padded = np.zeros((count, 2 * w - 1), dtype=np.int64)
    padded[:, w - 1 :] = coeffs
    idx = np.arange(w)
    return padded[:, (w - 1) + idx[None, :] - idx[:, None]]


def _ratio_scan(p: int, alpha, beta, k: int, i: int):
    """Solutions of r * den = num as packed words, with the two counting factors.

    Returns (solutions, pairs_scanned, max_solutions); see census_ratio_set.
    """
    prec = p**i
    pk = p**k
    if prec * (p - 1) ** 2 >= 1 << 63:
        raise ResourceLimitError(f"unit inverses at p={p}, prec={prec} overflow int64")
    rows = np.concatenate(list(_power_blocks(p, prec)))
    nums = _combinations(alpha, rows, p)
    dens = _combinations(beta, rows, p)
    num_count = len(nums)
    nums = nums[[idx for idx, _ in _distinct(nums, p).values()]]
    num_vals = _valuations(nums)
    den_vals = _valuations(dens)

    # distinct admissible denominators, by valuation
    classes: dict[int, list[int]] = {}
    pairs_scanned = 0
    for idx, mult in _distinct(dens, p).values():
        pairs_scanned += mult * num_count
        v = int(den_vals[idx])
        if v < pk:  # else the denominator lies in (x^(p^k)): not admissible
            classes.setdefault(v, []).append(idx)

    solutions: set[int] = set()
    max_solutions = 0
    for v, idxs in classes.items():
        divisible = nums[num_vals >= v, v:]  # x^v must divide the numerator
        if not len(divisible):
            continue
        max_solutions = max(max_solutions, p**v)
        w = prec - v
        inverses = _unit_inverses(dens[idxs, v:], p)
        chunk = max(1, _CHUNK_ENTRIES // (max(len(divisible), w) * w))
        words: set[int] = set()
        for start in range(0, len(inverses), chunk):
            product = matmul_mod(divisible, _toeplitz_stack(inverses[start : start + chunk]), p)
            words.update(_pack_rows(product.reshape(-1, w), p))
        # every solution agrees with a word below degree w; the top v
        # coefficients are free (the annihilator of x^v)
        solutions |= words
        step = p**w
        for offset in range(step, step * p**v, step):
            solutions.update([word + offset for word in words])
    return solutions, pairs_scanned, max_solutions


def census_ratio_set(p: int, alpha, beta, k: int, i: int) -> CensusSet:
    """All solutions of r * den = num over census numerators/denominators.

    alpha and beta are coefficient vectors of equal length n >= 1; the
    denominator must lie outside (x^(p^k)), and i >= k.  Raises
    ResourceLimitError when the work p^(2i(n+1)) exceeds MAX_CENSUS_WORK.
    """
    p = validate_prime(p)
    alpha = exact_ints(alpha, "alpha coefficient", mod=p)
    beta = exact_ints(beta, "beta coefficient", mod=p)
    n = len(alpha)
    if n < 1 or len(beta) != n:
        raise UsageError("alpha and beta must have equal positive length")
    k = exact_int(k, "k")
    i = exact_int(i, "census level")
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


def density_gap(f: TruncSeries, s: int, i_max: int) -> DensityGapResult:
    """Find g in f + (x^(p^s)) and a level L with enum_A(p, L) missing g's ball.

    Levels s+1 .. s+i_max are tried in order; at each level the coset
    representatives of (x^(p^s))/(x^(p^L)) are scanned in lexicographic
    coefficient order, and at most |census| + 1 candidates need looking at
    before a gap is certain (distinct representatives give distinct balls).
    The returned witness is re-verified against every census element by
    direct comparison before being accepted.
    """
    if not isinstance(f, TruncSeries):
        raise UsageError(f"expected TruncSeries, got {type(f).__name__}")
    p = f.p
    s, i_max = exact_int(s, "s"), exact_int(i_max, "i_max")
    if s < 0 or i_max < 1:
        raise UsageError("need s >= 0 and i_max >= 1")
    ps = p**s
    log = []
    for step in range(1, i_max + 1):
        level = s + step
        prec = p**level
        census = enum_A(p, level)
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
        if not isinstance(self.left, TruncSeries):
            raise UsageError(f"expected TruncSeries, got {type(self.left).__name__}")
        if exact_int(self.shift, "tensor shift") < 0:
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
    if not isinstance(laurent, LaurentTrunc):
        raise UsageError(f"expected LaurentTrunc, got {type(laurent).__name__}")
    if laurent.is_zero():
        return TensorRep(TruncSeries.zero(laurent.p, laurent.prec), 0)
    if laurent.val >= 0:
        return TensorRep(laurent.body.shift_up(laurent.val), 0)
    return TensorRep(laurent.body, -laurent.val)


def mu(rep: TensorRep) -> LaurentTrunc:
    """Multiply out a tensor representative: left * x^(-shift)."""
    if not isinstance(rep, TensorRep):
        raise UsageError(f"expected TensorRep, got {type(rep).__name__}")
    return LaurentTrunc.from_series(rep.left, -rep.shift)
