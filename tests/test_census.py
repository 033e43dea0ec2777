"""Census enumeration against an exhaustive solver, and the gap search."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from procyclic import (
    CensusSet,
    LaurentTrunc,
    ResourceLimitError,
    SearchExhaustedError,
    TensorRep,
    TruncSeries,
    UsageError,
    census_ratio_set,
    density_gap,
    enum_A,
    kappa,
    mu,
    pack_series,
    unpack_series,
)
import procyclic.census
from procyclic.census import (
    _limb_powers,
    _pack_rows,
    _power_blocks,
    _ratio_scan,
    _scaled_power_words,
    _toeplitz_stack,
    _unit_inverses,
    check_census_budget,
)


def ratio_set_oracle(p, alpha, beta, k, i):
    """Exhaustive solve: try every ring element against every pair."""
    prec = p**i
    members = list(enum_A(p, i).series())
    n = len(alpha)
    ring = [unpack_series(p, prec, v) for v in range(p**prec)]
    found = set()
    for bs in itertools.product(members, repeat=n):
        den = TruncSeries.zero(p, prec)
        for coef, b in zip(beta, bs):
            den = den + TruncSeries(p, (b.coeffs * coef) % p, prec)
        v = den.valuation()
        if v is None or v >= p**k:
            continue
        for as_ in itertools.product(members, repeat=n):
            num = TruncSeries.zero(p, prec)
            for coef, a in zip(alpha, as_):
                num = num + TruncSeries(p, (a.coeffs * coef) % p, prec)
            for r in ring:
                if r * den == num:
                    found.add(pack_series(r))
    return found


def _combination(coeffs, members, p, prec):
    total = TruncSeries.zero(p, prec)
    for c, m in zip(coeffs, members):
        if c % p == 0:
            continue
        scaled = TruncSeries(p, (m.coeffs * (c % p)) % p, prec)
        total = total + scaled
    return total


def _ratio_set_per_pair(p, alpha, beta, k, i):
    """The per-pair loop: one inversion and one product per admissible pair.

    Returns (solutions, pairs_scanned, max_solutions) like _ratio_scan.
    """
    alpha = [a % p for a in alpha]
    beta = [b % p for b in beta]
    prec = p**i
    pk = p**k
    members = list(_powers_by_products(p, i))
    nums = [_combination(alpha, t, p, prec) for t in itertools.product(members, repeat=len(alpha))]
    dens = [_combination(beta, t, p, prec) for t in itertools.product(members, repeat=len(beta))]
    solutions = set()
    pairs_scanned = 0
    max_solutions = 0
    for den in dens:
        v = den.valuation()
        if v is None or v >= pk:
            pairs_scanned += len(nums)
            continue
        unit_inv = TruncSeries(p, den.coeffs[v:], prec).invert()
        for num in nums:
            pairs_scanned += 1
            if v and num.coeffs[:v].any():
                continue
            base = TruncSeries(p, num.coeffs[v:], prec) * unit_inv
            count_here = 0
            body = base.coeffs.copy()
            for tail in itertools.product(range(p), repeat=v):
                body[prec - v :] = tail
                solutions.add(pack_series(TruncSeries(p, body, prec)))
                count_here += 1
            max_solutions = max(max_solutions, count_here)
    return solutions, pairs_scanned, max_solutions


def _powers_by_products(p, i):
    """(1-x)^m for m < p^i by repeated products."""
    prec = p**i
    base = TruncSeries.one_minus_x(p, prec)
    cur = TruncSeries.one(p, prec)
    for _ in range(prec):
        yield cur
        cur = cur * base


def _lucas_power_blocks(p, i):
    """(1-x)^m, m < p^i, 64 rows at a time, from (-1)^j C(m, j) mod p by Lucas' theorem."""
    prec = p**i
    j = np.arange(prec)
    sign = np.where(j % 2 == 0, 1, p - 1)
    comb = np.array([[math.comb(a, d) % p for d in range(p)] for a in range(p)])
    for start in range(0, prec, 64):
        mm, jj = np.arange(start, min(start + 64, prec))[:, None], j
        coeff = sign
        for _ in range(i):
            coeff = coeff * comb[mm % p, jj % p] % p
            mm, jj = mm // p, jj // p
        yield coeff


def _lucas_power_words(p, i):
    """Packed (1-x)^m, m < p^i, by Lucas' theorem."""
    return {w for block in _lucas_power_blocks(p, i) for w in _pack_rows(block, p)}


# -- enum_A --------------------------------------------------------------------


@pytest.mark.parametrize("p,i", ((2, 10), (3, 6), (5, 4), (7, 2)))
def test_enum_A_matches_lucas(p, i):
    assert enum_A(p, i).elements == _lucas_power_words(p, i)


@pytest.mark.parametrize("p,i", ((2, 10), (3, 4), (5, 3), (7, 2), (11, 1)))
def test_enum_A_matches_repeated_products(p, i):
    expected = {pack_series(f) for f in _powers_by_products(p, i)}
    assert enum_A(p, i).elements == expected


@pytest.mark.parametrize("p,i", ((2, 12), (3, 7), (11, 2), (13, 1), (61, 2), (251, 1)))
def test_enum_A_matches_every_oracle(p, i):
    # the rows by the (1-x)-recurrence, packed block by block, against the
    # words; then the rows by Lucas' theorem and by products against them
    old_rows, old_words = set(), set()
    for block in _power_blocks(p, p**i):
        old_rows.update(row.tobytes() for row in block)
        old_words.update(_pack_rows(block, p))
    assert enum_A(p, i).elements == old_words
    assert {row.tobytes() for block in _lucas_power_blocks(p, i) for row in block} == old_rows
    assert {f.coeffs.tobytes() for f in _powers_by_products(p, i)} == old_rows


@pytest.mark.parametrize("p,k", ((2, 1), (2, 5), (3, 1), (3, 3), (5, 1), (5, 2), (7, 2), (13, 1)))
def test_scaled_power_words_match_pack_series(p, k):
    # T_k[c] for every unit c; T_k[0] is zero and never formed
    prec = p**k
    tables = _scaled_power_words(p, k, range(1, p))
    assert list(tables) == list(range(1, p))
    powers = [f.coeffs for f in _powers_by_products(p, k)]
    for c, words in tables.items():
        assert words == [pack_series(TruncSeries(p, c * f % p, prec)) for f in powers]
    # the top level alone, as enum_A asks for it
    assert _scaled_power_words(p, k, (1,)) == {1: tables[1]}


def test_enum_A_level_one():
    cs = enum_A(2, 1)
    assert {str(s) for s in cs.series()} == {"1", "1 + x"}


def test_enum_A_level_two_explicit():
    cs = enum_A(2, 2)
    expected = {
        TruncSeries(2, [1], 4),
        TruncSeries(2, [1, 1], 4),
        TruncSeries(2, [1, 0, 1], 4),
        TruncSeries(2, [1, 1, 1, 1], 4),
    }
    assert set(cs.series()) == expected


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("i", range(1, 5))
def test_enum_A_cardinality(p, i):
    assert len(enum_A(p, i)) == p**i


def test_enum_A_budget():
    with pytest.raises(ResourceLimitError):
        enum_A(2, 17)
    with pytest.raises(UsageError):
        enum_A(2, 0)


class _Admitted(Exception):
    pass


def test_enum_A_bit_budget_refuses_before_any_work(monkeypatch):
    import procyclic.census

    def no_work(*args):
        raise _Admitted

    monkeypatch.setattr(procyclic.census, "_scaled_power_words", no_work)
    # prec^2 * bit_length(p - 1) bits against 2^28; the refused calls never run
    for p, i in ((2, 15), (2, 16), (3, 9), (5, 6), (65521, 1)):
        with pytest.raises(ResourceLimitError, match=f"census at p={p}, level {i} "):
            enum_A(p, i)
    for p, i in ((2, 14), (3, 8), (5, 5), (251, 1)):
        with pytest.raises(_Admitted):
            enum_A(p, i)


@pytest.mark.parametrize(
    "p,prec",
    [(2, n) for n in (1, 7, 9, 61, 62, 63, 64, 128, 1023, 1024)]
    # b - 1, b, b + 1 and a multiple of b digits, b the limb width at p
    + [(3, n) for n in (38, 39, 40, 81, 117)]
    + [(5, n) for n in (25, 26, 27, 78)]
    + [(7, n) for n in (21, 22, 23, 66)]
    + [(65521, n) for n in (3, 4, 5)],
)
def test_pack_rows_matches_pack_series(p, prec):
    rng = np.random.default_rng(p * 1000 + prec)
    rows = np.vstack(
        [
            rng.integers(0, p, size=(6, prec)),
            np.full((1, prec), p - 1),  # every limb at its maximum
            np.zeros((1, prec), dtype=np.int64),
        ]
    )
    expected = [pack_series(TruncSeries(p, row, prec)) for row in rows]
    assert _pack_rows(rows, p) == expected
    for r in (0, 6):  # single-row blocks
        assert _pack_rows(rows[r : r + 1], p) == expected[r : r + 1]


def test_limb_widths():
    # the limb widths b behind the packing edges above
    assert [_limb_powers(p).size for p in (2, 3, 5, 7)] == [61, 39, 26, 22]


def _traced_peak(call):
    call()  # warm: caches and lazy imports are not counted
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_enum_A_peak_memory():
    # 0.14 MB traced: 1024 words of at most 1024 bits and the 512 words of
    # level 9, with no coefficient rows above level 1; a bound on the
    # transient memory behind the census workload's peak RSS
    assert _traced_peak(lambda: enum_A(2, 10)) <= 512 * 1024


def test_enum_A_large_prime_keeps_rows_in_blocks():
    # level 1 at p = 2039 packs 16-row blocks (3.7 MB traced); the whole
    # 2039 x 2039 int64 array would be 33 MB
    assert _traced_peak(lambda: enum_A(2039, 1)) <= 8 << 20


def test_pack_unpack_roundtrip():
    rng = random.Random(1)
    for p in (2, 5):
        f = TruncSeries(p, [rng.randrange(p) for _ in range(9)], 9)
        assert unpack_series(p, 9, pack_series(f)) == f


# -- ratio sets -------------------------------------------------------------------


@pytest.mark.parametrize("i", (1, 2, 3))
def test_ratio_set_matches_exhaustive_oracle(i):
    cs = census_ratio_set(2, [1], [1], 1, i)
    assert cs.elements == frozenset(ratio_set_oracle(2, [1], [1], 1, i))


def test_ratio_set_oracle_two_terms():
    cs = census_ratio_set(2, [1, 1], [1, 1], 1, 2)
    assert cs.elements == frozenset(ratio_set_oracle(2, [1, 1], [1, 1], 1, 2))


def test_ratio_set_oracle_p3():
    cs = census_ratio_set(3, [1], [2], 1, 1)
    assert cs.elements == frozenset(ratio_set_oracle(3, [1], [2], 1, 1))


def _ratio_grid():
    top = {2: {1: 3, 2: 4}, 3: {1: 3, 2: 2}, 5: {1: 2, 2: 1}}
    for p, tops in top.items():
        for n, i_max in tops.items():
            for k in (1, 2):
                for i in range(k, i_max + 1):
                    yield p, [1] * n, [1] * n, k, i


# (2, [1, 1], [1, 1], 1, 4) from the grid spans more than one product chunk
# in its valuation-1 class: test_ratio_set_chunks_split_a_valuation_class
RATIO_CASES = list(_ratio_grid()) + [
    (3, [1, 0], [2, 1], 1, 2),
    (2, [0, 1], [1, 1], 1, 3),
    (3, [0, 1], [1, 1], 1, 2),
    (2, [0, 0], [1, 1], 1, 3),
    (3, [0], [2], 1, 2),
    (3, [1, 1], [1, 2], 1, 2),
    (3, [2, 1], [0, 1], 2, 2),
    (5, [1, 1], [1, 4], 1, 1),
    (5, [3], [0], 1, 1),
]


@pytest.mark.parametrize("p,alpha,beta,k,i", RATIO_CASES)
def test_ratio_set_matches_per_pair_loop(p, alpha, beta, k, i):
    solutions, pairs, max_solutions = _ratio_set_per_pair(p, alpha, beta, k, i)
    assert _ratio_scan(p, alpha, beta, k, i) == (solutions, pairs, max_solutions)
    assert pairs == p ** (2 * i * len(alpha))
    assert census_ratio_set(p, alpha, beta, k, i).elements == frozenset(solutions)


def test_ratio_set_chunks_split_a_valuation_class(monkeypatch):
    shapes = []

    def recorded(coeffs):
        shapes.append(coeffs.shape)
        return _toeplitz_stack(coeffs)

    monkeypatch.setattr(procyclic.census, "_toeplitz_stack", recorded)
    _ratio_scan(2, [1, 1], [1, 1], 1, 4)
    # every admissible denominator has valuation 1 (width 15), in several chunks
    assert {w for _, w in shapes} == {15}
    assert len(shapes) > 1
    assert sum(count for count, _ in shapes) == 64


@pytest.mark.parametrize("entries", (1, 1 << 30))
@pytest.mark.parametrize(
    "p,alpha,beta,k,i",
    ((2, [1, 1], [1, 1], 1, 3), (3, [1, 1], [1, 2], 1, 2), (2, [1], [1], 2, 3), (5, [1, 1], [1, 4], 1, 1)),
)
def test_ratio_set_independent_of_chunk_size(p, alpha, beta, k, i, entries, monkeypatch):
    # one denominator per chunk, and one chunk per valuation class
    expected = _ratio_set_per_pair(p, alpha, beta, k, i)
    monkeypatch.setattr(procyclic.census, "_CHUNK_ENTRIES", entries)
    assert _ratio_scan(p, alpha, beta, k, i) == expected


def test_ratio_set_peak_memory():
    # 0.24 MB traced with 32 KiB product chunks; a bound on the transient
    # arrays behind the census workload's peak RSS
    assert _traced_peak(lambda: census_ratio_set(2, [1, 1], [1, 1], 1, 4)) <= 512 * 1024


@pytest.mark.parametrize("p", (2, 3, 5, 7))
@pytest.mark.parametrize("w", (1, 2, 16, 27, 81))
def test_unit_inverses_match_invert(p, w):
    rng = np.random.default_rng(p * 100 + w)
    units = rng.integers(0, p, size=(2 * p, w))
    # the constant terms run through every unit of F_p, not only 1
    units[:, 0] = np.arange(2 * p) % (p - 1) + 1
    inverses = _unit_inverses(units, p)
    for unit, inverse in zip(units, inverses):
        assert np.array_equal(inverse, TruncSeries(p, unit, w).invert().coeffs)


def test_ratio_set_zero_alpha_contains_zero():
    cs = census_ratio_set(2, [0], [1], 1, 2)
    assert 0 in cs.elements


def test_ratio_set_counting_bound_and_decay():
    sizes = []
    for i in range(1, 5):
        cs = census_ratio_set(2, [1], [1], 1, i)
        assert len(cs) <= 2 ** (2 * i + 2)
        sizes.append(len(cs))
    ratios = [s / 2 ** (2**i) for i, s in zip(range(1, 5), sizes)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1e-3


def test_ratio_set_work_budget():
    check_census_budget(2, 1, 8)  # 2^32: at the budget
    with pytest.raises(ResourceLimitError, match=r"p=2, n=1, i=9 .* = 68719476736"):
        check_census_budget(2, 1, 9)
    with pytest.raises(ResourceLimitError, match="p=2, n=2, i=6"):
        census_ratio_set(2, [1, 1], [1, 1], 1, 6)
    with pytest.raises(ResourceLimitError, match="p=3, n=3, i=3"):
        census_ratio_set(3, [1, 1, 1], [1, 1, 1], 1, 3)


def test_ratio_set_validation():
    with pytest.raises(UsageError):
        census_ratio_set(2, [1], [1], 2, 1)  # i < k
    with pytest.raises(UsageError):
        census_ratio_set(2, [], [], 1, 1)
    with pytest.raises(UsageError):
        census_ratio_set(2, [1, 1], [1], 1, 1)


# -- density gap -------------------------------------------------------------------


def test_density_gap_over_enum():
    result = density_gap(TruncSeries.zero(2, 2), 1, 4)
    assert result.level <= 5
    census = enum_A(2, result.level)
    assert result.witness not in census
    assert result.witness.prec == 2**result.level


def test_density_gap_respects_center():
    f = TruncSeries.one(2, 2)
    result = density_gap(f, 1, 4)
    # witness must agree with f below x^(p^s)
    assert result.witness.coeffs[0] == 1
    assert result.witness.coeffs[1] == 0


def test_density_gap_exhausted_on_full_ring(monkeypatch):
    def full(p, level):
        prec = p**level
        return CensusSet(p=p, level=level, elements=frozenset(range(p**prec)))

    monkeypatch.setattr(procyclic.census, "enum_A", full)
    with pytest.raises(SearchExhaustedError) as info:
        density_gap(TruncSeries.zero(2, 2), 1, 2)
    assert len(info.value.counts) == 2
    level, size, cosets = info.value.counts[0]
    assert size >= cosets


def test_density_gap_singleton_census(monkeypatch):
    singleton = lambda p, level: CensusSet(p=p, level=level, elements=frozenset([0]))
    monkeypatch.setattr(procyclic.census, "enum_A", singleton)
    result = density_gap(TruncSeries.zero(2, 2), 1, 3)
    assert result.level == 2
    assert not result.witness.is_zero()


# -- tensor representatives -----------------------------------------------------------


def test_kappa_on_power_series():
    l = LaurentTrunc(3, TruncSeries(2, [1, 1], 2))
    rep = kappa(l)
    assert rep.shift == 0
    assert rep.left == TruncSeries(2, [0, 0, 0, 1, 1], 5)


def test_kappa_negative_valuation_example():
    # x^(-2) + 1 = x^(-2) * (1 + x^2)
    l = LaurentTrunc(-2, TruncSeries(2, [1, 0, 1], 3))
    rep = kappa(l)
    assert rep.shift == 2
    assert rep.left == TruncSeries(2, [1, 0, 1], 3)


def test_mu_examples():
    assert mu(TensorRep(TruncSeries.one(2, 1), 0)) == LaurentTrunc(
        0, TruncSeries.one(2, 1)
    )
    rep = TensorRep(TruncSeries(2, [1, 1], 2), 3)
    out = mu(rep)
    assert out.val == -3
    assert out.body == TruncSeries(2, [1, 1], 2)


def test_mu_kappa_identity_random():
    rng = random.Random(123)
    for _ in range(100):
        p = rng.choice((2, 3, 5))
        prec = 16
        coeffs = [rng.randrange(p) for _ in range(prec)]
        coeffs[0] = rng.randrange(1, p)
        l = LaurentTrunc(rng.randrange(-6, 7), TruncSeries(p, coeffs, prec))
        rep = kappa(l)
        assert rep.is_normalized()
        assert mu(rep) == l
        assert kappa(mu(rep)) == rep


def test_kappa_mu_on_normalized_reps():
    rng = random.Random(124)
    for _ in range(50):
        coeffs = [rng.randrange(3) for _ in range(10)]
        left = TruncSeries(3, coeffs, 10)
        rep = TensorRep(left, rng.randrange(0, 5)).normalized()
        if rep.left.is_zero():
            continue
        assert kappa(mu(rep)) == rep


def test_normalization_strips_common_shift():
    u = TruncSeries(2, [1, 1, 0, 1], 4)
    raw = TensorRep(u.shift_up(1), 3)
    normal = raw.normalized()
    assert normal.shift == 2
    assert normal.left == u
    assert mu(raw) == mu(normal)
    assert not raw.is_normalized()
    with pytest.raises(UsageError):
        TensorRep(u, -1)


def test_zero_tensor_and_zero_laurent():
    z = kappa(LaurentTrunc.zero(2, 6))
    assert z.left.is_zero() and z.shift == 0
    assert mu(z) == LaurentTrunc.zero(2, 6)
