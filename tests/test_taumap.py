"""The exponent map tau, the antipode sigma, and the series action."""

import random

import numpy as np
import pytest

from procyclic import PadicInt, TruncSeries, UsageError, min_digit_precision, sigma, tau
from procyclic import taumap

PRIMES = (2, 3, 5)


def digits_for(p, prec):
    return min_digit_precision(p, prec)


def random_exponent(rng, p, k):
    return PadicInt(p, [rng.randrange(p) for _ in range(k)])


def test_min_digit_precision():
    assert min_digit_precision(2, 1) == 0
    assert min_digit_precision(2, 2) == 1
    assert min_digit_precision(2, 256) == 8
    assert min_digit_precision(3, 256) == 6
    assert min_digit_precision(5, 126) == 4


@pytest.mark.parametrize("p", PRIMES)
def test_tau_generator_and_inverse(p):
    prec = 64
    k = digits_for(p, prec)
    assert tau(PadicInt.from_int(1, p, k), prec) == TruncSeries.one_minus_x(p, prec)
    assert tau(PadicInt.from_int(-1, p, k), prec) == TruncSeries.geometric(p, prec)


@pytest.mark.parametrize("p", PRIMES)
def test_tau_prime_powers(p):
    prec = 128
    k = digits_for(p, prec)
    i = 1
    while p**i < prec:
        expected = TruncSeries.one(p, prec) - TruncSeries.monomial(p, prec, p**i)
        assert tau(PadicInt.from_int(p**i, p, k), prec) == expected
        i += 1


def test_tau_matches_generic_power_on_integers():
    rng = random.Random(5)
    for p in PRIMES:
        prec = 40
        k = digits_for(p, prec)
        base = TruncSeries.one_minus_x(p, prec)
        for _ in range(20):
            n = rng.randrange(0, p**k)
            assert tau(PadicInt.from_int(n, p, k), prec) == base**n


def test_tau_is_homomorphism():
    rng = random.Random(6)
    for p in PRIMES:
        prec = 64
        k = digits_for(p, prec)
        for _ in range(25):
            a = random_exponent(rng, p, k)
            b = random_exponent(rng, p, k)
            assert tau(a + b, prec) == tau(a, prec) * tau(b, prec)


def test_tau_integer_multiple_consistency():
    rng = random.Random(7)
    p, prec = 3, 27
    k = digits_for(p, prec)
    for _ in range(20):
        a = random_exponent(rng, p, k)
        m = rng.randrange(0, 8)
        assert tau(a * PadicInt.from_int(m, p, k), prec) == tau(a, prec) ** m


def test_tau_continuity():
    rng = random.Random(8)
    for p in PRIMES:
        prec = 81 if p == 3 else 64
        k = digits_for(p, prec)
        for _ in range(25):
            depth = rng.randrange(1, k + 1)
            a = random_exponent(rng, p, k)
            b_digits = list(a.digits[:depth]) + [
                rng.randrange(p) for _ in range(k - depth)
            ]
            b = PadicInt(p, b_digits)
            cut = min(p**depth, prec)
            assert tau(a, prec).truncate(cut) == tau(b, prec).truncate(cut)


def tau_product_form(alpha, prec):
    """prod_j (1 - x^(p^j))^(d_j) by series products: the oracle for tau."""
    p = alpha.p
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


def differential_precisions(p):
    """1, 2, 256, 4096 and p^j - 1, p^j, p^j + 1 for every p^j <= 4096."""
    precs = {1, 2, 256, 4096}
    q = p
    while q <= 4096:
        precs |= {q - 1, q, q + 1}
        q *= p
    return sorted(precs)


# at p = 65521 and prec 4096, in-place shifted subtraction (1 - x^q)^d with
# one reduction per digit overflows int64; the closed form must not
@pytest.mark.parametrize("p", [2, 3, 5, 7, 251, 65521])
def test_tau_matches_product_form(p):
    rng = random.Random(p)
    for prec in differential_precisions(p):
        k = min_digit_precision(p, prec)
        # two digits more than needed; the extra ones must not matter
        exponents = [[0] * (k + 2), [p - 1] * (k + 2)]
        exponents += [[rng.randrange(p) for _ in range(k + 2)] for _ in range(2)]
        for digits in exponents:
            alpha = PadicInt(p, digits)
            got = tau(alpha, prec)
            assert got == tau_product_form(alpha, prec), (p, prec, digits)
            assert got.coeffs.dtype == np.int64 and not got.coeffs.flags.writeable
            assert got.coeffs.min() >= 0 and got.coeffs.max() < p


@pytest.mark.parametrize("p", [2, 3, 5, 7, 65521])
def test_tau_rows_match_scalar_tau_and_product_form(p):
    rng = random.Random(p)
    for prec in sorted({1, 2, p - 1, p, p + 1, 256, 1000}):
        k = min_digit_precision(p, prec)
        block = [[0] * k, [p - 1] * k] + [[rng.randrange(p) for _ in range(k)] for _ in range(4)]
        got = taumap.tau_rows(p, np.array(block, dtype=np.int64), prec)
        assert got.shape == (len(block), prec) and got.dtype == np.int64
        for digits, row in zip(block, got):
            alpha = PadicInt(p, digits, max(k, 1))
            assert np.array_equal(row, tau(alpha, prec).coeffs), (p, prec, digits)
            assert np.array_equal(row, tau_product_form(alpha, prec).coeffs), (p, prec, digits)
        empty = taumap.tau_rows(p, np.zeros((0, k), dtype=np.int64), prec)
        assert empty.shape == (0, prec) and empty.dtype == np.int64


def test_tau_cache_does_not_grow_with_precision():
    caches = [f for f in vars(taumap).values() if hasattr(f, "cache_info")]
    alpha = PadicInt.from_int(-1, 3, min_digit_precision(3, 1 << 16))
    tau(alpha.truncate(2), 8)
    before = [f.cache_info().currsize for f in caches]
    for _ in range(2):
        assert tau(alpha, 1 << 16) == TruncSeries.geometric(3, 1 << 16)
    assert [f.cache_info().currsize for f in caches] == before
    # what is cached for a prime is O(p): its factorial tables
    assert sum(table.nbytes for table in taumap._factorials(3)) == 2 * 3 * 8


def test_tau_requires_enough_digits():
    with pytest.raises(UsageError):
        tau(PadicInt.from_int(1, 2, 3), 256)


def test_tau_precision_one():
    # everything is 1 modulo x
    assert tau(PadicInt.from_int(7, 2, 3), 1) == TruncSeries.one(2, 1)


# -- sigma -------------------------------------------------------------------


def test_sigma_inverts_one_minus_x():
    for p in PRIMES:
        f = TruncSeries.one_minus_x(p, 32)
        assert sigma(f) == TruncSeries.geometric(p, 32)
        assert sigma(f) * f == TruncSeries.one(p, 32)


def test_sigma_is_involution():
    rng = random.Random(9)
    for p in PRIMES:
        for _ in range(10):
            f = TruncSeries(p, [rng.randrange(p) for _ in range(48)], 48)
            assert sigma(sigma(f)) == f


def test_sigma_is_ring_homomorphism():
    rng = random.Random(10)
    p, prec = 3, 36
    for _ in range(10):
        f = TruncSeries(p, [rng.randrange(p) for _ in range(prec)], prec)
        g = TruncSeries(p, [rng.randrange(p) for _ in range(prec)], prec)
        assert sigma(f + g) == sigma(f) + sigma(g)
        assert sigma(f * g) == sigma(f) * sigma(g)


def test_sigma_inverts_tau():
    rng = random.Random(11)
    for p in PRIMES:
        prec = 32
        k = digits_for(p, prec)
        for _ in range(10):
            a = random_exponent(rng, p, k)
            assert sigma(tau(a, prec)) == tau(-a, prec)


def sigma_by_substitution(f):
    """f(1 - (1 - x)^(-1)) by the Horner substitute: the oracle for sigma."""
    p, prec = f.p, f.prec
    g = TruncSeries.one(p, prec) - TruncSeries.one_minus_x(p, prec).invert()
    return f.substitute(g)


def sigma_precisions(p):
    """1, 2, 3, 64, 65, 512, 1024 and p - 1, p, p + 1 where they are <= 1024."""
    precs = {1, 2, 3, 64, 65, 512, 1024}
    precs |= {q for q in (p - 1, p, p + 1) if 1 <= q <= 1024}
    return sorted(precs)


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_sigma_matches_substitution_oracle(p):
    rng = random.Random(p + 2)
    for prec in sigma_precisions(p):
        cases = [TruncSeries.zero(p, prec), TruncSeries.one(p, prec)]
        cases.append(TruncSeries(p, [rng.randrange(1, p)], prec))
        cases += [
            TruncSeries.monomial(p, prec, d, rng.randrange(1, p))
            for d in sorted({1, prec // 2, prec - 1})
        ]
        cases.append(TruncSeries(p, [rng.randrange(p) for _ in range(prec)], prec))
        for f in cases:
            got = sigma(f)
            assert got == sigma_by_substitution(f), (p, prec, f)
            assert got.coeffs.dtype == np.int64 and not got.coeffs.flags.writeable
            assert not np.shares_memory(got.coeffs, f.coeffs)


@pytest.mark.parametrize("p", [2, 65521])
def test_sigma_is_ring_involution_at_4096(p):
    rng = random.Random(p + 3)
    prec = 4096
    f = TruncSeries(p, [rng.randrange(p) for _ in range(prec)], prec)
    g = TruncSeries(p, [rng.randrange(p) for _ in range(prec)], prec)
    assert sigma(sigma(f)) == f
    assert sigma(f + g) == sigma(f) + sigma(g)
    assert sigma(f * g) == sigma(f) * sigma(g)


def test_sigma_rejects_non_series():
    with pytest.raises(UsageError, match="expected TruncSeries, got int"):
        sigma(3)


# -- the action on series: multiplication by tau(alpha) ------------------------


def test_act_identity_and_generator():
    for p in PRIMES:
        prec = 24
        k = digits_for(p, prec)
        f = TruncSeries.geometric(p, prec)
        assert tau(PadicInt.from_int(0, p, k), prec) * f == f
        assert tau(PadicInt.from_int(1, p, k), prec) * TruncSeries.one(p, prec) == (
            TruncSeries.one_minus_x(p, prec)
        )


def test_act_continuity_modulo_powers():
    rng = random.Random(12)
    p, prec = 2, 64
    k = digits_for(p, prec)
    for j in range(1, 6):
        f = TruncSeries(p, [rng.randrange(p) for _ in range(prec)], prec)
        moved = tau(PadicInt.from_int(p**j, p, k), prec) * f
        assert moved.truncate(p**j) == f.truncate(p**j)


def test_act_is_group_action():
    rng = random.Random(13)
    p, prec = 3, 27
    k = digits_for(p, prec)
    for _ in range(15):
        a = random_exponent(rng, p, k)
        b = random_exponent(rng, p, k)
        f = TruncSeries(p, [rng.randrange(p) for _ in range(prec)], prec)
        assert tau(a + b, prec) * f == tau(a, prec) * (tau(b, prec) * f)


def test_act_rejects_mixed_primes():
    with pytest.raises(UsageError):
        tau(PadicInt.from_int(1, 3, 4), 8) * TruncSeries.one(2, 8)
