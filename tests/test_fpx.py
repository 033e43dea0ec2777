"""Series arithmetic: oracle comparisons, ring axioms, and edge cases."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procyclic import (
    LaurentTrunc,
    NotAUnitError,
    TruncSeries,
    UsageError,
    mul_schoolbook,
    parse_series,
    render_series,
    validate_prime,
)
from procyclic import cli, fpx

PRIMES = (2, 3, 5, 7)


def random_series(rng, p, prec):
    return TruncSeries(p, [rng.randrange(p) for _ in range(prec)], prec)


def random_unit(rng, p, prec):
    coeffs = [rng.randrange(p) for _ in range(prec)]
    coeffs[0] = rng.randrange(1, p)
    return TruncSeries(p, coeffs, prec)


# -- primality ------------------------------------------------------------


def test_validate_prime_accepts_primes():
    for p in (2, 3, 5, 7, 11, 65521):
        assert validate_prime(p) == p


@pytest.mark.parametrize("bad", [1, 0, -3, 4, 9, 65536, 65537, 2.0, "3"])
def test_validate_prime_rejects(bad):
    with pytest.raises(UsageError):
        validate_prime(bad)


# -- multiplication -------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_telescoping_identity(p):
    for prec in (1, 2, 5, 64):
        lhs = TruncSeries.one_minus_x(p, prec) * TruncSeries.geometric(p, prec)
        assert lhs == TruncSeries.one(p, prec)


def test_frobenius_square_example():
    # over F_2 at precision 8: (1 + x)^4 = 1 + x^4
    f = TruncSeries.one_minus_x(2, 8)
    assert f**4 == TruncSeries(2, [1, 0, 0, 0, 1], 8)


def test_fast_mul_matches_schoolbook_on_1000_pairs():
    rng = random.Random(101)
    for trial in range(1000):
        p = PRIMES[trial % len(PRIMES)]
        prec = rng.choice((3, 17, 63, 200, 300, 517))
        a = random_series(rng, p, prec)
        b = random_series(rng, p, prec)
        assert a * b == mul_schoolbook(a, b)


def test_fast_mul_matches_schoolbook_large():
    rng = random.Random(7)
    for p in PRIMES:
        a = random_series(rng, p, 1024)
        b = random_series(rng, p, 1024)
        assert a * b == mul_schoolbook(a, b)


def few_term_series(rng, p, prec, terms):
    """A series with min(terms, prec) nonzero coefficients at random places."""
    coeffs = np.zeros(prec, dtype=np.int64)
    for k in rng.sample(range(prec), min(terms, prec)):
        coeffs[k] = rng.randrange(1, p)
    return TruncSeries(p, coeffs, prec)


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_int64_products_match_schoolbook_at_every_small_precision(p):
    # at prec <= INT64_CUTOFF every product is one int64 convolution, also
    # for the zero and few-term operands that once took a sparse path
    rng = random.Random(p)
    for prec in range(1, fpx.INT64_CUTOFF + 2):
        operands = [TruncSeries.zero(p, prec), random_series(rng, p, prec)]
        operands += [few_term_series(rng, p, prec, t) for t in (1, 2, 3, 4)]
        operands.append(TruncSeries(p, np.full(prec, p - 1), prec))
        for a in operands:
            for b in operands:
                got = a * b
                assert got == mul_schoolbook(a, b), (prec, a, b)
                assert got.coeffs.dtype == np.int64 and not got.coeffs.flags.writeable
                assert not np.shares_memory(got.coeffs, a.coeffs)


@pytest.mark.parametrize("prec", [3, fpx.INT64_CUTOFF + 1, fpx.SCHOOLBOOK_CUTOFF + 1, 4097])
def test_product_usage_errors_are_pinned(prec):
    a = TruncSeries.one(3, prec)
    with pytest.raises(UsageError, match=r"^mixed primes 3 and 5$"):
        a * TruncSeries.one(5, prec)
    with pytest.raises(
        UsageError,
        match=rf"^mixed precisions {prec} and {prec + 1}; use truncate\(\) to reduce one explicitly$",
    ):
        a * TruncSeries.one(3, prec + 1)
    for other in (2, [1, 0], a.coeffs):
        with pytest.raises(UsageError, match=r"^expected TruncSeries, got \w+$"):
            a * other


def kernel_operands(rng, p, prec):
    """Operand pairs for the dense kernels: dense, long zero tails, unequal support."""
    dense = [random_series(rng, p, prec) for _ in range(2)]
    top = TruncSeries(p, np.full(prec, p - 1), prec)  # every partial sum at its bound
    head = TruncSeries(p, [rng.randrange(1, p) for _ in range(7)], prec)
    third = random_series(rng, p, max(1, prec // 3)).extend(prec)
    tail = np.zeros(prec, dtype=np.int64)
    tail[prec - 9 :] = [rng.randrange(1, p) for _ in range(9)]
    pairs = [
        tuple(dense),
        (top, top),
        (head, third),  # long zero tails: each trimmed operand is far shorter than N
        (dense[0], TruncSeries(p, tail, prec)),
    ]
    # either side of the sparse path's support bound
    for terms in (fpx._SMALL_SUPPORT, fpx._SMALL_SUPPORT + 1):
        sparse = np.zeros(prec, dtype=np.int64)
        sparse[rng.sample(range(prec), min(terms, prec))] = p - 1
        pairs.append((TruncSeries(p, sparse, prec), dense[1]))
    return pairs


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
@pytest.mark.parametrize(
    "prec",
    [
        fpx.INT64_CUTOFF,
        fpx.INT64_CUTOFF + 1,
        fpx.SCHOOLBOOK_CUTOFF - 1,
        fpx.SCHOOLBOOK_CUTOFF,
        fpx.SCHOOLBOOK_CUTOFF + 1,
        4096,  # the FFT length doubles between 4096 and 4097
        4097,
    ],
)
def test_dense_kernels_match_schoolbook_at_every_cutoff(p, prec):
    rng = random.Random(prec * p)
    for a, b in kernel_operands(rng, p, prec):
        assert a * b == mul_schoolbook(a, b)
        assert b * a == mul_schoolbook(a, b)


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
@pytest.mark.parametrize("prec", [1, 2, 64, 65, 256, 768, 769, 4096])
def test_stacked_products_match_schoolbook_row_by_row(p, prec):
    # rows with different supports: dense, all p - 1, short heads, few terms, zero
    rng = random.Random(prec * p + 1)
    dense = [random_series(rng, p, prec) for _ in range(2)]
    top = TruncSeries(p, np.full(prec, p - 1), prec)
    head = random_series(rng, p, min(7, prec)).extend(prec)
    third = random_series(rng, p, max(1, prec // 3)).extend(prec)
    zero = TruncSeries.zero(p, prec)
    pairs = [tuple(dense), (top, top), (head, third), (dense[0], head)]
    pairs += [(few_term_series(rng, p, prec, 2), dense[1]), (third, top)]
    pairs += [(zero, dense[0]), (dense[1], zero), (zero, zero)]
    a = np.array([x.coeffs for x, _ in pairs])
    b = np.array([y.coeffs for _, y in pairs])
    got = fpx.mul_rows(p, a, b)
    assert got.shape == a.shape and got.dtype == np.int64
    for row, (x, y) in zip(got, pairs):
        assert np.array_equal(row, mul_schoolbook(x, y).coeffs)
    assert not fpx.mul_rows(p, np.zeros_like(a), b).any()
    assert not fpx.mul_rows(p, np.zeros_like(a), np.zeros_like(b)).any()
    x, y = pairs[0]
    assert np.array_equal(fpx.mul_rows(p, x.coeffs[None], y.coeffs[None])[0], (x * y).coeffs)


@pytest.mark.parametrize("p, prec", [(3, 256), (65521, 4097)])  # one limb, two limbs
def test_stacked_fft_product_raises_instead_of_rounding(p, prec, monkeypatch):
    rng = random.Random(6)
    a = np.array([random_series(rng, p, prec).coeffs for _ in range(5)])
    b = np.array([random_series(rng, p, prec).coeffs for _ in range(5)])
    irfft = np.fft.irfft

    def perturbed(*args, **kwargs):
        y = irfft(*args, **kwargs)
        y[3, 17] += 0.4
        return y

    monkeypatch.setattr(np.fft, "irfft", perturbed)
    with pytest.raises(ArithmeticError):
        fpx.mul_rows(p, a, b)


def test_float_convolution_is_exact_up_to_the_cutoff():
    # every partial sum of the float64 path is an integer below this bound
    assert fpx.SCHOOLBOOK_CUTOFF * (fpx.MAX_PRIME - 1) ** 2 < 2**53
    assert fpx.INT64_CUTOFF < fpx.SCHOOLBOOK_CUTOFF


@pytest.mark.parametrize("p", (2, 3, 5, 65521))
@pytest.mark.parametrize(
    "size", (0, 1, fpx.MOD_CUTOFF - 1, fpx.MOD_CUTOFF, fpx.MOD_CUTOFF + 1, 1 << 16)
)
def test_mod_p_matches_remainder(p, size):
    rng = np.random.default_rng(p * 100003 + size)
    # signed entries of every magnitude up to 2^62
    x = rng.integers(-(2**62), 2**62, size=size) >> rng.integers(0, 63, size=size)
    x[:2] = (-(2**62), 2**62)[:size]
    expected = x % p
    before = x.copy()
    got = fpx.mod_p(x, p)
    assert got is not x and got.dtype == np.int64
    assert np.array_equal(got, expected) and np.array_equal(x, before)
    # in place, also into a strided view
    assert fpx.mod_p(x, p, out=x) is x
    assert np.array_equal(x, expected)
    y = before.copy()
    fpx.mod_p(y[::2], p, out=y[::2])
    assert np.array_equal(y[::2], expected[::2]) and np.array_equal(y[1::2], before[1::2])


@pytest.mark.parametrize("p", [3, 65521])  # one limb and two limbs at 4097
def test_fft_product_raises_instead_of_rounding(p, monkeypatch):
    rng = random.Random(5)
    a, b = random_series(rng, p, 4097), random_series(rng, p, 4097)
    irfft = np.fft.irfft

    def perturbed(*args, **kwargs):
        y = irfft(*args, **kwargs)
        y[0] += 0.4
        return y

    monkeypatch.setattr(np.fft, "irfft", perturbed)
    with pytest.raises(ArithmeticError):
        a * b


@pytest.mark.parametrize("p", [2, 3, 257, 65521])
def test_fft_square_of_the_largest_norm_series(p):
    # (p-1)^2 (1 + x + x^2 + ...)^2 has coefficient (p-1)^2 (k+1) = k+1 mod p
    prec = cli.MAX_PREC
    top = TruncSeries(p, np.full(prec, p - 1), prec)
    expected = TruncSeries(p, np.arange(1, prec + 1) % p, prec)
    assert top * top == expected
    assert top * TruncSeries(p, top.coeffs.copy(), prec) == expected


@pytest.mark.parametrize("p", [2, 3, 251, 257, 65521])
@pytest.mark.parametrize("prec", [fpx.SCHOOLBOOK_CUTOFF + 1, 4096, 65536, 2**20])
def test_limb_split_meets_the_fft_error_bound(p, prec):
    # the bound in exact rationals, sqrt(5) rounded up, for dense operands
    eps, sqrt5 = Fraction(1, 2**53), Fraction(2236068, 10**6)
    n = (2 * prec - 2).bit_length()  # 2^n >= 2 prec - 1
    growth = (1 + eps) ** (6 * n) * (1 + eps * sqrt5) ** (3 * n + 1) - 1
    bits = (p - 1).bit_length()

    def error(k):
        w = -(-bits // k)
        return k * (2**w - 1) ** 2 * prec * growth

    k, w = fpx._limb_split(p, prec, prec, n)
    assert w == -(-bits // k)
    assert error(k) <= Fraction(1, 8)
    assert k == 1 or error(k - 1) > Fraction(1, 8)


def test_import_loads_no_fft_until_a_product_needs_it():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    script = (
        "import sys\n"
        "import procyclic, procyclic.cli\n"
        "print('decimal' in sys.modules, 'numpy.fft' in sys.modules)\n"
        "n = procyclic.fpx.SCHOOLBOOK_CUTOFF\n"
        "f = procyclic.TruncSeries(3, [1, 2] * n, n)\n"
        "f * f\n"
        "print('numpy.fft' in sys.modules)\n"
        "f = procyclic.TruncSeries(3, [1, 2] * n, n + 1)\n"
        "f * f\n"
        "print('numpy.fft' in sys.modules, 'decimal' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.split("\n") == ["False False", "False", "True False", ""]


@pytest.mark.parametrize("p", [2, 3, 65521])
@pytest.mark.parametrize("prec", [1, 5, 300, 4097])  # 300 float, 4097 FFT
def test_results_are_reduced_read_only_and_own_their_coefficients(p, prec):
    rng = random.Random(prec)
    a, b, u = random_series(rng, p, prec), random_series(rng, p, prec), random_unit(rng, p, prec)
    sparse = TruncSeries.monomial(p, prec, prec // 2, p - 1)
    results = [a + b, a - b, -a, a * b, a * sparse, a * TruncSeries.zero(p, prec)]
    results += [u.invert(), a.truncate(max(1, prec // 2)), a.extend(prec + 3)]
    for r in results:
        assert r.coeffs.dtype == np.int64 and r.coeffs.ndim == 1
        assert r.coeffs.size == r.prec and isinstance(r.prec, int)
        assert r.coeffs.min() >= 0 and r.coeffs.max() < p
        assert not r.coeffs.flags.writeable
        assert not np.shares_memory(r.coeffs, a.coeffs)
        assert r == TruncSeries(p, r.coeffs.tolist(), r.prec)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from(PRIMES),
    prec=st.integers(min_value=1, max_value=40),
)
def test_ring_axioms(data, p, prec):
    coeff = st.integers(min_value=0, max_value=p - 1)
    vec = st.lists(coeff, min_size=prec, max_size=prec)
    a = TruncSeries(p, data.draw(vec), prec)
    b = TruncSeries(p, data.draw(vec), prec)
    c = TruncSeries(p, data.draw(vec), prec)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a - a == TruncSeries.zero(p, prec)


def test_truncation_commutes_with_arithmetic():
    rng = random.Random(33)
    for p in (2, 5):
        a = random_series(rng, p, 96)
        b = random_series(rng, p, 96)
        u = random_unit(rng, p, 96)
        for m in (1, 7, 50, 96):
            assert (a + b).truncate(m) == a.truncate(m) + b.truncate(m)
            assert (a * b).truncate(m) == a.truncate(m) * b.truncate(m)
            assert u.invert().truncate(m) == u.truncate(m).invert()


def test_mixed_precision_and_prime_rejected():
    a = TruncSeries.one(2, 4)
    b = TruncSeries.one(2, 5)
    with pytest.raises(UsageError):
        a * b
    with pytest.raises(UsageError):
        a + TruncSeries.one(3, 4)
    b4 = b.truncate(a.prec)
    assert b4.prec == 4
    assert a * b4 == TruncSeries.one(2, 4)


# -- inversion -------------------------------------------------------------


def test_invert_examples():
    assert TruncSeries.one(5, 9).invert() == TruncSeries.one(5, 9)
    assert TruncSeries.one_minus_x(3, 12).invert() == TruncSeries.geometric(3, 12)
    f = TruncSeries(2, [1, 1, 0, 1], 6)
    assert f * f.invert() == TruncSeries.one(2, 6)


def test_invert_random_multiply_back():
    rng = random.Random(44)
    for p in PRIMES:
        for prec in (1, 2, 3, 33, 63, 64, 65, 257, 4095, 4096, 4097, 32769):
            u = random_unit(rng, p, prec)
            assert u * u.invert() == TruncSeries.one(p, prec)


def full_step_newton_inverse(u):
    """b <- b(2 - ub) with both products at the full new precision: the oracle."""
    p, prec = u.p, u.prec
    b = TruncSeries(p, [pow(int(u.coeffs[0]), -1, p)], 1)
    m = 1
    while m < prec:
        m = min(2 * m, prec)
        b = b.extend(m)
        b = b * (TruncSeries(p, [2], m) - u.truncate(m) * b)
    return b


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_invert_matches_full_step_newton(p):
    rng = random.Random(p + 1)
    for prec in (1, 2, 3, 5, 63, 64, 65, 129, 300, 4097):
        units = [random_unit(rng, p, prec), TruncSeries.one_minus_x(p, prec)]
        units.append(TruncSeries(p, [rng.randrange(1, p)], prec))  # a constant
        for u in units:
            assert u.invert() == full_step_newton_inverse(u), (p, prec)


def test_invert_nonunit_rejected():
    with pytest.raises(NotAUnitError):
        TruncSeries.x(5, 4).invert()
    with pytest.raises(NotAUnitError):
        TruncSeries.zero(2, 3).invert()


def test_pow_negative_uses_inverse():
    f = TruncSeries.one_minus_x(3, 10)
    assert f**-2 == (f.invert()) ** 2
    assert f**0 == TruncSeries.one(3, 10)


# -- substitution -----------------------------------------------------------


def test_substitute_identity_and_square():
    rng = random.Random(9)
    for p in (2, 3):
        f = random_series(rng, p, 20)
        assert f.substitute(TruncSeries.x(p, 20)) == f
        g = TruncSeries(p, [0] + [rng.randrange(p) for _ in range(19)], 20)
        assert TruncSeries.monomial(p, 20, 2).substitute(g) == g * g


def test_substitute_expansion_mod3():
    # 1 + g for g = -x - x^2 - x^3 - x^4 over F_3 at precision 5
    g = TruncSeries(3, [0, -1, -1, -1, -1], 5)
    f = TruncSeries(3, [1, 1], 5)
    assert f.substitute(g) == TruncSeries(3, [1, -1, -1, -1, -1], 5)


def horner_substitute(f, g):
    """Composition f(g) by Horner with validated constant series; the oracle."""
    result = TruncSeries.zero(f.p, f.prec)
    for c in f.coeffs[::-1]:
        result = result * g + TruncSeries(f.p, (int(c),), f.prec)
    return result


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_substitute_matches_horner_oracle(p):
    rng = random.Random(p)
    for prec in (1, 2, 40, 100):
        f = random_series(rng, p, prec)
        g = TruncSeries(p, [0] + [rng.randrange(p) for _ in range(prec - 1)], prec)
        got = f.substitute(g)
        assert got == horner_substitute(f, g)
        assert not got.coeffs.flags.writeable


def test_substitute_requires_zero_constant_term():
    f = TruncSeries.one(2, 4)
    with pytest.raises(UsageError):
        f.substitute(TruncSeries.one(2, 4))


def test_substitute_is_ring_hom_in_f():
    rng = random.Random(10)
    p, prec = 3, 24
    g = TruncSeries(p, [0] + [rng.randrange(p) for _ in range(prec - 1)], prec)
    a = random_series(rng, p, prec)
    b = random_series(rng, p, prec)
    assert (a + b).substitute(g) == a.substitute(g) + b.substitute(g)
    assert (a * b).substitute(g) == a.substitute(g) * b.substitute(g)


# -- Laurent series ---------------------------------------------------------


def test_laurent_invert_monomial_times_unit():
    body = TruncSeries.one_minus_x(2, 16)
    l = LaurentTrunc(2, body)  # x^2 * (1 - x)
    inv = l.invert()
    assert inv.val == -2
    assert inv.body == TruncSeries.geometric(2, 16)
    assert (l * inv) == LaurentTrunc(0, TruncSeries.one(2, 16))


def test_laurent_valuation_additivity():
    rng = random.Random(77)
    u = LaurentTrunc(-3, random_unit(rng, 5, 12))
    w = LaurentTrunc(5, random_unit(rng, 5, 12))
    assert (u * w).val == 2


def test_laurent_random_inverse_roundtrip():
    rng = random.Random(78)
    one = LaurentTrunc(0, TruncSeries.one(3, 20))
    for _ in range(50):
        a = LaurentTrunc(rng.randrange(-8, 9), random_unit(rng, 3, 20))
        assert a * a.invert() == one


def test_laurent_zero_is_canonical():
    z1 = LaurentTrunc.zero(2, 8)
    z2 = LaurentTrunc.from_series(TruncSeries.zero(2, 8), val=5)
    assert z1 == z2 and z1.val == 0
    with pytest.raises(NotAUnitError):
        z1.invert()


@pytest.mark.parametrize(
    "a, b, message",
    [
        (LaurentTrunc(0, TruncSeries.one(2, 4)), LaurentTrunc(0, TruncSeries.one(3, 4)), "mixed primes"),
        (LaurentTrunc(0, TruncSeries.one(5, 4)), LaurentTrunc(1, TruncSeries.one(5, 8)), "mixed precisions"),
    ],
)
@pytest.mark.parametrize("zero", (None, "left", "right"))
def test_laurent_product_refuses_mixed_operands_even_when_zero(a, b, message, zero):
    if zero == "left":
        a = LaurentTrunc.zero(a.p, a.prec)
    elif zero == "right":
        b = LaurentTrunc.zero(b.p, b.prec)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(UsageError, match=message):
            x * y


def test_laurent_product_with_zero_is_zero():
    z, u = LaurentTrunc.zero(3, 6), LaurentTrunc(-2, TruncSeries(3, [1, 2], 6))
    assert z * u == u * z == z * z == z


def test_laurent_from_series_normalizes_valuation():
    f = TruncSeries(2, [0, 0, 1, 1], 4)
    l = LaurentTrunc.from_series(f, val=-1)
    assert l.val == 1
    assert l.body == TruncSeries(2, [1, 1], 2)


def test_laurent_rejects_nonunit_body():
    with pytest.raises(UsageError):
        LaurentTrunc(0, TruncSeries.x(2, 4))


# -- rendering and parsing ---------------------------------------------------


def test_render_examples():
    assert render_series(TruncSeries.zero(2, 3)) == "0"
    assert render_series(TruncSeries(5, [2, 1, 0, 3], 4)) == "2 + x + 3*x^3"


def test_parse_text_and_json_roundtrip():
    rng = random.Random(3)
    for p in (2, 5):
        f = random_series(rng, p, 12)
        assert parse_series(render_series(f), p, 12) == f
        assert parse_series(f.to_json(), p, 12) == f


def test_parse_accepts_signs_and_spaces():
    f = parse_series("1 - x + 2*x^3", 5, 5)
    assert f == TruncSeries(5, [1, 4, 0, 2, 0], 5)
    # a term of degree prec or more vanishes mod x^prec
    assert parse_series("1 + x^4", 2, 4) == TruncSeries.one(2, 4)


def test_coefficients_outside_int64_are_reduced_mod_p():
    big = 10**23
    assert TruncSeries(3, [2**70, 1]) == TruncSeries(3, [2**70 % 3, 1])
    assert TruncSeries(5, [-(2**80), big], 4) == TruncSeries(5, [-(2**80) % 5, big % 5], 4)
    assert parse_series(f"[{big}, 1]", 2, 2) == TruncSeries(2, [0, 1], 2)
    assert parse_series(f"{big}*x + 1", 2, 2) == TruncSeries(2, [1, 0], 2)
    assert parse_series(f"1 - {big}*x^2", 7, 3) == TruncSeries(7, [1, 0, -big % 7], 3)


def test_parse_rejects_garbage():
    with pytest.raises(UsageError):
        parse_series("1 + y", 2, 4)
    with pytest.raises(UsageError):
        parse_series('["a"]', 2, 4)


# -- value semantics ----------------------------------------------------------


def test_immutability_and_hash():
    f = TruncSeries(3, [1, 2], 2)
    with pytest.raises(AttributeError):
        f.prec = 5
    with pytest.raises(ValueError):
        f.coeffs[0] = 0
    assert hash(f) == hash(TruncSeries(3, [1, 2], 2))
    assert f != TruncSeries(3, [1, 2], 3)


def test_shift_round_trips():
    f = TruncSeries(3, [1, 2, 0, 1], 4)
    up = f.shift_up(2)
    assert up.prec == 6 and up.valuation() == 2
    assert up.shift_down(2) == f
    assert f.shift_down(0) == f and f.shift_up(0) == f
    with pytest.raises(UsageError):
        f.shift_down(1)
