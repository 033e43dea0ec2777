"""Digit arithmetic checked against plain big-integer arithmetic mod p^k."""

import random

import numpy as np
import pytest

from procyclic import PadicInt, UsageError
from procyclic.padic import add_digit_rows


def test_from_int_examples():
    assert list(PadicInt.from_int(-1, 2, 5).digits) == [1, 1, 1, 1, 1]
    assert list(PadicInt.from_int(13, 3, 3).digits) == [1, 1, 1]
    for j in range(4):
        digits = list(PadicInt.from_int(5**j, 5, 4).digits)
        expected = [0] * 4
        expected[j] = 1
        assert digits == expected


def test_small_identities():
    one = PadicInt.from_int(1, 7, 3)
    minus_one = PadicInt.from_int(-1, 7, 3)
    assert (one + minus_one).is_zero()
    assert minus_one * minus_one == one
    assert -minus_one == one


def test_carry_arithmetic_against_integer_oracle():
    rng = random.Random(2024)
    for p, k in [(5, 4), (2, 9), (3, 6), (13, 3), (251, 2)]:
        modulus = p**k
        for _ in range(200):
            x = rng.randrange(-2 * modulus, 2 * modulus)
            y = rng.randrange(-2 * modulus, 2 * modulus)
            a = PadicInt.from_int(x, p, k)
            b = PadicInt.from_int(y, p, k)
            assert (a + b).to_int() == (x + y) % modulus
            assert (a * b).to_int() == (x * y) % modulus
            assert (-a).to_int() == (-x) % modulus
            assert (a - b).to_int() == (x - y) % modulus


@pytest.mark.parametrize(
    "p, k", [(2, 1), (3, 1), (2, 8), (3, 6), (5, 4), (65521, 2), (2, 30), (3, 30)]
)
def test_stacked_carry_sums_against_integer_oracle(p, k):
    rng = random.Random(p * k)
    modulus = p**k
    xs = [rng.randrange(modulus) for _ in range(40)]
    ys = [rng.randrange(modulus) for _ in range(40)]
    # full carry chains: p^k - 1 (every digit p - 1) plus 1, and plus p^j
    xs += [modulus - 1] * (k + 1) + [modulus - 1 - rng.randrange(p)]
    ys += [1] + [p**j for j in range(k)] + [modulus - 1]
    a = np.array([PadicInt.from_int(x, p, k).digits for x in xs])
    b = np.array([PadicInt.from_int(y, p, k).digits for y in ys])
    sums = add_digit_rows(p, a, b)
    assert sums.shape == a.shape and sums.dtype == np.int64
    for row, x, y in zip(sums, xs, ys):
        assert np.array_equal(row, PadicInt.from_int(x + y, p, k).digits)
    assert not add_digit_rows(p, a[:1], np.array([PadicInt.from_int(-xs[0], p, k).digits])).any()


def test_ring_axioms_random():
    rng = random.Random(11)
    p, k = 3, 5
    for _ in range(100):
        a = PadicInt(p, [rng.randrange(p) for _ in range(k)])
        b = PadicInt(p, [rng.randrange(p) for _ in range(k)])
        c = PadicInt(p, [rng.randrange(p) for _ in range(k)])
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_truncation_is_ring_homomorphism():
    rng = random.Random(12)
    p, k = 5, 6
    for k2 in (1, 3, 5):
        for _ in range(50):
            a = PadicInt(p, [rng.randrange(p) for _ in range(k)])
            b = PadicInt(p, [rng.randrange(p) for _ in range(k)])
            assert (a + b).truncate(k2) == a.truncate(k2) + b.truncate(k2)
            assert (a * b).truncate(k2) == a.truncate(k2) * b.truncate(k2)


def test_to_int_roundtrip():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randrange(0, 3**7)
        assert PadicInt.from_int(n, 3, 7).to_int() == n % 3**7


def test_mismatches_rejected():
    a = PadicInt.from_int(1, 2, 3)
    with pytest.raises(UsageError):
        a + PadicInt.from_int(1, 3, 3)
    with pytest.raises(UsageError):
        a + PadicInt.from_int(1, 2, 4)
    with pytest.raises(UsageError):
        a.truncate(9)
    with pytest.raises(UsageError):
        PadicInt.from_int(1, 4, 3)


def test_immutability():
    a = PadicInt.from_int(6, 5, 3)
    with pytest.raises(AttributeError):
        a.prec = 1
    assert hash(a) == hash(PadicInt.from_int(6, 5, 3))


def test_digits_outside_the_base_are_refused():
    # reducing 5 to 2 digit by digit would silently change the value
    for digits in ([5, 0], [0, 3], [-1], [10**30]):
        with pytest.raises(UsageError, match=r"not in \[0, 3\)"):
            PadicInt(3, digits)
    assert PadicInt(3, [2, 1]).to_int() == PadicInt.from_int(5, 3, 2).to_int() == 5
    # the value is fixed before truncation drops the high digits
    assert PadicInt(3, [2, 1, 2], 2) == PadicInt.from_int(5, 3, 2)


def test_digits_do_not_alias_the_caller_array():
    raw = np.array([1, 2, 0], dtype=np.int64)
    for prec in (2, 3):
        a = PadicInt(3, raw, prec)
        assert not np.shares_memory(a.digits, raw) and not a.digits.flags.writeable
    raw[0] = 2
    assert raw.flags.writeable
