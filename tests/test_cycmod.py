"""Module quotients: frozen dimensions plus a definition-level oracle.

The production code spans relations by basis pairs only and takes their
rank with the streaming accumulator; the oracle here re-derives the span
from every pair of module elements, which is the raw definition, counts
its pivots with the dense rref, and must give the same dimension.
"""

import itertools

import numpy as np
import pytest

from procyclic import (
    FpMatrix,
    UsageError,
    antipode_iso_check,
    diagonal_coinvariants,
    regular_antipode,
    regular_module,
    tensor_over_groupring,
    trivial_module,
)
from procyclic import cycmod
from procyclic.cycmod import FpCModule, ModuleAntipode, _coinvariant_relations, _id_tensor_images
from procyclic.linfp import rank, rref


def all_elements(p, dim):
    return [np.array(v, dtype=np.int64) for v in itertools.product(range(p), repeat=dim)]


def span_dim_oracle(p, vectors):
    return len(rref(FpMatrix(p, vectors))[1])


def coinvariant_dim_oracle(module, module2):
    """Quotient dim with relations taken over every element pair."""
    p = module.p
    t1, t2 = module.action.array, module2.action.array
    vectors = []
    for m in all_elements(p, module.dim):
        tm = (t1 @ m) % p
        for m2 in all_elements(p, module2.dim):
            tm2 = (t2 @ m2) % p
            vectors.append((np.kron(tm, tm2) - np.kron(m, m2)) % p)
    return module.dim * module2.dim - span_dim_oracle(p, vectors)


def tensor_gr_dim_oracle(module, module2):
    p = module.p
    t1, t2 = module.action.array, module2.action.array
    vectors = []
    for m in all_elements(p, module.dim):
        tm = (t1 @ m) % p
        for m2 in all_elements(p, module2.dim):
            tm2 = (t2 @ m2) % p
            vectors.append((np.kron(tm, m2) - np.kron(m, tm2)) % p)
    return module.dim * module2.dim - span_dim_oracle(p, vectors)


# -- regular module ----------------------------------------------------------


def test_regular_module_smallest():
    m = regular_module(2, 1)
    assert m.dim == 1
    assert np.array_equal(m.action.array, [[1]])
    assert m.order_exponent == 0


def test_regular_module_dim2_matrix():
    m = regular_module(2, 2)
    assert np.array_equal(m.action.array, [[1, 0], [1, 1]])
    assert m.order_exponent == 1


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("i", range(1, 9))
def test_regular_action_has_p_power_order(p, i):
    m = regular_module(p, i)
    t = m.action.array
    power = np.eye(i, dtype=np.int64)
    for _ in range(p**m.order_exponent):
        power = (power @ t) % p
    assert np.array_equal(power, np.eye(i, dtype=np.int64))
    if i > 1:
        # exponent is minimal
        smaller = np.eye(i, dtype=np.int64)
        for _ in range(p ** (m.order_exponent - 1)):
            smaller = (smaller @ t) % p
        assert not np.array_equal(smaller, np.eye(i, dtype=np.int64))


def test_module_rejects_bad_actions():
    with pytest.raises(UsageError):
        FpCModule(3, FpMatrix(3, [[0, 0], [0, 1]]))  # singular
    with pytest.raises(UsageError):
        FpCModule(3, FpMatrix(3, [[0, 1], [1, 0]]))  # order 2, not a 3-power
    with pytest.raises(UsageError):
        regular_module(2, 0)


# -- quotient dimensions -------------------------------------------------------


def test_coinvariants_trivial_action():
    one = regular_module(5, 1)
    assert diagonal_coinvariants(one, one) == 1
    t3 = trivial_module(3, 4)
    assert diagonal_coinvariants(t3, t3) == 16


def test_quotients_are_returned_as_ints():
    m = regular_module(3, 4)
    assert type(diagonal_coinvariants(m, m)) is int
    assert type(tensor_over_groupring(m, m)) is int


def test_coinvariants_frozen_values():
    m23 = regular_module(2, 3)
    assert diagonal_coinvariants(m23, m23) == 3
    m34 = regular_module(3, 4)
    assert diagonal_coinvariants(m34, m34) == 4


@pytest.mark.parametrize(
    "p,i,j",
    [(2, 1, 1), (2, 2, 2), (2, 3, 3), (3, 2, 2), (2, 2, 3), (3, 1, 2)],
)
def test_coinvariants_match_all_pairs_oracle(p, i, j):
    a, b = regular_module(p, i), regular_module(p, j)
    assert diagonal_coinvariants(a, b) == coinvariant_dim_oracle(a, b)


@pytest.mark.parametrize(
    "p,i,j",
    [(2, 1, 1), (2, 2, 2), (2, 3, 3), (3, 2, 2), (2, 2, 3), (3, 1, 2)],
)
def test_tensor_gr_matches_all_pairs_oracle(p, i, j):
    a, b = regular_module(p, i), regular_module(p, j)
    assert tensor_over_groupring(a, b) == tensor_gr_dim_oracle(a, b)


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("i", range(1, 9))
def test_tensor_gr_collapse(p, i):
    m = regular_module(p, i)
    assert tensor_over_groupring(m, m) == i
    assert diagonal_coinvariants(m, m) == i


def test_tensor_with_trivial_factor_gives_coinvariants():
    m = regular_module(2, 4)
    one = trivial_module(2, 1)
    coinv_of_m = diagonal_coinvariants(one, m)
    assert tensor_over_groupring(one, m) == coinv_of_m
    # for the regular module the coinvariants are one-dimensional
    assert coinv_of_m == 1


def test_tensor_gr_mixed_sizes():
    a = regular_module(2, 2)
    b = regular_module(2, 4)
    assert tensor_over_groupring(a, b) == 2
    assert tensor_over_groupring(b, a) == 2


def test_quotient_dims_bounded_and_projection_consistent():
    for p, i in [(2, 3), (3, 2)]:
        m = regular_module(p, i)
        dim = diagonal_coinvariants(m, m)
        assert 0 <= dim <= i * i
        relations = _coinvariant_relations(m, m)
        assert relations.shape == (i * i, i * i)
        assert dim == i * i - len(rref(FpMatrix(p, relations))[1])


def test_quotient_dim_monotone_under_extra_relations():
    import random

    rng = random.Random(21)
    p, i = 3, 3
    m = regular_module(p, i)
    ambient = i * i
    vectors = _coinvariant_relations(m, m).tolist()
    prev = diagonal_coinvariants(m, m)
    for _ in range(5):
        vectors.append([rng.randrange(p) for _ in range(ambient)])
        dim = ambient - rank(FpMatrix(p, vectors))
        assert dim <= prev
        prev = dim


def test_mixed_primes_rejected():
    with pytest.raises(UsageError):
        diagonal_coinvariants(regular_module(2, 2), regular_module(3, 2))


# -- antipode ------------------------------------------------------------------


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("i", range(1, 7))
def test_antipode_bijection_for_regular_modules(p, i):
    check = antipode_iso_check(regular_antipode(p, i))
    assert check.bijective
    assert (check.coinvariant_dim, check.tensor_dim) == (i, i)


def test_antipode_trivial_module_identity():
    m = trivial_module(5, 1)
    check = antipode_iso_check(ModuleAntipode(m, FpMatrix.identity(5, 1)))
    assert check.bijective and check.coinvariant_dim == check.tensor_dim == 1


def test_antipode_twist_identity_holds():
    # S T = T^(-1) S, checked in the inverse-free form T S T = S
    for p, i in [(2, 4), (3, 3)]:
        s = regular_antipode(p, i).matrix.array
        t = regular_module(p, i).action.array
        assert np.array_equal((t @ s @ t) % p, s)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("i", (1, 2, 5, 8))
def test_batched_antipode_images_match_the_kronecker_route(p, i):
    m = regular_module(p, i)
    antipode = regular_antipode(p, i)
    relations = _coinvariant_relations(m, m)
    phi = FpMatrix(p, np.kron(np.eye(i, dtype=np.int64), antipode.matrix.array))
    expected = (FpMatrix(p, relations) @ FpMatrix(p, phi.array.T)).array
    assert np.array_equal(_id_tensor_images(relations, antipode), expected)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("i", range(1, 9))
def test_certificate_tensor_dim_matches_the_quotient(p, i):
    # the certificate ranks the tensor relations in its own accumulator
    trivial = trivial_module(p, min(i, 3))
    for antipode in (
        regular_antipode(p, i),
        ModuleAntipode(trivial, FpMatrix.identity(p, min(i, 3))),
    ):
        m = antipode.module
        check = antipode_iso_check(antipode)
        assert check.tensor_dim == tensor_over_groupring(m, m)
        assert check.coinvariant_dim == diagonal_coinvariants(m, m)


def test_certificate_takes_one_rank_and_no_tensor_quotient(monkeypatch):
    antipode = regular_antipode(3, 6)
    calls = {"rank": 0, "tensor": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(cycmod, "rank", counted("rank", cycmod.rank))
    monkeypatch.setattr(
        cycmod, "tensor_over_groupring", counted("tensor", cycmod.tensor_over_groupring)
    )
    for _ in range(2):
        assert antipode_iso_check(antipode).bijective
    # one rank per check: the coinvariant quotient's
    assert calls == {"rank": 2, "tensor": 0}


@pytest.mark.parametrize("p,i", [(2, 3), (3, 3)])
def test_identity_is_not_an_antipode_certificate(p, i):
    # S = identity fails the twist S T = T^(-1) S, so the constructor would
    # reject it; bypass validation to reach the certificate's failing branch
    m = regular_module(p, i)
    fake = ModuleAntipode.__new__(ModuleAntipode)
    object.__setattr__(fake, "module", m)
    object.__setattr__(fake, "matrix", FpMatrix.identity(p, i))
    check = antipode_iso_check(fake)
    assert check.bijective is False
    assert (check.coinvariant_dim, check.tensor_dim) == (i, i)


def test_corrupted_antipode_rejected():
    m = regular_module(2, 3)
    good = regular_antipode(2, 3).matrix.array.copy()
    good[0, 1] ^= 1  # break the twist
    with pytest.raises(UsageError):
        ModuleAntipode(m, FpMatrix(2, good))
    with pytest.raises(UsageError):
        ModuleAntipode(m, FpMatrix(2, np.zeros((3, 3), dtype=np.int64)))
    # the certificate takes a checked ModuleAntipode, never a bare matrix
    with pytest.raises(UsageError):
        antipode_iso_check(FpMatrix(2, good))


def test_module_and_antipode_take_fp_matrices_only():
    # a raw array is refused, not converted
    with pytest.raises(UsageError):
        FpCModule(2, np.eye(2, dtype=np.int64))
    m = regular_module(2, 3)
    with pytest.raises(UsageError):
        ModuleAntipode(m, regular_antipode(2, 3).matrix.array)

