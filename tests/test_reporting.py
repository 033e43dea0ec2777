"""Report sections against independent routes to the same rows."""

import random

import numpy as np
import pytest

from procyclic import PadicInt, TruncSeries, fpx, reporting
from procyclic.reporting import section_frobenius, section_tau_soundness
from procyclic.taumap import min_digit_precision, tau


def _frobenius_rows_from_scratch(primes, i_max, prec):
    """The frobenius rows with 1 - x raised to p^i afresh at every level."""
    rows = []
    for p in primes:
        base = TruncSeries.one_minus_x(p, prec)
        for i in range(1, i_max + 1):
            rhs = TruncSeries.one(p, prec) - TruncSeries.monomial(p, prec, p**i)
            rows.append({"p": p, "i": i, "exact": base ** (p**i) == rhs})
    return rows


@pytest.mark.parametrize(
    "prec",
    [1, 2, 5, fpx.INT64_CUTOFF + 1, fpx.SCHOOLBOOK_CUTOFF, fpx.SCHOOLBOOK_CUTOFF + 1, 4096, 4097],
)
def test_frobenius_chain_matches_powering_from_scratch(prec):
    section = section_frobenius(primes=(2, 3, 5), i_max=10, prec=prec)
    assert section.rows == _frobenius_rows_from_scratch((2, 3, 5), 10, prec)
    assert section.status == "pass"


@pytest.mark.parametrize("prec", [1, 2, 5, fpx.INT64_CUTOFF + 1])
def test_frobenius_chain_matches_powering_from_scratch_at_a_large_prime(prec):
    section = section_frobenius(primes=(65521,), i_max=10, prec=prec)
    assert section.rows == _frobenius_rows_from_scratch((65521,), 10, prec)
    assert section.status == "pass"


@pytest.mark.parametrize("p, prec", [(2, 9), (3, 9), (5, 4096), (65521, 300)])
def test_frobenius_takes_no_product_once_the_left_side_is_one(p, prec, monkeypatch):
    # from level ceil(log_p(prec)) on, the left side is the series 1
    products = []
    mul = TruncSeries.__mul__

    def counted(a, b):
        products.append(a.prec)
        return mul(a, b)

    monkeypatch.setattr(TruncSeries, "__mul__", counted)
    last = min_digit_precision(p, prec)
    section_frobenius(primes=(p,), i_max=last, prec=prec)
    until_one = len(products)
    assert until_one > 0
    section = section_frobenius(primes=(p,), i_max=40, prec=prec)
    assert len(products) == 2 * until_one
    assert section.status == "pass"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frobenius_fails_when_the_sparse_kernel_drops_a_term(p, monkeypatch):
    # adding 1 to one coefficient would not do: at p = 2 the same product
    # is taken twice and the two corruptions cancel
    kernel = fpx._mul_small_support

    def drop_top_term(dense, sparse, q):
        sparse = sparse.copy()
        sparse[np.flatnonzero(sparse)[-1]] = 0
        return kernel(dense, sparse, q)

    monkeypatch.setattr(fpx, "_mul_small_support", drop_top_term)
    assert section_frobenius(primes=(p,)).status == "fail"


def _tau_soundness_rows_one_call_each(primes, prec, trials, seed):
    """The tau-soundness rows with one scalar tau call per exponent."""
    rows = []
    rng = random.Random(seed)
    for p in primes:
        k = min_digit_precision(p, prec)
        geo = tau(PadicInt.from_int(-1, p, k), prec) == TruncSeries.one_minus_x(p, prec).invert()
        hom = 0
        for _ in range(trials):
            a = PadicInt(p, [rng.randrange(p) for _ in range(k)])
            b = PadicInt(p, [rng.randrange(p) for _ in range(k)])
            hom += tau(a + b, prec) == tau(a, prec) * tau(b, prec)
        cont = 0
        for _ in range(trials):
            depth = rng.randrange(1, k + 1)
            a = PadicInt(p, [rng.randrange(p) for _ in range(k)])
            b = PadicInt(p, list(a.digits[:depth]) + [rng.randrange(p) for _ in range(k - depth)])
            cut = min(p**depth, prec)
            cont += tau(a, prec).truncate(cut) == tau(b, prec).truncate(cut)
        rows.append(
            {
                "p": p,
                "geometric": geo,
                "hom_trials": f"{hom}/{trials}",
                "continuity_trials": f"{cont}/{trials}",
            }
        )
    return rows


@pytest.mark.parametrize(
    "seed, primes, prec, trials",
    [(1, (2, 3, 5), 256, 100), (101, (2, 3, 5), 256, 100), (1, (2, 7, 65521), 100, 33)],
)
def test_tau_soundness_blocks_match_one_call_per_exponent(seed, primes, prec, trials):
    section = section_tau_soundness(primes=primes, prec=prec, trials=trials, seed=seed)
    assert section.rows == _tau_soundness_rows_one_call_each(primes, prec, trials, seed)
    assert section.status == "pass"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tau_soundness_fails_when_tau_is_not_a_homomorphism(p, monkeypatch):
    # x^1 + 1 in every image: tau(a + b) gains x, tau(a) * tau(b) gains 2x.
    # Dropping the top digit would not do: that map is still a homomorphism.
    closed_form = reporting.tau_rows

    def plus_x(q, digits, prec):
        rows = closed_form(q, digits, prec)
        rows[:, 1] = (rows[:, 1] + 1) % q
        return rows

    monkeypatch.setattr(reporting, "tau_rows", plus_x)
    section = section_tau_soundness(primes=(p,))
    [row] = section.rows
    assert section.status == "fail"
    assert int(row["hom_trials"].split("/")[0]) < 100


def _corrupt_first_row_once(kernel):
    """kernel with digit or coefficient 0 of row 0 moved by one, in its first call only."""
    calls = []

    def corrupted(p, a, b):
        out = kernel(p, a, b)
        if not calls:
            out[0, 0] = (out[0, 0] + 1) % p
        calls.append(p)
        return out

    return corrupted


@pytest.mark.parametrize("kernel", ["mul_rows", "add_digit_rows"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_tau_soundness_catches_one_wrong_row(p, kernel, monkeypatch):
    monkeypatch.setattr(reporting, kernel, _corrupt_first_row_once(getattr(reporting, kernel)))
    section = section_tau_soundness(primes=(p,))
    [row] = section.rows
    assert section.status == "fail"
    assert row["hom_trials"] == "99/100"
    assert row["continuity_trials"] == "100/100"


def test_tau_soundness_draws_as_one_tau_call_per_exponent(monkeypatch):
    # the same randrange calls in the same order, and the same summands
    calls, summands = [], []

    class Recording(random.Random):
        def randrange(self, *args):
            calls.append(args)
            return super().randrange(*args)

    add_rows, add = reporting.add_digit_rows, PadicInt.__add__

    def recording_add_rows(p, a, b):
        summands.extend(zip(a.tolist(), b.tolist()))
        return add_rows(p, a, b)

    def recording_add(a, b):
        summands.append((a.digits.tolist(), b.digits.tolist()))
        return add(a, b)

    monkeypatch.setattr(reporting.random, "Random", Recording)
    monkeypatch.setattr(reporting, "add_digit_rows", recording_add_rows)
    rows = section_tau_soundness().rows
    blocked_calls, calls[:] = list(calls), []
    blocked_summands, summands[:] = list(summands), []
    monkeypatch.setattr(PadicInt, "__add__", recording_add)
    assert rows == _tau_soundness_rows_one_call_each((2, 3, 5), 256, 100, reporting.DEFAULT_SEED)
    assert blocked_calls == calls and len(calls) > 3 * 200
    assert blocked_summands == summands and len(summands) == 3 * 100


def test_tau_soundness_hom_phase_is_one_stacked_product_per_block(monkeypatch):
    log = []

    def logged(name, fn):
        def wrapper(*args, **kwargs):
            log.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(TruncSeries, "__mul__", logged("mul", TruncSeries.__mul__))
    inverse_products = {}
    for p in (2, 3, 5):
        TruncSeries.one_minus_x(p, 256).invert()
        inverse_products[p], log[:] = len(log), []
    monkeypatch.setattr(reporting, "mul_rows", logged("mul_rows", reporting.mul_rows))
    monkeypatch.setattr(reporting, "tau_rows", logged("tau_rows", reporting.tau_rows))
    monkeypatch.setattr(PadicInt, "__init__", logged("PadicInt", PadicInt.__init__))
    assert section_tau_soundness().status == "pass"
    blocks = -(-100 // reporting.TAU_BLOCK)
    expected = []
    for p in (2, 3, 5):
        # geometric: tau(-1) and the Newton inverse of 1 - x; then the two phases
        expected += ["PadicInt"] + ["mul"] * inverse_products[p]
        expected += ["tau_rows", "mul_rows"] * blocks + ["tau_rows"] * blocks
    assert log == expected
    assert log.count("mul_rows") == 15
