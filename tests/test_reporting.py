"""Report sections against independent routes to the same rows."""

import numpy as np
import pytest

from procyclic import TruncSeries, fpx
from procyclic.reporting import section_frobenius


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
    "prec", [1, 2, 5, fpx.INT64_CUTOFF + 1, fpx.SCHOOLBOOK_CUTOFF, fpx.SCHOOLBOOK_CUTOFF + 1]
)
def test_frobenius_chain_matches_powering_from_scratch(prec):
    section = section_frobenius(primes=(2, 3, 5), i_max=10, prec=prec)
    assert section.rows == _frobenius_rows_from_scratch((2, 3, 5), 10, prec)
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
