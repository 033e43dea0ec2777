"""The entry gate: integers enter the package exactly, or not at all.

Every constructor and parser that takes caller integers refuses a float
(2.0 included), a bool, a string or None with UsageError instead of
truncating or coercing it, and a numpy integer array of any dtype builds
the same value as the list of the same Python ints.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procyclic import (
    FiniteGroup,
    FpMatrix,
    GroupHom,
    LaurentTrunc,
    PadicInt,
    SparseRankAccumulator,
    TensorRep,
    TruncSeries,
    build_lamplighter,
    census_ratio_set,
    cyclic_group,
    density_gap,
    elementary_abelian,
    enum_A,
    kappa,
    kernel_basis,
    lamplighter_socle,
    mu,
    parse_series,
    rank,
    regular_module,
    tau,
    tower_report,
    trivial_module,
)
from procyclic.errors import UsageError
from procyclic.taumap import min_digit_precision

Z2 = cyclic_group(2, 1)

# each case builds a value from two entries (valid: [0, 1]) and returns a
# key that compares equal exactly when the values are equal
CASES = {
    "TruncSeries": lambda e: TruncSeries(2, e),
    "PadicInt": lambda e: PadicInt(2, e),
    "FpMatrix": lambda e: FpMatrix(2, [e, e]).array.tolist(),
    "FiniteGroup": lambda e: FiniteGroup(2, [e, e[::-1]]).table.tolist(),
    "GroupHom": lambda e: GroupHom(Z2, Z2, e).images.tolist(),
    "from_json_dict": lambda e: FiniteGroup.from_json_dict(
        {"prime": 2, "order": 2, "table": list(e) + list(e[::-1])}
    ).table.tolist(),
    "census_ratio_set": lambda e: census_ratio_set(2, e, [1, 1], 1, 1),
}
# parse_series takes text, so its entries are the JSON-encodable ones
JSON_CASE = {"parse_series": lambda e: parse_series(json.dumps(e), 2, 2)}

NON_INTEGRAL = st.one_of(
    st.floats(allow_nan=False),
    st.integers(0, 1).map(float),  # 0.0 and 1.0 would pass a truncating cast
    st.booleans(),
    st.integers(0, 1).map(str),
    st.none(),
)
NUMPY_NON_INTEGRAL = st.one_of(
    st.floats(allow_nan=False).map(np.float64),
    st.booleans().map(np.bool_),
)

DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(sorted(CASES)),
    bad=st.one_of(NON_INTEGRAL, NUMPY_NON_INTEGRAL),
    where=st.integers(0, 1),
)
def test_non_integral_entry_is_refused(case, bad, where):
    entries = [0, 1]
    entries[where] = bad
    with pytest.raises(UsageError, match="must be an integer"):
        CASES[case](entries)


@settings(max_examples=30, deadline=None)
@given(bad=NON_INTEGRAL, where=st.integers(0, 1))
def test_non_integral_json_coefficient_is_refused(bad, where):
    entries = [0, 1]
    entries[where] = bad
    with pytest.raises(UsageError, match="must be an integer"):
        JSON_CASE["parse_series"](entries)


@st.composite
def _typed_entries(draw):
    dtype = draw(st.sampled_from(DTYPES))
    info = np.iinfo(dtype)
    value = st.one_of(st.integers(0, 1), st.integers(int(info.min), int(info.max)))
    return dtype, [draw(value), draw(value)]


def _outcome(build, entries):
    try:
        return build(entries)
    except UsageError as exc:
        return f"UsageError: {exc}"


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(sorted(CASES)), typed=_typed_entries())
def test_every_integer_dtype_matches_python_ints(case, typed):
    dtype, entries = typed
    build = CASES[case]
    assert _outcome(build, np.array(entries, dtype=dtype)) == _outcome(build, entries)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TruncSeries(5, [1, 2], 2.0),
        lambda: PadicInt(3, [1, 2], 2.0),
        lambda: TruncSeries.monomial(5, 4, 1, 2.5),
        lambda: TruncSeries.monomial(5, 4, 1.0),
        lambda: TruncSeries.monomial(5, 4.0, 1),
        lambda: PadicInt.from_int(2.5, 3, 2),
        lambda: PadicInt.from_int(2, 3, 2.0),
        lambda: LaurentTrunc(2.5, TruncSeries(5, [1, 2])),
        lambda: LaurentTrunc(True, TruncSeries(5, [1, 2])),
        lambda: TruncSeries(5, [1, 2]) ** True,
        lambda: tau(PadicInt(2, [1, 0, 0]), 4.0),
        lambda: TruncSeries(5, [1, 2]).truncate(1.5),
        lambda: TruncSeries(5, [1, 2]).truncate(True),
        lambda: cyclic_group(2, 2.0),
        lambda: elementary_abelian(2, True),
        lambda: build_lamplighter(2, 1.0),
        lambda: build_lamplighter(2, 1, 2.0),
        lambda: lamplighter_socle(2.0, 2, 1),
        lambda: lamplighter_socle(2, 2.0, 1),
        lambda: lamplighter_socle(2, 2, 1.0),
        lambda: lamplighter_socle(2, 2, 2, 1.0),
        lambda: lamplighter_socle(2, 2, 2, True),
        lambda: tower_report(2, 2.0),
        lambda: tower_report(2, True),
        lambda: census_ratio_set(2, [1], [1], 1.0, 2),
        lambda: census_ratio_set(2, [1], [1], 1, 2.0),
        lambda: TruncSeries(5, [1, 2]).extend(9.0),
        lambda: TruncSeries(5, [1, 2]).extend("9"),
        lambda: TruncSeries(5, [1, 2]).shift_up(1.0),
        lambda: TruncSeries(5, [1, 2]).shift_up(True),
        lambda: TruncSeries(5, [0, 2]).shift_down(1.0),
        lambda: TruncSeries(5, [0, 2]).shift_down(True),
        lambda: PadicInt(3, [1, 2]).truncate(2.0),
        lambda: min_digit_precision(2, 2.5),
        lambda: min_digit_precision(2, True),
        lambda: enum_A(2, 2.0),
        lambda: regular_module(2, 2.0),
        lambda: trivial_module(2, 2.0),
        lambda: density_gap(TruncSeries.zero(2, 2), True, 2),
        lambda: density_gap(TruncSeries.zero(2, 2), 1, 2.0),
        lambda: TensorRep(TruncSeries(5, [1, 2]), 1.5),
        lambda: TensorRep(TruncSeries(5, [1, 2]), False),
    ],
)
def test_non_integral_scalar_argument_is_refused(build):
    with pytest.raises(UsageError, match="must be an integer"):
        build()


@pytest.mark.parametrize(
    "build,expected",
    [
        (lambda: density_gap([0, 1], 1, 2), "TruncSeries"),
        (lambda: rank([[1]]), "FpMatrix"),
        (lambda: kernel_basis([[1]]), "FpMatrix"),
        (lambda: TensorRep([1, 2], 0), "TruncSeries"),
        (lambda: kappa(TruncSeries.zero(2, 4)), "LaurentTrunc"),
        (lambda: mu(TruncSeries(5, [1, 2])), "TensorRep"),
        (lambda: LaurentTrunc(0, [1]), "TruncSeries"),
    ],
)
def test_wrong_argument_type_is_refused(build, expected):
    with pytest.raises(UsageError, match=f"expected {expected}, got"):
        build()


def test_negative_module_dimension_is_refused():
    with pytest.raises(UsageError, match="module dimension must be >= 0"):
        trivial_module(3, -1)
    assert trivial_module(3, 0).dim == 0


@pytest.mark.parametrize(
    "p,i,copies,message",
    [
        (4, 2, 1, "4 is not prime"),
        (1, 2, 1, "prime must lie in"),
        (2, 0, 1, "level i must be >= 1"),
        (2, -1, 2, "level i must be >= 1"),
        (2, 2, 3, "copies must be 1 or 2"),
        (2, 2, 0, "copies must be 1 or 2"),
    ],
)
def test_lamplighter_arguments_out_of_range_are_refused(p, i, copies, message):
    for use in (build_lamplighter, lamplighter_socle):
        with pytest.raises(UsageError, match=message):
            use(p, i, copies)


def test_float_prime_is_refused_after_an_equal_integer_is_cached():
    TruncSeries(np.int64(2), [1])
    with pytest.raises(UsageError, match="prime must be an integer"):
        TruncSeries(2.0, [1])


def test_big_scalar_coefficient_is_reduced():
    assert TruncSeries.monomial(5, 4, 1, 10**30 + 2) == TruncSeries(5, [0, 2], 4)
    assert PadicInt.from_int(-(3**40) - 1, 3, 2) == PadicInt.from_int(-1, 3, 2)


@pytest.mark.parametrize("row", [True, False, 5.0, np.float64(5), np.bool_(True), "5", None])
def test_bit_packed_row_must_be_an_integer(row):
    acc = SparseRankAccumulator(4, 2)
    with pytest.raises(UsageError, match="bit-packed row must be an integer"):
        acc.add_bits(row)
    assert acc.rank == 0


def test_bit_packed_row_takes_numpy_integers():
    acc = SparseRankAccumulator(4, 2)
    assert acc.add_bits(np.int64(5)) and acc.add_bits(np.uint8(2))
    assert not acc.add_bits(np.int32(7))
    assert acc.rank == 2


@pytest.mark.parametrize("p", (2, 3, 65521))
@pytest.mark.parametrize(
    "pair, what",
    [
        ((True, 1), "column"),
        ((1.0, 1), "column"),
        ((np.float64(1), 1), "column"),
        (("1", 1), "column"),
        ((1, 1.5), "entry"),
        ((np.int64(1), 1.5), "entry"),
        ((1, 1.0), "entry"),
        ((1, True), "entry"),
        ((1, None), "entry"),
    ],
)
def test_pair_column_and_value_must_be_integers(p, pair, what):
    acc = SparseRankAccumulator(4, p)
    with pytest.raises(UsageError, match=f"{what} must be an integer"):
        acc.add_pairs([(0, 1), pair])
    assert acc.rank == 0


@pytest.mark.parametrize("p", (2, 3, 65521))
def test_pairs_take_numpy_integers_and_reduce_big_values(p):
    acc = SparseRankAccumulator(4, p)
    assert acc.add_pairs([(np.int64(1), np.int32(1)), (np.uint8(3), 10**30 * p + 1)])
    assert acc.reduced()[1].tolist() == [[0, 1, 0, 1]]


@pytest.mark.parametrize(
    "p, row",
    [
        (2, [2, 0]),
        (3, [2**60 + 7, 1, 0]),  # would round in the float64 block product
        (3, [10**18 + 1, 1, 0]),
        (3, [2**62 + 3, 1, 0]),
        (3, [-1, 1, 0]),
        (3, [1.5, 0, 0]),
        (2, [0.5, 0]),
    ],
)
def test_add_rows_refuses_entries_outside_the_field(p, row):
    acc = SparseRankAccumulator(len(row), p)
    assert acc.add_rows(np.array([[1] + [0] * (len(row) - 2) + [1]])) == 1
    before = acc.reduced()
    for rows in (np.array([row]), [row]):
        with pytest.raises(UsageError, match="row entry"):
            acc.add_rows(rows)
    assert acc.rank == 1
    assert all(np.array_equal(a, b) for a, b in zip(acc.reduced(), before))


@pytest.mark.parametrize("p", (2, 3, 65521))
def test_add_rows_takes_nested_lists(p):
    acc = SparseRankAccumulator(3, p)
    assert acc.add_rows([[1, 0, 1], [0, 1, 1], [1, 1, 0]]) == (2 if p == 2 else 3)
    with pytest.raises(UsageError, match=r"rows of shape \(1, 2\) do not have 3 columns"):
        acc.add_rows([[1, 0]])
    with pytest.raises(UsageError, match=r"rows of shape \(3,\) do not have 3 columns"):
        acc.add_rows([1, 0, 1])
    # a ragged list is refused before any row is added, like FpMatrix refuses it
    rank = acc.rank
    for ragged in ([[1, 0, 1], [1]], [[1], [1, 0, 1]]):
        with pytest.raises(UsageError, match="row entry must be an integer"):
            acc.add_rows(ragged)
    assert acc.rank == rank
