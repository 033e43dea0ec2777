"""Linear algebra over F_p, cross-checked by a division-free eliminator."""

import inspect
import random

import numpy as np
import pytest

from procyclic import (
    FpMatrix,
    ResourceLimitError,
    SparseRankAccumulator,
    UsageError,
    kernel_basis,
    rank,
    regular_antipode,
)
from procyclic import linfp
from procyclic.cycmod import _coinvariant_relations, _id_tensor_images, _tensor_relations
from procyclic.fpx import MAX_PRIME
from procyclic.linfp import (
    BLOCK_ROWS,
    EXACT_FLOAT,
    PANEL_BOUND,
    _check_float_rank,
    _mod_exact,
    float_terms,
    matmul_mod,
    rref,
)


def rank_division_free(rows, p):
    """Gaussian elimination using only cross-multiplication, no inverses."""
    a = [[int(x) % p for x in row] for row in rows]
    if not a:
        return 0
    nrows, ncols = len(a), len(a[0])
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if a[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        lead = a[r][c]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(lead * a[i][j] - f * a[r][j]) % p for j in range(ncols)]
        r += 1
        if r == nrows:
            break
    return r


def random_matrix(rng, p, rows, cols, density=1.0):
    arr = np.zeros((rows, cols), dtype=np.int64)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                arr[i, j] = rng.randrange(p)
    return arr


def test_rank_identity_and_zero():
    assert rank(FpMatrix.identity(3, 7)) == 7
    assert rank(FpMatrix(2, np.zeros((4, 6), dtype=np.int64))) == 0


def test_rank_against_division_free_oracle_f3():
    rng = random.Random(50)
    arr = random_matrix(rng, 3, 50, 50)
    assert rank(FpMatrix(3, arr)) == rank_division_free(arr, 3)


def sparse_matrix(rng, p, rows, cols, entries):
    arr = np.zeros((rows, cols), dtype=np.int64)
    for _ in range(entries):
        arr[rng.randrange(rows), rng.randrange(cols)] = rng.randrange(1, p)
    return arr


def test_rank_against_oracle_various_shapes():
    rng = random.Random(51)
    inputs = []
    for p in (2, 3, 7, 13, 65521):
        shapes = [(rng.randrange(1, 25), rng.randrange(1, 25)) for _ in range(15)]
        shapes += [(0, 7), (6, 0), (0, 0), (3, 90), (5, 200)]
        inputs += [(p, random_matrix(rng, p, rows, cols)) for rows, cols in shapes]
    for p, arr in inputs:
        m = FpMatrix(p, arr)
        assert rank(m) == rank_division_free(arr, p)
        assert rank(m) == len(rref(m)[1])


def test_rank_dispatches_sparse_path_consistently():
    # one rank path for every density: a 300 x 400 matrix over F_3 with at
    # most 500 nonzero entries goes through the same accumulator as a dense one
    arr = sparse_matrix(random.Random(57), 3, 300, 400, 500)
    assert np.count_nonzero(arr) < 0.05 * arr.size
    m = FpMatrix(3, arr)
    assert rank(m) == rank_division_free(arr, 3)
    assert rank(m) == len(rref(m)[1])


def test_rank_transpose_and_permutation_invariance():
    rng = random.Random(52)
    for p in (2, 5):
        arr = random_matrix(rng, p, 20, 31)
        m = FpMatrix(p, arr)
        assert rank(m) == rank(FpMatrix(p, arr.T))
        row_perm = np.array(rng.sample(range(20), 20))
        col_perm = np.array(rng.sample(range(31), 31))
        assert rank(FpMatrix(p, arr[row_perm][:, col_perm])) == rank(m)


def test_kernel_identity_zero_and_multiply_back():
    assert kernel_basis(FpMatrix.identity(5, 4)).rows == 0
    full = kernel_basis(FpMatrix(3, np.zeros((3, 6), dtype=np.int64)))
    assert full == FpMatrix.identity(3, 6)
    rng = random.Random(53)
    for p in (2, 7):
        arr = random_matrix(rng, p, 9, 14)
        m = FpMatrix(p, arr)
        ker = kernel_basis(m)
        assert ker.rows == 14 - rank(m)
        assert rank(ker) == ker.rows
        assert not (m @ FpMatrix(p, ker.array.T)).array.any()


def test_sparse_stream_agrees_with_dense():
    rng = random.Random(56)
    for p in (2, 5):
        for _ in range(10):
            arr = random_matrix(rng, p, 40, 60, density=0.07)
            acc = SparseRankAccumulator(60, p)
            for row in arr:
                nz = np.nonzero(row)[0]
                acc.add_pairs(zip(nz.tolist(), row[nz].tolist()))
            assert acc.rank == rank_division_free(arr, p)


def test_rank_of_wide_sparse_matrix_allocates_by_rank():
    # ten rows of width 100000: the float64 basis must grow with the rank,
    # not be sized from the column count
    rng = np.random.default_rng(58)
    arr = np.zeros((10, 100_000), dtype=np.int64)
    for row in arr:
        row[rng.choice(100_000, size=50, replace=False)] = 1
    assert rank(FpMatrix(3, arr)) == 10
    arr[9] = (arr[3] + 2 * arr[5]) % 3
    assert rank(FpMatrix(3, arr)) == 9


def row_path(arr, p, acc=None):
    """The accumulator after the rows went in one at a time through add_pairs:
    at odd p, the block step fed one-row blocks."""
    acc = acc or SparseRankAccumulator(arr.shape[1], p)
    for row in arr:
        nz = np.nonzero(row)[0]
        acc.add_pairs(zip(nz.tolist(), row[nz].tolist()))
    return acc


def row_path_rank(arr, p):
    return row_path(arr, p).rank


def deficient_matrix(rng, p, rows, cols, inner):
    """rows x cols of rank at most inner, with duplicate and zero rows mixed in."""
    arr = rng.integers(0, p, size=(rows, inner)) @ rng.integers(0, p, size=(inner, cols)) % p
    if rows >= 3:
        arr[rng.integers(rows)] = arr[rng.integers(rows)]
        arr[rng.integers(rows)] = 0
    return arr


B = BLOCK_ROWS


def check_same_basis(acc, other):
    """Equal bases, row for row: any split of the rows into blocks gives one RREF."""
    pivcols, rows = acc.reduced()
    other_pivcols, other_rows = other.reduced()
    assert pivcols.tolist() == other_pivcols.tolist()
    assert rows.tobytes() == other_rows.tobytes()


def check_against_rref(pivcols, rows, arr, p):
    """The basis equals the rref oracle's rows, taken in pivot order."""
    reduced, pivots = rref(FpMatrix(p, arr))
    order = np.argsort(pivcols, kind="stable")
    assert pivcols[order].tolist() == pivots
    assert rows[order].tobytes() == reduced[: len(pivots)].tobytes()


def panel_cases(rng, p, rows, cols=30):
    """Blocks that take every branch of the in-panel elimination."""
    base = rng.integers(0, p, size=(rows, cols))
    # every third row is a combination of the two before it: nonzero on
    # entry, it vanishes only after their pivots have been subtracted
    combos = base.copy()
    for k in range(2, rows, 3):
        combos[k] = (rng.integers(1, p) * combos[k - 1] + rng.integers(1, p) * combos[k - 2]) % p
    # leading entries other than one, the pivot columns out of order
    stairs = np.zeros((rows, cols), dtype=np.int64)
    for k in range(rows):
        lead = cols - 1 - k % cols if k % 2 else k % cols
        stairs[k, lead] = rng.integers(2, p)
        stairs[k, lead + 1 :] = rng.integers(0, p, size=cols - lead - 1)
    # repeated rows with zero rows between them
    repeated = base[np.arange(rows) % 3] * (np.arange(rows) % 4 != 3)[:, None]
    scaled = (base[:1] * rng.integers(1, p, size=(rows, 1))) % p
    return [base, combos, stairs, repeated, scaled]


@pytest.mark.parametrize("p", (3, 5, 7, 65521))
@pytest.mark.parametrize("rows", (0, 1, B - 1, B, B + 1, 3 * B + 5))
def test_block_path_matches_rref_and_row_path(p, rows):
    rng = np.random.default_rng(rows * 1000 + p)
    cases = [
        rng.integers(0, p, size=(rows, 37)),  # full rank where rows allow
        deficient_matrix(rng, p, rows, 37, 5),  # rank 5 across several blocks
        deficient_matrix(rng, p, rows, 70, 23),
        np.zeros((rows, 12), dtype=np.int64),
        np.repeat(rng.integers(0, p, size=(1, 12)), rows, axis=0),  # one row, repeated
        *panel_cases(rng, p, rows),
    ]
    for arr in cases:
        expected = len(rref(FpMatrix(p, arr))[1])
        assert rank(FpMatrix(p, arr)) == expected
        acc = SparseRankAccumulator(arr.shape[1], p)
        acc.add_rows(arr)
        check_against_rref(*acc.reduced(), arr, p)
        check_same_basis(acc, row_path(arr, p))


def test_block_and_row_entries_share_one_basis():
    # rows added one at a time and then as arrays reduce against each other
    rng = np.random.default_rng(59)
    for p in (2, 3, 65521):
        arr = deficient_matrix(rng, p, 3 * B + 5, 50, 30)
        acc = SparseRankAccumulator(50, p)
        for row in arr[:9]:
            nz = np.nonzero(row)[0]
            acc.add_pairs(zip(nz.tolist(), row[nz].tolist()))
        added = sum(acc.add_rows(arr[lo : lo + B]) for lo in range(9, len(arr) - 3, B))
        assert not acc.add_pairs((c, v) for c, v in enumerate(arr[0]))
        assert acc.rank == len(rref(FpMatrix(p, arr[:-3]))[1]) == added + row_path_rank(arr[:9], p)


@pytest.mark.parametrize("p", (2, 3, 5, 65521))
def test_add_rows_counts_the_pivots_it_adds(p):
    rng = np.random.default_rng(p)
    for arr in (
        deficient_matrix(rng, p, 3 * B + 5, 40, 17),  # zero and duplicate rows
        np.zeros((4, 9), dtype=np.int64),
        np.zeros((0, 9), dtype=np.int64),
        np.repeat(rng.integers(1, p, size=(1, 9)), 5, axis=0),
    ):
        expected = len(rref(FpMatrix(p, arr))[1])
        acc = SparseRankAccumulator(arr.shape[1], p)
        assert acc.add_rows(arr) == acc.rank == expected
        # the same rows again add nothing
        assert acc.add_rows(arr[::-1]) == 0
        assert acc.rank == expected


@pytest.mark.parametrize("width", (1, 7, 8, 9, 70))
def test_add_rows_packs_every_width_over_f2(width):
    rng = np.random.default_rng(width)
    arr = deficient_matrix(rng, 2, 2 * width + 3, width, max(1, width // 2))
    arr[0] = 0
    arr[1] = 0
    arr[1, -1] = 1  # the last column alone, past any whole byte
    expected = len(rref(FpMatrix(2, arr))[1])
    acc = SparseRankAccumulator(width, 2)
    assert acc.add_rows(arr) == expected
    assert row_path_rank(arr, 2) == expected


@pytest.mark.parametrize("p", (3, 5, 65521))
def test_add_rows_interleaved_with_add_pairs_matches_rref(p):
    rng = np.random.default_rng(80 + p)
    arr = np.vstack(panel_cases(rng, p, B + 1))
    acc = SparseRankAccumulator(arr.shape[1], p)
    lo = 0
    for k, size in enumerate((3, B, 1, B + 1, 5, 2 * B, 7, B - 1)):
        chunk = arr[lo : lo + size]
        if k % 2:
            acc.add_rows(chunk)
        else:
            row_path(chunk, p, acc)
        lo += size
        check_against_rref(*acc.reduced(), arr[:lo], p)
    assert lo >= len(arr)
    check_same_basis(acc, row_path(arr, p))


def test_coinv_relation_matrices_match_rref():
    # the three 256 x 256 eliminations of coinv --p 3 --i 16
    antipode = regular_antipode(3, 16)
    m = antipode.module
    coinv = _coinvariant_relations(m, m)
    tensor = _tensor_relations(m, m)
    images = _id_tensor_images(coinv, antipode)
    for arr in (coinv, tensor):
        acc = SparseRankAccumulator(256, 3)
        assert acc.add_rows(arr) == 256 - 16
        check_against_rref(*acc.reduced(), arr, 3)
    # acc holds the tensor relations, whose span takes the antipode images
    assert acc.add_rows(images) == 0
    check_against_rref(*acc.reduced(), np.vstack([tensor, images]), 3)
    check_same_basis(acc, row_path(np.vstack([tensor, images]), 3))


def counted(monkeypatch, name):
    """Patch SparseRankAccumulator.name to record the rows each call gets."""
    seen = []
    original = getattr(SparseRankAccumulator, name)

    def record(self, rows):
        seen.append(rows)
        return original(self, rows)

    monkeypatch.setattr(SparseRankAccumulator, name, record)
    return seen


@pytest.mark.parametrize("p", (3, 65521))
def test_every_odd_p_row_reaches_the_block_step(monkeypatch, p):
    blocks = counted(monkeypatch, "_add_block")
    rng = np.random.default_rng(90)
    arr = deficient_matrix(rng, p, 3 * B + 5, 40, 25)
    nonzero = arr[arr.any(axis=1)]
    acc = SparseRankAccumulator(40, p)
    acc.add_rows(arr)
    assert np.vstack(blocks).tobytes() == nonzero.tobytes()
    assert [len(b) for b in blocks] == [B, B, B, len(nonzero) - 3 * B]
    blocks.clear()
    row_path(arr, p)
    assert [len(b) for b in blocks] == [1] * len(nonzero)
    assert np.vstack(blocks).tobytes() == nonzero.tobytes()


def test_every_f2_pair_row_reaches_the_bit_step(monkeypatch):
    bits = counted(monkeypatch, "add_bits")
    rng = np.random.default_rng(91)
    arr = deficient_matrix(rng, 2, 3 * B + 5, 40, 25)
    nonzero = arr[arr.any(axis=1)]
    row_path(arr, 2)
    assert bits == [sum(1 << int(c) for c in np.flatnonzero(row)) for row in nonzero]


def test_panel_bound_is_exact_in_int64():
    # a panel entry is a residue less at most BLOCK_ROWS products of two residues
    assert PANEL_BOUND == BLOCK_ROWS * (MAX_PRIME - 1) ** 2 + MAX_PRIME < 2**63
    assert 65521 + BLOCK_ROWS * 65520**2 < 2**37  # as _panel_rref's docstring says
    # the largest block the import accepts, and the first it refuses
    source = inspect.getsource(linfp)
    line = f"\nBLOCK_ROWS = {BLOCK_ROWS}\n"
    assert source.count(line) == 1
    for rows, fits in ((2_147_549_185, True), (2_147_549_186, False)):
        assert (rows * (MAX_PRIME - 1) ** 2 + MAX_PRIME < 2**63) == fits
        code = compile(source.replace(line, f"\nBLOCK_ROWS = {rows}\n"), linfp.__file__, "exec")
        namespace = {"__name__": "procyclic.linfp", "__package__": "procyclic"}
        if fits:
            exec(code, namespace)
            assert namespace["PANEL_BOUND"] < 2**63
        else:
            with pytest.raises(OverflowError, match=f"BLOCK_ROWS = {rows} overflows"):
                exec(code, namespace)


@pytest.mark.parametrize("p", (2, 3, 65521))
def test_mod_exact_edges_match_python_ints(p):
    top = EXACT_FLOAT - 2 * p
    k = top // p
    cases = [
        [j * p for j in range(-50, 51)] + [k * p, -k * p, (k - 1) * p, -(k - 1) * p],  # multiples
        [top, -top, top - p, p - top],  # the edge of the domain
        list(range(p)) if p < 100 else [0, 1, p // 2, p - 2, p - 1],  # already reduced
        [],
    ]
    for xs in cases:
        got = _mod_exact(np.array(xs, dtype=np.float64), p)
        assert got.dtype == np.float64 and got.shape == (len(xs),)
        assert got.astype(np.int64).tolist() == [x % p for x in xs]
    reduced = np.arange(p, dtype=np.float64)
    assert _mod_exact(reduced.copy(), p).tobytes() == reduced.tobytes()
    assert _mod_exact(np.zeros((0, 5)), p).shape == (0, 5)


@pytest.mark.parametrize("p", (2, 3, 5, 65521))
def test_float_reduction_matches_int64_mod(p):
    # the domain edge |x| = 2^53 - 2p, and multiples of p near it; at p = 5,
    # x = -(2^53 - 1) is outside the domain: q * p = -(2^53 + 4) rounds
    top = EXACT_FLOAT - 2 * p
    k = top // p
    xs = [top, -top, top - 1, 1 - top, 0, 1, -1, p, -p]
    for j in (k - 2, k - 1, k):
        xs += [j * p, j * p + 1, j * p - 1, -j * p, -j * p + 1, -j * p - 1]
    ints = np.array([x for x in xs if abs(x) <= top], dtype=np.int64)
    got = _mod_exact(ints.astype(np.float64), p)
    assert np.array_equal(got.astype(np.int64), ints % p)
    assert ((got >= 0) & (got < p)).all()


def test_float_rank_bound_at_65521():
    # 2098176 * 65520^2 + 2 * 65521 <= 2^53 < 2098177 * 65520^2
    _check_float_rank(2_098_176, 65521)
    with pytest.raises(ResourceLimitError):
        _check_float_rank(2_098_177, 65521)
    # at p = 3 the 2p margin of the reduction step decides: 2^51 * 4 = 2^53
    _check_float_rank(2**51 - 2, 3)
    with pytest.raises(ResourceLimitError):
        _check_float_rank(2**51, 3)


def shrink_float_bound(monkeypatch, p, rank):
    """Make rank the largest float64-exact rank at p, as 2098176 is at 65521."""
    monkeypatch.setattr(linfp, "EXACT_FLOAT", rank * (p - 1) ** 2 + 2 * p)
    _check_float_rank(rank, p)
    with pytest.raises(ResourceLimitError):
        _check_float_rank(rank + 1, p)


def test_row_path_stops_at_the_float_bound(monkeypatch):
    p, n = 65521, 40
    shrink_float_bound(monkeypatch, p, 20)
    acc = SparseRankAccumulator(n, p)
    for j in range(20):
        assert acc.add_pairs([(j, p - 1), (j + 1, 5)])
    with pytest.raises(ResourceLimitError):
        acc.add_pairs([(30, 3)])
    assert acc.rank == 20
    assert not acc.add_pairs([(0, 1), (1, 5 * pow(p - 1, -1, p))])


def test_block_path_stops_at_the_float_bound_before_merging(monkeypatch):
    p, n = 65521, 3 * B + 5
    shrink_float_bound(monkeypatch, p, 2 * B + 3)
    eye = np.eye(n, dtype=np.int64) * (p - 1)
    acc = SparseRankAccumulator(n, p)
    assert acc.add_rows(eye[:B]) == acc.add_rows(eye[B : 2 * B]) == B
    # the next block would take the rank from 2B to 3B > 2B + 3
    with pytest.raises(ResourceLimitError):
        acc.add_rows(eye[2 * B : 3 * B])
    assert acc.rank == 2 * B
    assert acc.add_rows(eye[2 * B : 2 * B + 3]) == 3
    with pytest.raises(ResourceLimitError):
        rank(FpMatrix(p, eye[: 2 * B + 4]))
    assert rank(FpMatrix(p, eye[: 2 * B + 3])) == 2 * B + 3


def test_add_bits_requires_f2():
    acc = SparseRankAccumulator(8, 3)
    with pytest.raises(UsageError):
        acc.add_bits(0b101)
    acc2 = SparseRankAccumulator(8, 2)
    assert acc2.add_bits(0b101)
    assert not acc2.add_bits(0b101)
    assert acc2.rank == 1


@pytest.mark.parametrize("ncols", (2.0, 3.5, True, "3", None, -1))
def test_accumulator_refuses_a_bad_column_count(ncols):
    for p in (2, 3):
        with pytest.raises(UsageError, match="column count"):
            SparseRankAccumulator(ncols, p)


def test_accumulator_takes_numpy_and_zero_column_counts():
    acc = SparseRankAccumulator(np.int32(3), 3)
    assert type(acc.ncols) is int and acc.ncols == 3
    empty = SparseRankAccumulator(0, 2)
    assert empty.add_rows(np.zeros((2, 0), dtype=np.int64)) == 0
    assert not empty.add_bits(0)


@pytest.mark.parametrize("p", (2, 3, 65521))
@pytest.mark.parametrize("width", (2, 4, 5))
def test_add_rows_refuses_another_width(p, width):
    acc = SparseRankAccumulator(3, p)
    with pytest.raises(UsageError, match="do not have 3 columns"):
        acc.add_rows(np.ones((2, width), dtype=np.int64))
    with pytest.raises(UsageError, match="do not have 3 columns"):
        acc.add_rows(np.ones(3, dtype=np.int64))
    assert acc.rank == 0
    assert acc.add_rows(np.eye(3, dtype=np.int64)) == 3


def test_add_bits_refuses_bits_past_the_last_column():
    acc = SparseRankAccumulator(3, 2)
    for row in (1 << 3, 1 << 7, 0b1001, -1):
        with pytest.raises(UsageError, match="does not fit in 3 columns"):
            acc.add_bits(row)
    assert acc.rank == 0
    assert acc.add_bits(0b100) and acc.add_bits(0b011)
    pivcols, rows = acc.reduced()
    assert rows.shape == (2, 3) and set(pivcols.tolist()) <= {0, 1, 2}


@pytest.mark.parametrize("p", (2, 3, 65521))
def test_add_pairs_refuses_a_column_outside_the_row(p):
    acc = SparseRankAccumulator(5, p)
    for pairs in ([(5, 1)], [(0, 1), (-1, 1)], [(7, 0)]):
        with pytest.raises(UsageError, match=r"is not in \[0, 5\)"):
            acc.add_pairs(pairs)
    assert acc.rank == 0
    assert acc.add_pairs([(0, 1), (4, 1)]) and acc.add_pairs([(4, 1)])
    pivcols, rows = acc.reduced()
    assert rows.shape == (2, 5) and set(pivcols.tolist()) <= set(range(5))


def test_matmul_and_validation():
    a = FpMatrix(3, [[1, 2], [0, 1]])
    b = FpMatrix(3, [[1, 1], [1, 0]])
    assert (a @ b) == FpMatrix(3, [[0, 1], [1, 0]])
    with pytest.raises(UsageError):
        a @ FpMatrix(5, [[1, 0], [0, 1]])
    with pytest.raises(UsageError):
        FpMatrix(3, [[1, 2, 3]]) @ b
    with pytest.raises(UsageError):
        FpMatrix(3, np.zeros((2, 2, 2)))


def check_matmul_mod(a, b, p):
    """matmul_mod against the product of Python ints, reduced mod p."""
    got = matmul_mod(a, b, p)
    expected = (a.astype(object) @ b.astype(object)) % p
    assert got.dtype == np.int64 and got.shape == expected.shape
    assert np.array_equal(got, expected.astype(np.int64))


def matmul_shapes(inner):
    """2-D @ 2-D, stacked @ 2-D and 2-D @ stacked, with this inner dimension."""
    return (((5, inner), (inner, 4)), ((3, 5, inner), (inner, 4)), ((5, inner), (3, inner, 4)))


@pytest.mark.parametrize("p", (2, 3, 65521))
@pytest.mark.parametrize("inner", (0, 1, 9))
def test_matmul_mod_matches_python_ints(p, inner):
    rng = np.random.default_rng(inner)
    for a_shape, b_shape in matmul_shapes(inner):
        check_matmul_mod(rng.integers(0, p, size=a_shape), rng.integers(0, p, size=b_shape), p)
        # every term at its largest, (p-1)^2
        check_matmul_mod(np.full(a_shape, p - 1), np.full(b_shape, p - 1), p)


@pytest.mark.parametrize("p", (2, 3, 65521))
def test_matmul_mod_chunks_at_the_float_bound(monkeypatch, p):
    terms = 6
    shrink_float_bound(monkeypatch, p, terms)
    assert float_terms(p) == terms
    rng = np.random.default_rng(p)
    for inner in (terms - 1, terms, terms + 1, 2 * terms + 1):
        for a_shape, b_shape in matmul_shapes(inner):
            check_matmul_mod(np.full(a_shape, p - 1), np.full(b_shape, p - 1), p)
            check_matmul_mod(rng.integers(0, p, size=a_shape), rng.integers(0, p, size=b_shape), p)


def rref_null_space(arr, p):
    """Null-space basis from the rref oracle: one row per free column, ascending."""
    reduced, pivots = rref(FpMatrix(p, arr))
    free = [c for c in range(arr.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), arr.shape[1]), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for r, c in enumerate(pivots):
            basis[k, c] = -reduced[r, f] % p
    return basis


def check_reduced(acc, inputs, p):
    pivcols, rows = acc.reduced()
    assert rows.dtype == np.int64 and rows.shape == (acc.rank, acc.ncols)
    assert pivcols.shape == (acc.rank,)
    assert np.array_equal(rows[:, pivcols], np.eye(acc.rank, dtype=np.int64))
    assert ((rows >= 0) & (rows < p)).all()
    stacked = np.vstack([inputs, rows])
    assert rank(FpMatrix(p, stacked)) == rank(FpMatrix(p, rows)) == acc.rank


@pytest.mark.parametrize("p", (2, 3, 7, 65521))
@pytest.mark.parametrize("shape", ((0, 9), (6, 0), (0, 0), (5, 9), (9, 9), (3 * B + 5, 40)))
def test_reduced_basis_of_whole_arrays(p, shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1] + p)
    rows, cols = shape
    cases = [
        np.zeros(shape, dtype=np.int64),  # rank 0
        rng.integers(0, p, size=shape),  # full rank where the shape allows
        deficient_matrix(rng, p, rows, cols, min(3, rows, cols)),
    ]
    if rows == cols and rows:
        cases.append(np.eye(rows, dtype=np.int64) * (p - 1))  # full rank
    for arr in cases:
        acc = SparseRankAccumulator(cols, p)
        acc.add_rows(arr)
        assert acc.rank == len(rref(FpMatrix(p, arr))[1])
        check_reduced(acc, arr, p)


@pytest.mark.parametrize("p", (2, 3, 7, 65521))
def test_reduced_basis_of_mixed_streams(p):
    rng = np.random.default_rng(60 + p)
    arr = deficient_matrix(rng, p, 3 * B + 7, 45, 29)
    acc = SparseRankAccumulator(45, p)
    for k, lo in enumerate(range(0, len(arr), 5)):
        chunk = arr[lo : lo + 5]
        if k % 3 == 0:
            acc.add_rows(chunk)
        elif k % 3 == 1 or p != 2:
            for row in chunk:
                nz = np.nonzero(row)[0]
                acc.add_pairs(zip(nz.tolist(), row[nz].tolist()))
        else:
            for row in chunk:
                acc.add_bits(sum(1 << int(c) for c in np.nonzero(row)[0]))
        check_reduced(acc, arr[: lo + 5], p)
    assert acc.rank == len(rref(FpMatrix(p, arr))[1])


@pytest.mark.parametrize("p", (2, 3, 5, 65521))
def test_kernel_basis_matches_the_rref_null_space(p):
    rng = np.random.default_rng(70 + p)
    shapes = [(0, 6), (6, 0), (4, 9), (9, 4), (12, 12), (3 * B + 5, 50)]
    for rows, cols in shapes:
        for arr in (
            np.zeros((rows, cols), dtype=np.int64),
            rng.integers(0, p, size=(rows, cols)),
            deficient_matrix(rng, p, rows, cols, min(4, rows, cols)),
        ):
            ker = kernel_basis(FpMatrix(p, arr)).array
            oracle = rref_null_space(arr, p)
            if p != 2:
                assert ker.tobytes() == oracle.tobytes() and ker.shape == oracle.shape
                continue
            # over F_2 the pivots differ (the accumulator keys rows by their
            # highest bit), so only the row spaces agree
            assert ker.shape == oracle.shape
            both = rank(FpMatrix(2, np.vstack([ker, oracle])))
            assert both == rank(FpMatrix(2, ker)) == rank(FpMatrix(2, oracle)) == len(ker)
