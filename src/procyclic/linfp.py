"""Dense and streaming linear algebra over F_p.

Everything downstream (coinvariant quotients, the antipode certificate,
bar-complex homology) reduces to ranks and kernels over a prime field, so
this module is the single place where elimination happens.  A quotient
dimension is the ambient dimension minus the rank of the relation rows,
and a span inclusion is an equality of two ranks.

Every rank is taken by one engine, SparseRankAccumulator, and only its
pivot rows are kept.  Arrays and every odd-p row the package forms
enter it in blocks through add_rows, single F_2 rows through add_bits;
add_pairs, one row of (column, value) pairs, is a one-row add_rows.
Over F_2 a row is a bit-packed Python integer and each reduction is one
word-parallel xor.  For odd p the pivot rows are kept inter-reduced in
float64, and add_rows feeds the nonzero rows in blocks of BLOCK_ROWS
(the blocked, delayed-reduction elimination of Dumas, Giorgi & Pernet,
ACM TOMS 35(3), 2008): one BLAS product reduces a whole block against
the basis, one in-place int64 panel elimination, _panel_rref, brings
the block to its own RREF, reducing each row mod p only at its pivot
step, and a second product back-reduces the basis at the block's new
pivots.  matmul_mod, every other product of residue matrices, is one
such product per chunk of the inner dimension.  Both rest on one bound,
float_terms(p): a sum of n terms below (p-1)^2 is exact in float64,
with the 2p margin of the reduction step, while n * (p-1)^2 + 2p <=
2^53; the accumulator checks its rank against it before pivots are
added.  Sums are brought back into [0, p) by an exact float step,
x - p * floor(x * (1/p)) with one fix-up, instead of float %; see
_mod_exact.

Null spaces come from the same engine: kernel_basis writes one vector
per free column of the basis SparseRankAccumulator.reduced hands out.
The dense int64 rref is unused by the package, and is the tests'
independent oracle for rank and null space.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceLimitError, UsageError, exact_int, exact_ints
from .fpx import MAX_PRIME, mod_p, validate_prime

__all__ = [
    "FpMatrix",
    "rank",
    "kernel_basis",
    "rref",
    "matmul_mod",
    "SparseRankAccumulator",
]

# Rows per block of the odd-p block path.  Best of 15, one BLAS thread on
# one core of a 2-CPU x86-64 machine, blocks of 8 / 16 / 32 rows took
# 10.0 / 8.6 / 8.7 ms for the rank of a random 256 x 256 F_3 matrix,
# 9.8 / 7.4 / 9.8 ms at p = 65521, 72.5 / 52.5 / 41.7 ms for 512 x 512
# over F_3, and 23.9 / 23.1 / 22.6 ms for coinv --p 3 --i 16: a larger
# block back-reduces the basis less often but spends more of its time in
# the row-by-row panel elimination inside it.  16 is kept, as 32 is not
# faster on 256 x 256.
BLOCK_ROWS = 16

# float64 represents every integer of magnitude at most 2^53
EXACT_FLOAT = 1 << 53

# _panel_rref subtracts at most BLOCK_ROWS products of two residues from a
# residue, so its int64 entries stay below this in magnitude
PANEL_BOUND = BLOCK_ROWS * (MAX_PRIME - 1) ** 2 + MAX_PRIME
if PANEL_BOUND >= 1 << 63:
    raise OverflowError(f"BLOCK_ROWS = {BLOCK_ROWS} overflows the int64 panel elimination")


class FpMatrix:
    """Immutable dense matrix over F_p (int64 storage, entries in [0, p))."""

    __slots__ = ("p", "array")

    def __init__(self, p: int, array):
        p = validate_prime(p)
        arr = exact_ints(array, "matrix entry", ndim=2, mod=p)
        arr.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "array", arr)

    def __setattr__(self, name, value):
        raise AttributeError("FpMatrix is immutable")

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        return cls(p, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        if not isinstance(other, FpMatrix):
            raise UsageError("matrix product needs an FpMatrix")
        if self.p != other.p:
            raise UsageError(f"mixed primes {self.p} and {other.p}")
        if self.cols != other.rows:
            raise UsageError(f"shape mismatch {self.array.shape} @ {other.array.shape}")
        return FpMatrix(self.p, matmul_mod(self.array, other.array, self.p))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash((self.p, self.array.shape, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, shape={self.array.shape})"


def float_terms(p: int) -> int:
    """The largest n with n * (p-1)^2 + 2p <= 2^53 (2,098,176 at p = 65521).

    A sum of n products of residues, and an entry in [0, p) less that sum,
    are then exact float64 integers inside the domain of _mod_exact.
    """
    return (EXACT_FLOAT - 2 * p) // (p - 1) ** 2


def _check_float_rank(rank: int, p: int) -> None:
    """Refuse a float64 basis of rank pivots whose reductions could round."""
    if rank > float_terms(p):
        raise ResourceLimitError("rank too large for exact float64 accumulation")


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b reduced into [0, p), exactly, as an int64 array.

    a and b hold residues in [0, p) and are 2-D or stacked with a leading
    batch axis, as for np.matmul.  One float64 GEMM per inner chunk of at
    most float_terms(p) terms gives exact sums; each chunk is reduced by
    _mod_exact, and the reduced chunks are added and the sum reduced.
    """
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    step = float_terms(p)
    out = _mod_exact(a[..., :step] @ b[..., :step, :], p)
    for lo in range(step, a.shape[-1], step):
        out += _mod_exact(a[..., lo : lo + step] @ b[..., lo : lo + step, :], p)
        _mod_exact(out, p)
    return out.astype(np.int64)


def _mod_exact(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce the integral float64 array x into [0, p) in place.

    Exact for |x| <= EXACT_FLOAT - 2p.  x * (1/p) carries two roundings, a
    relative error below 2^-52, so it lies within 2 / p < 1 of x / p (1/2
    at p = 2, where 1/p is exact), and its floor q is the true quotient or
    one off.  Then |q * p| <= |x| + 2p is exact, x - q * p lies in
    [-p, 2p), and one fix-up adds or subtracts p; the fix-up passes run
    only when some entry lies outside [0, p).  On a 256 x 256 array this
    takes 0.14 ms, where float % takes 1.6 ms (one x86-64 core).
    """
    q = x * (1.0 / p)
    np.floor(q, out=q)
    q *= p
    x -= q
    if x.size and (x.min() < 0 or x.max() >= p):
        np.add(x, p, out=x, where=x < 0)
        np.subtract(x, p, out=x, where=x >= p)
    return x


def _panel_rref(block: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF of a block of int64 residue rows, eliminated in place.

    Returns (rows, pivcols): the block's pivot rows, in the order the rows
    met their pivots, as int64 residues in [0, p) with rows[:, pivcols] = I.
    Row i is reduced mod p when its turn comes; its first nonzero column c
    is its pivot, it is scaled to one there, and col[:, None] * row, with
    col = block[:, c] mod p and col[i] = 0, is subtracted from the whole
    panel.  The other rows are not reduced between updates: each update
    subtracts at most (p-1)^2, so every entry stays below
    p + BLOCK_ROWS * (p-1)^2 in magnitude (under 2^37 at p = 65521), and
    PANEL_BOUND keeps that exact in int64.  The pivot rows are reduced once
    at the end.  The RREF of a span is unique, and a row meets a pivot
    exactly when it leaves the span of the rows before it, so any split of
    the same rows into blocks gives the same RREF, row for row.
    """
    pivrows: list[int] = []
    pivcols: list[int] = []
    for i, row in enumerate(block):
        row %= p
        nz = row.nonzero()[0]
        if nz.size == 0:
            continue
        c = int(nz[0])
        if row[c] != 1:
            row *= pow(int(row[c]), -1, p)
            row %= p
        col = block[:, c] % p
        col[i] = 0
        if col.any():
            # the row is zero left of c, so only columns c.. change
            block[:, c:] -= col[:, None] * row[c:]
        pivrows.append(i)
        pivcols.append(c)
    pivots = block[pivrows]
    return mod_p(pivots, p, out=pivots), pivcols


def rref(matrix: FpMatrix) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column list."""
    p = matrix.p
    a = matrix.array.copy()
    nrows, ncols = a.shape
    r = 0
    pivots: list[int] = []
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(col[mask], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def _check_matrix(matrix) -> None:
    if not isinstance(matrix, FpMatrix):
        raise UsageError(f"expected FpMatrix, got {type(matrix).__name__}")


def rank(matrix: FpMatrix) -> int:
    """Row rank over F_p: the rows stream through SparseRankAccumulator.add_rows."""
    _check_matrix(matrix)
    acc = SparseRankAccumulator(matrix.cols, matrix.p)
    acc.add_rows(matrix.array)
    return acc.rank


def kernel_basis(matrix: FpMatrix) -> FpMatrix:
    """Basis of the right null space {v : matrix @ v = 0}, one vector per row.

    Row k is the solution with a one at the k-th free column of the
    accumulator's reduced basis, zeros at the other free columns; the rows
    are independent by construction.
    """
    _check_matrix(matrix)
    acc = SparseRankAccumulator(matrix.cols, matrix.p)
    acc.add_rows(matrix.array)
    pivcols, reduced = acc.reduced()
    free = np.delete(np.arange(matrix.cols), pivcols)
    basis = np.zeros((free.size, matrix.cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivcols] = -reduced[:, free].T
    return FpMatrix(matrix.p, basis)


class SparseRankAccumulator:
    """Streaming rank computation for rows that arrive one or many at a time.

    Rows are reduced against the pivots collected so far and either vanish
    or contribute a new pivot.  Only the pivot rows are retained, so memory
    scales with the rank, not with the number of rows.

    Over F_2 a row is a bit-packed Python integer and a reduction is one
    xor.  For odd p the pivot rows are kept fully inter-reduced in float64
    (zero at every other row's pivot column, one at their own), so that
    reductions run as BLAS products of integers.  Rows go in blocks of
    BLOCK_ROWS rows (a row of add_pairs is a block of one), and a block
    takes three steps:

    1. one GEMM, block[:, pivcols] @ basis, reduces the whole block against
       the basis;
    2. _panel_rref eliminates inside the block in place, in int64, and
       hands back its pivot rows in RREF, in the order the rows met their
       pivots;
    3. one GEMM, old - old[:, new_pivcols] @ new, back-reduces the old
       rows that are nonzero at the new pivot columns (in place when that
       is every row), and the new rows are appended.

    A product sums one term below (p-1)^2 per pivot, so it is exact while
    the rank is at most float_terms(p); growing the rank past that bound
    raises ResourceLimitError before any pivot is added (at p = 65521 the
    largest rank is 2,098,176).  The products' sums are reduced mod p by
    the exact float step of _mod_exact.  The float64 basis starts at
    min(16, ncols) rows and doubles as the rank grows.

    Every route refuses, with UsageError, a row that reaches past column
    ncols - 1: a wider array, a longer bit-packed int or a pair's column
    outside [0, ncols).  A bit-packed row, each column and value of a pair
    and each entry of an array must pass exact_int: bools and floats are
    refused.  Array entries must lie in [0, p); pair values are reduced.
    """

    def __init__(self, ncols: int, p: int):
        ncols = exact_int(ncols, "column count")
        if ncols < 0:
            raise UsageError(f"column count must be >= 0, got {ncols}")
        self.ncols = ncols
        self.p = validate_prime(p)
        self.rank = 0
        self._pivots: dict[int, int] = {}  # p = 2: leading bit -> packed row
        self._pivcols: list[int] = []  # odd p: pivot column per basis row
        self._basis: np.ndarray | None = None  # odd p: RREF rows, float64

    def add_pairs(self, pairs) -> bool:
        """Add a row given as (column, value) pairs; True if rank grew.

        Values are reduced mod p and summed per column, and the row goes to
        add_rows as a one-row array.
        """
        p, ncols = self.p, self.ncols
        row = np.zeros((1, ncols), dtype=np.int64)
        for c, v in pairs:
            c, v = exact_int(c, "column"), exact_int(v, "entry") % p
            if not 0 <= c < ncols:
                raise UsageError(f"column {c} is not in [0, {ncols})")
            row[0, c] = (row[0, c] + v) % p
        return self.add_rows(row) > 0

    def add_bits(self, row: int) -> bool:
        """Add a bit-packed row (p = 2 only); True if the rank grew."""
        if self.p != 2:
            raise UsageError("bit-packed rows only make sense over F_2")
        if type(row) is not int:  # add_rows' packed rows skip the gate
            row = exact_int(row, "bit-packed row")
        if row < 0 or row.bit_length() > self.ncols:
            raise UsageError(f"bit-packed row does not fit in {self.ncols} columns")
        pivots = self._pivots
        while row:
            lead = row.bit_length() - 1
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                self.rank += 1
                return True
            row ^= piv
        return False

    def reduced(self) -> tuple[np.ndarray, np.ndarray]:
        """(pivcols, rows): the basis as int64 rows with rows[:, pivcols] = I.

        For odd p the basis is already reduced.  Over F_2 the rows, in
        ascending order of leading bit, are cleared at the lower pivots.
        """
        if self.p != 2:
            rows = self._basis[: self.rank] if self.rank else np.zeros((0, self.ncols))
            return np.array(self._pivcols, dtype=np.int64), rows.astype(np.int64)
        mask = sum(1 << lead for lead in self._pivots)
        cleared: dict[int, int] = {}
        for lead in sorted(self._pivots):
            row = self._pivots[lead]
            hits = (row & mask) ^ (1 << lead)  # the pivots below lead
            while hits:
                bit = hits.bit_length() - 1
                row ^= cleared[bit]
                hits ^= 1 << bit
            cleared[lead] = row
        nbytes = (self.ncols + 7) // 8
        packed = b"".join(row.to_bytes(nbytes, "little") for row in cleared.values())
        bits = np.frombuffer(packed, dtype=np.uint8).reshape(self.rank, nbytes)
        rows = np.unpackbits(bits, axis=1, count=self.ncols, bitorder="little")
        return np.array(list(cleared), dtype=np.int64), rows.astype(np.int64)

    def add_rows(self, rows: np.ndarray) -> int:
        """Add the rows of a 2-D integer array with entries in [0, p).

        Other entries raise UsageError, and so does a ragged nested list.
        Zero rows are skipped.  Over F_2 each row goes bit-packed to
        add_bits; for odd p the rows go to the block step BLOCK_ROWS at a
        time.  Returns how many pivots the rows added.
        """
        if not isinstance(rows, np.ndarray):
            # a ragged list comes out one-dimensional, its rows as entries,
            # which exact_ints refuses
            rows = np.asarray(rows, dtype=object)
            rows = exact_ints(rows, "row entry", ndim=rows.ndim, hi=self.p)
        if rows.ndim != 2 or rows.shape[1] != self.ncols:
            raise UsageError(f"rows of shape {rows.shape} do not have {self.ncols} columns")
        rows = exact_ints(rows, "row entry", ndim=2, hi=self.p)
        before = self.rank
        nonzero = np.flatnonzero(rows.any(axis=1))
        if self.p == 2:
            packed = np.packbits(rows != 0, axis=1, bitorder="little")
            for i in nonzero:
                self.add_bits(int.from_bytes(packed[i].tobytes(), "little"))
        else:
            for lo in range(0, nonzero.size, BLOCK_ROWS):
                self._add_block(rows[nonzero[lo : lo + BLOCK_ROWS]])
        return self.rank - before

    def _add_block(self, block: np.ndarray) -> None:
        """Add a block of rows, odd p, by the three steps of the class docstring."""
        p = self.p
        block = block.astype(np.float64)
        if self.rank:
            coeffs = block[:, self._pivcols]
            if coeffs.any():
                block -= coeffs @ self._basis[: self.rank]
                _mod_exact(block, p)
                if not block.any():  # the common case once the rank is full
                    return
        new, pivcols = _panel_rref(block.astype(np.int64), p)
        k = len(pivcols)
        if k == 0:
            return
        _check_float_rank(self.rank + k, p)
        new = new.astype(np.float64)
        if self.rank:
            old = self._basis[: self.rank]
            hit = old[:, pivcols]
            rows = np.flatnonzero(hit.any(axis=1))  # only these rows change
            if rows.size == self.rank:
                old -= hit @ new
                _mod_exact(old, p)
            elif rows.size:
                old[rows] = _mod_exact(old[rows] - hit[rows] @ new, p)
        self._reserve(self.rank + k)
        self._basis[self.rank : self.rank + k] = new
        self._pivcols += pivcols
        self.rank += k

    def _reserve(self, rows: int) -> None:
        """Make room for rows basis rows, doubling from min(16, ncols)."""
        have = 0 if self._basis is None else self._basis.shape[0]
        if rows > have:
            grown = np.zeros((min(self.ncols, max(16, 2 * have, rows)), self.ncols))
            if have:
                grown[: self.rank] = self._basis[: self.rank]
            self._basis = grown
