"""Dense and streaming linear algebra over F_p.

Everything downstream (coinvariant quotients, the antipode certificate,
bar-complex homology) reduces to ranks and kernels over a prime field, so
this module is the single place where elimination happens.  A quotient
dimension is the ambient dimension minus the rank of the relation rows,
and a span inclusion is an equality of two ranks.

Every rank is taken by one engine, SparseRankAccumulator: rows stream in
one at a time and only the pivot rows are kept.  Over F_2 a row is a
bit-packed Python integer and each reduction is one word-parallel xor;
for odd p the pivot rows are kept inter-reduced in float64 so that an
incoming row is finished by one BLAS product.  That product sums one term
per pivot, so it is exact while rank * (p-1)^2 < 2^53, and the bound is
checked whenever a pivot is added.

The dense int64 rref builds the one explicit basis the package needs,
the null-space basis of kernel_basis, and is the tests' independent
oracle for rank.  Pivoting is deterministic (first nonzero in column
order) to keep every report byte-reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceLimitError, UsageError, exact_ints
from .fpx import validate_prime

__all__ = [
    "FpMatrix",
    "rank",
    "kernel_basis",
    "rref",
    "SparseRankAccumulator",
]


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

    def transpose(self) -> "FpMatrix":
        return FpMatrix(self.p, self.array.T)

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        if not isinstance(other, FpMatrix):
            raise UsageError("matrix product needs an FpMatrix")
        if self.p != other.p:
            raise UsageError(f"mixed primes {self.p} and {other.p}")
        if self.cols != other.rows:
            raise UsageError(f"shape mismatch {self.array.shape} @ {other.array.shape}")
        return FpMatrix(self.p, _matmul_mod(self.array, other.array, self.p))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash((self.p, self.array.shape, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, shape={self.array.shape})"


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # Chunk the contraction so int64 accumulators cannot overflow:
    # each partial sum is bounded by chunk * (p-1)^2.
    chunk = max(1, (1 << 62) // max(1, (p - 1) ** 2))
    if a.shape[1] <= chunk:
        return (a @ b) % p
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for lo in range(0, a.shape[1], chunk):
        out = (out + a[:, lo : lo + chunk] @ b[lo : lo + chunk]) % p
    return out


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


def rank(matrix: FpMatrix) -> int:
    """Row rank over F_p: the nonzero rows stream through SparseRankAccumulator.

    Over F_2 each row goes in bit-packed; for odd p the stored row, already
    reduced mod p, goes straight to the dense reduction.
    """
    acc = SparseRankAccumulator(matrix.cols, matrix.p)
    arr = matrix.array
    nonzero_rows = np.flatnonzero(arr.any(axis=1))
    if matrix.p == 2:
        packed = np.packbits(arr != 0, axis=1, bitorder="little")
        for i in nonzero_rows:
            acc.add_bits(int.from_bytes(packed[i].tobytes(), "little"))
    else:
        for i in nonzero_rows:
            acc._add_dense(arr[i])
    return acc.rank


def kernel_basis(matrix: FpMatrix) -> FpMatrix:
    """Basis of the right null space {v : matrix @ v = 0}, one vector per row.

    Row k is the solution with a one at the k-th free column of the rref,
    zeros at the other free columns; the rows are independent by
    construction.
    """
    p = matrix.p
    reduced, pivots = rref(matrix)
    ncols = matrix.cols
    is_free = np.ones(ncols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, ncols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    if pivots:
        basis[:, pivots] = -reduced[: len(pivots)][:, free].T
    return FpMatrix(p, basis)


class SparseRankAccumulator:
    """Streaming rank computation for rows that arrive one at a time.

    Rows are reduced against the pivots collected so far and either vanish
    or contribute a new pivot.  Only the pivot rows are retained, so memory
    scales with the rank, not with the number of rows.

    Over F_2 a row is a bit-packed Python integer and a reduction is one
    xor.  For odd p the pivot rows are kept fully inter-reduced, so an
    incoming row is finished by a single gather-and-subtract pass; the
    combination is accumulated in float64 to get BLAS speed.  It sums one
    product below (p-1)^2 per pivot, so it is exact while
    rank * (p-1)^2 < 2^53; adding a pivot past that bound raises
    ResourceLimitError.  The float64 basis starts at min(16, ncols) rows
    and doubles as the rank grows.
    """

    def __init__(self, ncols: int, p: int):
        self.ncols = ncols
        self.p = validate_prime(p)
        self.rank = 0
        self._pivots: dict[int, int] = {}  # p = 2: leading bit -> packed row
        self._pivcols: list[int] = []  # odd p: pivot column per basis row
        self._basis: np.ndarray | None = None  # odd p: RREF rows, float64

    def add_pairs(self, pairs) -> bool:
        """Add a row given as (column, value) pairs; True if rank grew."""
        if self.p == 2:
            row = 0
            for c, v in pairs:
                if v % 2:
                    row ^= 1 << c
            return self._add_bits(row)
        row = np.zeros(self.ncols, dtype=np.int64)
        for c, v in pairs:
            row[c] = (row[c] + v) % self.p
        return self._add_dense(row)

    def add_bits(self, row: int) -> bool:
        """Add a bit-packed row (p = 2 only); True if the rank grew."""
        if self.p != 2:
            raise UsageError("bit-packed rows only make sense over F_2")
        return self._add_bits(row)

    def _add_bits(self, row: int) -> bool:
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

    def _add_dense(self, row: np.ndarray) -> bool:
        p = self.p
        if self.rank:
            coeffs = row[self._pivcols]
            if coeffs.any():
                combo = coeffs.astype(np.float64) @ self._basis[: self.rank]
                row = (row - combo.astype(np.int64)) % p
        nz = np.nonzero(row)[0]
        if nz.size == 0:
            return False
        # basis rows are inter-reduced, so the leading column is new
        lead = int(nz[0])
        if row[lead] != 1:
            row = (row * pow(int(row[lead]), -1, p)) % p
        if (self.rank + 1) * (p - 1) ** 2 >= 1 << 53:
            raise ResourceLimitError("rank too large for exact float64 accumulation")
        if self._basis is None:
            self._basis = np.zeros((min(16, self.ncols), self.ncols))
        elif self.rank == self._basis.shape[0]:
            grown = np.zeros((min(self.ncols, 2 * self.rank), self.ncols))
            grown[: self.rank] = self._basis
            self._basis = grown
        basis = self._basis
        col = basis[: self.rank, lead].astype(np.int64)
        hit = np.nonzero(col)[0]
        if hit.size:
            updated = (
                basis[hit].astype(np.int64) - np.outer(col[hit], row)
            ) % p
            basis[hit] = updated
        basis[self.rank] = row
        self._pivcols.append(lead)
        self.rank += 1
        return True
