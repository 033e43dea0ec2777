"""Finite-dimensional modules over the group ring of a cyclic p-group.

A module is described by the matrix T of its generator action (acting on
column vectors).  T must have p-power order, equivalently T - I must be
nilpotent; the minimal exponent k with T^(p^k) = I is computed at
construction, so every module carries its canonical order exponent.

The two quotient constructions live side by side:

* diagonal coinvariants of M (x) M': quotient by the span of
  T m (x) T'm' - m (x) m',
* tensor product over the group ring: quotient by the span of
  T m (x) m' - m (x) T'm'.

Both relation spans are generated by basis pairs only, which suffices
because each relation is bilinear in (m, m').  Tensor coordinates are
row-major: basis pair (i, j) sits at index i * dim(M') + j.

Each quotient is returned as its dimension: the ambient dimension minus
the rank of the relation rows.  No basis of either quotient is built:
every number here is a rank from linfp's one elimination engine.

The antipode of a module is an invertible S with S T = T^(-1) S; mapping
m (x) m' to m (x) S m' carries the coinvariant relations into the tensor
relations, so equality of the two quotient dimensions upgrades to an
explicit bijection.  antipode_iso_check(S) certifies the inclusion on
S.module in one accumulator: it takes the tensor relations, whose rank
gives the tensor dimension, and then the images add no pivot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, UsageError, exact_int
from .fpx import mod_p, validate_prime
from .linfp import FpMatrix, SparseRankAccumulator, matmul_mod, rank
from .taumap import min_digit_precision, times_sigma_x

__all__ = [
    "FpCModule",
    "ModuleAntipode",
    "AntipodeCheck",
    "check_module_dim",
    "regular_module",
    "regular_antipode",
    "trivial_module",
    "diagonal_coinvariants",
    "tensor_over_groupring",
    "antipode_iso_check",
]

# Regular modules above this dimension are refused.  The quotients of the
# tensor square of F_p[x]/(x^i) take the rank of i^2 relations in i^2
# coordinates; coinv took 0.85 s at p = 3, i = 24, 2.4 s at i = 28 and
# 6.6 s at p = 2, i = 32 (one core of a 2-CPU machine).
MAX_MODULE_DIM = 24


class FpCModule:
    """Module over F_p[C], C a cyclic p-group, given by its action matrix."""

    __slots__ = ("p", "dim", "action", "order_exponent")

    def __init__(self, p: int, action: FpMatrix):
        p = validate_prime(p)
        if not isinstance(action, FpMatrix) or action.p != p:
            raise UsageError(f"action matrix must be an FpMatrix over F_{p}")
        d = action.rows
        if action.cols != d:
            raise UsageError("action matrix must be square")
        if rank(action) != d:
            raise UsageError("action matrix must be invertible")
        # T has p-power order iff T - I is nilpotent; the nilpotency index e
        # gives the minimal exponent via p^k >= e.
        n = FpMatrix(p, action.array - np.eye(d, dtype=np.int64))
        e = 0
        power = FpMatrix.identity(p, d)
        while power.array.any():
            if e >= d:
                raise UsageError("action matrix does not have p-power order")
            power = power @ n
            e += 1
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "order_exponent", min_digit_precision(p, e))

    def __setattr__(self, name, value):
        raise AttributeError("FpCModule is immutable")

    def __repr__(self) -> str:
        return (
            f"FpCModule(p={self.p}, dim={self.dim}, "
            f"order_exponent={self.order_exponent})"
        )


class ModuleAntipode:
    """Invertible S with S T = T^(-1) S over a given module."""

    __slots__ = ("module", "matrix")

    def __init__(self, module: FpCModule, matrix: FpMatrix):
        if not isinstance(matrix, FpMatrix) or matrix.p != module.p:
            raise UsageError(f"antipode matrix must be an FpMatrix over F_{module.p}")
        d = module.dim
        if matrix.array.shape != (d, d):
            raise UsageError("antipode matrix shape differs from module dimension")
        if rank(matrix) != d:
            raise UsageError("antipode matrix must be invertible")
        # S T = T^(-1) S is equivalent to T S T = S.
        if module.action @ matrix @ module.action != matrix:
            raise UsageError("antipode twist S T = T^(-1) S fails")
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("ModuleAntipode is immutable")


def check_module_dim(i: int) -> None:
    """Refuse a regular module of dimension i outside [1, MAX_MODULE_DIM]."""
    if i < 1:
        raise UsageError("regular module needs i >= 1")
    if i > MAX_MODULE_DIM:
        raise ResourceLimitError(
            f"regular module of dimension {i} > {MAX_MODULE_DIM}: its tensor "
            f"quotients would need the rank of {i * i} relations"
        )


def regular_module(p: int, i: int) -> FpCModule:
    """F_p[x]/(x^i) with the generator acting as multiplication by 1 - x."""
    i = exact_int(i, "module dimension")
    check_module_dim(i)
    t = np.zeros((i, i), dtype=np.int64)
    for j in range(i):
        t[j, j] = 1
        if j + 1 < i:
            t[j + 1, j] = p - 1
    return FpCModule(p, FpMatrix(p, t))


def trivial_module(p: int, dim: int) -> FpCModule:
    dim = exact_int(dim, "module dimension")
    if dim < 0:
        raise UsageError(f"module dimension must be >= 0, got {dim}")
    return FpCModule(p, FpMatrix.identity(p, dim))


def regular_antipode(p: int, i: int) -> ModuleAntipode:
    """The ring antipode of F_p[x]/(x^i) as a module antipode.

    Column j is sigma(x^j) = sigma(x)^j in the monomial basis.
    """
    mod = regular_module(p, i)
    cols = np.zeros((i, i), dtype=np.int64)
    cols[0, 0] = 1
    for j in range(1, i):
        cols[j, 1:] = cols[j - 1, :-1]
        times_sigma_x(cols[j, 1:], p)
    return ModuleAntipode(mod, FpMatrix(p, cols.T))


def _check_pair(m: FpCModule, m2: FpCModule) -> None:
    if m.p != m2.p:
        raise UsageError(f"mixed primes {m.p} and {m2.p}")


def _quotient_dim(p: int, relations: np.ndarray) -> int:
    """The ambient dimension minus the rank of the relation rows."""
    return relations.shape[1] - rank(FpMatrix(p, relations))


def _coinvariant_relations(m: FpCModule, m2: FpCModule) -> np.ndarray:
    """T m (x) T'm' - m (x) m' for the basis pairs, one relation per row."""
    k = np.kron(m.action.array, m2.action.array)
    k[np.diag_indices_from(k)] -= 1
    return mod_p(k, m.p, out=k).T


def _tensor_relations(m: FpCModule, m2: FpCModule) -> np.ndarray:
    """T m (x) m' - m (x) T'm' for the basis pairs, one relation per row."""
    left = np.kron(m.action.array, np.eye(m2.dim, dtype=np.int64))
    left -= np.kron(np.eye(m.dim, dtype=np.int64), m2.action.array)
    return mod_p(left, m.p, out=left).T


def diagonal_coinvariants(m: FpCModule, m2: FpCModule) -> int:
    """dim of M (x) M' modulo the span of T m (x) T'm' - m (x) m'."""
    _check_pair(m, m2)
    return _quotient_dim(m.p, _coinvariant_relations(m, m2))


def tensor_over_groupring(m: FpCModule, m2: FpCModule) -> int:
    """dim of M (x) M' modulo the span of T m (x) m' - m (x) T'm'."""
    _check_pair(m, m2)
    return _quotient_dim(m.p, _tensor_relations(m, m2))


@dataclass(frozen=True)
class AntipodeCheck:
    bijective: bool
    coinvariant_dim: int
    tensor_dim: int


def _id_tensor_images(relations: np.ndarray, antipode: ModuleAntipode) -> np.ndarray:
    """Relation rows mapped by id (x) S, reduced mod p.

    A row-major tensor coordinate vector is a d x d matrix V, and id (x) S
    sends it to V S^T, so all rows go through one batched d x d product
    instead of a d^2 x d^2 Kronecker matrix, taken exactly by matmul_mod.
    """
    s = antipode.matrix.array
    d = s.shape[0]
    return matmul_mod(relations.reshape(-1, d, d), s.T, antipode.matrix.p).reshape(-1, d * d)


def antipode_iso_check(antipode: ModuleAntipode) -> AntipodeCheck:
    """Certify that id (x) S maps coinvariant relations onto tensor relations.

    The module is antipode.module.  One accumulator takes the tensor
    relations, and its rank gives the tensor dimension; the images lie in
    the tensor relation span iff they then add no pivot.  Since S is
    invertible, that inclusion plus equal quotient dimensions means the
    induced map of quotients is a bijection.
    """
    if not isinstance(antipode, ModuleAntipode):
        raise UsageError("antipode_iso_check needs a ModuleAntipode")
    m = antipode.module
    coinv = _coinvariant_relations(m, m)
    coinvariant_dim = _quotient_dim(m.p, coinv)
    acc = SparseRankAccumulator(coinv.shape[1], m.p)
    acc.add_rows(_tensor_relations(m, m))
    tensor_dim = acc.ncols - acc.rank
    carried = acc.add_rows(_id_tensor_images(coinv, antipode)) == 0
    return AntipodeCheck(
        bijective=carried and coinvariant_dim == tensor_dim,
        coinvariant_dim=coinvariant_dim,
        tensor_dim=tensor_dim,
    )
