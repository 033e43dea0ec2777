"""Mod-p second homology of table groups.

The engine is minres_h2.  For a p-group G the group algebra A = F_pG is
local with augmentation ideal I, so dim H_2(G, F_p) = dim Tor_2^A(F_p, F_p)
is the number of minimal generators of the second syzygy.  Take minimal
generators g_1..g_d of G, d = log_p [G : [G,G]G^p] (groups.greedy_walk
over the element indices modulo [G,G]G^p), and

    K = ker(A^d -> A, e_j |-> g_j - 1),

which has dimension d|G| - |G| + 1 because the image is I.  A^d -> I is
then a projective cover, so K is the second syzygy and

    dim H_2(G, F_p) = dim K/I.K = dim K - dim I.K,

with I.K spanned by the (g_j - 1)k over the generators and a basis of K
(J. F. Carlson, "Calculating group cohomology: tests for completion",
J. Symb. Comput. 31, 2001; D. J. Green, Groebner Bases and the
Computation of Group Cohomology, LNM 1828, 2003).  The cost is two passes
of linfp's accumulator: a |G| x d|G| kernel_basis and a rank on d|G|
columns, fed the rows (g_j - 1)k one generator at a time.

The oracle is bar_h2, the normalized bar complex.  For a group of order
m the normalized chains in degree n are tuples of non-identity elements,
so C_1, C_2, C_3 have dimensions (m-1), (m-1)^2, (m-1)^3 over F_p, with
boundaries

    d2[g|h]   = [h] - [gh] + [g]
    d3[g|h|k] = [h|k] - [gh|k] + [g|hk] - [g|h]

where faces containing the identity are dropped.  Then

    dim H_2(G, F_p) = dim ker d2 - rank d3
                    = (m-1)^2 - rank d2 - rank d3.

Both boundaries are gathered from one table, prod[a, b] = position of
g_a g_b among the non-identity elements (-1 at the identity), and both
ranks stream through linfp.SparseRankAccumulator: d2 via linfp.rank, and
d3 (never materialized) the (m-1)^2 rows of one g at a time, bit-packed
over F_2.  d3 has (m-1)^3 rows of at most four entries each,
so order 64 is the practical ceiling (a quarter-million rows) and is
also the default budget, which both engines share.  bar_h2 is cycles
modulo boundaries from an empty accumulator; the five-term check forms
no cycle basis, but first feeds the accumulator the cycles' images, read
off the reduced d2 of G.

The five-term check compares two independent computations attached to a
normal subgroup H of G: the cokernel of the induced map
H_2(G) -> H_2(G/H), obtained from bar cycles pushed through the quotient
chain map, and the subgroup-theoretic quotient (H cap [G,G]G^p)/([H,G]H^p)
computed purely from multiplication tables.  Exactness of the low-degree
homology sequence says the dimensions must agree.

Both the five-term check and the double lamplighter tower hand back their
results as report rows: dicts keyed by the names the report and the CLI
print, so a new tower column is one more key in tower_report.  The tower
and the CLI's h2 build their groups through named_group, which refuses an
order past the budget before the table is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycmod import diagonal_coinvariants, regular_module, tensor_over_groupring
from .errors import ResourceLimitError, UsageError, env_budget, exact_int
from .fpx import mod_p, validate_prime
from .groups import (
    FiniteGroup, GroupHom, build_lamplighter, check_order, cyclic_group, elementary_abelian,
    greedy_walk, hopf_quotient,
)
from .linfp import FpMatrix, SparseRankAccumulator, kernel_basis, rank

__all__ = [
    "minres_h2",
    "bar_h2",
    "five_term_check",
    "tower_report",
    "TowerReport",
    "max_bar_order",
    "named_group",
]

DEFAULT_MAX_BAR = 64


def max_bar_order() -> int:
    """Budget for H_2 (both engines); override with PROCYCLIC_MAX_BAR."""
    return env_budget("PROCYCLIC_MAX_BAR", DEFAULT_MAX_BAR)


def _check_bar_budget(order: int) -> None:
    budget = max_bar_order()
    if order > budget:
        raise ResourceLimitError(
            f"bar resolution needs |G| <= {budget}, got {order} "
            "(set PROCYCLIC_MAX_BAR to raise the budget)"
        )


# a named group of level i has order p^(k i), k by kind
NAMED_GROUPS = {"dl": 3, "lamp": 2, "elab": 1, "cyclic": 1}


def named_group(kind: str, p: int, i: int) -> FiniteGroup:
    """The named group of level i, refused before its table is built if its
    H_2 would be (table budget first)."""
    if i > 0:  # other levels are the builder's usage errors
        _check_bar_budget(check_order(validate_prime(p), NAMED_GROUPS[kind] * i))
    if kind in ("dl", "lamp"):
        return build_lamplighter(p, i, copies=2 if kind == "dl" else 1)
    if kind == "elab":
        return elementary_abelian(p, i)
    return cyclic_group(p, i)


def _positions(group: FiniteGroup) -> np.ndarray:
    """Each index's position among the non-identity elements, -1 at the identity."""
    idx = np.arange(group.order)
    return np.where(idx == group.identity, -1, idx - (idx > group.identity))


def _bar_products(group: FiniteGroup) -> np.ndarray:
    """prod[a, b] = position of g_a g_b, or -1 where the product is e.

    g_0, g_1, .. are the non-identity elements in index order, the basis
    of C_1; [g_a|g_b] is basis element a * (m-1) + b of C_2.
    """
    elements = np.delete(np.arange(group.order), group.identity)
    return _positions(group)[group.table[np.ix_(elements, elements)]]


def _boundary2_matrix(p: int, prod: np.ndarray) -> FpMatrix:
    """Dense d2: C_2 -> C_1, one column per [g|h]."""
    m1 = len(prod)
    cols = np.arange(m1 * m1)
    g, h = np.divmod(cols, m1)
    # within one update the columns are distinct, so += is exact; the
    # faces [gh] = [e] (prod -1) land in an extra last row
    arr = np.zeros((m1 + 1, m1 * m1), dtype=np.int64)
    arr[h, cols] += 1
    arr[prod.reshape(-1), cols] -= 1
    arr[g, cols] += 1
    return FpMatrix(p, arr[:m1])


def _stream_d3(p: int, prod: np.ndarray, acc: SparseRankAccumulator) -> None:
    """Feed every row of d3 to acc, one g's (m-1)^2 rows at a time.

    Row h * (m-1) + k of g's block is [g|h|k], with the faces [h|k] - [g|h]
    - [gh|k] + [g|hk] in the C_2 numbering of _bar_products; a face whose
    gh or hk is the identity goes to the sentinel column n = (m-1)^2.  The
    four face columns are formed once per g for every p.  Odd p scatters
    them into a dense block, dropping column n; over F_2 each row is the
    xor of one precomputed one-bit int per face, 0 at the sentinel.
    """
    m1 = len(prod)
    n = m1 * m1
    r = np.arange(n)
    h, k = np.divmod(r, m1)
    hk = prod.reshape(-1)
    bit = [1 << c for c in range(n)] + [0] if p == 2 else None
    for g in range(m1):
        gh = prod[g, h]
        faces = (
            r,  # [h|k]
            g * m1 + h,  # [g|h]
            np.where(gh >= 0, gh * m1 + k, n),  # [gh|k]
            np.where(hk >= 0, g * m1 + hk, n),  # [g|hk]
        )
        if bit is not None:
            for a, b, c, d in zip(*(face.tolist() for face in faces)):
                acc.add_bits(bit[a] ^ bit[b] ^ bit[c] ^ bit[d])
            continue
        # within one update the rows are distinct, so += is exact
        rows = np.zeros((n, n + 1), dtype=np.int64)
        for face, sign in zip(faces, (1, -1, -1, 1)):
            rows[r, face] += sign
        mod_p(rows, p, out=rows)
        acc.add_rows(rows[:, :n])


def _cycles_mod_boundaries(group: FiniteGroup, acc: SparseRankAccumulator) -> int:
    """dim Z_2(G) minus the rank of B_2(G) joined to the rows already in acc."""
    prod = _bar_products(group)
    z2_dim = prod.size - rank(_boundary2_matrix(group.p, prod))
    _stream_d3(group.p, prod, acc)
    return z2_dim - acc.rank


def bar_h2(group: FiniteGroup) -> int:
    """dim H_2(G, F_p) from the normalized bar complex."""
    _check_bar_budget(group.order)
    return _cycles_mod_boundaries(group, SparseRankAccumulator((group.order - 1) ** 2, group.p))


def _minimal_generators(group: FiniteGroup) -> list[int]:
    """`greedy_walk` from [G,G]G^p, keeping each element outside <kept>[G,G]G^p.

    [G,G]G^p is normal, so the walk's right closure of it is <kept>[G,G]G^p.
    Each kept element raises the dimension of the image of <kept> in the
    F_p-space G/[G,G]G^p by one, so the walk keeps d = log_p [G : [G,G]G^p]
    elements, and by the Burnside basis theorem they generate G.
    """
    frattini = group._mask(list(group.commutator_p_subgroup()))
    return list(greedy_walk(group.table, frattini))


def minres_h2(group: FiniteGroup) -> int:
    """dim H_2(G, F_p) = dim K - dim I.K, as in the module docstring."""
    _check_bar_budget(group.order)
    p, m = group.p, group.order
    gens = _minimal_generators(group)
    d = len(gens)
    # column j*m + h is the basis element h.e_j of A^d, sent to h.g_j - h
    phi = np.zeros((m, d * m), dtype=np.int64)
    h = np.arange(m)
    for j, g in enumerate(gens):
        phi[group.table[:, g], j * m + h] = 1
        phi[h, j * m + h] = -1
    kernel = kernel_basis(FpMatrix(p, phi)).array
    dim_k = kernel.shape[0]
    if dim_k != d * m - m + 1:
        raise RuntimeError(
            f"generators {gens} do not generate the group: "
            f"dim K = {dim_k}, expected {d * m - m + 1}"
        )
    # left multiplication by g moves coordinate h of every block to g.h
    blocks = kernel.reshape(dim_k, d, m)
    moved = np.empty_like(blocks)
    acc = SparseRankAccumulator(d * m, p)
    for g in gens:
        moved[:, :, group.table[g]] = blocks
        moved -= blocks
        mod_p(moved, p, out=moved)
        acc.add_rows(moved.reshape(dim_k, d * m))
    return dim_k - acc.rank


def _chain_map_c2(hom: GroupHom) -> np.ndarray:
    """Index map for f# on C_2: basis t -> target index, or -1 if degenerate."""
    # position of f(g) among the non-identity targets, -1 where f(g) = e
    img = _positions(hom.target)[np.delete(hom.images, hom.source.identity)]
    pairs = img[:, None] * (hom.target.order - 1) + img
    return np.where((img[:, None] >= 0) & (img >= 0), pairs, -1).reshape(-1)


def five_term_check(group: FiniteGroup, h_elements) -> dict:
    """Compare coker(H_2(G) -> H_2(G/H)) with the mod-p Hopf quotient.

    The cokernel comes from the bar pipeline: push a basis of 2-cycles of
    G through the quotient chain map, adjoin the 2-boundaries of G/H, and
    subtract the resulting rank from dim Z_2(G/H); only the images of the
    cycles, one per free column of the reduced d2, are formed.  The Hopf
    side uses only subgroup closures.  Low-degree exactness demands
    equality.  Returns the report row {"cokernel_dim", "hopf_dim", "equal"}.
    """
    _check_bar_budget(group.order)
    quotient, hom = group.quotient(h_elements)
    p = group.p

    # the cycle of free column f of the reduced d2 = R is e_f minus R[r, f]
    # e_(pivot r) over the rows r; its image row has a one at mapping[f]
    # and -R[r, f] at mapping[pivot r], skipping the degenerate targets (-1)
    d2 = SparseRankAccumulator((group.order - 1) ** 2, p)
    d2.add_rows(_boundary2_matrix(p, _bar_products(group)).array)
    pivcols, reduced = d2.reduced()
    free = np.delete(np.arange(d2.ncols), pivcols)
    mapping = _chain_map_c2(hom)
    images = np.zeros((free.size, (quotient.order - 1) ** 2), dtype=np.int64)
    kept = np.flatnonzero(mapping[free] >= 0)
    images[kept, mapping[free[kept]]] = 1
    for r in np.flatnonzero(mapping[pivcols] >= 0):
        images[:, mapping[pivcols[r]]] -= reduced[r, free]
    mod_p(images, p, out=images)

    acc = SparseRankAccumulator(images.shape[1], p)
    acc.add_rows(images)
    cokernel, hopf = _cycles_mod_boundaries(quotient, acc), hopf_quotient(group, h_elements)
    return {"cokernel_dim": cokernel, "hopf_dim": hopf, "equal": cokernel == hopf}


@dataclass(frozen=True)
class TowerReport:
    """The tower's levels as report rows, one dict per level keyed by the
    printed names in report column order (i, order, h2_dim, coinv_dim,
    tensor_gr_dim, lower_bound, collapse_ok, inequality_ok), then elab_h2."""

    rows: tuple[dict, ...]
    stopped_reason: str | None = None

    @property
    def complete(self) -> bool:
        """True unless a budget stopped the tower."""
        return self.stopped_reason is None

    @property
    def status(self) -> str:
        """fail if a row fails a check, else stopped if a budget cut the tower
        short, else pass."""
        if not all(row["collapse_ok"] and row["inequality_ok"] for row in self.rows):
            return "fail"
        return "pass" if self.complete else "stopped"


def tower_report(p: int, i_max: int) -> TowerReport:
    """Double-lamplighter tower rows up to level i_max.

    Each level i builds the order p^(3i) quotient, takes its H_2, and
    compares against the coinvariant and group-ring tensor dimensions of
    the level-i regular module.  The recorded checks are the finite-level
    collapse (both module dimensions equal i) and the split lower bound

        h2_dim >= i + 2 * H_2((Z/p)^i),

    where elab_h2 = dim H_2((Z/p)^i, F_p) = i(i+1)/2 by Kunneth, so no
    (Z/p)^i table is built.  Levels past the PROCYCLIC_MAX_BAR budget stop
    the tower with a partial report.
    """
    if exact_int(i_max, "i_max") < 1:
        raise UsageError("tower needs i_max >= 1")
    rows = []
    for i in range(1, i_max + 1):
        try:
            group = named_group("dl", p, i)
            h2 = minres_h2(group)
        except ResourceLimitError as exc:
            return TowerReport(tuple(rows), str(exc))
        elab = i * (i + 1) // 2
        reg = regular_module(p, i)
        coinv = diagonal_coinvariants(reg, reg)
        tensor = tensor_over_groupring(reg, reg)
        bound = coinv + 2 * elab
        rows.append({
            "i": i, "order": group.order, "h2_dim": h2, "coinv_dim": coinv,
            "tensor_gr_dim": tensor, "lower_bound": bound,
            "collapse_ok": coinv == i and tensor == i, "inequality_ok": h2 >= bound,
            "elab_h2": elab,
        })
    return TowerReport(tuple(rows))
