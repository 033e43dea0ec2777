"""Table groups: builders, axioms, subgroup machinery, Hopf quotients."""

import json

import numpy as np
import pytest

from procyclic import (
    FiniteGroup,
    GroupHom,
    ResourceLimitError,
    SemidirectElement,
    TruncSeries,
    UsageError,
    build_lamplighter,
    cyclic_group,
    elementary_abelian,
    hopf_quotient,
)


# -- builders -------------------------------------------------------------------


def test_cyclic_group_basics():
    g = cyclic_group(3, 2)
    assert g.order == 9
    assert g.is_abelian()
    assert g.element_order(1) == 9
    assert g.power(1, 9) == g.identity
    assert g.inv(4) == 5


def test_elementary_abelian_basics():
    g = elementary_abelian(2, 3)
    assert g.order == 8
    assert g.is_abelian()
    assert all(g.mul(a, a) == g.identity for a in range(8))


def test_lamplighter_level_one_double_is_elementary_abelian():
    g = build_lamplighter(2, 1, 2)
    assert g.order == 8
    assert g.is_abelian()
    assert all(g.mul(a, a) == g.identity for a in range(8))


def test_lamplighter_level_one_single_p3():
    g = build_lamplighter(3, 1, 1)
    assert g.order == 9
    assert g.is_abelian()


def test_lamplighter_level_two_double_nonabelian_with_central_socle():
    g = build_lamplighter(2, 2, 2)
    assert g.order == 64
    assert not g.is_abelian()
    center = set(g.center())
    assert g.socle_indices(0) <= center
    assert g.socle_indices(1) <= center


def test_lamplighter_order_formula():
    assert build_lamplighter(2, 2, 1).order == 16
    assert build_lamplighter(2, 3, 1).order == 64
    assert build_lamplighter(3, 1, 2).order == 27


def test_lamplighter_budget():
    with pytest.raises(ResourceLimitError):
        build_lamplighter(2, 5, 2)  # order 2^15
    with pytest.raises(UsageError):
        build_lamplighter(2, 1, 3)


def test_budget_override(monkeypatch):
    monkeypatch.setenv("PROCYCLIC_MAX_GROUP", "8")
    with pytest.raises(ResourceLimitError):
        build_lamplighter(2, 2, 1)
    monkeypatch.setenv("PROCYCLIC_MAX_GROUP", "65536")
    assert build_lamplighter(2, 2, 1).order == 16


def test_encode_decode_roundtrip():
    g = build_lamplighter(2, 2, 2)
    for idx in range(0, g.order, 7):
        elem = g.decode(idx)
        assert g.encode(elem) == idx
    elem = SemidirectElement(
        (TruncSeries(2, [1, 0], 2), TruncSeries(2, [0, 1], 2)), 3
    )
    idx = g.encode(elem)
    back = g.decode(idx)
    assert back.v == elem.v and back.w == elem.w and back.n == 3


def test_semidirect_convention():
    # (u, n) * (u', n') = (u . T^(n') + u', n + n') with T = mult by 1 - x
    g = build_lamplighter(2, 2, 1)
    u = SemidirectElement((TruncSeries(2, [1, 0], 2),), 0)  # (1; t^0)
    t = SemidirectElement((TruncSeries.zero(2, 2),), 1)  # (0; t^1)
    prod = g.decode(g.mul(g.encode(u), g.encode(t)))
    # applying T to 1 gives 1 + x
    assert prod.n == 1
    assert prod.v == TruncSeries(2, [1, 1], 2)
    prod2 = g.decode(g.mul(g.encode(t), g.encode(u)))
    assert prod2.n == 1
    assert prod2.v == TruncSeries(2, [1, 0], 2)


def test_socle_is_normal_and_small():
    g = build_lamplighter(2, 2, 1)
    soc = g.socle_indices(0)
    assert len(soc) == 2
    assert g.is_normal(soc)


def test_base_subgroup_is_normal():
    g = build_lamplighter(2, 2, 1)
    base = g.base_indices()
    assert len(base) == 4
    assert g.is_normal(base)


# -- table validation ---------------------------------------------------------------


def test_from_table_rejects_non_group():
    with pytest.raises(UsageError):
        FiniteGroup(2, [[0, 1], [1, 1]])  # 1 has no inverse
    with pytest.raises(UsageError):
        FiniteGroup(2, [[1, 0], [0, 0]])  # no two-sided identity
    with pytest.raises(UsageError):
        FiniteGroup(3, np.zeros((2, 2), dtype=np.int64))  # order not 3-power
    bad = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    bad[2, 2] = 2  # break associativity/latin property
    with pytest.raises(UsageError):
        FiniteGroup(3, bad)


def _exhaustive_associative(tab):
    """The O(m^3) oracle: (a b) c == a (b c), one row a at a time."""
    return all(np.array_equal(tab[tab[a]], tab[a][tab]) for a in range(tab.shape[0]))


def _light_associative(p, tab):
    try:
        FiniteGroup(p, tab)
    except UsageError as exc:
        assert "associativity" in str(exc)
        return False
    return True


def _builder_groups(max_order):
    for p in (2, 3, 5, 7):
        for e in range(1, 7):
            if p**e <= max_order:
                yield cyclic_group(p, e)
                yield elementary_abelian(p, e)
        for i in (1, 2, 3):
            for copies in (1, 2):
                if p ** (i * (copies + 1)) <= max_order:
                    yield build_lamplighter(p, i, copies)


def test_light_matches_oracle_on_relabeled_groups():
    rng = np.random.default_rng(11)
    groups = [cyclic_group(2, 0), *_builder_groups(81)]
    assert max(g.order for g in groups) == 81
    for g in groups:
        perm = rng.permutation(g.order)
        relabeled = np.empty_like(g.table)
        relabeled[np.ix_(perm, perm)] = perm[g.table]
        assert _exhaustive_associative(relabeled)
        assert _light_associative(g.p, relabeled), g


def test_light_matches_oracle_on_row_entry_swaps():
    rng = np.random.default_rng(23)
    groups = [g for g in _builder_groups(27) if g.order in (8, 9, 16, 25, 27)]
    assert sorted({g.order for g in groups}) == [8, 9, 16, 25, 27]
    for g in groups:
        for _ in range(4):
            # swap two entries of a row, leaving every identity entry in place
            a = int(rng.choice([x for x in range(g.order) if x != g.identity]))
            keep = {g.identity, g.inv(a)}
            b, c = rng.choice([x for x in range(g.order) if x not in keep], 2, replace=False)
            bad = g.table.copy()
            bad[a, [b, c]] = bad[a, [c, b]]
            assert not _exhaustive_associative(bad)
            assert not _light_associative(g.p, bad), (g, a, b, c)


LOOP5 = np.array(
    [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
)  # a non-associative loop: two-sided identity 0, every element its own inverse


def test_light_checks_every_kept_generator():
    # Z/5 x LOOP5 with index z + 5 w: the walk keeps (1, 0) first, which
    # associates with everything, and only the next kept element (0, 1) fails
    z, w = np.arange(25) % 5, np.arange(25) // 5
    table = (z[:, None] + z[None, :]) % 5 + 5 * LOOP5[w[:, None], w[None, :]]
    assert not _exhaustive_associative(LOOP5)
    assert not _exhaustive_associative(table)
    assert np.array_equal(table[table[:, 1]], table[:, table[1]])
    with pytest.raises(UsageError, match="associativity fails at element 5"):
        FiniteGroup(5, table)


def _lamplighter_table_oracle(p, i, copies):
    """The per-column fill: one column b of the table at a time."""
    cyclic_order = base_count = p**i
    order = base_count**copies * cyclic_order
    t_action = np.zeros((i, i), dtype=np.int64)
    for j in range(i):
        t_action[j, j] = 1
        if j + 1 < i:
            t_action[j + 1, j] = p - 1
    digits = np.zeros((base_count, i), dtype=np.int64)
    v = np.arange(base_count)
    for j in range(i):
        digits[:, j] = v % p
        v = v // p
    weights = p ** np.arange(i)
    acted = np.zeros((cyclic_order, base_count), dtype=np.int64)
    power = np.eye(i, dtype=np.int64)
    for n in range(cyclic_order):
        acted[n] = ((digits @ power.T) % p) @ weights
        power = (t_action @ power) % p
    coord_weights = base_count ** np.arange(copies)
    n_weight = base_count**copies
    coords = np.zeros((order, copies), dtype=np.int64)
    v = np.arange(order)
    for c in range(copies):
        coords[:, c] = v % base_count
        v = v // base_count
    n_part = v
    table = np.zeros((order, order), dtype=np.uint16)
    for b in range(order):
        nb = int(n_part[b])
        moved = acted[nb][coords]
        combined = (
            digits[moved.reshape(-1)].reshape(order, copies, i) + digits[coords[b]][None, :, :]
        ) % p
        summed = (combined @ weights) @ coord_weights
        table[:, b] = summed + ((n_part + nb) % cyclic_order) * n_weight
    return table


@pytest.mark.parametrize(
    "p,i,copies",
    [(2, i, c) for i in (1, 2, 3) for c in (1, 2)]
    + [(3, i, c) for i in (1, 2) for c in (1, 2)]
    + [(5, 1, 1), (5, 1, 2)],
)
def test_lamplighter_table_matches_per_column_oracle(p, i, copies):
    table = build_lamplighter(p, i, copies).table
    oracle = _lamplighter_table_oracle(p, i, copies)
    assert table.dtype == oracle.dtype
    assert table.tobytes() == oracle.tobytes()


def test_json_roundtrip():
    g = build_lamplighter(2, 2, 1)
    data = json.loads(g.to_json())
    h = FiniteGroup.from_json_dict(data)
    assert h.order == g.order
    assert np.array_equal(h.table, g.table)
    assert h.generator_names == g.generator_names


# -- subgroup machinery ----------------------------------------------------------------


def test_subgroup_closure():
    g = cyclic_group(2, 3)  # Z/8
    assert sorted(g.subgroup_closure([2])) == [0, 2, 4, 6]
    assert sorted(g.subgroup_closure([])) == [0]


def test_commutator_p_subgroup():
    elab = elementary_abelian(2, 3)
    assert elab.commutator_p_subgroup() == frozenset({elab.identity})
    z4 = cyclic_group(2, 2)
    assert z4.commutator_p_subgroup() == frozenset({0, 2})
    dl2 = build_lamplighter(2, 2, 2)
    frattini = dl2.commutator_p_subgroup()
    # index p^3: the quotient is the rank-3 elementary abelianization
    assert dl2.order // len(frattini) == 8


def test_quotient_group():
    z4 = cyclic_group(2, 2)
    q, hom = z4.quotient([0, 2])
    assert q.order == 2
    assert hom(0) == q.identity
    assert hom(1) != q.identity
    with pytest.raises(UsageError):
        lamp = build_lamplighter(2, 2, 1)
        nonnormal = lamp.subgroup_closure([lamp.encode(
            SemidirectElement((TruncSeries(2, [1, 0], 2),), 0)
        )])
        lamp.quotient(nonnormal)


def test_group_hom_validation():
    z4 = cyclic_group(2, 2)
    z2 = cyclic_group(2, 1)
    GroupHom(z4, z2, [0, 1, 0, 1])
    with pytest.raises(UsageError):
        GroupHom(z4, z2, [0, 1, 1, 0])  # not multiplicative
    with pytest.raises(UsageError):
        GroupHom(z4, z2, [1, 0, 1, 0])  # identity not preserved


# -- Hopf quotient ------------------------------------------------------------------------


def test_hopf_trivial_and_full_subgroup():
    g = elementary_abelian(2, 2)
    assert hopf_quotient(g, [g.identity]) == 0
    assert hopf_quotient(g, range(g.order)) == 0


def test_hopf_factor_of_elementary_abelian():
    g = elementary_abelian(3, 2)
    factor = g.subgroup_closure([1])  # first coordinate
    assert hopf_quotient(g, factor) == 0


def test_hopf_cyclic_p_squared():
    for p in (2, 3):
        g = cyclic_group(p, 2)
        h = g.subgroup_closure([p])
        assert hopf_quotient(g, h) == 1


def test_hopf_lamplighter_socle():
    g = build_lamplighter(2, 2, 1)
    assert hopf_quotient(g, g.socle_indices(0)) == 1


def test_hopf_rejects_non_normal():
    g = build_lamplighter(2, 2, 1)
    h = g.subgroup_closure(
        [g.encode(SemidirectElement((TruncSeries(2, [1, 0], 2),), 0))]
    )
    assert not g.is_normal(h)
    with pytest.raises(UsageError):
        hopf_quotient(g, h)
