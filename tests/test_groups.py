"""Table groups: builders, axioms, subgroup machinery, Hopf quotients."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from procyclic import (
    FiniteGroup,
    GroupHom,
    ResourceLimitError,
    UsageError,
    build_lamplighter,
    cyclic_group,
    elementary_abelian,
    hopf_quotient,
    lamplighter_socle,
)
from procyclic.groups import _word_sums, greedy_walk
from procyclic.homology import _minimal_generators


def _is_abelian(g):
    return np.array_equal(g.table, g.table.T)


def _center(g):
    return {a for a in range(g.order) if np.array_equal(g.table[a], g.table[:, a])}


# -- builders -------------------------------------------------------------------


def test_cyclic_group_basics():
    g = cyclic_group(3, 2)
    assert g.order == 9
    assert _is_abelian(g)
    assert g.power(1, 3) != g.identity  # 1 has order 9
    assert g.power(1, 9) == g.identity
    assert g.inv(4) == 5


def test_elementary_abelian_basics():
    g = elementary_abelian(2, 3)
    assert g.order == 8
    assert _is_abelian(g)
    assert all(g.mul(a, a) == g.identity for a in range(8))


def test_lamplighter_level_one_double_is_elementary_abelian():
    g = build_lamplighter(2, 1, 2)
    assert g.order == 8
    assert _is_abelian(g)
    assert all(g.mul(a, a) == g.identity for a in range(8))


def test_lamplighter_level_one_single_p3():
    g = build_lamplighter(3, 1, 1)
    assert g.order == 9
    assert _is_abelian(g)


def test_lamplighter_level_two_double_nonabelian_with_central_socle():
    g = build_lamplighter(2, 2, 2)
    assert g.order == 64
    assert not _is_abelian(g)
    center = _center(g)
    assert lamplighter_socle(2, 2, 2, 0) <= center
    assert lamplighter_socle(2, 2, 2, 1) <= center


@pytest.mark.parametrize(
    "p, e, digest",
    [
        (2, 12, "2f8ae49cef99b0d9b28eebf8ae0b42cee7846c5d69c27d2f05dc48ff48a958f5"),
        (3, 7, "859e51f346c891a063f1ed52bd2f105dcfff4c1cebf7bdf67b69d37fce926ce3"),
        (5, 5, "179b881e2d37c4c4ba0ab81b68ec8cd936ed79bcaabb7c124f6132640be010e3"),
    ],
)
def test_cyclic_tables_are_pinned(p, e, digest):
    # the sha256 of the uint16 table (i + j) mod p^e, as built from int64 sums
    assert hashlib.sha256(cyclic_group(p, e).table.tobytes()).hexdigest() == digest


def test_cyclic_group_builds_no_wide_temporaries():
    # the 4096 x 4096 uint16 table is 32 MB; int64 sums of it took 256 MB
    tracemalloc.start()
    try:
        cyclic_group(2, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 2**20, peak


def test_huge_exponent_is_refused_without_forming_the_order(monkeypatch):
    monkeypatch.delenv("PROCYCLIC_MAX_GROUP", raising=False)
    tail = r" exceeds budget 4096 \(set PROCYCLIC_MAX_GROUP to raise it\)$"
    with pytest.raises(ResourceLimitError, match=r"^order 2\^10000000" + tail):
        cyclic_group(2, 10**7)
    with pytest.raises(ResourceLimitError, match=r"^order 8192" + tail):
        cyclic_group(2, 13)
    with pytest.raises(ResourceLimitError, match=r"^order 3\^10000" + tail):
        elementary_abelian(3, 10**4)
    with pytest.raises(ResourceLimitError, match=r"^order 32768" + tail):
        build_lamplighter(2, 5, 2)


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


def test_semidirect_convention():
    # (u, n) * (u', n') = (u . T^(n') + u', n + n') with T = mult by 1 - x;
    # index = u[0] + 2 u[1] + 4 n, so 1 is (1; t^0) and 4 is (0; t^1)
    g = build_lamplighter(2, 2, 1)
    assert g.mul(1, 4) == 7  # applying T to 1 gives 1 + x: (1 + x; t^1)
    assert g.mul(4, 1) == 5  # (1; t^1)


def test_socle_is_normal_and_small():
    g = build_lamplighter(2, 2, 1)
    soc = lamplighter_socle(2, 2, 1)
    assert soc == {0, 2}  # 0 and x in the one coordinate
    assert g.is_normal(soc)


@pytest.mark.parametrize("p,i,copies", [(2, 1, 2), (2, 2, 1), (2, 2, 2), (3, 1, 2), (3, 2, 1)])
def test_lamplighter_socle_is_the_fixed_line_of_each_coordinate(p, i, copies):
    # the kernel of 1 - T on F_p[x]/(x^i) is x^(i-1) F_p: the elements of
    # coordinate k that commute with the cyclic generator (0; t^1)
    g = build_lamplighter(p, i, copies)
    t = p ** (i * copies)
    for k in range(copies):
        coordinate = [v * p ** (i * k) for v in range(p**i)]
        fixed = {u for u in coordinate if g.mul(u, t) == g.mul(t, u)}
        soc = lamplighter_socle(p, i, copies, k)
        assert soc == fixed and len(soc) == p
        assert soc <= _center(g)
    with pytest.raises(UsageError):
        lamplighter_socle(p, i, copies, copies)
    with pytest.raises(UsageError):
        lamplighter_socle(p, i, copies, -1)


def test_base_subgroup_is_normal():
    p, i, copies = 2, 2, 1
    g = build_lamplighter(p, i, copies)
    base = range(p ** (i * copies))
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
    # Z/5 x LOOP5 with index 24 - (z + 5 w): the walk goes highest first and
    # keeps (1, 0) at 23 first, which associates with everything, and only
    # the next kept element (0, 1), at 19, fails
    z, w = np.arange(25) % 5, np.arange(25) // 5
    product = (z[:, None] + z[None, :]) % 5 + 5 * LOOP5[w[:, None], w[None, :]]
    table = 24 - product[::-1, ::-1]
    assert not _exhaustive_associative(LOOP5)
    assert not _exhaustive_associative(table)
    assert np.array_equal(table[table[:, 23]], table[:, table[23]])
    with pytest.raises(UsageError, match="associativity fails at element 19"):
        FiniteGroup(5, table)


def _burnside_rank(g):
    """d(G) = log_p [G : [G,G]G^p]."""
    index, d = g.order // len(g.commutator_p_subgroup()), 0
    while index > 1:
        index //= g.p
        d += 1
    return d


WALKED_GROUPS = {
    **{f"DL_{p}({i})": (build_lamplighter, p, i) for p, i in [(2, 1), (2, 2), (2, 3), (3, 1)]},
    "DL_3(2)": (build_lamplighter, 3, 2),
    "lamplighter(2,3,1)": (build_lamplighter, 2, 3, 1),
    "Z/2^5": (cyclic_group, 2, 5),
    "(Z/3)^3": (elementary_abelian, 3, 3),
}


@pytest.mark.parametrize("name", sorted(WALKED_GROUPS))
def test_light_walk_keeps_a_minimal_generating_set(name):
    # highest first, the walk from {e} meets the builders' cyclic part (the
    # top digits) early and keeps exactly d(G) witnesses
    build, *args = WALKED_GROUPS[name]
    g = build(*args)
    reached = np.zeros(g.order, dtype=bool)
    reached[g.identity] = True
    kept = list(greedy_walk(g.table, reached))
    assert len(kept) == _burnside_rank(g)
    assert reached.all()
    assert g.subgroup_closure(kept) == frozenset(range(g.order))


@pytest.mark.parametrize("name", sorted(WALKED_GROUPS))
def test_minimal_generators_generate(name):
    build, *args = WALKED_GROUPS[name]
    g = build(*args)
    gens = _minimal_generators(g)
    assert len(gens) == _burnside_rank(g)
    assert g.subgroup_closure(gens) == frozenset(range(g.order))


@pytest.mark.parametrize(
    "p,width", [(2, w) for w in range(7)] + [(3, w) for w in range(5)] + [(5, 2), (257, 1)]
)
def test_word_sums_match_the_digitwise_formula(p, width):
    words = np.arange(p**width)
    digits = words[:, None] // p ** np.arange(width) % p
    oracle = ((digits[:, None, :] + digits[None, :, :]) % p) @ (p ** np.arange(width))
    table = _word_sums(p, width)
    assert table.dtype == np.uint16
    assert np.array_equal(table, oracle)


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
    data = json.loads(json.dumps(g.to_json_dict()))
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


def _relative_commutator_p_oracle(g, h):
    """[H, G] H^p one commutator x^(-1) y^(-1) x y at a time."""
    gens = {g.mul(g.mul(g.inv(x), g.inv(y)), g.mul(x, y)) for x in h for y in range(g.order)}
    gens |= {g.power(x, g.p) for x in h}
    return g.subgroup_closure(gens)


def _is_normal_oracle(g, h):
    h = set(h)
    closed = g.identity in h and all(g.mul(a, b) in h for a in h for b in h)
    return closed and all(g.mul(g.mul(g.inv(y), x), y) in h for x in h for y in range(g.order))


@pytest.mark.parametrize("p,i,copies", [(2, 1, 2), (2, 2, 1), (2, 2, 2), (3, 1, 2), (3, 2, 1)])
def test_gathers_match_per_element_oracles(p, i, copies):
    g = build_lamplighter(p, i, copies)
    frattini = g.commutator_p_subgroup()
    assert frattini == _relative_commutator_p_oracle(g, range(g.order))
    subsets = [
        {g.identity},
        lamplighter_socle(p, i, copies),
        set(range(p ** (i * copies))),  # the base
        g.subgroup_closure([1]),
        g.subgroup_closure([p ** (i * copies)]),  # the cyclic part
        frattini,
        set(range(g.order)),
        {1},  # not a subgroup
    ]
    for h in subsets:
        assert g.is_normal(h) == _is_normal_oracle(g, h), h
        if g.is_subgroup(h):
            assert g.relative_commutator_p(h) == _relative_commutator_p_oracle(g, h)


def test_quotient_group():
    z4 = cyclic_group(2, 2)
    q, hom = z4.quotient([0, 2])
    assert q.order == 2
    assert hom.images[0] == q.identity
    assert hom.images[1] != q.identity
    with pytest.raises(UsageError):
        lamp = build_lamplighter(2, 2, 1)
        nonnormal = lamp.subgroup_closure([1])  # the base element 1
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
    assert hopf_quotient(g, lamplighter_socle(2, 2, 1)) == 1


def test_hopf_rejects_non_normal():
    g = build_lamplighter(2, 2, 1)
    h = g.subgroup_closure([1])  # the base element 1
    assert not g.is_normal(h)
    with pytest.raises(UsageError):
        hopf_quotient(g, h)


# -- entry gate ----------------------------------------------------------------------------

INDEX_SET_USERS = {
    "subgroup_closure": lambda g, h: g.subgroup_closure(h),
    "is_subgroup": lambda g, h: g.is_subgroup(h),
    "is_normal": lambda g, h: g.is_normal(h),
    "relative_commutator_p": lambda g, h: g.relative_commutator_p(h),
    "quotient": lambda g, h: g.quotient(h)[0].order,
    "hopf_quotient": hopf_quotient,
}


@pytest.mark.parametrize("use", sorted(INDEX_SET_USERS))
@pytest.mark.parametrize(
    "bad,message",
    [
        ([0, 2.7], "must be an integer"),
        ([0, 2.0], "must be an integer"),
        ([0, True], "must be an integer"),
        ([0, "2"], "must be an integer"),
        ([-1], r"-1 is not in \[0, 4\)"),  # would wrap to element 3
        ([0, 4], r"4 is not in \[0, 4\)"),
        (np.array([0, 2.5]), "must be an integer"),
    ],
)
def test_index_sets_pass_the_entry_gate(use, bad, message):
    with pytest.raises(UsageError, match=message):
        INDEX_SET_USERS[use](cyclic_group(2, 2), bad)


@pytest.mark.parametrize("use", sorted(INDEX_SET_USERS))
def test_index_set_containers_agree(use):
    z4 = cyclic_group(2, 2)
    want = INDEX_SET_USERS[use](z4, [0, 2])
    for h in ([2, 0, 2], (0, 2), {0, 2}, frozenset({0, 2}), np.array([0, 2], dtype=np.uint8)):
        assert INDEX_SET_USERS[use](z4, h) == want, h


@pytest.mark.parametrize("names", [5, "ab", ["a", 1], [None], {"a": 1}])
def test_generator_names_must_be_a_list_of_strings(names):
    with pytest.raises(UsageError, match="generator_names must be a list of strings"):
        FiniteGroup(2, [[0, 1], [1, 0]], names)
