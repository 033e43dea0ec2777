"""H2 engines against classical dimensions and each other, and five-term exactness.

Expected values come from universal coefficients and Kunneth: for cyclic
Z/p^e the mod-p H2 is Tor(Z/p^e, Z/p) = Z/p (dimension 1); for a product,
dim H2 is the number of degree-2 monomials in the factors' Poincare
series, giving r(r+1)/2 for (Z/p)^r; D4 has Schur multiplier Z/2 and
abelianization (Z/2)^2, so dim H2(D4, F_2) = 1 + 2 = 3; Q8 has trivial
multiplier, so dim H2(Q8, F_2) = 0 + 2 = 2.  The minimal-resolution
engine minres_h2 is checked against the bar oracle bar_h2 wherever the
bar complex is affordable, and against the closed forms beyond that.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from procyclic import (
    FiniteGroup,
    ResourceLimitError,
    bar_h2,
    build_lamplighter,
    cyclic_group,
    elementary_abelian,
    five_term_check,
    homology,
    lamplighter_socle,
    linfp,
    minres_h2,
    tower_report,
)
from procyclic.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def dihedral8():
    """Symmetries of the square: (r, s) with r in Z/4, s in Z/2."""

    def mul(a, b):
        r1, s1 = a % 4, a // 4
        r2, s2 = b % 4, b // 4
        # s r s = r^(-1): (r1, s1)(r2, s2) = (r1 + r2 * (-1)^s1, s1 + s2)
        r = (r1 + (r2 if s1 == 0 else -r2)) % 4
        return r + 4 * ((s1 + s2) % 2)

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return FiniteGroup(2, table)


def quaternion8():
    """Unit quaternions {1, -1, i, -i, j, -j, k, -k} as indices 0..7."""
    units = {}
    names = [(1, ""), (-1, ""), (1, "i"), (-1, "i"), (1, "j"), (-1, "j"), (1, "k"), (-1, "k")]

    def mul(a, b):
        sa, xa = names[a]
        sb, xb = names[b]
        rules = {
            ("", ""): (1, ""),
            ("", "i"): (1, "i"),
            ("", "j"): (1, "j"),
            ("", "k"): (1, "k"),
            ("i", ""): (1, "i"),
            ("j", ""): (1, "j"),
            ("k", ""): (1, "k"),
            ("i", "i"): (-1, ""),
            ("j", "j"): (-1, ""),
            ("k", "k"): (-1, ""),
            ("i", "j"): (1, "k"),
            ("j", "i"): (-1, "k"),
            ("j", "k"): (1, "i"),
            ("k", "j"): (-1, "i"),
            ("k", "i"): (1, "j"),
            ("i", "k"): (-1, "j"),
        }
        sign, axis = rules[(xa, xb)]
        sign *= sa * sb
        return names.index((sign, axis))

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return FiniteGroup(2, table)


# -- known dimensions --------------------------------------------------------


KNOWN_H2 = [
    (lambda: cyclic_group(2, 1), 1),
    (lambda: cyclic_group(3, 1), 1),
    (lambda: cyclic_group(5, 1), 1),
    (lambda: cyclic_group(2, 2), 1),
    (lambda: cyclic_group(2, 3), 1),
    (lambda: cyclic_group(3, 2), 1),
    (lambda: elementary_abelian(2, 2), 3),
    (lambda: elementary_abelian(3, 2), 3),
    (lambda: elementary_abelian(2, 3), 6),
    (lambda: build_lamplighter(2, 1, 2), 6),
]
KNOWN_H2_IDS = ["Z2", "Z3", "Z5", "Z4", "Z8", "Z9", "Z2^2", "Z3^2", "Z2^3", "DL2(1)"]


@pytest.mark.parametrize("build,expected", KNOWN_H2)
def test_bar_h2_known_values(build, expected):
    assert bar_h2(build()) == expected


def test_bar_h2_dihedral_and_quaternion():
    assert bar_h2(dihedral8()) == 3
    assert bar_h2(quaternion8()) == 2


def test_bar_h2_trivial_group():
    assert bar_h2(cyclic_group(2, 0)) == 0


# -- the bar chains against their definitions -----------------------------------


def relabelled(group, shift):
    """group with index x renamed (x + shift) mod |G|, so e moves off index 0."""
    m = group.order
    new = (np.arange(m) + shift) % m
    table = np.empty((m, m), dtype=np.int64)
    table[np.ix_(new, new)] = new[group.table]
    return FiniteGroup(group.p, table)


def bar_reference(group):
    """d2 (one column per [g|h]) and the d3 rows [g|h|k], in g, h, k order,
    straight from the formulas with group.mul, faces with e dropped."""
    e = group.identity
    elems = [g for g in range(group.order) if g != e]
    c1 = {g: a for a, g in enumerate(elems)}
    m1 = len(elems)
    d2 = np.zeros((m1, m1 * m1), dtype=np.int64)
    d3 = np.zeros((m1**3, m1 * m1), dtype=np.int64)
    for col, (g, h) in enumerate((g, h) for g in elems for h in elems):
        for sign, x in ((1, h), (-1, group.mul(g, h)), (1, g)):
            if x != e:
                d2[c1[x], col] += sign
    triples = ((g, h, k) for g in elems for h in elems for k in elems)
    for row, (g, h, k) in enumerate(triples):
        faces = ((h, k), (group.mul(g, h), k), (g, group.mul(h, k)), (g, h))
        for sign, (x, y) in zip((1, -1, 1, -1), faces):
            if x != e and y != e:
                d3[row, c1[x] * m1 + c1[y]] += sign
    return d2 % group.p, d3 % group.p


class RecordingAccumulator:
    """Keeps every row it is fed: F_2 rows as ints, odd-p rows as arrays."""

    def __init__(self):
        self.bits, self.blocks = [], []

    def add_bits(self, row):
        self.bits.append(row)

    def add_rows(self, rows):
        self.blocks.append(np.array(rows))


BAR_GROUPS = {
    "D4": dihedral8,
    "Q8": quaternion8,
    "Z2^3 e=5": lambda: relabelled(elementary_abelian(2, 3), 5),
    "trivial F2": lambda: cyclic_group(2, 0),
    "Z9": lambda: cyclic_group(3, 2),
    "Z3^2": lambda: elementary_abelian(3, 2),
    "Z9 e=4": lambda: relabelled(cyclic_group(3, 2), 4),
    "trivial F3": lambda: cyclic_group(3, 0),
}


@pytest.mark.parametrize("name", sorted(BAR_GROUPS))
def test_bar_chains_match_their_definitions(name):
    group = BAR_GROUPS[name]()
    d2, d3 = bar_reference(group)
    prod = homology._bar_products(group)
    assert np.array_equal(homology._boundary2_matrix(group.p, prod).array, d2)
    acc = RecordingAccumulator()
    homology._stream_d3(group.p, prod, acc)
    ncols = d3.shape[1]
    if group.p == 2:
        assert not acc.blocks
        fed = [[row >> c & 1 for c in range(ncols)] for row in acc.bits]
    else:
        assert not acc.bits
        fed = [row for block in acc.blocks for row in block]
    assert np.array_equal(np.array(fed, dtype=np.int64).reshape(len(fed), ncols), d3)


# a central element of order p in each group, as its index there
@pytest.mark.parametrize("name, central", [("D4", 2), ("Z9", 3), ("Z9 e=4", 7), ("Q8", 1)])
def test_chain_map_matches_the_homomorphism(name, central):
    group = BAR_GROUPS[name]()
    quotient, hom = group.quotient(group.subgroup_closure([central]))
    elems = [g for g in range(group.order) if g != group.identity]
    q_elems = [g for g in range(quotient.order) if g != quotient.identity]
    expected = [
        q_elems.index(hom.images[g]) * len(q_elems) + q_elems.index(hom.images[h])
        if quotient.identity not in (hom.images[g], hom.images[h])
        else -1
        for g in elems
        for h in elems
    ]
    assert homology._chain_map_c2(hom).tolist() == expected


def _refusal(engine, group):
    """The ResourceLimitError message engine raises on group, or None."""
    try:
        engine(group)
    except ResourceLimitError as exc:
        return str(exc)
    return None


def test_bar_budget(monkeypatch):
    monkeypatch.delenv("PROCYCLIC_MAX_BAR", raising=False)
    elab128 = elementary_abelian(2, 7)
    lamp16 = build_lamplighter(2, 2, 1)
    assert _refusal(bar_h2, elab128) == _refusal(minres_h2, elab128) is not None
    monkeypatch.setenv("PROCYCLIC_MAX_BAR", "8")
    assert _refusal(bar_h2, lamp16) == _refusal(minres_h2, lamp16) is not None
    monkeypatch.setenv("PROCYCLIC_MAX_BAR", "16")
    assert bar_h2(lamp16) == minres_h2(lamp16) == 4


# -- minimal-resolution engine -------------------------------------------------


@pytest.mark.parametrize(
    "build,expected",
    KNOWN_H2
    + [
        (dihedral8, 3),
        (quaternion8, 2),
        (lambda: build_lamplighter(2, 2, 1), 4),
        (lambda: elementary_abelian(2, 5), 15),
        (lambda: build_lamplighter(2, 2, 2), 9),  # DL_2(2), order 64
        (lambda: build_lamplighter(3, 1, 2), 6),  # DL_3(1): 17,576 d3 rows over F_3
        (lambda: cyclic_group(2, 0), 0),
    ],
    ids=KNOWN_H2_IDS + ["D4", "Q8", "L2(2)", "Z2^5", "DL2(2)", "DL3(1)", "trivial"],
)
def test_minres_h2_matches_bar_oracle(build, expected):
    group = build()
    assert minres_h2(group) == bar_h2(group) == expected


def test_minres_h2_streams_level_three_of_the_tower(monkeypatch):
    # DL_2(3), order 512: the rows of I.K enter the accumulator one
    # generator at a time, with no d * dim K x d|G| staging array
    monkeypatch.setenv("PROCYCLIC_MAX_BAR", "512")
    group = build_lamplighter(2, 3, 2)
    tracemalloc.start()
    try:
        h2 = minres_h2(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h2 == 10
    assert peak < 64 * 2**20, peak


def test_minres_h2_refuses_a_non_generating_set(monkeypatch):
    monkeypatch.setattr(homology, "_minimal_generators", lambda group: [1])
    with pytest.raises(RuntimeError, match="do not generate"):
        minres_h2(elementary_abelian(2, 2))


@pytest.mark.parametrize(
    "build,expected",
    [
        (lambda: cyclic_group(2, 9), 1),
        (lambda: cyclic_group(3, 5), 1),
        (lambda: elementary_abelian(2, 6), 21),
        (lambda: elementary_abelian(2, 7), 28),
        (lambda: elementary_abelian(3, 4), 10),
    ],
    ids=["cyclic-2^9", "cyclic-3^5", "elab-2^6", "elab-2^7", "elab-3^4"],
)
def test_minres_h2_closed_forms_beyond_bar_budget(monkeypatch, build, expected):
    monkeypatch.setenv("PROCYCLIC_MAX_BAR", "512")
    assert minres_h2(build()) == expected


# -- five-term exactness --------------------------------------------------------


def five_term_cases():
    g1 = elementary_abelian(2, 2)
    yield g1, g1.subgroup_closure([3])
    lamp = build_lamplighter(2, 2, 1)
    yield lamp, lamplighter_socle(2, 2, 1)
    z4 = cyclic_group(2, 2)
    yield z4, z4.subgroup_closure([2])
    g3 = elementary_abelian(3, 2)
    yield g3, g3.subgroup_closure([g3.mul(1, 3)])
    dl1 = build_lamplighter(2, 1, 2)
    yield dl1, lamplighter_socle(2, 1, 2)
    z9 = cyclic_group(3, 2)
    yield z9, z9.subgroup_closure([3])
    d4 = dihedral8()
    yield d4, d4.subgroup_closure([2])  # the central rotation {1, r^2}
    q8 = quaternion8()
    yield q8, q8.subgroup_closure([1])  # the center {1, -1}


def test_five_term_equality_on_all_pairs():
    results = []
    for group, subgroup in five_term_cases():
        report = five_term_check(group, subgroup)
        results.append(report)
        assert report["equal"], (group, report)
    assert len(results) == 8


@pytest.mark.parametrize("p, i, copies", ((2, 2, 2), (2, 3, 1)))
def test_five_term_at_order_64_forms_no_cycle_basis(p, i, copies):
    # the dense cycle basis of DL_2(2) alone is 3,909 x 3,969 int64 (124 MB)
    group = build_lamplighter(p, i, copies)
    socle = lamplighter_socle(p, i, copies)
    assert group.order == 64
    tracemalloc.start()
    try:
        report = five_term_check(group, socle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == {"cokernel_dim": 1, "hopf_dim": 1, "equal": True}
    assert peak < 64 * 2**20, peak


def test_null_spaces_take_no_dense_rref(monkeypatch, capsys):
    def refuse(matrix):
        raise AssertionError("rref is a test oracle, not a production path")

    monkeypatch.setattr(linfp, "rref", refuse)
    monkeypatch.delenv("PROCYCLIC_MAX_BAR", raising=False)
    monkeypatch.delenv("PROCYCLIC_MAX_GROUP", raising=False)
    goldens = {
        "report-json": ["report", "--json"],
        "tower-json": ["tower", "--p", "3", "--imax", "1", "--json"],
    }
    for name, argv in goldens.items():
        assert main(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
    assert main(["h2", "--group", "elab", "--p", "2", "--i", "5", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["h2_dim"] == 15
    for group, subgroup in five_term_cases():
        assert five_term_check(group, subgroup)["equal"]


def test_five_term_full_subgroup():
    g = elementary_abelian(2, 2)
    report = five_term_check(g, range(g.order))
    assert report == {"cokernel_dim": 0, "hopf_dim": 0, "equal": True}


def test_five_term_trivial_subgroup():
    g = build_lamplighter(2, 2, 1)
    report = five_term_check(g, [g.identity])
    # quotient is G itself: the map on H2 is the identity, cokernel 0
    assert report == {"cokernel_dim": 0, "hopf_dim": 0, "equal": True}


# -- tower ------------------------------------------------------------------------


def test_tower_level_one():
    rep = tower_report(2, 1)
    assert rep.complete
    row = rep.rows[0]
    assert row["order"] == 8
    assert row["h2_dim"] == 6
    assert row["coinv_dim"] == 1
    assert row["tensor_gr_dim"] == 1
    assert row["lower_bound"] == 3
    assert row["collapse_ok"] and row["inequality_ok"]


def test_tower_partial_on_budget(monkeypatch):
    monkeypatch.setenv("PROCYCLIC_MAX_BAR", "8")
    rep = tower_report(2, 2)
    assert not rep.complete
    assert len(rep.rows) == 1
    assert rep.stopped_reason


def test_tower_level_two_full():
    rep = tower_report(2, 2)
    assert rep.complete
    row = rep.rows[1]
    assert row["order"] == 64
    assert row["coinv_dim"] == 2 and row["tensor_gr_dim"] == 2
    assert row["h2_dim"] == 9 and row["lower_bound"] == 8
    assert row["collapse_ok"] and row["inequality_ok"]


@pytest.mark.parametrize("p, i", [(2, 1), (2, 2), (3, 1)])
def test_tower_elab_h2_is_the_kunneth_count(p, i):
    row = tower_report(p, i).rows[i - 1]
    assert row["elab_h2"] == minres_h2(elementary_abelian(p, i)) == i * (i + 1) // 2


def test_tower_p3_level_one():
    rep = tower_report(3, 1)
    assert rep.complete
    row = rep.rows[0]
    assert row["order"] == 27
    assert row["h2_dim"] == 6
    assert row["coinv_dim"] == 1 and row["tensor_gr_dim"] == 1
    assert row["elab_h2"] == 1 and row["lower_bound"] == 3
    assert row["collapse_ok"] and row["inequality_ok"]
