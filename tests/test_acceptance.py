"""Acceptance suite: the ten exit criteria, one test each.

Every test prints a single PASS/FAIL line (run pytest with -s to see them
all) and enforces both the exact expected values and the stated runtime
ceiling.  Seeds are fixed so reruns are identical.
"""

import random
import time

from procyclic import (
    LaurentTrunc,
    PadicInt,
    TruncSeries,
    antipode_iso_check,
    bar_h2,
    build_lamplighter,
    census_ratio_set,
    cyclic_group,
    density_gap,
    diagonal_coinvariants,
    elementary_abelian,
    enum_A,
    five_term_check,
    kappa,
    lamplighter_socle,
    min_digit_precision,
    mu,
    regular_antipode,
    regular_module,
    tau,
    tensor_over_groupring,
    tower_report,
)

SEED = 74207281


class _Criterion:
    def __init__(self, number, name, limit_s):
        self.number = number
        self.name = name
        self.limit_s = limit_s
        self.start = time.perf_counter()

    def finish(self, ok):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if ok and elapsed < self.limit_s else "FAIL"
        print(
            f"ACCEPTANCE {self.number:02d} {self.name}: {verdict} "
            f"({elapsed:.2f}s / limit {self.limit_s:.0f}s)"
        )
        assert ok, f"criterion {self.number} ({self.name}) failed"
        assert elapsed < self.limit_s, (
            f"criterion {self.number} exceeded its {self.limit_s}s budget "
            f"({elapsed:.2f}s)"
        )


def test_01_frobenius_identity():
    crit = _Criterion(1, "frobenius identity", 1.0)
    prec = 2**12
    ok = True
    for p in (2, 3, 5):
        base = TruncSeries.one_minus_x(p, prec)
        for i in range(1, 11):
            expected = TruncSeries.one(p, prec) - TruncSeries.monomial(p, prec, p**i)
            ok &= base ** (p**i) == expected
    crit.finish(ok)


def test_02_tau_soundness():
    crit = _Criterion(2, "tau soundness", 5.0)
    prec = 256
    rng = random.Random(SEED)
    ok = True
    for p in (2, 3, 5):
        k = min_digit_precision(p, prec)
        ok &= tau(PadicInt.from_int(-1, p, k), prec) == TruncSeries.one_minus_x(
            p, prec
        ).invert()
        for _ in range(100):
            a = PadicInt(p, [rng.randrange(p) for _ in range(k)])
            b = PadicInt(p, [rng.randrange(p) for _ in range(k)])
            ok &= tau(a + b, prec) == tau(a, prec) * tau(b, prec)
        for _ in range(100):
            depth = rng.randrange(1, k + 1)
            a = PadicInt(p, [rng.randrange(p) for _ in range(k)])
            b = PadicInt(
                p,
                list(a.digits[:depth]) + [rng.randrange(p) for _ in range(k - depth)],
            )
            cut = min(p**depth, prec)
            ok &= tau(a, prec).truncate(cut) == tau(b, prec).truncate(cut)
    crit.finish(ok)


def test_03_antipode_bijection():
    crit = _Criterion(3, "antipode bijection", 10.0)
    ok = True
    for p in (2, 3):
        for i in range(1, 7):
            check = antipode_iso_check(regular_antipode(p, i))
            ok &= check.bijective and check.coinvariant_dim == check.tensor_dim == i
    crit.finish(ok)


def test_04_finite_level_collapse():
    crit = _Criterion(4, "finite-level collapse", 30.0)
    ok = True
    for p in (2, 3):
        for i in range(1, 9):
            mod = regular_module(p, i)
            ok &= tensor_over_groupring(mod, mod) == i
            ok &= diagonal_coinvariants(mod, mod) == i
    crit.finish(ok)


def test_05_counting_bound():
    crit = _Criterion(5, "counting bound", 120.0)
    ok = True
    ratios = []
    for i in range(1, 5):
        cs = census_ratio_set(2, [1], [1], 1, i)
        bound = 2 ** (2 * i + 2)
        ok &= len(cs) <= bound
        ratios.append(len(cs) / 2 ** (2**i))
    ok &= all(a > b for a, b in zip(ratios, ratios[1:]))
    ok &= ratios[-1] < 1e-3
    crit.finish(ok)


def test_06_density_gap():
    crit = _Criterion(6, "density gap", 60.0)
    result = density_gap(TruncSeries.zero(2, 2), 1, 4)
    census = enum_A(2, result.level)
    independent_miss = all(
        member != result.witness for member in census.series()
    )
    ok = result.level <= 5 and independent_miss
    crit.finish(ok)


def test_07_mu_kappa_identity():
    crit = _Criterion(7, "mu-kappa identity", 1.0)
    rng = random.Random(SEED)
    prec = 128
    ok = True
    for _ in range(100):
        p = rng.choice((2, 3, 5))
        coeffs = [rng.randrange(p) for _ in range(prec)]
        coeffs[0] = rng.randrange(1, p)
        laurent = LaurentTrunc(rng.randrange(-32, 33), TruncSeries(p, coeffs, prec))
        rep = kappa(laurent)
        ok &= mu(rep) == laurent
        ok &= rep.is_normalized() and kappa(mu(rep)) == rep
    crit.finish(ok)


def test_08_homology_oracle():
    crit = _Criterion(8, "homology oracle", 120.0)
    ok = bar_h2(cyclic_group(2, 1)) == 1
    ok &= bar_h2(cyclic_group(3, 1)) == 1
    ok &= bar_h2(elementary_abelian(2, 2)) == 3
    ok &= bar_h2(elementary_abelian(3, 2)) == 3
    ok &= bar_h2(elementary_abelian(2, 3)) == 6
    ok &= bar_h2(cyclic_group(2, 2)) == 1
    crit.finish(ok)


def test_09_five_term_exactness():
    crit = _Criterion(9, "five-term exactness", 300.0)
    g1 = elementary_abelian(2, 2)
    lamp = build_lamplighter(2, 2, 1)
    z4 = cyclic_group(2, 2)
    g3 = elementary_abelian(3, 2)
    dl1 = build_lamplighter(2, 1, 2)
    pairs = [
        (g1, g1.subgroup_closure([3])),  # diagonal
        (lamp, lamplighter_socle(2, 2, 1)),
        (z4, z4.subgroup_closure([2])),
        (g3, g3.subgroup_closure([g3.mul(1, 3)])),
        (dl1, lamplighter_socle(2, 1, 2)),
    ]
    ok = len(pairs) >= 5
    for group, subgroup in pairs:
        ok &= five_term_check(group, subgroup)["equal"]
    crit.finish(ok)


def test_10_tower_report():
    crit = _Criterion(10, "double lamplighter tower", 600.0)
    report = tower_report(2, 2)
    ok = report.complete and len(report.rows) == 2
    for row in report.rows:
        ok &= row["coinv_dim"] == row["i"]
        ok &= row["h2_dim"] >= row["i"] + 2 * row["elab_h2"]
    ok &= report.rows[0]["h2_dim"] == 6
    crit.finish(ok)
