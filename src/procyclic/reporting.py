"""Verification sections and the report document.

Each section runs one family of checks end to end and reports rows of
machine-readable facts plus a pass/fail status.  SECTIONS lists them
once, in report order; a section that no caller configures runs one fixed
check and takes no parameters.  The full document is the CLI's `report`
output; individual subcommands reuse single sections.

All randomized trials draw from a seeded generator, so a fixed seed gives
a byte-identical document.  Timings are only recorded when explicitly
requested, because wall-clock noise would break reproducibility of the
default output.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__ as _version
from .census import (
    census_ratio_set,
    check_census_budget,
    density_gap,
    kappa,
    mu,
)
from .cycmod import (
    AntipodeCheck,
    antipode_iso_check,
    diagonal_coinvariants,
    regular_antipode,
    regular_module,
    tensor_over_groupring,
)
from .errors import ResourceLimitError, SearchExhaustedError, UsageError
from .fpx import LaurentTrunc, TruncSeries, mul_rows, validate_prime
from .groups import (
    build_lamplighter,
    cyclic_group,
    elementary_abelian,
    lamplighter_socle,
    max_group_order,
)
from .homology import bar_h2, five_term_check, max_bar_order, tower_report
from .padic import PadicInt, add_digit_rows
from .taumap import min_digit_precision, sigma, tau, tau_rows

DEFAULT_SEED = 20240801

# section_tau_soundness runs this many trials per block: one stacked carry
# sum, tau_rows call and product for the homomorphism trials, one tau_rows
# call for the continuity trials.  Blocks bound the temporaries: the
# section's tracemalloc peak is 0.8 MB with blocks of 20 and 3.6 MB with
# blocks of 300.
TAU_BLOCK = 20

# section_antipode_series refuses trials * prec^2 above this.  Each trial
# runs sigma eight times, and sigma is a prec-step Horner loop of prefix sums
# of length up to prec: one trial at prec 1024 took 0.09 s at p = 3 and
# 0.07 s at p = 65521, 16 trials at prec 256 took 0.18 s at p = 65521 (best
# of three, one core of a shared 2-CPU x86-64 machine).  The bound could be
# far higher; it stays where the CLI's golden outputs pin it.
MAX_SIGMA_WORK = 1 << 20


@dataclass
class Section:
    name: str
    status: str  # "pass" | "fail" | "stopped" (a size budget cut it short)
    rows: list = field(default_factory=list)
    timing_s: float | None = None

    def to_json_dict(self) -> dict:
        doc = {"name": self.name, "status": self.status, "rows": self.rows}
        if self.timing_s is not None:
            doc["timing_s"] = round(self.timing_s, 3)
        return doc


def format_row(row: dict) -> str:
    """A row as ``k=v, k=v, ...``, the one text form of a section row."""
    return ", ".join(f"{k}={v}" for k, v in row.items())


def json_header() -> dict:
    """The keys every JSON document of the tool starts with."""
    return {"schema_version": 1, "tool": "procyclic", "version": _version}


@dataclass
class ReportDocument:
    config: dict
    sections: list[Section] = field(default_factory=list)

    @property
    def status(self) -> str:
        """The exit status: fail if any section failed, else stopped if any
        section stopped, else pass."""
        statuses = {s.status for s in self.sections}
        return next((s for s in ("fail", "stopped") if s in statuses), "pass")

    def to_json_dict(self) -> dict:
        return {
            **json_header(),
            "config": self.config,
            "sections": [s.to_json_dict() for s in self.sections],
        }

    def render_text(self) -> str:
        lines = [f"procyclic report (version {_version})"]
        for key, value in sorted(self.config.items()):
            lines.append(f"  config {key} = {value}")
        for section in self.sections:
            mark = {"pass": "PASS", "fail": "FAIL", "stopped": "STOP"}[section.status]
            suffix = (
                f"  [{section.timing_s:.3f}s]" if section.timing_s is not None else ""
            )
            lines.append(f"[{mark}] {section.name}{suffix}")
            lines += ["    " + format_row(row) for row in section.rows]
        return "\n".join(lines) + "\n"


def _random_series(rng: random.Random, p: int, prec: int) -> TruncSeries:
    coeffs = [rng.randrange(p) for _ in range(prec)]
    return TruncSeries(p, np.array(coeffs, dtype=np.int64), prec)


def _random_unit(rng: random.Random, p: int, prec: int) -> TruncSeries:
    coeffs = [rng.randrange(p) for _ in range(prec)]
    coeffs[0] = rng.randrange(1, p) if p > 2 else 1
    return TruncSeries(p, np.array(coeffs, dtype=np.int64), prec)


# -- individual sections --------------------------------------------------


def section_frobenius(primes=(2, 3, 5), i_max: int = 10, prec: int = 4096) -> Section:
    """Check (1 - x)^(p^i) = 1 - x^(p^i) in F_p[x]/(x^prec) for i = 1..i_max.

    The left side runs along the addition chain p^i = p * p^(i-1): level i
    raises the level i - 1 power to the p-th power, so each level costs one
    p-th power instead of powering 1 - x from scratch.  Each left side is
    still the exact product (1 - x)^(p^i), formed by ring products alone
    and never by assuming the identity under test, so a level that fails
    its check still hands the true power to the next.  Once a level holds,
    its value has two nonzero terms, and every later product takes the
    small-support kernel.  Once the left side is the series 1, as it is from
    level log_p(prec) on when the identity holds, later levels take no
    product: 1^p = 1 is ring arithmetic on the computed value.  The oracle
    powers 1 - x from scratch at every level:
    tests/test_acceptance.py::test_01_frobenius_identity, and the
    row-for-row comparison in tests/test_reporting.py.
    """
    rows = []
    ok = True
    for p in primes:
        one = TruncSeries.one(p, prec)
        lhs = TruncSeries.one_minus_x(p, prec)
        for i in range(1, i_max + 1):
            if lhs != one:  # 1^p = 1 needs no product
                lhs = lhs**p
            rhs = one - TruncSeries.monomial(p, prec, p**i)
            good = lhs == rhs
            ok &= good
            rows.append({"p": p, "i": i, "exact": good})
    return Section("frobenius", "pass" if ok else "fail", rows)


def section_tau_soundness(
    primes=(2, 3, 5), prec: int = 256, trials: int = 100, seed: int = DEFAULT_SEED
) -> Section:
    """Seeded checks that tau is a continuous homomorphism into F_p[[x]]^*.

    One row per prime p, with exponents of k = min_digit_precision(p, prec)
    random digits and series mod x^prec:

    - ``geometric``: tau(-1) equals the Newton inverse of 1 - x;
    - ``hom_trials``: tau(a + b) = tau(a) * tau(b), where a + b comes from
      the digit-carry sum ``add_digit_rows``, each image from tau's closed
      form ``tau_rows``, and the right side from the exact series product
      ``mul_rows``;
    - ``continuity_trials``: exponents that agree in their first ``depth``
      digits have images that agree below x^(p^depth) (or x^prec).

    The trials draw the same digits in the same order as one tau call per
    exponent would, but run in blocks of up to TAU_BLOCK trials.  A block of
    n homomorphism trials is one stacked carry sum of its n digit pairs, one
    ``tau_rows`` call on the 3n digit rows of a, b and a + b, one stacked
    product of the n pairs of images and one row comparison; a block of
    continuity trials is one ``tau_rows`` call on its 2n exponents.
    """
    rows = []
    ok = True
    rng = random.Random(seed)
    for p in primes:
        k = min_digit_precision(p, prec)
        geo = tau(PadicInt.from_int(-1, p, k), prec) == TruncSeries.one_minus_x(
            p, prec
        ).invert()
        hom_trials = 0
        for start in range(0, trials, TAU_BLOCK):
            n = min(TAU_BLOCK, trials - start)
            # trial t draws the k digits of a, then the k digits of b
            draws = [[rng.randrange(p) for _ in range(2 * k)] for _ in range(n)]
            pairs = np.array(draws, dtype=np.int64).reshape(n, 2, k)
            a, b = pairs[:, 0], pairs[:, 1]
            images = tau_rows(p, np.concatenate([a, b, add_digit_rows(p, a, b)]), prec)
            ta, tb, tsum = images[:n], images[n : 2 * n], images[2 * n :]
            hom_trials += int((mul_rows(p, ta, tb) == tsum).all(axis=1).sum())
        cont_trials = 0
        for start in range(0, trials, TAU_BLOCK):
            cuts, a_digits, b_digits = [], [], []
            for _ in range(min(TAU_BLOCK, trials - start)):
                depth = rng.randrange(1, k + 1)
                a = [rng.randrange(p) for _ in range(k)]
                a_digits.append(a)
                b_digits.append(a[:depth] + [rng.randrange(p) for _ in range(k - depth)])
                cuts.append(min(p**depth, prec))
            images = tau_rows(p, np.array(a_digits + b_digits, dtype=np.int64), prec)
            for x, y, cut in zip(images, images[len(cuts):], cuts):
                if np.array_equal(x[:cut], y[:cut]):
                    cont_trials += 1
        good = geo and hom_trials == trials and cont_trials == trials
        ok &= good
        rows.append(
            {
                "p": p,
                "geometric": geo,
                "hom_trials": f"{hom_trials}/{trials}",
                "continuity_trials": f"{cont_trials}/{trials}",
            }
        )
    return Section("tau-soundness", "pass" if ok else "fail", rows)


def section_antipode_series(
    p: int, prec: int, trials: int, seed: int = DEFAULT_SEED
) -> Section:
    """Seeded checks that sigma is a ring involution with sigma(1-x)(1-x) = 1.

    One row: the trials in which sigma(sigma(f)) = f, the trials in which
    sigma is additive and multiplicative on a random pair, and the unit
    identity.  Work above MAX_SIGMA_WORK is refused before any trial runs.
    """
    p = validate_prime(p)
    if trials < 1:
        raise UsageError("trials must be >= 1, or no series identity is checked")
    if prec < 1:
        raise UsageError("precision must be a positive integer")
    if trials * prec * prec > MAX_SIGMA_WORK:
        raise ResourceLimitError(
            f"{trials} sigma trials at precision {prec} need trials * prec^2 = "
            f"{trials * prec * prec} > {MAX_SIGMA_WORK}"
        )
    rng = random.Random(seed)
    inv_ok = hom_ok = 0
    for _ in range(trials):
        f = _random_series(rng, p, prec)
        g = _random_series(rng, p, prec)
        if sigma(sigma(f)) == f:
            inv_ok += 1
        if sigma(f * g) == sigma(f) * sigma(g) and sigma(f + g) == sigma(f) + sigma(g):
            hom_ok += 1
    one_minus_x = TruncSeries.one_minus_x(p, prec)
    unit_ok = sigma(one_minus_x) * one_minus_x == TruncSeries.one(p, prec)
    ok = inv_ok == trials and hom_ok == trials and unit_ok
    row = {
        "involution": f"{inv_ok}/{trials}",
        "ring_hom": f"{hom_ok}/{trials}",
        "sigma(1-x)*(1-x)=1": unit_ok,
    }
    return Section("antipode-series", "pass" if ok else "fail", [row])


def antipode_bijection(p: int, i: int) -> tuple[AntipodeCheck, bool]:
    """The antipode certificate of the level-i regular module, and whether it
    passes: the antipode is a bijection and both dimensions equal i."""
    antipode = regular_antipode(p, i)
    check = antipode_iso_check(antipode)
    ok = check.bijective and check.coinvariant_dim == check.tensor_dim == i
    return check, ok


def section_antipode_bijection(primes=(2, 3), i_max: int = 6) -> Section:
    rows = []
    ok = True
    for p in primes:
        for i in range(1, i_max + 1):
            check, good = antipode_bijection(p, i)
            ok &= good
            rows.append(
                {
                    "p": p,
                    "i": i,
                    "bijective": check.bijective,
                    "coinv_dim": check.coinvariant_dim,
                    "tensor_dim": check.tensor_dim,
                }
            )
    return Section("antipode-bijection", "pass" if ok else "fail", rows)


def section_finite_collapse() -> Section:
    rows = []
    ok = True
    for p in (2, 3):
        for i in range(1, 9):
            mod = regular_module(p, i)
            coinv = diagonal_coinvariants(mod, mod)
            tensor = tensor_over_groupring(mod, mod)
            good = coinv == i and tensor == i
            ok &= good
            rows.append({"p": p, "i": i, "coinv_dim": coinv, "tensor_gr_dim": tensor})
    return Section("finite-collapse", "pass" if ok else "fail", rows)


def census_rows(p: int, alpha, beta, k: int, i_max: int) -> list[dict]:
    """One row per level k..i_max: ratio-set size against the counting bound.

    The budget of the top level is checked before any level is computed.
    """
    n = len(alpha)
    check_census_budget(p, n, i_max)
    rows = []
    for i in range(k, i_max + 1):
        size = len(census_ratio_set(p, alpha, beta, k, i))
        bound = p ** (2 * i * n + p**k)
        ambient = p ** (p**i)
        rows.append(
            {
                "level": i,
                "size": size,
                "bound": bound,
                "ambient": ambient,
                "ratio": size / ambient,
                "within_bound": size <= bound,
            }
        )
    return rows


def section_counting_bound() -> Section:
    rows = []
    ratios = []
    ok = True
    for row in census_rows(2, [1], [1], 1, 4):
        ratios.append(row["ratio"])
        ok &= row["within_bound"]
        rows.append(
            {
                "i": row["level"],
                "size": row["size"],
                "bound": row["bound"],
                "ambient": row["ambient"],
                "ratio": f"{row['ratio']:.6g}",
                "within_bound": row["within_bound"],
            }
        )
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    final_small = ratios[-1] < 1e-3
    ok &= decreasing and final_small
    rows.append({"strictly_decreasing": decreasing, "final_below_1e-3": final_small})
    return Section("counting-bound", "pass" if ok else "fail", rows)


def section_density_gap() -> Section:
    rows = []
    try:
        result = density_gap(TruncSeries.zero(2, 2), 1, 4)
    except SearchExhaustedError as exc:
        for level, size, cosets in exc.counts:
            rows.append({"level": level, "census": size, "cosets": cosets})
        rows.append({"witness": None})
        return Section("density-gap", "fail", rows)
    for level, size, cosets in result.log:
        rows.append({"level": level, "census": size, "cosets": cosets})
    rows.append(
        {
            "witness": str(result.witness),
            "level": result.level,
            "scanned": result.scanned,
            "verified": True,
        }
    )
    return Section("density-gap", "pass", rows)


def section_mu_kappa(seed: int = DEFAULT_SEED) -> Section:
    p, prec, trials = 2, 128, 100
    rng = random.Random(seed)
    round_trip = 0
    normalized_trip = 0
    for _ in range(trials):
        val = rng.randrange(-prec // 4, prec // 4)
        laurent = LaurentTrunc(val, _random_unit(rng, p, prec))
        rep = kappa(laurent)
        if mu(rep) == laurent and rep.is_normalized():
            round_trip += 1
        if kappa(mu(rep)) == rep.normalized():
            normalized_trip += 1
    ok = round_trip == trials and normalized_trip == trials
    rows = [
        {
            "p": p,
            "prec": prec,
            "mu_kappa_id": f"{round_trip}/{trials}",
            "kappa_mu_id": f"{normalized_trip}/{trials}",
        }
    ]
    return Section("mu-kappa", "pass" if ok else "fail", rows)


def section_homology_oracle() -> Section:
    cases = [
        ("Z/2", cyclic_group(2, 1), 1),
        ("Z/3", cyclic_group(3, 1), 1),
        ("(Z/2)^2", elementary_abelian(2, 2), 3),
        ("(Z/3)^2", elementary_abelian(3, 2), 3),
        ("(Z/2)^3", elementary_abelian(2, 3), 6),
        ("Z/4", cyclic_group(2, 2), 1),
    ]
    rows = []
    ok = True
    for name, group, expected in cases:
        got = bar_h2(group)
        good = got == expected
        ok &= good
        rows.append({"group": name, "h2": got, "expected": expected, "ok": good})
    return Section("homology-oracle", "pass" if ok else "fail", rows)


def _five_term_pairs():
    g1 = elementary_abelian(2, 2)
    yield "(Z/2)^2 / diagonal", g1, g1.subgroup_closure([3])
    lamp = build_lamplighter(2, 2, 1)
    yield "lamplighter(2,2,1) / socle", lamp, lamplighter_socle(2, 2, 1)
    z4 = cyclic_group(2, 2)
    yield "Z/4 / 2Z/4", z4, z4.subgroup_closure([2])
    g3 = elementary_abelian(3, 2)
    yield "(Z/3)^2 / diagonal", g3, g3.subgroup_closure([g3.mul(1, 3)])
    dl1 = build_lamplighter(2, 1, 2)
    yield "DL(1) / socle coordinate", dl1, lamplighter_socle(2, 1, 2)
    z9 = cyclic_group(3, 2)
    yield "Z/9 / 3Z/9", z9, z9.subgroup_closure([3])


def section_five_term() -> Section:
    rows = []
    ok = True
    for name, group, subgroup in _five_term_pairs():
        row = {"pair": name, **five_term_check(group, subgroup)}
        ok &= row["equal"]
        rows.append(row)
    return Section("five-term", "pass" if ok else "fail", rows)


def section_tower() -> Section:
    report = tower_report(2, 2)
    rows = [{k: v for k, v in row.items() if k != "elab_h2"} for row in report.rows]
    status = report.status
    if report.rows:
        expected_first = report.rows[0]["h2_dim"] == 6
        status = status if expected_first else "fail"
        rows.append({"dl1_h2_is_6": expected_first})
    if not report.complete:
        rows.append({"stopped": report.stopped_reason})
    return Section("tower", status, rows)


SECTIONS = {
    "frobenius": section_frobenius,
    "tau-soundness": section_tau_soundness,
    "antipode-bijection": section_antipode_bijection,
    "finite-collapse": section_finite_collapse,
    "counting-bound": section_counting_bound,
    "density-gap": section_density_gap,
    "mu-kappa": section_mu_kappa,
    "homology-oracle": section_homology_oracle,
    "five-term": section_five_term,
    "tower": section_tower,
}
SECTION_ORDER = tuple(SECTIONS)


def run_report(
    sections=None, seed: int = DEFAULT_SEED, with_timings: bool = False
) -> ReportDocument:
    """Run the named sections (all of them by default) in canonical order."""
    requested = list(sections) if sections else SECTION_ORDER
    unknown = [s for s in requested if s not in SECTIONS]
    if unknown:
        raise UsageError(f"unknown report sections: {', '.join(unknown)}")
    chosen = [name for name in SECTION_ORDER if name in requested]
    config = {
        "seed": seed,
        "max_group": max_group_order(),
        "max_bar": max_bar_order(),
        "sections": ",".join(chosen),
    }
    doc = ReportDocument(config=config)
    for name in chosen:
        runner = SECTIONS[name]
        start = time.perf_counter()
        if name in ("tau-soundness", "mu-kappa"):
            section = runner(seed=seed)
        else:
            section = runner()
        if with_timings:
            section.timing_s = time.perf_counter() - start
        doc.sections.append(section)
    return doc
