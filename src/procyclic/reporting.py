"""Verification sections and the report document.

Each section runs one family of checks end to end and reports rows of
machine-readable facts plus a pass/fail status.  The full document is the
CLI's `report` output; individual subcommands reuse single sections.

All randomized trials draw from a seeded generator, so a fixed seed gives
a byte-identical document.  Timings are only recorded when explicitly
requested, because wall-clock noise would break reproducibility of the
default output.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from . import __version__ as _version
from .census import (
    census_ratio_set,
    check_census_budget,
    density_gap,
    enum_A,
    kappa,
    mu,
)
from .cycmod import (
    antipode_iso_check,
    diagonal_coinvariants,
    regular_antipode,
    regular_module,
    tensor_over_groupring,
)
from .errors import SearchExhaustedError, UsageError
from .fpx import LaurentTrunc, TruncSeries
from .groups import build_lamplighter, cyclic_group, elementary_abelian, max_group_order
from .homology import TowerRow, bar_h2, five_term_check, max_bar_order, tower_report
from .padic import PadicInt
from .taumap import min_digit_precision, tau

DEFAULT_SEED = 20240801

SECTION_ORDER = (
    "frobenius",
    "tau-soundness",
    "antipode-bijection",
    "finite-collapse",
    "counting-bound",
    "density-gap",
    "mu-kappa",
    "homology-oracle",
    "five-term",
    "tower",
)


@dataclass
class Section:
    name: str
    status: str  # "pass" | "fail" | "skip"
    rows: list = field(default_factory=list)
    timing_s: float | None = None

    def to_json_dict(self) -> dict:
        doc = {"name": self.name, "status": self.status, "rows": self.rows}
        if self.timing_s is not None:
            doc["timing_s"] = round(self.timing_s, 3)
        return doc


def json_header() -> dict:
    """The keys every JSON document of the tool starts with."""
    return {"schema_version": 1, "tool": "procyclic", "version": _version}


@dataclass
class ReportDocument:
    config: dict
    sections: list[Section] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(s.status == "pass" for s in self.sections)

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
            mark = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[section.status]
            suffix = (
                f"  [{section.timing_s:.3f}s]" if section.timing_s is not None else ""
            )
            lines.append(f"[{mark}] {section.name}{suffix}")
            for row in section.rows:
                body = ", ".join(f"{k}={v}" for k, v in row.items())
                lines.append(f"    {body}")
        return "\n".join(lines) + "\n"


def _random_series(rng: random.Random, p: int, prec: int) -> TruncSeries:
    return TruncSeries(p, [rng.randrange(p) for _ in range(prec)], prec)


def _random_unit(rng: random.Random, p: int, prec: int) -> TruncSeries:
    coeffs = [rng.randrange(p) for _ in range(prec)]
    coeffs[0] = rng.randrange(1, p) if p > 2 else 1
    return TruncSeries(p, coeffs, prec)


# -- individual sections --------------------------------------------------


def section_frobenius(primes=(2, 3, 5), i_max: int = 10, prec: int = 4096) -> Section:
    rows = []
    ok = True
    for p in primes:
        base = TruncSeries.one_minus_x(p, prec)
        for i in range(1, i_max + 1):
            lhs = base ** (p**i)
            rhs = TruncSeries.one(p, prec) - TruncSeries.monomial(p, prec, p**i)
            good = lhs == rhs
            ok &= good
            rows.append({"p": p, "i": i, "exact": good})
    return Section("frobenius", "pass" if ok else "fail", rows)


def section_tau_soundness(
    primes=(2, 3, 5), prec: int = 256, trials: int = 100, seed: int = DEFAULT_SEED
) -> Section:
    rows = []
    ok = True
    rng = random.Random(seed)
    for p in primes:
        k = min_digit_precision(p, prec)
        geo = tau(PadicInt.from_int(-1, p, k), prec) == TruncSeries.one_minus_x(
            p, prec
        ).invert()
        hom_trials = 0
        for _ in range(trials):
            a = PadicInt(p, [rng.randrange(p) for _ in range(k)])
            b = PadicInt(p, [rng.randrange(p) for _ in range(k)])
            if tau(a + b, prec) == tau(a, prec) * tau(b, prec):
                hom_trials += 1
        cont_trials = 0
        for _ in range(trials):
            depth = rng.randrange(1, k + 1)
            a = PadicInt(p, [rng.randrange(p) for _ in range(k)])
            b_digits = list(a.digits[:depth]) + [rng.randrange(p) for _ in range(k - depth)]
            b = PadicInt(p, b_digits)
            cut = p**depth
            if cut > prec:
                cut = prec
            if tau(a, prec).truncate(cut) == tau(b, prec).truncate(cut):
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


def section_antipode_bijection(primes=(2, 3), i_max: int = 6) -> Section:
    rows = []
    ok = True
    for p in primes:
        for i in range(1, i_max + 1):
            mod = regular_module(p, i)
            check = antipode_iso_check(mod, regular_antipode(p, i))
            good = (
                check.bijective
                and check.coinvariant_dim == i
                and check.tensor_dim == i
            )
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


def section_finite_collapse(primes=(2, 3), i_max: int = 8) -> Section:
    rows = []
    ok = True
    for p in primes:
        for i in range(1, i_max + 1):
            mod = regular_module(p, i)
            coinv = diagonal_coinvariants(mod, mod).dim
            tensor = tensor_over_groupring(mod, mod).dim
            good = coinv == i and tensor == i
            ok &= good
            rows.append({"p": p, "i": i, "coinv_dim": coinv, "tensor_gr_dim": tensor})
    return Section("finite-collapse", "pass" if ok else "fail", rows)


def census_rows(p: int, alpha, beta, k: int, i_max: int) -> list[dict]:
    """One row per level k..i_max: ratio-set size against the counting bound.

    The budget of the top level is checked before any level is computed.
    """
    n = len(alpha)
    if i_max >= k:
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


def section_counting_bound(
    p: int = 2, n: int = 1, k: int = 1, i_max: int = 4, alpha=None, beta=None
) -> Section:
    alpha = list(alpha) if alpha is not None else [1] * n
    beta = list(beta) if beta is not None else [1] * n
    rows = []
    ratios = []
    ok = True
    for row in census_rows(p, alpha, beta, k, i_max):
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
    final_small = ratios[-1] < 1e-3 if ratios else False
    ok &= decreasing and final_small
    rows.append({"strictly_decreasing": decreasing, "final_below_1e-3": final_small})
    return Section("counting-bound", "pass" if ok else "fail", rows)


def section_density_gap(p: int = 2, s: int = 1, i_max: int = 4) -> Section:
    rows = []
    try:
        result = density_gap(
            lambda level: enum_A(p, level), TruncSeries.zero(p, max(2, p**s)), s, i_max
        )
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


def section_mu_kappa(
    p: int = 2, prec: int = 128, trials: int = 100, seed: int = DEFAULT_SEED
) -> Section:
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
    yield "lamplighter(2,2,1) / socle", lamp, lamp.socle_indices(0)
    z4 = cyclic_group(2, 2)
    yield "Z/4 / 2Z/4", z4, z4.subgroup_closure([2])
    g3 = elementary_abelian(3, 2)
    yield "(Z/3)^2 / diagonal", g3, g3.subgroup_closure([g3.mul(1, 3)])
    dl1 = build_lamplighter(2, 1, 2)
    yield "DL(1) / socle coordinate", dl1, dl1.socle_indices(0)
    z9 = cyclic_group(3, 2)
    yield "Z/9 / 3Z/9", z9, z9.subgroup_closure([3])


def section_five_term() -> Section:
    rows = []
    ok = True
    for name, group, subgroup in _five_term_pairs():
        report = five_term_check(group, subgroup)
        ok &= report.equal
        rows.append(
            {
                "pair": name,
                "cokernel_dim": report.cokernel_dim,
                "hopf_dim": report.hopf_dim,
                "equal": report.equal,
            }
        )
    return Section("five-term", "pass" if ok else "fail", rows)


def tower_row(row: TowerRow) -> dict:
    """One tower level as a report row."""
    return {
        "i": row.level,
        "order": row.order,
        "h2_dim": row.h2_dim,
        "coinv_dim": row.coinvariant_dim,
        "tensor_gr_dim": row.tensor_gr_dim,
        "lower_bound": row.h2_lower_bound,
        "collapse_ok": row.collapse_ok,
        "inequality_ok": row.inequality_ok,
    }


def section_tower(p: int = 2, i_max: int = 2) -> Section:
    report = tower_report(p, i_max)
    rows = [tower_row(row) for row in report.rows]
    ok = report.passed
    if p == 2 and report.rows:
        expected_first = report.rows[0].h2_dim == 6
        ok &= expected_first
        rows.append({"dl1_h2_is_6": expected_first})
    if not report.complete:
        rows.append({"stopped": report.stopped_reason})
    return Section("tower", "pass" if ok else "fail", rows)


_RUNNERS = {
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


def run_report(
    sections=None, seed: int = DEFAULT_SEED, with_timings: bool = False
) -> ReportDocument:
    """Run the named sections (all of them by default) in canonical order."""
    chosen = list(sections) if sections else list(SECTION_ORDER)
    unknown = [s for s in chosen if s not in _RUNNERS]
    if unknown:
        raise UsageError(f"unknown report sections: {', '.join(unknown)}")
    config = {
        "seed": seed,
        "max_group": max_group_order(),
        "max_bar": max_bar_order(),
        "sections": ",".join(chosen),
    }
    doc = ReportDocument(config=config)
    for name in SECTION_ORDER:
        if name not in chosen:
            continue
        runner = _RUNNERS[name]
        start = time.perf_counter()
        if name in ("tau-soundness", "mu-kappa"):
            section = runner(seed=seed)
        else:
            section = runner()
        if with_timings:
            section.timing_s = time.perf_counter() - start
        doc.sections.append(section)
    return doc
