"""Command-line front end.

Subcommands cover each verification family plus a full-suite `report`.
Exit codes: 0 when every executed check passed, 1 when a check failed,
2 for usage errors, 3 when a size budget was exceeded.

Exponent arguments accept either a decimal integer of any size and sign
or an explicit little-endian digit list such as ``1,0,2``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .census import density_gap, enum_A
from .cycmod import antipode_iso_check, regular_antipode, regular_module
from .errors import ResourceLimitError, SearchExhaustedError, UsageError
from .fpx import TruncSeries, parse_series, render_series
from .groups import FiniteGroup, build_lamplighter, cyclic_group, elementary_abelian
from .homology import minres_h2, tower_report
from .padic import PadicInt
from .reporting import (
    DEFAULT_SEED,
    SECTION_ORDER,
    census_rows,
    json_header,
    run_report,
    section_antipode_bijection,
    section_frobenius,
    tower_row,
)
from .taumap import min_digit_precision, sigma, tau

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{text!r} is not an integer") from None


def _parse_exponent(text: str, p: int, min_prec: int) -> PadicInt:
    text = text.strip()
    if "," in text:
        digits = [_parse_int(part) for part in text.split(",") if part.strip() != ""]
        if len(digits) < min_prec:
            raise UsageError(
                f"digit list has {len(digits)} digits; precision {min_prec} needed"
            )
        return PadicInt(p, digits)
    return PadicInt.from_int(_parse_int(text), p, max(min_prec, 1))


def _emit(doc: dict, text: str, args) -> None:
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n" if args.json else text
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(payload)


def _wrap(command: str, body: dict) -> dict:
    return {**json_header(), "command": command, **body}


# -- subcommand implementations -------------------------------------------


def _cmd_verify_frobenius(args) -> int:
    if args.imax < 1:
        raise UsageError("imax must be >= 1, or no identity is checked")
    section = section_frobenius(primes=(args.p,), i_max=args.imax, prec=args.prec)
    lines = [
        f"frobenius p={args.p} imax={args.imax} prec={args.prec}: {section.status}"
    ]
    for row in section.rows:
        lines.append(f"  i={row['i']}: exact={row['exact']}")
    _emit(_wrap("verify-frobenius", section.to_json_dict()), "\n".join(lines) + "\n", args)
    return EXIT_OK if section.status == "pass" else EXIT_CHECK_FAILED


def _cmd_tau(args) -> int:
    needed = min_digit_precision(args.p, args.prec)
    alpha = _parse_exponent(args.alpha, args.p, needed)
    series = tau(alpha, args.prec)
    doc = _wrap(
        "tau",
        {
            "p": args.p,
            "alpha": args.alpha,
            "prec": args.prec,
            "series": render_series(series),
            "coefficients": [int(c) for c in series.coeffs],
        },
    )
    text = f"{render_series(series)}\n{series.to_json()}\n"
    _emit(doc, text, args)
    return EXIT_OK


def _cmd_antipode_check(args) -> int:
    import random

    if args.trials < 1:
        raise UsageError("trials must be >= 1, or no series identity is checked")
    rng = random.Random(args.seed)
    p, prec = args.p, args.prec
    ok = True
    rows = []
    inv_ok = hom_ok = 0
    for _ in range(args.trials):
        f = TruncSeries(p, [rng.randrange(p) for _ in range(prec)], prec)
        g = TruncSeries(p, [rng.randrange(p) for _ in range(prec)], prec)
        if sigma(sigma(f)) == f:
            inv_ok += 1
        if sigma(f * g) == sigma(f) * sigma(g) and sigma(f + g) == sigma(f) + sigma(g):
            hom_ok += 1
    unit = sigma(TruncSeries.one_minus_x(p, prec)) * TruncSeries.one_minus_x(p, prec)
    unit_ok = unit == TruncSeries.one(p, prec)
    ok &= inv_ok == args.trials and hom_ok == args.trials and unit_ok
    rows.append(
        {
            "involution": f"{inv_ok}/{args.trials}",
            "ring_hom": f"{hom_ok}/{args.trials}",
            "sigma(1-x)*(1-x)=1": unit_ok,
        }
    )
    module_section = section_antipode_bijection(primes=(p,), i_max=args.imax)
    ok &= module_section.status == "pass"
    doc = _wrap(
        "antipode-check",
        {
            "p": p,
            "prec": prec,
            "series_checks": rows,
            "module_checks": module_section.to_json_dict(),
        },
    )
    lines = [f"antipode checks p={p} prec={prec}: {'pass' if ok else 'fail'}"]
    for row in rows:
        lines.append("  " + ", ".join(f"{k}={v}" for k, v in row.items()))
    for row in module_section.rows:
        lines.append("  " + ", ".join(f"{k}={v}" for k, v in row.items()))
    _emit(doc, "\n".join(lines) + "\n", args)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_coinv(args) -> int:
    check = antipode_iso_check(
        regular_module(args.p, args.i), regular_antipode(args.p, args.i)
    )
    coinv_dim, tensor_dim = check.coinvariant_dim, check.tensor_dim
    doc = _wrap(
        "coinv",
        {
            "p": args.p,
            "i": args.i,
            "coinv_dim": coinv_dim,
            "tensor_gr_dim": tensor_dim,
            "antipode_bijective": check.bijective,
        },
    )
    text = (
        f"p={args.p} i={args.i}: coinv_dim={coinv_dim} "
        f"tensor_gr_dim={tensor_dim} antipode_bijective={check.bijective}\n"
    )
    _emit(doc, text, args)
    ok = coinv_dim == tensor_dim == args.i and check.bijective
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_census(args) -> int:
    alpha = [_parse_int(v) for v in args.alpha.split(",")] if args.alpha else [1] * args.n
    beta = [_parse_int(v) for v in args.beta.split(",")] if args.beta else [1] * args.n
    if len(alpha) != args.n or len(beta) != args.n:
        raise UsageError("alpha and beta must have exactly n entries")
    if args.imax < args.k:
        raise UsageError(f"imax = {args.imax} must be at least k = {args.k}")
    rows = census_rows(args.p, alpha, beta, args.k, args.imax)
    doc = _wrap(
        "census",
        {
            "p": args.p,
            "n": args.n,
            "k": args.k,
            "alpha": alpha,
            "beta": beta,
            "rows": rows,
        },
    )
    lines = [f"census p={args.p} n={args.n} k={args.k} alpha={alpha} beta={beta}"]
    lines.append(f"{'level':>5} {'size':>8} {'bound':>12} {'ambient':>12} ratio")
    for row in rows:
        lines.append(
            f"{row['level']:>5} {row['size']:>8} {row['bound']:>12} "
            f"{row['ambient']:>12} {row['ratio']:.6g}"
        )
    _emit(doc, "\n".join(lines) + "\n", args)
    ok = all(row["within_bound"] for row in rows)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_density_gap(args) -> int:
    f = (
        parse_series(args.f, args.p, args.p**args.s)
        if args.f
        else TruncSeries.zero(args.p, max(2, args.p**args.s))
    )
    try:
        result = density_gap(lambda level: enum_A(args.p, level), f, args.s, args.imax)
    except SearchExhaustedError as exc:
        doc = _wrap(
            "density-gap",
            {"found": False, "log": [list(c) for c in exc.counts]},
        )
        lines = ["no gap found"]
        for level, size, cosets in exc.counts:
            lines.append(f"  level {level}: census={size} cosets={cosets}")
        _emit(doc, "\n".join(lines) + "\n", args)
        return EXIT_CHECK_FAILED
    doc = _wrap(
        "density-gap",
        {
            "found": True,
            "witness": render_series(result.witness),
            "witness_coefficients": [int(c) for c in result.witness.coeffs],
            "level": result.level,
            "scanned": result.scanned,
            "log": [list(c) for c in result.log],
        },
    )
    lines = [
        f"gap at level {result.level}: ball {render_series(result.witness)} + "
        f"(x^{args.p ** result.level}) misses the census (verified)"
    ]
    for level, size, cosets in result.log:
        lines.append(f"  level {level}: census={size} cosets={cosets}")
    lines.append(f"  scanned {result.scanned} coset representative(s)")
    _emit(doc, "\n".join(lines) + "\n", args)
    return EXIT_OK


def _build_named_group(kind: str, p: int, i: int) -> FiniteGroup:
    if kind == "dl":
        return build_lamplighter(p, i, copies=2)
    if kind == "lamp":
        return build_lamplighter(p, i, copies=1)
    if kind == "elab":
        return elementary_abelian(p, i)
    if kind == "cyclic":
        return cyclic_group(p, i)
    raise UsageError(f"unknown group kind {kind!r}")


def _cmd_h2(args) -> int:
    if args.group_file:
        try:
            with open(args.group_file) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read {args.group_file}: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"{args.group_file} is not JSON: {exc}") from None
        group = FiniteGroup.from_json_dict(data)
        label = args.group_file
    else:
        group = _build_named_group(args.group, args.p, args.i)
        label = f"{args.group}(p={args.p}, i={args.i})"
    dim = minres_h2(group)
    doc = _wrap(
        "h2",
        {
            "group": group.to_json_dict(),
            "label": label,
            "h2_dim": dim,
        },
    )
    _emit(doc, f"H2({label}; F_{group.p}) has dimension {dim} (order {group.order})\n", args)
    return EXIT_OK


def _cmd_tower(args) -> int:
    report = tower_report(args.p, args.imax)
    rows = [{**tower_row(row), "elab_h2": row.elab_h2} for row in report.rows]
    doc = _wrap(
        "tower",
        {
            "p": args.p,
            "imax": args.imax,
            "complete": report.complete,
            "stopped_reason": report.stopped_reason,
            "rows": rows,
        },
    )
    lines = [f"double lamplighter tower p={args.p} up to level {args.imax}"]
    lines.append(
        f"{'i':>3} {'order':>6} {'h2':>4} {'coinv':>6} {'tensor':>7} {'bound':>6} ok"
    )
    for row in rows:
        lines.append(
            f"{row['i']:>3} {row['order']:>6} {row['h2_dim']:>4} {row['coinv_dim']:>6} "
            f"{row['tensor_gr_dim']:>7} {row['lower_bound']:>6} "
            f"{row['collapse_ok'] and row['inequality_ok']}"
        )
    if not report.complete:
        lines.append(f"stopped: {report.stopped_reason}")
    _emit(doc, "\n".join(lines) + "\n", args)
    if not report.complete:
        return EXIT_RESOURCE
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_report(args) -> int:
    sections = None if args.all else (args.section or None)
    doc = run_report(sections=sections, seed=args.seed, with_timings=args.timings)
    _emit(doc.to_json_dict(), doc.render_text(), args)
    return EXIT_OK if doc.passed else EXIT_CHECK_FAILED


# -- argument wiring --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="procyclic",
        description="Verification toolkit for truncated series algebra, census "
        "counting, and lamplighter homology towers.",
    )
    parser.add_argument("--version", action="version", version=f"procyclic {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--json", action="store_true", help="emit JSON instead of text")
        sp.add_argument("--out", metavar="PATH", help="write output to a file")

    sp = sub.add_parser("verify-frobenius", help="check (1-x)^(p^i) = 1 - x^(p^i)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--imax", type=int, default=10)
    sp.add_argument("--prec", type=int, default=4096)
    add_common(sp)
    sp.set_defaults(func=_cmd_verify_frobenius)

    sp = sub.add_parser("tau", help="evaluate (1-x)^alpha at a given precision")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--alpha", required=True, help="decimal integer or digit list d0,d1,...")
    sp.add_argument("--prec", type=int, required=True)
    add_common(sp)
    sp.set_defaults(func=_cmd_tau)

    sp = sub.add_parser("antipode-check", help="verify the antipode involution and module bijection")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--prec", type=int, default=64)
    sp.add_argument("--imax", type=int, default=6)
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_common(sp)
    sp.set_defaults(func=_cmd_antipode_check)

    sp = sub.add_parser("coinv", help="coinvariant and group-ring tensor dimensions")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--i", type=int, required=True)
    add_common(sp)
    sp.set_defaults(func=_cmd_coinv)

    sp = sub.add_parser("census", help="ratio-set census table with counting bounds")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--imax", type=int, required=True)
    sp.add_argument("--alpha", help="comma-separated coefficients (default all ones)")
    sp.add_argument("--beta", help="comma-separated coefficients (default all ones)")
    add_common(sp)
    sp.set_defaults(func=_cmd_census)

    sp = sub.add_parser("density-gap", help="search for a census-free ball")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--s", type=int, default=1)
    sp.add_argument("--imax", type=int, default=4)
    sp.add_argument("--f", help="center series (text or JSON array)")
    add_common(sp)
    sp.set_defaults(func=_cmd_density_gap)

    sp = sub.add_parser("h2", help="H2 of a named or JSON group (minimal resolution)")
    sp.add_argument("--group", choices=("dl", "lamp", "elab", "cyclic"), default="dl")
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--i", type=int, default=1)
    sp.add_argument("--group-file", metavar="PATH", help="JSON multiplication table")
    add_common(sp)
    sp.set_defaults(func=_cmd_h2)

    sp = sub.add_parser("tower", help="double lamplighter tower report")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--imax", type=int, required=True)
    add_common(sp)
    sp.set_defaults(func=_cmd_tower)

    sp = sub.add_parser("report", help="run the full verification suite")
    sp.add_argument(
        "--section",
        action="append",
        choices=SECTION_ORDER,
        help="run only the named section (repeatable)",
    )
    sp.add_argument("--all", action="store_true", help="run every section (default)")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--timings", action="store_true", help="include wall-clock timings")
    add_common(sp)
    sp.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
