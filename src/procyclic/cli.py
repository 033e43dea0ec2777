"""Command-line front end.

Subcommands cover each verification family plus a full-suite `report`.
Each subcommand returns its JSON document, its text and a status; `main`
alone writes the output and maps the status to the exit code: 0 when
every executed check passed, 1 when a check failed, 2 for usage errors,
3 when a size budget was exceeded.

Exponent arguments accept either a decimal integer of any size and sign
or an explicit little-endian digit list such as ``1,0,2``.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import __version__
from .census import check_census_budget, check_enum_budget, density_gap
from .cycmod import check_module_dim
from .errors import ResourceLimitError, SearchExhaustedError, UsageError, load_json
from .fpx import TruncSeries, parse_series, render_series, validate_prime
from .groups import FiniteGroup
from .homology import NAMED_GROUPS, minres_h2, named_group, tower_report
from .padic import PadicInt
from .reporting import (
    DEFAULT_SEED,
    SECTION_ORDER,
    antipode_bijection,
    census_rows,
    format_row,
    json_header,
    run_report,
    section_antipode_bijection,
    section_antipode_series,
    section_frobenius,
)
from .taumap import min_digit_precision, tau

EXIT_USAGE = 2
EXIT_RESOURCE = 3
# exit code of each subcommand status: "stopped" means a size budget cut a run short
STATUS_EXIT = {"pass": 0, "fail": 1, "stopped": EXIT_RESOURCE}

# --prec of tau, verify-frobenius and antipode-check is refused above this
# before any work: one series holds prec int64 coefficients (512 KiB at the
# limit), and a product at the limit took 0.2-0.9 s on one core of 2 CPUs
MAX_PREC = 1 << 16
# verify-frobenius --imax is refused above this before any work.  Levels up
# to log_p(prec) take a p-th power at --prec; later levels take none, since
# the left side is then the series 1.  At --prec 65536, 40 levels took
# 0.07-0.08 s at p = 65519 and 0.05 s at p = 2 (best of 3, one core of 2
# CPUs).
MAX_FROBENIUS_LEVELS = 40


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{text!r} is not an integer") from None


def _check_prec(prec: int) -> None:
    if prec > MAX_PREC:
        raise ResourceLimitError(f"series precision {prec} > {MAX_PREC}")


def _parse_exponent(text: str, p: int, min_prec: int) -> PadicInt:
    text = text.strip()
    if "," in text:
        parts = text.split(",")
        if not parts[-1].strip():
            parts.pop()  # "1," is the one way to write a single digit
        digits = [_parse_int(part) for part in parts]
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


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


def _cmd_verify_frobenius(args):
    if args.imax < 1:
        raise UsageError("imax must be >= 1, or no identity is checked")
    _check_prec(args.prec)
    if args.imax > MAX_FROBENIUS_LEVELS:
        raise ResourceLimitError(f"frobenius levels {args.imax} > {MAX_FROBENIUS_LEVELS}")
    section = section_frobenius(primes=(args.p,), i_max=args.imax, prec=args.prec)
    lines = [
        f"frobenius p={args.p} imax={args.imax} prec={args.prec}: {section.status}"
    ]
    for row in section.rows:
        lines.append(f"  i={row['i']}: exact={row['exact']}")
    doc = _wrap("verify-frobenius", section.to_json_dict())
    return doc, "\n".join(lines) + "\n", section.status


def _cmd_tau(args):
    _check_prec(args.prec)
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
    return doc, f"{render_series(series)}\n{series.to_json()}\n", "pass"


def _cmd_antipode_check(args):
    _check_prec(args.prec)
    p = validate_prime(args.p)
    if args.imax < 1:
        raise UsageError("imax must be >= 1, or no module bijection is checked")
    check_module_dim(args.imax)  # before the series checks run
    series_section = section_antipode_series(p, args.prec, args.trials, args.seed)
    module_section = section_antipode_bijection(primes=(p,), i_max=args.imax)
    ok = series_section.status == module_section.status == "pass"
    doc = _wrap(
        "antipode-check",
        {
            "p": p,
            "prec": args.prec,
            "series_checks": series_section.rows,
            "module_checks": module_section.to_json_dict(),
        },
    )
    lines = [f"antipode checks p={p} prec={args.prec}: {_status(ok)}"]
    lines += ["  " + format_row(row) for row in series_section.rows + module_section.rows]
    return doc, "\n".join(lines) + "\n", _status(ok)


def _cmd_coinv(args):
    check, ok = antipode_bijection(args.p, args.i)
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
    return doc, text, _status(ok)


def _cmd_census(args):
    if args.imax < args.k:
        raise UsageError(f"imax = {args.imax} must be at least k = {args.k}")
    # refuse a huge n before a list of n coefficients is formed
    check_census_budget(args.p, args.n, args.imax)
    alpha = [_parse_int(v) for v in args.alpha.split(",")] if args.alpha else [1] * args.n
    beta = [_parse_int(v) for v in args.beta.split(",")] if args.beta else [1] * args.n
    if len(alpha) != args.n or len(beta) != args.n:
        raise UsageError("alpha and beta must have exactly n entries")
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
    return doc, "\n".join(lines) + "\n", _status(all(row["within_bound"] for row in rows))


def _cmd_density_gap(args):
    p = validate_prime(args.p)
    if args.s < 0:
        raise UsageError("s must be >= 0")
    if args.imax < 1:
        raise UsageError("imax must be >= 1")
    # the first level's census must fit before anything of size p**s is built
    check_enum_budget(p, args.s + 1)
    f = parse_series(args.f, p, p**args.s) if args.f else TruncSeries.zero(p, max(2, p**args.s))
    try:
        result = density_gap(f, args.s, args.imax)
    except SearchExhaustedError as exc:
        doc = _wrap(
            "density-gap",
            {"found": False, "log": [list(c) for c in exc.counts]},
        )
        lines = ["no gap found"]
        for level, size, cosets in exc.counts:
            lines.append(f"  level {level}: census={size} cosets={cosets}")
        return doc, "\n".join(lines) + "\n", "fail"
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
    return doc, "\n".join(lines) + "\n", "pass"


def _cmd_h2(args):
    if args.group_file:
        try:
            with open(args.group_file, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.group_file}: {exc.strerror}") from None
        group = FiniteGroup.from_json_dict(load_json(raw, f"{args.group_file} is not JSON"))
        label = args.group_file
    else:
        group = named_group(args.group, args.p, args.i)
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
    text = f"H2({label}; F_{group.p}) has dimension {dim} (order {group.order})\n"
    return doc, text, "pass"


def _cmd_tower(args):
    report = tower_report(args.p, args.imax)
    doc = _wrap(
        "tower",
        {
            "p": args.p,
            "imax": args.imax,
            "complete": report.complete,
            "stopped_reason": report.stopped_reason,
            "rows": report.rows,
        },
    )
    lines = [f"double lamplighter tower p={args.p} up to level {args.imax}"]
    lines.append(
        f"{'i':>3} {'order':>6} {'h2':>4} {'coinv':>6} {'tensor':>7} {'bound':>6} ok"
    )
    for row in report.rows:
        lines.append(
            f"{row['i']:>3} {row['order']:>6} {row['h2_dim']:>4} {row['coinv_dim']:>6} "
            f"{row['tensor_gr_dim']:>7} {row['lower_bound']:>6} "
            f"{row['collapse_ok'] and row['inequality_ok']}"
        )
    if not report.complete:
        lines.append(f"stopped: {report.stopped_reason}")
    return doc, "\n".join(lines) + "\n", report.status


def _cmd_report(args):
    doc = run_report(sections=args.section, seed=args.seed, with_timings=args.timings)
    # the report document has no "command" key, unlike the subcommands'
    return doc.to_json_dict(), doc.render_text(), doc.status


# -- argument wiring --------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (about 2 ms a build).

    parse_args leaves the parser unchanged, so every main call shares it.
    """
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
    sp.add_argument("--group", choices=tuple(NAMED_GROUPS), default="dl")
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
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--timings", action="store_true", help="include wall-clock timings")
    add_common(sp)
    sp.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, text, status = args.func(args)
        _emit(doc, text, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    return STATUS_EXIT[status]


if __name__ == "__main__":
    sys.exit(main())
