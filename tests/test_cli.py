"""Command-line surface: outputs, JSON schema, exit codes, determinism."""

import importlib
import json
import os
import subprocess
import sys
import time

import pytest

import procyclic
from procyclic.cli import build_parser, main
from procyclic.reporting import ReportDocument, Section


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_frobenius(capsys):
    code, out, _ = run_cli(capsys, "verify-frobenius", "--p", "2", "--imax", "6", "--prec", "128")
    assert code == 0
    assert "pass" in out


def test_verify_frobenius_at_a_large_prime(capsys):
    code, out, _ = run_cli(capsys, "verify-frobenius", "--p", "65521", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows == [{"exact": True, "i": i, "p": 65521} for i in range(1, 11)]


def test_verify_frobenius_huge_imax_exits_3_with_one_line(capsys):
    # each level builds p**i, so an unbounded --imax would run for hours
    started = time.perf_counter()
    argv = ["verify-frobenius", "--p", "2", "--prec", "4", "--imax", str(10**14)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "resource limit: frobenius levels 100000000000000 > 40\n"
    assert time.perf_counter() - started < 1.0


def test_tau_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "tau", "--p", "2", "--alpha", "-1", "--prec", "8")
    assert code == 0
    assert out.splitlines()[0] == "1 + x + x^2 + x^3 + x^4 + x^5 + x^6 + x^7"
    assert json.loads(out.splitlines()[1]) == [1] * 8

    code, out, _ = run_cli(capsys, "tau", "--p", "2", "--alpha", "-1", "--prec", "8", "--json")
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["coefficients"] == [1] * 8


def test_tau_digit_list_input(capsys):
    # digits 1,1,1 represent 1 + p + p^2
    code, out, _ = run_cli(capsys, "tau", "--p", "3", "--alpha", "1,1,1", "--prec", "27", "--json")
    assert code == 0
    doc = json.loads(out)
    code2, out2, _ = run_cli(capsys, "tau", "--p", "3", "--alpha", "13", "--prec", "27", "--json")
    assert doc["coefficients"] == json.loads(out2)["coefficients"]


def test_antipode_check(capsys):
    code, out, _ = run_cli(capsys, "antipode-check", "--p", "2", "--imax", "3", "--trials", "5", "--prec", "16")
    assert code == 0
    assert "pass" in out


def test_coinv_json(capsys):
    code, out, _ = run_cli(capsys, "coinv", "--p", "2", "--i", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["coinv_dim"] == 3 and doc["tensor_gr_dim"] == 3
    assert doc["antipode_bijective"] is True


def test_census_table(capsys):
    code, out, _ = run_cli(capsys, "census", "--p", "2", "--n", "1", "--k", "1", "--imax", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    sizes = [row["size"] for row in doc["rows"]]
    assert sizes == [2, 4, 8]
    assert all(row["within_bound"] for row in doc["rows"])


def test_census_usage_error(capsys):
    code, _, err = run_cli(capsys, "census", "--p", "2", "--n", "1", "--k", "2", "--imax", "1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    (
        ["census", "--p", "2", "--n", "2", "--k", "6", "--imax", "6"],
        ["census", "--p", "2", "--n", "3", "--k", "1", "--imax", "8", "--json"],
    ),
)
def test_census_over_budget_exits_3_before_any_work(argv, capsys, monkeypatch):
    import procyclic.census

    def no_work(*args):
        raise AssertionError("the ratio set was started")

    monkeypatch.setattr(procyclic.census, "_ratio_scan", no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit: census ratio set at p=2")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "imax,work",
    (("2300", "3^9200"), ("10000000", "3^40000000"), ("9", "150094635296999121")),
)
def test_census_huge_level_exits_3_with_one_line(imax, work, capsys):
    # the budget compares exponents, so no power of p is formed
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "census", "--p", "3", "--n", "1", "--k", "1", "--imax", imax)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == (
        f"resource limit: census ratio set at p=3, n=1, i={imax} needs p^(2i(n+1)) = {work} "
        "steps > 4294967296\n"
    )


def test_census_huge_n_exits_3_with_one_line(capsys):
    # the budget is checked before a list of n coefficients is formed
    n = "100000000000000000000"
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "census", "--p", "2", "--n", n, "--k", "1", "--imax", "1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == (
        f"resource limit: census ratio set at p=2, n={n}, i=1 needs p^(2i(n+1)) = "
        "2^200000000000000000002 steps > 4294967296\n"
    )


def test_antipode_check_huge_prec_exits_3_with_one_line(capsys):
    prec = str(10**2200)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "antipode-check", "--p", "3", "--prec", prec)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == f"resource limit: series precision {prec} > 65536\n"


@pytest.mark.parametrize(
    "argv",
    (
        ["density-gap", "--p", "65521", "--s", "0", "--imax", "1"],
        ["density-gap", "--p", "2", "--s", "15", "--imax", "1", "--json"],
    ),
)
def test_enum_A_over_budget_exits_3_before_any_work(argv, capsys, monkeypatch):
    import procyclic.census

    def no_work(*args):
        raise AssertionError("the powers of 1 - x were started")

    monkeypatch.setattr(procyclic.census, "_power_blocks", no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith(f"resource limit: census at p={argv[2]}, level ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,message",
    (
        (
            ["--p", "65521", "--s", "0"],
            "census at p=65521, level 1 holds 65521 words of 65521 digits, "
            "68688023056 bits > 268435456",
        ),
        (
            ["--p", "2", "--s", "15", "--json"],
            "census at p=2, level 16 holds 65536 words of 65536 digits, 4294967296 bits > 268435456",
        ),
        (
            ["--p", "2", "--s", "30"],
            "census at p=2, level 31 holds 2147483648 words of 2147483648 digits, "
            "4611686018427387904 bits > 268435456",
        ),
        (
            ["--p", "2", "--s", "20000"],
            "census at p=2, level 20001 holds 2^20001 words of 2^20001 digits, over 268435456 bits",
        ),
        (
            ["--p", "3", "--s", "20000", "--f", "1 + x", "--json"],
            "census at p=3, level 20001 holds 3^20001 words of 3^20001 digits, over 268435456 bits",
        ),
    ),
)
def test_density_gap_level_over_budget_exits_3_before_the_center_is_built(
    argv, message, capsys, monkeypatch
):
    import procyclic.cli

    def no_series(*args):
        raise AssertionError("a series of size p**s was built")

    monkeypatch.setattr(procyclic.cli, "parse_series", no_series)
    monkeypatch.setattr(procyclic.cli.TruncSeries, "zero", no_series)
    code, out, err = run_cli(capsys, "density-gap", *argv, "--imax", "1")
    assert code == 3
    assert out == ""
    assert err == f"resource limit: {message}\n"


def test_density_gap_usage_errors_come_before_the_budget(capsys):
    for argv, message in (
        (["--s", "-1"], "s must be >= 0"),
        (["--s", "20000", "--imax", "0"], "imax must be >= 1"),
    ):
        code, out, err = run_cli(capsys, "density-gap", "--p", "2", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_density_gap(capsys):
    code, out, _ = run_cli(capsys, "density-gap", "--p", "2", "--s", "1", "--imax", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["level"] <= 5


def test_h2_named_groups(capsys):
    code, out, _ = run_cli(capsys, "h2", "--group", "elab", "--p", "2", "--i", "3", "--json")
    assert code == 0
    assert json.loads(out)["h2_dim"] == 6
    code, out, _ = run_cli(capsys, "h2", "--group", "cyclic", "--p", "2", "--i", "2", "--json")
    assert json.loads(out)["h2_dim"] == 1


def test_h2_group_file_roundtrip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "h2", "--group", "elab", "--p", "2", "--i", "2", "--json")
    group_doc = json.loads(out)["group"]
    path = tmp_path / "group.json"
    path.write_text(json.dumps(group_doc))
    code, out, _ = run_cli(capsys, "h2", "--group-file", str(path), "--json")
    assert code == 0
    assert json.loads(out)["h2_dim"] == 3


def test_h2_resource_exit_code(capsys):
    code, _, err = run_cli(capsys, "h2", "--group", "cyclic", "--p", "2", "--i", "7")
    assert code == 3
    assert "resource" in err


def test_h2_huge_exponent_exits_3_with_one_line(capsys, monkeypatch):
    monkeypatch.delenv("PROCYCLIC_MAX_GROUP", raising=False)
    code, out, err = run_cli(capsys, "h2", "--group", "cyclic", "--p", "2", "--i", "20000")
    assert (code, out) == (3, "")
    assert err == (
        "resource limit: order 2^20000 exceeds budget 4096 "
        "(set PROCYCLIC_MAX_GROUP to raise it)\n"
    )


@pytest.mark.parametrize(
    "argv, builder",
    [
        (["h2", "--group", "elab", "--p", "2", "--i", "12"], "elementary_abelian"),
        (["h2", "--group", "cyclic", "--p", "2", "--i", "12"], "cyclic_group"),
        (["h2", "--group", "dl", "--p", "2", "--i", "4"], "build_lamplighter"),
        (["h2", "--group", "lamp", "--p", "2", "--i", "4"], "build_lamplighter"),
    ],
)
def test_h2_refuses_before_building_the_table(capsys, monkeypatch, argv, builder):
    monkeypatch.delenv("PROCYCLIC_MAX_BAR", raising=False)
    monkeypatch.delenv("PROCYCLIC_MAX_GROUP", raising=False)

    def no_build(*args, **kwargs):
        raise AssertionError("a refused group was built")

    monkeypatch.setattr(procyclic.homology, builder, no_build)
    code, out, err = run_cli(capsys, *argv)
    order = {"elab": 2**12, "cyclic": 2**12, "dl": 2**12, "lamp": 2**8}[argv[2]]
    assert (code, out) == (3, "")
    assert err == (
        f"resource limit: bar resolution needs |G| <= 64, got {order} "
        "(set PROCYCLIC_MAX_BAR to raise the budget)\n"
    )


def test_tower_refuses_a_level_before_building_it(capsys, monkeypatch):
    monkeypatch.delenv("PROCYCLIC_MAX_BAR", raising=False)
    build = procyclic.homology.build_lamplighter

    def build_below_budget(p, i, copies=2):
        if p ** (3 * i) > 64:
            raise AssertionError(f"level {i} was built past the budget")
        return build(p, i, copies)

    monkeypatch.setattr(procyclic.homology, "build_lamplighter", build_below_budget)
    code, out, _ = run_cli(capsys, "tower", "--p", "2", "--imax", "3")
    assert code == 3
    assert out.endswith(
        "stopped: bar resolution needs |G| <= 64, got 512 "
        "(set PROCYCLIC_MAX_BAR to raise the budget)\n"
    )


def test_tower(capsys):
    code, out, _ = run_cli(capsys, "tower", "--p", "2", "--imax", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["h2_dim"] == 6
    assert doc["complete"] is True


def test_tower_stops_at_h2_budget(capsys, monkeypatch):
    monkeypatch.delenv("PROCYCLIC_MAX_BAR", raising=False)
    code, out, _ = run_cli(capsys, "tower", "--p", "2", "--imax", "3")
    assert code == 3
    assert out == (
        "double lamplighter tower p=2 up to level 3\n"
        "  i  order   h2  coinv  tensor  bound ok\n"
        "  1      8    6      1       1      3 True\n"
        "  2     64    9      2       2      8 True\n"
        "stopped: bar resolution needs |G| <= 64, got 512 "
        "(set PROCYCLIC_MAX_BAR to raise the budget)\n"
    )


def test_tau_digit_list_keeps_one_trailing_comma(capsys):
    # "1," is the only way to write a one-digit list
    assert run_cli(capsys, "tau", "--p", "2", "--alpha=1,", "--prec", "2") == (
        0,
        "1 + x\n[1, 1]\n",
        "",
    )


def test_report_tower_stopped_by_budget_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("PROCYCLIC_MAX_BAR", "8")
    code, out, err = run_cli(capsys, "report", "--section", "tower")
    assert (code, err) == (3, "")
    assert "[STOP] tower" in out
    code, out, _ = run_cli(capsys, "report", "--section", "tower", "--json")
    assert code == 3
    assert json.loads(out)["sections"][0]["status"] == "stopped"


def test_report_status_ranks_fail_over_stopped():
    doc = ReportDocument(config={}, sections=[Section("a", "stopped"), Section("b", "fail")])
    assert doc.status == "fail"
    doc.sections.pop()
    assert doc.status == "stopped"


BAD_INPUTS = {
    "max-bar-not-int": ({"PROCYCLIC_MAX_BAR": "abc"}, None, ["h2"]),
    "max-group-not-int": ({"PROCYCLIC_MAX_GROUP": "1.5"}, None, ["h2"]),
    "max-group-above-uint16": ({"PROCYCLIC_MAX_GROUP": "65537"}, None, ["h2"]),
    "max-group-zero": ({"PROCYCLIC_MAX_GROUP": "0"}, None, ["h2"]),
    "max-bar-negative": ({"PROCYCLIC_MAX_BAR": "-5"}, None, ["h2"]),
    "group-file-missing": ({}, None, ["h2", "--group-file", "{dir}/absent.json"]),
    "group-file-malformed": ({}, "{not json", ["h2", "--group-file", "{file}"]),
    "group-file-no-table": (
        {},
        '{"prime": 2, "order": 2}',
        ["h2", "--group-file", "{file}"],
    ),
    "group-file-order-zero": (
        {},
        '{"prime": 2, "order": 0, "table": []}',
        ["h2", "--group-file", "{file}"],
    ),
    # a loop of order 5: two-sided identity 0, every element its own inverse
    "group-file-not-associative": (
        {},
        '{"prime": 5, "order": 5, "table": '
        "[0, 1, 2, 3, 4, 1, 0, 3, 4, 2, 2, 4, 0, 1, 3, 3, 2, 4, 0, 1, 4, 3, 1, 2, 0]}",
        ["h2", "--group-file", "{file}"],
    ),
    # a truncating or coercing reader would answer these with a dimension
    "group-file-fractional-entry": (
        {},
        '{"prime": 2, "order": 2, "table": [0, 1.5, 1, 0]}',
        ["h2", "--group-file", "{file}"],
    ),
    "group-file-fractional-order": (
        {},
        '{"prime": 2, "order": 2.9, "table": [0, 1, 1, 0]}',
        ["h2", "--group-file", "{file}"],
    ),
    "group-file-string-prime": (
        {},
        '{"prime": "2", "order": 2, "table": [0, 1, 1, 0]}',
        ["h2", "--group-file", "{file}"],
    ),
    "group-file-bool-entries": (
        {},
        '{"prime": 2, "order": 2, "table": [false, true, true, false]}',
        ["h2", "--group-file", "{file}"],
    ),
    "group-file-entry-above-uint16": (
        {},
        '{"prime": 2, "order": 2, "table": [0, 1, 1, 65537]}',
        ["h2", "--group-file", "{file}"],
    ),
    "group-file-generator-names-not-list": (
        {},
        '{"prime": 2, "order": 2, "table": [0, 1, 1, 0], "generator_names": 5}',
        ["h2", "--group-file", "{file}"],
    ),
    # a string would otherwise become one name per character
    "group-file-generator-names-string": (
        {},
        '{"prime": 2, "order": 2, "table": [0, 1, 1, 0], "generator_names": "ab"}',
        ["h2", "--group-file", "{file}"],
    ),
    "density-gap-f-bool": ({}, None, ["density-gap", "--p", "2", "--f", "[true, 1]"]),
    "tau-alpha-not-int": ({}, None, ["tau", "--p", "2", "--alpha", "x", "--prec", "8"]),
    "tau-alpha-empty-digit": ({}, None, ["tau", "--p", "3", "--alpha=1,,2", "--prec", "9"]),
    "tau-alpha-empty-first-digit": ({}, None, ["tau", "--p", "3", "--alpha=,1,2", "--prec", "9"]),
    "frobenius-imax-zero": ({}, None, ["verify-frobenius", "--p", "2", "--imax", "0"]),
    "out-unwritable": (
        {},
        None,
        ["tau", "--p", "2", "--alpha", "1", "--prec", "4", "--out", "{dir}/absent/out"],
    ),
    "census-alpha-not-int": (
        {},
        None,
        ["census", "--p", "2", "--n", "1", "--k", "1", "--imax", "1", "--alpha", "y"],
    ),
    "density-gap-f-malformed-json": ({}, None, ["density-gap", "--p", "2", "--f", "[1,"]),
    # nested past the JSON decoder's recursion limit
    "density-gap-f-deep-json": (
        {},
        None,
        ["density-gap", "--p", "2", "--f", "[" * 5000 + "]" * 5000],
    ),
    "density-gap-f-integer-of-5000-digits": (
        {},
        None,
        ["density-gap", "--p", "2", "--f", "[" + "9" * 5000 + "]"],
    ),
    "frobenius-prec-zero": ({}, None, ["verify-frobenius", "--p", "2", "--prec", "0"]),
    "antipode-trials-zero": ({}, None, ["antipode-check", "--p", "2", "--trials", "0"]),
    "antipode-trials-negative": ({}, None, ["antipode-check", "--p", "2", "--trials", "-3"]),
    "antipode-imax-zero": ({}, None, ["antipode-check", "--p", "2", "--imax", "0"]),
    "antipode-imax-negative": ({}, None, ["antipode-check", "--p", "3", "--imax", "-1"]),
    "tau-digit-above-p": ({}, None, ["tau", "--p", "2", "--alpha", "1,2,3", "--prec", "8"]),
    "tau-digit-equal-p": ({}, None, ["tau", "--p", "3", "--alpha", "0,3,0", "--prec", "9"]),
    "tau-digit-negative": ({}, None, ["tau", "--p", "3", "--alpha=-1,0,0", "--prec", "9"]),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_usage_error(case, capsys, monkeypatch, tmp_path):
    env, content, argv = BAD_INPUTS[case]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    path = tmp_path / "group.json"
    if content is not None:
        path.write_text(content)
    argv = [a.format(dir=tmp_path, file=path) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


MALFORMED_GROUP_FILES = {
    "not-json": b"not json",
    "truncated": b'{"prime": 2, "order": 2, "table": [0, 1,',
    "nested-100000-deep": b"[" * 100_000 + b"]" * 100_000,
    "no-table": b'{"prime": 2, "order": 2}',
    "float-table": b'{"prime": 2, "order": 2, "table": [0.0, 1.0, 1.0, 0.0]}',
    # past the interpreter's 4,300-digit limit on int parsing
    "integer-of-5000-digits": b'{"prime": 2, "order": ' + b"9" * 5000 + b', "table": [0]}',
    "not-utf-8": b'{"prime": 2, "order": 2, "table": [0, 1, 1, 0], "name": "\xff"}',
}


@pytest.mark.parametrize("name", sorted(MALFORMED_GROUP_FILES))
def test_malformed_group_file_is_usage_error(name, capsys, tmp_path):
    # main raising instead of returning 2 would be a traceback
    path = tmp_path / f"{name}.json"
    path.write_bytes(MALFORMED_GROUP_FILES[name])
    code, out, err = run_cli(capsys, "h2", "--group-file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_tower_rows_are_one_vocabulary(capsys):
    # the CLI emits tower_report's rows as they are, and the report's tower
    # section is the same rows without the CLI-only elab_h2 column
    rows = list(procyclic.tower_report(2, 2).rows)
    code, out, _ = run_cli(capsys, "tower", "--p", "2", "--imax", "2", "--json")
    assert code == 0
    assert json.loads(out)["rows"] == rows
    code, out, _ = run_cli(capsys, "report", "--section", "tower", "--json")
    assert code == 0
    section_rows = json.loads(out)["sections"][0]["rows"]
    assert section_rows[: len(rows)] == [
        {k: v for k, v in row.items() if k != "elab_h2"} for row in rows
    ]


# (argv, budget constant lowered for the test, largest accepted value of the
# budgeted argument): one past that value must exit 3 before the stubbed work
BUDGETS = {
    "coinv-i": (["coinv", "--p", "3", "--i", "{n}"], ("cycmod", "MAX_MODULE_DIM", 3), 3),
    "antipode-imax": (
        ["antipode-check", "--p", "2", "--prec", "4", "--trials", "1", "--imax", "{n}"],
        ("cycmod", "MAX_MODULE_DIM", 3),
        3,
    ),
    "antipode-prec": (
        ["antipode-check", "--p", "3", "--imax", "1", "--trials", "2", "--prec", "{n}"],
        ("reporting", "MAX_SIGMA_WORK", 2 * 8 * 8),
        8,
    ),
    "antipode-trials": (
        ["antipode-check", "--p", "3", "--imax", "1", "--prec", "4", "--trials", "{n}"],
        ("reporting", "MAX_SIGMA_WORK", 2 * 8 * 8),
        8,
    ),
    "frobenius-imax": (
        ["verify-frobenius", "--p", "3", "--prec", "4", "--imax", "{n}"],
        ("cli", "MAX_FROBENIUS_LEVELS", 3),
        3,
    ),
    "tau-prec": (["tau", "--p", "2", "--alpha", "-1", "--prec", "{n}"], ("cli", "MAX_PREC", 16), 16),
    "frobenius-prec": (
        ["verify-frobenius", "--p", "3", "--imax", "2", "--prec", "{n}"],
        ("cli", "MAX_PREC", 16),
        16,
    ),
}
# the work each budget guards; a refusal must come before any of it
GUARDED = [
    ("cycmod", "FpCModule"),
    ("reporting", "sigma"),
    ("cli", "tau"),
    ("cli", "section_frobenius"),
]


@pytest.mark.parametrize("case", sorted(BUDGETS))
def test_budget_refuses_before_any_work(case, capsys, monkeypatch):
    argv, (module, name, value), largest = BUDGETS[case]
    monkeypatch.setattr(importlib.import_module(f"procyclic.{module}"), name, value)
    code, _, err = run_cli(capsys, *[a.format(n=largest) for a in argv])
    assert (code, err) == (0, "")

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the budget check")

    for guarded_module, guarded in GUARDED:
        monkeypatch.setattr(importlib.import_module(f"procyclic.{guarded_module}"), guarded, no_work)
    code, out, err = run_cli(capsys, *[a.format(n=largest + 1) for a in argv])
    assert (code, out) == (3, "")
    assert err.startswith("resource limit: ")


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["tau", "--p", "2", "--alpha", "1", "--prec", "4", "--bogus"])
    assert info.value.code == 2


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_report_all_is_an_unknown_flag(capsys):
    # every section runs by default; there is no --all to ask for it
    with pytest.raises(SystemExit) as info:
        main(["report", "--all"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: procyclic")
    assert "unrecognized arguments: --all" in err
    assert "Traceback" not in err


def test_report_sections_deterministic(capsys):
    args = ["report", "--section", "mu-kappa", "--section", "density-gap", "--json"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema_version"] == 1
    assert [s["name"] for s in doc["sections"]] == ["density-gap", "mu-kappa"]
    assert all(s["status"] == "pass" for s in doc["sections"])


def test_report_config_names_the_sections_that_ran(capsys):
    # another order, or a repeat, of the same sections gives the same bytes
    runs = [
        ["--section", "mu-kappa", "--section", "density-gap"],
        ["--section", "density-gap", "--section", "mu-kappa", "--section", "density-gap"],
    ]
    outs = []
    for sections in runs:
        code, out, _ = run_cli(capsys, "report", *sections, "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["config"]["sections"] == "density-gap,mu-kappa"


def test_report_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "report", "--section", "mu-kappa", "--json", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["sections"][0]["name"] == "mu-kappa"


def test_entry_point_subprocess():
    # the child imports the procyclic this process imported, installed or not
    env = dict(os.environ)
    package_parent = os.path.dirname(os.path.dirname(procyclic.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "procyclic.cli", "--version"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "procyclic" in proc.stdout


def test_shared_parser_starts_every_parse_afresh():
    # main builds the parser once; an appended option must not carry over
    parser = build_parser()
    assert build_parser() is parser
    for _ in range(2):
        args = parser.parse_args(["report", "--section", "tower"])
        assert args.section == ["tower"]
    assert parser.parse_args(["report"]).section is None
