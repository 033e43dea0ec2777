"""Command-line surface: outputs, JSON schema, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from procyclic.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_frobenius(capsys):
    code, out, _ = run_cli(capsys, "verify-frobenius", "--p", "2", "--imax", "6", "--prec", "128")
    assert code == 0
    assert "pass" in out


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


BAD_INPUTS = {
    "max-bar-not-int": ({"PROCYCLIC_MAX_BAR": "abc"}, None, ["h2"]),
    "max-group-not-int": ({"PROCYCLIC_MAX_GROUP": "1.5"}, None, ["h2"]),
    "max-group-above-uint16": ({"PROCYCLIC_MAX_GROUP": "65537"}, None, ["h2"]),
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
    "tau-alpha-not-int": ({}, None, ["tau", "--p", "2", "--alpha", "x", "--prec", "8"]),
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
    "frobenius-prec-zero": ({}, None, ["verify-frobenius", "--p", "2", "--prec", "0"]),
    "antipode-trials-zero": ({}, None, ["antipode-check", "--p", "2", "--trials", "0"]),
    "antipode-trials-negative": ({}, None, ["antipode-check", "--p", "2", "--trials", "-3"]),
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


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["tau", "--p", "2", "--alpha", "1", "--prec", "4", "--bogus"])
    assert info.value.code == 2


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


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
    proc = subprocess.run(
        [sys.executable, "-m", "procyclic.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "procyclic" in proc.stdout
