"""Tests for the benchmark's own code.  Run with: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.require_source()

import numpy as np  # noqa: E402

import procyclic  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def mini_items(seed: int) -> list:
    """A small item list that reaches every traced layer."""
    gen = np.random.default_rng(seed)
    series = procyclic.TruncSeries
    items = []
    for p, prec in ((2, 16), (3, 256), (65521, 512)):
        a, b = (series(p, gen.integers(0, p, prec), prec) for _ in range(2))
        items += [("mul", a, b), ("mul", a, series.x(p, prec))]
        items.append(("invert", series(p, np.r_[1, gen.integers(0, p, prec - 1)], prec)))
    items.append(("sigma", series(3, gen.integers(0, 3, 64), 64)))
    a, b = (procyclic.PadicInt(3, gen.integers(0, 3, 6)) for _ in range(2))
    items += [("tau_sum", a, b, 512), ("tau_prod", a, b, 512)]
    items += [("enum_A", 2, 4), ("lamplighter", 2, 1, 1)]
    items.append(("rank", procyclic.FpMatrix(3, gen.integers(0, 3, (24, 24)))))
    for argv in (
        ["report", "--json", "--seed", str(seed), "--section", "five-term",
         "--section", "counting-bound", "--section", "antipode-bijection"],
        ["h2", "--group", "dl", "--p", "2", "--i", "1", "--json"],
        ["density-gap", "--p", "2", "--s", "1", "--imax", "3", "--json"],
    ):
        items.append(("cli", argv))
    return items


def bindings() -> dict:
    """Every attribute of every procyclic module and class, by identity."""
    out = {}
    for name, mod in tracing._modules().items():
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def traced_pass(items):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outputs = workloads.run(items, timings=True)
    finally:
        tracer.uninstall()
    outputs, times = workloads.split_timings(outputs)
    return outputs, tracer.aggregate(), times


def test_wrappers_restore_original_bindings():
    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = bindings()
        assert procyclic.cli.main is not before[("procyclic.cli", "main")]
        assert procyclic.reporting.tau is procyclic.taumap.tau is procyclic.tau
        assert "__wrapped__" in vars(procyclic.TruncSeries.__mul__)
    finally:
        tracer.uninstall()
    after = bindings()
    changed = [key for key in before if during[key] is not before[key]]
    assert len(changed) > 40
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_install_twice_is_refused():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()


def test_traced_and_untraced_outputs_are_identical():
    items = mini_items(7)
    plain = [workloads.fingerprint(out) for out in workloads.run(items)]
    outputs, counts, times = traced_pass(items)
    assert not any(isinstance(out, workloads.Failed) for out in outputs)
    assert [workloads.fingerprint(out) for out in outputs] == plain
    assert set(times) == {"five-term", "counting-bound", "antipode-bijection"}
    spanned = {key[:-6] for key, value in counts.items() if key.endswith(".calls") and value}
    assert set(tracing.SPAN_NAMES) - spanned <= {"homology.tower"}


def test_exact_counts_repeat_for_the_same_seed():
    _, first, _ = traced_pass(mini_items(11))
    _, second, _ = traced_pass(mini_items(11))
    assert {k: first[k] for k in tracing.EXACT_KEYS} == {
        k: second[k] for k in tracing.EXACT_KEYS
    }
    assert first["linfp.acc.rows"] > first["linfp.acc.useful"] > 0


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        procyclic.sigma(procyclic.TruncSeries(2, [1, 1, 0, 1] * 16, 64))
    finally:
        tracer.uninstall()
    agg = tracer.aggregate()
    assert agg["taumap.sigma.calls"] == 1 and agg["fpx.substitute.calls"] == 1
    assert 0 <= agg["taumap.sigma.self_s"] < agg["taumap.sigma.s"]
    inner = agg["fpx.substitute.s"]
    assert agg["taumap.sigma.s"] >= inner > agg["fpx.substitute.self_s"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_checks_fail_on_wrong_outputs(name):
    workload = workloads.WORKLOADS[name]
    items = workload.construct(workload.generate(3))
    wrong = [workloads.Failed("injected")] * len(items)
    results = workload.check(items, wrong)
    assert results and not any(ok for _, ok in results)


def test_declared_workloads_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == tracing.per_layer_metric_names()


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_exactly_the_declared_ones(trace, key):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "2",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_runner_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "report", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
