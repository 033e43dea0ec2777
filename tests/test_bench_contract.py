"""The benchmark's tracer still finds every name it wraps in the package.

bench/tracing.py patches procyclic functions and methods by name.  A rename
or deletion of one of them would otherwise surface only when the benchmark
runs; here it fails the test suite.  The tracer is loaded read-only from
its file (no bytecode is written under bench/) and always uninstalled.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

import procyclic
import procyclic.cli  # noqa: F401  (the tracer wraps cli.main)
from procyclic import FpMatrix, rank
from procyclic.reporting import SECTION_ORDER

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_tracer_installs_and_counts_accumulator_rows():
    original_rank = procyclic.linfp.rank
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        # F_2 rows of a whole matrix reach the wrapped add_bits
        assert rank(FpMatrix(2, np.eye(3, dtype=np.int64))) == 3
        assert tracer.counts["linfp.acc.rows"] == tracer.counts["linfp.acc.useful"] == 3
    finally:
        tracer.uninstall()
    assert procyclic.linfp.rank is original_rank


def test_tracer_times_every_report_section_in_report_order():
    assert load_tracing().REPORT_SECTIONS == SECTION_ORDER


def test_each_builder_call_adds_one_build_and_one_table_span():
    # a builder that called another builder, or built two tables, would
    # double-count groups.build.calls or groups.table.calls
    groups = procyclic.groups
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        builds = [
            lambda: groups.cyclic_group(2, 2),
            lambda: groups.elementary_abelian(3, 2),
            lambda: groups.build_lamplighter(2, 2, 1),
            lambda: groups.build_lamplighter(3, 1, 2),
        ]
        for calls, build in enumerate(builds, start=1):
            build()
            spans = tracer.aggregate()
            assert spans["groups.build.calls"] == spans["groups.table.calls"] == calls
    finally:
        tracer.uninstall()


def test_traced_density_gap_counts_one_census_per_level(capsys):
    # density_gap takes each level's census from census.enum_A, which the
    # tracer rebinds inside census itself
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        argv = ["density-gap", "--p", "2", "--s", "1", "--imax", "3", "--json"]
        assert procyclic.cli.main(argv) == 0
        spans = tracer.aggregate()
    finally:
        tracer.uninstall()
    levels = len(json.loads(capsys.readouterr().out)["log"])
    assert levels >= 1
    assert spans["census.density_gap.calls"] == 1
    assert spans["census.enum_A.calls"] == levels
