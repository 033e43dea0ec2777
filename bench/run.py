"""procyclic benchmark: one workload per process, end-to-end or traced.

Usage, from the repository root:

    python3 bench/run.py --workload report --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (set-up, pass wall and CPU
time, peak RSS); ``--trace 1`` prints the per-layer metrics of a traced
run and its overhead against an untraced one in the same process.  The
last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
give a readable table and a JSON record of the run's environment and
sample statistics.  The exit code is 0 whenever that line is printed.

BLAS is pinned to one thread before numpy loads; only standard-library
modules are imported before the timed import of procyclic.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("report", "series", "census", "homology")
SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
PROBE_TIMEOUT_S = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="time one import plus input construction and print it (internal)",
    )
    return parser.parse_args(argv)


def require_source() -> None:
    """Put the checkout's src/ first on sys.path, or exit 2 without it."""
    if not (SRC / "procyclic" / "__init__.py").is_file():
        print(f"error: no procyclic source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


# -- set-up ------------------------------------------------------------------


def setup_once(name: str, seed: int):
    """Import procyclic, then build the workload's inputs; time both.

    The benchmark's own random generation between the two is excluded.
    Returns (seconds, workloads module, items).
    """
    start = time.perf_counter()
    import procyclic  # noqa: F401
    import procyclic.cli  # noqa: F401

    imported = time.perf_counter()
    import workloads

    raw = workloads.WORKLOADS[name].generate(seed)
    begin = time.perf_counter()
    items = workloads.WORKLOADS[name].construct(raw)
    built = time.perf_counter()
    return (imported - start) + (built - begin), workloads, items


def probe_setup(name: str, seed: int) -> list[float]:
    """Set-up times from fresh interpreters, run one after another."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


# -- environment record ------------------------------------------------------


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over src/procyclic/*.py, stable where no git metadata exists."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "procyclic").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import glob

    import numpy as np

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libs_dir / "*openblas*.so*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "blas_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def summary(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": list(values)}


# -- passes --------------------------------------------------------------------


class Checker:
    """Counts checks attempted and failed, keeping the labels of failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    def same(self, label: str, reference, outputs, workloads) -> None:
        """One check per item: this pass's output equals the reference."""
        if len(outputs) != len(reference):
            self.add(f"{label}: output count", False)
            return
        for ref, out in zip(reference, outputs):
            self.add(label, ref == workloads.fingerprint(out))


def timed_pass(workloads, items, timings=False):
    # every pass starts from the same heap: no garbage left by the last one
    gc.collect()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    outputs = workloads.run(items, timings=timings)
    wall1, cpu1 = time.perf_counter(), time.process_time()
    return outputs, wall1 - wall0, cpu1 - cpu0


def measure(workloads, items, reference, checker, seconds, min_passes):
    """Untraced passes until ``seconds`` have passed; (walls, cpus)."""
    walls, cpus = [], []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        outputs, wall, cpu = timed_pass(workloads, items)
        checker.same("repeat pass equals first pass", reference, outputs, workloads)
        walls.append(wall)
        cpus.append(cpu)
    return walls, cpus


def traced(workloads, items, reference, checker, seconds, spans_path):
    """Traced passes: per-layer metrics and the traced pass walls."""
    tracer = tracing.Tracer()
    samples, sections, walls = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
        tracer.install()
        try:
            outputs, wall, _ = timed_pass(workloads, items, timings=True)
        finally:
            tracer.uninstall()
        outputs, times = workloads.split_timings(outputs)
        checker.same("traced pass equals untraced pass", reference, outputs, workloads)
        samples.append(tracer.aggregate())
        sections.append(times)
        walls.append(wall)
        if len(walls) == 1:
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write_spans(spans_path)
    for key in tracing.EXACT_KEYS:
        checker.add(f"exact count {key} repeats", len({s[key] for s in samples}) == 1)
    return tracing.layer_metrics(samples, sections), walls


# -- main ------------------------------------------------------------------------


def print_table(rows) -> None:
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()

    if args.setup_probe:
        seconds, _, _ = setup_once(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    setup_samples = probe_setup(args.workload, args.seed) if args.trace == 0 else None
    _, workloads, items = setup_once(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload]
    checker = Checker()

    first = workloads.run(items)
    for label, ok in workload.check(items, first):
        checker.add(label, ok)
    reference = [workloads.fingerprint(out) for out in first]
    del first

    record = {"workload": args.workload, "trace": args.trace, "items": len(items),
              **environment(args.seed)}
    if args.trace == 0:
        walls, cpus = measure(workloads, items, reference, checker, args.seconds, MIN_PASSES)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "pass_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        record["samples"] = {
            "setup_s": summary(setup_samples),
            "pass_s": summary(walls),
            "cpu_s": summary(cpus),
        }
    else:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        walls, _ = measure(workloads, items, reference, checker, args.seconds / 2, 1)
        layers, traced_walls = traced(
            workloads, items, reference, checker, args.seconds / 2, spans_path
        )
        base = statistics.median(walls)
        overhead = statistics.median(traced_walls) - base
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_frac"] = overhead / base
        metrics = {
            name: (layers[name], tracing.unit_of(name))
            for name in tracing.per_layer_metric_names()
        }
        record["samples"] = {"pass_s": summary(walls), "traced_pass_s": summary(traced_walls)}
        record["spans_file"] = str(spans_path.relative_to(ROOT))

    failed = len(checker.failures)
    record["failed_checks"] = sorted(set(checker.failures))[:20]
    print(f"procyclic benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print_table(
        [(name, value, unit) for name, (value, unit) in metrics.items()]
        + [("failed_frac", failed / checker.attempted, "fraction")]
    )
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
