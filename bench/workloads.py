"""The benchmark's four workloads: seeded inputs, one pass, output checks.

Each workload splits its work into three steps:

* ``generate(seed)`` draws the benchmark's own random numbers (not timed);
* ``construct(raw)`` turns them into package values through procyclic's
  public constructors (timed as set-up);
* ``run(items)`` is one pass over the fixed item list (timed).

``check(items, outputs)`` then verifies the outputs of a pass by routes
independent of the code path that produced them, outside any timed region.
The package is always reached through module attributes looked up at call
time, so the tracer's rebound functions are the ones that run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import numpy as np

import procyclic
import procyclic.cli

PRIMES = (2, 3, 65521)


class Failed:
    """Stands in for the output of an item that raised or exited abnormally."""

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self) -> str:
        return f"Failed({self.reason})"


def run_cli(argv) -> tuple[int, str]:
    """procyclic's ``main(argv)`` in process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = procyclic.cli.main(list(argv))
    except SystemExit as exc:  # argparse exits on a malformed argv
        rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


RUNNERS = {
    "mul": lambda a, b: a * b,
    "invert": lambda f: f.invert(),
    "sigma": lambda f: procyclic.sigma(f),
    "tau_sum": lambda a, b, prec: procyclic.tau(a + b, prec),
    "tau_prod": lambda a, b, prec: procyclic.tau(a * b, prec),
    "enum_A": lambda p, i: procyclic.enum_A(p, i),
    "cli": run_cli,
    "lamplighter": lambda p, i, copies: procyclic.build_lamplighter(p, i, copies),
    "rank": lambda matrix: procyclic.rank(matrix),
}


def run(items, timings: bool = False) -> list:
    """One pass.  ``timings`` adds ``--timings`` to every ``report`` argv."""
    outputs = []
    for kind, *args in items:
        if timings and kind == "cli" and args[0][0] == "report":
            args = [list(args[0]) + ["--timings"]]
        try:
            out = RUNNERS[kind](*args)
        except Exception as exc:  # an item that raises is a failed check
            out = Failed(f"{type(exc).__name__}: {exc}")
        if kind == "cli" and not isinstance(out, Failed) and out[0] != 0:
            out = Failed(f"exit {out[0]}")
        outputs.append(out)
    return outputs


def fingerprint(out):
    """A plain value that is equal exactly when two outputs are equal."""
    if isinstance(out, procyclic.TruncSeries):
        return ("series", out.p, out.prec, out.coeffs.tobytes())
    if isinstance(out, procyclic.CensusSet):
        return ("census", out.p, out.level, tuple(sorted(out.elements)))
    if isinstance(out, procyclic.FiniteGroup):
        return ("group", out.p, out.order, out.table.tobytes())
    if isinstance(out, Failed):
        return ("failed", out.reason)
    return out


def split_timings(outputs) -> tuple[list, dict]:
    """Strip ``timing_s`` from report outputs; return them and the timings.

    The stripped document is re-serialised exactly as the CLI writes JSON,
    so a traced ``report --timings`` pass compares byte for byte with an
    untraced ``report`` pass.
    """
    times: dict[str, float] = {}
    stripped = []
    for out in outputs:
        if isinstance(out, tuple) and out[1].startswith("{"):
            doc = json.loads(out[1])
            if doc.get("command") is None and "sections" in doc:
                for section in doc["sections"]:
                    if "timing_s" in section:
                        times[section["name"]] = section.pop("timing_s")
                out = (out[0], json.dumps(doc, indent=2, sort_keys=True) + "\n")
        stripped.append(out)
    return stripped, times


def _json(out):
    return json.loads(out[1]) if isinstance(out, tuple) else None


# -- series: a shuffled stream of library calls ---------------------------

# (prec, products per prime per pass).  Small precisions are all per-call
# overhead, large ones all kernel; the counts give each a comparable share
# of a pass (0.6 s and 0.9 s of a 2 s traced pass on a 2-vCPU x86-64 box).
SERIES_PRODUCTS = ((16, 15000), (256, 1000), (4096, 10), (32768, 1))
SERIES_POOL = 256
SERIES_INVERTS = ((4096, PRIMES, 4), (32768, (2, 3), 1))
SIGMA_PRECS = (128, 256, 512)
SIGMA_PRIMES = (2, 3)
TAU_PRIMES = (2, 3, 5)
TAU_PREC = 4096
TAU_TRIALS = 15


def _series_generate(seed):
    gen = np.random.default_rng(seed)
    raw = {"products": [], "inverts": [], "sigmas": [], "taus": []}
    for prec, count in SERIES_PRODUCTS:
        for p in PRIMES:
            pool = min(SERIES_POOL, 2 * count)
            coeffs = gen.integers(0, p, size=(pool, prec))
            pairs = gen.integers(0, pool, size=(count, 2))
            raw["products"].append((p, prec, coeffs, pairs))
    for prec, primes, count in SERIES_INVERTS:
        for p in primes:
            coeffs = gen.integers(0, p, size=(count, prec))
            coeffs[:, 0] = gen.integers(1, p, size=count) if p > 2 else 1
            raw["inverts"].append((p, prec, coeffs))
    for p in SIGMA_PRIMES:
        for prec in SIGMA_PRECS:
            raw["sigmas"].append((p, prec, gen.integers(0, p, size=prec)))
    for p in TAU_PRIMES:
        k = procyclic.min_digit_precision(p, TAU_PREC)
        raw["taus"].append((p, gen.integers(0, p, size=(2 * TAU_TRIALS, 2, k))))
    raw["order"] = int(gen.integers(0, 2**63))
    return raw


def _series_construct(raw):
    series = procyclic.TruncSeries
    items = []
    for p, prec, coeffs, pairs in raw["products"]:
        pool = [series(p, row, prec) for row in coeffs]
        items += [("mul", pool[i], pool[j]) for i, j in pairs]
    for p, prec, coeffs in raw["inverts"]:
        items += [("invert", series(p, row, prec)) for row in coeffs]
    for p, prec, coeffs in raw["sigmas"]:
        items.append(("sigma", series(p, coeffs, prec)))
    for p, digit_pairs in raw["taus"]:
        for t, (a, b) in enumerate(digit_pairs):
            kind = "tau_sum" if t % 2 == 0 else "tau_prod"
            a, b = procyclic.PadicInt(p, a), procyclic.PadicInt(p, b)
            items.append((kind, a, b, TAU_PREC))
    random.Random(raw["order"]).shuffle(items)
    return items


def _series_check(items, outputs):
    one = {}
    for (kind, *args), out in zip(items, outputs):
        if isinstance(out, Failed):
            yield kind, False
        elif kind == "mul":
            yield kind, out == procyclic.mul_schoolbook(*args)
        elif kind == "invert":
            f = args[0]
            key = (f.p, f.prec)
            if key not in one:
                one[key] = procyclic.TruncSeries.one(*key)
            yield kind, f * out == one[key]
        elif kind == "sigma":
            yield kind, procyclic.sigma(out) == args[0]
        elif kind == "tau_sum":
            a, b, prec = args
            yield kind, out == procyclic.tau(a, prec) * procyclic.tau(b, prec)
        elif kind == "tau_prod":
            # the digit product against integer arithmetic mod p^k
            a, b, prec = args
            c = procyclic.PadicInt.from_int(a.to_int() * b.to_int(), a.p, a.prec)
            yield kind, out == procyclic.tau(c, prec)


# -- census: enumeration, ratio sets and the density gap ------------------

ENUM_LEVELS = ((2, 10), (3, 6), (5, 4))
CENSUS_ARGVS = (
    ("census", "--p", "2", "--n", "2", "--k", "1", "--imax", "4", "--json"),
    ("census", "--p", "3", "--n", "1", "--k", "1", "--imax", "3", "--json"),
)
GAP = (2, 1, 4)  # p, s, imax


def _census_generate(seed):
    rng = random.Random(seed)
    p, s, _ = GAP
    center = [rng.randrange(p) for _ in range(p**s)]
    return {"center": center, "order": rng.getrandbits(63)}


def _census_construct(raw):
    p, s, imax = GAP
    items = [("enum_A", p_, i) for p_, i in ENUM_LEVELS]
    items += [("cli", list(argv)) for argv in CENSUS_ARGVS]
    gap_argv = ["density-gap", "--p", str(p), "--s", str(s), "--imax", str(imax)]
    gap_argv += ["--f", json.dumps(raw["center"]), "--json"]
    items.append(("cli", gap_argv))
    random.Random(raw["order"]).shuffle(items)
    return items


def _powers_of_one_minus_x(p, prec):
    """(1-x)^m for m < p^level by schoolbook products: the census oracle."""
    base = procyclic.TruncSeries.one_minus_x(p, prec)
    cur = procyclic.TruncSeries.one(p, prec)
    seen = set()
    for _ in range(prec):
        seen.add(cur.coeffs.tobytes())
        cur = procyclic.mul_schoolbook(cur, base)
    return seen


def _flag(argv, name):
    return int(argv[argv.index(name) + 1])


def _census_check(items, outputs):
    for (kind, *args), out in zip(items, outputs):
        if isinstance(out, Failed):
            yield kind, False
        elif kind == "enum_A":
            p, i = args
            yield "enum_A size", len(out) == p**i
        elif args[0][0] == "census":
            argv = args[0]
            p, n, k = _flag(argv, "--p"), _flag(argv, "--n"), _flag(argv, "--k")
            rows = _json(out)["rows"]
            yield "census rows", [r["level"] for r in rows] == list(
                range(k, _flag(argv, "--imax") + 1)
            )
            for row in rows:
                bound = p ** (2 * row["level"] * n + p**k)
                yield "census bound", 1 <= row["size"] <= bound and row["within_bound"]
        else:
            argv = args[0]
            p, s = _flag(argv, "--p"), _flag(argv, "--s")
            doc = _json(out)
            witness = np.asarray(doc["witness_coefficients"], dtype=np.int64)
            center = np.asarray(json.loads(argv[argv.index("--f") + 1]), dtype=np.int64)
            prec = p ** doc["level"]
            census = _powers_of_one_minus_x(p, prec)
            yield "gap found", doc["found"] and witness.size == prec
            yield "gap outside census", witness.tobytes() not in census
            yield "gap in ball", np.array_equal(witness[: p**s] % p, center % p)


# -- homology: odd-p bar H_2, dense elimination, table builds, cycmod -----

HOMOLOGY_ARGVS = (
    ("tower", "--p", "3", "--imax", "1", "--json"),
    ("h2", "--group", "elab", "--p", "2", "--i", "5", "--json"),
    ("coinv", "--p", "2", "--i", "16", "--json"),
    ("coinv", "--p", "3", "--i", "16", "--json"),
)
LAMPLIGHTER = (2, 3, 2)
RANK_SHAPES = ((2, 384), (3, 256))


def _homology_generate(seed):
    gen = np.random.default_rng(seed)
    mats = [(p, gen.integers(0, p, size=(n, n))) for p, n in RANK_SHAPES]
    return {"matrices": mats, "order": int(gen.integers(0, 2**63))}


def _homology_construct(raw):
    items = [("cli", list(argv)) for argv in HOMOLOGY_ARGVS]
    items.append(("lamplighter", *LAMPLIGHTER))
    items += [("rank", procyclic.FpMatrix(p, arr)) for p, arr in raw["matrices"]]
    random.Random(raw["order"]).shuffle(items)
    return items


def _sparse_rank(matrix):
    acc = procyclic.SparseRankAccumulator(matrix.cols, matrix.p)
    for row in matrix.array:
        cols = np.nonzero(row)[0]
        acc.add_pairs(zip(cols.tolist(), row[cols].tolist()))
    return acc.rank


def _homology_check(items, outputs):
    for (kind, *args), out in zip(items, outputs):
        if isinstance(out, Failed):
            yield kind, False
        elif kind == "rank":
            yield "dense rank", out == _sparse_rank(args[0])
        elif kind == "lamplighter":
            p, i, copies = args
            order = p ** (i * (copies + 1))
            tab = out.table.astype(np.int64)
            idx = np.arange(order)
            latin = np.array_equal(
                np.sort(tab, axis=1), np.broadcast_to(idx, tab.shape)
            ) and np.array_equal(np.sort(tab, axis=0), np.broadcast_to(idx[:, None], tab.shape))
            gen = np.random.default_rng(0)
            a, b, c = gen.integers(0, order, size=(3, 4096))
            assoc = np.array_equal(tab[tab[a, b], c], tab[a, tab[b, c]])
            yield "lamplighter table", out.order == order and latin and assoc
        else:
            argv, doc = args[0], _json(out)
            if argv[0] == "tower":
                row = doc["rows"][0]
                yield "tower DL_3(1)", doc["complete"] and row["h2_dim"] == 6
            elif argv[0] == "h2":
                r = _flag(argv, "--i")
                yield "h2 elab closed form", doc["h2_dim"] == r * (r + 1) // 2
            else:
                i = _flag(argv, "--i")
                yield "coinv collapse", (
                    doc["coinv_dim"] == doc["tensor_gr_dim"] == i
                    and doc["antipode_bijective"]
                )


# -- report: the full verification suite ----------------------------------


def _report_generate(seed):
    return {"seed": seed}


def _report_construct(raw):
    return [("cli", ["report", "--json", "--seed", str(raw["seed"])])]


def _report_check(items, outputs):
    for _, out in zip(items, outputs):
        if isinstance(out, Failed):
            yield "report", False
            continue
        doc = _json(out)
        names = [s["name"] for s in doc["sections"]]
        yield "report sections", len(names) == 10 and len(set(names)) == 10
        for section in doc["sections"]:
            yield f"section {section['name']}", section["status"] == "pass"


class Workload:
    def __init__(self, name, generate, construct, check):
        self.name = name
        self.generate = generate
        self.construct = construct
        self._check = check

    def check(self, items, outputs) -> list[tuple[str, bool]]:
        """(label, passed) for every check; a check that raises fails."""
        results = []
        try:
            for label, ok in self._check(items, outputs):
                results.append((label, bool(ok)))
        except Exception as exc:  # a malformed output fails its check
            results.append((f"check raised {type(exc).__name__}: {exc}", False))
        return results


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "report",
            _report_generate,
            _report_construct,
            _report_check,
        ),
        Workload(
            "series",
            _series_generate,
            _series_construct,
            _series_check,
        ),
        Workload(
            "census",
            _census_generate,
            _census_construct,
            _census_check,
        ),
        Workload(
            "homology",
            _homology_generate,
            _homology_construct,
            _homology_check,
        ),
    )
}
