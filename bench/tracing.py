"""In-memory span tracer that wraps procyclic's public functions from outside.

The tracer never edits the package: ``install`` rebinds each traced
function in every ``procyclic`` module that holds it (functions imported
by name live in several module namespaces) and patches each traced method
once on its class.  ``uninstall`` puts every original object back.

A span is (name, start, end, parent); spans are kept in flat arrays so
that a pass with hundreds of thousands of calls stays small in memory.
Hot calls whose individual timing would distort the run (construction of
series, packing of census words, rows offered to the streaming
eliminator) are counted instead of spanned.
"""

from __future__ import annotations

import gzip
import statistics
import sys
import time
from array import array
from collections import Counter

# Operand properties that split TruncSeries.__mul__ into three spans.  They
# are the benchmark's own definitions, fixed so that a change of the
# package's internal crossover moves time between spans visibly.
SPARSE_TERMS = 4
SMALL_PREC = 256

SPAN_NAMES = (
    "fpx.mul_sparse",
    "fpx.mul_small",
    "fpx.mul_large",
    "fpx.invert",
    "fpx.substitute",
    "fpx.addsub",
    "padic.arith",
    "taumap.tau",
    "taumap.sigma",
    "linfp.rank",
    "linfp.rref",
    "linfp.kernel_basis",
    "cycmod.quotient",
    "cycmod.antipode",
    "census.enum_A",
    "census.ratio_set",
    "census.density_gap",
    "groups.build",
    "groups.table",
    "groups.closure",
    "homology.bar_h2",
    "homology.five_term",
    "homology.tower",
    "cli.main",
)

COUNT_NAMES = (
    "fpx.construct.calls",
    "census.pack.calls",
    "linfp.acc.rows",
    "linfp.acc.useful",
)

# counts that must repeat exactly between passes and runs with one seed
EXACT_KEYS = tuple(f"{s}.calls" for s in SPAN_NAMES if s != "cli.main") + COUNT_NAMES

REPORT_SECTIONS = (
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

# (module, attribute, span name) for module-level functions
FUNCTION_SPANS = (
    ("taumap", "tau", "taumap.tau"),
    ("taumap", "sigma", "taumap.sigma"),
    ("linfp", "rank", "linfp.rank"),
    ("linfp", "rref", "linfp.rref"),
    ("linfp", "kernel_basis", "linfp.kernel_basis"),
    ("cycmod", "diagonal_coinvariants", "cycmod.quotient"),
    ("cycmod", "tensor_over_groupring", "cycmod.quotient"),
    ("cycmod", "antipode_iso_check", "cycmod.antipode"),
    ("cycmod", "regular_antipode", "cycmod.antipode"),
    ("census", "enum_A", "census.enum_A"),
    ("census", "census_ratio_set", "census.ratio_set"),
    ("census", "density_gap", "census.density_gap"),
    ("groups", "build_lamplighter", "groups.build"),
    ("groups", "cyclic_group", "groups.build"),
    ("groups", "elementary_abelian", "groups.build"),
    ("homology", "bar_h2", "homology.bar_h2"),
    ("homology", "five_term_check", "homology.five_term"),
    ("homology", "tower_report", "homology.tower"),
    ("cli", "main", "cli.main"),
)

# (module, class, method, span name) for methods patched on the class
METHOD_SPANS = (
    ("fpx", "TruncSeries", "invert", "fpx.invert"),
    ("fpx", "TruncSeries", "substitute", "fpx.substitute"),
    ("fpx", "TruncSeries", "__add__", "fpx.addsub"),
    ("fpx", "TruncSeries", "__sub__", "fpx.addsub"),
    ("fpx", "TruncSeries", "__neg__", "fpx.addsub"),
    ("padic", "PadicInt", "__add__", "padic.arith"),
    ("padic", "PadicInt", "__sub__", "padic.arith"),
    ("padic", "PadicInt", "__neg__", "padic.arith"),
    ("padic", "PadicInt", "__mul__", "padic.arith"),
    ("groups", "FiniteGroup", "__init__", "groups.table"),
    ("groups", "FiniteGroup", "subgroup_closure", "groups.closure"),
)


def per_layer_metric_names() -> list[str]:
    """Every metric a traced run prints, in print order."""
    names = []
    for span in SPAN_NAMES:
        if span == "cli.main":
            names.append("cli.main.self_s")
        else:
            names += [f"{span}.calls", f"{span}.s", f"{span}.self_s"]
    names += ["fpx.construct.calls", "census.pack.calls"]
    names += ["linfp.acc.rows", "linfp.acc.useful_frac"]
    names += [f"reporting.section.{s}.s" for s in REPORT_SECTIONS]
    names += ["trace.overhead_s", "trace.overhead_frac"]
    return names


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, as BENCHMARK.json declares it."""
    if name.endswith(".calls") or name == "linfp.acc.rows":
        return "count"
    if name.endswith("_frac"):
        return "fraction"
    return "s"


def _modules():
    mods = {}
    for key, mod in sys.modules.items():
        if mod is not None and (key == "procyclic" or key.startswith("procyclic.")):
            mods[key] = mod
    return mods


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self._name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._patches: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self._clear()

    # -- recording --------------------------------------------------------

    def _clear(self) -> None:
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._stack = [-1]
        self.counts.clear()

    def _spanned(self, name: str, fn):
        nid = self._name_ids[name]
        return self._spanned_by(lambda *a, **k: nid, fn)

    def _spanned_by(self, name_of, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_of(*args, **kwargs))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_rows(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            grew = fn(*args, **kwargs)
            counts["linfp.acc.rows"] += 1
            if grew:
                counts["linfp.acc.useful"] += 1
            return grew

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def _rebind_everywhere(self, original, replacement) -> None:
        for mod in _modules().values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _patch_method(self, cls, attr: str, replacement) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        """Drop earlier spans and counts, then wrap every traced callable."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self._clear()
        mods = _modules()
        import numpy as np

        fpx = mods["procyclic.fpx"]
        series_cls = fpx.TruncSeries
        sparse_id = self._name_ids["fpx.mul_sparse"]
        small_id = self._name_ids["fpx.mul_small"]
        large_id = self._name_ids["fpx.mul_large"]

        def mul_kind(a, b):
            if isinstance(b, series_cls) and (
                np.count_nonzero(a.coeffs) <= SPARSE_TERMS
                or np.count_nonzero(b.coeffs) <= SPARSE_TERMS
            ):
                return sparse_id
            return small_id if a.prec <= SMALL_PREC else large_id

        self._patch_method(
            series_cls, "__mul__", self._spanned_by(mul_kind, series_cls.__mul__)
        )
        self._patch_method(
            series_cls,
            "__init__",
            self._counted("fpx.construct.calls", series_cls.__init__),
        )
        for mod_name, cls_name, attr, span in METHOD_SPANS:
            cls = getattr(mods[f"procyclic.{mod_name}"], cls_name)
            self._patch_method(cls, attr, self._spanned(span, cls.__dict__[attr]))
        acc_cls = mods["procyclic.linfp"].SparseRankAccumulator
        for attr in ("add_bits", "add_pairs"):
            self._patch_method(acc_cls, attr, self._counted_rows(acc_cls.__dict__[attr]))

        for mod_name, attr, span in FUNCTION_SPANS:
            original = getattr(mods[f"procyclic.{mod_name}"], attr)
            self._rebind_everywhere(original, self._spanned(span, original))
        pack = mods["procyclic.census"].pack_series
        self._rebind_everywhere(pack, self._counted("census.pack.calls", pack))

    def uninstall(self) -> None:
        """Restore every binding that install replaced, in reverse order."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def aggregate(self) -> dict[str, float]:
        """Per-span calls, inclusive seconds and self seconds, plus counts.

        A span's self time is its duration minus the durations of its
        direct children.  Inclusive seconds count only spans with no
        ancestor of the same name, so recursion is not counted twice.
        """
        n = len(self.starts)
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        child = [0.0] * n
        for i in range(n):
            par = parents[i]
            if par >= 0:
                child[par] += ends[i] - starts[i]
        out: dict[str, float] = {}
        for span in SPAN_NAMES:
            out[f"{span}.calls"] = 0
            out[f"{span}.s"] = 0.0
            out[f"{span}.self_s"] = 0.0
        for i in range(n):
            name = SPAN_NAMES[names[i]]
            dur = ends[i] - starts[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child[i]
            par = parents[i]
            while par >= 0 and names[par] != names[i]:
                par = parents[par]
            if par < 0:
                out[f"{name}.s"] += dur
        for key in COUNT_NAMES:
            out[key] = self.counts[key]
        return out

    def write_spans(self, path) -> None:
        """Write the recorded spans as gzipped TSV, one span a line."""
        n = len(self.starts)
        t0 = self.starts[0] if n else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(n):
                fh.write(
                    f"{i}\t{SPAN_NAMES[self.names[i]]}\t{self.starts[i] - t0:.9f}\t"
                    f"{self.ends[i] - t0:.9f}\t{self.parents[i]}\n"
                )


def layer_metrics(samples: list[dict], section_times: list[dict]) -> dict[str, float]:
    """Median per pass over traced passes; counts are taken as they are.

    ``samples`` holds one ``Tracer.aggregate`` result per traced pass and
    ``section_times`` the matching ``report --timings`` section times
    (empty dicts where the pass ran no report).
    """
    out: dict[str, float] = {}
    for span in SPAN_NAMES:
        if span == "cli.main":
            out["cli.main.self_s"] = statistics.median(s["cli.main.self_s"] for s in samples)
            continue
        out[f"{span}.calls"] = samples[0][f"{span}.calls"]
        for key in (f"{span}.s", f"{span}.self_s"):
            out[key] = statistics.median(s[key] for s in samples)
    out["fpx.construct.calls"] = samples[0]["fpx.construct.calls"]
    out["census.pack.calls"] = samples[0]["census.pack.calls"]
    rows = samples[0]["linfp.acc.rows"]
    out["linfp.acc.rows"] = rows
    out["linfp.acc.useful_frac"] = samples[0]["linfp.acc.useful"] / rows if rows else 0.0
    for section in REPORT_SECTIONS:
        out[f"reporting.section.{section}.s"] = statistics.median(
            t.get(section, 0.0) for t in section_times
        )
    return out

