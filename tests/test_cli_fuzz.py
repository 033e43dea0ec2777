"""Fuzzed argv: every run ends in a documented exit code, never a traceback.

Inputs come from small bounded ranges (primes and non-primes up to 5,
levels up to 3, precision up to 40), so each run is cheap and the budgets
are the only thing that can stop one.  Module dimensions, precisions and
trial counts are also drawn far above their budgets, which must refuse
them with exit 3 before any work.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from procyclic.cli import MAX_PREC, main
from procyclic.cycmod import MAX_MODULE_DIM
from procyclic.reporting import MAX_SIGMA_WORK, SECTION_ORDER


def _small_or_above(low, high, limit):
    return st.one_of(st.integers(low, high), st.integers(limit + 1, 1 << 40)).map(str)


P = st.integers(-1, 5).map(str)
LEVEL = st.integers(-1, 3).map(str)
DIM = _small_or_above(-1, 3, MAX_MODULE_DIM)
PREC = _small_or_above(-1, 40, MAX_PREC)
TRIALS = _small_or_above(-1, 3, MAX_SIGMA_WORK)
MALFORMED = st.sampled_from(
    ["", ",", "1,", ",1", "1,,2", "x", "1,x", "1.5", "-", "1e3", "[1,", "[1, 2]",
     "[1, x]", "{}", "1 + x", "x^2 + 1", "0,1,2,3", "-1", "2,-1", "5,5,5,5",
     "[" * 5000 + "]" * 5000]  # nested past the JSON decoder's recursion limit
)
COEFFS = st.one_of(MALFORMED, st.lists(st.integers(-3, 6), max_size=3).map(
    lambda xs: ",".join(map(str, xs))
))
# every report section runs in well under the deadline (the slowest,
# tau-soundness, in about 0.02 s on a 2-CPU x86-64 host), so all are fuzzed
SECTIONS = st.sampled_from(SECTION_ORDER)


def _flags(**options):
    """``--name=value`` pairs; the ``=`` stops argparse reading ``-1,0`` as a flag."""
    return st.fixed_dictionaries(options).map(
        lambda d: [f"--{k.replace('_', '-')}={v}" for k, v in d.items()]
    )


def _optional(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


COMMANDS = st.one_of(
    st.tuples(st.just(["verify-frobenius"]), _flags(p=P, imax=LEVEL, prec=PREC)),
    st.tuples(st.just(["tau"]), _flags(p=P, alpha=st.one_of(COEFFS, LEVEL), prec=PREC)),
    st.tuples(
        st.just(["antipode-check"]),
        _flags(p=P, prec=PREC, imax=DIM, trials=TRIALS, seed=LEVEL),
    ),
    st.tuples(st.just(["coinv"]), _flags(p=P, i=DIM)),
    st.tuples(
        st.just(["census"]),
        _flags(p=P, n=LEVEL, k=LEVEL, imax=LEVEL),
        _optional("alpha", COEFFS),
        _optional("beta", COEFFS),
    ),
    st.tuples(
        st.just(["density-gap"]), _flags(p=P, s=LEVEL, imax=LEVEL), _optional("f", COEFFS)
    ),
    st.tuples(
        st.just(["h2"]),
        _flags(group=st.sampled_from(["dl", "lamp", "elab", "cyclic"]), p=P, i=LEVEL),
    ),
    st.tuples(st.just(["tower"]), _flags(p=P, imax=LEVEL)),
    st.tuples(st.just(["report"]), _flags(section=SECTIONS, seed=LEVEL)),
).map(lambda parts: [a for part in parts for a in part])


@settings(max_examples=150, deadline=2000)
@given(argv=COMMANDS, as_json=st.booleans())
def test_fuzzed_argv_exits_cleanly(argv, as_json):
    argv = argv + ["--json"] if as_json else argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 3 and argv[0] != "tower":  # a stopped tower reports on stdout
        assert err.getvalue().startswith("resource limit: "), argv
    if code == 1:
        # the only check these inputs can fail is a density-gap search that finds nothing
        assert argv[0] == "density-gap", argv
        if as_json:
            assert json.loads(out.getvalue())["found"] is False
        else:
            assert out.getvalue().startswith("no gap found")
