"""Property tests of construct, coherent and verify on explicit grids and
on automatic ones.

Whatever the family, parameters, alphas and grid, main() returns 0, 1 or 2,
raises nothing and lets no numpy warning out. Exit 2 prints exactly one
"error:" line and writes no file; exit 0 or 1 of coherent and verify writes
a report whose "result:" lines agree with the exit code.

The draws lean toward wide grids and grids far out in a tail, where x, x' or
the state leave float64 range. The parameter names come from the Family
records, so a new family is drawn without edits here.
"""

import contextlib
import io
import math
import os
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from anhosc.cli import main
from anhosc.families import FAMILIES

#: The default budget, or the "cli-large" profile of conftest.py when loaded.
_BUDGET = (settings() if settings.get_current_profile_name() == "cli-large"
           else settings(max_examples=200, derandomize=True, deadline=None))

_FAMILIES = sorted(FAMILIES.values(), key=lambda family: family.cli_name)

#: Parameter values: mostly where the families' constraints hold (0 < c1 < 1,
#: s > x_e > 0, ...), the rest at and beyond their edges.
_PARAMS = st.one_of(
    st.floats(0.01, 0.99),
    st.floats(0.01, 10.0),
    st.sampled_from([0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, 2.0, 5.0, -0.3, -0.5, -1.0,
                     1e8, 1e150, 1e300]),
    st.floats(-10.0, 10.0),
)

#: Grids: the left end near the origin, far out (up to 1e300) on either
#: side, or at a few marked points; the width from 0.1 up to 1e300.
_LEFT_ENDS = st.one_of(
    st.floats(-50.0, 50.0),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(0.0, 300.0)).map(
        lambda sign_exponent: sign_exponent[0] * 10.0 ** sign_exponent[1]),
    st.sampled_from([-1e160, -1000.0, -800.0, -177.5, -3.0, -1.99, -1.0001, -1e-3, 0.0]),
)
_WIDTHS = st.one_of(st.floats(0.1, 100.0), st.floats(-1.0, 300.0).map(lambda e: 10.0 ** e))

_ALPHAS = st.builds(
    complex,
    st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, 0.1, -0.1, 2.0, -20.0])),
    st.one_of(st.just(0.0), st.floats(-3.0, 3.0), st.sampled_from([1e300, 1e307])),
)


def _alpha_text(alpha: complex) -> str:
    sign = "-" if math.copysign(1.0, alpha.imag) < 0.0 else "+"
    return f"{alpha.real!r}{sign}{abs(alpha.imag)!r}i"


@st.composite
def _argvs(draw, explicit: bool = True) -> list[str]:
    """An argv on an explicit grid, or on the automatic grid without one."""
    command = draw(st.sampled_from(["construct", "coherent", "verify"]))
    family = draw(st.sampled_from(_FAMILIES))
    argv = [command, "--family", family.cli_name]
    for name in family.cli_params:
        argv.append(f"--param={name}={draw(_PARAMS)!r}")
    if explicit:
        q_min = draw(_LEFT_ENDS)
        q_max = q_min + draw(_WIDTHS)
        argv += [f"--qmin={q_min!r}", f"--qmax={q_max!r}"]
    n = 2 * draw(st.integers(50, 200)) + 1
    argv += ["--n", str(n)]
    if command == "coherent":
        argv.append(f"--alpha={_alpha_text(draw(_ALPHAS))}")
    elif command == "verify":
        alphas = draw(st.lists(_ALPHAS, min_size=1, max_size=3))
        argv.append("--alphas=" + ",".join(_alpha_text(alpha) for alpha in alphas))
    return argv


def _run(argv: list[str]) -> tuple[int, str, list[str], dict[str, str]]:
    """(exit code, stderr, warnings raised, output files by name) of one
    in-process call, with its outputs in a new directory."""
    with tempfile.TemporaryDirectory() as out:
        if argv[0] != "verify":
            argv = [*argv, "--out", os.path.join(out, "t.csv")]
        if argv[0] != "construct":
            argv = [*argv, "--report", os.path.join(out, "r.txt")]
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(argv)
        files = {}
        for name in os.listdir(out):
            with open(os.path.join(out, name), encoding="utf-8") as handle:
                files[name] = handle.read()
    return code, stderr.getvalue(), [str(w.message) for w in caught], files


# The four classes of grid float64 cannot hold the superpotential on: x^2
# overflows; x = inf; x'^2 overflows; x' = inf / inf = NaN.
@example(["coherent", "--family", "harmonic", "--qmin=-1e160", "--qmax=1e160", "--n", "101",
          "--alpha=0.1"])
@example(["verify", "--family", "morse", "--param", "s=1", "--param", "xe=0.5",
          "--qmin=-800", "--qmax=40", "--n", "401", "--alphas=0,0.1"])
@example(["verify", "--family", "morse", "--param", "s=5", "--param", "xe=2",
          "--qmin=-177.5", "--qmax=20", "--n", "401", "--alphas=0.1"])
@example(["construct", "--family", "weihua", "--param", "c0=5", "--param", "c1=1",
          "--param", "c2=-0.3", "--qmin=-1000", "--qmax=10", "--n", "401"])
@_BUDGET
@given(_argvs())
def test_explicit_grid_runs_are_clean(argv):
    _assert_clean(argv)


# A subnormal Wei Hua c2 overflows c1/c2, so x' = -inf at the peak (a
# traceback from auto_grid's Laplace mass estimate before).
@example(["construct", "--family", "weihua", "--param", "c0=0.5", "--param", "c1=0.5",
          "--param", "c2=5e-324"])
@_BUDGET
@given(_argvs(explicit=False))
def test_auto_grid_runs_are_clean(argv):
    _assert_clean(argv)


def _assert_clean(argv: list[str]) -> None:
    code, stderr, caught, files = _run(argv)
    assert code in (0, 1, 2)
    assert caught == []
    if code == 2:
        assert stderr.startswith("error:") and stderr.count("\n") == 1, stderr
        assert files == {}
        return
    assert "error:" not in stderr
    if argv[0] == "construct":
        assert code == 0
        return
    results = [line for line in files["r.txt"].splitlines() if line.startswith("result: ")]
    assert results
    failed = [line for line in results if line.startswith(("result: FAIL", "result: error"))]
    assert all(line.startswith(("result: pass", "result: skipped")) or line in failed
               for line in results)
    assert code == (1 if failed else 0)
