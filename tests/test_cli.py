"""Command-line contract: exit codes, file formats, byte stability."""

import hashlib
import os
import random
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from anhosc import cli, states
from anhosc.cli import build_parser, main, parse_complex
from anhosc.errors import AnhoscError, InvalidParameterError
from anhosc.numerics import make_grid
from anhosc.generator import ExpansionRangeWarning


def run(*argv):
    return main(list(argv))


def read(path):
    return path.read_bytes()


def data_rows(path):
    lines = path.read_text().splitlines()
    return [l for l in lines if l and not l.startswith("#")][1:]  # skip column header


#: Non-finite alphas in the real and in the imaginary part; 1e400 overflows
#: to inf when parsed.
NON_FINITE_ALPHAS = ["nan", "inf", "-inf", "1e400", "-1e400", "nan+1i",
                     "0.1+nani", "0.1+infi", "0.1+1e400i", "0.1-1e400i"]


class TestParseComplex:
    def test_forms(self):
        assert parse_complex("0.3") == 0.3 + 0j
        assert parse_complex("0.1+0.2i") == 0.1 + 0.2j
        assert parse_complex("0.1-0.2i") == 0.1 - 0.2j

    def test_rejects_garbage(self):
        with pytest.raises(InvalidParameterError):
            parse_complex("abc")
        with pytest.raises(InvalidParameterError):
            parse_complex("1 + 2i")

    @pytest.mark.parametrize("text", NON_FINITE_ALPHAS)
    def test_rejects_a_non_finite_part_by_name(self, text):
        # Only a trailing i is the imaginary unit, so "inf" is not read as
        # the malformed "jnf".
        with pytest.raises(InvalidParameterError, match=r"^alpha must be finite, got "):
            parse_complex(text)


#: A full-line Wei Hua model whose ground state is not normalizable
#: (coherent states need sqrt(2) Re(alpha) in (5/3, 5)).
UNBOUNDED_WEI_HUA = ("--param", "c0=5", "--param", "c1=1", "--param", "c2=-0.3")


class TestConstruct:
    def test_harmonic_table(self, tmp_path):
        out = tmp_path / "h.csv"
        code = run("construct", "--family", "harmonic", "--qmin", "-8", "--qmax", "8",
                   "--n", "4001", "--out", str(out))
        assert code == 0
        rows = data_rows(out)
        assert len(rows) == 4001
        first = rows[0].split(",")
        assert float(first[0]) == -8.0
        assert float(first[1]) == 8.0  # x = -q

    def test_invalid_morse_params(self, tmp_path):
        code = run("construct", "--family", "morse", "--param", "s=1", "--param", "xe=2",
                   "--out", str(tmp_path / "m.csv"))
        assert code == 2

    def test_weihua_auto_grid_header(self, tmp_path):
        out = tmp_path / "w.csv"
        code = run("construct", "--family", "weihua", "--param", "c0=0.2",
                   "--param", "c1=1", "--param", "c2=0.5", "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert "W=1.4" in text

    def test_byte_stable(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ("construct", "--family", "kratzer", "--param", "c1=0.5")
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert read(a) == read(b)

    def test_unknown_family(self, tmp_path):
        assert run("construct", "--family", "poschl", "--out", str(tmp_path / "x.csv")) == 2

    def test_auto_grid_for_a_ground_state_that_is_not_normalizable(self, tmp_path, capsys):
        # Full-line Wei Hua with c1/c2 + c0/c1 > 0: psi0 grows to the left,
        # so no mass rule places its grid; an explicit grid still gets a table.
        argv = ("construct", "--family", "weihua", *UNBOUNDED_WEI_HUA)
        assert run(*argv, "--out", str(tmp_path / "w.csv")) == 2
        assert capsys.readouterr().err == (
            "error: ground state not normalizable (coherent states need sqrt(2) Re(alpha) "
            "in (1.66667, 5)); give --qmin and --qmax\n"
        )
        assert list(tmp_path.iterdir()) == []
        assert run(*argv, "--qmin=-10", "--qmax=10", "--out", str(tmp_path / "w.csv")) == 0

    def test_loose_explicit_grid_warns(self, tmp_path, capsys):
        code = run("construct", "--family", "harmonic", "--qmin", "-1", "--qmax", "1",
                   "--n", "101", "--out", str(tmp_path / "h.csv"))
        assert code == 0
        # The warning is the normalization gate's own refusal, as coherent
        # and verify print it as an error on this grid.
        assert capsys.readouterr().err == (
            "warning: left grid edge does not cover the support; widen the grid\n"
        )

    def test_plotscript_emitted(self, tmp_path):
        out = tmp_path / "h.csv"
        code = run("construct", "--family", "harmonic", "--emit", "plotscript",
                   "--out", str(out))
        assert code == 0
        script = (tmp_path / "h.csv.gp").read_text()
        assert '"h.csv"' in script  # relative path only

    @pytest.mark.parametrize("argv", [
        ("construct", "--family", "harmonic", "--tol", "product=1e-3", "--out"),
        ("construct", "--family", "harmonic", "--emit", "report", "--out"),
        ("coherent", "--family", "harmonic", "--alpha", "0.1", "--emit", "report", "--out"),
        ("verify", "--family", "harmonic", "--alphas", "0.1", "--emit", "csv", "--report"),
        ("generate", "--form", "linear", "--param", "c0=0.5", "--param", "c1=1",
         "--emit", "report", "--out"),
    ])
    def test_flags_without_effect_are_rejected(self, tmp_path, capsys, argv):
        # construct takes no tolerances, verify writes no table to --emit,
        # and no subcommand writes an extra report for --emit, so argparse
        # refuses all three before any work.
        out = tmp_path / "o.txt"
        assert run(*argv, str(out)) == 2
        if "--tol" in argv:
            expected = "unrecognized arguments: --tol"
        elif argv[0] == "verify":
            expected = "unrecognized arguments: --emit"
        else:
            expected = "invalid choice: 'report'"
        assert expected in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ("construct", "--out"),
        ("coherent", "--alpha", "0.1", "--out"),
        ("verify", "--alphas", "0.1", "--report"),
    ])
    def test_grid_flag_is_gone(self, tmp_path, capsys, command):
        # The automatic grid is the default; --grid had no other choice.
        out = tmp_path / "o.txt"
        argv = (command[0], "--family", "harmonic", "--grid", "auto", *command[1:])
        assert run(*argv, str(out)) == 2
        assert "unrecognized arguments: --grid auto" in capsys.readouterr().err
        assert not out.exists()


class TestCoherent:
    def test_harmonic_passes(self, tmp_path):
        out = tmp_path / "c.csv"
        rep = tmp_path / "c.txt"
        code = run("coherent", "--family", "harmonic", "--alpha", "0.3+0i",
                   "--out", str(out), "--report", str(rep))
        assert code == 0
        assert "result: pass" in rep.read_text()

    def test_peak_inside_pole_offset_is_usage_error(self, tmp_path, capsys):
        code = run("coherent", "--family", "kratzer", "--param", "c1=0.5",
                   "--alpha=-2000", "--out", str(tmp_path / "c.csv"),
                   "--report", str(tmp_path / "c.txt"))
        assert code == 2
        assert "pole offset" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("alpha", ["-2000", "-2000+3i", "-20", "19", "-20+3i", "18.82"])
    def test_overflowing_state_is_usage_error(self, tmp_path, capsys, alpha):
        # The closed form (-2000), its square (from |Re(alpha)| ~ 18.84) or
        # the sum of its squares (18.82) exceeds float64 on the grid; numpy's
        # overflow warning is silenced and the cause is named instead.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run("coherent", "--family", "harmonic", f"--alpha={alpha}",
                       "--n", "1001", "--out", str(tmp_path / "c.csv"),
                       "--report", str(tmp_path / "c.txt"))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: state overflows float64 on the grid; reduce |Re(alpha)|\n"
        )
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("alpha", ["1e15", "1e17", "-1e17"])
    def test_peak_beyond_two_to_the_53_is_an_overflow(self, tmp_path, capsys, alpha):
        # Past |q_peak| = 2^53 the edge search still leaves the peak (it
        # stalled there and said "tail does not decay"), and the state's
        # overflow is named as it is at 1e15.
        code = run("coherent", "--family", "harmonic", f"--alpha={alpha}",
                   "--n", "1001", "--out", str(tmp_path / "c.csv"),
                   "--report", str(tmp_path / "c.txt"))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: state overflows float64 on the grid; reduce |Re(alpha)|\n"
        )

    @pytest.mark.parametrize("alpha", ["1e154", "1e200", "1e308"])
    def test_peak_beyond_float64_is_an_overflow(self, tmp_path, capsys, alpha):
        # q * q overflows at the harmonic peak sqrt(2) alpha: no numpy warning
        # line, and no "tail does not decay" or "outside open domain".
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run("coherent", "--family", "harmonic", f"--alpha={alpha}",
                       "--out", str(tmp_path / "c.csv"), "--report", str(tmp_path / "c.txt"))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: state overflows float64 on the grid; reduce |Re(alpha)|\n"
        )

    @pytest.mark.parametrize("c0", ["1e-155", "1e-200", "1e-300"])
    @pytest.mark.parametrize("command", [
        ["construct", "--out", "g.csv"],
        ["coherent", "--alpha", "0", "--out", "g.csv", "--report", "g.txt"],
        ["verify", "--alphas", "0,0.1", "--report", "g.txt"],
    ], ids=lambda command: command[0])
    def test_a_gkf_peak_whose_curvature_underflows_is_an_overflow(
            self, tmp_path, capsys, monkeypatch, c0, command):
        # x' at the peak underflows to -0.0: refused as at c0 = 1e-154, where
        # it ended in a ZeroDivisionError traceback and exit 1.
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(*command, "--family", "gkf", "--param", f"c0={c0}", "--param", "c1=0.5")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: state overflows float64 on the grid; reduce |Re(alpha)|\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_inadmissible_alpha(self, tmp_path):
        code = run("coherent", "--family", "morse", "--param", "s=1", "--param", "xe=0.5",
                   "--alpha", "0.5+0i", "--out", str(tmp_path / "c.csv"),
                   "--report", str(tmp_path / "c.txt"))
        assert code == 2

    @pytest.mark.parametrize("grid", [(), ("--qmin=-3", "--qmax=40")], ids=["auto", "explicit"])
    def test_inadmissible_alpha_has_one_message(self, tmp_path, capsys, grid):
        code = run("coherent", "--family", "morse", "--param", "s=1", "--param", "xe=0.5",
                   "--alpha=2", *grid, "--out", str(tmp_path / "c.csv"),
                   "--report", str(tmp_path / "c.txt"))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: sqrt(2) Re(alpha) = 2.82843 outside (-inf, 0.5); state not normalizable\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_a_state_its_checks_refuse_leaves_no_file(self, tmp_path, capsys):
        # x = -q is finite on this grid, but its square, which the checks
        # form, is not: the fields builder refuses the grid by name, where
        # numpy's warnings preceded "samples must all be finite", and no file.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("coherent", "--family", "harmonic", "--qmin=-1e160", "--qmax=1e160",
                       "--alpha", "0.1",
                       "--out", str(tmp_path / "t.csv"), "--report", str(tmp_path / "r.txt"))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: superpotential overflows float64 on the grid; narrow the grid\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_a_superpotential_that_overflows_the_grid_is_refused_by_name(
            self, tmp_path, capsys):
        # Far left on this grid the Morse x overflows to inf: one error line,
        # where numpy's overflow and invalid-value warnings preceded
        # "samples must all be finite", and no file.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run("coherent", "--family", "morse", "--param", "s=1", "--param", "xe=0.5",
                       "--qmin=-800", "--qmax=40", "--n", "4001", "--alpha", "0.1",
                       "--out", str(tmp_path / "t.csv"), "--report", str(tmp_path / "r.txt"))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: superpotential overflows float64 on the grid; narrow the grid\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_kratzer_complex_alpha(self, tmp_path):
        code = run("coherent", "--family", "kratzer", "--param", "c1=0.5",
                   "--alpha", "0.1+0.2i", "--out", str(tmp_path / "c.csv"),
                   "--report", str(tmp_path / "c.txt"))
        assert code == 0

    def test_normalized_samples(self, tmp_path):
        out = tmp_path / "c.csv"
        run("coherent", "--family", "harmonic", "--alpha", "0.3",
            "--out", str(out), "--report", str(tmp_path / "c.txt"))
        rows = [r.split(",") for r in data_rows(out)]
        q = np.array([float(r[0]) for r in rows])
        abs2 = np.array([float(r[3]) for r in rows])
        # Simpson weighting is overkill here; trapezoid is enough to see
        # the unit norm.
        assert abs(np.trapezoid(abs2, q) - 1.0) < 1e-6


class TestVerifyCommand:
    @pytest.mark.parametrize("family,params", [
        ("harmonic", []),
        ("morse", ["--param", "s=1", "--param", "xe=0.5"]),
        ("weihua", ["--param", "c0=0.2", "--param", "c1=1", "--param", "c2=0.5"]),
        ("kratzer", ["--param", "c1=0.5"]),
        ("gkf", ["--param", "c0=0.75", "--param", "c1=0.5"]),
    ])
    def test_families_pass(self, tmp_path, family, params):
        rep = tmp_path / "r.txt"
        code = run("verify", "--family", family, *params,
                   "--alphas", "0,0.1", "--report", str(rep))
        assert code == 0, rep.read_text()

    def test_unrealistic_tolerance_fails(self, tmp_path):
        rep = tmp_path / "r.txt"
        code = run("verify", "--family", "harmonic", "--alphas", "0.1",
                   "--qmin", "-8", "--qmax", "8", "--n", "201",
                   "--tol", "product=1e-12", "--report", str(rep))
        assert code == 1
        assert "FAIL" in rep.read_text()

    def test_unknown_family(self, tmp_path):
        assert run("verify", "--family", "nope", "--alphas", "0",
                   "--report", str(tmp_path / "r.txt")) == 2

    def test_inadmissible_alphas_are_skipped(self, tmp_path):
        rep = tmp_path / "r.txt"
        code = run("verify", "--family", "morse", "--param", "s=1", "--param", "xe=0.5",
                   "--alphas", "0,0.9", "--report", str(rep))
        assert code == 0
        assert "skipped (inadmissible)" in rep.read_text()

    @pytest.mark.parametrize("grid", [(), ("--qmin=-30", "--qmax=40")], ids=["auto", "explicit"])
    def test_ground_state_that_is_not_normalizable_is_skipped(self, tmp_path, grid):
        # The model-level checks need psi0; the admissible alphas still run.
        from anhosc.families import make_wei_hua
        from anhosc.numerics import make_grid
        from anhosc.states import auto_grid
        from anhosc.verify import verify_coherent

        rep = tmp_path / "r.txt"
        code = run("verify", "--family", "weihua", *UNBOUNDED_WEI_HUA, *grid,
                   "--alphas", "0,2", "--report", str(rep))
        assert code == 0
        m = make_wei_hua(5.0, 1.0, -0.3)
        g = make_grid(-30.0, 40.0, 4001) if grid else auto_grid(m, 2.0)
        assert rep.read_text().split("---\n") == [
            "model: wei_hua(c0=5.0, c1=1.0, c2=-0.3)\nalpha: none\n"
            "result: skipped (ground state not normalizable)\n",
            "model: wei_hua(c0=5.0, c1=1.0, c2=-0.3)\nalpha: 0.0+0.0i\n"
            "result: skipped (inadmissible)\n",
            verify_coherent(m, 2.0, g).to_text(),
        ]

    def test_ground_state_not_normalizable_keeps_grid_usage_errors(self, tmp_path, capsys):
        assert run("verify", "--family", "weihua", *UNBOUNDED_WEI_HUA, "--qmin=-30",
                   "--alphas", "2", "--report", str(tmp_path / "r.txt")) == 2
        assert capsys.readouterr().err == "error: --qmin and --qmax must be given together\n"

    def test_failing_alpha_is_isolated(self, tmp_path):
        # auto_grid raises for alpha = -2000 (peak inside the pole offset);
        # the sweep records that alpha as an error, keeps going, and exits 1.
        from anhosc.families import make_kratzer_fues
        from anhosc.states import auto_grid
        from anhosc.verify import verify_coherent, verify_model

        rep = tmp_path / "r.txt"
        code = run("verify", "--family", "kratzer", "--param", "c1=0.5",
                   "--alphas=0.1,-2000,0.05", "--report", str(rep))
        assert code == 1
        sections = rep.read_text().split("---\n")
        m = make_kratzer_fues(0.5)
        assert sections[0] == verify_model(m, auto_grid(m)).to_text()
        assert sections[1] == verify_coherent(m, 0.1, auto_grid(m, 0.1)).to_text()
        assert sections[2] == (
            "model: kratzer_fues(c1=0.5)\nalpha: -2000.0+0.0i\n"
            "result: error (wavefunction peak lies inside the pole offset 0.001/c1 "
            "from the domain boundary; Re(alpha) is too negative to truncate)\n"
        )
        assert sections[3] == verify_coherent(m, 0.05, auto_grid(m, 0.05)).to_text()

    @pytest.mark.parametrize("alpha", ["-2000", "19", "18.82"])
    def test_overflowing_alpha_is_isolated(self, tmp_path, capsys, alpha):
        rep = tmp_path / "r.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run("verify", "--family", "harmonic", f"--alphas=0.1,{alpha}",
                       "--n", "1001", "--report", str(rep))
        assert code == 1
        assert capsys.readouterr().err == ""
        sections = rep.read_text().split("---\n")
        assert len(sections) == 3
        assert "result: pass" in sections[1]
        assert sections[2] == (
            f"model: harmonic\nalpha: {float(alpha)!r}+0.0i\n"
            "result: error (state overflows float64 on the grid; reduce |Re(alpha)|)\n"
        )

    def test_tail_beyond_float64_is_isolated_without_warnings(self, tmp_path, capsys):
        # Near the full-line Wei Hua lower bound (sqrt(2) Re(alpha) > -1.8)
        # the left tail decays, but only past where exp(-c1 q) overflows.
        rep = tmp_path / "r.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run("verify", "--family", "weihua", "--param", "c0=0.2", "--param", "c1=1",
                       "--param", "c2=-0.5", "--alphas=-1.2727,0.1", "--report", str(rep))
        assert code == 1
        assert capsys.readouterr().err == ""
        sections = rep.read_text().split("---\n")
        assert len(sections) == 3
        assert sections[1] == (
            "model: wei_hua(c0=0.2, c1=1.0, c2=-0.5)\nalpha: -1.2727+0.0i\n"
            "result: error (wavefunction tail leaves float64 range before it decays; "
            "move Re(alpha) away from its admissibility bound)\n"
        )
        assert sections[2].endswith("result: pass\n")

    @pytest.mark.parametrize("argv", [
        # x and x' overflow to inf far left, where psi0 underflows to 0.
        ("--family", "morse", "--param", "s=1", "--param", "xe=0.5",
         "--qmin=-800", "--qmax=40", "--n", "4001", "--alphas", "0,0.1"),
        ("--family", "morse", "--param", "s=263.97574085450566",
         "--param", "xe=152.57195594648636", "--qmin=-49.09862390804451",
         "--qmax=-48.72640340407472", "--n", "801", "--alphas=-0.020087385242388456"),
        # Full-line Wei Hua: x is inf / inf, NaN, where exp(-c1 q) overflows.
        ("--family", "weihua", "--param", "c0=0.2", "--param", "c1=1", "--param", "c2=-0.5",
         "--qmin=-800", "--qmax=40", "--alphas", "0.1"),
    ], ids=["morse", "morse_state_zero", "full_line_wei_hua"])
    def test_a_superpotential_that_overflows_the_grid_is_refused_by_name(
            self, tmp_path, capsys, argv):
        # One error line and no report, where numpy's overflow and
        # invalid-value warnings preceded "samples must all be finite" or
        # "state is identically zero on the grid".
        rep = tmp_path / "r.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run("verify", *argv, "--report", str(rep))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: superpotential overflows float64 on the grid; narrow the grid\n"
        )
        assert not rep.exists()

    def test_failing_model_grid_is_usage_error(self, tmp_path):
        # The alpha = 0 grid serves the model-level checks; its failure still
        # aborts the run.
        assert run("verify", "--family", "harmonic", "--alphas", "0.1",
                   "--qmin", "-1", "--qmax", "1", "--n", "101",
                   "--report", str(tmp_path / "r.txt")) == 2

    def test_empty_alpha_list(self, tmp_path):
        assert run("verify", "--family", "harmonic", "--alphas", ",",
                   "--report", str(tmp_path / "r.txt")) == 2

    def test_an_unresolved_state_fails_its_product_check(self, tmp_path, capsys):
        # <x'> underflows, so the uncertainty bound is 0.0 on this n = 1001
        # grid: the product check fails with an infinite relative error,
        # where it ended in a ZeroDivisionError traceback.
        rep = tmp_path / "r.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run("verify", "--family", "morse", "--param", "s=43.32970868120318",
                       "--param", "xe=43.32967207654175", "--n", "1001",
                       "--alphas=0.2717675845207072i", "--report", str(rep))
        assert code == 1
        assert capsys.readouterr().err == ""
        text = rep.read_text()
        assert "  bound: 0.0\n  product_rel_err: inf\n" in text
        assert "  product: FAIL (value=inf, tolerance=0.0001)\n" in text

    def test_a_state_whose_squares_underflow_is_refused_by_name(self, tmp_path, capsys):
        # The peak is positive but the Simpson sum of squares underflows to
        # zero: one error line, where numpy's divide-by-zero and invalid-value
        # warnings preceded "samples must all be finite".
        rep = tmp_path / "r.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run("verify", "--family", "gkf", "--param", "c0=59.776850174502734",
                       "--param", "c1=0.49231683670096915", "--qmin=4.9514245907682195",
                       "--qmax=6.368359162876031", "--n", "801",
                       "--alphas=-0.007136862272609275+222.45592785521646i",
                       "--report", str(rep))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: squared norm of the state underflows float64 on the grid; "
            "move the grid to the support\n"
        )
        assert not rep.exists()


#: Each family's valid --param values, and each generating form's.
_CLI_FAMILY_PARAMS = {
    "harmonic": {},
    "morse": {"s": "1", "xe": "0.5"},
    "weihua": {"c0": "0.2", "c1": "1", "c2": "0.5"},
    "kratzer": {"c1": "0.5"},
    "gkf": {"c0": "0.75", "c1": "0.5"},
}
_CLI_FORM_PARAMS = {
    "constant": {},
    "linear": {"c0": "0.5", "c1": "1"},
    "parabolic": {"c0": "0.2", "c1": "1", "c2": "0.5"},
    "squared_linear": {"c0": "0.75", "c1": "0.5"},
}


def _param_flags(params):
    return [flag for key, value in params.items() for flag in ("--param", f"{key}={value}")]


class TestNonFiniteParameters:
    @pytest.mark.parametrize("family, key", [
        (family, key) for family, params in _CLI_FAMILY_PARAMS.items() for key in params])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_family_parameter(self, tmp_path, capsys, family, key, value):
        params = {**_CLI_FAMILY_PARAMS[family], key: value}
        assert run("verify", "--family", family, *_param_flags(params), "--alphas", "0,0.1",
                   "--report", str(tmp_path / "r.txt")) == 2
        name = "x_e" if key == "xe" else key
        assert capsys.readouterr().err == f"error: {name} must be finite, got {float(value)!r}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("form, key", [
        (form, key) for form in _CLI_FORM_PARAMS for key in ("c0", "c1", "c2", "x0")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_generating_coefficient(self, tmp_path, capsys, form, key, value):
        params = {**_CLI_FORM_PARAMS[form], key: value}
        assert run("generate", "--form", form, *_param_flags(params),
                   "--out", str(tmp_path / "g.csv")) == 2
        assert capsys.readouterr().err == f"error: {key} must be finite, got {float(value)!r}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")  # refused before any numpy arithmetic
    @pytest.mark.parametrize("alpha", NON_FINITE_ALPHAS)
    @pytest.mark.parametrize("family", ["harmonic", "morse"])
    def test_alpha(self, tmp_path, capsys, family, alpha):
        # Refused while parsing, before verify could call it inadmissible or
        # an overflow.
        model = ["--family", family, *_param_flags(_CLI_FAMILY_PARAMS[family])]
        for argv in (["verify", *model, "--alphas", f"0,{alpha}"],
                     ["coherent", *model, f"--alpha={alpha}", "--out", str(tmp_path / "c.csv")]):
            assert run(*argv, "--report", str(tmp_path / "r.txt")) == 2
            assert capsys.readouterr().err == f"error: alpha must be finite, got {alpha!r}\n"
            assert list(tmp_path.iterdir()) == []


class TestParametersAtFloat64Limits:
    # Found by tests/test_cli_property.py: each left a traceback or numpy's
    # warnings; each now has one named outcome.
    @pytest.mark.filterwarnings("error")
    def test_a_derived_constant_that_raises_is_a_usage_error(self, tmp_path, capsys):
        assert run("construct", "--family", "kratzer", "--param", "c1=1e-200",
                   "--out", str(tmp_path / "t.csv")) == 2
        assert capsys.readouterr().err == (
            "error: derived constants of make_kratzer_fues(1e-200) leave float64 range\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    def test_generate_names_a_closed_form_it_cannot_build(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run("generate", "--form", "squared_linear", "--param", "c0=0.5",
                   "--param", "c1=1e-200", "--param", "x0=0.5", "--qmax", "1", "--n", "11",
                   "--out", str(out)) == 0
        assert out.read_text().splitlines()[3] == (
            "# closed_form: unavailable (derived constants of "
            "make_generalized_kratzer_fues(0.5, 1e-200) leave float64 range)")

    @pytest.mark.filterwarnings("error")
    def test_construct_refuses_a_potential_column_float64_cannot_hold(self, tmp_path, capsys):
        # s = inf at this c0: the closed form is NaN on every grid.
        assert run("construct", "--family", "gkf", "--param", "c0=5e-324", "--param", "c1=0.5",
                   "--qmin=0", "--qmax=1", "--n", "101", "--out", str(tmp_path / "t.csv")) == 2
        assert capsys.readouterr().err == (
            "error: closed-form potential leaves float64 range on the grid\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    def test_a_check_residual_beyond_float64_fails_its_check(self, tmp_path, capsys):
        report = tmp_path / "r.txt"
        assert run("verify", "--family", "weihua", "--param=c0=0.017315975240760163",
                   "--param=c1=0.99", "--param=c2=1.2853008383819474e-118", "--qmin=-177.5",
                   "--qmax=2.0089929403255813e+277", "--n", "275", "--alphas=0.1",
                   "--report", str(report)) == 1
        assert capsys.readouterr().err == ""
        assert "  commutator_action: FAIL (value=inf, tolerance=1e-05)" in (
            report.read_text().splitlines())


class TestRepeatedNames:
    # The last of two values silently won; a repeated name is a usage error.
    MORSE = ("--family", "morse", "--param", "s=1", "--param", "xe=0.5")

    @pytest.mark.parametrize("argv", [
        ("construct", "--param", "s=2", *MORSE, "--out", "t.csv"),
        ("coherent", *MORSE, "--param", "xe=0.25", "--alpha", "0.1",
         "--out", "t.csv", "--report", "r.txt"),
        ("verify", "--param", "s=2", *MORSE, "--alphas", "0.1", "--report", "r.txt"),
        ("generate", "--form", "linear", "--param", "c0=0.5", "--param", "c1=1",
         "--param", "c1=2", "--out", "t.csv"),
    ], ids=["construct", "coherent", "verify", "generate"])
    def test_a_repeated_param_is_a_usage_error(self, tmp_path, capsys, argv):
        name = {"construct": "s", "coherent": "xe", "verify": "s", "generate": "c1"}[argv[0]]
        argv = [str(tmp_path / a) if a in ("t.csv", "r.txt") else a for a in argv]
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"error: --param {name} given more than once\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("coherent", *MORSE, "--alpha", "0.1", "--out", "t.csv", "--report", "r.txt"),
        ("verify", *MORSE, "--alphas", "0.1", "--report", "r.txt"),
    ], ids=["coherent", "verify"])
    def test_a_repeated_tol_is_a_usage_error(self, tmp_path, capsys, argv):
        argv = [str(tmp_path / a) if a in ("t.csv", "r.txt") else a for a in argv]
        assert run(*argv, "--tol", "product=1e-3", "--tol", "riccati=1e-6",
                   "--tol", "product=1e-2") == 2
        assert capsys.readouterr().err == "error: --tol product given more than once\n"
        assert list(tmp_path.iterdir()) == []


class TestOutputs:
    # Every output is opened before any is written, so a path that cannot
    # be opened refuses the run (exit 2) with no file written.
    def test_an_unopenable_report_leaves_no_table(self, tmp_path, capsys):
        report = tmp_path / "missing" / "r.txt"
        assert run("coherent", "--family", "harmonic", "--alpha", "0.1",
                   "--out", str(tmp_path / "t.csv"), "--report", str(report)) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: {str(report)!r}\n")
        assert list(tmp_path.iterdir()) == []

    def test_a_directory_in_place_of_the_plotscript_leaves_no_table(self, tmp_path, capsys):
        (tmp_path / "t.csv.gp").mkdir()
        assert run("construct", "--family", "harmonic", "--emit", "plotscript",
                   "--out", str(tmp_path / "t.csv")) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv.gp"]

    def test_a_refused_run_leaves_an_existing_file_as_it_was(self, tmp_path):
        table = tmp_path / "t.csv"
        table.write_bytes(b"earlier table\n")
        assert run("coherent", "--family", "harmonic", "--alpha", "0.1", "--out", str(table),
                   "--report", str(tmp_path / "missing" / "r.txt")) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
        assert table.read_bytes() == b"earlier table\n"

    def test_an_existing_file_is_overwritten_whole(self, tmp_path):
        table = tmp_path / "t.csv"
        assert run("construct", "--family", "harmonic", "--n", "101", "--out", str(table)) == 0
        expected = table.read_bytes()
        table.write_bytes(b"x" * (2 * len(expected)))
        assert run("construct", "--family", "harmonic", "--n", "101", "--out", str(table)) == 0
        assert table.read_bytes() == expected

    def test_a_device_is_written_too(self):
        # Only a regular file is emptied before it is written.
        assert run("construct", "--family", "harmonic", "--n", "101", "--out", os.devnull) == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", ["1e300i", "1e307i", "-1e307i", "0.1+1e308i"])
@pytest.mark.parametrize("family", ["harmonic", "kratzer"])
def test_a_huge_imaginary_alpha_is_refused_by_name(tmp_path, capsys, family, alpha):
    # Its checks would overflow float64 (numpy warned, and the error was a
    # generic "samples must all be finite"): one message names |Im(alpha)|,
    # with no warning; verify reports it in the alpha's section, coherent
    # writes no table.
    model = ["--family", family, *_param_flags(_CLI_FAMILY_PARAMS[family])]
    assert run("coherent", *model, f"--alpha={alpha}", "--out", str(tmp_path / "c.csv"),
               "--report", str(tmp_path / "c.txt")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: |Im(alpha)| = ") and err.endswith("reduce |Im(alpha)|\n")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
    assert run("verify", *model, "--alphas", f"0.1,{alpha}", "--report", str(tmp_path / "r.txt")) == 1
    assert capsys.readouterr().err == ""
    last = (tmp_path / "r.txt").read_text().split("---\n")[-1]
    assert last.splitlines()[-1] == f"result: error ({err[len('error: '):-1]})"


class TestExplicitGrids:
    # psi0 = exp(-q^2/2) is 1.5e-8 of its peak at q = +-6, and normalization's
    # tail-mass rule accepts the grid; construct warns by that same rule.
    LOOSE = ("--family", "harmonic", "--qmin", "-6", "--qmax", "6", "--n", "1001")
    TIGHT = ("--family", "harmonic", "--qmin", "-1", "--qmax", "1", "--n", "101")

    def test_no_command_warns_on_a_loose_grid(self, tmp_path, capsys):
        assert run("construct", *self.LOOSE, "--out", str(tmp_path / "h.csv")) == 0
        assert run("coherent", *self.LOOSE, "--alpha", "0.1", "--out", str(tmp_path / "c.csv"),
                   "--report", str(tmp_path / "c.txt")) == 0
        assert run("verify", *self.LOOSE, "--alphas", "0.1,0.05+0.1i",
                   "--report", str(tmp_path / "r.txt")) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [
        ("coherent", "--alpha", "0.1", "--out", "c.csv", "--report", "c.txt"),
        ("verify", "--alphas", "0.1", "--report", "r.txt"),
    ])
    def test_grid_normalization_rejects_is_usage_error(self, tmp_path, capsys, argv):
        # Normalization, not a warning, decides whether a grid covers the state.
        argv = [str(tmp_path / a) if a.endswith((".csv", ".txt")) else a for a in argv]
        assert run(argv[0], *self.TIGHT, *argv[1:]) == 2
        assert capsys.readouterr().err == (
            "error: left grid edge does not cover the support; widen the grid\n"
        )

    @pytest.mark.parametrize("family, params, qmin, qmax, n", [
        ("harmonic", {}, -6.0, 6.0, 1001),
        ("harmonic", {}, -1.0, 1.0, 101),
        ("harmonic", {}, -8.0, 3.0, 401),
        ("harmonic", {}, 40.0, 50.0, 101),  # psi0 underflows to zero everywhere
        ("morse", {"s": "1", "xe": "0.5"}, -3.0, 20.0, 801),
        ("morse", {"s": "1", "xe": "0.5"}, -1.0, 20.0, 801),
        ("weihua", {"c0": "0.2", "c1": "1", "c2": "0.5"}, -0.69, 30.0, 801),
        ("kratzer", {"c1": "0.5"}, -1.99, 40.0, 801),
        ("kratzer", {"c1": "0.5"}, -1.99, 8.0, 801),
        ("weihua", {"c0": "5", "c1": "1", "c2": "-0.3"}, -10.0, 10.0, 401),
    ])
    def test_construct_warns_exactly_when_normalization_refuses(
            self, tmp_path, capsys, family, params, qmin, qmax, n):
        model = cli._build_model(family, {k: float(v) for k, v in params.items()})
        try:
            states.grid_fields(model, make_grid(qmin, qmax, n)).normalized()
        except AnhoscError as exc:
            expected = f"warning: {exc}\n"
        else:
            expected = ""
        assert run("construct", "--family", family, *_param_flags(params),
                   f"--qmin={qmin!r}", f"--qmax={qmax!r}", "--n", str(n),
                   "--out", str(tmp_path / "t.csv")) == 0
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("argv", [
        ("construct", "--out", "t.csv"),
        ("coherent", "--alpha", "0.1", "--out", "t.csv", "--report", "r.txt"),
        ("verify", "--alphas", "0.1", "--report", "r.txt"),
    ])
    def test_grid_outside_domain_has_one_message(self, tmp_path, capsys, argv):
        argv = [str(tmp_path / a) if a.endswith((".csv", ".txt")) else a for a in argv]
        code = run(argv[0], "--family", "kratzer", "--param", "c1=0.5",
                   "--qmin", "-3", "--qmax", "10", *argv[1:])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: grid [-3.0, 10.0] not inside open domain (-2.0, inf)\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestGenerate:
    def test_linear_round_trip_header(self, tmp_path):
        out = tmp_path / "g.csv"
        code = run("generate", "--form", "linear", "--param", "c0=0.5",
                   "--param", "c1=1", "--qmax", "5", "--out", str(out))
        assert code == 0
        header = [l for l in out.read_text().splitlines() if l.startswith("# max_deviation")]
        assert header
        assert float(header[0].split(":")[1]) < 1e-8

    def test_unsupported_form(self, tmp_path):
        assert run("generate", "--form", "cubic", "--param", "c0=1", "--param", "c1=1",
                   "--out", str(tmp_path / "g.csv")) == 2

    def test_constant_column_is_minus_q(self, tmp_path):
        from anhosc.generator import ExpansionRangeWarning

        out = tmp_path / "g.csv"
        with pytest.warns(ExpansionRangeWarning):
            code = run("generate", "--form", "constant", "--qmax", "3", "--out", str(out))
        assert code == 0
        rows = [r.split(",") for r in data_rows(out)]
        for row in rows[:: len(rows) // 7]:
            assert abs(float(row[1]) - (-float(row[0]))) < 1e-12

    @pytest.mark.parametrize("params, x0", [
        (("--form", "linear", "--param", "c0=0.5", "--param", "c1=1"), "1e200"),
        (("--form", "constant"), "-1e200"),
    ])
    def test_start_beyond_range_is_not_called_a_pole(self, tmp_path, capsys, params, x0):
        # x decays from the start (linear) or falls at unit slope (constant);
        # neither has a pole, the start just lies beyond |x| <= 1e150.
        out = tmp_path / "g.csv"
        assert run("generate", *params, "--param", f"x0={x0}", "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: initial value {float(x0)!r} outside the integrator's range "
            "|x| <= 1e+150\n"
        )
        assert not out.exists()


    @pytest.mark.parametrize("n, q", [
        ("5001", "0.401"),  # x leaves |x| <= 1e150 (the range test)
        ("21", "0.75"),  # the slope's ** 2 raises OverflowError
    ], ids=["range_test", "overflow"])
    def test_a_pole_is_refused_with_its_q(self, tmp_path, capsys, n, q):
        # x' = -(x + 1/2)^2 from x0 = -3 has its pole at q = 0.4; the message
        # names q at the start of the step that left the range.
        out = tmp_path / "g.csv"
        assert run("generate", "--form", "squared_linear", "--param", "c0=0.5",
                   "--param", "c1=1", "--param", "x0=-3", "--qmax", "5", "--n", n,
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: trajectory diverged near q={q} (pole of x(q))\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("form", ["constant", "linear", "parabolic", "squared_linear"])
    def test_every_form_takes_c0_c1_c2_and_x0(self, tmp_path, form):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExpansionRangeWarning)
            assert run("generate", "--form", form, "--param", "c0=0.5", "--param", "c1=1",
                       "--param", "c2=0.5", "--param", "x0=0.5", "--qmax", "0.2",
                       "--n", "11", "--out", str(tmp_path / "g.csv")) == 0

    @pytest.mark.parametrize("form", ["constant", "linear", "parabolic", "squared_linear"])
    @pytest.mark.parametrize("name", ["cc1", "C1", "x", "s"])
    def test_unknown_parameter_is_a_usage_error(self, tmp_path, capsys, form, name):
        # A misspelled c1 must not silently leave c1 = 0.
        out = tmp_path / "g.csv"
        assert run("generate", "--form", form, "--param", "c0=0.5", "--param", "c1=1",
                   "--param", f"{name}=3", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: unknown parameter {name!r} for form {form!r}\n"
        assert not out.exists()


class TestFitCommand:
    @staticmethod
    def write_samples(path, params, r_values):
        from anhosc.fit import eval_expansion

        lines = ["# r,v"]
        for r in r_values:
            lines.append(f"{float(r)!r},{float(eval_expansion(params, r))!r}")
        path.write_text("\n".join(lines) + "\n")

    def test_round_trip(self, tmp_path):
        from anhosc.fit import ExpansionParams

        data = tmp_path / "d.csv"
        self.write_samples(data, ExpansionParams(1.2, 0.1, 3.0), np.linspace(0.8, 6.0, 50))
        out = tmp_path / "fit.txt"
        code = run("fit", "--data", str(data), "--order", "0", "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert "converged: true" in text
        eq = float([l for l in text.splitlines() if l.startswith("equilibrium")][0].split(":")[1])
        assert abs(eq - 1.32) < 1e-4

    def test_one_row_underdetermined(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("1.0,0.5\n")
        assert run("fit", "--data", str(data), "--out", str(tmp_path / "f.txt")) == 2

    def test_header_only_file(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("# r,v\n")
        assert run("fit", "--data", str(data), "--out", str(tmp_path / "f.txt")) == 2

    def test_malformed_file(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("1.0,0.5\nnot,numbers\n")
        assert run("fit", "--data", str(data), "--out", str(tmp_path / "f.txt")) == 2

    @pytest.mark.parametrize("row, reason", [
        ("-1.0,0.1", "r must be positive, got -1.0"),
        ("2.0,nan", "v must be finite, got nan"),
        ("inf,0.3", "r must be finite, got inf"),
    ])
    def test_a_numeric_row_the_fit_refuses_names_its_reason(self, tmp_path, capsys, row, reason):
        # A float row that PotentialSample refuses is not "non-numeric"; inf
        # used to reach the solver, which warned and then gave up.
        data = tmp_path / "neg.csv"
        data.write_text(f"1.0,0.5\n{row}\n3.0,0.2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("fit", "--data", str(data), "--out", str(tmp_path / "f.txt")) == 2
        assert capsys.readouterr().err == f"error: {data}:2: {reason}\n"

    def test_missing_file(self, tmp_path):
        assert run("fit", "--data", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "f.txt")) == 2


# A sequence of in-process calls sharing main()'s parser: the same argv
# twice, append options (--param, --tol) followed by calls without them, an
# argparse error followed by a valid call, and --help.
_REUSE_SEQUENCE = [
    "verify --family morse --param s=1 --param xe=0.5 --alphas 0,0.1 --n 1001 --report r.txt",
    "verify --family morse --param s=1 --param xe=0.5 --alphas 0,0.1 --n 1001 --report r.txt",
    "verify --family harmonic --alphas 0.1 --qmin -8 --qmax 8 --n 1001"
    " --tol product=1e-12 --tol annihilation=1 --report r.txt",
    "verify --family harmonic --alphas 0.1 --qmin -8 --qmax 8 --n 1001 --report r.txt",
    "coherent --family kratzer --param c1=0.5 --alpha 0.1 --n 1001 --out t.csv --report r.txt",
    "construct --family harmonic --n 1001 --out t.csv",
    "verify --family harmonic --report r.txt",
    "verify --family harmonic --alphas 0 --n 1001 --report r.txt",
    "construct --family harmonic --n 1001 --out t.csv --bogus",
    "fit --order 1",
    "construct --family kratzer --param c1=0.5 --n 1001 --out t.csv",
    "--help",
]


def _run_sequence(tmp_path, capsys):
    """(exit code, stdout, stderr, output files) after each call."""
    seen = []
    for line in _REUSE_SEQUENCE:
        for p in tmp_path.iterdir():
            p.unlink()
        argv = [str(tmp_path / a) if a in ("r.txt", "t.csv") else a for a in line.split()]
        code = main(argv)
        out, err = capsys.readouterr()
        seen.append((code, out, err, {p.name: p.read_bytes() for p in tmp_path.iterdir()}))
    return seen


class TestParserReuse:
    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_calls_match_fresh_parser_runs(self, tmp_path, capsys, monkeypatch):
        shared = _run_sequence(tmp_path, capsys)
        assert [case[0] for case in shared] == [0, 0, 1, 0, 0, 0, 2, 0, 2, 2, 0, 0]
        monkeypatch.setattr(cli, "_parser", build_parser)
        assert _run_sequence(tmp_path, capsys) == shared

    def test_concurrent_calls_match_sequential_ones(self, tmp_path):
        # More threads than cores and a short switch interval, so that
        # parses interleave; any state a parse left behind would show.
        argvs = [
            ["construct", "--family", "harmonic", "--n", str(101 + 2 * k),
             *(["--param", f"k={k}"] if k % 3 == 0 else []),
             "--out", str(tmp_path / f"t{k}.csv")]
            for k in range(12)
        ]
        expected = [main(argv) for argv in argvs]
        assert expected == [2 if k % 3 == 0 else 0 for k in range(12)]
        tables = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        for p in tmp_path.iterdir():
            p.unlink()
        results = [None] * len(argvs)

        def worker(k):
            for _ in range(5):
                results[k] = main(argvs[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(argvs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == expected
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == tables


def test_module_entry_point_matches_in_process_main(tmp_path):
    # A source checkout runs the CLI cold with PYTHONPATH=src python -m anhosc.
    argv = ["verify", "--family", "harmonic", "--alphas", "0.1", "--qmin", "-8",
            "--qmax", "8", "--n", "201", "--tol", "product=1e-12"]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    cold = subprocess.run(
        [sys.executable, "-m", "anhosc", *argv, "--report", "cold.txt"],
        cwd=tmp_path, env=env, capture_output=True, timeout=120,
    )
    assert cold.returncode == main(argv + ["--report", str(tmp_path / "warm.txt")]) == 1
    assert cold.stderr == b""
    assert (tmp_path / "cold.txt").read_bytes() == (tmp_path / "warm.txt").read_bytes()


@pytest.mark.parametrize("argv, expected", [
    ("generate --form constant --n 5001",
     "warning: ExpansionRangeWarning: superpotential leaves |x| < 1, outside the "
     "guaranteed series convergence range\n"),
])
def test_command_prints_warnings_without_source_locations(tmp_path, argv, expected):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONWARNINGS", None)
    cold = subprocess.run(
        [sys.executable, "-m", "anhosc", *argv.split(), "--out", "t.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert cold.returncode == 0
    assert cold.stderr == expected


def test_main_leaves_the_warning_format_alone(tmp_path):
    # Only the command's entry point formats warnings; in-process callers
    # keep their own.
    before = warnings.formatwarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("generate", "--form", "constant", "--out", str(tmp_path / "g.csv")) == 0
    assert [w.category for w in caught] == [ExpansionRangeWarning]
    assert warnings.formatwarning is before


# (argv, exit code, ExpansionRangeWarning raised, SHA-256 of every output
# file with the output directory taken out), recorded before tables were
# formatted column by column and generate integrated on plain floats. The
# README desk models at auto grids, the four series forms at desk
# coefficients, and one x0 whose trajectory leaves |x| < 1.
_PINNED_TABLES = [
    ('construct --family harmonic --n 1001', 0, False, {'t.csv': '3f7b08e8441a1cfc84865349f9ba8014aab716719598c5f5162d104767b4eba9'}),
    ('construct --family harmonic --n 4001', 0, False, {'t.csv': '5820381dab61eb72fe7d5bec1286aeb92ee707fcc51869cf5dda94a87039da7a'}),
    ('construct --family morse --param s=1 --param xe=0.5 --n 1001', 0, False, {'t.csv': '54a54a07ac8872a8b90da04f2d678253d668cec332cb3c98cab55cfde54b8282'}),
    ('construct --family morse --param s=1 --param xe=0.5 --n 4001', 0, False, {'t.csv': 'e3a4a7a9c048768719e5c67fcd585b059b7879f01541aff718502cae01de2706'}),
    ('construct --family weihua --param c0=0.2 --param c1=1 --param c2=0.5 --n 1001', 0, False, {'t.csv': '9a3ec3e6a426eae6286d034459f85f2dd61967f417426222eabf4b2f0d376aef'}),
    ('construct --family weihua --param c0=0.2 --param c1=1 --param c2=0.5 --n 4001', 0, False, {'t.csv': '3e57a0592f2b9c5a354f33f4a73e9e995bc50329e70bd290d941a07dcc2d9fc8'}),
    ('construct --family kratzer --param c1=0.5 --n 1001', 0, False, {'t.csv': '92971a52e6b11e378c121cdd814ae79299478c482bfb970ddc7a255955b6c0b2'}),
    ('construct --family kratzer --param c1=0.5 --n 4001', 0, False, {'t.csv': '29eebf06a9b95b0301c4cd267f136f03504b9f71fc108afa43009aef642ef911'}),
    ('construct --family gkf --param c0=0.75 --param c1=0.5 --n 1001', 0, False, {'t.csv': '3c6832b2bf3eb1a87109ded5cbe1c5043230b7698d12192b2c38b81af3d45807'}),
    ('construct --family gkf --param c0=0.75 --param c1=0.5 --n 4001', 0, False, {'t.csv': '297d89f01026ece70e52e96da6817340dcbdeb27a6e9b0ba33c1c4e67d47f259'}),
    ('construct --family morse --param s=1 --param xe=0.5 --n 1001 --emit plotscript', 0, False, {'t.csv': '54a54a07ac8872a8b90da04f2d678253d668cec332cb3c98cab55cfde54b8282', 't.csv.gp': 'ef712567559859eabfecfc5c60a1a21808ba08023baebb76f75f279b5d2b0baf'}),
    ('coherent --family harmonic --alpha 0.1', 0, False, {'r.txt': 'fbf71766313822efd07d078e9617a036b73d1aa4e2e066285ba43942e6b05213', 't.csv': '0ce5bcb6d49c1ecb35bc3c67ea875cd5975297bf86cbfc7a75b39b05ffc56839'}),
    ('coherent --family harmonic --alpha 0.2+0.3i', 0, False, {'r.txt': '021af9f2d4a206ff804487cc8713cc36f48e5d40418f98fe78edc6ff015f632a', 't.csv': '9c1541a64032ca84fa0cc9ca7d8692e4c765b742762c4a2348f85706df99ff41'}),
    ('coherent --family morse --param s=1 --param xe=0.5 --alpha 0.1', 0, False, {'r.txt': 'bcad49b42bbb0dcffd305207f415d463f8bb0fef8c62797b74a7ea330379ac88', 't.csv': '91ed5ce5e49d035ae524eb45d2934f6fe7bca8aafc0798df6d7091b35dc8333a'}),
    ('coherent --family morse --param s=1 --param xe=0.5 --alpha 0.2+0.3i', 0, False, {'r.txt': '04600348d95266e888b954e3d6d8363760126405a64c559be408faf2040327a1', 't.csv': '1d3196e50fc12ee11bfd1e39f38e2845405a66d26679d60de45a83a18ed56bfd'}),
    ('coherent --family weihua --param c0=0.2 --param c1=1 --param c2=0.5 --alpha 0.1', 0, False, {'r.txt': '0efcec559d4eb3a2d6582942278d3535a87bcd60f884346b26eee6bb732b8652', 't.csv': 'fdbcfce79c3bad7bdd2b7bbe9e9660ae95c1b182225e92f47a343bd9ab3fabf8'}),
    ('coherent --family kratzer --param c1=0.5 --alpha 0.1', 0, False, {'r.txt': '3a2ce986197de32f56c21c53e725e974f78ebb2de920e37c8f02ebcb1c7e0bbe', 't.csv': '2df59f9458181fae4dab99afbe74b8da3b9c92b7d9d5b67670e1473f25df381c'}),
    ('coherent --family kratzer --param c1=0.5 --alpha 0.2+0.3i', 0, False, {'r.txt': '1d0db0f319876e1886cb473bc25ebad0bddcf6e1ba19b020b2012fc2433b76f8', 't.csv': 'e8987580310885234d867f67308ccdcfd2210872a8eb6f966f26607362498b3e'}),
    ('coherent --family gkf --param c0=0.75 --param c1=0.5 --alpha 0.1', 0, False, {'r.txt': '8fa601749a09d748c590ed408028622b05253bfa8e6ab579db30d260632d1c3c', 't.csv': 'c9b8584a229985925e93f6a398305d1bac23f93ae7be52957352c80c2d03e64e'}),
    ('coherent --family gkf --param c0=0.75 --param c1=0.5 --alpha 0.2+0.3i', 0, False, {'r.txt': '92c8fdce29fa7cd135681420c5e87efa65932f46af4b494fe1a3ab1e65fb4b74', 't.csv': 'b9357888e2dc5c6f9acba049bccd4f2fcb8274134dae745a70b26bec62db691a'}),
    ('generate --form constant --n 5001', 0, True, {'t.csv': '4054cc036011beb9246823d1e918226f5911d07c4d6bae1c4cd131dccb5f8dc4'}),
    ('generate --form linear --param c0=0.5 --param c1=1 --n 5001', 0, False, {'t.csv': '2d9c65f78561bba083c9519114daa3b4de6c100464d0bdc9e4d199e62d60db67'}),
    ('generate --form parabolic --param c0=0.2 --param c1=1 --param c2=0.5 --n 5001', 0, False, {'t.csv': '3e6b15d6f34f796eafb4e646f8bc411bd124062c0d77fda0f0f9fbabb32d669a'}),
    ('generate --form squared_linear --param c0=0.75 --param c1=0.5 --n 5001', 0, False, {'t.csv': '9cf717388b0f519a6014c3a32f3dbd3d0ca0d0d210e287604a9aa01589f3dbcb'}),
    ('generate --form linear --param c0=3 --param c1=1 --param x0=2 --n 5001', 0, True, {'t.csv': '4eee8ea17aee5ec321cabfa9885dcd4b6550b395cca8bcb28ea80ea9e711ee37'}),
]


@pytest.mark.parametrize("argv, code, warns, digests", _PINNED_TABLES,
                         ids=[case[0] for case in _PINNED_TABLES])
def test_tables_are_pinned(tmp_path, argv, code, warns, digests):
    argv = argv.split() + ["--out", str(tmp_path / "t.csv")]
    if argv[0] == "coherent":
        argv += ["--report", str(tmp_path / "r.txt")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(*argv) == code
    assert any(issubclass(w.category, ExpansionRangeWarning) for w in caught) == warns
    prefix = str(tmp_path).encode()
    assert {
        p.name: hashlib.sha256(p.read_bytes().replace(prefix, b"")).hexdigest()
        for p in tmp_path.iterdir()
    } == digests


# (argv, exit code, stderr, SHA-256 of every output file with the output
# directory taken out) on explicit grids: a half-given pair, a grid outside
# the domain, one that does not cover the state and ones that do, a ground
# state that is not normalizable, whose alphas share the explicit grid, and
# the gnuplot scripts. The harmonic [-40, 40] states hold negative zeros, so
# their scaling takes np.divide. No numpy warning is raised.
_PINNED_EXPLICIT_GRIDS = [
    ('construct --family harmonic --qmin=-5', 2, 'error: --qmin and --qmax must be given together\n', {}),
    ('coherent --family harmonic --qmax=5 --alpha 0.1', 2, 'error: --qmin and --qmax must be given together\n', {}),
    ('verify --family harmonic --qmin=-5 --alphas 0.1', 2, 'error: --qmin and --qmax must be given together\n', {}),
    ('construct --family kratzer --param c1=0.5 --qmin=-3 --qmax=10', 2, 'error: grid [-3.0, 10.0] not inside open domain (-2.0, inf)\n', {}),
    ('coherent --family kratzer --param c1=0.5 --qmin=-3 --qmax=10 --alpha=-2000', 2, 'error: grid [-3.0, 10.0] not inside open domain (-2.0, inf)\n', {}),
    ('verify --family kratzer --param c1=0.5 --qmin=-3 --qmax=10 --alphas 0.1', 2, 'error: grid [-3.0, 10.0] not inside open domain (-2.0, inf)\n', {}),
    ('construct --family harmonic --qmin=-1 --qmax=1 --n 101', 0, 'warning: left grid edge does not cover the support; widen the grid\n', {'t.csv': 'b9206cddf89e46d0526c62375328601b6f04dce2e6e82990e87412e2b93f4483'}),
    ('coherent --family harmonic --qmin=-1 --qmax=1 --n 101 --alpha 0.1', 2, 'error: left grid edge does not cover the support; widen the grid\n', {}),
    ('verify --family harmonic --qmin=-1 --qmax=1 --n 101 --alphas 0.1', 2, 'error: left grid edge does not cover the support; widen the grid\n', {}),
    ('construct --family harmonic --qmin=-8 --qmax=8 --n 801', 0, '', {'t.csv': 'c18aaf9133cc4e08d1bde4ec4096533784ed701b53998aad218ce9bfc69b6691'}),
    ('coherent --family harmonic --qmin=-8 --qmax=8 --n 801 --alpha 0.2+0.3i --emit plotscript', 0, '', {'r.txt': '0851386ecadb22e9dba54c5086b8133f9abcde80dd15eb0a0990093a8c8f2fe1', 't.csv': '80cbef7467e67413d579565dbd5e094ae660d05da2e4d9bdca29711e08188501', 't.csv.gp': '13a7b2474bd95c046099977ab0feb6b177ed2507a140ae8498eab89a3a32ee52'}),
    ('coherent --family harmonic --qmin=-8 --qmax=8 --n 801 --alpha 0.2+0.3i --tol product=x', 2, "error: non-numeric tolerance in 'product=x'\n", {}),
    ('verify --family harmonic --qmin=-8 --qmax=8 --n 801 --alphas 0,0.1,0.05+0.1i', 0, '', {'r.txt': '84255f35d603b71aa52b1f84f68461572c75008ece4eb842a55638def7b43611'}),
    ('verify --family harmonic --qmin=-40 --qmax=40 --n 16001 --alphas 0,0.1,0.05+0.1i,-0.1-0.2i', 0, '', {'r.txt': '10b5dba09aed911b60f254d429773682bec6aa722c28472257243d2b5802b9aa'}),
    # A huge imaginary part is refused by name: 1e+308i was "state overflows
    # float64; reduce |Re(alpha)|", the others "samples must all be finite".
    ('verify --family harmonic --qmin=-8 --qmax=8 --n 801 --alphas 0,1e300i,1e307i,1e308i', 1, '', {'r.txt': '87eff07ef175c2c64acab57355eb5d68cdaea5bf7b9b960a202d1143083c7c3f'}),
    ('verify --family kratzer --param c1=0.5 --qmin=-1.99 --qmax=40 --n 801 --alphas 0,0.1,2,-0.2', 1, '', {'r.txt': '1993b08121a6374b4b6b45b925d52c15d6a42e2ae3ad909de1a2b5555f9c3d98'}),
    ('coherent --family morse --param s=1 --param xe=0.5 --qmin=-3 --qmax=20 --n 801 --alpha 0.9', 2, 'error: sqrt(2) Re(alpha) = 1.27279 outside (-inf, 0.5); state not normalizable\n', {}),
    ('construct --family weihua --param c0=5 --param c1=1 --param c2=-0.3', 2, 'error: ground state not normalizable (coherent states need sqrt(2) Re(alpha) in (1.66667, 5)); give --qmin and --qmax\n', {}),
    ('construct --family weihua --param c0=5 --param c1=1 --param c2=-0.3 --qmin=-10 --qmax=10 --n 401', 0, 'warning: left grid edge does not cover the support; widen the grid\n', {'t.csv': 'ea7a2786e2df42809d8162d3a690cd0c56a02fb9e883657afe31367947cff2fc'}),
    # w beyond 1e154 there: x' is divided by w twice, not by w ** 2, which
    # overflowed with a numpy warning and left -0.0 in 108 rows.
    ('construct --family weihua --param c0=5 --param c1=1 --param c2=-0.3 --qmin=-400 --qmax=10 --n 1001', 0, 'warning: ground state overflows float64 on the grid; narrow the grid\n', {'t.csv': '942a28b067d496e6ea8959d31e27fb7a87c11f4b110faf74439e9702a2515439'}),
    ('coherent --family weihua --param c0=5 --param c1=1 --param c2=-0.3 --qmin=-30 --qmax=40 --n 1001 --alpha 2', 1, '', {'r.txt': '42bb9de44d049a5201e15c7f94d2dc2b32516b120a95bf0624481bdc746a8c86', 't.csv': 'eda34941bdf63bca4cd9ea1674eb66c2dd336ec99f598269cf79835da83b106c'}),
    ('verify --family weihua --param c0=5 --param c1=1 --param c2=-0.3 --qmin=-30 --qmax=40 --n 1001 --alphas 0,2,2.5', 1, '', {'r.txt': 'a5aec5346abbc7abbfc0975761b21dd8a7c4698cd2903b4e483506636111e28c'}),
    ('verify --family weihua --param c0=5 --param c1=1 --param c2=-0.3 --qmin=-30 --qmax=40 --n 1001 --alphas 2 --tol nope=1', 2, "error: unknown tolerance 'nope'\n", {}),
    ('generate --form linear --param c0=0.5 --param c1=1 --n 501 --emit plotscript', 0, '', {'t.csv': '974e66c0b76abb043ebed78c73e76a2c5d10ef3f7fafe0fdc20585c8ba85e9f2', 't.csv.gp': 'a35cf59031c98e63fd87214ee0db46a42c440fa2b8087f73cbe0f3a88209f7c8'}),
    # Recorded before table bodies were rendered in numpy. Deep tails: 144
    # zeros, 96 subnormals and 3,432 values in exponent notation; then inf,
    # -0.0 and e+299 next to numpy's documented overflow warnings.
    ('construct --family harmonic --qmin=-40 --qmax=40 --n 4001', 0, '', {'t.csv': '587253208613353a421eb0903cada6683cc1edad845c513feb30404c3290fe44'}),
    # x = -q squares past float64 on this grid: refused, where construct
    # wrote inf and NaN columns after numpy's overflow warnings.
    ('construct --family harmonic --qmin 0 --qmax 1e300 --n 5', 2, 'error: superpotential overflows float64 on the grid; narrow the grid\n', {}),
]


@pytest.mark.parametrize("argv, code, stderr, digests", _PINNED_EXPLICIT_GRIDS,
                         ids=[getattr(case, "values", case)[0] for case in _PINNED_EXPLICIT_GRIDS])
def test_explicit_grid_runs_are_pinned(tmp_path, capsys, argv, code, stderr, digests):
    argv = argv.split()
    argv += ["--report", str(tmp_path / "r.txt")] if argv[0] == "verify" else \
        ["--out", str(tmp_path / "t.csv")]
    if argv[0] == "coherent":
        argv += ["--report", str(tmp_path / "r.txt")]
    # Every warning goes to stderr as the command prints it, so one that a
    # case does not list fails the comparison below.
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda *args: sys.stderr.write(cli._warning_line(*args))
        assert run(*argv) == code
    assert capsys.readouterr().err == stderr
    prefix = str(tmp_path).encode()
    assert {
        p.name: hashlib.sha256(p.read_bytes().replace(prefix, b"")).hexdigest()
        for p in tmp_path.iterdir()
    } == digests


def _fit_rows(order, seed):
    """60 samples of a fixed expansion of the given order on a fixed r grid,
    each moved by a seeded perturbation of at most 1e-4 c0 (random.random
    gives the same sequence for a seed across Python versions)."""
    from anhosc.fit import ExpansionParams, eval_expansion

    params = ExpansionParams(r_e=1.2, s=0.1, c0=3.0, c_n=(-0.2, 0.15, -0.1)[:order])
    rng = random.Random(seed)
    r = np.linspace(0.8, 6.0, 60)
    v = eval_expansion(params, r)
    return [(a, b + 3e-4 * (2.0 * rng.random() - 1.0)) for a, b in zip(r, v)]


# (order, sample rows, SHA-256 of the sample file and the report
# with the output directory taken out), recorded when the fit moved to the
# parameters the data determine, (r_e (s + 1), c0, c_n).
_PINNED_FITS = [
    (0, _fit_rows(0, 1), {
        'd.csv': '21e36c6b4f4d3a2996dd3fb886838902e222d101775a41787b221cc809fd7b93',
        'f.txt': '8c0025a2484933f1ec36f42b765ef1172b7825e3c9d6cfd0cc96e356fa2df704'}),
    (1, _fit_rows(1, 2), {
        'd.csv': 'cd745db196bf4531285048bf19fbd04907f1911dfff7704253482946354834b7',
        'f.txt': '887580c024c5d287821ff1c7dd79d3520911293c04a38ad8c51e67577356625b'}),
    (2, _fit_rows(2, 3), {
        'd.csv': 'cd515fb3837efda9f767b5081a28bf63d42809d8a3aa5b54dfd8dfaf477b33b7',
        'f.txt': '25b79988f6fce98ed61a155b9629510e9a8e133c435475de7f6be105a6e22257'}),
    (3, _fit_rows(3, 4), {
        'd.csv': '5fca752e3663fc3bd9d6316d2f26b6868b964b32907ceb942ef8eeb4ada1d976',
        'f.txt': '77459962950aad31d111317f885367d80e2310f0f5f09529f2fa8448be9f7b67'}),
    (0, [(1.0, 0.5), (2.0, 0.1)], {
        'd.csv': 'b95d4e992c1e3fec07ff2cbf77d9d8c456f1dcfe0415a36ef350ebc44aac3bb3',
        'f.txt': 'bf4b26a753d8eed8a83474d77218f5f5496fb219d992fcf3fb0ed824d83f832d'}),
]


@pytest.mark.parametrize("order, rows, digests", _PINNED_FITS,
                         ids=[f"order{c[0]}-{len(c[1])}rows" for c in _PINNED_FITS])
def test_fit_reports_are_pinned(tmp_path, order, rows, digests):
    data = tmp_path / "d.csv"
    data.write_text("# r,v\n" + "".join(f"{float(r)!r},{float(v)!r}\n" for r, v in rows))
    assert run("fit", "--data", str(data), "--order", str(order),
               "--out", str(tmp_path / "f.txt")) == 0
    prefix = str(tmp_path).encode()
    assert {
        p.name: hashlib.sha256(p.read_bytes().replace(prefix, b"")).hexdigest()
        for p in tmp_path.iterdir()
    } == digests
