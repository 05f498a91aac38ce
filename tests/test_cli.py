"""Command-line contract: exit codes, file formats, byte stability."""

import numpy as np
import pytest

from anhosc.cli import main, parse_complex
from anhosc.errors import InvalidParameterError


def run(*argv):
    return main(list(argv))


def read(path):
    return path.read_bytes()


def data_rows(path):
    lines = path.read_text().splitlines()
    return [l for l in lines if l and not l.startswith("#")][1:]  # skip column header


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
                   "--param", "c1=1", "--param", "c2=0.5", "--grid", "auto",
                   "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert "W=1.4" in text

    def test_byte_stable(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ("construct", "--family", "kratzer", "--param", "c1=0.5", "--grid", "auto")
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert read(a) == read(b)

    def test_unknown_family(self, tmp_path):
        assert run("construct", "--family", "poschl", "--out", str(tmp_path / "x.csv")) == 2

    def test_loose_explicit_grid_warns(self, tmp_path, capsys):
        code = run("construct", "--family", "harmonic", "--qmin", "-1", "--qmax", "1",
                   "--n", "101", "--out", str(tmp_path / "h.csv"))
        assert code == 0
        assert "edge magnitude exceeds" in capsys.readouterr().err

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
        ("verify", "--family", "harmonic", "--alphas", "0.1", "--emit", "report", "--report"),
        ("generate", "--form", "linear", "--param", "c0=0.5", "--param", "c1=1",
         "--emit", "report", "--out"),
    ])
    def test_flags_without_effect_are_rejected(self, tmp_path, capsys, argv):
        # construct takes no tolerances and no subcommand writes an extra
        # report for --emit, so argparse refuses both before any work.
        out = tmp_path / "o.txt"
        assert run(*argv, str(out)) == 2
        expected = "unrecognized arguments: --tol" if "--tol" in argv else "invalid choice: 'report'"
        assert expected in capsys.readouterr().err
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

    def test_inadmissible_alpha(self, tmp_path):
        code = run("coherent", "--family", "morse", "--param", "s=1", "--param", "xe=0.5",
                   "--alpha", "0.5+0i", "--out", str(tmp_path / "c.csv"),
                   "--report", str(tmp_path / "c.txt"))
        assert code == 2

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

    def test_failing_model_grid_is_usage_error(self, tmp_path):
        # The alpha = 0 grid serves the model-level checks; its failure still
        # aborts the run.
        assert run("verify", "--family", "harmonic", "--alphas", "0.1",
                   "--qmin", "-1", "--qmax", "1", "--n", "101",
                   "--report", str(tmp_path / "r.txt")) == 2

    def test_empty_alpha_list(self, tmp_path):
        assert run("verify", "--family", "harmonic", "--alphas", ",",
                   "--report", str(tmp_path / "r.txt")) == 2


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

    def test_two_rows_underdetermined(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("1.0,0.5\n2.0,0.1\n")
        assert run("fit", "--data", str(data), "--out", str(tmp_path / "f.txt")) == 2

    def test_header_only_file(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("# r,v\n")
        assert run("fit", "--data", str(data), "--out", str(tmp_path / "f.txt")) == 2

    def test_malformed_file(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("1.0,0.5\nnot,numbers\n")
        assert run("fit", "--data", str(data), "--out", str(tmp_path / "f.txt")) == 2

    def test_missing_file(self, tmp_path):
        assert run("fit", "--data", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "f.txt")) == 2
