"""Output checks: each job's files against the library on the same inputs.

A check rebuilds the job's library calls from its structured inputs, not
from the CLI, and compares:

- the exit code with the ``result:``/``converged:`` lines of the output;
- each report section with ``VerificationReport.to_text()``;
- every table column, parsed back to float64, with the library's values.

It returns the residuals of every identity check, as (name, value,
tolerance, passed), so that a run keeps its accuracy next to its timings.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from anhosc.fit import PotentialSample, fit_expansion
from anhosc.generator import (
    FORM_CONSTANT,
    GeneratingSeries,
    closed_form_from_series,
    superpotential_from_series,
)
from anhosc.models import (
    closed_form_potential,
    describe,
    eval_superpotential,
    eval_superpotential_derivative,
)
from anhosc.numerics import make_grid
from anhosc.states import auto_grid, coherent_state, ground_state, is_admissible, normalize
from anhosc.verify import (
    Tolerances,
    VerificationReport,
    format_complex,
    verify_coherent,
    verify_model,
)

from inputs import Job, build_model


@dataclass
class Outcome:
    ok: bool = True
    problems: list[str] = field(default_factory=list)
    checks: list[tuple[str, float, float, bool]] = field(default_factory=list)
    residuals: dict[str, float] = field(default_factory=dict)

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.ok = False
            self.problems.append(message)

    def add_report(self, report: VerificationReport) -> None:
        self.checks.extend(report.checks)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _table(text: str) -> tuple[list[str], np.ndarray]:
    """Column names and values of a CSV table with '#' header lines."""
    body = [line for line in text.splitlines() if not line.startswith("#")]
    rows = [[float(cell) for cell in line.split(",")] for line in body[1:]]
    return body[0].split(","), np.array(rows, dtype=float)


def _expect_columns(out: Outcome, text: str, names: list[str], columns: list[np.ndarray]) -> None:
    header, values = _table(text)
    out.expect(header == names, f"columns {header} != {names}")
    if header != names:
        return
    out.expect(values.shape == (columns[0].size, len(names)), f"table shape {values.shape}")
    if values.shape != (columns[0].size, len(names)):
        return
    for idx, (name, expected) in enumerate(zip(names, columns)):
        out.expect(np.array_equal(values[:, idx], expected), f"column {name} differs")


def _expect_rc(out: Outcome, rc: int, passed: bool) -> None:
    out.expect(rc == (0 if passed else 1), f"exit code {rc} but outputs say passed={passed}")


def _check_verify(job: Job, rc: int, out: Outcome) -> None:
    spec = job.spec
    model = build_model(spec["family"], spec["params"])
    tol = Tolerances()

    def grid_for(alpha: complex):
        if spec["grid"] is not None:
            return make_grid(spec["grid"][0], spec["grid"][1], spec["n"])
        return auto_grid(model, alpha=alpha, n=spec["n"])

    expected = []
    passed = True
    report = verify_model(model, grid_for(0j), tol)
    out.add_report(report)
    passed &= report.passed
    expected.append(report.to_text())
    for alpha in spec["alphas"]:
        if not is_admissible(model, alpha):
            expected.append(f"model: {describe(model)}\nalpha: {format_complex(alpha)}\n"
                            "result: skipped (inadmissible)\n")
            continue
        report = verify_coherent(model, alpha, grid_for(alpha), tol)
        out.add_report(report)
        passed &= report.passed
        expected.append(report.to_text())
    sections = _read(job.outputs[0]).split("---\n")
    out.expect(len(sections) == len(expected), f"{len(sections)} sections, expected {len(expected)}")
    for idx, (got, want) in enumerate(zip(sections, expected)):
        out.expect(got == want, f"report section {idx} differs from the library's")
    said_pass = all("result: FAIL" not in section for section in sections)
    out.expect(said_pass == passed, "report result lines disagree with the library")
    _expect_rc(out, rc, said_pass)


def _check_construct(job: Job, rc: int, out: Outcome) -> None:
    model = build_model(job.spec["family"], job.spec["params"])
    grid = auto_grid(model)
    q = grid.points()
    columns = [
        q,
        eval_superpotential(model, q),
        eval_superpotential_derivative(model, q),
        closed_form_potential(model, q),
        ground_state(model).sample(grid).values.real,
    ]
    text = _read(job.outputs[0])
    out.expect(f"# model: {describe(model)}\n" in text, "model header differs")
    _expect_columns(out, text, ["q", "x", "dx_dq", "v_minus_e0", "psi0"], columns)
    _expect_rc(out, rc, True)


def _check_coherent(job: Job, rc: int, out: Outcome) -> None:
    model = build_model(job.spec["family"], job.spec["params"])
    alpha = job.spec["alpha"]
    grid = auto_grid(model, alpha=alpha)
    values = normalize(coherent_state(model, alpha), grid).sample(grid).values
    columns = [grid.points(), values.real, values.imag, np.abs(values) ** 2]
    _expect_columns(out, _read(job.outputs[0]), ["q", "psi_re", "psi_im", "abs2"], columns)
    report = verify_coherent(model, alpha, grid, Tolerances())
    out.add_report(report)
    text = _read(job.outputs[1])
    out.expect(text == report.to_text(), "report differs from the library's")
    _expect_rc(out, rc, "result: pass\n" in text)


def _check_generate(job: Job, rc: int, out: Outcome) -> None:
    params = job.spec["params"]
    series = GeneratingSeries(form=job.spec["form"], c0=params.get("c0", 0.0),
                              c1=params.get("c1", 0.0), c2=params.get("c2", 0.0))
    grid = make_grid(0.0, job.spec["qmax"], job.spec["n"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        numeric = superpotential_from_series(series, grid).values
    closed = eval_superpotential(closed_form_from_series(series), grid.points())
    if series.form == FORM_CONSTANT:
        closed = closed + series.initial_value()
    out.residuals["max_deviation"] = float(np.max(np.abs(numeric - closed)))
    _expect_columns(out, _read(job.outputs[0]), ["q", "x_numeric", "x_closed"],
                    [grid.points(), numeric, closed])
    _expect_rc(out, rc, True)


def _check_fit(job: Job, rc: int, out: Outcome) -> None:
    samples = []
    for line in _read(job.spec["data"]).splitlines():
        if line and not line.startswith("#"):
            r, v = line.split(",")
            samples.append(PotentialSample(float(r), float(v)))
    result = fit_expansion(samples, order=job.spec["order"])
    p = result.params
    expected = {"r_e": p.r_e, "s": p.s, "c0": p.c0, "equilibrium": p.r_e * (p.s + 1.0),
                "rss": result.rss, "iterations": result.iterations,
                "converged": "true" if result.converged else "false"}
    expected.update({f"c{idx}": c for idx, c in enumerate(p.c_n, start=1)})
    got = {}
    for line in _read(job.outputs[0]).splitlines():
        key, _, value = line.strip().partition(": ")
        if key in expected:
            got[key] = value
    for key, want in expected.items():
        value = got.get(key)
        if isinstance(want, str) or value is None:
            out.expect(value == want, f"fit {key}: {value} != {want}")
        elif isinstance(want, int):
            out.expect(int(value) == want, f"fit {key}: {value} != {want}")
        else:
            out.expect(float(value) == want, f"fit {key}: {value} != {want!r}")
    out.residuals["rss"] = result.rss
    out.residuals["iterations"] = result.iterations
    _expect_rc(out, rc, got.get("converged") == "true")


_CHECKERS = {
    "verify": _check_verify,
    "construct": _check_construct,
    "coherent": _check_coherent,
    "generate": _check_generate,
    "fit": _check_fit,
}


def check_job(job: Job, rc: int) -> Outcome:
    """Compare the files a job left behind with the library's results."""
    out = Outcome()
    try:
        _CHECKERS[job.kind](job, rc, out)
    except (OSError, ValueError, IndexError) as exc:
        out.expect(False, f"unreadable output: {exc!r}")
    return out
