"""Seeded job pools for the benchmark workloads.

A job is one ``anhosc.cli.main(argv)`` call that writes its table or report
into the run's scratch directory. ``make_pool(workload, seed, outdir)``
returns the fixed list of jobs that one pass of a run executes, in order.
The seed draws every parameter, alpha and sample value. The structure of a
pool (subcommands, families, grid sizes) is the same for every seed, so the
mix of work, and with it the throughput, changes little from seed to seed.

Parameter boxes sit near the README desk models and inside each family's
valid region, so no job is refused for its inputs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

from anhosc.families import (
    make_generalized_kratzer_fues,
    make_generalized_morse,
    make_harmonic,
    make_kratzer_fues,
    make_wei_hua,
)
from anhosc.fit import ExpansionParams
from anhosc.models import OscillatorModel
from anhosc.states import auto_grid

WORKLOADS = ("verify_sweep", "dense_sweep", "tables")
FAMILIES = ("harmonic", "morse", "weihua", "kratzer", "gkf")
FORMS = ("constant", "linear", "parabolic", "squared_linear")

# dense_sweep runs one of its ten slots on the large grid. That keeps the
# p95 inside the large-grid jobs while a 30 s run still puts ten or more
# jobs beyond it; the other nine give the p50 its small-grid population.
DENSE_SLOTS = 10
DENSE_LARGE = (3,)
DENSE_N = (16001, 64001)


@dataclass(frozen=True)
class Job:
    """One CLI call plus the structured inputs the output check rebuilds."""

    slot: int
    kind: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    spec: dict = field(default_factory=dict)


def build_model(family: str, params: dict[str, float]) -> OscillatorModel:
    """Model for a CLI ``--family``/``--param`` pair, built from the library."""
    if family == "harmonic":
        return make_harmonic()
    if family == "morse":
        return make_generalized_morse(params["s"], params["xe"])
    if family == "weihua":
        return make_wei_hua(params["c0"], params["c1"], params["c2"])
    if family == "kratzer":
        return make_kratzer_fues(params["c1"])
    return make_generalized_kratzer_fues(params["c0"], params["c1"])


def format_alpha(alpha: complex) -> str:
    """CLI spelling of a complex number: 'a', 'a+bi' or 'a-bi'."""
    if alpha.imag == 0.0:
        return repr(alpha.real)
    sign = "+" if alpha.imag > 0 else "-"
    return f"{alpha.real!r}{sign}{abs(alpha.imag)!r}i"


def _near(rng: random.Random, centre: float, width: float) -> float:
    return round(rng.uniform(centre * (1.0 - width), centre * (1.0 + width)), 4)


def _family_params(rng: random.Random, family: str) -> dict[str, float]:
    if family == "harmonic":
        return {}
    if family == "morse":
        return {"s": _near(rng, 1.0, 0.1), "xe": _near(rng, 0.5, 0.1)}
    if family == "weihua":
        return {"c0": _near(rng, 0.2, 0.1), "c1": _near(rng, 1.0, 0.05),
                "c2": _near(rng, 0.5, 0.1)}
    if family == "kratzer":
        return {"c1": _near(rng, 0.5, 0.1)}
    return {"c0": _near(rng, 0.7, 0.1), "c1": _near(rng, 0.5, 0.1)}


def _param_argv(params: dict[str, float]) -> list[str]:
    out: list[str] = []
    for key, value in params.items():
        out += ["--param", f"{key}={value!r}"]
    return out


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _sweep_alphas(rng: random.Random) -> list[complex]:
    """Real, negative, complex, and a real part past every family's
    admissibility bound (the harmonic oscillator has none, so there it is
    a large admissible alpha)."""
    sign = rng.choice((1.0, -1.0))
    return [
        complex(_draw(rng, 0.02, 0.08), 0.0),
        complex(_draw(rng, -0.3, -0.05), 0.0),
        complex(_draw(rng, -0.05, 0.05), sign * _draw(rng, 0.05, 0.3)),
        complex(_draw(rng, 1.5, 2.0), 0.0),
    ]


def _verify_job(slot: int, outdir: Path, family: str, params: dict, alphas: list[complex],
                n: int, grid: tuple[float, float] | None = None) -> Job:
    report = str(outdir / f"job{slot:02d}_report.txt")
    argv = ["verify", "--family", family, *_param_argv(params),
            "--alphas=" + ",".join(format_alpha(a) for a in alphas), "--n", str(n)]
    if grid is not None:
        argv += [f"--qmin={grid[0]!r}", f"--qmax={grid[1]!r}"]
    argv += ["--report", report]
    spec = {"family": family, "params": params, "alphas": alphas, "n": n, "grid": grid}
    return Job(slot, "verify", tuple(argv), (report,), spec)


def _verify_sweep(rng: random.Random, outdir: Path) -> list[Job]:
    # Every family at both auto-grid sizes, twice: 20 slots. At n=2001 the
    # Wei Hua model fails checks whose tolerances were tuned for n=4001;
    # those are reported check failures, not job errors.
    jobs = []
    for slot in range(20):
        family = FAMILIES[slot % 5]
        n = (2001, 4001)[(slot // 5) % 2]
        jobs.append(_verify_job(slot, outdir, family, _family_params(rng, family),
                                _sweep_alphas(rng), n))
    return jobs


def widest_grid(family: str, params: dict, alphas: list[complex]) -> tuple[float, float]:
    """Union of the auto grids for alpha = 0 and every alpha of the job."""
    model = build_model(family, params)
    grids = [auto_grid(model, alpha) for alpha in [0j, *alphas]]
    return (min(g.q_min for g in grids), max(g.q_max for g in grids))


def _dense_sweep(rng: random.Random, outdir: Path) -> list[Job]:
    jobs = []
    for slot in range(DENSE_SLOTS):
        family = FAMILIES[slot % 5]
        params = _family_params(rng, family)
        alphas = [complex(_draw(rng, -0.2, 0.08), 0.0) for _ in range(2)]
        alphas += [complex(_draw(rng, -0.2, 0.08), _draw(rng, -0.3, 0.3)) for _ in range(6)]
        n = DENSE_N[1] if slot in DENSE_LARGE else DENSE_N[0]
        grid = widest_grid(family, params, alphas)
        jobs.append(_verify_job(slot, outdir, family, params, alphas, n, grid))
    return jobs


def _generate_params(rng: random.Random, form: str) -> dict[str, float]:
    if form == "constant":
        return {}
    if form == "linear":
        return {"c0": _near(rng, 0.5, 0.1), "c1": _near(rng, 1.0, 0.1)}
    if form == "parabolic":
        return {"c0": _near(rng, 0.2, 0.1), "c1": _near(rng, 1.0, 0.05),
                "c2": _near(rng, 0.5, 0.1)}
    return {"c0": _near(rng, 0.7, 0.1), "c1": _near(rng, 0.5, 0.1)}


def _expansion_samples(rng: random.Random, order: int) -> list[tuple[float, float]]:
    """200 noisy (r, V) samples of the Kratzer-Fues potential expansion."""
    params = ExpansionParams(
        r_e=_draw(rng, 1.1, 1.3), s=_draw(rng, 0.05, 0.15), c0=_draw(rng, 2.7, 3.3),
        c_n=tuple(_draw(rng, -0.3, 0.3) for _ in range(order)),
    )
    rows = []
    for r in sorted(rng.uniform(0.8, 6.0) for _ in range(200)):
        u = (r - params.r_e * (params.s + 1.0)) / r
        series = 1.0 + sum(c * u ** k for k, c in enumerate(params.c_n, start=1))
        v = params.c0 * u * u * series + rng.gauss(0.0, 1e-4 * params.c0)
        rows.append((r, v))
    return rows


def _tables(rng: random.Random, outdir: Path) -> list[Job]:
    # Equal mix of the four file-writing subcommands, five of each, in
    # rotation: construct and coherent over the five families, generate
    # over the four series forms, fit over orders 0 to 3.
    jobs = []
    for k in range(5):
        family = FAMILIES[k]
        params = _family_params(rng, family)
        slot = len(jobs)
        out = str(outdir / f"job{slot:02d}_construct.csv")
        argv = ["construct", "--family", family, *_param_argv(params), "--out", out]
        jobs.append(Job(slot, "construct", tuple(argv), (out,),
                        {"family": family, "params": params}))

        family = FAMILIES[(k + 2) % 5]
        params = _family_params(rng, family)
        alpha = complex(_draw(rng, -0.1, 0.05), _draw(rng, -0.3, 0.3))
        slot = len(jobs)
        out = str(outdir / f"job{slot:02d}_coherent.csv")
        report = str(outdir / f"job{slot:02d}_report.txt")
        argv = ["coherent", "--family", family, *_param_argv(params),
                f"--alpha={format_alpha(alpha)}", "--out", out, "--report", report]
        jobs.append(Job(slot, "coherent", tuple(argv), (out, report),
                        {"family": family, "params": params, "alpha": alpha}))

        form = FORMS[k % 4]
        params = _generate_params(rng, form)
        slot = len(jobs)
        out = str(outdir / f"job{slot:02d}_generate.csv")
        argv = ["generate", "--form", form, *_param_argv(params), "--n", "5001", "--out", out]
        jobs.append(Job(slot, "generate", tuple(argv), (out,),
                        {"form": form, "params": params, "n": 5001, "qmax": 5.0}))

        order = k % 4
        rows = _expansion_samples(rng, order)
        slot = len(jobs)
        data = outdir / f"job{slot:02d}_samples.csv"
        data.write_text("# r,v\n" + "".join(f"{r!r},{v!r}\n" for r, v in rows))
        out = str(outdir / f"job{slot:02d}_fit.txt")
        argv = ["fit", "--data", str(data), "--order", str(order), "--out", out]
        jobs.append(Job(slot, "fit", tuple(argv), (out,),
                        {"data": str(data), "order": order}))
    return jobs


def make_pool(workload: str, seed: int, outdir: Path) -> list[Job]:
    """The jobs of one pass of ``workload``; fit sample files go to outdir."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify_sweep":
        return _verify_sweep(rng, outdir)
    if workload == "dense_sweep":
        return _dense_sweep(rng, outdir)
    if workload == "tables":
        return _tables(rng, outdir)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def inputs_digest(pool: list[Job], outdir: Path) -> str:
    """Hash of every argv and sample file, with the scratch path taken out."""
    h = hashlib.sha256()
    prefix = str(outdir)
    for job in pool:
        h.update("\0".join(job.argv).replace(prefix, "").encode())
        if job.kind == "fit":
            h.update(Path(job.spec["data"]).read_bytes())
    return h.hexdigest()

