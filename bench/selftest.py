"""Quick self-test of the benchmark. Run from the root of a source checkout:

    python3 bench/selftest.py

It checks that
- every metric named in BENCHMARK.json is reported, with its unit, and the
  outputs of every job pass their checks;
- counts and residuals repeat exactly for one seed (states.auto_grid.calls,
  verify.checks, fit.iterations, worst_check_ratio) and so do the inputs;
- another seed generates other inputs;
- without the sources next to it the benchmark fails and prints no result.
Each run measures for half a second, or until ten jobs lie beyond the p95
(about 20 s on dense_sweep), so the timings mean nothing here.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REPEATED = ("states.auto_grid.calls", "verify.checks", "fit.iterations",
            "verify.worst_check_ratio")
failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout


def result(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The printed summary and the full results file of one run."""
    code, stdout = bench(workload, seed, trace)
    expect(code == 0, f"{workload} seed {seed} trace {trace} exits 0")
    summary = json.loads(stdout.splitlines()[-1])
    full = json.loads((ROOT / ".bench_out" / f"{workload}_seed{seed}_trace{trace}.json").read_text())
    return summary, full


def check_metrics(workload: str, summary: dict, kind: str) -> None:
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in summary["metrics"].items()}
    expect(got == want, f"{workload}: every {kind} metric reported with its unit")
    expect(summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1,
           f"{workload}: outputs correct, {summary['attempted']} jobs, none failed")


def main() -> int:
    for workload in WORKLOADS:
        summary, plain = result(workload, 7, 0)
        check_metrics(workload, summary, "end_to_end")
        first, traced = result(workload, 7, 1)
        check_metrics(workload, first, "per_layer")
        second, again = result(workload, 7, 1)
        for name in REPEATED:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            expect(a == b, f"{workload}: {name} repeats for one seed ({a})")
        worst = first["metrics"]["verify.worst_check_ratio"]["value"]
        expect(plain["metrics"]["worst_check_ratio"] == worst,
               f"{workload}: worst_check_ratio agrees between plain and traced runs")
        expect(plain["inputs_sha256"] == traced["inputs_sha256"] == again["inputs_sha256"],
               f"{workload}: one seed gives the same inputs")
        _, other = result(workload, 8, 1)
        expect(other["inputs_sha256"] != traced["inputs_sha256"],
               f"{workload}: another seed gives other inputs")

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, stdout = bench(WORKLOADS[0], 1, 0, cwd=bare)
        expect(code != 0 and not stdout.strip(),
               "without the sources the benchmark fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
