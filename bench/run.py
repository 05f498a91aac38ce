"""anhosc benchmark: jobs of the ``anhosc`` CLI, end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload verify_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh single-threaded child interpreter (bench/
worker.py) that imports ``anhosc`` from ``src/``. With ``--trace 0`` the
last stdout line is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run instead.
``--workload all`` prints every metric of every workload as a table.
Full results (environment, argv, every job's timing and residuals, spans)
go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path

from speed import REFERENCE_MS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify_sweep", "dense_sweep", "tables")

#: Set-up is timed this many times per run and reported as the median.
SETUP_REPEATS = 7

#: A child that has not finished by then is killed.
CHILD_DEADLINE_S = 150.0

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def _child(root: Path, args, result: Path, setup_only: bool) -> tuple[float, float]:
    """Start a worker; return its set-up CPU time and its set-up time scaled
    to the reference speed (speed.py). Raise if it fails."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **THREAD_ENV)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=root)
    watchdog = threading.Timer(CHILD_DEADLINE_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline().split()
        proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if len(line) != 3 or line[0] != "ready" or code != 0:
        raise RuntimeError(f"worker for {args.workload} exited with code {code}")
    cpu, kernel = float(line[1]), float(line[2])
    return cpu, cpu * REFERENCE_MS * 1e-3 / kernel


def run_workload(root: Path, args) -> dict:
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    result = out / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    result.unlink(missing_ok=True)
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(_child(root, args, result, setup_only=True))
    setups.append(_child(root, args, result, setup_only=False))
    data = json.loads(result.read_text())
    data["setup_cpu_s_runs"] = [cpu for cpu, _ in setups]
    data["setup_s_runs"] = [scaled for _, scaled in setups]
    if not args.trace:
        data["metrics"]["setup_s"] = statistics.median(data["setup_s_runs"])
    result.write_text(json.dumps(data))
    return data


def _summary(data: dict, names: list[str], units: dict[str, str]) -> dict:
    return {
        "correct": bool(data["correct"]),
        "attempted": int(data["attempted"]),
        "failed": int(data["failed"]),
        "metrics": {name: {"value": data["metrics"][name], "unit": units[name]}
                    for name in names},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "anhosc" / "cli.py").is_file():
        print(f"error: no anhosc sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in metrics]
    units = {m["name"]: m["unit"] for m in metrics}

    every = args.workload == "all"
    workloads = WORKLOADS if every else (args.workload,)
    summaries = {}
    for workload in workloads:
        args.workload = workload
        try:
            data = run_workload(root, args)
        except (RuntimeError, OSError, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        summaries[workload] = _summary(data, names, units)
        m = data["metrics"]
        if not args.trace:
            print(f"{workload}: {m['job_samples']} timed jobs, {m['job_p95_beyond']} beyond p95, "
                  f"{m['checks_evaluated']} checks per pass, error_ratio {m['error_ratio']}, "
                  f"checks_failed_ratio {m['checks_failed_ratio']}, worst_check_ratio {m['worst_check_ratio']}; "
                  f"unscaled job p50 {m['job_p50_wall_ms']:.2f} ms wall, {m['job_p50_cpu_ms']:.2f} ms CPU, "
                  f"reference kernel p50 {m['kernel_p50_ms']:.3f} ms")

    if not every:
        print(json.dumps(summaries[workloads[0]]))
        return 0
    print(f"{'workload':<14} {'metric':<46} {'value':>16} unit")
    for workload, summary in summaries.items():
        for name, metric in summary["metrics"].items():
            print(f"{workload:<14} {name:<46} {metric['value']:>16.6g} {metric['unit']}")
        print(f"{workload:<14} {'correct':<46} {str(summary['correct']):>16}")
    return 0 if all(s["correct"] for s in summaries.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
