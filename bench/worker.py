"""One workload run in a fresh interpreter; started by run.py.

Set-up (interpreter start, import, input generation, one warm-up job) ends
with a line ``ready <set-up CPU seconds> <reference kernel seconds>`` on
stdout, from which run.py scales set-up time to the reference speed. The
worker then runs whole passes of the job pool in a closed loop with one
client until --seconds of job time have passed, times the reference kernel
after every job, checks every job's outputs outside its timed window, and
writes its results as JSON to --result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from speed import REFERENCE_MS, kernel_seconds, reference_seconds


#: An untraced run goes on past --seconds until this many jobs lie beyond
#: the p95, so that the p95 rests on enough samples.
MIN_BEYOND_P95 = 10


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True)
    return parser.parse_args()


def _environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": {key: os.environ.get(key) for key in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


class Runner:
    """Runs pool jobs, keeps their timings and compares repeated outputs."""

    def __init__(self, pool, recorder) -> None:
        from anhosc.cli import main

        self.main = main
        self.pool = pool
        self.recorder = recorder
        self.jobs: list[dict] = []
        self.first: dict[int, tuple[int, str]] = {}
        self.stderr = io.StringIO()

    def run(self, job, traced: bool, timed: bool = True) -> None:
        job_id = len(self.jobs)
        error = None
        real_stderr, sys.stderr = sys.stderr, self.stderr
        try:
            start, cpu_start = time.perf_counter(), time.thread_time()
            try:
                if traced:
                    rc = self.recorder.run_job(job_id, self.main, list(job.argv))
                else:
                    rc = self.main(list(job.argv))
            finally:
                cpu = time.thread_time() - cpu_start
                wall = time.perf_counter() - start
        except Exception:  # a job that raises is an error, the run goes on
            rc, error = None, traceback.format_exc()
        finally:
            sys.stderr = real_stderr
        stderr_lines = len(self.stderr.getvalue().splitlines())
        self.stderr.seek(0)
        self.stderr.truncate()
        digest = _digest(job.outputs) if error is None else ""
        first = self.first.setdefault(job.slot, (rc, digest))
        if error is None and (rc == 2 or first != (rc, digest)):
            error = f"exit code {rc}" if rc == 2 else "output differs from the slot's first run"
        if timed:
            self.jobs.append({"slot": job.slot, "cpu_s": cpu, "wall_s": wall,
                              "kernel_s": kernel_seconds(), "rc": rc, "traced": traced,
                              "error": error, "stderr_lines": stderr_lines})

    def run_passes(self, seconds: float, trace: bool) -> list[set[int]]:
        """Whole pool passes until the jobs have taken `seconds` of wall
        time and, untraced, at least MIN_BEYOND_P95 jobs lie beyond the p95;
        with tracing, passes alternate untraced and traced.

        Each job's time ("seconds") is its CPU time scaled to the reference
        speed by the median reference-kernel time of its pass (speed.py).
        """
        traced_passes: list[set[int]] = []
        traced = False
        busy = 0.0
        while (busy < seconds or (trace and not traced_passes)
               or (not trace and _beyond_p95(self.jobs) < MIN_BEYOND_P95)):
            if traced:
                self.recorder.install()
            first_id = len(self.jobs)
            try:
                for job in self.pool:
                    self.run(job, traced)
            finally:
                if traced:
                    self.recorder.uninstall()
            done = self.jobs[first_id:]
            scale = REFERENCE_MS * 1e-3 / statistics.median(j["kernel_s"] for j in done)
            for j in done:
                j["seconds"] = j["cpu_s"] * scale
            if traced:
                traced_passes.append(set(range(first_id, len(self.jobs))))
            busy += sum(j["wall_s"] for j in done)
            traced = trace and not traced
        return traced_passes


def _percentile(sorted_values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[rank - 1]


def _beyond_p95(jobs: list[dict]) -> int:
    if not jobs:
        return 0
    times = sorted(j["seconds"] for j in jobs)
    p95 = _percentile(times, 95)
    return sum(1 for t in times if t > p95)


def _rate(jobs: list[dict]) -> float:
    return len(jobs) / sum(j["seconds"] for j in jobs)


def _accuracy(outcomes: dict) -> dict:
    """Identity checks of one pass of the pool; every pass repeats them."""
    checks = [c for outcome in outcomes.values() for c in outcome.checks]
    passed = sum(1 for *_, ok in checks if ok)
    return {
        "checks_evaluated": len(checks),
        "checks_passed_ratio": passed / len(checks) if checks else 1.0,
        "checks_failed_ratio": 1.0 - passed / len(checks) if checks else 0.0,
        "worst_check_ratio": max((value / tol for _, value, tol, _ in checks), default=0.0),
    }


def _end_to_end(runner: Runner, errors: int, outcomes: dict, rss_mb: float) -> dict:
    times = sorted(j["seconds"] for j in runner.jobs)
    return {
        "jobs_per_ref_s": _rate(runner.jobs),
        "job_p50_ref_ms": 1e3 * statistics.median(times),
        "job_p95_ref_ms": 1e3 * _percentile(times, 95),
        "job_p50_wall_ms": 1e3 * statistics.median(j["wall_s"] for j in runner.jobs),
        "job_p50_cpu_ms": 1e3 * statistics.median(j["cpu_s"] for j in runner.jobs),
        "kernel_p50_ms": 1e3 * statistics.median(j["kernel_s"] for j in runner.jobs),
        "job_p95_beyond": _beyond_p95(runner.jobs),
        "job_samples": len(times),
        "error_ratio": errors / len(times),
        "job_ok_ratio": 1.0 - errors / len(times),
        "peak_rss_mb": rss_mb,
        **_accuracy(outcomes),
    }


def main() -> int:
    args = _parse_args()
    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    import anhosc

    if not Path(anhosc.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"anhosc imported from {anhosc.__file__}, not from {root / 'src'}")
    from check import check_job
    from inputs import inputs_digest, make_pool
    from spans import SpanRecorder, layer_metrics

    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=Path(args.result).parent))
    try:
        pool = make_pool(args.workload, args.seed, scratch)
        recorder = SpanRecorder()
        runner = Runner(pool, recorder)
        runner.run(pool[0], traced=False, timed=False)  # warm-up
        setup_cpu = time.process_time()
        print(f"ready {setup_cpu!r} {reference_seconds(9)!r}", flush=True)
        if args.setup_only:
            return 0

        traced_passes = runner.run_passes(args.seconds, bool(args.trace))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outcomes = {job.slot: check_job(job, runner.first[job.slot][0]) for job in pool}
        bytes_per_pass = sum(os.path.getsize(p) for job in pool for p in job.outputs)
        failed = sum(1 for j in runner.jobs if j["error"] or not outcomes[j["slot"]].ok)
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "environment": _environment(),
            "inputs_sha256": inputs_digest(pool, scratch),
            "argv": [[a.replace(str(scratch), "<scratch>") for a in job.argv] for job in pool],
            "slots": {slot: {"ok": o.ok, "problems": o.problems, "checks": o.checks,
                             "residuals": o.residuals} for slot, o in outcomes.items()},
            "jobs": runner.jobs,
            "correct": failed == 0,
            "attempted": len(runner.jobs),
            "failed": failed,
        }
        if args.trace:
            untraced = [j for j in runner.jobs if not j["traced"]]
            traced = [j for j in runner.jobs if j["traced"]]
            result["metrics"] = layer_metrics(
                recorder.spans, traced_passes[0], bytes_per_pass,
                _rate(traced) / _rate(untraced))
            result["metrics"]["verify.worst_check_ratio"] = _accuracy(outcomes)["worst_check_ratio"]
            result["spans"] = recorder.to_json()
        else:
            result["metrics"] = _end_to_end(runner, failed, outcomes, rss_mb)
        Path(args.result).write_text(json.dumps(result, default=repr))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
