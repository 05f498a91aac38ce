"""Reference kernel that gauges how fast the host runs right now.

The benchmark shares a few cores of a host whose speed drifts by up to
~1.7x over minutes, as other tenants load it: a fixed job takes 1.7x the
CPU time when the host is busy, with no steal time to show for it. Job
times alone therefore say more about the neighbours than about anhosc.

The worker times this kernel next to the jobs and reports each time
scaled by ``REFERENCE_MS / kernel time``: the time the job would take
with the kernel at its reference speed. The kernel does the kinds of work
anhosc jobs do, so both slow down alike: scalar float loops (the RK4
generator, grid searches), shortest-repr float formatting (tables) and
numpy array arithmetic on a grid (sampling, stencils, Simpson). It does
not call anhosc, so a change to anhosc cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: CPU time of one kernel call on the host the benchmark was tuned on
#: (2 vCPU, "Intel(R) Xeon(R) Processor", 2.0 GHz as /proc/cpuinfo reports
#: it) while that host was otherwise idle.
REFERENCE_MS = 2.5

_GRID = np.linspace(-8.0, 8.0, 16001)


def _kernel() -> float:
    # Scalar floats: RK4 steps of y'' = -y.
    y, v, h = 1.0, 0.0, 1e-3
    for _ in range(1500):
        k1y, k1v = v, -y
        k2y, k2v = v + 0.5 * h * k1v, -(y + 0.5 * h * k1y)
        k3y, k3v = v + 0.5 * h * k2v, -(y + 0.5 * h * k2y)
        k4y, k4v = v + h * k3v, -(y + h * k3y)
        y += h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        v += h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    # Shortest-repr formatting of a table column.
    text = ",".join(repr(y * k + 0.1) for k in range(600))
    # Array arithmetic: sample, differentiate, integrate.
    total = 0.0
    for shift in (0.0, 0.5, 1.0, 1.5):
        psi = np.exp(-0.5 * (_GRID - shift) ** 2) * np.cos(_GRID)
        d2 = np.diff(psi, 2)
        total += float(np.sum(d2 * d2)) + float(np.sum(psi[:-1] * psi[1:]))
    return total + len(text)


def kernel_seconds() -> float:
    """CPU time of one kernel call."""
    start = time.thread_time()
    _kernel()
    return time.thread_time() - start


def reference_seconds(repeats: int) -> float:
    """Median CPU time of `repeats` kernel calls."""
    return statistics.median(kernel_seconds() for _ in range(repeats))
