"""Uniform grids, composite-Simpson quadrature, five-point finite differences,
and a classical fixed-step fourth-order ODE integrator.

All operations are pure functions of immutable inputs and are safe to call
concurrently from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, InvalidParameterError

#: Trajectories beyond this magnitude are treated as divergent.
_ODE_OVERFLOW = 1e150


@dataclass(frozen=True)
class Grid:
    """Uniform discretization of [q_min, q_max] with an odd number of points.

    The odd point count is a composite-Simpson requirement; five points is the
    minimum for the boundary difference stencils.
    """

    q_min: float
    q_max: float
    n: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.q_min) and math.isfinite(self.q_max)):
            raise InvalidParameterError("grid endpoints must be finite")
        if self.q_min >= self.q_max:
            raise InvalidParameterError(
                f"invalid range: q_min={self.q_min!r} must be < q_max={self.q_max!r}"
            )
        if self.n < 5 or self.n % 2 == 0:
            raise InvalidParameterError(
                f"invalid count: n must be odd and >= 5, got {self.n}"
            )

    @property
    def step(self) -> float:
        return (self.q_max - self.q_min) / (self.n - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.q_min, self.q_max, self.n)


@dataclass(frozen=True)
class SampledFunction:
    """Values of a real- or complex-valued function on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n,):
            raise InvalidParameterError(
                f"expected {self.grid.n} samples, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidParameterError("samples must all be finite")


def make_grid(q_min: float, q_max: float, n: int) -> Grid:
    """Build a uniform grid with n points on [q_min, q_max], endpoints included."""
    return Grid(float(q_min), float(q_max), int(n))


def integrate_simpson(f: SampledFunction) -> complex | float:
    """Composite-Simpson approximation of the integral of f over its grid.

    Exact for polynomials up to degree three on any valid grid.
    """
    y = f.values
    h = f.grid.step
    total = y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()
    result = total * (h / 3.0)
    return complex(result) if np.iscomplexobj(y) else float(result)


def differentiate(f: SampledFunction, order: int = 1) -> SampledFunction:
    """First or second derivative by five-point stencils.

    Central differences in the interior (O(step^4) accurate) and one-sided
    five-point stencils at the two points next to each boundary, so edge error
    stays high-order. The interior is accumulated in place with one scratch
    array, in the operation order of the written-out expression.
    """
    if order not in (1, 2):
        raise InvalidParameterError(f"derivative order must be 1 or 2, got {order}")
    y = f.values
    h = f.grid.step
    d = np.empty_like(y)
    mid = d[2:-2]
    scratch = np.empty_like(mid)
    if order == 1:
        # (y[:-4] - 8 y[1:-3] + 8 y[3:-1] - y[4:]) / (12 h)
        np.subtract(y[:-4], np.multiply(8.0, y[1:-3], out=scratch), out=mid)
        np.add(mid, np.multiply(8.0, y[3:-1], out=scratch), out=mid)
        np.subtract(mid, y[4:], out=mid)
        np.divide(mid, 12.0 * h, out=mid)
        d[0] = (-25.0 * y[0] + 48.0 * y[1] - 36.0 * y[2] + 16.0 * y[3] - 3.0 * y[4]) / (12.0 * h)
        d[1] = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[4]) / (12.0 * h)
        d[-2] = (3.0 * y[-1] + 10.0 * y[-2] - 18.0 * y[-3] + 6.0 * y[-4] - y[-5]) / (12.0 * h)
        d[-1] = (25.0 * y[-1] - 48.0 * y[-2] + 36.0 * y[-3] - 16.0 * y[-4] + 3.0 * y[-5]) / (12.0 * h)
    else:
        hh = 12.0 * h * h
        # (-y[:-4] + 16 y[1:-3] - 30 y[2:-2] + 16 y[3:-1] - y[4:]) / hh, the
        # first sum written 16 y[1:-3] - y[:-4]: the same IEEE result.
        np.subtract(np.multiply(16.0, y[1:-3], out=mid), y[:-4], out=mid)
        np.subtract(mid, np.multiply(30.0, y[2:-2], out=scratch), out=mid)
        np.add(mid, np.multiply(16.0, y[3:-1], out=scratch), out=mid)
        np.subtract(mid, y[4:], out=mid)
        np.divide(mid, hh, out=mid)
        d[0] = (35.0 * y[0] - 104.0 * y[1] + 114.0 * y[2] - 56.0 * y[3] + 11.0 * y[4]) / hh
        d[1] = (11.0 * y[0] - 20.0 * y[1] + 6.0 * y[2] + 4.0 * y[3] - y[4]) / hh
        d[-2] = (11.0 * y[-1] - 20.0 * y[-2] + 6.0 * y[-3] + 4.0 * y[-4] - y[-5]) / hh
        d[-1] = (35.0 * y[-1] - 104.0 * y[-2] + 114.0 * y[-3] - 56.0 * y[-4] + 11.0 * y[-5]) / hh
    return SampledFunction(f.grid, d)


def solve_first_order_ode(
    rhs: Callable[[float, float], float],
    x0: float,
    grid: Grid,
    substeps: int = 1,
) -> SampledFunction:
    """Integrate dx/dq = rhs(q, x) from q_min with x(q_min) = x0.

    Classical fourth-order Runge-Kutta with a fixed step of grid.step/substeps;
    global error is O(step^4). Raising substeps lets callers form their own
    step-halving error estimates (see ode_step_halving_error).

    Raises InvalidParameterError for a start beyond |x| = 1e150, and
    DivergenceError when the trajectory leaves that range, which signals a
    pole of x(q).
    """
    if substeps < 1:
        raise InvalidParameterError("substeps must be >= 1")
    if not math.isfinite(x0):
        raise InvalidParameterError("initial value must be finite")
    if abs(x0) > _ODE_OVERFLOW:
        raise InvalidParameterError(
            f"initial value {x0!r} outside the integrator's range |x| <= {_ODE_OVERFLOW:g}"
        )
    h = grid.step / substeps
    x = float(x0)
    out = np.empty(grid.n, dtype=float)
    out[0] = x
    for i in range(1, grid.n):
        # Resync q each outer step so accumulated float drift cannot build up.
        q = grid.q_min + (i - 1) * grid.step
        for k in range(substeps):
            qk = q + k * h
            try:
                k1 = rhs(qk, x)
                k2 = rhs(qk + 0.5 * h, x + 0.5 * h * k1)
                k3 = rhs(qk + 0.5 * h, x + 0.5 * h * k2)
                k4 = rhs(qk + h, x + h * k3)
                x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            except (OverflowError, ZeroDivisionError) as exc:
                raise DivergenceError(
                    f"trajectory diverged near q={qk:.6g} (pole of x(q))"
                ) from exc
            if not math.isfinite(x) or abs(x) > _ODE_OVERFLOW:
                raise DivergenceError(
                    f"trajectory diverged near q={qk:.6g} (pole of x(q))"
                )
        out[i] = x
    return SampledFunction(grid, out)


def ode_step_halving_error(
    rhs: Callable[[float, float], float], x0: float, grid: Grid
) -> float:
    """Max absolute difference between full-step and half-step integrations.

    A cheap a-posteriori error estimate for solve_first_order_ode on the same
    grid; the half-step solution is roughly sixteen times more accurate.
    """
    full = solve_first_order_ode(rhs, x0, grid, substeps=1)
    half = solve_first_order_ode(rhs, x0, grid, substeps=2)
    return float(np.max(np.abs(full.values - half.values)))
