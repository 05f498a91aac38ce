"""Uniform grids, composite-Simpson quadrature, five-point finite differences,
and a classical fixed-step fourth-order ODE integrator.

Operations leave their inputs unchanged, except where they are asked to
write in place: divide_in_place scales its samples, and the out= and
scratch= parameters name arrays to write into. Calls that share no array
written in place are safe to make concurrently from multiple threads.
"""

from __future__ import annotations

import cmath
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
        if not np.isfinite(values).all():
            raise InvalidParameterError("samples must all be finite")


def make_grid(q_min: float, q_max: float, n: int) -> Grid:
    """Build a uniform grid with n points on [q_min, q_max], endpoints included."""
    return Grid(float(q_min), float(q_max), int(n))


def _simpson(y: np.ndarray, h: float) -> complex | float:
    total = y[0] + y[-1] + 4.0 * np.add.reduce(y[1:-1:2]) + 2.0 * np.add.reduce(y[2:-2:2])
    result = total * (h / 3.0)
    return complex(result) if y.dtype.kind == "c" else float(result)


def integrate_samples(grid: Grid, values: np.ndarray) -> complex | float:
    """Composite-Simpson integral over the grid of real or complex samples,
    exact for polynomials up to degree three; InvalidParameterError unless
    there are grid.n samples, all finite. They are scanned only after a
    non-finite sum, since a finite sum proves them finite. Finite samples
    whose sum overflows are summed again under the caller's errstate, and
    that sum, inf or NaN, is returned."""
    y = np.asarray(values)
    if y.shape != (grid.n,):
        raise InvalidParameterError(f"expected {grid.n} samples, got shape {y.shape}")
    with np.errstate(all="ignore"):
        result = _simpson(y, grid.step)
    if cmath.isfinite(result):
        return result
    if not np.isfinite(y).all():
        raise InvalidParameterError("samples must all be finite")
    return _simpson(y, grid.step)


#: -0.0 viewed as an int64: the smallest int64, so a minimum finds any -0.0.
_NEGATIVE_ZERO = np.iinfo(np.int64).min


def _product_is_quotient(parts: np.ndarray, r: float) -> bool:
    """True when parts * r rounds, and raises floating-point flags, as
    numpy's complex division by c = 1/r does: every part finite, none -0.0,
    and no product beyond float64."""
    lo, hi = float(np.minimum.reduce(parts)), float(np.maximum.reduce(parts))  # NaN propagates
    return (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(max(-lo, hi) * r)
            and int(np.minimum.reduce(parts.view(np.int64))) != _NEGATIVE_ZERO)


def divide_in_place(values: np.ndarray, c: float) -> np.ndarray:
    """values /= c for a positive float c, rounded as numpy's complex division.

    numpy divides a complex re + i im by a real c as ((re + im 0) (1/c),
    (im - re 0) (1/c)), Smith's algorithm (R. L. Smith, CACM 5 (1962) 435)
    with a zero imaginary divisor. That is re (1/c), im (1/c) bit for bit
    unless a part is -0.0 (-0.0 + 0.0 is +0.0) or not finite (inf 0 is NaN),
    so a complex array is scaled through its float64 view, and divided only
    when it holds such a part or a product would overflow. A real array is
    scaled by 1/c: the real part of its complex quotient up to the sign of a
    zero.
    """
    if values.dtype.kind != "c":
        return np.multiply(values, 1.0 / c, out=values)
    parts = values.view(np.float64)
    if c > 0.0 and _product_is_quotient(parts, 1.0 / c):
        np.multiply(parts, 1.0 / c, out=parts)
        return values
    return np.divide(values, c, out=values)


def differentiate_samples(
    grid: Grid,
    values: np.ndarray,
    order: int = 1,
    *,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """First or second derivative of real or complex samples by five-point
    stencils, central in the interior and one-sided at the two points next
    to each edge: exact up to degree four, error O(h^4), O(h^3) at the four
    edge points of the second derivative. InvalidParameterError for another
    order or a sample count other than grid.n. The samples are not scanned:
    a non-finite result is left to integrate_samples to refuse.

    The bits are the written-out stencils' divided by 12 h or 12 h^2: the
    interior is accumulated in place with one scratch array, in the
    expression's operation order, then divided with divide_in_place, so real
    samples round as the real part of their complex cast. out (the result)
    and scratch are arrays of the samples' shape and dtype, neither of them
    values, to write into.
    """
    if order not in (1, 2):
        raise InvalidParameterError(f"derivative order must be 1 or 2, got {order}")
    y = np.asarray(values)
    if y.shape != (grid.n,):
        raise InvalidParameterError(f"expected {grid.n} samples, got shape {y.shape}")
    h = grid.step
    d = np.empty_like(y) if out is None else out
    mid = d[2:-2]
    scratch = np.empty_like(mid) if scratch is None else scratch[2:-2]
    if order == 1:
        # (y[:-4] - 8 y[1:-3] + 8 y[3:-1] - y[4:]) / (12 h)
        np.subtract(y[:-4], np.multiply(8.0, y[1:-3], out=scratch), out=mid)
        np.add(mid, np.multiply(8.0, y[3:-1], out=scratch), out=mid)
        np.subtract(mid, y[4:], out=mid)
        d[0] = -25.0 * y[0] + 48.0 * y[1] - 36.0 * y[2] + 16.0 * y[3] - 3.0 * y[4]
        d[1] = -3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[4]
        d[-2] = 3.0 * y[-1] + 10.0 * y[-2] - 18.0 * y[-3] + 6.0 * y[-4] - y[-5]
        d[-1] = 25.0 * y[-1] - 48.0 * y[-2] + 36.0 * y[-3] - 16.0 * y[-4] + 3.0 * y[-5]
        divisor = 12.0 * h
    else:
        # (-y[:-4] + 16 y[1:-3] - 30 y[2:-2] + 16 y[3:-1] - y[4:]) / (12 h^2),
        # the first sum written 16 y[1:-3] - y[:-4]: the same IEEE result.
        np.subtract(np.multiply(16.0, y[1:-3], out=mid), y[:-4], out=mid)
        np.subtract(mid, np.multiply(30.0, y[2:-2], out=scratch), out=mid)
        np.add(mid, np.multiply(16.0, y[3:-1], out=scratch), out=mid)
        np.subtract(mid, y[4:], out=mid)
        d[0] = 35.0 * y[0] - 104.0 * y[1] + 114.0 * y[2] - 56.0 * y[3] + 11.0 * y[4]
        d[1] = 11.0 * y[0] - 20.0 * y[1] + 6.0 * y[2] + 4.0 * y[3] - y[4]
        d[-2] = 11.0 * y[-1] - 20.0 * y[-2] + 6.0 * y[-3] + 4.0 * y[-4] - y[-5]
        d[-1] = 35.0 * y[-1] - 104.0 * y[-2] + 114.0 * y[-3] - 56.0 * y[-4] + 11.0 * y[-5]
        divisor = 12.0 * h * h
    return divide_in_place(d, divisor)


def solve_first_order_ode(
    rhs: Callable[[float], float], x0: float, grid: Grid
) -> SampledFunction:
    """Integrate the autonomous dx/dq = rhs(x) from q_min with x(q_min) = x0.

    Classical fourth-order Runge-Kutta, one step of grid.step per grid
    interval; global error is O(step^4).

    Raises InvalidParameterError for a start beyond |x| = 1e150, and
    DivergenceError when the trajectory leaves that range, which signals a
    pole of x(q).
    """
    if not math.isfinite(x0):
        raise InvalidParameterError("initial value must be finite")
    if abs(x0) > _ODE_OVERFLOW:
        raise InvalidParameterError(
            f"initial value {x0!r} outside the integrator's range |x| <= {_ODE_OVERFLOW:g}"
        )
    h = grid.step
    half, sixth, limit = 0.5 * h, h / 6.0, _ODE_OVERFLOW
    x = float(x0)
    out = np.empty(grid.n, dtype=float)
    out[0] = x
    try:
        for i in range(1, grid.n):
            k1 = rhs(x)
            k2 = rhs(x + half * k1)
            k3 = rhs(x + half * k2)
            k4 = rhs(x + h * k3)
            x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not -limit <= x <= limit:  # false for NaN too
                raise DivergenceError(_diverged_near(grid, i))
            out[i] = x
    except (OverflowError, ZeroDivisionError) as exc:
        raise DivergenceError(_diverged_near(grid, i)) from exc
    return SampledFunction(grid, out)


def _diverged_near(grid: Grid, i: int) -> str:
    # q at the start of step i, from its index, so that no rounding drift builds up.
    q = grid.q_min + (i - 1) * grid.step
    return f"trajectory diverged near q={q:.6g} (pole of x(q))"


def ode_step_halving_error(
    rhs: Callable[[float], float], x0: float, grid: Grid
) -> float:
    """Max absolute difference between full-step and half-step integrations.

    A cheap a-posteriori error estimate for solve_first_order_ode on the same
    grid: the half-step run, on the grid's 2n - 1 point refinement and
    compared at every other point, is roughly sixteen times more accurate.
    """
    full = solve_first_order_ode(rhs, x0, grid)
    fine = make_grid(grid.q_min, grid.q_max, 2 * grid.n - 1)
    half = solve_first_order_ode(rhs, x0, fine).values[::2]
    return float(np.max(np.abs(full.values - half)))
