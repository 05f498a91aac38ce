"""Damped least-squares fitting of the generalized Kratzer-Fues potential
expansion V(r) = c0 u^2 (1 + sum c_n u^n), u = (r - r_e(s+1))/r, to sampled
potential data, plus the convergence-radius bound of the expansion variable.

r_e and s enter the model only through the product m = r_e(s+1), so the
fitter solves for (m, c0, c_1..c_N) and keeps s at the start's value (0 without
an init), reporting r_e = m/(s+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InvalidParameterError,
    SingularJacobianError,
    UnderdeterminedError,
)

_RSS_REL_TOL = 1e-12
_STEP_TOL = 1e-12
_MAX_DAMPING = 1e12
_MAX_ITER = 500

# Lower bound keeping m = r_e(s+1) and c0 positive during iteration.
_FLOOR = 1e-12


@dataclass(frozen=True)
class PotentialSample:
    """One (internuclear distance, potential energy) pair in user units."""

    r: float
    v: float

    def __post_init__(self) -> None:
        if not (self.r > 0.0):
            raise InvalidParameterError(f"r must be positive, got {self.r!r}")
        if not math.isfinite(self.v):
            raise InvalidParameterError(f"v must be finite, got {self.v!r}")


@dataclass(frozen=True)
class ExpansionParams:
    """Parameters (r_e, s, c0, c_1..c_N) of the potential expansion."""

    r_e: float
    s: float
    c0: float
    c_n: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (self.r_e > 0.0):
            raise InvalidParameterError(f"r_e must be positive, got {self.r_e!r}")
        if not (self.s > -1.0):
            raise InvalidParameterError(f"s must exceed -1, got {self.s!r}")
        if not (self.c0 > 0.0):
            raise InvalidParameterError(f"c0 must be positive, got {self.c0!r}")
        object.__setattr__(self, "c_n", tuple(float(c) for c in self.c_n))

    @property
    def order(self) -> int:
        return len(self.c_n)


@dataclass(frozen=True)
class FitResult:
    params: ExpansionParams
    rss: float
    iterations: int
    converged: bool


def eval_expansion(params: ExpansionParams, r) -> float | np.ndarray:
    """V(r) = c0 u^2 (1 + sum_n c_n u^n) with u = (r - r_e(s+1))/r."""
    ra = np.asarray(r, dtype=float)
    if np.any(ra <= 0.0):
        raise InvalidParameterError("r must be positive")
    theta = _pack(params)
    v = _eval_raw(theta, ra)
    return v if np.ndim(r) else float(v)


def convergence_radius_lower(r_e: float, s: float) -> float:
    """Lower end r_e(s+1)/2 of the convergence-radius interval of the
    expansion variable; the admissible-r region grows as s decreases in
    (-1, 0)."""
    if not (r_e > 0.0):
        raise InvalidParameterError(f"r_e must be positive, got {r_e!r}")
    if not (s > -1.0):
        raise InvalidParameterError(f"s must exceed -1, got {s!r}")
    return r_e * (s + 1.0) / 2.0


def _pack(params: ExpansionParams) -> np.ndarray:
    """theta = (m, c0, c_1..c_N), the parameters the data determine."""
    return np.array([params.r_e * (params.s + 1.0), params.c0, *params.c_n], dtype=float)


def _unpack(theta: np.ndarray, s: float) -> ExpansionParams:
    return ExpansionParams(
        r_e=float(theta[0]) / (s + 1.0), s=s, c0=float(theta[1]),
        c_n=tuple(float(c) for c in theta[2:]),
    )


def _eval_raw(theta: np.ndarray, r: np.ndarray) -> np.ndarray:
    u = (r - theta[0]) / r
    series = np.ones_like(u)
    u_pow = np.ones_like(u)
    for c in theta[2:]:
        u_pow = u_pow * u
        series = series + c * u_pow
    return theta[1] * u * u * series


def _jacobian(theta: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Analytic derivatives of the model in all parameters, one column each
    in the order (m, c0, c_1..c_N)."""
    c0, cs = theta[1], theta[2:]
    u = (r - theta[0]) / r
    jac = np.empty((r.size, theta.size), dtype=float)

    series = np.ones_like(u)        # 1 + sum c_n u^n
    dseries = np.zeros_like(u)      # sum n c_n u^(n-1)
    u_pow = np.ones_like(u)         # u^(n-1) inside the loop
    for idx, c in enumerate(cs, start=1):
        dseries = dseries + idx * c * u_pow
        u_pow = u_pow * u
        series = series + c * u_pow
        jac[:, 1 + idx] = c0 * u * u * u_pow  # d/dc_n = c0 u^(2+n)

    dv_du = c0 * (2.0 * u * series + u * u * dseries)
    jac[:, 0] = -dv_du / r
    jac[:, 1] = u * u * series
    return jac


def _clamp(theta: np.ndarray) -> np.ndarray:
    out = theta.copy()
    out[:2] = np.maximum(out[:2], _FLOOR)  # m, c0
    return out


def _default_init(r: np.ndarray, v: np.ndarray, order: int) -> np.ndarray:
    """Starting point: m from the sampled minimum with a parabolic
    refinement, c0 from the large-r plateau, c_n = 0."""
    order_idx = np.argsort(r, kind="stable")
    r_sorted = r[order_idx]
    v_sorted = v[order_idx]
    imin = int(np.argmin(v_sorted))
    m0 = r_sorted[imin]
    if 0 < imin < r_sorted.size - 1:
        x0, x1, x2 = r_sorted[imin - 1: imin + 2]
        y0, y1, y2 = v_sorted[imin - 1: imin + 2]
        denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
        if denom != 0.0:
            a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
            b = (x2 * x2 * (y0 - y1) + x1 * x1 * (y2 - y0) + x0 * x0 * (y1 - y2)) / denom
            if a > 0.0:
                m0 = -b / (2.0 * a)
    m0 = max(m0, _FLOOR)
    top = max(1, r.size // 10)
    c0 = float(np.mean(v_sorted[-top:]))
    c0 = c0 if c0 > 0.0 else max(float(np.max(v)), _FLOOR)
    return np.array([m0, c0, *([0.0] * order)], dtype=float)


def fit_expansion(
    data: Sequence[PotentialSample], order: int = 0, init: ExpansionParams | None = None
) -> FitResult:
    """Fit the expansion of the given order to the samples.

    Gauss-Newton steps with an adaptive Marquardt damping parameter that is
    increased whenever a step would raise the residual sum of squares and
    decreased after success, so accepted steps never increase the rss.
    Converged means the relative rss change or the step norm fell below 1e-12
    within 500 iterations. The data fix only m = r_e(s+1): s stays at
    init.s (0.0 without init) and r_e = m/(s+1).
    """
    if order < 0:
        raise InvalidParameterError(f"order must be >= 0, got {order}")
    n_par = 2 + order
    if len(data) < n_par:
        raise UnderdeterminedError(
            f"{len(data)} samples cannot determine {n_par} parameters"
        )
    r = np.array([d.r for d in data], dtype=float)
    v = np.array([d.v for d in data], dtype=float)
    if np.unique(r).size < 2:
        raise UnderdeterminedError("all samples share one r value")
    if init is not None:
        if init.order != order:
            raise InvalidParameterError(
                f"init has order {init.order}, expected {order}"
            )
        theta, s = _pack(init), init.s
    else:
        theta, s = _default_init(r, v, order), 0.0

    res = _eval_raw(theta, r) - v
    rss = float(res @ res)
    lam = 1e-3
    iterations = 0
    converged = False
    for iterations in range(1, _MAX_ITER + 1):
        jac = _jacobian(theta, r)
        grad = jac.T @ res
        hess = jac.T @ jac
        scale = np.maximum(np.diag(hess), 1e-300)
        while True:
            try:
                step = np.linalg.solve(hess + lam * np.diag(scale), -grad)
            except np.linalg.LinAlgError:
                step = None
            if step is not None:
                cand = _clamp(theta + step)
                cand_res = _eval_raw(cand, r) - v
                cand_rss = float(cand_res @ cand_res)
                if math.isfinite(cand_rss) and cand_rss <= rss:
                    break
            lam *= 10.0
            if lam > _MAX_DAMPING:
                raise SingularJacobianError(
                    "damping reached its cap without finding a descent step"
                )
        step_norm = float(np.linalg.norm(cand - theta))
        rel_drop = (rss - cand_rss) / max(rss, 1e-300)
        theta, res, rss = cand, cand_res, cand_rss
        lam = max(lam / 10.0, 1e-14)
        if rel_drop < _RSS_REL_TOL or step_norm < _STEP_TOL:
            converged = True
            break

    return FitResult(
        params=_unpack(theta, s), rss=rss, iterations=iterations, converged=converged
    )
