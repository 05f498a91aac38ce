"""Machine-checkable verification of the analytic identities behind the
oscillator construction: Riccati consistency, ground-state annihilation,
the stationary Schroedinger residual, commutator action, coherent-state
eigenvalue relation, expectation identities, and uncertainty minimization.

Reports are plain data; identical inputs produce identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ._format import fmt_complex as format_complex
from ._format import fmt_float
from .errors import InvalidParameterError
from .models import (
    OscillatorModel,
    closed_form_potential,
    commutator_value,
    describe,
    eval_superpotential,
    eval_superpotential_derivative,
)
from .numerics import Grid, SampledFunction, differentiate, integrate_simpson
from .states import (
    ANNIHILATION,
    CREATION,
    SQRT2,
    coherent_state,
    ground_state,
    l2_norm,
    ladder_values,
    normalized_samples,
)


@dataclass(frozen=True)
class Tolerances:
    """Check thresholds; riccati and the expectation identities are absolute,
    the rest relative. Defaults are tuned for n = 4001 auto-truncated grids."""

    riccati: float = 1e-8
    annihilation: float = 1e-6
    eigenstate: float = 1e-6
    schrodinger: float = 1e-5
    product: float = 1e-4
    expectation: float = 1e-5
    commutator: float = 1e-5
    uncertainty_equality: float = 1e-6

    def __post_init__(self) -> None:
        for f in fields(self):
            if not (getattr(self, f.name) > 0.0):
                raise InvalidParameterError(f"tolerance {f.name} must be positive")


def default_tolerances() -> Tolerances:
    return Tolerances()


@dataclass(frozen=True)
class VerificationReport:
    """Named residuals with their thresholds and pass flags.

    checks is an ordered tuple of (name, value, tolerance, passed); alpha is
    None for the model-level report.
    """

    model: str
    alpha: complex | None
    grid: Grid
    riccati_max_abs: float | None = None
    annihilation_rel: float | None = None
    schrodinger_rel: float | None = None
    commutator_action_rel: float | None = None
    eigenstate_rel: float | None = None
    delta_x: float | None = None
    delta_p: float | None = None
    product: float | None = None
    bound: float | None = None
    product_rel_err: float | None = None
    exp_x_err: float | None = None
    exp_p_err: float | None = None
    exp_x2_err: float | None = None
    exp_p2_err: float | None = None
    checks: tuple[tuple[str, float, float, bool], ...] = ()

    @property
    def passed(self) -> bool:
        return all(ok for _, _, _, ok in self.checks)

    def to_text(self) -> str:
        """Key-value tree with deterministic ordering and lossless floats."""
        out = [f"model: {self.model}"]
        out.append(f"alpha: {format_complex(self.alpha)}" if self.alpha is not None else "alpha: none")
        out.append("grid:")
        out.append(f"  q_min: {fmt_float(self.grid.q_min)}")
        out.append(f"  q_max: {fmt_float(self.grid.q_max)}")
        out.append(f"  n: {self.grid.n}")
        out.append("residuals:")
        for f in fields(self):
            if f.name in ("model", "alpha", "grid", "checks"):
                continue
            value = getattr(self, f.name)
            if value is not None:
                out.append(f"  {f.name}: {fmt_float(value)}")
        out.append("checks:")
        for name, value, tol, ok in self.checks:
            status = "pass" if ok else "FAIL"
            out.append(f"  {name}: {status} (value={fmt_float(value)}, tolerance={fmt_float(tol)})")
        out.append(f"result: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(out) + "\n"


def _check(name: str, value: float, tol: float) -> tuple[str, float, float, bool]:
    return (name, float(value), float(tol), bool(value < tol))


def _moment(grid: Grid, conj_psi: np.ndarray, acted: np.ndarray) -> complex:
    """<psi| O |psi> by Simpson quadrature, from conj(psi) and samples of O psi."""
    return complex(integrate_simpson(SampledFunction(grid, conj_psi * acted)))


def verify_model(
    model: OscillatorModel, grid: Grid, tolerances: Tolerances | None = None
) -> VerificationReport:
    """Model-level identities at alpha = 0.

    Fills the Riccati residual (closed-form potential against (x^2 + x')/2
    with analytic derivatives), the ground-state annihilation and Schroedinger
    residuals, and the commutator action residual on a neutral Gaussian test
    function centered in the grid. The ground state, the closed-form
    potential, x(q) and x'(q) are evaluated once each: x' serves both the
    Riccati combination and the commutator term, x all ladder applications.
    """
    tol = tolerances or default_tolerances()
    q = grid.points()
    x = eval_superpotential(model, q)
    xp = eval_superpotential_derivative(model, q)
    v = closed_form_potential(model, q)

    riccati = float(np.max(np.abs(v - 0.5 * (x * x + xp))))

    # Normalization doubles as the truncation-sufficiency gate for the grid.
    s0, _ = normalized_samples(ground_state(model), grid)
    psi0 = s0.values
    norm0 = l2_norm(s0)
    d1 = differentiate(s0, 1).values
    ann = l2_norm(SampledFunction(grid, ladder_values(d1, x * psi0, ANNIHILATION))) / norm0
    del d1

    d2 = differentiate(s0, 2).values
    sch = l2_norm(SampledFunction(grid, -0.5 * d2 + v * psi0)) / norm0
    del d2, v, s0, psi0

    # Commutator action on a Gaussian test function. The ground state is a
    # bad probe here (A-dagger-A annihilates it), and a narrow centered
    # Gaussian keeps both grid edges and any domain pole out of play.
    center = 0.5 * (grid.q_min + grid.q_max)
    sigma = (grid.q_max - grid.q_min) / 20.0
    phi = SampledFunction(grid, np.exp(-0.5 * ((q - center) / sigma) ** 2).astype(complex))
    dphi = differentiate(phi, 1).values
    x_phi = x * phi.values
    up = SampledFunction(grid, ladder_values(dphi, x_phi, CREATION))
    a_adag = ladder_values(differentiate(up, 1).values, x * up.values, ANNIHILATION)
    del up
    down = SampledFunction(grid, ladder_values(dphi, x_phi, ANNIHILATION))
    del dphi, x_phi
    adag_a = ladder_values(differentiate(down, 1).values, x * down.values, CREATION)
    del down, x
    comm = l2_norm(SampledFunction(grid, (a_adag - adag_a) + xp * phi.values)) / l2_norm(phi)

    checks = (
        _check("riccati", riccati, tol.riccati),
        _check("annihilation", ann, tol.annihilation),
        _check("schrodinger", sch, tol.schrodinger),
        _check("commutator_action", comm, tol.commutator),
    )
    return VerificationReport(
        model=describe(model),
        alpha=None,
        grid=grid,
        riccati_max_abs=riccati,
        annihilation_rel=ann,
        schrodinger_rel=sch,
        commutator_action_rel=comm,
        checks=checks,
    )


def verify_coherent(
    model: OscillatorModel,
    alpha: complex,
    grid: Grid,
    tolerances: Tolerances | None = None,
) -> VerificationReport:
    """Coherent-state identities for one admissible alpha.

    Samples and normalizes psi_alpha once on the grid, then checks on those
    samples the eigenvalue relation, the sign-corrected first-moment
    identities, the quadratic-moment identities, Delta x = Delta p, and the
    uncertainty product against the independently integrated quarter-squared
    commutator expectation.
    """
    tol = tolerances or default_tolerances()
    alpha = complex(alpha)
    s, _ = normalized_samples(coherent_state(model, alpha), grid)
    psi = s.values
    q = grid.points()

    norm = l2_norm(s)
    d1 = differentiate(s, 1).values
    x = eval_superpotential(model, q)
    x_psi = x * psi
    eig = l2_norm(SampledFunction(grid, ladder_values(d1, x_psi, ANNIHILATION) - alpha * psi)) / norm

    # Position-like observables multiply by x, x^2 or x'; p and p^2 act as
    # -i d/dq and -d^2/dq^2 on the same samples.
    conj_psi = np.conj(psi)
    ex = _moment(grid, conj_psi, x_psi)
    del x_psi
    ex2 = _moment(grid, conj_psi, x ** 2 * psi)
    del x
    ep = _moment(grid, conj_psi, -1j * d1)
    del d1
    ep2 = _moment(grid, conj_psi, -differentiate(s, 2).values)
    exp_prime = _moment(grid, conj_psi, -commutator_value(model, q) * psi)

    var_x = (ex2 - ex ** 2).real
    var_p = (ep2 - ep ** 2).real
    delta_x = math.sqrt(max(var_x, 0.0))
    delta_p = math.sqrt(max(var_p, 0.0))
    product = var_x * var_p
    bound = 0.25 * exp_prime.real ** 2
    product_rel = abs(product - bound) / abs(bound)

    two_re = alpha + alpha.conjugate()
    two_im = alpha - alpha.conjugate()
    exp_x_err = abs(ex - (-two_re / SQRT2))
    exp_p_err = abs(ep - (-1j * two_im / SQRT2))
    exp_x2_err = abs(2.0 * ex2 - (two_re ** 2 - exp_prime))
    exp_p2_err = abs(-2.0 * ep2 - (two_im ** 2 + exp_prime))

    checks = (
        _check("eigenstate", eig, tol.eigenstate),
        _check("uncertainty_equality", abs(delta_x - delta_p), tol.uncertainty_equality),
        _check("product", product_rel, tol.product),
        _check("exp_x", exp_x_err, tol.expectation),
        _check("exp_p", exp_p_err, tol.expectation),
        _check("exp_x2", exp_x2_err, tol.expectation),
        _check("exp_p2", exp_p2_err, tol.expectation),
    )
    return VerificationReport(
        model=describe(model),
        alpha=alpha,
        grid=grid,
        eigenstate_rel=eig,
        delta_x=delta_x,
        delta_p=delta_p,
        product=product,
        bound=bound,
        product_rel_err=product_rel,
        exp_x_err=exp_x_err,
        exp_p_err=exp_p_err,
        exp_x2_err=exp_x2_err,
        exp_p2_err=exp_p2_err,
        checks=checks,
    )
