"""Machine-checkable verification of the analytic identities behind the
oscillator construction: Riccati consistency, ground-state annihilation,
the stationary Schroedinger residual, commutator action, coherent-state
eigenvalue relation, expectation identities, and uncertainty minimization.

Reports are plain data; identical inputs produce identical reports.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ._format import fmt_complex as format_complex
from ._format import fmt_float
from .errors import InvalidParameterError
from .models import OscillatorModel, describe
from .numerics import Grid, SampledFunction, differentiate_samples, integrate_samples
from .states import (
    ANNIHILATION,
    CREATION,
    SQRT2,
    GridFields,
    Workspace,
    grid_fields,
    l2_norm_of,
    ladder_values,
    require_admissible,
    workspace_for,
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
        for f in dataclasses.fields(self):
            if not (getattr(self, f.name) > 0.0):
                raise InvalidParameterError(f"tolerance {f.name} must be positive")


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
        for name in _RESIDUALS:
            value = getattr(self, name)
            if value is not None:
                out.append(f"  {name}: {fmt_float(value)}")
        out.append("checks:")
        for name, value, tol, ok in self.checks:
            status = "pass" if ok else "FAIL"
            out.append(f"  {name}: {status} (value={fmt_float(value)}, tolerance={fmt_float(tol)})")
        out.append(f"result: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(out) + "\n"


#: The residual fields of a report, in the order to_text() lists them.
_RESIDUALS = tuple(f.name for f in dataclasses.fields(VerificationReport)[3:-1])


def _check(name: str, value: float, tol: float) -> tuple[str, float, float, bool]:
    return (name, float(value), float(tol), bool(value < tol))


def _moment(grid: Grid, conj_psi: np.ndarray, acted: np.ndarray, out: np.ndarray) -> complex:
    """<psi| O |psi> by Simpson quadrature, from conj(psi) and samples of O psi;
    the product conj(psi) O psi is formed in out, which may be acted."""
    return complex(integrate_samples(grid, np.multiply(conj_psi, acted, out=out)))


def _fields_for(model: OscillatorModel, grid: Grid, fields: GridFields | None) -> GridFields:
    if fields is None:
        return grid_fields(model, grid)
    if fields.model != model or fields.grid != grid:
        raise InvalidParameterError("fields were sampled for another model or grid")
    return fields


def verify_model(
    model: OscillatorModel,
    grid: Grid,
    tolerances: Tolerances | None = None,
    *,
    fields: GridFields | None = None,
) -> VerificationReport:
    """Model-level identities at alpha = 0.

    Fills the Riccati residual (closed-form potential against (x^2 + x')/2
    with analytic derivatives), the ground-state annihilation and Schroedinger
    residuals, and the commutator action residual on a neutral Gaussian test
    function centered in the grid. q, x, x' and log psi0 come from fields,
    the grid_fields() record of (model, grid), built here when not given; x'
    serves both the Riccati combination and the commutator term, x all ladder
    applications. The closed-form potential is evaluated once.

    psi0, the probe and its ladder images have zero imaginary parts, so they
    are float64 here.
    """
    tol = tolerances or Tolerances()
    fields = _fields_for(model, grid, fields)
    q, x, xp = fields.q, fields.x, fields.xp
    v = fields.potential()

    riccati = float(np.max(np.abs(v - 0.5 * (x * x + xp))))

    # Normalization doubles as the truncation-sufficiency gate for the grid.
    psi0 = fields.normalized()[0].values
    norm0 = l2_norm_of(grid, psi0)
    ann = l2_norm_of(grid, ladder_values(differentiate_samples(grid, psi0), x * psi0,
                                         ANNIHILATION)) / norm0

    d2 = differentiate_samples(grid, psi0, 2)
    sch = l2_norm_of(grid, -0.5 * d2 + v * psi0) / norm0
    del d2, v, psi0

    # Commutator action on a Gaussian test function. The ground state is a
    # bad probe here (A-dagger-A annihilates it), and a narrow centered
    # Gaussian keeps both grid edges and any domain pole out of play.
    center = 0.5 * (grid.q_min + grid.q_max)
    sigma = (grid.q_max - grid.q_min) / 20.0
    phi = np.exp(-0.5 * ((q - center) / sigma) ** 2)
    dphi = differentiate_samples(grid, phi)
    x_phi = x * phi
    up = ladder_values(dphi, x_phi, CREATION)
    down = ladder_values(dphi, x_phi, ANNIHILATION)
    del dphi, x_phi
    a_adag = ladder_values(differentiate_samples(grid, up), x * up, ANNIHILATION)
    del up
    adag_a = ladder_values(differentiate_samples(grid, down), x * down, CREATION)
    del down
    comm = l2_norm_of(grid, (a_adag - adag_a) + xp * phi) / l2_norm_of(grid, phi)

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
    *,
    fields: GridFields | None = None,
    normalized: SampledFunction | None = None,
    workspace: Workspace | None = None,
) -> VerificationReport:
    """Coherent-state identities for one admissible alpha.

    Forms and normalizes psi_alpha once from fields, the grid_fields()
    record of (model, grid), built here when not given, then checks on those
    samples the eigenvalue relation, the sign-corrected first-moment
    identities, the quadratic-moment identities, Delta x = Delta p, and the
    uncertainty product against the independently integrated quarter-squared
    commutator expectation. A caller that already holds the samples of
    fields.normalized(alpha) passes them as normalized, and psi_alpha is
    not formed again.

    Every full-size array is one of workspace's, a Workspace of the grid's
    point count (a new one when None): a sweep that passes one workspace to
    each of its alphas allocates them once. The report is the same either way.
    """
    tol = tolerances or Tolerances()
    alpha = complex(alpha)
    require_admissible(model, alpha)
    fields = _fields_for(model, grid, fields)
    workspace = workspace_for(grid, workspace)
    if normalized is None:
        normalized = fields.normalized(alpha, workspace=workspace)[0]
    if normalized.grid != grid:
        raise InvalidParameterError("normalized samples were taken on another grid")
    psi = normalized.values
    x = fields.x
    d1, work, residual = workspace.work(0), workspace.work(1), workspace.work(2)
    real = workspace.real()

    norm = l2_norm_of(grid, psi, scratch=real)
    # Three work arrays beside psi: the stencils skip the finiteness scan (a
    # non-finite derivative reaches integrate_samples, which refuses it), and
    # x psi is formed again rather than kept.
    differentiate_samples(grid, psi, 1, out=d1, scratch=work)
    ladder_values(d1, np.multiply(x, psi, out=work), ANNIHILATION, out=residual)
    np.subtract(residual, np.multiply(alpha, psi, out=work), out=residual)
    eig = l2_norm_of(grid, residual, scratch=real) / norm

    # Position-like observables multiply by x, x^2 or x'; p and p^2 act as
    # -i d/dq and -d^2/dq^2, whose -i and -1 scale the moments exactly.
    # conj(psi) stays the first operand: numpy fuses the imaginary part of a
    # complex product, so the order sets its bits. Each product is formed in
    # an array no longer needed: the residual's, then the second derivative's.
    conj_psi = np.conj(psi, out=work)
    work = residual
    ex = _moment(grid, conj_psi, np.multiply(x, psi, out=work), work)
    ex2 = _moment(grid, conj_psi, np.multiply(np.square(x, out=real), psi, out=work), work)
    ep = -1j * _moment(grid, conj_psi, d1, work)
    d2 = differentiate_samples(grid, psi, 2, out=d1, scratch=work)
    ep2 = -_moment(grid, conj_psi, d2, d2)
    # x' psi is -[A, A^dagger] psi bit for bit: negation is exact.
    exp_prime = _moment(grid, conj_psi, np.multiply(fields.xp, psi, out=d2), d2)

    var_x = (ex2 - ex ** 2).real
    var_p = (ep2 - ep ** 2).real
    delta_x = math.sqrt(max(var_x, 0.0))
    delta_p = math.sqrt(max(var_p, 0.0))
    product = var_x * var_p
    bound = 0.25 * exp_prime.real ** 2
    # <x'> underflows to a zero bound on a grid that does not resolve the
    # state: an honest failure of the check, not a division by zero.
    product_rel = abs(product - bound) / abs(bound) if bound != 0.0 else math.inf

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
