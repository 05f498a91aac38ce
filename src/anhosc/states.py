"""Ground states, coherent states, ladder-operator application, normalization,
expectation values, and automatic grid truncation.

Ground states solve A psi0 = 0, i.e. psi0 = exp(integral of x), fixed to
psi0(0) = 1. Coherent states are psi0 * exp(sqrt(2) alpha q). Wavefunction
objects are immutable and hold no samples, which keeps concurrent use
trivially safe; callers that derive several quantities from one state on one
grid sample it once with normalized_samples() and work on those arrays.

Only exp(sqrt(2) alpha q) depends on alpha, so grid_fields() evaluates q,
x(q), x'(q) and log psi0(q) once per (model, grid) and every state of a sweep
on that grid is formed from them. The record's arrays are read-only, so one
record can be shared across threads as freely as a model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (
    DomainViolationError,
    InadmissibleAlphaError,
    InvalidParameterError,
    TruncationError,
)
from .models import (
    GENERALIZED_MORSE,
    HARMONIC,
    WEI_HUA,
    OscillatorModel,
    commutator_value,
    eval_superpotential,
    eval_superpotential_derivative,
)
from .numerics import Grid, SampledFunction, differentiate, integrate_samples, make_grid

SQRT2 = math.sqrt(2.0)

ANNIHILATION = "annihilation"
CREATION = "creation"

#: Fixed offset (in units of 1/c1) between a finite domain boundary and the
#: grid edge. Keeping it at 1e-3 bounds the superpotential magnitude near the
#: pole so the Riccati check stays within float64 headroom, while the omitted
#: power-law tail mass is negligible for every admissible family.
_POLE_OFFSET = 1e-3

#: Target for the relative L2 mass allowed outside the grid (times a local
#: moment lever) when choosing the far edge automatically.
_MASS_TOL = 1e-7

#: normalize() accepts a grid when each edge value is below this fraction of
#: the peak, or when the estimated beyond-edge mass is negligible.
_EDGE_RATIO = 1e-12
_EDGE_MASS_TOL = 1e-7


@dataclass(frozen=True)
class AdmissibilityBound:
    """Open interval of sqrt(2) Re(alpha) giving a normalizable coherent state.

    sup_re_alpha is c0/c1 for the anharmonic families (the +infinity limit of
    -x) and +infinity for the harmonic oscillator. inf_re_alpha is -infinity
    except for the full-line Wei Hua branch (c < 0), where the left tail
    imposes its own lower bound.
    """

    sup_re_alpha: float
    inf_re_alpha: float = -math.inf


@dataclass(frozen=True)
class WaveFunction:
    """A state of one model: closed-form evaluator plus bookkeeping.

    norm is None until normalize() has run; afterwards it records the L2 norm
    the state had before scaling.
    """

    model: OscillatorModel
    alpha: complex
    evaluator: Callable[[np.ndarray], np.ndarray]
    norm: float | None = None

    def sample(self, grid: Grid) -> SampledFunction:
        return _sample_on(self, grid, complex)


def require_grid_in_domain(model: OscillatorModel, grid: Grid) -> None:
    """DomainViolationError unless the whole grid lies in the open domain."""
    if grid.q_min <= model.q_lower or grid.q_max >= model.q_upper:
        raise DomainViolationError(
            f"grid [{grid.q_min!r}, {grid.q_max!r}] not inside open domain "
            f"({model.q_lower!r}, {model.q_upper!r})"
        )


def _sample_on(psi: WaveFunction, grid: Grid, dtype=None) -> SampledFunction:
    """The evaluator's samples on a grid inside the open domain; TruncationError
    where they overflow float64."""
    require_grid_in_domain(psi.model, grid)
    with np.errstate(over="ignore"):
        values = np.asarray(psi.evaluator(grid.points()), dtype=dtype)
    return _state_samples(grid, values)


def _state_samples(grid: Grid, values: np.ndarray) -> SampledFunction:
    try:
        return SampledFunction(grid, values)
    except InvalidParameterError:
        # SampledFunction refused non-finite samples; name the overflow.
        if np.all(np.isfinite(values)):
            raise
        raise TruncationError("state overflows float64 on the grid; reduce |Re(alpha)|") from None


def admissible_bound(model: OscillatorModel) -> AdmissibilityBound:
    """Normalizability bounds on sqrt(2) Re(alpha) for coherent states."""
    if model.family == HARMONIC:
        return AdmissibilityBound(sup_re_alpha=math.inf)
    p = model.params
    sup = p.c0 / p.c1
    if model.family == WEI_HUA and not math.isfinite(model.q_lower):
        # Full-line branch: the left tail decays only for
        # sqrt(2) Re(alpha) > x(-inf) flipped in sign.
        return AdmissibilityBound(sup_re_alpha=sup, inf_re_alpha=p.c1 / p.c2 + sup)
    return AdmissibilityBound(sup_re_alpha=sup)


def is_admissible(model: OscillatorModel, alpha: complex) -> bool:
    b = admissible_bound(model)
    t = SQRT2 * complex(alpha).real
    return b.inf_re_alpha < t < b.sup_re_alpha


def require_admissible(model: OscillatorModel, alpha: complex) -> None:
    """InadmissibleAlphaError unless psi_alpha is normalizable."""
    if not is_admissible(model, alpha):
        b = admissible_bound(model)
        raise InadmissibleAlphaError(
            f"sqrt(2) Re(alpha) = {SQRT2 * complex(alpha).real:.6g} outside "
            f"({b.inf_re_alpha:.6g}, {b.sup_re_alpha:.6g}); state not normalizable"
        )


def _log_ground_amplitude(model: OscillatorModel, q: np.ndarray) -> np.ndarray:
    """log psi0(q) in closed form (psi0 is positive on the domain)."""
    p = model.params
    if model.family == HARMONIC:
        return -0.5 * q * q
    if model.family == GENERALIZED_MORSE:
        return (1.0 - np.exp(-p.c1 * q)) / p.c1 ** 2 - (p.c0 / p.c1) * q
    if model.family == WEI_HUA:
        u = p.big_c * np.exp(-p.c1 * q)
        return np.log((1.0 - u) / (1.0 - p.big_c)) / p.c2 - (p.c0 / p.c1) * q
    return np.log1p(p.c1 * q) / p.c1 ** 2 - (p.c0 / p.c1) * q


def _state_values(log_psi0: np.ndarray, q: np.ndarray, alpha: complex | None) -> np.ndarray:
    """psi0 = exp(log psi0) for alpha None, else psi_alpha = exp(log psi0 +
    sqrt(2) alpha q): the one place either state is formed from log psi0."""
    if alpha is None:
        return np.exp(log_psi0)
    return np.exp(log_psi0 + SQRT2 * complex(alpha) * q)


def ground_state(model: OscillatorModel) -> WaveFunction:
    """Ground state psi0 = exp(integral_0^q x), normalized to psi0(0) = 1."""
    def evaluator(q: np.ndarray) -> np.ndarray:
        qa = np.asarray(q, dtype=float)
        return _state_values(_log_ground_amplitude(model, qa), qa, None)

    return WaveFunction(model=model, alpha=0.0 + 0.0j, evaluator=evaluator)


def coherent_state(model: OscillatorModel, alpha: complex) -> WaveFunction:
    """Coherent state psi_alpha = psi0 * exp(sqrt(2) alpha q), unnormalized."""
    alpha = complex(alpha)
    require_admissible(model, alpha)

    def evaluator(q: np.ndarray) -> np.ndarray:
        qa = np.asarray(q, dtype=float)
        return _state_values(_log_ground_amplitude(model, qa), qa, alpha)

    return WaveFunction(model=model, alpha=alpha, evaluator=evaluator)


@dataclass(frozen=True, eq=False)
class GridFields:
    """q, x(q), x'(q) and log psi0(q) of one model on one grid, as read-only
    arrays; built by grid_fields(). Compared and hashed by identity."""

    model: OscillatorModel
    grid: Grid
    q: np.ndarray
    x: np.ndarray
    xp: np.ndarray
    log_psi0: np.ndarray

    def sample(self, alpha: complex | None = None) -> SampledFunction:
        """psi0 (real, alpha None) or psi_alpha samples for an admissible alpha,
        bit-equal to sampling ground_state() or coherent_state();
        TruncationError on overflow."""
        with np.errstate(over="ignore"):
            values = _state_values(self.log_psi0, self.q, alpha)
        return _state_samples(self.grid, values)

    def normalized(self, alpha: complex | None = None) -> tuple[SampledFunction, float]:
        """normalized_samples() of psi0 or psi_alpha, formed from the record."""
        return _normalize(self.model, self.sample(alpha))


def grid_fields(model: OscillatorModel, grid: Grid) -> GridFields:
    """Evaluate q, x, x' and log psi0 once on a grid inside the open domain."""
    require_grid_in_domain(model, grid)
    q = grid.points()
    x = eval_superpotential(model, q)
    xp = eval_superpotential_derivative(model, q)
    with np.errstate(over="ignore"):
        log_psi0 = _log_ground_amplitude(model, q)
    for array in (q, x, xp, log_psi0):
        array.setflags(write=False)
    return GridFields(model, grid, q, x, xp, log_psi0)


def ladder_values(dpsi: np.ndarray, x_psi: np.ndarray, which: str) -> np.ndarray:
    """Annihilation (psi' - x psi)/sqrt(2) or creation (-psi' - x psi)/sqrt(2)
    from samples of psi' and of x psi on one grid, computed in place in the
    one array allocated, which rounds exactly as the written-out expression."""
    if which == ANNIHILATION:
        out = np.subtract(dpsi, x_psi)
    elif which == CREATION:
        # A real psi' negates before the cast, as -dpsi would: +0.0 imaginary parts.
        out = np.negative(dpsi, out=np.empty(np.shape(dpsi), np.result_type(dpsi, x_psi)))
        np.subtract(out, x_psi, out=out)
    else:
        raise InvalidParameterError(f"unknown ladder operator {which!r}")
    return np.divide(out, SQRT2, out=out)


def apply_ladder(
    model: OscillatorModel, psi: WaveFunction, which: str, grid: Grid
) -> SampledFunction:
    """Apply the annihilation (psi' - x psi)/sqrt(2) or creation
    (-psi' - x psi)/sqrt(2) operator on the grid, derivative by five-point
    finite differences."""
    sampled = psi.sample(grid)
    d = differentiate(sampled, 1).values
    x = eval_superpotential(model, grid.points())
    return SampledFunction(grid, ladder_values(d, x * sampled.values, which))


def l2_norm(sampled: SampledFunction) -> float:
    """L2 norm of a sampled state by Simpson quadrature."""
    return l2_norm_of(sampled.grid, sampled.values)


def l2_norm_of(grid: Grid, values: np.ndarray) -> float:
    """l2_norm of raw samples, such as a residual; InvalidParameterError
    unless they and their squared magnitudes are finite."""
    return math.sqrt(float(integrate_samples(grid, np.abs(values) ** 2)))


def _edge_covered(
    model: OscillatorModel, grid: Grid, mag: np.ndarray, mass: float, left: bool
) -> bool:
    edge = float(mag[0] if left else mag[-1])
    peak = float(mag.max())
    if edge <= _EDGE_RATIO * peak:
        return True
    boundary = model.q_lower if left else model.q_upper
    if math.isfinite(boundary):
        # Power-law zero at a finite boundary: the omitted mass is bounded by
        # the edge value squared times the offset.
        offset = abs((grid.q_min if left else grid.q_max) - boundary)
        return edge * edge * offset <= _EDGE_MASS_TOL * mass
    inner = float(mag[1] if left else mag[-2])
    if edge == 0.0:
        return True
    if inner <= edge:
        return False  # not decaying toward the edge
    # Exponential-tail estimate of the mass beyond the edge.
    decay = math.log(inner / edge) / grid.step
    tail = edge * edge / (2.0 * decay)
    return tail <= _EDGE_MASS_TOL * mass


def normalized_samples(psi: WaveFunction, grid: Grid) -> tuple[SampledFunction, float]:
    """Sample the state once and scale the samples to unit L2 norm on the grid.

    Returns the scaled samples and the L2 norm the state had before scaling.
    Raises TruncationError when the grid does not cover the support, i.e.
    neither the edge-magnitude rule nor the estimated-tail-mass rule holds at
    an edge; the caller must widen the grid. Also raises TruncationError when
    the closed form overflows float64 somewhere on the grid.
    """
    return _normalize(psi.model, _sample_on(psi, grid))


def _normalize(model: OscillatorModel, raw: SampledFunction) -> tuple[SampledFunction, float]:
    # Scale the evaluator's own output before the complex cast: a real ground
    # state divided after the cast would round differently.
    grid = raw.grid
    mag = np.abs(raw.values)
    if mag.max() == 0.0:
        raise TruncationError("state is identically zero on the grid")
    mass = float(integrate_samples(grid, mag ** 2))
    for left in (True, False):
        if not _edge_covered(model, grid, mag, mass, left):
            side = "left" if left else "right"
            raise TruncationError(
                f"{side} grid edge does not cover the support; widen the grid"
            )
    norm = math.sqrt(mass)
    return SampledFunction(grid, np.asarray(raw.values / norm, dtype=complex)), norm


def normalize(psi: WaveFunction, grid: Grid) -> WaveFunction:
    """Scale the state to unit L2 norm on the grid; see normalized_samples()."""
    _, norm = normalized_samples(psi, grid)
    inner = psi.evaluator
    return replace(psi, evaluator=lambda q: inner(q) / norm, norm=norm)


OBSERVABLES = ("x", "p", "x_squared", "p_squared", "x_prime")


def expectation(psi: WaveFunction, observable: str, grid: Grid) -> complex:
    """<psi| O |psi> by Simpson quadrature; psi should be normalized on grid.

    Position-like observables multiply by x(q), x(q)^2 or x'(q); p and p^2 are
    realized as -i d/dq and -d^2/dq^2 via finite differences.
    """
    sampled = psi.sample(grid)
    v = sampled.values
    q = grid.points()
    if observable == "x":
        acted = eval_superpotential(psi.model, q) * v
    elif observable == "x_squared":
        acted = eval_superpotential(psi.model, q) ** 2 * v
    elif observable == "x_prime":
        acted = -commutator_value(psi.model, q) * v
    elif observable == "p":
        acted = -1j * differentiate(sampled, 1).values
    elif observable == "p_squared":
        acted = -differentiate(sampled, 2).values
    else:
        raise InvalidParameterError(
            f"unknown observable {observable!r}; expected one of {OBSERVABLES}"
        )
    return complex(integrate_samples(grid, np.conj(v) * acted))


def default_interval(model: OscillatorModel) -> tuple[float, float]:
    """Family-specific starting interval for truncation searches."""
    if model.family == HARMONIC:
        return (-8.0, 8.0)
    p = model.params
    if model.family == GENERALIZED_MORSE:
        return (-3.0, 40.0 / p.c1)
    if model.family == WEI_HUA:
        if math.isfinite(model.q_lower):
            lo = model.q_lower + _POLE_OFFSET / p.c1
        else:
            lo = p.q0 - 40.0 / p.c1
        return (lo, p.q0 + 40.0 / p.c1)
    return (model.q_lower + _POLE_OFFSET / p.c1, 80.0 / p.c1)


def _log_amplitude(model: OscillatorModel, t: float, q: float) -> float:
    # A numpy scalar runs the same ufunc loops as a 0-d array, bit for bit,
    # at about a third of the call overhead; math.exp/log1p would round
    # differently from numpy on some inputs and move the grid edges.
    return float(_log_ground_amplitude(model, np.float64(q))) + t * q


def _find_peak(model: OscillatorModel, t: float) -> float:
    """Locate the |psi_alpha| maximum by bisecting x(q) = -t (x is strictly
    decreasing on the domain)."""
    a0, b0 = default_interval(model)

    def g(q: float) -> float:
        return float(eval_superpotential(model, q)) + t

    lo = a0
    if math.isfinite(model.q_lower):
        # The left end sits at the pole offset; x decreases, so a peak left
        # of it has x + t < 0 there and bisection would return a0 itself.
        if not g(lo) > 0.0:
            raise TruncationError(
                f"wavefunction peak lies inside the pole offset {_POLE_OFFSET!r}/c1 "
                "from the domain boundary; Re(alpha) is too negative to truncate"
            )
    else:
        for _ in range(300):
            if g(lo) > 0.0:
                break
            lo = b0 - 2.0 * (b0 - lo)
        else:
            raise TruncationError("could not bracket the wavefunction peak")
    hi = b0
    for _ in range(300):
        if g(hi) < 0.0:
            break
        hi = lo + 2.0 * (hi - lo)
    else:
        raise TruncationError("could not bracket the wavefunction peak")
    # Stop once an update would leave the bracket unchanged: every later
    # step would repeat that no-op, so the result equals the full count.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    return 0.5 * (lo + hi)


def _edge_by_mass(
    model: OscillatorModel,
    t: float,
    q_peak: float,
    start: float,
    log_budget: float,
) -> float:
    """Move outward from the peak until the estimated tail mass (weighted by a
    local moment lever) drops below the budget, then bisect the crossing."""
    direction = 1.0 if start > q_peak else -1.0

    def excess(q: float) -> float:
        x = float(eval_superpotential(model, q))
        kappa = abs(x + t)
        if kappa == 0.0:
            return math.inf
        lever = 2.0 * (1.0 + x * x)
        return 2.0 * _log_amplitude(model, t, q) + math.log(lever / (2.0 * kappa)) - log_budget

    outer = start if direction * (start - q_peak) > 0 else q_peak + direction
    for _ in range(400):
        if excess(outer) < 0.0:
            break
        outer = q_peak + 2.0 * (outer - q_peak)
    else:
        raise TruncationError("tail does not decay; cannot truncate the domain")
    inner = q_peak
    for _ in range(120):  # stops early as in _find_peak
        mid = 0.5 * (inner + outer)
        if excess(mid) >= 0.0:
            if mid == inner:
                break
            inner = mid
        else:
            if mid == outer:
                break
            outer = mid
    return q_peak + 1.05 * (outer - q_peak)


def auto_grid(
    model: OscillatorModel,
    alpha: complex = 0.0,
    n: int = 4001,
    mass_tol: float = _MASS_TOL,
) -> Grid:
    """Grid whose truncation error is negligible for the verification suite.

    The far edges are placed where the estimated beyond-edge L2 mass, weighted
    by a local moment lever 2(1 + x^2), falls below mass_tol of a Laplace
    estimate of the total mass. A finite domain boundary gets a fixed offset
    of 1e-3/c1 instead, which keeps superpotential magnitudes within float64
    headroom while the omitted power-law tail stays negligible.

    The peak of |psi_alpha| and each mass-rule edge are found by bisection,
    run until the bracket stops shrinking in float64. Raises TruncationError
    when the peak lies inside the pole offset, i.e. Re(alpha) is so negative
    that x(q) = -sqrt(2) Re(alpha) holds only between the boundary and the
    offset.
    """
    alpha = complex(alpha)
    if not is_admissible(model, alpha):
        b = admissible_bound(model)
        raise InadmissibleAlphaError(
            f"sqrt(2) Re(alpha) = {SQRT2 * alpha.real:.6g} outside "
            f"({b.inf_re_alpha:.6g}, {b.sup_re_alpha:.6g})"
        )
    t = SQRT2 * alpha.real
    a0, b0 = default_interval(model)
    q_peak = _find_peak(model, t)
    log_mass = 2.0 * _log_amplitude(model, t, q_peak) + 0.5 * math.log(
        math.pi / float(commutator_value(model, q_peak))
    )
    log_budget = math.log(mass_tol) + log_mass
    b_mass = _edge_by_mass(model, t, q_peak, max(b0, q_peak + 1.0), log_budget)
    if math.isfinite(model.q_lower):
        # Half-line family: fixed pole offset on the left; the far edge comes
        # from the mass rule alone, since the generous family default would
        # stretch the uniform grid until stencil error near the pole swamps
        # the identity checks.
        a = a0
        b = b_mass
    else:
        # Full-line family: tails die at least as fast as a Gaussian on one
        # side, so the family default envelope is kept and only ever widened.
        a_mass = _edge_by_mass(model, t, q_peak, min(a0, q_peak - 1.0), log_budget)
        a = min(a0, a_mass)
        b = max(b0, b_mass)
    return make_grid(a, b, n)
