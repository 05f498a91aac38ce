"""Ground states, coherent states, their samples on a grid, normalization,
the ladder operators on samples, and automatic grid truncation.

Ground states solve A psi0 = 0, i.e. psi0 = exp(integral of x), fixed to
psi0(0) = 1. Coherent states are psi0 * exp(sqrt(2) alpha q). A WaveFunction
is an immutable record (model, alpha, norm): it holds no samples and no
callable, and samples through grid_fields().

Only exp(sqrt(2) alpha q) depends on alpha, so grid_fields() evaluates q,
x(q), x'(q) and log psi0(q) once per (model, grid) and every state of a sweep
on that grid is formed from them. Callers that derive several quantities
from one state sample it once with GridFields.normalized() and work on those
arrays with ladder_values(), l2_norm_of() and the numerics functions on
(grid, values). The record's arrays are read-only, so one record can be
shared across threads as freely as a model.

A Workspace holds the full-size arrays that one state's normalization and
checks write into. A sweep passes one workspace to every state of its
point count, so those arrays are allocated once, not once per alpha; it
belongs to one caller and is not shared across threads.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (
    DomainViolationError,
    InadmissibleAlphaError,
    InvalidParameterError,
    TruncationError,
)
from .families import AdmissibilityBound, family_of
from .models import (
    OscillatorModel,
    check_domain,
    describe,
    kernel,
)
from .numerics import Grid, SampledFunction, divide_in_place, integrate_samples, make_grid

SQRT2 = math.sqrt(2.0)

ANNIHILATION = "annihilation"
CREATION = "creation"

#: Negligible tail mass, relative to the whole. One value serves auto_grid's
#: budget beyond each edge (times a local moment lever of at least 2) and
#: normalization's gate, so the gate is never stricter than that budget.
_MASS_TOL = 1e-7

#: Normalization accepts a grid when each edge value is below this fraction
#: of the peak, or when the estimated beyond-edge mass is below _MASS_TOL.
_EDGE_RATIO = 1e-12

#: The TruncationError message for a state that float64 cannot hold on its grid.
_OVERFLOW = "state overflows float64 on the grid; reduce |Re(alpha)|"

#: Half of the largest float64: the headroom _im_alpha_limit() keeps.
_HALF_MAX = 0.5 * sys.float_info.max

#: Fixed offset (in units of 1/c1) between a finite domain boundary and the
#: grid edge. Keeping it at 1e-3 bounds the superpotential magnitude near the
#: pole so the Riccati check stays within float64 headroom, while the omitted
#: power-law tail mass is negligible for every admissible family.
POLE_OFFSET = 1e-3


@dataclass(frozen=True)
class WaveFunction:
    """psi0 (alpha None) or psi_alpha of one model, as a record.

    norm is None until normalize() has run; afterwards it records the L2 norm
    the state had before scaling, and the state's values are divided by it.
    """

    model: OscillatorModel
    alpha: complex | None
    norm: float | None = None

    def sample(self, grid: Grid) -> SampledFunction:
        """Complex samples on a grid inside the open domain, bit-equal to
        GridFields.normalized()'s once normalized (the ground state's as real
        parts); TruncationError where they overflow float64."""
        values = grid_fields(self.model, grid).sample(self.alpha).values
        if self.norm is not None:
            # Divide before the complex cast, as GridFields.normalized() scales psi0.
            values = values / self.norm
        return SampledFunction(grid, np.asarray(values, dtype=complex))

    def evaluator(self, q) -> np.ndarray:
        """The state at arbitrary points of the open domain, from the closed
        form; DomainViolationError outside it."""
        qa = check_domain(self.model, q)
        log_psi0 = kernel(self.model)(qa, x=False, log_psi0=True)[2]
        values = _state_values(log_psi0, qa, self.alpha)
        return values if self.norm is None else values / self.norm


def require_grid_in_domain(model: OscillatorModel, grid: Grid) -> None:
    """DomainViolationError unless the whole grid lies in the open domain."""
    if grid.q_min <= model.q_lower or grid.q_max >= model.q_upper:
        raise DomainViolationError(
            f"grid [{grid.q_min!r}, {grid.q_max!r}] not inside open domain "
            f"({model.q_lower!r}, {model.q_upper!r})"
        )


def admissible_bound(model: OscillatorModel) -> AdmissibilityBound:
    """Normalizability bounds on sqrt(2) Re(alpha) for coherent states."""
    return family_of(model).bound(model)


def is_admissible(model: OscillatorModel, alpha: complex) -> bool:
    """True when alpha is finite and psi_alpha is normalizable."""
    if not cmath.isfinite(alpha):
        return False
    b = admissible_bound(model)
    t = SQRT2 * complex(alpha).real
    return b.inf_re_alpha < t < b.sup_re_alpha


def require_admissible(model: OscillatorModel, alpha: complex) -> None:
    """InadmissibleAlphaError unless alpha is finite and psi_alpha is
    normalizable."""
    if not cmath.isfinite(alpha):
        raise InadmissibleAlphaError(f"alpha must be finite, got {complex(alpha)!r}")
    if not is_admissible(model, alpha):
        b = admissible_bound(model)
        raise InadmissibleAlphaError(
            f"sqrt(2) Re(alpha) = {SQRT2 * complex(alpha).real:.6g} outside "
            f"({b.inf_re_alpha:.6g}, {b.sup_re_alpha:.6g}); state not normalizable"
        )


def _state_values(
    log_psi0: np.ndarray, q: np.ndarray, alpha: complex | None, out: np.ndarray | None = None
) -> np.ndarray:
    """psi0 = exp(log psi0) for alpha None, else psi_alpha = exp(log psi0 +
    sqrt(2) alpha q): the one place either state is formed from log psi0.
    Each step is written into out (float64 for psi0, complex for psi_alpha),
    or into the one array allocated, with the bits of the written-out sum."""
    if alpha is None:
        return np.exp(log_psi0, out=out)
    values = np.multiply(SQRT2 * complex(alpha), q, out=out)
    np.add(log_psi0, values, out=values)
    return np.exp(values, out=values)


def ground_state(model: OscillatorModel) -> WaveFunction:
    """Ground state psi0 = exp(integral_0^q x), normalized to psi0(0) = 1."""
    return WaveFunction(model, None)


def coherent_state(model: OscillatorModel, alpha: complex) -> WaveFunction:
    """Coherent state psi_alpha = psi0 * exp(sqrt(2) alpha q), unnormalized."""
    require_admissible(model, alpha)
    return WaveFunction(model, complex(alpha))


class Workspace:
    """Full-size arrays for the states of one point count n, written into
    by GridFields.normalized(), verify_coherent() and the numerics they call
    instead of allocating: the samples of a state (complex for psi_alpha,
    float64 for psi0), three complex work arrays, and one float64 array.
    Each is allocated at its first use and kept for the workspace's life.

    One caller owns a workspace; it is not thread-safe. Every call that is
    passed it overwrites what the last one left there, the normalized
    samples that call returned included.
    """

    def __init__(self, n: int) -> None:
        self.n = int(n)
        self._arrays: dict[tuple[str, type], np.ndarray] = {}

    def _array(self, name: str, dtype: type) -> np.ndarray:
        array = self._arrays.get((name, dtype))
        if array is None:
            array = self._arrays[(name, dtype)] = np.empty(self.n, dtype)
        return array

    def state(self, alpha: complex | None) -> np.ndarray:
        """The array for the samples of psi_alpha, or of psi0 for alpha None."""
        return self._array("state", float if alpha is None else complex)

    def work(self, index: int) -> np.ndarray:
        """Complex work array 0, 1 or 2."""
        return self._array(f"work{index}", complex)

    def real(self) -> np.ndarray:
        """The float64 work array."""
        return self._array("real", float)


def workspace_for(grid: Grid, workspace: Workspace | None) -> Workspace:
    """workspace, or a new one for the grid when None; InvalidParameterError
    when it was made for another point count."""
    if workspace is None:
        return Workspace(grid.n)
    if workspace.n != grid.n:
        raise InvalidParameterError(
            f"workspace holds {workspace.n} points; the grid has {grid.n}")
    return workspace


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

    def potential(self) -> np.ndarray:
        """closed_form_potential() on q, whose domain grid_fields() has checked."""
        with np.errstate(all="ignore"):
            return family_of(self.model).potential(self.model.params, self.q)

    def sample(self, alpha: complex | None = None) -> SampledFunction:
        """psi0 (real, alpha None) or psi_alpha samples for an admissible alpha;
        TruncationError on overflow, and for an |Im(alpha)| beyond what the
        checks of the state can hold (_im_alpha_limit())."""
        if alpha is not None:
            _require_im_alpha_within(complex(alpha), self.grid)
        with np.errstate(over="ignore"):
            values = _state_values(self.log_psi0, self.q, alpha)
        if not np.isfinite(values).all():
            raise TruncationError(_overflow(alpha))
        return SampledFunction(self.grid, values)

    def normalized(
        self, alpha: complex | None = None, *, workspace: Workspace | None = None
    ) -> tuple[SampledFunction, float]:
        """psi0 (float64, alpha None) or psi_alpha (complex) scaled to unit L2
        norm on the grid, and the norm before scaling: sample()'s samples,
        scaled in place. The samples are workspace.state(alpha), from a
        workspace of the grid's point count (a new one when None).

        Raises TruncationError when the grid does not cover the support, i.e.
        neither the edge-magnitude rule nor the estimated-tail-mass rule holds
        at an edge, so the caller must widen the grid; when the state or
        its squared norm overflows float64; and where sample() does.
        """
        workspace = workspace_for(self.grid, workspace)
        if alpha is not None:
            _require_im_alpha_within(complex(alpha), self.grid)
        # |psi| and |psi|^2 go into the two float64 halves of a work array,
        # which the checks of the state take over only after this returns.
        # exp may overflow, |psi| or |psi|^2 where psi does not, and finite
        # squares may sum past float64: the peak and the mass name each.
        mag, squares = workspace.work(0).view(np.float64).reshape(2, -1)
        with np.errstate(over="ignore"):
            values = _state_values(self.log_psi0, self.q, alpha, workspace.state(alpha))
            peak = float(np.maximum.reduce(np.abs(values, out=mag)))  # a NaN propagates
            if not math.isfinite(peak * peak):
                raise TruncationError(_overflow(alpha))
            if peak == 0.0:
                raise TruncationError("state is identically zero on the grid")
            mass = float(integrate_samples(self.grid, np.square(mag, out=squares)))
        if math.isinf(mass):
            raise TruncationError(_overflow(alpha))
        if mass == 0.0:  # a positive peak whose squares underflow in the sum
            raise TruncationError("squared norm of the state underflows float64 on the grid; "
                                  "move the grid to the support")
        for left in (True, False):
            if not _edge_covered(self.model, self.grid, mag, peak, mass, left):
                side = "left" if left else "right"
                raise TruncationError(
                    f"{side} grid edge does not cover the support; widen the grid"
                )
        norm = math.sqrt(mass)
        # The samples are the workspace's: scale them in place. They stay
        # finite, since every Simpson weight is at least h/3: mass >= (h/3)
        # peak^2, so |psi|/norm <= sqrt(3/h). psi0 keeps np.divide's bits, which
        # verify_model's report is pinned to.
        if alpha is None:
            np.divide(values, norm, out=values)
        else:
            divide_in_place(values, norm)
        return SampledFunction(self.grid, values), norm


def _im_alpha_limit(grid: Grid) -> float:
    """The largest |Im(alpha)| whose state and checks float64 holds on the
    grid, with a factor 2 of headroom. The phase sqrt(2) Im(alpha) q must be
    finite at both edges; the momentum identities square 2 Im(alpha); and
    the eigenvalue residual of a unit-norm state holds alpha psi, whose
    squares sum with Simpson's weights (1, 4, 2, ..., 4, 1) to about
    |alpha|^2 3/h."""
    reach = max(abs(grid.q_min), abs(grid.q_max))
    return min(_HALF_MAX / (SQRT2 * reach),
               math.sqrt(_HALF_MAX / max(4.0, 3.0 / grid.step)))


def _require_im_alpha_within(alpha: complex, grid: Grid) -> None:
    limit = _im_alpha_limit(grid)
    if abs(alpha.imag) > limit:
        raise TruncationError(
            f"|Im(alpha)| = {abs(alpha.imag):.6g} exceeds {limit:.6g}, beyond which the "
            "checks of the state overflow float64 on the grid; reduce |Im(alpha)|")


def _overflow(alpha: complex | None) -> str:
    # No alpha moves the ground state: name the grid instead.
    if alpha is None:
        return "ground state overflows float64 on the grid; narrow the grid"
    return _OVERFLOW


def auto_grid_overflow(model: OscillatorModel) -> TruncationError:
    """The refusal of a model float64 cannot hold on its automatic grid, by name."""
    return TruncationError(
        f"superpotential of {describe(model)} leaves float64 range on its automatic grid")


def grid_fields(model: OscillatorModel, grid: Grid) -> GridFields:
    """Evaluate q, x, x' and log psi0 once on a grid inside the open domain,
    in one kernel call: one exponential per point for all three.
    TruncationError where x, x' or their squares overflow float64 on the
    grid: the checks square x and multiply by x', and the closed-form Morse
    potential squares s + x'."""
    require_grid_in_domain(model, grid)
    q = grid.points()
    # Far tails overflow in the kernel and a pole divides by zero (inf, or NaN
    # from inf / inf): the rule below refuses them by name.
    with np.errstate(all="ignore"):
        x, xp, log_psi0 = kernel(model)(q, xp=True, log_psi0=True)
        # min and max carry a NaN through and allocate no full-size mask; a
        # Python float squares to inf, not to an OverflowError.
        low, high = np.minimum.reduce, np.maximum.reduce
        extremes = (float(low(x)), float(high(x)), float(low(xp)), float(high(xp)))
        if not all(math.isfinite(value * value) for value in extremes):
            raise TruncationError("superpotential overflows float64 on the grid; narrow the grid")
    for array in (q, x, xp, log_psi0):
        array.setflags(write=False)
    return GridFields(model, grid, q, x, xp, log_psi0)


def ladder_values(
    dpsi: np.ndarray,
    x_psi: np.ndarray,
    which: str,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Annihilation (psi' - x psi)/sqrt(2) or creation (-psi' - x psi)/sqrt(2)
    from samples of psi' and of x psi on one grid, computed in place in out,
    which may be dpsi, or in the one array allocated; either rounds exactly
    as the written-out expression, real samples as the real part of their
    complex cast (divide_in_place)."""
    if which == ANNIHILATION:
        out = np.subtract(dpsi, x_psi, out=out)
    elif which == CREATION:
        if out is None:
            out = np.empty(np.shape(dpsi), np.result_type(dpsi, x_psi))
        # A real psi' negates before the cast, as -dpsi would: +0.0 imaginary parts.
        np.subtract(np.negative(dpsi, out=out), x_psi, out=out)
    else:
        raise InvalidParameterError(f"unknown ladder operator {which!r}")
    return divide_in_place(out, SQRT2)


def l2_norm_of(grid: Grid, values: np.ndarray, *, scratch: np.ndarray | None = None) -> float:
    """L2 norm of samples on a grid, such as a state or a residual, by
    Simpson quadrature, with |values|^2 formed in scratch (a float64 array
    of their shape) when given; InvalidParameterError unless they and their
    squared magnitudes are finite, and inf where their sum overflows float64."""
    squares = np.abs(values, out=scratch)
    with np.errstate(over="ignore"):
        return math.sqrt(float(integrate_samples(grid, np.square(squares, out=squares))))


def _edge_covered(
    model: OscillatorModel, grid: Grid, mag: np.ndarray, peak: float, mass: float, left: bool
) -> bool:
    edge = float(mag[0] if left else mag[-1])
    if edge <= _EDGE_RATIO * peak:
        return True
    boundary = model.q_lower if left else model.q_upper
    if math.isfinite(boundary):
        # Power-law zero at a finite boundary: the omitted mass is bounded by
        # the edge value squared times the offset.
        offset = abs((grid.q_min if left else grid.q_max) - boundary)
        return edge * edge * offset <= _MASS_TOL * mass
    inner = float(mag[1] if left else mag[-2])
    if inner <= edge:
        return False  # not decaying toward the edge
    # Exponential-tail estimate of the mass beyond the edge.
    decay = math.log(inner / edge) / grid.step
    tail = edge * edge / (2.0 * decay)
    return tail <= _MASS_TOL * mass


def normalize(psi: WaveFunction, grid: Grid) -> WaveFunction:
    """The state scaled to unit L2 norm on the grid, recording the norm of the
    unscaled state, so normalizing twice gives the same record.
    TruncationError when the grid does not cover the support (see
    GridFields.normalized()) or the closed form overflows float64 on it."""
    return replace(psi, norm=grid_fields(psi.model, grid).normalized(psi.alpha)[1])


def _search_functions(model: OscillatorModel, t: float):
    """The edge searches' evaluation at a float q: x(q) and log |psi_alpha(q)|
    from one kernel call on the Python float (see models.kernel). Where
    Python raises for a division by zero or an overflow, the point is
    evaluated again on np.float64, for numpy's inf or NaN."""
    fields = kernel(model)
    lower, upper = model.q_lower, model.q_upper

    def x_and_log_amplitude(q: float) -> tuple[float, float]:
        if not lower < q < upper:
            check_domain(model, q)  # raises DomainViolationError
        try:
            x, _, log_psi0 = fields(q, log_psi0=True)
        except (ZeroDivisionError, OverflowError):
            x, _, log_psi0 = fields(np.float64(q), log_psi0=True)
        return float(x), float(log_psi0) + t * q

    return x_and_log_amplitude


def _pole_edge(model: OscillatorModel) -> float:
    """The left grid edge of a half-line family, POLE_OFFSET/c1 right of the pole."""
    return model.q_lower + POLE_OFFSET / model.params.c1


def _peak(model: OscillatorModel, t: float) -> float:
    """The |psi_alpha| maximum, where x(q) = -t, from the family's closed form;
    TruncationError unless it is a finite float right of any pole offset."""
    try:
        q_peak = family_of(model).peak(model.params, t)
    except (ZeroDivisionError, ValueError):  # a quotient or log of an underflowed zero
        q_peak = math.nan
    if not math.isfinite(q_peak):
        raise TruncationError("wavefunction peak lies beyond float64 range; "
                              "move Re(alpha) away from its admissibility bound")
    if math.isfinite(model.q_lower) and not q_peak > _pole_edge(model):
        raise TruncationError(
            f"wavefunction peak lies inside the pole offset {POLE_OFFSET!r}/c1 "
            "from the domain boundary; Re(alpha) is too negative to truncate"
        )
    return q_peak


def _bisect(keep: Callable[[float], bool], a: float, b: float, steps: int,
            decided: Callable[[float], bool]) -> tuple[float, float]:
    """Shrink the bracket (a, b), either order, with keep(a) true and keep(b)
    false, by at most steps bisections; return it. Stops once the midpoint is
    an end: its side is known, so the update would leave the bracket
    unchanged, and so would every later step. Stops too once decided(b)
    holds for the rejected end b, which only ever moves toward a."""
    for _ in range(steps):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        if keep(mid):
            a = mid
        else:
            b = mid
            if decided(b):
                break
    return a, b


def _edge_by_mass(
    x_and_log_amplitude: Callable[[float], tuple[float, float]],
    t: float,
    q_peak: float,
    start: float,
    log_budget: float,
    envelope: float,
) -> float:
    """Move outward from the peak, from start on, until the estimated tail mass
    (weighted by a local moment lever) drops below the budget, then bisect
    the last step: from the last point at or above the budget to the first below.

    envelope is the family's envelope edge on the search's side, to which
    the caller widens the edge (-inf on the right, +inf on the left, where
    there is none). The bisection stops once its rejected end gives an edge
    within envelope: that end only moves toward the peak and the edge is
    monotone in it in float64, so the full bisection's would lie within too."""

    def excess(q: float) -> float:
        x, log_amplitude = x_and_log_amplitude(q)
        kappa = abs(x + t)
        if kappa == 0.0:
            return math.inf
        lever = 2.0 * (1.0 + x * x)
        return 2.0 * log_amplitude + math.log(lever / (2.0 * kappa)) - log_budget

    # The excess at the peak itself is left unevaluated: it is positive, since
    # kappa = |x + t| vanishes there to rounding.
    inner, outer = q_peak, start
    for _ in range(400):
        value = excess(outer)
        if value < 0.0:
            break
        if math.isnan(value):
            raise TruncationError("wavefunction tail leaves float64 range before it decays; "
                                  "move Re(alpha) away from its admissibility bound")
        inner, outer = outer, q_peak + 2.0 * (outer - q_peak)
    else:
        raise TruncationError("tail does not decay; cannot truncate the domain")

    def edge(outer: float) -> float:
        return q_peak + 1.05 * (outer - q_peak)

    def decided(outer: float) -> bool:
        return edge(outer) <= envelope if start > q_peak else edge(outer) >= envelope

    return edge(_bisect(lambda q: excess(q) >= 0.0, inner, outer, 120, decided)[1])


def auto_grid(model: OscillatorModel, alpha: complex = 0.0, n: int = 4001) -> Grid:
    """Grid whose truncation error is negligible for the verification suite.

    The far edges are placed where the estimated beyond-edge L2 mass, weighted
    by a local moment lever 2(1 + x^2), falls below 1e-7 of a Laplace
    estimate of the total mass. A finite domain boundary gets a fixed offset
    of POLE_OFFSET/c1 instead, which keeps superpotential magnitudes within
    float64 headroom while the omitted power-law tail stays negligible. A
    full-line grid always covers its family's envelope.

    The peak of |psi_alpha|, where x(q) = -sqrt(2) Re(alpha), comes from the
    family's closed-form inverse of x. Each edge search steps outward from
    the peak (on the full line, from the envelope edge where that lies
    beyond) and bisects its last bracket until it stops shrinking in float64,
    or on the full line until the edge is known to lie within the envelope,
    whose edge the grid then takes, bit for bit as after a full bisection.
    Raises TruncationError when the peak is not a finite float (Re(alpha) at
    its admissibility bound to float64 precision) or lies inside the pole
    offset (Re(alpha) too negative), when the state overflows float64 at its
    peak, or when a tail leaves float64 range before it decays; raises
    auto_grid_overflow(model) when x' at the peak overflows or underflows
    to zero.
    """
    alpha = complex(alpha)
    require_admissible(model, alpha)
    t = SQRT2 * alpha.real
    q_peak = _peak(model, t)
    x_and_log_amplitude = _search_functions(model, t)
    # Far tails overflow float64 in the kernel (exp(-c1 q), q * q): one
    # errstate for the whole search, which tests the inf and NaN it returns.
    with np.errstate(all="ignore"):
        # log psi0 and x' at the peak from one kernel call on np.float64.
        _, xp, log_psi0 = kernel(model)(np.float64(q_peak), x=False, xp=True, log_psi0=True)
        # -inf where c1^2/c2 overflows for a Wei Hua c2 near 5e-324, -0.0 at
        # the peak of a gkf model with a tiny c0.
        if not -math.inf < xp < 0.0:
            raise auto_grid_overflow(model)
        log_mass = 2.0 * (float(log_psi0) + t * q_peak) + 0.5 * math.log(math.pi / -float(xp))
        if not math.isfinite(log_mass):
            raise TruncationError(_OVERFLOW)
        log_budget = math.log(_MASS_TOL) + log_mass
        # The first outward step is 1, or |q_peak| 2^-50 (4 to 8 ulps) where
        # that is larger: beyond 2^53, q_peak + 1 rounds back to q_peak.
        step = max(1.0, abs(q_peak) * 2.0 ** -50)

        def edge(start: float, envelope: float) -> float:
            return _edge_by_mass(x_and_log_amplitude, t, q_peak, start, log_budget, envelope)

        if math.isfinite(model.q_lower):
            # Half-line family: the pole offset on the left, the mass rule alone
            # on the right; an envelope would stretch the uniform grid until
            # stencil error near the pole swamps the identity checks.
            a, b = _pole_edge(model), edge(q_peak + step, -math.inf)
        else:
            # Full-line family: tails die at least as fast as a Gaussian on
            # one side, so the envelope is kept and only ever widened.
            a0, b0 = family_of(model).envelope(model.params)
            b = max(b0, edge(max(b0, q_peak + step), b0))
            a = min(a0, edge(min(a0, q_peak - step), a0))
    return make_grid(a, b, n)
