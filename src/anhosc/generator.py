"""Superpotentials generated from dx/dq = -f(x).

The series form of f selects the oscillator family; the numeric route
integrates the ODE for any supported form, and the dispatch route maps a
series directly onto a closed-form model. The two agree on the overlap of
their domains, which tests exploit as a round-trip check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, UnsupportedFormError
from .families import (
    make_generalized_kratzer_fues,
    make_generalized_morse,
    make_harmonic,
    make_wei_hua,
)
from .models import OscillatorModel
from .numerics import Grid, SampledFunction, solve_first_order_ode

FORM_CONSTANT = "constant"
FORM_LINEAR = "linear"
FORM_PARABOLIC = "parabolic"
FORM_SQUARED_LINEAR = "squared_linear"

FORMS = (FORM_CONSTANT, FORM_LINEAR, FORM_PARABOLIC, FORM_SQUARED_LINEAR)


class ExpansionRangeWarning(UserWarning):
    """The generated superpotential left |x| < 1, where the series expansion
    of f is guaranteed to converge. The closed forms remain exact."""


@dataclass(frozen=True)
class GeneratingSeries:
    """Truncated power series of f in the shifted variable (x + c0/c1).

    c2 is used only by the parabolic form. x0 is the initial condition
    x(0); it defaults to (1 - c0)/c1 for the non-constant forms and to 0
    for the constant form.
    """

    form: str
    c0: float = 0.0
    c1: float = 0.0
    c2: float = 0.0
    x0: float | None = None

    def __post_init__(self) -> None:
        if self.form not in FORMS:
            raise UnsupportedFormError(
                f"unsupported form {self.form!r}; expected one of {FORMS}"
            )
        for name in ("c0", "c1", "c2", "x0"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite, got {value!r}")
        if self.form != FORM_CONSTANT and self.c1 == 0.0:
            raise InvalidParameterError(f"{self.form} form requires c1 != 0")
        if self.form == FORM_PARABOLIC and self.c2 == 0.0:
            raise InvalidParameterError("parabolic form requires c2 != 0")
        # Written so that a NaN f(x0) is refused too.
        if not (eval_generating_function(self, self.initial_value()) > 0.0):
            raise InvalidParameterError(
                "f(x0) must be positive so that x'(0) < 0"
            )

    def initial_value(self) -> float:
        if self.x0 is not None:
            return float(self.x0)
        if self.form == FORM_CONSTANT:
            return 0.0
        return (1.0 - self.c0) / self.c1


def _generating_function(series: GeneratingSeries):
    """f as one closure over plain floats; numpy arrays pass through it too."""
    if series.form == FORM_CONSTANT:
        return lambda x: 1.0
    shift = series.c0 / series.c1
    c1, c2 = series.c1, series.c2
    if series.form == FORM_LINEAR:
        return lambda x: c1 * (x + shift)
    if series.form == FORM_PARABOLIC:
        def parabolic(x):
            y = x + shift
            return c1 * y + c2 * y * y
        return parabolic
    return lambda x: (c1 * (x + shift)) ** 2


def eval_generating_function(series: GeneratingSeries, x) -> float | np.ndarray:
    """f(x) for the series form: a float for a scalar x, an array for an array."""
    f = _generating_function(series)
    if not np.ndim(x):
        try:
            return f(float(x))
        except OverflowError:  # only the square raises, and its value is +inf
            return math.inf
    x = np.asarray(x, dtype=float)
    return np.ones_like(x) if series.form == FORM_CONSTANT else f(x)


def superpotential_from_series(series: GeneratingSeries, grid: Grid) -> SampledFunction:
    """Integrate dx/dq = -f(x) from x(0) = series.x0 over the grid.

    The grid must start at q = 0, where the initial condition is stated.
    Warns with ExpansionRangeWarning when |x| exceeds 1 anywhere; raises
    DivergenceError when a pole is hit before q_max.
    """
    if grid.q_min != 0.0:
        raise InvalidParameterError(
            f"grid must start at q=0 (initial condition), got q_min={grid.q_min!r}"
        )
    f = _generating_function(series)
    rhs = lambda q, x: -f(x)
    result = solve_first_order_ode(rhs, series.initial_value(), grid)
    if np.max(np.abs(result.values)) > 1.0:
        warnings.warn(
            "superpotential leaves |x| < 1, outside the guaranteed series "
            "convergence range",
            ExpansionRangeWarning,
            stacklevel=2,
        )
    return result


def closed_form_from_series(series: GeneratingSeries) -> OscillatorModel:
    """Dispatch a series to its closed-form oscillator model.

    constant -> harmonic; linear -> generalized Morse with x_e = c1^2/2 and
    s = c0 + c1^2/2; parabolic -> Wei Hua; squared linear -> generalized
    Kratzer-Fues. Family constructor preconditions propagate unchanged.
    """
    if series.form == FORM_CONSTANT:
        return make_harmonic()
    if series.form in (FORM_LINEAR, FORM_PARABOLIC) and series.c1 < 0.0:
        # The closed forms are written for the decaying exp(-c1 q) branch.
        raise InvalidParameterError(
            "closed-form dispatch requires c1 > 0; negative c1 generates the "
            "mirror-image oscillator"
        )
    if series.form == FORM_LINEAR:
        x_e = 0.5 * series.c1 ** 2
        return make_generalized_morse(series.c0 + x_e, x_e)
    if series.form == FORM_PARABOLIC:
        return make_wei_hua(series.c0, series.c1, series.c2)
    return make_generalized_kratzer_fues(series.c0, series.c1)
