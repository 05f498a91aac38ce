"""Model evaluation: superpotential x(q), its analytic derivative and the log
ground-state amplitude from the family kernel, and the family closed-form
potentials used as an independent cross-check of (V - E0) = (x^2 + x')/2.
The per-family closed forms live in the family records of families.py; the
functions here look them up from model.family.

Models are immutable after construction and all evaluations are pure, so
instances can be shared freely across threads. Evaluation accepts scalars or
numpy arrays of coordinates.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainViolationError
from .families import OscillatorModel, family_of


def describe(model: OscillatorModel) -> str:
    """Short deterministic descriptor used in file headers and reports."""
    return family_of(model).descriptor.format(p=model.params)


def check_domain(model: OscillatorModel, q) -> np.ndarray:
    """q as a float array (0-d for a scalar); DomainViolationError unless
    every coordinate lies in the open domain."""
    qa = np.asarray(q, dtype=float)
    # Written so that NaN, which compares False, is outside.
    if not (np.all(qa > model.q_lower) and np.all(qa < model.q_upper)):
        raise DomainViolationError(
            f"coordinate outside open domain ({model.q_lower!r}, {model.q_upper!r})"
        )
    return qa


def _as_input_shape(value: np.ndarray, q) -> float | np.ndarray:
    return value if np.ndim(q) else float(value)


def kernel(model: OscillatorModel) -> Callable:
    """The model's closed forms of x, x' and log psi0 (psi0 = exp of the
    integral of x from 0), constants bound: kernel(model)(q, x=True,
    xp=False, log_psi0=False) returns (x, x', log psi0), None where not
    asked for. One exp(-c1 q) or c1 q + 1 serves all three, in the operand
    order of the separate formulas, so each output has the bits it has
    alone. q must lie in the open domain; the kernel does not check it. On a
    Python float it computes on Python floats with numpy's exp and log, for
    an array's bits, and may raise where numpy would return inf or NaN."""
    return family_of(model).kernel(model.params)


def eval_superpotential(model: OscillatorModel, q) -> float | np.ndarray:
    """Superpotential x(q) from the family closed form."""
    x, _, _ = kernel(model)(check_domain(model, q))
    return _as_input_shape(x, q)


def eval_superpotential_derivative(model: OscillatorModel, q) -> float | np.ndarray:
    """Analytic dx/dq; strictly negative everywhere on the domain."""
    _, xp, _ = kernel(model)(check_domain(model, q), x=False, xp=True)
    return _as_input_shape(xp, q)


def closed_form_potential(model: OscillatorModel, q) -> float | np.ndarray:
    """V(q) - E0 from the family closed-form potential shape.

    This is a different algebraic route than (x^2 + x')/2 from
    eval_superpotential and eval_superpotential_derivative; agreement of the
    two is the Riccati consistency check. Where float64 cannot hold a term,
    the value is inf or NaN, without numpy's warnings, for the check to fail.
    """
    qa = check_domain(model, q)
    with np.errstate(all="ignore"):
        return _as_input_shape(family_of(model).potential(model.params, qa), q)
