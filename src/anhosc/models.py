"""Oscillator model abstraction: superpotential x(q), its analytic derivative,
the Riccati combination (V - E0) = (x^2 + x')/2, and per-family closed-form
potentials used as an independent cross-check.

Models are immutable after construction and all evaluations are pure, so
instances can be shared freely across threads. Evaluation accepts scalars or
numpy arrays of coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainViolationError

HARMONIC = "harmonic"
GENERALIZED_MORSE = "generalized_morse"
WEI_HUA = "wei_hua"
KRATZER_FUES = "kratzer_fues"
GENERALIZED_KRATZER_FUES = "generalized_kratzer_fues"

_KRATZER_FAMILIES = (KRATZER_FUES, GENERALIZED_KRATZER_FUES)


@dataclass(frozen=True)
class HarmonicParams:
    pass


@dataclass(frozen=True)
class MorseParams:
    s: float
    x_e: float
    c0: float  # s - x_e
    c1: float  # sqrt(2 x_e)


@dataclass(frozen=True)
class WeiHuaParams:
    c0: float
    c1: float
    c2: float
    w: float        # (2 c0 + c1^2) / (2 c1 (1 - c2))
    b: float        # c1 / (c1^2 + c2)
    big_c: float    # c2 / (c1^2 + c2)
    c: float        # big_c / (b/w - big_c)
    q0: float       # ln(b/w - big_c) / c1
    pot_num: float  # b/w + big_c, numerator constant of the closed-form potential
    two_d: float    # (1 - c2) w^2
    two_e0: float   # (1 - c2) w^2 - c0^2/c1^2


@dataclass(frozen=True)
class KratzerFuesParams:
    c0: float
    c1: float
    s: float       # (1 - c0 - c1^2) / c0
    two_d: float   # c0^2 / (c1^2 (1 - c1^2))
    two_e0: float  # c0^2 / (1 - c1^2)


FamilyParams = HarmonicParams | MorseParams | WeiHuaParams | KratzerFuesParams


@dataclass(frozen=True)
class OscillatorModel:
    """One oscillator family instance with its derived constants.

    The domain is the open interval (q_lower, q_upper); the commutator
    -x'(q) is strictly positive everywhere on it.
    """

    family: str
    params: FamilyParams
    q_lower: float
    q_upper: float
    e0: float
    d_const: float | None


def describe(model: OscillatorModel) -> str:
    """Short deterministic descriptor used in file headers and reports."""
    p = model.params
    if model.family == HARMONIC:
        return "harmonic"
    if model.family == GENERALIZED_MORSE:
        return f"generalized_morse(s={p.s!r}, x_e={p.x_e!r})"
    if model.family == WEI_HUA:
        return f"wei_hua(c0={p.c0!r}, c1={p.c1!r}, c2={p.c2!r})"
    if model.family == KRATZER_FUES:
        return f"kratzer_fues(c1={p.c1!r})"
    return f"generalized_kratzer_fues(c0={p.c0!r}, c1={p.c1!r})"


def _check_domain(model: OscillatorModel, q) -> np.float64 | np.ndarray:
    if isinstance(q, float):
        # Scalar fast path (also np.float64): the same comparisons without
        # building arrays. Evaluating on np.float64 keeps numpy's arithmetic,
        # so results and overflow behaviour match the array path bit for bit.
        inside = model.q_lower < q < model.q_upper
        qa = np.float64(q)
    else:
        qa = np.asarray(q, dtype=float)
        inside = np.all(qa > model.q_lower) and np.all(qa < model.q_upper)
    if not inside:  # written so that NaN, which compares False, is outside
        raise DomainViolationError(
            f"coordinate outside open domain ({model.q_lower!r}, {model.q_upper!r})"
        )
    return qa


def _as_input_shape(value: np.ndarray, q) -> float | np.ndarray:
    return float(value) if isinstance(q, float) or not np.ndim(q) else value


def eval_superpotential(model: OscillatorModel, q) -> float | np.ndarray:
    """Superpotential x(q) from the family closed form."""
    qa = _check_domain(model, q)
    p = model.params
    if model.family == HARMONIC:
        x = -qa
    elif model.family == GENERALIZED_MORSE:
        x = (np.exp(-p.c1 * qa) - p.c0) / p.c1
    elif model.family == WEI_HUA:
        ce = p.big_c * np.exp(-p.c1 * qa)
        x = (p.c1 / p.c2) * ce / (1.0 - ce) - p.c0 / p.c1
    else:
        x = 1.0 / (p.c1 * (p.c1 * qa + 1.0)) - p.c0 / p.c1
    return _as_input_shape(x, q)


def eval_superpotential_derivative(model: OscillatorModel, q) -> float | np.ndarray:
    """Analytic dx/dq; strictly negative everywhere on the domain."""
    qa = _check_domain(model, q)
    p = model.params
    if model.family == HARMONIC:
        d = -np.ones_like(qa)
    elif model.family == GENERALIZED_MORSE:
        d = -np.exp(-p.c1 * qa)
    elif model.family == WEI_HUA:
        ce = p.big_c * np.exp(-p.c1 * qa)
        d = -(p.c1 ** 2 / p.c2) * ce / (1.0 - ce) ** 2
    else:
        d = -1.0 / (p.c1 * qa + 1.0) ** 2
    return _as_input_shape(d, q)


def commutator_value(model: OscillatorModel, q) -> float | np.ndarray:
    """[A, A^dagger] as a multiplication operator: -dx/dq, positive on the domain."""
    return -eval_superpotential_derivative(model, q)


def riccati_potential(model: OscillatorModel, q) -> float | np.ndarray:
    """V(q) - E0 built from the Riccati combination (x^2 + x')/2."""
    x = eval_superpotential(model, q)
    return 0.5 * (x * x + eval_superpotential_derivative(model, q))


def closed_form_potential(model: OscillatorModel, q) -> float | np.ndarray:
    """V(q) - E0 from the family closed-form potential shape.

    This is a different algebraic route than riccati_potential; agreement of
    the two is the Riccati consistency check.
    """
    qa = _check_domain(model, q)
    p = model.params
    if model.family == HARMONIC:
        v = 0.5 * (qa * qa - 1.0)
    elif model.family == GENERALIZED_MORSE:
        u = np.exp(-p.c1 * qa)
        v = 0.5 * ((p.s - u) ** 2 / (2.0 * p.x_e) - p.s + 0.5 * p.x_e)
    elif model.family == WEI_HUA:
        u = np.exp(-p.c1 * qa)
        ratio = (1.0 - p.pot_num * u) / (1.0 - p.big_c * u)
        v = 0.5 * (p.two_d * ratio * ratio - p.two_e0)
    else:
        w = p.c1 * qa + 1.0
        ratio = (p.c1 * qa - p.s) / w
        v = 0.5 * (p.two_d * ratio * ratio - p.two_e0)
    return _as_input_shape(v, q)
