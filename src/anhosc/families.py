"""The five oscillator families, one record each, plus the
physical-to-dimensionless parameter map for the Morse oscillator.

Each family differs from the others only in its superpotential x(q) and the
constants derived from it. Everything family-specific lives here: the
validating constructor, the kernel of x, x' and log psi0, the closed-form
V - E0, the admissibility bound, the closed-form peak of |psi_alpha|, a
full-line family's envelope, the descriptor template, the header fields and
the CLI spelling. The Family record in FAMILIES gathers them per family
name, and family_of(model) looks it up, so adding a family means editing
this module alone.

Constructors are pure and deterministic; invalid parameter combinations are
rejected eagerly with a message naming the violated condition.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import InvalidParameterError

HARMONIC = "harmonic"
GENERALIZED_MORSE = "generalized_morse"
WEI_HUA = "wei_hua"
KRATZER_FUES = "kratzer_fues"
GENERALIZED_KRATZER_FUES = "generalized_kratzer_fues"


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


@dataclass(frozen=True)
class OscillatorModel:
    """One oscillator family instance with its derived constants.

    The domain is the open interval (q_lower, q_upper); the commutator
    -x'(q) is strictly positive everywhere on it.
    """

    family: str
    params: HarmonicParams | MorseParams | WeiHuaParams | KratzerFuesParams
    q_lower: float
    q_upper: float
    e0: float
    d_const: float | None


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
class Family:
    """What one family contributes to the scheme, looked up by family_of(). Only
    the full-line families set envelope, an interval every auto_grid covers."""

    name: str                              # OscillatorModel.family
    cli_name: str                          # --family spelling
    cli_params: tuple[str, ...]            # --param names, in make's argument order
    make: Callable[..., OscillatorModel]
    descriptor: str                        # describe()'s template, formatted with p=params
    header: tuple[tuple[str, str], ...]    # (label, params field) header constants
    kernel: Callable[[object], Callable]   # params -> the fields() of models.kernel
    potential: Callable[[object, np.ndarray], np.ndarray]  # (params, q) -> closed-form V - E0
    bound: Callable[[OscillatorModel], AdmissibilityBound]
    peak: Callable[[object, float], float]  # (params, t) -> the root q of x(q) = -t
    envelope: Callable[[object], tuple[float, float]] | None = None  # params -> (a0, b0)


def _require_finite(**params: float) -> None:
    """InvalidParameterError naming the first parameter that is not finite."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite, got {value!r}")


def _float64_constants(make: Callable[..., OscillatorModel]) -> Callable[..., OscillatorModel]:
    """make, refusing by name parameters whose derived constants raise in
    float64: a quotient by a product that underflows to zero, or a power
    that overflows."""
    @functools.wraps(make)
    def checked(*args: float, **kwargs: float) -> OscillatorModel:
        try:
            return make(*args, **kwargs)
        except (ZeroDivisionError, OverflowError) as exc:
            given = ", ".join([*map(repr, args), *(f"{k}={v!r}" for k, v in kwargs.items())])
            raise InvalidParameterError(
                f"derived constants of {make.__name__}({given}) leave float64 range") from exc
    return checked


def _numpy(name: str, z):
    """np.<name>(z), as a Python float for a Python float z, so that a kernel
    computes on Python floats with numpy's rounding (math's differs at times)."""
    ufunc = getattr(np, name)
    return float(ufunc(z)) if type(z) is float else ufunc(z)


def make_harmonic() -> OscillatorModel:
    """Harmonic oscillator: x(q) = -q, V - E0 = (q^2 - 1)/2, E0 = 1/2."""
    return OscillatorModel(
        family=HARMONIC,
        params=HarmonicParams(),
        q_lower=-math.inf,
        q_upper=math.inf,
        e0=0.5,
        d_const=None,
    )


def _harmonic_kernel(p: HarmonicParams) -> Callable:
    def fields(q, x=True, xp=False, log_psi0=False):
        return (-q if x else None,
                -np.ones_like(q) if xp else None,
                -0.5 * q * q if log_psi0 else None)
    return fields


def make_generalized_morse(s: float, x_e: float) -> OscillatorModel:
    """Generalized Morse oscillator with anharmonicity constant x_e.

    Derived constants: c0 = s - x_e and c1 = sqrt(2 x_e). Requires x_e > 0 and
    s > x_e so that c0 > 0 and the ground state decays at +infinity. The s = 1
    case is the standard Morse oscillator.
    """
    s = float(s)
    x_e = float(x_e)
    _require_finite(s=s, x_e=x_e)
    if not (x_e > 0.0):
        raise InvalidParameterError(f"x_e must be positive, got {x_e!r}")
    if not (s > x_e):
        raise InvalidParameterError(f"s must exceed x_e, got s={s!r}, x_e={x_e!r}")
    c1 = math.sqrt(2.0 * x_e)
    c0 = s - x_e
    return OscillatorModel(
        family=GENERALIZED_MORSE,
        params=MorseParams(s=s, x_e=x_e, c0=c0, c1=c1),
        q_lower=-math.inf,
        q_upper=math.inf,
        e0=0.5 * (s - 0.5 * x_e),
        d_const=s * s / (4.0 * x_e),
    )


def _morse_kernel(p: MorseParams) -> Callable:
    neg_c1, c0, c1, c1_sq, slope = -p.c1, p.c0, p.c1, p.c1 ** 2, p.c0 / p.c1

    def fields(q, x=True, xp=False, log_psi0=False):
        u = _numpy("exp", neg_c1 * q)
        return ((u - c0) / c1 if x else None,
                -u if xp else None,
                (1.0 - u) / c1_sq - slope * q if log_psi0 else None)
    return fields


def _morse_potential(p: MorseParams, q: np.ndarray) -> np.ndarray:
    u = np.exp(-p.c1 * q)
    return 0.5 * ((p.s - u) ** 2 / (2.0 * p.x_e) - p.s + 0.5 * p.x_e)


@_float64_constants
def make_wei_hua(c0: float, c1: float, c2: float) -> OscillatorModel:
    """Wei Hua oscillator from the parabolic generating-series coefficients.

    Stores the derived constants W, B, C, c, q0 and the potential constants
    2D = (1 - c2) W^2 and 2E0 = (1 - c2) W^2 - c0^2/c1^2. Only triples with a
    real q0 (B/W - C > 0) and a positive commutator (c/c2 > 0) are
    constructible. The domain is (ln(C)/c1, inf) when c > 0 and the whole line
    otherwise.
    """
    c0 = float(c0)
    c1 = float(c1)
    c2 = float(c2)
    _require_finite(c0=c0, c1=c1, c2=c2)
    if not (c1 > 0.0):
        raise InvalidParameterError(f"c1 must be positive, got {c1!r}")
    if c2 == 0.0 or c2 == 1.0:
        raise InvalidParameterError(f"c2 must not be 0 or 1, got {c2!r}")
    if c1 * c1 + c2 == 0.0:
        raise InvalidParameterError("c1^2 + c2 must be nonzero")
    if 2.0 * c0 + c1 * c1 == 0.0:
        raise InvalidParameterError("W vanishes: 2 c0 + c1^2 must be nonzero")
    w = (2.0 * c0 + c1 * c1) / (2.0 * c1 * (1.0 - c2))
    b = c1 / (c1 * c1 + c2)
    big_c = c2 / (c1 * c1 + c2)
    split = b / w - big_c
    if not (split > 0.0):
        raise InvalidParameterError(
            f"B/W - C = {split!r} must be positive (q0 undefined otherwise)"
        )
    c = big_c / split
    q0 = math.log(split) / c1
    if not (c / c2 > 0.0):
        raise InvalidParameterError(f"c/c2 = {c / c2!r} must be positive")
    two_d = (1.0 - c2) * w * w
    two_e0 = two_d - (c0 / c1) ** 2
    q_lower = math.log(big_c) / c1 if c > 0.0 else -math.inf
    return OscillatorModel(
        family=WEI_HUA,
        params=WeiHuaParams(
            c0=c0, c1=c1, c2=c2, w=w, b=b, big_c=big_c, c=c, q0=q0,
            pot_num=b / w + big_c, two_d=two_d, two_e0=two_e0,
        ),
        q_lower=q_lower,
        q_upper=math.inf,
        e0=0.5 * two_e0,
        d_const=0.5 * two_d,
    )


def _wei_hua_kernel(p: WeiHuaParams) -> Callable:
    neg_c1, big_c, c2, slope = -p.c1, p.big_c, p.c2, p.c0 / p.c1
    x_scale, xp_scale, w0 = p.c1 / p.c2, -(p.c1 ** 2 / p.c2), 1.0 - p.big_c

    def fields(q, x=True, xp=False, log_psi0=False):
        ce = big_c * _numpy("exp", neg_c1 * q)
        w = 1.0 - ce
        return (x_scale * ce / w - slope if x else None,
                _over_square(xp_scale * ce, w) if xp else None,
                _numpy("log", w / w0) / c2 - slope * q if log_psi0 else None)
    return fields


def _over_square(num, w):
    """num / w ** 2, divided by w twice where w ** 2 alone overflows float64
    (finite |w| above 1.3e154, far left on the full line), so x' there is
    the tiny value it is and not -0.0; every other quotient keeps its bits."""
    with np.errstate(over="ignore"):
        square = w ** 2
    quotient = num / square
    far = np.isinf(square) & np.isfinite(w)
    if far.any():
        quotient = np.where(far, num / w / w, quotient)
    return quotient


def _wei_hua_potential(p: WeiHuaParams, q: np.ndarray) -> np.ndarray:
    u = np.exp(-p.c1 * q)
    ratio = (1.0 - p.pot_num * u) / (1.0 - p.big_c * u)
    return 0.5 * (p.two_d * ratio * ratio - p.two_e0)


def _wei_hua_bound(model: OscillatorModel) -> AdmissibilityBound:
    p = model.params
    sup = p.c0 / p.c1
    # Full-line branch: the left tail decays only for sqrt(2) Re(alpha) > -x(-inf).
    inf = p.c1 / p.c2 + sup if not math.isfinite(model.q_lower) else -math.inf
    return AdmissibilityBound(sup_re_alpha=sup, inf_re_alpha=inf)


def _wei_hua_peak(p: WeiHuaParams, t: float) -> float:
    # C e^{-c1 q} = r/(1 + r), r = (c0/c1 - t) c2/c1. On the full line (C, c2 < 0),
    # 1 + r is c2/c1 times inf_re_alpha - t, which cannot round to zero.
    sup = p.c0 / p.c1
    r = (sup - t) * p.c2 / p.c1
    one_plus_r = 1.0 + r if p.big_c > 0.0 else p.c2 / p.c1 * (p.c1 / p.c2 + sup - t)
    return math.log(p.big_c * one_plus_r / r) / p.c1


@_float64_constants
def make_generalized_kratzer_fues(c0: float, c1: float) -> OscillatorModel:
    """Generalized Kratzer-Fues oscillator on the half line (-1/c1, inf).

    Requires 0 < c1 < 1 (so 1 - c1^2 > 0 and D, E0 are positive) and c0 > 0.
    The shape parameter is s = (1 - c0 - c1^2)/c0; c0 = 1 - c1^2 gives the
    plain Kratzer-Fues oscillator (s = 0).
    """
    c0 = float(c0)
    c1 = float(c1)
    # c1 first: make_kratzer_fues derives c0 from it.
    _require_finite(c1=c1, c0=c0)
    if not (0.0 < c1 < 1.0):
        raise InvalidParameterError(f"c1 must satisfy 0 < c1 < 1, got {c1!r}")
    if not (c0 > 0.0):
        raise InvalidParameterError(f"c0 must be positive, got {c0!r}")
    one_m = 1.0 - c1 * c1
    s = (1.0 - c0 - c1 * c1) / c0
    two_d = c0 * c0 / (c1 * c1 * one_m)
    two_e0 = c0 * c0 / one_m
    return OscillatorModel(
        family=GENERALIZED_KRATZER_FUES,
        params=KratzerFuesParams(c0=c0, c1=c1, s=s, two_d=two_d, two_e0=two_e0),
        q_lower=-1.0 / c1,
        q_upper=math.inf,
        e0=0.5 * two_e0,
        d_const=0.5 * two_d,
    )


@_float64_constants
def make_kratzer_fues(c1: float) -> OscillatorModel:
    """Kratzer-Fues oscillator: the c0 = 1 - c1^2 special case (s = 0)."""
    c1 = float(c1)
    # The generalized constructor checks c1 before the derived c0, so it names
    # a bad c1; undecorated, so that a float64 refusal names this call.
    make = make_generalized_kratzer_fues.__wrapped__
    return replace(make(1.0 - c1 * c1, c1), family=KRATZER_FUES)


def _kratzer_kernel(p: KratzerFuesParams) -> Callable:
    c1, c1_sq, slope = p.c1, p.c1 ** 2, p.c0 / p.c1

    def fields(q, x=True, xp=False, log_psi0=False):
        c1q = c1 * q
        w = c1q + 1.0
        return (1.0 / (c1 * w) - slope if x else None,
                -1.0 / w ** 2 if xp else None,
                _numpy("log1p", c1q) / c1_sq - slope * q if log_psi0 else None)
    return fields


def _kratzer_potential(p: KratzerFuesParams, q: np.ndarray) -> np.ndarray:
    w = p.c1 * q + 1.0
    ratio = (p.c1 * q - p.s) / w
    return 0.5 * (p.two_d * ratio * ratio - p.two_e0)


def _right_tail_bound(model: OscillatorModel) -> AdmissibilityBound:
    return AdmissibilityBound(sup_re_alpha=model.params.c0 / model.params.c1)


_C0_C1_S = (("c0", "c0"), ("c1", "c1"), ("s", "s"))
# Kratzer-Fues is generalized Kratzer-Fues at c0 = 1 - c1^2: one set of closed forms.
_KRATZER = dict(header=_C0_C1_S, kernel=_kratzer_kernel, potential=_kratzer_potential,
                bound=_right_tail_bound,
                peak=lambda p, t: (1.0 / (p.c1 * (p.c0 / p.c1 - t)) - 1.0) / p.c1)

#: The family records by OscillatorModel.family, in the order --help lists them.
FAMILIES = {family.name: family for family in (
    Family(name=HARMONIC, cli_name="harmonic", cli_params=(), make=make_harmonic,
           descriptor="harmonic", header=(), kernel=_harmonic_kernel,
           potential=lambda p, q: 0.5 * (q * q - 1.0),
           bound=lambda model: AdmissibilityBound(sup_re_alpha=math.inf),
           peak=lambda p, t: t,
           envelope=lambda p: (-8.0, 8.0)),
    Family(name=GENERALIZED_MORSE, cli_name="morse", cli_params=("s", "xe"),
           make=make_generalized_morse,
           descriptor="generalized_morse(s={p.s!r}, x_e={p.x_e!r})", header=_C0_C1_S,
           kernel=_morse_kernel, potential=_morse_potential, bound=_right_tail_bound,
           peak=lambda p, t: -(math.log(p.c1) + math.log(p.c0 / p.c1 - t)) / p.c1,
           envelope=lambda p: (-3.0, 40.0 / p.c1)),
    Family(name=WEI_HUA, cli_name="weihua", cli_params=("c0", "c1", "c2"),
           make=make_wei_hua, descriptor="wei_hua(c0={p.c0!r}, c1={p.c1!r}, c2={p.c2!r})",
           header=(("W", "w"), ("B", "b"), ("C", "big_c"), ("c", "c"), ("q0", "q0")),
           kernel=_wei_hua_kernel, potential=_wei_hua_potential, bound=_wei_hua_bound,
           peak=_wei_hua_peak,  # the envelope serves the full-line branch (c < 0) alone
           envelope=lambda p: (p.q0 - 40.0 / p.c1, p.q0 + 40.0 / p.c1)),
    Family(name=KRATZER_FUES, cli_name="kratzer", cli_params=("c1",),
           make=make_kratzer_fues, descriptor="kratzer_fues(c1={p.c1!r})", **_KRATZER),
    Family(name=GENERALIZED_KRATZER_FUES, cli_name="gkf", cli_params=("c0", "c1"),
           make=make_generalized_kratzer_fues,
           descriptor="generalized_kratzer_fues(c0={p.c0!r}, c1={p.c1!r})", **_KRATZER),
)}


def family_of(model: OscillatorModel) -> Family:
    """The record of the model's family."""
    return FAMILIES[model.family]


@dataclass(frozen=True)
class PhysicalMorseParams:
    """Physical Morse parameters in any consistent unit system."""

    d_e: float    # dissociation energy
    a: float      # range parameter (inverse length)
    m: float      # reduced mass
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("d_e", "a", "m", "hbar"):
            if not (0.0 < getattr(self, name) < math.inf):
                raise InvalidParameterError(f"{name} must be positive and finite")


def morse_dimensionless_from_physical(p: PhysicalMorseParams) -> tuple[float, float]:
    """Map physical Morse parameters to (x_e, omega_e).

    omega_e = a sqrt(2 D_e / m) is the vibrational frequency and
    x_e = hbar omega_e / (4 D_e) the anharmonicity constant. Downstream
    construction with s = 1 additionally needs x_e < 1.
    """
    omega_e = p.a * math.sqrt(2.0 * p.d_e / p.m)
    x_e = p.hbar * omega_e / (4.0 * p.d_e)
    return x_e, omega_e
