"""Superpotential, commutator, and Riccati-consistency tests for the
oscillator families."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anhosc.errors import DomainViolationError
from anhosc.families import (
    make_generalized_kratzer_fues,
    make_generalized_morse,
    make_harmonic,
    make_kratzer_fues,
    make_wei_hua,
)
from anhosc.models import (
    closed_form_potential,
    commutator_value,
    eval_superpotential,
    eval_superpotential_derivative,
    riccati_potential,
)
from anhosc.numerics import SampledFunction, differentiate
from anhosc.states import auto_grid


def desk_models():
    return [
        make_harmonic(),
        make_generalized_morse(1.0, 0.5),
        make_generalized_morse(1.2, 0.125),
        make_wei_hua(0.2, 1.0, 0.5),
        make_kratzer_fues(0.5),
        make_generalized_kratzer_fues(0.75, 0.5),
    ]


class TestSuperpotential:
    def test_harmonic(self):
        m = make_harmonic()
        assert eval_superpotential(m, 2.0) == -2.0
        assert eval_superpotential_derivative(m, 3.7) == -1.0
        assert commutator_value(m, 7.0) == 1.0

    def test_morse_at_origin(self):
        m = make_generalized_morse(1.0, 0.5)
        assert m.params.c0 == 0.5
        assert m.params.c1 == 1.0
        assert abs(eval_superpotential(m, 0.0) - 0.5) < 1e-15
        assert abs(eval_superpotential_derivative(m, 0.0) - (-1.0)) < 1e-15
        assert abs(commutator_value(m, 0.0) - 1.0) < 1e-15

    def test_morse_small_anharmonicity(self):
        m = make_generalized_morse(1.0, 0.125)
        assert abs(m.params.c1 - 0.5) < 1e-15
        assert abs(m.params.c0 - 0.875) < 1e-15
        assert abs(eval_superpotential(m, 0.0) - 0.25) < 1e-15

    def test_kratzer_values(self):
        m = make_kratzer_fues(0.5)
        # 1/(0.5 * 2) - 1.5 at q = 2.
        assert abs(eval_superpotential(m, 2.0) - (-0.5)) < 1e-15
        assert abs(eval_superpotential_derivative(m, 2.0) - (-0.25)) < 1e-15
        assert abs(commutator_value(m, 2.0) - 0.25) < 1e-15

    def test_commutator_is_negated_derivative(self):
        for m in desk_models():
            q = auto_grid(m, n=101).points()
            np.testing.assert_array_equal(
                commutator_value(m, q), -eval_superpotential_derivative(m, q)
            )

    def test_domain_violation(self):
        kf = make_kratzer_fues(0.5)
        with pytest.raises(DomainViolationError):
            eval_superpotential(kf, -3.0)
        wh = make_wei_hua(0.2, 1.0, 0.5)
        with pytest.raises(DomainViolationError):
            eval_superpotential(wh, wh.q_lower)


class TestRiccati:
    def test_harmonic_values(self):
        m = make_harmonic()
        assert abs(riccati_potential(m, 1.0) - 0.0) < 1e-15
        assert abs(riccati_potential(m, 0.0) - (-0.5)) < 1e-15

    def test_morse_dissociation_limit(self):
        # As q grows, V - E0 tends to x(inf)^2 / 2 = (c0/c1)^2 / 2 = 0.125.
        m = make_generalized_morse(1.0, 0.5)
        assert abs(riccati_potential(m, 40.0) - 0.125) < 1e-9

    def test_consistency_against_closed_forms(self):
        # Closed-form family potential vs (x^2 + x')/2, analytic derivatives.
        for m in desk_models():
            q = auto_grid(m).points()
            resid = np.abs(closed_form_potential(m, q) - riccati_potential(m, q))
            assert np.max(resid) < 1e-8, m.family

    def test_analytic_derivative_matches_finite_differences(self):
        # Checks the analytic x' formulas, so the grid keeps a unit distance
        # from any domain pole, where no uniform stencil could resolve x.
        from anhosc.numerics import make_grid

        for m in desk_models():
            wide = auto_grid(m)
            lo = wide.q_min if m.q_lower == -np.inf else m.q_lower + 1.0
            grid = make_grid(lo, wide.q_max, 4001)
            x = SampledFunction(grid, np.asarray(eval_superpotential(m, grid.points())))
            numeric = differentiate(x, 1).values
            analytic = eval_superpotential_derivative(m, grid.points())
            interior = slice(2, -2)
            err = np.max(np.abs(numeric[interior] - analytic[interior]))
            assert err < 1e-6, m.family


@settings(max_examples=60, deadline=None)
@given(u=st.floats(1e-6, 1.0 - 1e-6))
def test_commutator_positive_everywhere(u):
    # Map u in (0, 1) to a domain point of each model and check -x' > 0.
    for m in desk_models():
        lo, hi = auto_grid(m).q_min, auto_grid(m).q_max
        q = lo + u * (hi - lo)
        assert commutator_value(m, q) > 0.0


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(0.3, 3.0),
    x_e=st.floats(0.05, 0.28),
    c0=st.floats(0.1, 2.0),
    c1=st.floats(0.2, 0.9),
)
def test_riccati_identity_over_parameter_ranges(s, x_e, c0, c1):
    # The closed-form potential constants must satisfy the Riccati relation
    # for arbitrary admissible parameters, not just the desk values. Grids
    # stay a little away from poles so float64 cancellation cannot mask a
    # genuinely wrong constant.
    morse = make_generalized_morse(s, x_e)
    q = np.linspace(-2.0, 25.0, 301)
    assert np.max(np.abs(
        closed_form_potential(morse, q) - riccati_potential(morse, q)
    )) < 1e-9

    kratzer = make_generalized_kratzer_fues(c0, c1)
    qk = np.linspace(kratzer.q_lower + 0.05 / c1, 30.0, 301)
    assert np.max(np.abs(
        closed_form_potential(kratzer, qk) - riccati_potential(kratzer, qk)
    )) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    c0=st.floats(0.1, 1.5),
    c1=st.floats(0.4, 1.6),
    # The Morse limit c2 -> 0 pushes x ~ c1/c2 beyond float64 near the pole,
    # so keep |c2| in a representable band.
    c2=st.one_of(st.floats(-0.8, -0.02), st.floats(0.02, 0.9)),
)
def test_wei_hua_riccati_identity_over_parameter_ranges(c0, c1, c2):
    from anhosc.errors import InvalidParameterError

    try:
        m = make_wei_hua(c0, c1, c2)
    except InvalidParameterError:
        return  # rejected triples are outside the constructible set
    lo = m.q_lower + 0.05 / c1 if np.isfinite(m.q_lower) else m.params.q0 - 20.0 / c1
    q = np.linspace(lo, m.params.q0 + 25.0 / c1, 301)
    # Small c2 drives the potential to ~1e7 near the pole, so compare with a
    # magnitude-aware floor: wrong constants would show up at O(1) relative.
    v = closed_form_potential(m, q)
    resid = np.abs(v - riccati_potential(m, q)) / (1.0 + np.abs(v))
    assert np.max(resid) < 1e-12


def test_e0_and_depth_constants():
    wh = make_wei_hua(0.2, 1.0, 0.5)
    assert abs(2 * wh.d_const - (1 - 0.5) * 1.4**2) < 1e-15
    kf = make_kratzer_fues(0.5)
    assert abs(2 * kf.d_const - 3.0) < 1e-15
    assert abs(2 * kf.e0 - 0.75) < 1e-15
    harm = make_harmonic()
    assert harm.e0 == 0.5
    assert harm.d_const is None


def _scalar_inputs(m):
    """Scalars probing the domain check: inside, on and beyond each finite
    boundary, infinities and NaN, spelled as int, float and np.float64. The
    huge 1e300 overflows when squared, where plain float arithmetic would
    raise and numpy returns inf."""
    qs = [1, 0.5, np.float64(0.5), 1e300, math.nan, np.float64(math.nan),
          -math.inf, math.inf]
    if math.isfinite(m.q_lower):
        qs += [m.q_lower, np.float64(m.q_lower), m.q_lower - 1.0,
               np.nextafter(m.q_lower, math.inf), math.floor(m.q_lower) - 1]
        if m.q_lower == int(m.q_lower):
            qs.append(int(m.q_lower))
    return qs


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the exception type is part of the contract
        return type(exc)


def _assert_same_outcome(scalar, reference, q):
    if isinstance(reference, type):
        assert scalar is reference, (q, scalar)
        return
    assert type(scalar) is float, (q, type(scalar))
    assert struct.pack("<d", scalar) == struct.pack("<d", reference), (q, scalar, reference)


_PARITY_MODELS = desk_models() + [make_wei_hua(0.2, 1.0, -0.5)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow at 1e300
@pytest.mark.parametrize("m", _PARITY_MODELS, ids=lambda m: m.family)
def test_scalar_and_array_domain_checks_agree(m):
    for q in _scalar_inputs(m):
        scalar = _outcome(lambda: eval_superpotential(m, q))
        array = _outcome(lambda: eval_superpotential(m, np.array([q]))[0])
        _assert_same_outcome(scalar, array, q)


@pytest.mark.parametrize("evaluate", [
    eval_superpotential,
    eval_superpotential_derivative,
    commutator_value,
    riccati_potential,
    closed_form_potential,
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow at 1e300
@pytest.mark.parametrize("m", _PARITY_MODELS, ids=lambda m: m.family)
def test_scalar_fast_path_matches_zero_dim_array_path(evaluate, m):
    # A 0-d array takes the array domain check followed by numpy scalar
    # arithmetic: the reference the fast path must reproduce bit for bit.
    # (A 1-element array may differ in the last bit, since numpy squares
    # arrays but calls pow on scalars for ** 2.)
    for q in _scalar_inputs(m):
        scalar = _outcome(lambda: evaluate(m, q))
        zero_dim = _outcome(lambda: evaluate(m, np.array(q, dtype=float)))
        _assert_same_outcome(scalar, zero_dim, q)


@pytest.mark.parametrize("evaluate", [
    eval_superpotential,
    eval_superpotential_derivative,
    commutator_value,
    riccati_potential,
    closed_form_potential,
])
@pytest.mark.parametrize("m", _PARITY_MODELS, ids=lambda m: m.family)
def test_nan_coordinate_is_outside_the_domain(evaluate, m):
    inside = 1.0
    evaluate(m, np.array([inside, inside]))  # the rejection below is NaN's alone
    for q in (math.nan, np.float64(math.nan), np.array(math.nan),
              np.array([inside, math.nan, inside])):
        with pytest.raises(DomainViolationError, match="outside open domain"):
            evaluate(m, q)


def _reference_riccati_potential(m, q):
    """riccati_potential as it was before it was built from eval_superpotential
    and eval_superpotential_derivative: its own copy of the closed forms."""
    from anhosc.models import (
        GENERALIZED_MORSE,
        HARMONIC,
        WEI_HUA,
        _as_input_shape,
        check_domain,
    )

    qa = check_domain(m, q)
    p = m.params
    if m.family == HARMONIC:
        x = -qa
        dx = -np.ones_like(qa)
    elif m.family == GENERALIZED_MORSE:
        u = np.exp(-p.c1 * qa)
        x = (u - p.c0) / p.c1
        dx = -u
    elif m.family == WEI_HUA:
        ce = p.big_c * np.exp(-p.c1 * qa)
        x = (p.c1 / p.c2) * ce / (1.0 - ce) - p.c0 / p.c1
        dx = -(p.c1 ** 2 / p.c2) * ce / (1.0 - ce) ** 2
    else:
        w = p.c1 * qa + 1.0
        x = 1.0 / (p.c1 * w) - p.c0 / p.c1
        dx = -1.0 / w ** 2
    return _as_input_shape(0.5 * (x * x + dx), q)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow far out
@pytest.mark.parametrize("m", _PARITY_MODELS, ids=lambda m: m.family)
def test_riccati_potential_matches_its_former_closed_forms(m):
    rng = np.random.default_rng(7)
    lo = m.q_lower if math.isfinite(m.q_lower) else -60.0
    arrays = [
        auto_grid(m).points(),
        np.linspace(np.nextafter(lo, math.inf), 800.0, 4001),
        lo + np.abs(lo) * 1e-9 + 10.0 ** rng.uniform(-12, 2, 500),
        np.array([]),
    ]
    for q in arrays:
        got = riccati_potential(m, q)
        assert type(got) is np.ndarray
        assert got.tobytes() == _reference_riccati_potential(m, q).tobytes()
        for qi in q[::97]:
            _assert_same_outcome(riccati_potential(m, float(qi)),
                                 _reference_riccati_potential(m, float(qi)), qi)
    for q in _scalar_inputs(m):
        got = _outcome(lambda: riccati_potential(m, q))
        ref = _outcome(lambda: _reference_riccati_potential(m, q))
        if isinstance(ref, float) and math.isnan(ref):
            # NaN in (NaN or inf - inf), whose sign bit numpy scalars and
            # Python floats propagate differently; no output shows it.
            assert type(got) is float and math.isnan(got), (q, got)
        else:
            _assert_same_outcome(got, ref, q)


def _former_superpotential(m, qa):
    """x(q) as eval_superpotential had it before x, x' and log psi0 shared
    one kernel per family, copied verbatim."""
    from anhosc.models import GENERALIZED_MORSE, HARMONIC, WEI_HUA

    p = m.params
    if m.family == HARMONIC:
        x = -qa
    elif m.family == GENERALIZED_MORSE:
        x = (np.exp(-p.c1 * qa) - p.c0) / p.c1
    elif m.family == WEI_HUA:
        ce = p.big_c * np.exp(-p.c1 * qa)
        x = (p.c1 / p.c2) * ce / (1.0 - ce) - p.c0 / p.c1
    else:
        x = 1.0 / (p.c1 * (p.c1 * qa + 1.0)) - p.c0 / p.c1
    return x


def _former_superpotential_derivative(m, qa):
    """dx/dq as eval_superpotential_derivative had it, copied verbatim."""
    from anhosc.models import GENERALIZED_MORSE, HARMONIC, WEI_HUA

    p = m.params
    if m.family == HARMONIC:
        d = -np.ones_like(qa)
    elif m.family == GENERALIZED_MORSE:
        d = -np.exp(-p.c1 * qa)
    elif m.family == WEI_HUA:
        ce = p.big_c * np.exp(-p.c1 * qa)
        d = -(p.c1 ** 2 / p.c2) * ce / (1.0 - ce) ** 2
    else:
        d = -1.0 / (p.c1 * qa + 1.0) ** 2
    return d


def _former_log_ground_amplitude(model, q):
    """log psi0(q) as states had it, copied verbatim."""
    from anhosc.models import GENERALIZED_MORSE, HARMONIC, WEI_HUA

    p = model.params
    if model.family == HARMONIC:
        return -0.5 * q * q
    if model.family == GENERALIZED_MORSE:
        return (1.0 - np.exp(-p.c1 * q)) / p.c1 ** 2 - (p.c0 / p.c1) * q
    if model.family == WEI_HUA:
        u = p.big_c * np.exp(-p.c1 * q)
        return np.log((1.0 - u) / (1.0 - p.big_c)) / p.c2 - (p.c0 / p.c1) * q
    return np.log1p(p.c1 * q) / p.c1 ** 2 - (p.c0 / p.c1) * q


def _bits(value):
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, np.ndarray) and value.ndim:
        return value.dtype.str, value.tobytes()
    return float(value).hex()


def _bits_and_warnings(call):
    """(bits of the result or the exception type, the set of warnings)."""
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = _bits(call())
        except Exception as exc:  # the exception type is part of the contract
            result = type(exc)
    return result, {(w.category, str(w.message)) for w in caught}


def _kernel_inputs(m):
    """Coordinates across the former search interval, next to a finite boundary,
    and in far tails where exp(-c1 q) overflows (full-line families) or
    q * q does (harmonic)."""
    from test_family_records import _reference_default_interval

    a0, b0 = _reference_default_interval(m)
    qs = [*np.linspace(a0, b0, 61), b0 * 1e3, 1e200]
    if math.isfinite(m.q_lower):
        qs += [float(np.nextafter(m.q_lower, math.inf))]
        qs += [m.q_lower + 10.0 ** -k for k in range(1, 16)]
    else:
        qs += [a0 * 1e3, -1e200]
    return [q for q in map(float, qs) if m.q_lower < q]


_KERNEL_MODELS = _PARITY_MODELS + [
    make_generalized_morse(50.0, 0.01),
    make_wei_hua(0.2, 1.0, 0.3),
    make_kratzer_fues(0.9),
]


@pytest.mark.parametrize("m", _KERNEL_MODELS, ids=lambda m: m.family)
def test_kernel_matches_the_former_closed_forms(m):
    """x, x' and log psi0 from the family kernel: the public evaluators
    (scalar and array), the fused call grid_fields makes, and the searches'
    float evaluations give the bits, warnings and exceptions of the former
    separate closed forms."""
    from anhosc.models import _as_input_shape, check_domain, kernel
    from anhosc.states import _log_ground_amplitude, _search_functions

    def former(closed_form):
        return lambda q: _as_input_shape(closed_form(m, check_domain(m, q)), q)

    pairs = [
        (lambda q: eval_superpotential(m, q), former(_former_superpotential)),
        (lambda q: eval_superpotential_derivative(m, q), former(_former_superpotential_derivative)),
        (lambda q: _log_ground_amplitude(m, q), former(_former_log_ground_amplitude)),
    ]
    inside = _kernel_inputs(m)
    outside = [math.nan, -math.inf, math.inf]
    if math.isfinite(m.q_lower):
        outside += [m.q_lower, m.q_lower - 1.0]
    qa = np.array(inside)
    for new, old in pairs:
        for q in [*map(np.float64, inside), *outside, qa]:
            assert _bits_and_warnings(lambda: new(q)) == _bits_and_warnings(lambda: old(q)), q

    def fused():
        return kernel(m)(qa, xp=True, log_psi0=True)

    def separate():
        return tuple(f(m, qa) for f in (_former_superpotential, _former_superpotential_derivative,
                                        _former_log_ground_amplitude))

    assert _bits_and_warnings(fused) == _bits_and_warnings(separate)

    for t in (0.0, 0.3, -1.2):
        x_and_log_amplitude = _search_functions(m, t)

        def former_x_and_log_amplitude(q):
            x = float(former(_former_superpotential)(q))
            return x, float(_former_log_ground_amplitude(m, np.float64(q))) + t * q

        for q in inside + outside:
            assert (_bits_and_warnings(lambda: x_and_log_amplitude(q))
                    == _bits_and_warnings(lambda: former_x_and_log_amplitude(q))), q
