"""Superpotential, commutator, and Riccati-consistency tests for the
oscillator families. The Riccati combination (x^2 + x')/2 and the commutator
-x' are formed here from eval_superpotential and
eval_superpotential_derivative; the family closed-form potential is the
independent side of the identity."""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anhosc.errors import DomainViolationError
from anhosc.families import (
    GENERALIZED_MORSE,
    HARMONIC,
    family_of,
    make_generalized_kratzer_fues,
    make_generalized_morse,
    make_harmonic,
    make_kratzer_fues,
    make_wei_hua,
)
from anhosc.models import (
    check_domain,
    closed_form_potential,
    eval_superpotential,
    eval_superpotential_derivative,
    kernel,
)
from anhosc.numerics import differentiate_samples
from anhosc.states import auto_grid, ground_state


def riccati(m, q):
    """V - E0 = (x^2 + x')/2 from the two analytic evaluators."""
    x = eval_superpotential(m, q)
    return 0.5 * (x * x + eval_superpotential_derivative(m, q))


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

    def test_morse_at_origin(self):
        m = make_generalized_morse(1.0, 0.5)
        assert m.params.c0 == 0.5
        assert m.params.c1 == 1.0
        assert abs(eval_superpotential(m, 0.0) - 0.5) < 1e-15
        assert abs(eval_superpotential_derivative(m, 0.0) - (-1.0)) < 1e-15

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
        assert abs(riccati(m, 1.0) - 0.0) < 1e-15
        assert abs(riccati(m, 0.0) - (-0.5)) < 1e-15

    def test_morse_dissociation_limit(self):
        # As q grows, V - E0 tends to x(inf)^2 / 2 = (c0/c1)^2 / 2 = 0.125.
        m = make_generalized_morse(1.0, 0.5)
        assert abs(riccati(m, 40.0) - 0.125) < 1e-9

    def test_consistency_against_closed_forms(self):
        # Closed-form family potential vs (x^2 + x')/2, analytic derivatives.
        for m in desk_models():
            q = auto_grid(m).points()
            resid = np.abs(closed_form_potential(m, q) - riccati(m, q))
            assert np.max(resid) < 1e-8, m.family

    def test_analytic_derivative_matches_finite_differences(self):
        # Checks the analytic x' formulas, so the grid keeps a unit distance
        # from any domain pole, where no uniform stencil could resolve x.
        from anhosc.numerics import make_grid

        for m in desk_models():
            wide = auto_grid(m)
            lo = wide.q_min if m.q_lower == -np.inf else m.q_lower + 1.0
            grid = make_grid(lo, wide.q_max, 4001)
            x = np.asarray(eval_superpotential(m, grid.points()))
            numeric = differentiate_samples(grid, x, 1)
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
        assert -eval_superpotential_derivative(m, q) > 0.0


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
        closed_form_potential(morse, q) - riccati(morse, q)
    )) < 1e-9

    kratzer = make_generalized_kratzer_fues(c0, c1)
    qk = np.linspace(kratzer.q_lower + 0.05 / c1, 30.0, 301)
    assert np.max(np.abs(
        closed_form_potential(kratzer, qk) - riccati(kratzer, qk)
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
    resid = np.abs(v - riccati(m, q)) / (1.0 + np.abs(v))
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




def _kernel_inputs(m):
    """(near, far): coordinates across the span an automatic grid covers (a
    full-line family's envelope, a half-line family's grid) and next to a
    finite boundary; and far tails, where exp(-c1 q) overflows (full-line
    families), q * q does (harmonic) or (c1 q + 1)^2 does (Kratzer-Fues)."""
    if math.isfinite(m.q_lower):
        grid = auto_grid(m)
        a0, b0 = grid.q_min, grid.q_max
    else:
        a0, b0 = family_of(m).envelope(m.params)
    near = [*np.linspace(a0, b0, 61)]
    far = [b0 * 1e3, 1e200]
    if math.isfinite(m.q_lower):
        near += [np.nextafter(m.q_lower, math.inf), *(m.q_lower + 10.0 ** -k for k in range(1, 16))]
    else:
        far += [a0 * 1e3, -1e200]
    return [q for q in map(float, near) if m.q_lower < q], far


_KERNEL_MODELS = _PARITY_MODELS + [
    make_generalized_morse(50.0, 0.01),
    make_wei_hua(0.2, 1.0, 0.3),
    make_kratzer_fues(0.9),
]


def _kernel_outcome(m, q):
    """(x, x', log psi0) from the kernel at np.float64(q), and the warning
    categories it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = tuple(map(float, kernel(m)(np.float64(q), xp=True, log_psi0=True)))
    return values, {w.category for w in caught}


def _far_tail_values(m, q):
    """(x, x', log psi0) at q = +-1e200, None where the value is finite."""
    inf = math.inf
    if m.family == HARMONIC:
        return None, -1.0, -inf  # q * q overflows in log psi0 only
    if q > 0.0:
        return None, None, None  # exp(-c1 q) underflows; (c1 q + 1)^2 overflows in x' = -1/w^2
    if m.family == GENERALIZED_MORSE:
        return inf, -inf, -inf
    return math.nan, math.nan, -inf  # full-line Wei Hua: inf/inf in x and x'


@pytest.mark.parametrize("m", _KERNEL_MODELS, ids=lambda m: m.family)
def test_kernel_far_tail_contract(m):
    """The kernel the edge searches and grid_fields call never raises on a
    domain point. Across the span a grid covers, and next to a finite
    boundary, x, x' and log psi0 are finite and silent. In a far tail a
    value may leave float64, never silently: numpy raises a RuntimeWarning
    (which auto_grid's errstate turns off), log psi0 goes to -inf and not to
    NaN, x' stays <= 0, and psi0 is 0. Outside the domain every evaluator
    raises DomainViolationError."""
    near, far = _kernel_inputs(m)
    for q in near:
        (x, xp, log_psi0), caught = _kernel_outcome(m, q)
        assert caught == set() and xp < 0.0, q
        assert all(map(math.isfinite, (x, xp, log_psi0))), q
    for q in far:
        values, caught = _kernel_outcome(m, q)
        x, xp, log_psi0 = values
        assert caught <= {RuntimeWarning}, q
        if not all(map(math.isfinite, values)):
            assert caught == {RuntimeWarning}, q
        assert log_psi0 == -math.inf or math.isfinite(log_psi0), q
        assert xp <= 0.0 or (math.isnan(xp) and math.isnan(x)), q
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert ground_state(m).evaluator(q) == 0.0, q
        if abs(q) == 1e200:
            expected = _far_tail_values(m, q)
            for got, want in zip(values, expected):
                if want is None:
                    assert math.isfinite(got), (q, values)
                else:
                    assert got == want or (math.isnan(got) and math.isnan(want)), (q, values)
    outside = [math.nan, -math.inf, math.inf]
    if math.isfinite(m.q_lower):
        outside += [m.q_lower, m.q_lower - 1.0]
    for q in outside:
        for evaluate in (eval_superpotential, eval_superpotential_derivative,
                         closed_form_potential, check_domain):
            with pytest.raises(DomainViolationError):
                evaluate(m, q)
        with pytest.raises(DomainViolationError):
            ground_state(m).evaluator(q)


@pytest.mark.filterwarnings("error")
def test_a_closed_form_potential_beyond_float64_is_nan_without_a_warning():
    # s = (1 - c0 - c1^2)/c0 overflows at this c0, and 0 * inf is NaN: the
    # Riccati check fails on it, and construct refuses it by name.
    m = make_generalized_kratzer_fues(5e-324, 0.5)
    assert math.isinf(m.params.s)
    assert np.isnan(closed_form_potential(m, np.linspace(0.0, 1.0, 11))).all()
