"""Generating-function route: series evaluation, ODE integration of
dx/dq = -f(x), and dispatch to closed-form models."""

import math
import random
import warnings

import numpy as np
import pytest

from anhosc.errors import (
    AnhoscError,
    DivergenceError,
    InvalidParameterError,
    UnsupportedFormError,
)
from anhosc.generator import (
    FORM_CONSTANT,
    FORM_LINEAR,
    FORM_PARABOLIC,
    FORM_SQUARED_LINEAR,
    ExpansionRangeWarning,
    GeneratingSeries,
    _generating_function,
    closed_form_from_series,
    eval_generating_function,
    superpotential_from_series,
)
from anhosc.models import (
    GENERALIZED_KRATZER_FUES,
    GENERALIZED_MORSE,
    HARMONIC,
    WEI_HUA,
    eval_superpotential,
    riccati_potential,
)
from anhosc.numerics import (
    SampledFunction,
    differentiate,
    make_grid,
    ode_step_halving_error,
    solve_first_order_ode,
)


class TestSeries:
    def test_linear_value(self):
        s = GeneratingSeries(FORM_LINEAR, c0=0.5, c1=1.0)
        assert abs(eval_generating_function(s, 0.5) - 1.0) < 1e-15

    def test_squared_linear_value(self):
        s = GeneratingSeries(FORM_SQUARED_LINEAR, c0=0.75, c1=0.5)
        assert abs(eval_generating_function(s, 0.5) - 1.0) < 1e-15

    def test_constant_value(self):
        s = GeneratingSeries(FORM_CONSTANT)
        assert eval_generating_function(s, -17.3) == 1.0

    def test_default_initial_condition(self):
        s = GeneratingSeries(FORM_LINEAR, c0=0.5, c1=1.0)
        assert s.initial_value() == (1.0 - 0.5) / 1.0
        assert GeneratingSeries(FORM_CONSTANT).initial_value() == 0.0

    def test_rejects_zero_c1(self):
        with pytest.raises(InvalidParameterError):
            GeneratingSeries(FORM_LINEAR, c0=0.5, c1=0.0)

    def test_rejects_zero_c2_for_parabolic(self):
        with pytest.raises(InvalidParameterError):
            GeneratingSeries(FORM_PARABOLIC, c0=0.2, c1=1.0, c2=0.0)

    def test_rejects_unsupported_form(self):
        with pytest.raises(UnsupportedFormError):
            GeneratingSeries("cubic", c0=0.5, c1=1.0)

    def test_rejects_nonpositive_f_at_start(self):
        with pytest.raises(InvalidParameterError):
            GeneratingSeries(FORM_LINEAR, c0=2.0, c1=1.0, x0=-3.0)

    @pytest.mark.parametrize("form", [FORM_CONSTANT, FORM_LINEAR, FORM_PARABOLIC,
                                      FORM_SQUARED_LINEAR])
    @pytest.mark.parametrize("name", ["c0", "c1", "c2", "x0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_input_by_name(self, form, name, value):
        valid = dict(c0=0.2, c1=1.0, c2=0.5, x0=0.5)
        GeneratingSeries(form, **valid)
        with pytest.raises(InvalidParameterError, match=f"^{name} must be finite, got "):
            GeneratingSeries(form, **{**valid, name: value})


class TestIntegration:
    def test_requires_grid_from_zero(self):
        s = GeneratingSeries(FORM_CONSTANT)
        with pytest.raises(InvalidParameterError):
            superpotential_from_series(s, make_grid(-1.0, 1.0, 101))

    def test_first_sample_is_initial_condition(self):
        s = GeneratingSeries(FORM_LINEAR, c0=0.5, c1=1.0)
        out = superpotential_from_series(s, make_grid(0.0, 1.0, 101))
        assert out.values[0] == s.initial_value()

    def test_constant_gives_straight_line(self):
        s = GeneratingSeries(FORM_CONSTANT)
        with pytest.warns(ExpansionRangeWarning):
            out = superpotential_from_series(s, make_grid(0.0, 3.0, 301))
        np.testing.assert_allclose(out.values, -make_grid(0.0, 3.0, 301).points(), atol=1e-13)

    def test_linear_matches_closed_form(self):
        s = GeneratingSeries(FORM_LINEAR, c0=0.5, c1=1.0)
        grid = make_grid(0.0, 5.0, 5001)
        out = superpotential_from_series(s, grid)
        closed = np.exp(-grid.points()) - 0.5
        assert np.max(np.abs(out.values - closed)) < 1e-8

    def test_divergence_toward_pole(self):
        # c1 < 0 puts the 1/(c1 q + 1) pole at positive q.
        s = GeneratingSeries(FORM_SQUARED_LINEAR, c0=0.75, c1=-0.5, x0=0.5)
        with pytest.raises(DivergenceError):
            superpotential_from_series(s, make_grid(0.0, 5.0, 5001))


class TestDispatch:
    def test_constant_maps_to_harmonic(self):
        assert closed_form_from_series(GeneratingSeries(FORM_CONSTANT)).family == HARMONIC

    def test_linear_maps_to_generalized_morse(self):
        m = closed_form_from_series(GeneratingSeries(FORM_LINEAR, c0=0.5, c1=1.0))
        assert m.family == GENERALIZED_MORSE
        assert abs(m.params.x_e - 0.5) < 1e-15
        assert abs(m.params.s - 1.0) < 1e-15

    def test_squared_linear_maps_to_generalized_kratzer(self):
        m = closed_form_from_series(GeneratingSeries(FORM_SQUARED_LINEAR, c0=0.75, c1=0.5))
        assert m.family == GENERALIZED_KRATZER_FUES
        assert abs(m.params.s) < 1e-15

    def test_parabolic_maps_to_wei_hua(self):
        m = closed_form_from_series(GeneratingSeries(FORM_PARABOLIC, c0=0.2, c1=1.0, c2=0.5))
        assert m.family == WEI_HUA

    def test_negative_c1_rejected(self):
        with pytest.raises(InvalidParameterError):
            closed_form_from_series(GeneratingSeries(FORM_LINEAR, c0=0.5, c1=-1.0))

    def test_constructor_errors_propagate(self):
        series = GeneratingSeries(FORM_SQUARED_LINEAR, c0=0.75, c1=1.5)
        with pytest.raises(InvalidParameterError):
            closed_form_from_series(series)


ROUND_TRIP_CASES = [
    GeneratingSeries(FORM_LINEAR, c0=0.5, c1=1.0),
    GeneratingSeries(FORM_PARABOLIC, c0=0.2, c1=1.0, c2=0.5),
    GeneratingSeries(FORM_SQUARED_LINEAR, c0=0.75, c1=0.5),
]


@pytest.mark.parametrize("series", ROUND_TRIP_CASES, ids=lambda s: s.form)
def test_round_trip_against_closed_form(series):
    grid = make_grid(0.0, 5.0, 5001)
    numeric = superpotential_from_series(series, grid)
    model = closed_form_from_series(series)
    closed = eval_superpotential(model, grid.points())
    assert np.max(np.abs(numeric.values - closed)) < 1e-7


@pytest.mark.parametrize("series", ROUND_TRIP_CASES, ids=lambda s: s.form)
def test_riccati_closure_of_numeric_superpotential(series):
    # (x^2 + x')/2 from the integrated superpotential, derivative by finite
    # differences, must match the dispatched model's Riccati potential.
    grid = make_grid(0.0, 5.0, 5001)
    numeric = superpotential_from_series(series, grid)
    dx = differentiate(SampledFunction(grid, numeric.values), 1).values
    lhs = 0.5 * (numeric.values**2 + dx)
    model = closed_form_from_series(series)
    rhs = riccati_potential(model, grid.points())
    assert np.max(np.abs(lhs - rhs)) < 1e-5


def test_range_warning_set_when_x_leaves_unit_interval():
    s = GeneratingSeries(FORM_LINEAR, c0=3.0, c1=1.0, x0=2.0)
    with pytest.warns(ExpansionRangeWarning):
        superpotential_from_series(s, make_grid(0.0, 1.0, 101))


def _numpy_scalar_f(series, x):
    """f as generate evaluated it on numpy scalars before it used plain
    floats; the reference the float closure must match bit for bit."""
    if series.form == FORM_CONSTANT:
        return np.ones_like(x, dtype=float) if np.ndim(x) else 1.0
    y = np.asarray(x, dtype=float) + series.c0 / series.c1
    if series.form == FORM_LINEAR:
        f = series.c1 * y
    elif series.form == FORM_PARABOLIC:
        f = series.c1 * y + series.c2 * y * y
    else:
        f = (series.c1 * y) ** 2
    return f if np.ndim(x) else float(f)


def _random_series(rng):
    form = rng.choice([FORM_CONSTANT, FORM_LINEAR, FORM_PARABOLIC, FORM_SQUARED_LINEAR])
    x0 = rng.uniform(-4.0, 4.0) if rng.random() < 0.5 else None
    c1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
    return GeneratingSeries(form, c0=rng.uniform(-1.0, 2.0), c1=c1,
                            c2=rng.uniform(-1.0, 1.0), x0=x0)


def _outcome(integrate):
    """The trajectory's bytes, or the DivergenceError message."""
    try:
        return integrate().values.tobytes()
    except DivergenceError as exc:
        return str(exc)


def test_float_rhs_matches_numpy_scalar_reference():
    rng = random.Random(20070412)
    outcomes = []
    while len(outcomes) < 300:
        try:
            series = _random_series(rng)
        except InvalidParameterError:
            continue  # f(x0) <= 0
        grid = make_grid(0.0, rng.uniform(1.0, 8.0), 201)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", ExpansionRangeWarning)
            rhs = lambda q, x: -_numpy_scalar_f(series, x)
            expected = _outcome(lambda: solve_first_order_ode(rhs, series.initial_value(), grid))
            actual = _outcome(lambda: superpotential_from_series(series, grid))
        assert actual == expected, series
        outcomes.append(isinstance(expected, str))
    assert 20 <= sum(outcomes) <= 280  # both outcomes are exercised


@pytest.mark.parametrize("series", [
    GeneratingSeries(FORM_CONSTANT),
    GeneratingSeries(FORM_LINEAR, c0=0.5, c1=1.0),
    GeneratingSeries(FORM_PARABOLIC, c0=0.2, c1=1.0, c2=0.5),
    GeneratingSeries(FORM_SQUARED_LINEAR, c0=0.75, c1=0.5),
], ids=lambda s: s.form)
def test_eval_generating_function_types_and_values(series):
    xs = np.array([-3.0, -0.1, 0.0, 0.37, 2.5, 1e200])
    with np.errstate(all="ignore"):
        expected = _numpy_scalar_f(series, xs)
        assert isinstance(eval_generating_function(series, xs), np.ndarray)
        assert eval_generating_function(series, xs).tobytes() == expected.tobytes()
        assert eval_generating_function(series, list(xs)).tobytes() == expected.tobytes()
        for x in xs:
            for scalar in (float(x), np.float64(x)):
                value = eval_generating_function(series, scalar)
                assert type(value) is float
                assert value.hex() == _numpy_scalar_f(series, scalar).hex()


# The integrator as it was while it still took a substeps argument, kept
# verbatim as the reference for the one-step-per-interval loop.
_ODE_OVERFLOW = 1e150


def _reference_solve_first_order_ode(rhs, x0, grid, substeps=1):
    if substeps < 1:
        raise InvalidParameterError("substeps must be >= 1")
    if not math.isfinite(x0):
        raise InvalidParameterError("initial value must be finite")
    if abs(x0) > _ODE_OVERFLOW:
        raise InvalidParameterError(
            f"initial value {x0!r} outside the integrator's range |x| <= {_ODE_OVERFLOW:g}"
        )
    h = grid.step / substeps
    x = float(x0)
    out = np.empty(grid.n, dtype=float)
    out[0] = x
    for i in range(1, grid.n):
        # Resync q each outer step so accumulated float drift cannot build up.
        q = grid.q_min + (i - 1) * grid.step
        for k in range(substeps):
            qk = q + k * h
            try:
                k1 = rhs(qk, x)
                k2 = rhs(qk + 0.5 * h, x + 0.5 * h * k1)
                k3 = rhs(qk + 0.5 * h, x + 0.5 * h * k2)
                k4 = rhs(qk + h, x + h * k3)
                x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            except (OverflowError, ZeroDivisionError) as exc:
                raise DivergenceError(
                    f"trajectory diverged near q={qk:.6g} (pole of x(q))"
                ) from exc
            if not math.isfinite(x) or abs(x) > _ODE_OVERFLOW:
                raise DivergenceError(
                    f"trajectory diverged near q={qk:.6g} (pole of x(q))"
                )
        out[i] = x
    return SampledFunction(grid, out)


def _reference_halving_error(rhs, x0, grid):
    full = _reference_solve_first_order_ode(rhs, x0, grid, substeps=1)
    half = _reference_solve_first_order_ode(rhs, x0, grid, substeps=2)
    return float(np.max(np.abs(full.values - half.values)))


def _result(compute):
    """The result's bytes, or the exception's type and message."""
    try:
        value = compute()
    except AnhoscError as exc:
        return type(exc), str(exc)
    return np.asarray(getattr(value, "values", value)).tobytes()


_FORMS = (FORM_CONSTANT, FORM_LINEAR, FORM_PARABOLIC, FORM_SQUARED_LINEAR)


def _seeded_cases(seed, per_form=6):
    """(series, rhs, q_max) for per_form seeded series of each form."""
    rng = random.Random(seed)
    cases = {form: [] for form in _FORMS}
    while any(len(found) < per_form for found in cases.values()):
        try:
            series = _random_series(rng)
        except InvalidParameterError:
            continue  # f(x0) <= 0
        qmax = rng.uniform(1.0, 8.0)
        if len(cases[series.form]) < per_form:
            f = _generating_function(series)
            cases[series.form].append((series, lambda q, x, f=f: -f(x), qmax))
    return [case for found in cases.values() for case in found]


@pytest.mark.parametrize("n", [5, 11, 101, 5001])
def test_one_step_per_interval_matches_the_substep_reference(n):
    diverged = []
    for series, rhs, qmax in _seeded_cases(1000 + n):
        grid = make_grid(0.0, qmax, n)
        x0 = series.initial_value()
        expected = _result(lambda: _reference_solve_first_order_ode(rhs, x0, grid, substeps=1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExpansionRangeWarning)
            assert _result(lambda: superpotential_from_series(series, grid)) == expected, series
        assert _result(lambda: solve_first_order_ode(rhs, x0, grid)) == expected, series
        diverged.append(isinstance(expected, tuple))
    assert 0 < sum(diverged) < len(diverged)  # both outcomes are exercised


@pytest.mark.parametrize("n", [5, 11, 101, 5001])
def test_step_halving_error_matches_the_two_substep_reference(n):
    # Generator ODEs do not depend on q, and the refined grid's step equals
    # half the coarse one in float64, so the estimate keeps every bit.
    diverged = []
    for series, rhs, qmax in _seeded_cases(2000 + n):
        grid = make_grid(0.0, qmax, n)
        x0 = series.initial_value()
        expected = _result(lambda: _reference_halving_error(rhs, x0, grid))
        assert _result(lambda: ode_step_halving_error(rhs, x0, grid)) == expected, series
        diverged.append(isinstance(expected, tuple))
    assert 0 < sum(diverged) < len(diverged)


_Q_DEPENDENT_RHS = [
    lambda q, x: -(x + 0.5) + math.sin(3.0 * q),
    lambda q, x: q * q - x,
    lambda q, x: -x * math.cos(q) / (1.0 + q * q),
]


@pytest.mark.parametrize("rhs", _Q_DEPENDENT_RHS)
@pytest.mark.parametrize("grid", [make_grid(0.0, 3.0, 11), make_grid(-0.7, 2.3, 101)],
                         ids=["n11", "n101"])
def test_q_dependent_rhs(rhs, grid):
    # One step per interval keeps every bit for any rhs. The refined grid's
    # midpoints q_min + (2i + 1) h/2 may round differently from
    # (q_min + i h) + h/2, which moves the estimate by rounding only.
    expected = _reference_solve_first_order_ode(rhs, 0.3, grid, substeps=1)
    assert solve_first_order_ode(rhs, 0.3, grid).values.tobytes() == expected.values.tobytes()
    reference = _reference_halving_error(rhs, 0.3, grid)
    ulp = np.spacing(np.max(np.abs(expected.values)))
    assert abs(ode_step_halving_error(rhs, 0.3, grid) - reference) <= 8.0 * ulp
