"""Generating-function route: series evaluation, ODE integration of
dx/dq = -f(x), and dispatch to closed-form models."""

import math

import numpy as np
import pytest

from anhosc.errors import (
    DivergenceError,
    InvalidParameterError,
    UnsupportedFormError,
)
from anhosc.families import (
    GENERALIZED_KRATZER_FUES,
    GENERALIZED_MORSE,
    HARMONIC,
    WEI_HUA,
)
from anhosc.generator import (
    FORM_CONSTANT,
    FORM_LINEAR,
    FORM_PARABOLIC,
    FORM_SQUARED_LINEAR,
    ExpansionRangeWarning,
    GeneratingSeries,
    closed_form_from_series,
    eval_generating_function,
    superpotential_from_series,
)
from anhosc.models import eval_superpotential, eval_superpotential_derivative
from anhosc.numerics import (
    differentiate_samples,
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

    @pytest.mark.parametrize("n, q, cause", [
        (5001, "0.401", type(None)),  # x leaves |x| <= 1e150: the range test
        (21, "0.75", OverflowError),  # the slope's ** 2 raises
    ], ids=["range_test", "overflow"])
    def test_divergence_names_the_step_that_left_the_range(self, n, q, cause):
        # x' = -(x + 1/2)^2 from x0 = -3 has its pole at q = 0.4.
        s = GeneratingSeries(FORM_SQUARED_LINEAR, c0=0.5, c1=1.0, x0=-3.0)
        with pytest.raises(DivergenceError) as info:
            superpotential_from_series(s, make_grid(0.0, 5.0, n))
        assert str(info.value) == f"trajectory diverged near q={q} (pole of x(q))"
        assert type(info.value.__cause__) is cause


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
    dx = differentiate_samples(grid, numeric.values, 1)
    lhs = 0.5 * (numeric.values**2 + dx)
    model = closed_form_from_series(series)
    x = eval_superpotential(model, grid.points())
    rhs = 0.5 * (x * x + eval_superpotential_derivative(model, grid.points()))
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


def _ode_cases():
    """(rhs, x0, exact solution, integration of the rhs on a grid from 0):
    the three round-trip series, integrated as generate does, against their
    dispatched models; and three autonomous rhs outside the series forms,
    from x0 = 0.3, with closed-form solutions: dx/dq = sin x
    (2 atan(tan(x0/2) e^q)), dx/dq = -sinh x (2 atanh(tanh(x0/2) e^-q)) and
    dx/dq = -x - x^3 (x0 e^-q / sqrt(1 + x0^2 (1 - e^-2q))). dx/dq = -x^3
    alone is not among them: from x0 = 0.3 it moves so little over [0, 5]
    that at n = 401 its error is rounding, about 2e-15."""
    cases = []
    for series in ROUND_TRIP_CASES:
        model = closed_form_from_series(series)
        cases.append(pytest.param(
            lambda x, s=series: -eval_generating_function(s, x), series.initial_value(),
            lambda q, m=model: eval_superpotential(m, q),
            lambda grid, s=series: superpotential_from_series(s, grid).values, id=series.form))
    for name, rhs, exact in [
        ("sine", math.sin, lambda q: 2.0 * np.arctan(math.tan(0.15) * np.exp(q))),
        ("minus_sinh", lambda x: -math.sinh(x),
         lambda q: 2.0 * np.arctanh(math.tanh(0.15) * np.exp(-q))),
        ("linear_plus_cubic_decay", lambda x: -x - x * x * x,
         lambda q: 0.3 * np.exp(-q) / np.sqrt(1.0 + 0.09 * (1.0 - np.exp(-2.0 * q)))),
    ]:
        cases.append(pytest.param(
            rhs, 0.3, exact,
            lambda grid, rhs=rhs: solve_first_order_ode(rhs, 0.3, grid).values, id=name))
    return cases


@pytest.mark.parametrize("n", [51, 401])
@pytest.mark.parametrize("rhs, x0, exact, integrate", _ode_cases())
def test_rk4_has_order_four_and_an_honest_halving_estimate(rhs, x0, exact, integrate, n):
    # Observed order from n to 2n - 1 points against the closed form (Roache,
    # J. Fluids Eng. 116 (1994) 405). The halving estimate compares with a
    # run 16 times more accurate, so it is about 15/16 of the true error.
    errors = [float(np.max(np.abs(integrate(grid) - exact(grid.points()))))
              for grid in (make_grid(0.0, 5.0, n), make_grid(0.0, 5.0, 2 * n - 1))]
    assert math.log2(errors[0] / errors[1]) >= 3.9
    estimate = ode_step_halving_error(rhs, x0, make_grid(0.0, 5.0, n))
    assert 0.9 * errors[0] <= estimate <= errors[0]
