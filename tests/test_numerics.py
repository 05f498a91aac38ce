"""Grid, quadrature, finite-difference, and ODE integrator tests.

Expected values come from independent analytic oracles (antiderivatives,
closed-form derivatives, closed-form ODE solutions) evaluated in this file.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anhosc.errors import DivergenceError, InvalidParameterError
from anhosc.numerics import (
    SampledFunction,
    differentiate,
    integrate_samples,
    integrate_simpson,
    make_grid,
    ode_step_halving_error,
    solve_first_order_ode,
)


def sample(grid, fn):
    return SampledFunction(grid, fn(grid.points()))


class TestGrid:
    def test_step(self):
        assert make_grid(-1, 1, 5).step == 0.5

    def test_points_include_endpoints(self):
        g = make_grid(-1, 1, 5)
        np.testing.assert_allclose(g.points(), [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_even_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_grid(0, 10, 4)

    def test_small_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_grid(0, 10, 3)

    def test_empty_interval_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_grid(2, 2, 5)

    def test_reversed_interval_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_grid(1, -1, 5)

    def test_sample_length_must_match(self):
        g = make_grid(0, 1, 5)
        with pytest.raises(InvalidParameterError):
            SampledFunction(g, np.zeros(4))

    def test_sample_must_be_finite(self):
        g = make_grid(0, 1, 5)
        with pytest.raises(InvalidParameterError):
            SampledFunction(g, np.array([0.0, 1.0, np.inf, 0.0, 0.0]))


class TestSimpson:
    def test_quadratic(self):
        # Oracle: antiderivative q^3/3 over [-1, 1].
        expected = 1.0 / 3.0 - (-1.0 / 3.0)
        got = integrate_simpson(sample(make_grid(-1, 1, 201), lambda q: q**2))
        assert abs(got - expected) < 1e-10
        assert abs(got - 2.0 / 3.0) < 1e-10

    @pytest.mark.parametrize("n", [5, 9, 101, 1001])
    def test_constant(self, n):
        got = integrate_simpson(sample(make_grid(0, 1, n), np.ones_like))
        assert abs(got - 1.0) < 1e-14

    def test_odd_symmetry(self):
        got = integrate_simpson(sample(make_grid(-1, 1, 201), lambda q: q))
        assert abs(got) < 1e-14

    def test_complex_values(self):
        got = integrate_simpson(sample(make_grid(0, 1, 101), lambda q: q + 1j * q**2))
        assert isinstance(got, complex)
        assert abs(got - (0.5 + 1j / 3.0)) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        coeffs=st.tuples(*[st.floats(-10, 10) for _ in range(4)]),
        q0=st.floats(-5, 5),
        width=st.floats(0.1, 10),
        half_intervals=st.integers(2, 60),
    )
    def test_cubics_are_exact(self, coeffs, q0, width, half_intervals):
        # Simpson reproduces polynomials up to degree 3 to machine precision.
        a, b, c, d = coeffs
        grid = make_grid(q0, q0 + width, 2 * half_intervals + 1)
        got = integrate_simpson(
            sample(grid, lambda q: a + b * q + c * q**2 + d * q**3)
        )
        anti = lambda q: a * q + b * q**2 / 2 + c * q**3 / 3 + d * q**4 / 4
        expected = anti(grid.q_max) - anti(grid.q_min)
        scale = max(1.0, abs(expected))
        assert abs(got - expected) < 1e-12 * scale


def _simpson_inputs(rng, n, dtype, case):
    """Seeded samples for one deferred-check case; finite unless the case
    injects inf or NaN."""
    def part():
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
        v[rng.integers(0, n, n // 5 + 1)] = 0.0
        v[rng.integers(0, n, n // 5 + 1)] = -0.0
        v[rng.integers(0, n, n // 7 + 1)] = 5e-324 * rng.integers(-9, 9, n // 7 + 1)
        return v

    y = part() + 1j * part() if dtype is complex else part()
    where = rng.integers(0, n, 2)
    if case == "nan":
        y[where[0]] = math.nan
    elif case == "+inf":
        y[where[0]] = math.inf
    elif case == "-inf":
        y[where[0]] = -math.inf
    elif case == "+inf-inf":
        y[where] = (math.inf, -math.inf)
    elif case == "imag-inf" and dtype is complex:
        y.imag[where[0]] = math.inf
    elif case == "overflow":  # finite samples whose sum overflows to inf
        y[rng.integers(0, n, n // 2 + 2)] = 1e308
    elif case == "overflow+-":  # finite samples whose sum is inf - inf
        y[rng.integers(0, n, n // 2 + 2)] = 1e308 * rng.choice([-1.0, 1.0], n // 2 + 2)
    return y


def _simpson_outcome(fn):
    """Value bits or exception, plus every warning raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = np.asarray(fn()).tobytes()
        except (InvalidParameterError, FloatingPointError) as exc:
            outcome = (type(exc), str(exc))
    return outcome, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


class TestDeferredFinitenessCheck:
    @pytest.mark.parametrize("err", ["warn", "raise"])
    @pytest.mark.parametrize(
        "case", ["finite", "nan", "+inf", "-inf", "+inf-inf", "imag-inf", "overflow", "overflow+-"]
    )
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [5, 7, 101, 2001, 16001])
    def test_matches_the_checked_path(self, n, dtype, case, err):
        rng = np.random.default_rng([n, len(case), dtype is complex])
        kinds = set()
        for trial in range(4):
            y = _simpson_inputs(rng, n, dtype, case)
            g = make_grid(-1.0, -1.0 + 10.0 ** rng.uniform(-3.0, 3.0), n)
            with np.errstate(all=err):
                old = _simpson_outcome(lambda: integrate_simpson(SampledFunction(g, y)))
                new = _simpson_outcome(lambda: integrate_samples(g, y))
            assert new == old, trial
            kinds.add(type(old[0]))
        # Each case reaches the branch it names; a +-1e308 sum may cancel.
        if case == "finite" or (case == "imag-inf" and dtype is float):
            assert kinds == {bytes}
        elif case == "overflow":
            assert kinds == ({tuple} if err == "raise" else {bytes})
        elif case != "overflow+-":
            assert kinds == {tuple}

    def test_finite_overflow_warns_as_before(self):
        g = make_grid(0.0, 1.0, 5)
        y = np.full(5, 1e308)
        old = _simpson_outcome(lambda: integrate_simpson(SampledFunction(g, y)))
        new = _simpson_outcome(lambda: integrate_samples(g, y))
        assert new == old
        assert new[0] == np.asarray(math.inf).tobytes()
        assert new[1] and all(w[0] is RuntimeWarning for w in new[1])

    def test_shape_is_checked(self):
        with pytest.raises(InvalidParameterError, match="expected 5 samples"):
            integrate_samples(make_grid(0.0, 1.0, 5), np.ones(7))


class TestDifferentiate:
    def test_exponential_first_derivative_at_left_edge(self):
        # Oracle: d/dq e^{-q} = -e^{-q}, value -1 at q = 0.
        g = make_grid(0, 5, 2001)
        d = differentiate(sample(g, lambda q: np.exp(-q)), 1)
        assert abs(d.values[0] - (-1.0)) < 1e-8

    def test_linear_first_derivative(self):
        g = make_grid(-2, 3, 101)
        d = differentiate(sample(g, lambda q: q), 1)
        np.testing.assert_allclose(d.values, 1.0, atol=1e-12)

    def test_quadratic_second_derivative(self):
        g = make_grid(-2, 3, 101)
        d = differentiate(sample(g, lambda q: q**2), 2)
        np.testing.assert_allclose(d.values, 2.0, atol=1e-10)

    def test_quartic_first_derivative_everywhere(self):
        # Five-point stencils are exact for quartics.
        g = make_grid(-1, 2, 61)
        d = differentiate(sample(g, lambda q: q**4), 1)
        np.testing.assert_allclose(d.values, 4.0 * g.points() ** 3, atol=1e-10)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_stencils_exact_for_quartics(self, degree):
        # Both orders, including the one-sided boundary rows, are exact for
        # polynomials up to degree four.
        g = make_grid(-1.3, 2.7, 41)
        q = g.points()
        f = sample(g, lambda q: q**degree)
        d1_expected = degree * q ** (degree - 1) if degree >= 1 else np.zeros_like(q)
        d2_expected = (
            degree * (degree - 1) * q ** (degree - 2) if degree >= 2 else np.zeros_like(q)
        )
        np.testing.assert_allclose(differentiate(f, 1).values, d1_expected, atol=1e-10)
        np.testing.assert_allclose(differentiate(f, 2).values, d2_expected, atol=1e-9)

    def test_invalid_order(self):
        g = make_grid(0, 1, 5)
        with pytest.raises(InvalidParameterError):
            differentiate(sample(g, np.ones_like), 3)

    def test_first_twice_matches_second(self):
        # Agreement within O(step^2) on a smooth function.
        g = make_grid(0, 3, 2001)
        f = sample(g, np.sin)
        twice = differentiate(differentiate(f, 1), 1).values
        second = differentiate(f, 2).values
        assert np.max(np.abs(twice - second)) < 10.0 * g.step**2


def _reference_differentiate(y, h, order):
    """The five-point stencils as plain numpy expressions, each building its
    own temporaries: the reference the in-place interior must reproduce."""
    d = np.empty_like(y)
    if order == 1:
        d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
        d[0] = (-25.0 * y[0] + 48.0 * y[1] - 36.0 * y[2] + 16.0 * y[3] - 3.0 * y[4]) / (12.0 * h)
        d[1] = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[4]) / (12.0 * h)
        d[-2] = (3.0 * y[-1] + 10.0 * y[-2] - 18.0 * y[-3] + 6.0 * y[-4] - y[-5]) / (12.0 * h)
        d[-1] = (25.0 * y[-1] - 48.0 * y[-2] + 36.0 * y[-3] - 16.0 * y[-4] + 3.0 * y[-5]) / (12.0 * h)
    else:
        hh = 12.0 * h * h
        d[2:-2] = (-y[:-4] + 16.0 * y[1:-3] - 30.0 * y[2:-2] + 16.0 * y[3:-1] - y[4:]) / hh
        d[0] = (35.0 * y[0] - 104.0 * y[1] + 114.0 * y[2] - 56.0 * y[3] + 11.0 * y[4]) / hh
        d[1] = (11.0 * y[0] - 20.0 * y[1] + 6.0 * y[2] + 4.0 * y[3] - y[4]) / hh
        d[-2] = (11.0 * y[-1] - 20.0 * y[-2] + 6.0 * y[-3] + 4.0 * y[-4] - y[-5]) / hh
        d[-1] = (35.0 * y[-1] - 104.0 * y[-2] + 114.0 * y[-3] - 56.0 * y[-4] + 11.0 * y[-5]) / hh
    return d


def _stencil_inputs(rng, n, dtype):
    """Samples spanning 1e-300..1e300 with signed zeros and subnormals."""
    def part():
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
        v[rng.integers(0, n, n // 5 + 1)] = 0.0
        v[rng.integers(0, n, n // 5 + 1)] = -0.0
        v[rng.integers(0, n, n // 7 + 1)] = 5e-324 * rng.integers(-9, 9, n // 7 + 1)
        return v

    y = part()
    return y + 1j * part() if dtype is complex else y


class TestInPlaceStencils:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in the far cases
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [5, 7, 2001, 16001, 64001])
    def test_bits_match_the_written_out_stencils(self, n, dtype):
        rng = np.random.default_rng(n)
        for trial in range(6):
            y = _stencil_inputs(rng, n, dtype)
            g = make_grid(-1.0, -1.0 + 10.0 ** rng.uniform(-3.0, 3.0), n)
            for order in (1, 2):
                ref = _reference_differentiate(y, g.step, order)
                if np.all(np.isfinite(ref)):
                    got = differentiate(SampledFunction(g, y), order).values
                    assert got.dtype == y.dtype
                    assert got.tobytes() == ref.tobytes(), (trial, order)
                else:
                    with pytest.raises(InvalidParameterError, match="must all be finite"):
                        differentiate(SampledFunction(g, y), order)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("order", [1, 2])
    def test_overflowing_stencil_raises_as_before(self, order, dtype):
        g = make_grid(0.0, 1.0, 7)
        y = np.array([1e308, -1e308, 1e308, -1e308, 1e308, -1e308, 1e308], dtype=dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(_reference_differentiate(y, g.step, order)))
            with pytest.raises(InvalidParameterError, match="samples must all be finite"):
                differentiate(SampledFunction(g, y), order)

    @pytest.mark.parametrize("order", [1, 2])
    def test_peak_memory_stays_near_two_arrays(self, order):
        # The output plus one scratch array; full-size temporaries per term
        # of the stencil would show as three or more.
        g = make_grid(-5.0, 5.0, 64001)
        q = g.points()
        f = SampledFunction(g, np.exp(-q * q + 1j * q))
        tracemalloc.start()
        try:
            d = differentiate(f, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.values.nbytes == f.values.nbytes
        assert peak <= 2.5 * f.values.nbytes


class TestOde:
    def test_constant_slope(self):
        g = make_grid(0, 2, 5)
        out = solve_first_order_ode(lambda q, x: -1.0, 0.0, g)
        assert abs(out.values[-1] - (-2.0)) < 1e-15

    def test_linear_rhs_against_closed_form(self):
        # dx/dq = -(x + 0.5), x(0) = 0.5 has solution x = e^{-q} - 0.5.
        g = make_grid(0, 1, 1001)
        out = solve_first_order_ode(lambda q, x: -(x + 0.5), 0.5, g)
        assert abs(out.values[-1] - (math.exp(-1.0) - 0.5)) < 1e-9

    def test_squared_linear_rhs_against_closed_form(self):
        # dx/dq = -(0.5 (x + 1.5))^2, x(0) = 0.5 has solution
        # x = 1/(0.5 (0.5 q + 1)) - 1.5.
        g = make_grid(0, 5, 5001)
        out = solve_first_order_ode(lambda q, x: -((0.5 * (x + 1.5)) ** 2), 0.5, g)
        closed = 1.0 / (0.5 * (0.5 * g.points() + 1.0)) - 1.5
        assert np.max(np.abs(out.values - closed)) < 1e-8

    def test_fourth_order_convergence(self):
        closed = lambda q: np.exp(-q) - 0.5
        rhs = lambda q, x: -(x + 0.5)
        errors = []
        for n in (201, 401):
            g = make_grid(0, 1, n)
            out = solve_first_order_ode(rhs, 0.5, g)
            errors.append(np.max(np.abs(out.values - closed(g.points()))))
        assert errors[0] / errors[1] >= 8.0

    def test_divergence_raises(self):
        # dx/dq = x^2 from x(0) = 2 blows up at q = 0.5.
        g = make_grid(0, 2, 401)
        with pytest.raises(DivergenceError):
            solve_first_order_ode(lambda q, x: x * x, 2.0, g)

    def test_step_halving_error_estimate(self):
        g = make_grid(0, 1, 101)
        est = ode_step_halving_error(lambda q, x: -(x + 0.5), 0.5, g)
        out = solve_first_order_ode(lambda q, x: -(x + 0.5), 0.5, g)
        true_err = np.max(np.abs(out.values - (np.exp(-g.points()) - 0.5)))
        assert est > 0
        # The estimate tracks the true error to within an order of magnitude.
        assert 0.1 * true_err < est < 10.0 * true_err

    @pytest.mark.parametrize("x0", [1e200, -1e200, 1.0000000000000002e150])
    def test_start_beyond_range_is_a_parameter_error(self, x0):
        # The start is not a pole: the integrator's |x| <= 1e150 range
        # simply does not hold it.
        g = make_grid(0, 1, 11)
        with pytest.raises(InvalidParameterError, match="outside the integrator's range"):
            solve_first_order_ode(lambda q, x: -(x + 0.5), x0, g)

    def test_start_at_range_edge_is_integrated(self):
        g = make_grid(0, 1, 11)
        out = solve_first_order_ode(lambda q, x: -(x + 0.5), -1e150, g)
        assert out.values[0] == -1e150
