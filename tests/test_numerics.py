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
    _product_is_quotient,
    differentiate_samples,
    divide_in_place,
    integrate_samples,
    make_grid,
    ode_step_halving_error,
    solve_first_order_ode,
)


def integrate(grid, fn):
    return integrate_samples(grid, fn(grid.points()))


def differentiate(grid, fn, order):
    return differentiate_samples(grid, fn(grid.points()), order)


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
        got = integrate(make_grid(-1, 1, 201), lambda q: q**2)
        assert abs(got - expected) < 1e-10
        assert abs(got - 2.0 / 3.0) < 1e-10

    @pytest.mark.parametrize("n", [5, 9, 101, 1001])
    def test_constant(self, n):
        got = integrate(make_grid(0, 1, n), np.ones_like)
        assert abs(got - 1.0) < 1e-14

    def test_odd_symmetry(self):
        got = integrate(make_grid(-1, 1, 201), lambda q: q)
        assert abs(got) < 1e-14

    def test_complex_values(self):
        got = integrate(make_grid(0, 1, 101), lambda q: q + 1j * q**2)
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
        got = integrate(grid, lambda q: a + b * q + c * q**2 + d * q**3)
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


def _checked_simpson(grid, y):
    """The oracle of integrate_samples: SampledFunction's refusal of
    non-finite samples, then the composite-Simpson sum written out."""
    SampledFunction(grid, y)
    total = y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()
    result = total * (grid.step / 3.0)
    return complex(result) if np.iscomplexobj(y) else float(result)


def _outcome(fn):
    """Value bits, or the exception, plus the category and text of every
    warning raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = np.asarray(fn()).tobytes()
        except (InvalidParameterError, FloatingPointError) as exc:
            outcome = (type(exc), str(exc))
    return outcome, [(w.category, str(w.message)) for w in caught]


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
                old = _outcome(lambda: _checked_simpson(g, y))
                new = _outcome(lambda: integrate_samples(g, y))
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
        old = _outcome(lambda: _checked_simpson(g, y))
        new = _outcome(lambda: integrate_samples(g, y))
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
        d = differentiate(g, lambda q: np.exp(-q), 1)
        assert abs(d[0] - (-1.0)) < 1e-8

    def test_linear_first_derivative(self):
        g = make_grid(-2, 3, 101)
        np.testing.assert_allclose(differentiate(g, lambda q: q, 1), 1.0, atol=1e-12)

    def test_quadratic_second_derivative(self):
        g = make_grid(-2, 3, 101)
        np.testing.assert_allclose(differentiate(g, lambda q: q**2, 2), 2.0, atol=1e-10)

    def test_quartic_first_derivative_everywhere(self):
        # Five-point stencils are exact for quartics.
        g = make_grid(-1, 2, 61)
        d = differentiate(g, lambda q: q**4, 1)
        np.testing.assert_allclose(d, 4.0 * g.points() ** 3, atol=1e-10)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_stencils_exact_for_quartics(self, degree):
        # Both orders, including the one-sided boundary rows, are exact for
        # polynomials up to degree four.
        g = make_grid(-1.3, 2.7, 41)
        q = g.points()
        d1_expected = degree * q ** (degree - 1) if degree >= 1 else np.zeros_like(q)
        d2_expected = (
            degree * (degree - 1) * q ** (degree - 2) if degree >= 2 else np.zeros_like(q)
        )
        f = lambda q: q**degree
        np.testing.assert_allclose(differentiate(g, f, 1), d1_expected, atol=1e-10)
        np.testing.assert_allclose(differentiate(g, f, 2), d2_expected, atol=1e-9)

    def test_invalid_order(self):
        g = make_grid(0, 1, 5)
        with pytest.raises(InvalidParameterError, match="derivative order must be 1 or 2"):
            differentiate(g, np.ones_like, 3)

    def test_first_twice_matches_second(self):
        # Agreement within O(step^2) on a smooth function.
        g = make_grid(0, 3, 2001)
        twice = differentiate_samples(g, differentiate(g, np.sin, 1), 1)
        second = differentiate(g, np.sin, 2)
        assert np.max(np.abs(twice - second)) < 10.0 * g.step**2


def _observed_orders(errors):
    """log2 of the error ratios of successive halvings of the step."""
    errors = np.asarray(errors)
    return np.log2(errors[:-1] / errors[1:])


class TestObservedOrder:
    # Halving the step from n = 101 to 401 points: far enough from rounding,
    # which pulls the interior order of the second derivative to about 3.1
    # by n = 801. Oracles: closed-form derivatives and antiderivative.
    @staticmethod
    def f(q):
        return np.exp(-q * q) * np.cos(3.0 * q)

    @staticmethod
    def f1(q):
        return np.exp(-q * q) * (-2.0 * q * np.cos(3.0 * q) - 3.0 * np.sin(3.0 * q))

    @staticmethod
    def f2(q):
        return np.exp(-q * q) * ((4.0 * q * q - 11.0) * np.cos(3.0 * q) + 12.0 * q * np.sin(3.0 * q))

    @pytest.mark.parametrize("order", [1, 2])
    def test_stencils_converge_at_their_order(self, order):
        exact = self.f1 if order == 1 else self.f2
        errors = []
        for n in (101, 201, 401):
            g = make_grid(-1.0, 1.5, n)
            q = g.points()
            e = np.abs(differentiate_samples(g, self.f(q), order) - exact(q))
            # The interior, then each of the four points next to an edge.
            errors.append((e[2:-2].max(), e[0], e[1], e[-2], e[-1]))
        orders = _observed_orders(errors)
        assert np.all(orders[:, 0] >= 3.8), orders
        # One-sided stencils: O(h^4) for the first derivative, O(h^3) for the second.
        assert np.all(orders[:, 1:] >= (3.8 if order == 1 else 2.8)), orders

    def test_simpson_converges_at_fourth_order(self):
        # A smooth integrand that does not decay, unlike a Gaussian over a
        # wide interval, on which Simpson converges spectrally.
        exact = (math.e * (math.sin(3.0) - 3.0 * math.cos(3.0)) + 3.0) / 10.0
        f = lambda q: np.exp(q) * np.sin(3.0 * q)
        errors = [abs(integrate(make_grid(0.0, 1.0, n), f) - exact) for n in (21, 41, 81, 161)]
        orders = _observed_orders(errors)
        assert np.all(orders >= 3.8), orders


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
        # Real samples round as the real part of the complex stencils: the
        # same bits up to the sign of a zero.
        rng = np.random.default_rng(n)
        for trial in range(6):
            y = _stencil_inputs(rng, n, dtype)
            g = make_grid(-1.0, -1.0 + 10.0 ** rng.uniform(-3.0, 3.0), n)
            for order in (1, 2):
                ref = _reference_differentiate(np.asarray(y, dtype=complex), g.step, order)
                ref = ref if dtype is complex else ref.real
                got = differentiate_samples(g, y, order)
                assert got.dtype == y.dtype
                if np.all(np.isfinite(ref)) and dtype is complex:
                    assert got.tobytes() == ref.tobytes(), (trial, order)
                elif np.all(np.isfinite(ref)):
                    assert np.array_equal(got, ref)  # -0.0 == +0.0
                    assert np.abs(got).tobytes() == np.abs(ref).tobytes(), (trial, order)
                else:
                    np.testing.assert_array_equal(got, ref)
                    with pytest.raises(InvalidParameterError, match="must all be finite"):
                        SampledFunction(g, got)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("order", [1, 2])
    def test_overflowing_stencil_is_refused_by_the_integral(self, order, dtype):
        g = make_grid(0.0, 1.0, 7)
        y = np.array([1e308, -1e308, 1e308, -1e308, 1e308, -1e308, 1e308], dtype=dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(_reference_differentiate(y, g.step, order)))
            d = differentiate_samples(g, y, order)
            with pytest.raises(InvalidParameterError, match="samples must all be finite"):
                integrate_samples(g, d)

    @pytest.mark.parametrize("order", [1, 2])
    def test_peak_memory_stays_near_two_arrays(self, order):
        # The output plus one scratch array; full-size temporaries per term
        # of the stencil would show as three or more.
        g = make_grid(-5.0, 5.0, 64001)
        q = g.points()
        f = np.exp(-q * q + 1j * q)
        tracemalloc.start()
        try:
            d = differentiate_samples(g, f, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.nbytes == f.nbytes
        assert peak <= 2.5 * f.nbytes


class TestDivideInPlace:
    @pytest.mark.parametrize("n", [5, 7, 2001, 16001])
    def test_complex_bits_and_warnings_match_np_divide(self, n):
        rng = np.random.default_rng([n, 18])
        paths = set()
        for trial in range(6):
            y = _stencil_inputs(rng, n, complex)
            cases = [
                y,  # negative zeros: np.divide
                y + 0.0,  # every -0.0 part made +0.0
                np.asarray(np.abs(y.real), dtype=complex),  # all-+0 imaginary parts
                np.where(np.abs(y) < 1e280, y + 0.0, 1.5),  # no product beyond float64
            ]
            cases[3][rng.integers(0, n)] = complex(math.inf, 0.0) if trial % 2 else math.nan
            for values in cases:
                for c in (10.0 ** rng.uniform(-3.0, 3.0), 12.0 * 1e-3 ** 2, 5e-324, math.sqrt(2.0)):
                    expected = _outcome(lambda: np.divide(values, c))
                    got = _outcome(lambda: divide_in_place(values.copy(), c))
                    assert got == expected, (trial, c)
                    paths.add(_product_is_quotient(values.view(np.float64), 1.0 / c))
        assert paths == {True, False}

    def test_an_all_positive_zero_imaginary_part_takes_the_product(self):
        q = make_grid(-40.0, 40.0, 16001).points()
        values = np.asarray(np.exp(-0.5 * q * q), dtype=complex)  # tails underflow to +0.0
        c = 1.7724538509055159
        assert _product_is_quotient(values.view(np.float64), 1.0 / c)
        assert divide_in_place(values.copy(), c).tobytes() == np.divide(values, c).tobytes()

    def test_real_values_are_rounded_as_a_complex_real_part(self):
        rng = np.random.default_rng(18)
        y = _stencil_inputs(rng, 2001, float)
        y[np.abs(y) > 1e290] = 1.0
        for c in (3.0, 0.07, 12.0 * 1e-3 ** 2):
            as_part = np.divide(np.asarray(y, dtype=complex), c).real
            got = divide_in_place(y.copy(), c)
            assert np.array_equal(got, as_part)  # -0.0 == +0.0
            assert np.abs(got).tobytes() == np.abs(as_part).tobytes()

    @pytest.mark.parametrize("c", [5e-324, 1e-300, 0.7, 1e300, 1.7976931348623157e308])
    def test_real_values_at_float64_limits_round_as_a_complex_real_part(self, c):
        # Infinities, a NaN, subnormals, and quotients beyond float64 or
        # below its smallest subnormal: 1/c itself is inf or subnormal at
        # the two ends.
        rng = np.random.default_rng(18)
        y = _stencil_inputs(rng, 2001, float)
        y[:4] = (math.inf, -math.inf, math.nan, 1.7976931348623157e308)
        with np.errstate(all="ignore"):
            as_part = np.divide(np.asarray(y, dtype=complex), c).real
            got = divide_in_place(y.copy(), c)
        assert np.array_equal(got, as_part, equal_nan=True)  # -0.0 == +0.0
        assert np.abs(got).tobytes() == np.abs(as_part).tobytes()

    @pytest.mark.parametrize("call", [
        lambda: divide_in_place(np.ones(5), 3.0, complex_rounding=True),
        lambda: differentiate_samples(make_grid(0.0, 1.0, 5), np.ones(5), 1, _complex_rounding=True),
    ], ids=["divide_in_place", "differentiate_samples"])
    def test_real_rounding_takes_no_keyword(self, call):
        # One rule for real samples: the keyword that chose np.divide's bits is gone.
        with pytest.raises(TypeError, match="unexpected keyword"):
            call()

    @pytest.mark.parametrize("order", [1, 2])
    def test_real_stencils_round_as_the_real_part_of_the_complex_ones(self, order):
        rng = np.random.default_rng([order, 18])
        for n in (5, 2001, 16001):
            g = make_grid(-1.0, -1.0 + 10.0 ** rng.uniform(-2.0, 2.0), n)
            y = rng.standard_normal(n) * 10.0 ** rng.uniform(-200.0, 200.0, n)
            y[:: 7] = -0.0
            as_part = differentiate_samples(g, np.asarray(y, dtype=complex), order)
            got = differentiate_samples(g, y, order)
            assert got.dtype == y.dtype
            assert np.array_equal(got, as_part.real)
            assert np.abs(got).tobytes() == np.abs(as_part).tobytes()

    def test_samples_are_not_scanned(self):
        g = make_grid(0.0, 1.0, 7)
        y = np.array([1.0, 2.0, math.inf, 0.0, 1.0, 2.0, 3.0])
        with np.errstate(invalid="ignore"):
            assert not np.all(np.isfinite(differentiate_samples(g, y, 1)))
        with pytest.raises(InvalidParameterError, match="expected 7 samples"):
            differentiate_samples(g, y[:5], 1)


class TestOde:
    def test_constant_slope(self):
        g = make_grid(0, 2, 5)
        out = solve_first_order_ode(lambda x: -1.0, 0.0, g)
        assert abs(out.values[-1] - (-2.0)) < 1e-15

    def test_linear_rhs_against_closed_form(self):
        # dx/dq = -(x + 0.5), x(0) = 0.5 has solution x = e^{-q} - 0.5.
        g = make_grid(0, 1, 1001)
        out = solve_first_order_ode(lambda x: -(x + 0.5), 0.5, g)
        assert abs(out.values[-1] - (math.exp(-1.0) - 0.5)) < 1e-9

    def test_squared_linear_rhs_against_closed_form(self):
        # dx/dq = -(0.5 (x + 1.5))^2, x(0) = 0.5 has solution
        # x = 1/(0.5 (0.5 q + 1)) - 1.5.
        g = make_grid(0, 5, 5001)
        out = solve_first_order_ode(lambda x: -((0.5 * (x + 1.5)) ** 2), 0.5, g)
        closed = 1.0 / (0.5 * (0.5 * g.points() + 1.0)) - 1.5
        assert np.max(np.abs(out.values - closed)) < 1e-8

    def test_fourth_order_convergence(self):
        closed = lambda q: np.exp(-q) - 0.5
        rhs = lambda x: -(x + 0.5)
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
            solve_first_order_ode(lambda x: x * x, 2.0, g)

    def test_step_halving_error_estimate(self):
        g = make_grid(0, 1, 101)
        est = ode_step_halving_error(lambda x: -(x + 0.5), 0.5, g)
        out = solve_first_order_ode(lambda x: -(x + 0.5), 0.5, g)
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
            solve_first_order_ode(lambda x: -(x + 0.5), x0, g)

    def test_start_at_range_edge_is_integrated(self):
        g = make_grid(0, 1, 11)
        out = solve_first_order_ode(lambda x: -(x + 0.5), -1e150, g)
        assert out.values[0] == -1e150
