"""Potential-expansion evaluation and damped least-squares recovery tests.

Round trips share only eval_expansion between the data generator and the
fitter. Since r_e and s enter the model solely through r_e (s + 1), recovery
is asserted on that product and on the series coefficients.
"""

import numpy as np
import pytest

from anhosc.errors import InvalidParameterError, UnderdeterminedError
from anhosc.fit import (
    ExpansionParams,
    PotentialSample,
    convergence_radius_lower,
    eval_expansion,
    fit_expansion,
    _jacobian,
    _pack,
)


def make_samples(params, r_values):
    return [PotentialSample(r, float(eval_expansion(params, r))) for r in r_values]


class TestEvalExpansion:
    def test_zero_at_equilibrium(self):
        params = ExpansionParams(r_e=1.0, s=0.0, c0=2.0)
        assert eval_expansion(params, params.r_e * (params.s + 1.0)) == 0.0

    def test_dissociation_limit(self):
        params = ExpansionParams(r_e=1.0, s=0.0, c0=2.0)
        assert abs(eval_expansion(params, 1e9) - 2.0) < 1e-8

    def test_rejects_nonpositive_r(self):
        params = ExpansionParams(r_e=1.0, s=0.0, c0=2.0)
        with pytest.raises(InvalidParameterError):
            eval_expansion(params, 0.0)
        with pytest.raises(InvalidParameterError):
            eval_expansion(params, -1.0)

    def test_series_terms(self):
        params = ExpansionParams(r_e=1.0, s=0.0, c0=2.0, c_n=(0.5,))
        r = 4.0
        u = (r - 1.0) / r
        assert abs(eval_expansion(params, r) - 2.0 * u**2 * (1 + 0.5 * u)) < 1e-14

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            ExpansionParams(r_e=0.0, s=0.0, c0=1.0)
        with pytest.raises(InvalidParameterError):
            ExpansionParams(r_e=1.0, s=-1.0, c0=1.0)
        with pytest.raises(InvalidParameterError):
            ExpansionParams(r_e=1.0, s=0.0, c0=0.0)


class TestConvergenceRadius:
    def test_values(self):
        assert convergence_radius_lower(1.0, 0.0) == 0.5
        assert convergence_radius_lower(1.0, -0.5) == 0.25
        assert convergence_radius_lower(2.0, 1.0) == 2.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            convergence_radius_lower(0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            convergence_radius_lower(1.0, -1.0)


class TestJacobian:
    def test_matches_finite_differences(self):
        params = ExpansionParams(r_e=1.3, s=0.2, c0=2.5, c_n=(-0.3, 0.1))
        theta = _pack(params)
        r = np.linspace(0.7, 6.0, 23)
        analytic = _jacobian(theta, r)
        eps = 1e-7
        for col in range(theta.size):
            plus = theta.copy()
            plus[col] += eps
            minus = theta.copy()
            minus[col] -= eps
            from anhosc.fit import _eval_raw

            fd = (_eval_raw(plus, r) - _eval_raw(minus, r)) / (2 * eps)
            scale = np.maximum(np.abs(analytic[:, col]), 1.0)
            assert np.max(np.abs(analytic[:, col] - fd) / scale) < 1e-6


class TestFitRoundTrip:
    def test_order_zero_recovery(self):
        truth = ExpansionParams(r_e=1.2, s=0.1, c0=3.0)
        data = make_samples(truth, np.linspace(0.8, 6.0, 50))
        result = fit_expansion(data, order=0)
        assert result.converged
        m_true = truth.r_e * (truth.s + 1.0)
        m_fit = result.params.r_e * (result.params.s + 1.0)
        assert abs(m_fit - m_true) / m_true < 1e-4
        assert abs(result.params.c0 - truth.c0) / truth.c0 < 1e-4
        v = np.array([d.v for d in data])
        assert result.rss / (np.var(v) * len(data)) < 1e-18

    def test_order_one_recovery(self):
        truth = ExpansionParams(r_e=1.2, s=0.1, c0=3.0, c_n=(-0.2,))
        data = make_samples(truth, np.linspace(0.8, 6.0, 60))
        result = fit_expansion(data, order=1)
        assert result.converged
        m_true = truth.r_e * (truth.s + 1.0)
        m_fit = result.params.r_e * (result.params.s + 1.0)
        assert abs(m_fit - m_true) / m_true < 1e-3
        assert abs(result.params.c0 - truth.c0) / truth.c0 < 1e-3
        assert abs(result.params.c_n[0] - truth.c_n[0]) / abs(truth.c_n[0]) < 1e-3

    def test_perturbed_init_recovery(self):
        truth = ExpansionParams(r_e=1.2, s=0.1, c0=3.0)
        data = make_samples(truth, np.linspace(0.8, 6.0, 50))
        init = ExpansionParams(r_e=1.2 * 1.15, s=0.1 * 0.8, c0=3.0 * 0.85)
        result = fit_expansion(data, order=0, init=init)
        assert result.converged
        m_true = truth.r_e * (truth.s + 1.0)
        m_fit = result.params.r_e * (result.params.s + 1.0)
        assert abs(m_fit - m_true) / m_true < 1e-4
        assert abs(result.params.c0 - truth.c0) / truth.c0 < 1e-4

    def test_final_rss_not_above_initial(self):
        truth = ExpansionParams(r_e=1.2, s=0.1, c0=3.0)
        data = make_samples(truth, np.linspace(0.8, 6.0, 50))
        init = ExpansionParams(r_e=1.0, s=0.0, c0=2.0)
        r = np.array([d.r for d in data])
        v = np.array([d.v for d in data])
        init_rss = float(np.sum((eval_expansion(init, r) - v) ** 2))
        result = fit_expansion(data, order=0, init=init)
        assert result.rss <= init_rss

    def test_equilibrium_zero_is_structural(self):
        truth = ExpansionParams(r_e=1.2, s=0.1, c0=3.0)
        data = make_samples(truth, np.linspace(0.8, 6.0, 50))
        result = fit_expansion(data, order=0)
        eq = result.params.r_e * (result.params.s + 1.0)
        assert eval_expansion(result.params, eq) == 0.0


def noisy_samples(order, seed, n=60):
    """n samples of a known expansion with Gaussian noise of 1e-4 c0."""
    rng = np.random.default_rng(seed)
    truth = ExpansionParams(r_e=1.2, s=0.1, c0=3.0, c_n=(-0.2, 0.15, -0.1)[:order])
    r = np.sort(rng.uniform(0.8, 6.0, n))
    v = eval_expansion(truth, r) + rng.normal(0.0, 1e-4 * truth.c0, n)
    return [PotentialSample(float(a), float(b)) for a, b in zip(r, v)]


class TestIdentifiableParameters:
    """The data fix m = r_e (s + 1), c0 and c_n; s is the start's value."""

    @pytest.mark.parametrize("order", range(4))
    @pytest.mark.parametrize("seed", range(3))
    def test_jacobian_is_well_conditioned(self, order, seed):
        data = noisy_samples(order, seed)
        result = fit_expansion(data, order=order)
        assert result.converged
        r = np.array([d.r for d in data])
        assert np.linalg.cond(_jacobian(_pack(result.params), r)) < 1e6

    @pytest.mark.parametrize("order", range(4))
    def test_s_is_the_start_value(self, order):
        data = noisy_samples(order, seed=7)
        assert fit_expansion(data, order=order).params.s == 0.0
        init = ExpansionParams(r_e=1.0, s=0.3, c0=2.5, c_n=(0.0,) * order)
        assert fit_expansion(data, order=order, init=init).params.s == 0.3

    @pytest.mark.parametrize("order", range(4))
    def test_the_split_does_not_move_the_fit(self, order):
        # A start with s = 0.3 and one with s = 0 at the same product follow
        # the same path, so r_e (s + 1) reproduces the fitted product.
        data = noisy_samples(order, seed=11)
        init = ExpansionParams(r_e=1.0, s=0.3, c0=2.5, c_n=(0.0,) * order)
        split = fit_expansion(data, order=order, init=init)
        flat = fit_expansion(data, order=order, init=ExpansionParams(
            r_e=init.r_e * (init.s + 1.0), s=0.0, c0=init.c0, c_n=init.c_n))
        m = flat.params.r_e
        assert flat.params.r_e * (flat.params.s + 1.0) == m
        assert split.params.r_e == m / (0.3 + 1.0)
        assert split.params.r_e * (split.params.s + 1.0) == pytest.approx(m, rel=4e-16)
        assert (split.params.c0, split.params.c_n) == (flat.params.c0, flat.params.c_n)
        assert (split.rss, split.iterations) == (flat.rss, flat.iterations)


class TestFitValidation:
    def test_underdetermined(self):
        truth = ExpansionParams(r_e=1.0, s=0.0, c0=2.0)
        data = make_samples(truth, [0.9])
        with pytest.raises(UnderdeterminedError):
            fit_expansion(data, order=0)

    def test_two_samples_determine_order_zero(self):
        truth = ExpansionParams(r_e=1.2, s=0.0, c0=3.0)
        result = fit_expansion(make_samples(truth, [0.9, 2.5]), order=0)
        assert result.converged
        assert result.rss < 1e-30
        with pytest.raises(UnderdeterminedError):
            fit_expansion(make_samples(truth, [0.9, 2.5]), order=1)

    def test_degenerate_abscissas(self):
        data = [PotentialSample(1.0, 0.1), PotentialSample(1.0, 0.2),
                PotentialSample(1.0, 0.3), PotentialSample(1.0, 0.4)]
        with pytest.raises(UnderdeterminedError):
            fit_expansion(data, order=0)

    def test_negative_order(self):
        with pytest.raises(InvalidParameterError):
            fit_expansion(make_samples(ExpansionParams(1.0, 0.0, 2.0), [1.0, 2.0, 3.0]), order=-1)

    def test_init_order_mismatch(self):
        truth = ExpansionParams(r_e=1.0, s=0.0, c0=2.0)
        data = make_samples(truth, np.linspace(0.8, 4.0, 10))
        with pytest.raises(InvalidParameterError):
            fit_expansion(data, order=1, init=truth)

    def test_sample_validation(self):
        with pytest.raises(InvalidParameterError):
            PotentialSample(-1.0, 0.5)
        with pytest.raises(InvalidParameterError):
            PotentialSample(1.0, float("nan"))
