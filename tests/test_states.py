"""Ground states, coherent states, ladder operators on samples,
normalization, and expectation values. Expected numbers come from
Gaussian-moment oracles, closed-form norms and the closed-form wavefunctions
evaluated independently here."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from anhosc import states
from anhosc.errors import (
    DomainViolationError,
    InadmissibleAlphaError,
    InvalidParameterError,
    TruncationError,
)
from anhosc.families import (
    make_generalized_kratzer_fues,
    make_generalized_morse,
    make_harmonic,
    make_kratzer_fues,
    make_wei_hua,
)
from anhosc.numerics import differentiate, make_grid, solve_first_order_ode
from anhosc.models import (
    GENERALIZED_MORSE,
    HARMONIC,
    WEI_HUA,
    eval_superpotential,
)
from anhosc.states import (
    ANNIHILATION,
    CREATION,
    _MASS_TOL,
    _search_functions,
    admissible_bound,
    auto_grid,
    coherent_state,
    default_interval,
    grid_fields,
    ground_state,
    is_admissible,
    l2_norm_of,
    ladder_values,
    normalize,
)
from anhosc.verify import verify_coherent

SQRT2 = math.sqrt(2.0)


class TestGroundState:
    def test_harmonic_value(self):
        psi = ground_state(make_harmonic())
        assert abs(psi.evaluator(np.array([1.0]))[0] - math.exp(-0.5)) < 1e-14

    def test_normalized_to_one_at_origin(self):
        for m in (
            make_harmonic(),
            make_generalized_morse(1.0, 0.5),
            make_wei_hua(0.2, 1.0, 0.5),
            make_kratzer_fues(0.5),
        ):
            value = ground_state(m).evaluator(np.array([0.0]))[0]
            assert abs(value - 1.0) < 1e-14, m.family

    def test_kratzer_matches_independent_closed_form_up_to_constant(self):
        # Independent oracle: (1 + c1 q)^(1/c1^2) exp(-(1 - c1^2)(c1 q + 1)/c1^2)
        # evaluates to e^-3 at q = 0 and is proportional to our psi0.
        c1 = 0.5
        paper = lambda q: (1 + c1 * q) ** (1 / c1**2) * np.exp(
            -(1 - c1**2) * (c1 * q + 1) / c1**2
        )
        assert abs(paper(np.array([0.0]))[0] - math.exp(-3.0)) < 1e-12
        m = make_kratzer_fues(c1)
        q = np.linspace(-1.9, 20.0, 501)
        ratio = paper(q) / ground_state(m).evaluator(q).real
        spread = (ratio.max() - ratio.min()) / abs(ratio.mean())
        assert spread < 1e-12

    def test_exponential_of_integrated_superpotential(self):
        # psi0 must equal exp(integral of x) up to a constant factor; the
        # integral is done by the package ODE integrator as an oracle.
        for m in (
            make_generalized_morse(1.0, 0.5),
            make_wei_hua(0.2, 1.0, 0.5),
            make_kratzer_fues(0.5),
        ):
            grid = make_grid(0.0, 12.0, 2401)
            rhs = lambda q, p: float(eval_superpotential(m, q)) * p
            numeric = solve_first_order_ode(rhs, 1.0, grid)
            closed = ground_state(m).evaluator(grid.points()).real
            ratio = numeric.values / closed
            spread = (ratio.max() - ratio.min()) / abs(ratio.mean())
            assert spread < 1e-8, m.family


class TestCoherentState:
    def test_alpha_zero_is_ground_state(self):
        m = make_generalized_morse(1.0, 0.5)
        q = np.linspace(-2.0, 10.0, 301)
        np.testing.assert_allclose(
            coherent_state(m, 0.0).evaluator(q),
            ground_state(m).evaluator(q),
            rtol=0,
            atol=1e-15,
        )

    def test_harmonic_closed_form(self):
        alpha = 1.0 / SQRT2
        psi = coherent_state(make_harmonic(), alpha)
        q = np.linspace(-4.0, 5.0, 101)
        expected = np.exp(-0.5 * q**2) * np.exp(SQRT2 * alpha * q)
        np.testing.assert_allclose(psi.evaluator(q).real, expected, rtol=1e-13)

    def test_morse_inadmissible_alpha(self):
        m = make_generalized_morse(1.0, 0.5)
        with pytest.raises(InadmissibleAlphaError):
            coherent_state(m, 0.5)

    def test_complex_alpha_supported(self):
        m = make_kratzer_fues(0.5)
        psi = coherent_state(m, 0.1 + 0.2j)
        values = psi.evaluator(np.array([0.0, 1.0]))
        assert np.iscomplexobj(values)
        assert abs(values[0] - 1.0) < 1e-14  # psi0(0) = 1 and e^0 = 1


class TestAdmissibility:
    def test_bounds(self):
        assert admissible_bound(make_harmonic()).sup_re_alpha == math.inf
        assert abs(admissible_bound(make_generalized_morse(1.0, 0.5)).sup_re_alpha - 0.5) < 1e-15
        assert abs(admissible_bound(make_kratzer_fues(0.5)).sup_re_alpha - 1.5) < 1e-15

    def test_strict_inequality(self):
        m = make_generalized_morse(1.0, 0.5)
        assert not is_admissible(m, 0.5 / SQRT2)  # exactly at the bound
        assert is_admissible(m, 0.5 / SQRT2 - 1e-9)
        assert is_admissible(m, 1j)  # imaginary part is unconstrained

    def test_full_line_wei_hua_has_lower_bound(self):
        # On the poleless branch the left tail decays only above
        # sqrt(2) Re(alpha) = c1/c2 + c0/c1, here -1.
        m = make_wei_hua(1.0, 1.0, -0.5)
        b = admissible_bound(m)
        assert abs(b.inf_re_alpha - (-1.0)) < 1e-12
        assert abs(b.sup_re_alpha - 1.0) < 1e-12
        assert is_admissible(m, 0.0)
        with pytest.raises(InadmissibleAlphaError):
            coherent_state(m, -0.75)  # sqrt(2)(-0.75) < -1


def _ladder_inputs(model, alpha, grid):
    """psi (psi0 for alpha None), psi' and x psi on a grid, from the record."""
    fields = grid_fields(model, grid)
    sampled = fields.sample(alpha)
    return sampled.values, differentiate(sampled, 1).values, fields.x * sampled.values


class TestLadderValues:
    def test_annihilation_kills_harmonic_ground_state(self):
        m = make_harmonic()
        grid = auto_grid(m)
        psi, dpsi, x_psi = _ladder_inputs(m, None, grid)
        resid = l2_norm_of(grid, ladder_values(dpsi, x_psi, ANNIHILATION))
        assert resid / l2_norm_of(grid, psi) < 1e-8

    def test_coherent_states_are_eigenstates(self):
        m = make_kratzer_fues(0.5)
        alpha = 0.1 + 0.2j
        grid = auto_grid(m, alpha)
        psi, dpsi, x_psi = _ladder_inputs(m, alpha, grid)
        resid = ladder_values(dpsi, x_psi, ANNIHILATION) - alpha * psi
        assert l2_norm_of(grid, resid) / l2_norm_of(grid, psi) < 1e-6

    def test_creation_on_harmonic_ground_state(self):
        # (-d/dq + q) e^{-q^2/2} / sqrt(2) = sqrt(2) q e^{-q^2/2}, by hand.
        m = make_harmonic()
        grid = auto_grid(m)
        created = ladder_values(*_ladder_inputs(m, None, grid)[1:], CREATION)
        q = grid.points()
        expected = SQRT2 * q * np.exp(-0.5 * q**2)
        assert np.max(np.abs(created - expected)) < 1e-8

    def test_unknown_operator_rejected(self):
        m = make_harmonic()
        with pytest.raises(InvalidParameterError):
            ladder_values(*_ladder_inputs(m, None, auto_grid(m))[1:], "lower")

    @staticmethod
    def _random_inputs(dpsi_dtype):
        rng = np.random.default_rng(5)
        dpsi = rng.standard_normal(2001)
        if dpsi_dtype is complex:
            dpsi = dpsi + 1j * rng.standard_normal(2001)
        dpsi[::7] = 0.0
        dpsi[3::7] = -0.0
        x_psi = rng.standard_normal(2001) + 1j * rng.standard_normal(2001)
        x_psi[::5] = complex(0.0, -0.0)
        x_psi[1::5] = 0.0
        return dpsi, x_psi

    @pytest.mark.parametrize("inputs", [
        lambda: TestLadderValues._random_inputs(float),
        lambda: TestLadderValues._random_inputs(complex),
        lambda: _ladder_inputs(make_harmonic(), None, auto_grid(make_harmonic()))[1:],
        lambda: _ladder_inputs(make_kratzer_fues(0.5), 0.1 + 0.2j,
                               auto_grid(make_kratzer_fues(0.5), 0.1 + 0.2j))[1:],
    ], ids=["float", "complex", "harmonic-ground", "kratzer-coherent"])
    def test_bits_match_the_written_out_expressions(self, inputs):
        dpsi, x_psi = inputs()
        for which, ref in ((ANNIHILATION, (dpsi - x_psi) / SQRT2),
                           (CREATION, (-dpsi - x_psi) / SQRT2)):
            got = ladder_values(dpsi, x_psi, which)
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes(), which

    @pytest.mark.parametrize("which", [ANNIHILATION, CREATION])
    def test_peak_memory_is_one_array(self, which):
        # Only the result is allocated; a temporary per operation would show
        # as two arrays or more.
        q = make_grid(-5.0, 5.0, 64001).points()
        dpsi = np.exp(-q * q + 1j * q)
        x_psi = q * dpsi
        tracemalloc.start()
        try:
            out = ladder_values(dpsi, x_psi, which)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == dpsi.nbytes
        assert peak <= 1.5 * dpsi.nbytes


_STATE_MODELS = {
    "harmonic": make_harmonic(),
    "morse": make_generalized_morse(1.0, 0.5),
    "weihua": make_wei_hua(0.2, 1.0, 0.5),
    "weihua_full_line": make_wei_hua(1.0, 1.0, -0.5),
    "kratzer": make_kratzer_fues(0.5),
    "gkf": make_generalized_kratzer_fues(0.75, 0.5),
}


def _parity_cases(models=_STATE_MODELS, alphas=(0.0, 0.1, -0.3, 0.2 + 0.3j)):
    for name, model in models.items():
        for alpha in alphas:
            if is_admissible(model, alpha):
                yield pytest.param(model, alpha, id=f"{name}-{alpha}")


def _log_norm_sq(model, alpha):
    """ln of the squared L2 norm of psi_alpha over the whole domain, in
    closed form. With t = sqrt(2) Re(alpha) and a = 2(c0/c1 - t)/c1, the
    substitutions u = e^{-c1 q} (Morse), w = 1 + c1 q (Kratzer-Fues) and
    u = |C| e^{-c1 q} (Wei Hua) turn the integral of |psi_alpha|^2 into
    Euler's Gamma or Beta integral."""
    t = SQRT2 * complex(alpha).real
    p = model.params
    if model.family == HARMONIC:
        return t * t + 0.5 * math.log(math.pi)
    a = 2.0 * (p.c0 / p.c1 - t) / p.c1
    if model.family == GENERALIZED_MORSE:
        return 2.0 / p.c1 ** 2 + a * math.log(p.c1 ** 2 / 2.0) + math.lgamma(a) - math.log(p.c1)
    if model.family == WEI_HUA:
        # Beta(a, 1 + 2/c2) on the half line (C > 0), Beta(a, -2/c2 - a) on
        # the full line (C < 0).
        y = 1.0 + 2.0 / p.c2 if p.big_c > 0.0 else -2.0 / p.c2 - a
        log_beta = math.lgamma(a) + math.lgamma(y) - math.lgamma(a + y)
        return (-(2.0 / p.c2) * math.log(1.0 - p.big_c) - a * math.log(abs(p.big_c))
                - math.log(p.c1) + log_beta)
    power = 2.0 / p.c1 ** 2
    return a + math.lgamma(power + 1.0) - (power + 1.0) * math.log(a) - math.log(p.c1)


#: The state models plus wider parameters: non-integer power laws at a
#: finite boundary (Wei Hua c2 = 0.3, Kratzer-Fues c1 = 0.9, gkf c1 = 0.7),
#: and a full-line Wei Hua model whose psi0 is not normalizable.
_NORM_MODELS = {
    **_STATE_MODELS,
    "morse_1.2_0.125": make_generalized_morse(1.2, 0.125),
    "weihua_c2_0.3": make_wei_hua(0.2, 1.0, 0.3),
    "weihua_full_line_0.2": make_wei_hua(0.2, 1.0, -0.5),
    "weihua_full_line_c0_5": make_wei_hua(5.0, 1.0, -0.3),
    "kratzer_0.9": make_kratzer_fues(0.9),
    "gkf_1.5_0.7": make_generalized_kratzer_fues(1.5, 0.7),
}


class TestGridFields:
    @pytest.mark.parametrize("model, alpha", _parity_cases(
        _NORM_MODELS, (0.0, 0.1, -0.3, 0.2 + 0.3j, 1.2, 2.0)))
    def test_norm_matches_the_closed_form(self, model, alpha):
        # Independent of the sampling and the quadrature; what is left is the
        # tail mass auto_grid drops on purpose (at most 1.9e-8 here).
        _, norm = grid_fields(model, auto_grid(model, alpha)).normalized(alpha)
        assert abs(2.0 * math.log(norm) - _log_norm_sq(model, alpha)) < _MASS_TOL

    @pytest.mark.parametrize("model, alpha", _parity_cases())
    def test_states_are_bit_equal_to_the_wavefunction_path(self, model, alpha):
        grid = auto_grid(model, alpha)
        fields = grid_fields(model, grid)
        got, norm = fields.normalized(alpha)
        ref = normalize(coherent_state(model, alpha), grid)
        assert got.values.tobytes() == ref.sample(grid).values.tobytes()
        assert norm == ref.norm
        assert fields.sample(alpha).values.tobytes() == coherent_state(model, alpha).sample(grid).values.tobytes()
        if alpha != 0.0:
            return
        # alpha None is the real ground state, not the complex alpha = 0 state.
        got0, norm0 = fields.normalized()
        ref0 = normalize(ground_state(model), grid)
        assert got0.values.tobytes() == ref0.sample(grid).values.tobytes()
        assert norm0 == ref0.norm
        assert fields.sample().values.dtype == float
        ground = ground_state(model).sample(grid).values
        assert fields.sample().values.astype(complex).tobytes() == ground.tobytes()

    def test_fields_match_the_model_functions_and_are_read_only(self):
        m = make_generalized_morse(1.0, 0.5)
        grid = auto_grid(m)
        fields = grid_fields(m, grid)
        q = grid.points()
        assert fields.q.tobytes() == q.tobytes()
        assert fields.x.tobytes() == eval_superpotential(m, q).tobytes()
        for array in (fields.q, fields.x, fields.xp, fields.log_psi0):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_grid_outside_the_domain_is_refused_first(self):
        with pytest.raises(DomainViolationError, match="not inside open domain"):
            grid_fields(make_kratzer_fues(0.5), make_grid(-3.0, 10.0, 101))

    def test_overflow_is_a_truncation_error(self):
        fields = grid_fields(make_harmonic(), make_grid(-40.0, 40.0, 1001))
        with pytest.raises(TruncationError, match="overflows float64"):
            fields.sample(-2000.0)


class TestNormalize:
    def test_harmonic_norm_is_pi_quarter(self):
        # Oracle: integral of e^{-q^2} is sqrt(pi).
        m = make_harmonic()
        grid = make_grid(-8.0, 8.0, 4001)
        psi = normalize(ground_state(m), grid)
        assert abs(psi.norm - math.pi**0.25) < 1e-8
        assert abs(l2_norm_of(grid, psi.sample(grid).values) - 1.0) < 1e-12

    def test_idempotent(self):
        m = make_harmonic()
        grid = make_grid(-8.0, 8.0, 4001)
        once = normalize(ground_state(m), grid)
        twice = normalize(once, grid)
        q = grid.points()
        np.testing.assert_allclose(twice.evaluator(q), once.evaluator(q), atol=1e-12)

    def test_insufficient_truncation_rejected(self):
        m = make_harmonic()
        with pytest.raises(TruncationError):
            normalize(ground_state(m), make_grid(-1.0, 1.0, 101))

    @pytest.mark.parametrize("alpha", [-2000.0, -50.0, -2000.0 + 3.0j])
    def test_overflowing_state_is_a_truncation_error(self, alpha):
        # psi(0) = 1, so the harmonic peak is exp(alpha^2): beyond float64.
        m = make_harmonic()
        psi = coherent_state(m, alpha)
        grid = auto_grid(m, alpha, n=1001)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for sample in (psi.sample, lambda g: normalize(psi, g)):
                with pytest.raises(TruncationError, match="overflows float64"):
                    sample(grid)

    def test_wrong_shaped_evaluator_is_not_called_an_overflow(self):
        psi = replace(ground_state(make_harmonic()), evaluator=lambda q: np.ones(3))
        with pytest.raises(InvalidParameterError, match="expected 101 samples"):
            psi.sample(make_grid(-8.0, 8.0, 101))

    @pytest.mark.parametrize("alpha", [None, 0.0, 0.1, -0.1 + 0.2j])
    def test_samples_match_normalize_bit_for_bit(self, alpha):
        # The verification suite and the coherent table work on the record's
        # samples; they must equal what normalize() followed by sample()
        # gives, also for the real-valued ground state, where scaling after
        # the complex cast would round differently.
        for m in (make_harmonic(), make_wei_hua(0.2, 1.0, 0.5), make_kratzer_fues(0.5)):
            psi = ground_state(m) if alpha is None else coherent_state(m, alpha)
            grid = auto_grid(m, alpha or 0.0, n=2001)
            sampled, norm = grid_fields(m, grid).normalized(alpha)
            scaled = normalize(psi, grid)
            assert norm == scaled.norm
            assert sampled.values.dtype == complex
            assert sampled.values.tobytes() == scaled.sample(grid).values.tobytes()

    def test_auto_grids_always_pass(self):
        for m in (
            make_harmonic(),
            make_generalized_morse(1.2, 0.125),
            make_wei_hua(0.2, 1.0, 0.5),
            make_generalized_kratzer_fues(0.75, 0.5),
        ):
            for alpha in (0.0, 0.1):
                grid = auto_grid(m, alpha)
                normalize(coherent_state(m, alpha), grid)


class TestExpectation:
    # The moments as verify_coherent reports them: delta_x^2 = <x^2> - <x>^2,
    # exp_x_err = |<x> + sqrt(2) Re(alpha)|, exp_p_err = |<p> - sqrt(2) Im(alpha)|
    # and bound = <x'>^2 / 4.
    def test_harmonic_ground_state_moments(self):
        m = make_harmonic()
        report = verify_coherent(m, 0.0, auto_grid(m))
        assert report.exp_x_err < 1e-10
        assert abs(report.delta_x ** 2 - 0.5) < 1e-8
        assert abs(report.delta_p ** 2 - 0.5) < 1e-8
        assert abs(report.bound - 0.25) < 1e-10

    def test_harmonic_coherent_position(self):
        # Oracle: |psi_alpha|^2 is a Gaussian centered at sqrt(2) alpha, so
        # <q> = sqrt(2) alpha = 1 and the superpotential x = -q averages to -1.
        m = make_harmonic()
        alpha = 1.0 / SQRT2
        report = verify_coherent(m, alpha, auto_grid(m, alpha))
        assert report.exp_x_err < 1e-8

    def test_momentum_of_complex_alpha(self):
        # <p> = sqrt(2) Im(alpha) for the harmonic coherent state.
        m = make_harmonic()
        alpha = 0.3j
        report = verify_coherent(m, alpha, auto_grid(m, alpha))
        assert report.exp_p_err < 1e-8


class TestAutoGrid:
    def test_within_domain(self):
        for m in (make_wei_hua(0.2, 1.0, 0.5), make_kratzer_fues(0.5)):
            g = auto_grid(m)
            assert m.q_lower < g.q_min < g.q_max < m.q_upper

    def test_harmonic_default(self):
        g = auto_grid(make_harmonic())
        assert g.n == 4001
        assert g.q_min < -4.0 and g.q_max > 4.0

    def test_inadmissible_alpha_rejected(self):
        with pytest.raises(InadmissibleAlphaError):
            auto_grid(make_generalized_morse(1.0, 0.5), alpha=0.5)

    @pytest.mark.parametrize("m, alpha", [
        (make_kratzer_fues(0.5), -2000.0),
        (make_wei_hua(0.2, 1.0, 0.5), -1414.0),
    ])
    def test_peak_inside_pole_offset_rejected(self, m, alpha):
        # x + t < 0 already at the pole offset 1e-3/c1: the peak lies between
        # the boundary and the left grid edge, so no valid grid exists there.
        with pytest.raises(TruncationError, match="pole offset"):
            auto_grid(m, alpha)

    def test_peak_just_outside_pole_offset_accepted(self):
        m = make_wei_hua(0.2, 1.0, 0.5)
        g = auto_grid(m, -1413.0)
        assert m.q_lower < g.q_min < g.q_max < m.q_upper

    def test_grid_outside_domain_rejected(self):
        m = make_kratzer_fues(0.5)
        with pytest.raises(DomainViolationError):
            ground_state(m).sample(make_grid(-3.0, 1.0, 101))


# float.hex of auto_grid's edges for the README desk models, recorded before
# the bisections learned to stop early. Any change to the peak or edge
# searches that moves an edge by one ulp changes every table and report.
_DESK_MODELS = {
    "harmonic": make_harmonic(),
    "morse": make_generalized_morse(1.0, 0.5),
    "weihua": make_wei_hua(0.2, 1.0, 0.5),
    "kratzer": make_kratzer_fues(0.5),
    "gkf": make_generalized_kratzer_fues(0.75, 0.5),
}

_GOLDEN_EDGES = [
    ("harmonic", 0, 2001, "-0x1.0000000000000p+3", "0x1.0000000000000p+3"),
    ("harmonic", 0, 4001, "-0x1.0000000000000p+3", "0x1.0000000000000p+3"),
    ("harmonic", 0.1, 2001, "-0x1.0000000000000p+3", "0x1.0000000000000p+3"),
    ("harmonic", 0.1, 4001, "-0x1.0000000000000p+3", "0x1.0000000000000p+3"),
    ("harmonic", -0.3, 2001, "-0x1.0000000000000p+3", "0x1.0000000000000p+3"),
    ("harmonic", -0.3, 4001, "-0x1.0000000000000p+3", "0x1.0000000000000p+3"),
    ("harmonic", (0.2+0.3j), 2001, "-0x1.0000000000000p+3", "0x1.0000000000000p+3"),
    ("harmonic", (0.2+0.3j), 4001, "-0x1.0000000000000p+3", "0x1.0000000000000p+3"),
    ("morse", 0, 2001, "-0x1.8000000000000p+1", "0x1.4000000000000p+5"),
    ("morse", 0, 4001, "-0x1.8000000000000p+1", "0x1.4000000000000p+5"),
    ("morse", 0.1, 2001, "-0x1.8000000000000p+1", "0x1.4000000000000p+5"),
    ("morse", 0.1, 4001, "-0x1.8000000000000p+1", "0x1.4000000000000p+5"),
    ("morse", -0.3, 2001, "-0x1.8000000000000p+1", "0x1.4000000000000p+5"),
    ("morse", -0.3, 4001, "-0x1.8000000000000p+1", "0x1.4000000000000p+5"),
    ("morse", (0.2+0.3j), 2001, "-0x1.8000000000000p+1", "0x1.545e373f8c24bp+5"),
    ("morse", (0.2+0.3j), 4001, "-0x1.8000000000000p+1", "0x1.545e373f8c24bp+5"),
    ("weihua", 0, 2001, "-0x1.18fd1e73846a1p+0", "0x1.6b958b1a5007ap+5"),
    ("weihua", 0, 4001, "-0x1.18fd1e73846a1p+0", "0x1.6b958b1a5007ap+5"),
    ("weihua", 0.1, 2001, "-0x1.18fd1e73846a1p+0", "0x1.3808b55c4f354p+7"),
    ("weihua", 0.1, 4001, "-0x1.18fd1e73846a1p+0", "0x1.3808b55c4f354p+7"),
    ("weihua", -0.3, 2001, "-0x1.18fd1e73846a1p+0", "0x1.d573856e80a70p+3"),
    ("weihua", -0.3, 4001, "-0x1.18fd1e73846a1p+0", "0x1.d573856e80a70p+3"),
    ("kratzer", 0, 2001, "-0x1.ff7ced916872bp+0", "0x1.4ededeba6428ep+3"),
    ("kratzer", 0, 4001, "-0x1.ff7ced916872bp+0", "0x1.4ededeba6428ep+3"),
    ("kratzer", 0.1, 2001, "-0x1.ff7ced916872bp+0", "0x1.78e24d3b81673p+3"),
    ("kratzer", 0.1, 4001, "-0x1.ff7ced916872bp+0", "0x1.78e24d3b81673p+3"),
    ("kratzer", -0.3, 2001, "-0x1.ff7ced916872bp+0", "0x1.ebbd4c920d000p+2"),
    ("kratzer", -0.3, 4001, "-0x1.ff7ced916872bp+0", "0x1.ebbd4c920d000p+2"),
    ("kratzer", (0.2+0.3j), 2001, "-0x1.ff7ced916872bp+0", "0x1.aca80d9ced704p+3"),
    ("kratzer", (0.2+0.3j), 4001, "-0x1.ff7ced916872bp+0", "0x1.aca80d9ced704p+3"),
    ("gkf", 0, 2001, "-0x1.ff7ced916872bp+0", "0x1.4ededeba6428ep+3"),
    ("gkf", 0, 4001, "-0x1.ff7ced916872bp+0", "0x1.4ededeba6428ep+3"),
    ("gkf", 0.1, 2001, "-0x1.ff7ced916872bp+0", "0x1.78e24d3b81673p+3"),
    ("gkf", 0.1, 4001, "-0x1.ff7ced916872bp+0", "0x1.78e24d3b81673p+3"),
    ("gkf", -0.3, 2001, "-0x1.ff7ced916872bp+0", "0x1.ebbd4c920d000p+2"),
    ("gkf", -0.3, 4001, "-0x1.ff7ced916872bp+0", "0x1.ebbd4c920d000p+2"),
    ("gkf", (0.2+0.3j), 2001, "-0x1.ff7ced916872bp+0", "0x1.aca80d9ced704p+3"),
    ("gkf", (0.2+0.3j), 4001, "-0x1.ff7ced916872bp+0", "0x1.aca80d9ced704p+3"),
]


@pytest.mark.parametrize("name, alpha, n, q_min, q_max", _GOLDEN_EDGES)
def test_auto_grid_edges_are_pinned(name, alpha, n, q_min, q_max):
    g = auto_grid(_DESK_MODELS[name], alpha, n)
    assert (g.q_min.hex(), g.q_max.hex(), g.n) == (q_min, q_max, n)


_WIDE_MODELS = {
    "kratzer_0.6": make_kratzer_fues(0.6),
    "kratzer_0.9": make_kratzer_fues(0.9),
    "weihua_c2_0.3": make_wei_hua(0.2, 1.0, 0.3),
    "weihua_c2_0.55": make_wei_hua(0.2, 1.0, 0.55),
    "weihua_full_line": make_wei_hua(0.2, 1.0, -0.5),
    "gkf_1.5_0.7": make_generalized_kratzer_fues(1.5, 0.7),
    "morse_50_0.01": make_generalized_morse(50.0, 0.01),
    "morse_2_0.3": make_generalized_morse(2.0, 0.3),
}

# Edges of models away from the desk set, recorded before the searches
# shared one exponential between x and log psi0. The last alphas of each
# model sit at 0.99 of its admissibility bounds (sqrt(2) Re(alpha)).
_WIDE_EDGES = [
    ("kratzer_0.6", 0.0, "-0x1.aa3d70a3d70a4p+0", "0x1.acfc6fbb062c4p+3"),
    ("kratzer_0.6", 0.1, "-0x1.aa3d70a3d70a4p+0", "0x1.f743e75ac0a71p+3"),
    ("kratzer_0.6", -0.3, "-0x1.aa3d70a3d70a4p+0", "0x1.22b3bb18a09afp+3"),
    ("kratzer_0.6", (0.2+0.3j), "-0x1.aa3d70a3d70a4p+0", "0x1.2e2c9dc1e5824p+4"),
    ("kratzer_0.6", 0.7467047609329942, "-0x1.aa3d70a3d70a4p+0", "0x1.7b3672a79337fp+10"),
    ("kratzer_0.9", 0.0, "-0x1.1c28f5c28f5c3p+0", "0x1.caed2eabaed17p+5"),
    ("kratzer_0.9", 0.1, "-0x1.1c28f5c28f5c3p+0", "0x1.6028d44905355p+7"),
    ("kratzer_0.9", -0.3, "-0x1.1c28f5c28f5c3p+0", "0x1.24e2acdac5ecdp+4"),
    ("kratzer_0.9", (0.1+0.3j), "-0x1.1c28f5c28f5c3p+0", "0x1.6028d44905355p+7"),
    ("kratzer_0.9", 0.14778531726798838, "-0x1.1c28f5c28f5c3p+0", "0x1.6d8e66e26fe5cp+12"),
    ("weihua_c2_0.3", 0.0, "-0x1.772054841592ep+0", "0x1.6c31fe76858e8p+5"),
    ("weihua_c2_0.3", 0.1, "-0x1.772054841592ep+0", "0x1.3834e7454f07ep+7"),
    ("weihua_c2_0.3", -0.3, "-0x1.772054841592ep+0", "0x1.d70a933e70635p+3"),
    ("weihua_c2_0.3", (0.1+0.3j), "-0x1.772054841592ep+0", "0x1.3834e7454f07ep+7"),
    ("weihua_c2_0.3", 0.1400071426749364, "-0x1.772054841592ep+0", "0x1.331cc5e7261cbp+12"),
    ("weihua_c2_0.55", 0.0, "-0x1.08fbc8eaf2bb2p+0", "0x1.6b73d7d8f894ep+5"),
    ("weihua_c2_0.55", 0.1, "-0x1.08fbc8eaf2bb2p+0", "0x1.37ff2369a9209p+7"),
    ("weihua_c2_0.55", -0.3, "-0x1.08fbc8eaf2bb2p+0", "0x1.d51ce5c3a0a3ap+3"),
    ("weihua_c2_0.55", (0.1+0.3j), "-0x1.08fbc8eaf2bb2p+0", "0x1.37ff2369a9209p+7"),
    ("weihua_c2_0.55", 0.1400071426749364, "-0x1.08fbc8eaf2bb2p+0", "0x1.331b02ffae4d1p+12"),
    ("weihua_full_line", 0.0, "-0x1.32ae1068de657p+5", "0x1.71813f5210069p+5"),
    ("weihua_full_line", 0.1, "-0x1.32ae1068de657p+5", "0x1.39a682e68a19bp+7"),
    ("weihua_full_line", -0.3, "-0x1.32ae1068de657p+5", "0x1.4d51ef97219a9p+5"),
    ("weihua_full_line", (0.1+0.3j), "-0x1.32ae1068de657p+5", "0x1.39a682e68a19bp+7"),
    ("weihua_full_line", 0.1400071426749364, "-0x1.32ae1068de657p+5", "0x1.3328b03b717e0p+12"),
    ("weihua_full_line", -1.2600642840744276, "-0x1.17e178492039ep+9", "0x1.4d51ef97219a9p+5"),
    ("gkf_1.5_0.7", 0.0, "-0x1.6d593bfa2608dp+0", "0x1.6680f9d549253p+2"),
    ("gkf_1.5_0.7", 0.1, "-0x1.6d593bfa2608dp+0", "0x1.869fad78d12d0p+2"),
    ("gkf_1.5_0.7", -0.3, "-0x1.6d593bfa2608dp+0", "0x1.1b5db6036c449p+2"),
    ("gkf_1.5_0.7", (0.2+0.3j), "-0x1.6d593bfa2608dp+0", "0x1.aba016bbccf64p+2"),
    ("gkf_1.5_0.7", 1.5000765286600328, "-0x1.6d593bfa2608dp+0", "0x1.6233dd98e3567p+9"),
    ("morse_50_0.01", 0.0, "-0x1.c54ccc470f5e5p+4", "0x1.1ad7bc01366b8p+8"),
    ("morse_50_0.01", 0.1, "-0x1.c54129e26f338p+4", "0x1.1ad7bc01366b8p+8"),
    ("morse_50_0.01", -0.3, "-0x1.c56fa7f4ee1a9p+4", "0x1.1ad7bc01366b8p+8"),
    ("morse_50_0.01", (0.2+0.3j), "-0x1.c535858f40f47p+4", "0x1.1ad7bc01366b8p+8"),
    ("morse_50_0.01", 247.45049999999998, "-0x1.8000000000000p+1", "0x1.1ad7bc01366b8p+8"),
    ("morse_2_0.3", 0.0, "-0x1.8ecb5e9fb6434p+1", "0x1.9d1e43e6cc1b5p+5"),
    ("morse_2_0.3", 0.1, "-0x1.8ac7e00e8b7aep+1", "0x1.9d1e43e6cc1b5p+5"),
    ("morse_2_0.3", -0.3, "-0x1.99f0be3860edcp+1", "0x1.9d1e43e6cc1b5p+5"),
    ("morse_2_0.3", (0.2+0.3j), "-0x1.8697e24697286p+1", "0x1.9d1e43e6cc1b5p+5"),
    ("morse_2_0.3", 1.5363617738019906, "-0x1.8000000000000p+1", "0x1.cf3c00c6e94e4p+8"),
]


@pytest.mark.parametrize("name, alpha, q_min, q_max", _WIDE_EDGES)
def test_auto_grid_edges_away_from_the_desk_models_are_pinned(name, alpha, q_min, q_max):
    g = auto_grid(_WIDE_MODELS[name], alpha, 2001)
    assert (g.q_min.hex(), g.q_max.hex()) == (q_min, q_max)


def _reference_superpotential(model, q):
    """eval_superpotential's domain check and closed form as they were before
    x, x' and log psi0 shared one kernel, copied verbatim."""
    qa = np.asarray(q, dtype=float)
    if not (np.all(qa > model.q_lower) and np.all(qa < model.q_upper)):
        raise DomainViolationError(
            f"coordinate outside open domain ({model.q_lower!r}, {model.q_upper!r})"
        )
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
    return x


def _reference_log_ground_amplitude(model, q):
    """log psi0 in closed form as it was before it shared the kernel of x,
    copied verbatim."""
    p = model.params
    if model.family == HARMONIC:
        return -0.5 * q * q
    if model.family == GENERALIZED_MORSE:
        return (1.0 - np.exp(-p.c1 * q)) / p.c1 ** 2 - (p.c0 / p.c1) * q
    if model.family == WEI_HUA:
        u = p.big_c * np.exp(-p.c1 * q)
        return np.log((1.0 - u) / (1.0 - p.big_c)) / p.c2 - (p.c0 / p.c1) * q
    return np.log1p(p.c1 * q) / p.c1 ** 2 - (p.c0 / p.c1) * q


def _reference_search_functions(model, t):
    """The searches' evaluations as they were before the kernel: x and log
    psi0 from their own closed forms, each with its own exponential, on 0-d
    arrays."""
    def x_at(q):
        return float(_reference_superpotential(model, q))

    def x_and_log_amplitude(q):
        x = x_at(q)
        return x, float(_reference_log_ground_amplitude(model, np.asarray(q, dtype=float))) + t * q

    return x_at, x_and_log_amplitude


def _hex_outcome(evaluate, q):
    """The float results of evaluate(q) as hex strings, or the exception type."""
    try:
        result = evaluate(q)
    except DomainViolationError as exc:
        return type(exc)
    return tuple(v.hex() for v in result) if isinstance(result, tuple) else result.hex()


_SEARCH_MODELS = [*_DESK_MODELS.values(), make_wei_hua(0.2, 1.0, -0.5)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # far-tail overflow
@pytest.mark.parametrize("m", _SEARCH_MODELS, ids=lambda m: m.family)
def test_log_amplitude_matches_zero_dim_reference(m):
    rng = np.random.default_rng(17)
    a0, b0 = default_interval(m)
    qs = [*np.linspace(a0, b0, 401), *rng.uniform(a0, b0, 400), b0 * 1e3, 1e200]
    if math.isfinite(m.q_lower):
        # Next to the boundary log psi0 runs to -inf (a power-law zero).
        qs += [float(np.nextafter(m.q_lower, math.inf))]
        qs += [m.q_lower + 10.0 ** -k for k in range(1, 17)]
    else:
        qs += [a0 * 1e3, -1e200]
    for t in (0.0, 0.3, -1.2):
        x_at, x_and_log_amplitude = _search_functions(m, t)
        ref_x_at, ref_x_and_log_amplitude = _reference_search_functions(m, t)
        for q in map(float, qs):
            # q_lower + 1e-16 may round onto the boundary: both refuse it.
            assert _hex_outcome(x_at, q) == _hex_outcome(ref_x_at, q), (t, q)
            assert (_hex_outcome(x_and_log_amplitude, q)
                    == _hex_outcome(ref_x_and_log_amplitude, q)), (t, q)


def _search_draws(count, seed):
    """Seeded (model, alpha) pairs well beyond the desk models, with Re(alpha)
    anywhere in the admissible interval."""
    rng = np.random.default_rng(seed)
    makers = [
        lambda: make_harmonic(),
        lambda: make_generalized_morse(*sorted(rng.uniform(0.05, 3.0, 2))[::-1]),
        lambda: make_wei_hua(rng.uniform(0.05, 1.0), rng.uniform(0.3, 2.0),
                             rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.9)),
        lambda: make_kratzer_fues(rng.uniform(0.1, 0.95)),
        lambda: make_generalized_kratzer_fues(rng.uniform(0.1, 2.0), rng.uniform(0.1, 0.95)),
    ]
    draws = []
    while len(draws) < count:
        try:
            m = makers[len(draws) % len(makers)]()
        except InvalidParameterError:
            continue
        b = admissible_bound(m)
        lo = max(b.inf_re_alpha, -3.0)
        hi = min(b.sup_re_alpha, 3.0)
        t = lo + (hi - lo) * rng.uniform(0.001, 0.999)
        draws.append((m, complex(t / SQRT2, rng.uniform(-1.0, 1.0))))
    return draws


def _grid_outcome(m, alpha):
    try:
        g = auto_grid(m, alpha, 2001)
    except TruncationError as exc:
        return str(exc)
    return g.q_min.hex(), g.q_max.hex()


@pytest.mark.parametrize("b0, t", [(1e308, 1.2e308), (1.5e308, 1e308)])
def test_a_search_reaching_infinity_is_a_domain_violation(monkeypatch, b0, t):
    # Bracketing the peak doubles the interval (first case), and bisecting
    # it halves a sum (second case); near 1e308 either reaches +inf.
    monkeypatch.setattr(states, "default_interval", lambda model: (-8.0, b0))
    with pytest.raises(DomainViolationError, match="outside open domain"):
        auto_grid(make_harmonic(), t / SQRT2)
    monkeypatch.setattr(states, "_search_functions", _reference_search_functions)
    with pytest.raises(DomainViolationError, match="outside open domain"):
        auto_grid(make_harmonic(), t / SQRT2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_auto_grid_matches_zero_dim_reference_search(monkeypatch):
    draws = _search_draws(300, seed=2024)
    new = [_grid_outcome(m, alpha) for m, alpha in draws]
    monkeypatch.setattr(states, "_search_functions", _reference_search_functions)
    assert [_grid_outcome(m, alpha) for m, alpha in draws] == new


def _points_per_bisection(monkeypatch, model, alpha):
    """The coordinates each bisection of one auto_grid call evaluated, one
    list per bisection (the peak's, then each edge's)."""
    bisections = []
    bisect = states._bisect

    def recording_bisect(keep, a, b, steps):
        points = []
        bisections.append(points)

        def recorded(q):
            points.append(q)
            return keep(q)

        return bisect(recorded, a, b, steps)

    monkeypatch.setattr(states, "_bisect", recording_bisect)
    auto_grid(model, alpha, 2001)
    return bisections


@pytest.mark.parametrize("m, alpha", [
    (make_generalized_morse(1.0, 0.5), 0.1),
    *_search_draws(60, seed=91),
], ids=lambda v: getattr(v, "family", None))
def test_no_point_is_evaluated_twice_within_one_bisection(monkeypatch, m, alpha):
    # A bisection stops when its midpoint is a bracket end, whose side is
    # known, instead of evaluating that point again (once per bisection
    # before).
    bisections = _points_per_bisection(monkeypatch, m, alpha)
    assert len(bisections) == (2 if math.isfinite(m.q_lower) else 3)
    for points in bisections:
        assert len(points) > 10
        assert len(points) == len(set(points))


def _points_per_edge_search(monkeypatch, model, alpha):
    """The coordinates each edge search of one auto_grid call evaluated,
    outward steps and bisection together, one list per search."""
    searches = []
    edge_by_mass = states._edge_by_mass

    def recording_edge_by_mass(x_and_log_amplitude, *args):
        points = []
        searches.append(points)

        def recorded(q):
            points.append(q)
            return x_and_log_amplitude(q)

        return edge_by_mass(recorded, *args)

    monkeypatch.setattr(states, "_edge_by_mass", recording_edge_by_mass)
    auto_grid(model, alpha, 2001)
    return searches


@pytest.mark.parametrize("m, alpha", [
    (make_generalized_morse(1.0, 0.5), 0.1),
    *_search_draws(60, seed=91),
], ids=lambda v: getattr(v, "family", None))
def test_no_point_is_evaluated_twice_within_one_edge_search(monkeypatch, m, alpha):
    # The first bisection midpoint can round back to the outward loop's last
    # point; its excess is reused (evaluated twice in 3 of these draws before).
    searches = _points_per_edge_search(monkeypatch, m, alpha)
    assert len(searches) == (1 if math.isfinite(m.q_lower) else 2)
    for points in searches:
        assert len(points) == len(set(points))


def test_bisection_stops_before_a_bracket_end():
    # keep() holds left of 1; the bracket shrinks onto (1 - ulp, 1) and the
    # midpoint of two adjacent floats is one of them.
    seen = []

    def keep(q):
        seen.append(q)
        return q < 1.0

    a, b = states._bisect(keep, 0.0, 3.0, 200)
    assert (a, b) == (np.nextafter(1.0, 0.0), 1.0)
    assert len(seen) == len(set(seen)) and a in seen and b in seen
    # Either order: here the kept end is the right one.
    seen.clear()
    a, b = states._bisect(lambda q: not keep(q), 3.0, 0.0, 200)
    assert (a, b) == (1.0, np.nextafter(1.0, 0.0))
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize("t", [1e17 * SQRT2, -1e17 * SQRT2])
def test_edges_leave_a_peak_beyond_two_to_the_53(t):
    # q_peak + 1 rounds back to q_peak here; the first outward step scales
    # with |q_peak| instead, so each edge search moves away from the peak.
    g = auto_grid(make_harmonic(), t / SQRT2)
    assert g.q_min < t < g.q_max
    assert math.isfinite(g.q_min) and math.isfinite(g.q_max)


def test_half_line_peak_beyond_two_to_the_53_gets_a_grid():
    m = make_generalized_kratzer_fues(1e-16, 0.5)
    g = auto_grid(m)
    assert g.q_min == default_interval(m)[0]
    assert 2.0 ** 53 < g.q_max < math.inf
    # The peak, where x = 0, lies inside the grid.
    assert eval_superpotential(m, g.q_max) < 0.0
