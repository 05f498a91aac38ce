"""Ground states, coherent states, ladder operators on samples,
normalization, and expectation values. Expected numbers come from
Gaussian-moment oracles, closed-form norms and the closed-form wavefunctions
evaluated independently here."""

import dataclasses
import decimal
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from decimal import Decimal

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
    GENERALIZED_MORSE,
    HARMONIC,
    WEI_HUA,
    family_of,
    make_generalized_kratzer_fues,
    make_generalized_morse,
    make_harmonic,
    make_kratzer_fues,
    make_wei_hua,
)
from anhosc.numerics import differentiate_samples, integrate_samples, make_grid
from anhosc.models import eval_superpotential, kernel
from anhosc.states import (
    ANNIHILATION,
    CREATION,
    _MASS_TOL,
    _search_functions,
    admissible_bound,
    auto_grid,
    coherent_state,
    grid_fields,
    ground_state,
    is_admissible,
    l2_norm_of,
    ladder_values,
    normalize,
)
from anhosc.verify import verify_coherent

SQRT2 = math.sqrt(2.0)


class TestRecord:
    def test_holds_model_alpha_and_norm_only(self):
        m = make_harmonic()
        grid = make_grid(-8.0, 8.0, 401)
        assert ground_state(m) == states.WaveFunction(m, None)
        assert coherent_state(m, 1) == states.WaveFunction(m, 1.0 + 0.0j)
        assert type(coherent_state(m, 1).alpha) is complex
        for psi in (ground_state(m), coherent_state(m, 0.1), normalize(ground_state(m), grid)):
            assert [f.name for f in dataclasses.fields(psi)] == ["model", "alpha", "norm"]
            assert not any(callable(getattr(psi, f.name)) for f in dataclasses.fields(psi))

    @pytest.mark.parametrize("alpha", [None, 0.1 - 0.2j])
    def test_evaluator_agrees_with_the_samples(self, alpha):
        m = make_wei_hua(0.2, 1.0, 0.5)
        grid = auto_grid(m, alpha or 0.0, n=501)
        psi = ground_state(m) if alpha is None else coherent_state(m, alpha)
        for state in (psi, normalize(psi, grid)):
            values = state.evaluator(grid.points())
            assert np.iscomplexobj(values) == (alpha is not None)
            assert np.asarray(values, dtype=complex).tobytes() == state.sample(grid).values.tobytes()
        with pytest.raises(DomainViolationError):
            psi.evaluator(m.q_lower)


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
        # psi0 must equal exp(integral of x from 0 to q) up to a constant
        # factor; the oracle integrates the kernel's x by Simpson over each
        # prefix [0, q_j] of the grid with an odd point count.
        for m in (
            make_generalized_morse(1.0, 0.5),
            make_wei_hua(0.2, 1.0, 0.5),
            make_kratzer_fues(0.5),
        ):
            grid = make_grid(0.0, 12.0, 2401)
            q = grid.points()
            x = kernel(m)(q)[0]
            ends = range(4, grid.n, 2)
            numeric = np.exp([integrate_samples(make_grid(0.0, q[j], j + 1), x[:j + 1])
                              for j in ends])
            closed = ground_state(m).evaluator(q[ends.start::2]).real
            ratio = numeric / closed
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

    _NON_FINITE = pytest.mark.parametrize("alpha", [
        complex(value, 0.0) if real else complex(0.1, value)
        for real in (True, False) for value in (math.nan, math.inf, -math.inf)])
    _MODELS = pytest.mark.parametrize(
        "model", [make_harmonic(), make_generalized_morse(1.0, 0.5)], ids=lambda m: m.family)

    @_NON_FINITE
    @_MODELS
    def test_non_finite_alpha_is_not_admissible(self, model, alpha):
        # A sweep that filters with is_admissible skips what
        # require_admissible refuses, whichever part is non-finite.
        assert not is_admissible(model, alpha)

    @_NON_FINITE
    @_MODELS
    def test_non_finite_alpha_is_refused_by_name(self, model, alpha):
        # Named before the bound test, which a NaN real part fails with a
        # misleading message and a non-finite imaginary part passes.
        grid = make_grid(-8.0, 8.0, 401)
        message = f"^alpha must be finite, got {re.escape(repr(alpha))}$"
        for call in (lambda: coherent_state(model, alpha), lambda: auto_grid(model, alpha),
                     lambda: verify_coherent(model, alpha, grid)):
            with pytest.raises(InadmissibleAlphaError, match=message):
                call()


def _ladder_inputs(model, alpha, grid):
    """psi (psi0 for alpha None), psi' and x psi on a grid, from the record."""
    fields = grid_fields(model, grid)
    sampled = fields.sample(alpha)
    return (sampled.values, differentiate_samples(grid, sampled.values, 1),
            fields.x * sampled.values)


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
        ref0_values = ref0.sample(grid).values
        assert got0.values.dtype == float and not ref0_values.imag.any()
        assert got0.values.tobytes() == ref0_values.real.tobytes()
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

    @pytest.mark.parametrize("q_min, message", [
        (-300.0, "ground state overflows float64 on the grid; narrow the grid"),
        (-1000.0, "superpotential overflows float64 on the grid; narrow the grid"),
    ])
    def test_a_ground_state_overflow_names_the_grid(self, q_min, message):
        # psi0 of this full-line Wei Hua model grows as exp(c0 |q| / c1) to
        # the left: at -300 its square overflows; at -1000 the kernel's
        # exp(-c1 q) does, x' is inf / inf, and the builder refuses the grid.
        m = make_wei_hua(5.0, 1.0, -0.3)
        with pytest.raises(TruncationError) as refused:
            grid_fields(m, make_grid(q_min, 10.0, 1001)).normalized()
        assert str(refused.value) == message

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model, q_min, q_max", [
        (make_harmonic(), -1e160, 1e160),  # x finite, x^2 not
        (make_generalized_morse(1.0, 0.5), -800.0, 40.0),  # x = inf far left
        (make_generalized_morse(5.0, 2.0), -177.5, 20.0),  # x and x^2 finite, x'^2 not
        (make_wei_hua(5.0, 1.0, -0.3), -1000.0, 10.0),  # x' = inf / inf = NaN
    ], ids=["harmonic", "morse", "morse-xp-squared", "weihua"])
    def test_a_superpotential_float64_cannot_square_is_refused(self, model, q_min, q_max):
        with pytest.raises(TruncationError) as refused:
            grid_fields(model, make_grid(q_min, q_max, 801))
        assert str(refused.value) == (
            "superpotential overflows float64 on the grid; narrow the grid")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model", [
        make_harmonic(), make_generalized_morse(1.0, 0.5), make_wei_hua(0.2, 1.0, 0.5),
        make_kratzer_fues(0.5), make_generalized_kratzer_fues(0.75, 0.5),
    ], ids=lambda m: m.family)
    def test_the_desk_models_auto_grids_are_accepted(self, model):
        for alpha in (0.0, 0.1):
            fields = grid_fields(model, auto_grid(model, alpha=alpha))
            for array in (fields.x, fields.xp):
                assert np.isfinite(np.square(array)).all()


@pytest.mark.filterwarnings("error")
def test_an_l2_norm_beyond_float64_is_inf_without_a_warning():
    # The squares are finite, their Simpson sum is not: a check's residual
    # of that size fails its check.
    grid = make_grid(0.0, 1.0, 101)
    assert l2_norm_of(grid, np.full(101, 1.3e154)) == math.inf


class TestNormalize:
    def test_harmonic_norm_is_pi_quarter(self):
        # Oracle: integral of e^{-q^2} is sqrt(pi).
        m = make_harmonic()
        grid = make_grid(-8.0, 8.0, 4001)
        psi = normalize(ground_state(m), grid)
        assert abs(psi.norm - math.pi**0.25) < 1e-8
        assert abs(l2_norm_of(grid, psi.sample(grid).values) - 1.0) < 1e-12

    @pytest.mark.parametrize("alpha", [None, 0.1 + 0.2j])
    def test_idempotent(self, alpha):
        m = make_harmonic()
        grid = make_grid(-8.0, 8.0, 4001)
        psi = ground_state(m) if alpha is None else coherent_state(m, alpha)
        once = normalize(psi, grid)
        twice = normalize(once, grid)
        assert twice == once
        assert twice.sample(grid).values.tobytes() == once.sample(grid).values.tobytes()
        q = grid.points()
        assert twice.evaluator(q).tobytes() == once.evaluator(q).tobytes()

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

    @pytest.mark.parametrize("alpha", [-20.0, 19.0, -20.0 + 3.0j, 18.82])
    def test_a_finite_state_whose_norm_overflows_is_a_truncation_error(self, alpha):
        # The samples are finite (peak exp(t^2/2), t = sqrt(2) Re(alpha)), but
        # |psi|^2 overflows from Re(alpha) ~ 18.84, and at 18.82 the squares
        # are finite while their Simpson sum is not.
        m = make_harmonic()
        grid = auto_grid(m, alpha, n=1001)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for normalized in (lambda: normalize(coherent_state(m, alpha), grid),
                               lambda: grid_fields(m, grid).normalized(alpha)):
                with pytest.raises(TruncationError, match="overflows float64"):
                    normalized()

    def test_wrong_shaped_fields_are_not_called_an_overflow(self):
        m = make_harmonic()
        fields = replace(grid_fields(m, make_grid(-8.0, 8.0, 101)),
                         q=np.ones(3), log_psi0=np.zeros(3))
        for alpha in (None, 0.1):
            with pytest.raises(InvalidParameterError, match="expected 101 samples"):
                fields.sample(alpha)

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
            expected = scaled.sample(grid).values
            if alpha is None:  # the float64 ground state: the real parts
                assert not expected.imag.any()
                expected = expected.real
            assert sampled.values.dtype == expected.dtype
            assert sampled.values.tobytes() == expected.tobytes()

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
# model sit at 0.99 of its admissibility bounds (sqrt(2) Re(alpha)); the
# q_max of the two half-line Wei Hua and the gkf rows there were re-recorded
# (10 to 20 ulps) when the edge search came to bisect its last bracket.
_WIDE_EDGES = [
    ("kratzer_0.6", 0.0, "-0x1.aa3d70a3d70a4p+0", "0x1.acfc6fbb062c4p+3"),
    ("kratzer_0.6", 0.1, "-0x1.aa3d70a3d70a4p+0", "0x1.f743e75ac0a72p+3"),
    ("kratzer_0.6", -0.3, "-0x1.aa3d70a3d70a4p+0", "0x1.22b3bb18a09afp+3"),
    ("kratzer_0.6", (0.2+0.3j), "-0x1.aa3d70a3d70a4p+0", "0x1.2e2c9dc1e5824p+4"),
    ("kratzer_0.6", 0.7467047609329942, "-0x1.aa3d70a3d70a4p+0", "0x1.7b3672a79338ep+10"),
    ("kratzer_0.9", 0.0, "-0x1.1c28f5c28f5c3p+0", "0x1.caed2eabaed17p+5"),
    ("kratzer_0.9", 0.1, "-0x1.1c28f5c28f5c3p+0", "0x1.6028d44905355p+7"),
    ("kratzer_0.9", -0.3, "-0x1.1c28f5c28f5c3p+0", "0x1.24e2acdac5ecdp+4"),
    ("kratzer_0.9", (0.1+0.3j), "-0x1.1c28f5c28f5c3p+0", "0x1.6028d44905355p+7"),
    ("kratzer_0.9", 0.14778531726798838, "-0x1.1c28f5c28f5c3p+0", "0x1.6d8e66e26fde2p+12"),
    ("weihua_c2_0.3", 0.0, "-0x1.772054841592ep+0", "0x1.6c31fe76858e8p+5"),
    ("weihua_c2_0.3", 0.1, "-0x1.772054841592ep+0", "0x1.3834e7454f07bp+7"),
    ("weihua_c2_0.3", -0.3, "-0x1.772054841592ep+0", "0x1.d70a933e70634p+3"),
    ("weihua_c2_0.3", (0.1+0.3j), "-0x1.772054841592ep+0", "0x1.3834e7454f07bp+7"),
    ("weihua_c2_0.3", 0.1400071426749364, "-0x1.772054841592ep+0", "0x1.331cc5e7261dfp+12"),
    ("weihua_c2_0.55", 0.0, "-0x1.08fbc8eaf2bb2p+0", "0x1.6b73d7d8f894dp+5"),
    ("weihua_c2_0.55", 0.1, "-0x1.08fbc8eaf2bb2p+0", "0x1.37ff2369a9209p+7"),
    ("weihua_c2_0.55", -0.3, "-0x1.08fbc8eaf2bb2p+0", "0x1.d51ce5c3a0a3ap+3"),
    ("weihua_c2_0.55", (0.1+0.3j), "-0x1.08fbc8eaf2bb2p+0", "0x1.37ff2369a9209p+7"),
    ("weihua_c2_0.55", 0.1400071426749364, "-0x1.08fbc8eaf2bb2p+0", "0x1.331b02ffae4c7p+12"),
    ("weihua_full_line", 0.0, "-0x1.32ae1068de657p+5", "0x1.71813f5210069p+5"),
    ("weihua_full_line", 0.1, "-0x1.32ae1068de657p+5", "0x1.39a682e68a19bp+7"),
    ("weihua_full_line", -0.3, "-0x1.32ae1068de657p+5", "0x1.4d51ef97219a9p+5"),
    ("weihua_full_line", (0.1+0.3j), "-0x1.32ae1068de657p+5", "0x1.39a682e68a19bp+7"),
    ("weihua_full_line", 0.1400071426749364, "-0x1.32ae1068de657p+5", "0x1.3328b03b717cbp+12"),
    ("weihua_full_line", -1.2600642840744276, "-0x1.17e178492039ep+9", "0x1.4d51ef97219a9p+5"),
    ("gkf_1.5_0.7", 0.0, "-0x1.6d593bfa2608dp+0", "0x1.6680f9d549253p+2"),
    ("gkf_1.5_0.7", 0.1, "-0x1.6d593bfa2608dp+0", "0x1.869fad78d12d0p+2"),
    ("gkf_1.5_0.7", -0.3, "-0x1.6d593bfa2608dp+0", "0x1.1b5db6036c449p+2"),
    ("gkf_1.5_0.7", (0.2+0.3j), "-0x1.6d593bfa2608dp+0", "0x1.aba016bbccf64p+2"),
    ("gkf_1.5_0.7", 1.5000765286600328, "-0x1.6d593bfa2608dp+0", "0x1.6233dd98e3567p+9"),
    ("morse_50_0.01", 0.0, "-0x1.c54ccc470f5e5p+4", "0x1.1ad7bc01366b8p+8"),
    ("morse_50_0.01", 0.1, "-0x1.c54129e26f338p+4", "0x1.1ad7bc01366b8p+8"),
    ("morse_50_0.01", -0.3, "-0x1.c56fa7f4ee1a0p+4", "0x1.1ad7bc01366b8p+8"),
    ("morse_50_0.01", (0.2+0.3j), "-0x1.c535858f40f40p+4", "0x1.1ad7bc01366b8p+8"),
    ("morse_50_0.01", 247.45049999999998, "-0x1.8000000000000p+1", "0x1.1ad7bc01366b8p+8"),
    ("morse_2_0.3", 0.0, "-0x1.8ecb5e9fb6434p+1", "0x1.9d1e43e6cc1b5p+5"),
    ("morse_2_0.3", 0.1, "-0x1.8ac7e00e8b7aep+1", "0x1.9d1e43e6cc1b5p+5"),
    ("morse_2_0.3", -0.3, "-0x1.99f0be3860edbp+1", "0x1.9d1e43e6cc1b5p+5"),
    ("morse_2_0.3", (0.2+0.3j), "-0x1.8697e24697286p+1", "0x1.9d1e43e6cc1b5p+5"),
    ("morse_2_0.3", 1.5363617738019906, "-0x1.8000000000000p+1", "0x1.cf3c00c6e94eep+8"),
]


@pytest.mark.parametrize("name, alpha, q_min, q_max", _WIDE_EDGES)
def test_auto_grid_edges_away_from_the_desk_models_are_pinned(name, alpha, q_min, q_max):
    g = auto_grid(_WIDE_MODELS[name], alpha, 2001)
    assert (g.q_min.hex(), g.q_max.hex()) == (q_min, q_max)


_SEARCH_MODELS = [*_DESK_MODELS.values(), make_wei_hua(0.2, 1.0, -0.5)]


def _search_inputs(m):
    """Coordinates across the automatic grid, beyond it where the kernel
    overflows, and next to a finite boundary."""
    rng = np.random.default_rng(17)
    grid = auto_grid(m)
    a0, b0 = grid.q_min, grid.q_max
    qs = [*np.linspace(a0, b0, 201), *rng.uniform(a0, b0, 200), b0 * 1e3, 1e200]
    if math.isfinite(m.q_lower):
        # Next to the boundary log psi0 runs to -inf (a power-law zero).
        qs += [np.nextafter(m.q_lower, math.inf), *(m.q_lower + 10.0 ** -k for k in range(1, 16))]
    else:
        qs += [a0 * 1e3, -1e200]
    return [q for q in map(float, qs) if m.q_lower < q]


def _hex_and_warnings(call):
    """The float results of call() as hex strings, and the warning categories."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return [float(v).hex() for v in result], {w.category for w in caught}


@pytest.mark.parametrize("m", _SEARCH_MODELS, ids=lambda m: m.family)
def test_kernel_on_a_numpy_scalar_gives_the_bits_of_a_zero_dim_array(m):
    # auto_grid evaluates x' and log psi0 at the peak on np.float64, at a
    # third of a 0-d array's call overhead, for the same bits and warning
    # categories. The searches' x and log |psi_alpha|, on Python floats, are
    # that call's x and log psi0 + t q, out to where the kernel overflows.
    fields = kernel(m)
    searches = {t: _search_functions(m, t) for t in (0.0, 0.3, -1.2)}
    for q in _search_inputs(m):
        scalar = _hex_and_warnings(lambda: fields(np.float64(q), xp=True, log_psi0=True))
        zero_dim = _hex_and_warnings(lambda: fields(np.array(q), xp=True, log_psi0=True))
        assert scalar == zero_dim, q
        x, _, log_psi0 = scalar[0]
        for t, x_and_log_amplitude in searches.items():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                expected = [x, (float.fromhex(log_psi0) + t * q).hex()]
                assert [v.hex() for v in x_and_log_amplitude(q)] == expected, (t, q)


@pytest.mark.parametrize("m", _SEARCH_MODELS, ids=lambda m: m.family)
def test_the_search_on_python_floats_has_the_bits_of_the_array_kernel(m):
    # Seeded Re(alpha) and points near the peak, in the mid tail and in the
    # far tail on either side, inside the domain.
    rng = np.random.default_rng([18, len(m.family)])
    b = admissible_bound(m)
    lo, hi = max(b.inf_re_alpha, -3.0), min(b.sup_re_alpha, 3.0)
    fields = kernel(m)
    for t in lo + (hi - lo) * rng.uniform(0.01, 0.99, 4):
        t = float(t)
        x_and_log_amplitude = _search_functions(m, t)
        q_peak = states._peak(m, t)
        offsets = [rng.uniform(-1e-3, 1e-3), rng.uniform(1.0, 10.0), rng.uniform(10.0, 1e3),
                   10.0 ** rng.uniform(3.0, 300.0)]
        for q in [q_peak, *(q_peak + sign * d for d in offsets for sign in (-1.0, 1.0))]:
            if not m.q_lower < q < m.q_upper:
                continue
            with np.errstate(all="ignore"):
                x, _, log_psi0 = fields(np.array([q]), log_psi0=True)
                expected = [x[0], log_psi0[0] + t * q]
                got = x_and_log_amplitude(q)
            assert all(type(v) is float for v in got)
            assert np.array(got).tobytes() == np.array(expected).tobytes(), (t, q)


def test_a_search_point_python_refuses_gets_numpy_s_value():
    # Next to the pole 1 - C exp(-c1 q) rounds to 0: Python raises on the
    # division where numpy returns inf, and the point is evaluated again on
    # np.float64.
    m = make_wei_hua(0.2, 1.5, 0.3)
    q = float(np.nextafter(m.q_lower, math.inf))
    with pytest.raises(ZeroDivisionError):
        kernel(m)(q, log_psi0=True)
    with np.errstate(all="ignore"):
        x, _, log_psi0 = kernel(m)(np.array([q]), log_psi0=True)
        got = _search_functions(m, 0.1)(q)
    assert got == (math.inf, float(log_psi0[0]) + 0.1 * q) and x[0] == math.inf


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", [1e154, 1e200, 1e308])
def test_a_peak_beyond_float64_is_an_overflow(alpha):
    # The harmonic peak is at sqrt(2) alpha, where q * q overflows and log
    # |psi| is NaN: refused before any edge search, without a numpy warning
    # (it said "tail does not decay", or "outside open domain" once the
    # outward search reached +inf).
    with pytest.raises(TruncationError) as caught:
        auto_grid(make_harmonic(), alpha)
    assert str(caught.value) == "state overflows float64 on the grid; reduce |Re(alpha)|"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c0", [1e-155, 1e-200, 1e-300])
def test_a_peak_whose_curvature_underflows_is_an_overflow(c0):
    # x' at the gkf peak, near 2 c1 / c0, underflows to -0.0 and leaves no
    # Laplace mass estimate (a ZeroDivisionError before); the refusal is the
    # one c0 = 1e-154 gets from its overflowing mass.
    m = make_generalized_kratzer_fues(c0, 0.5)
    with np.errstate(over="ignore"):
        assert kernel(m)(np.float64(states._peak(m, 0.0)), x=False, xp=True)[1] == 0.0
    with pytest.raises(TruncationError) as caught:
        auto_grid(m)
    assert str(caught.value) == "state overflows float64 on the grid; reduce |Re(alpha)|"


def _points_per_bisection(monkeypatch, model, alpha):
    """The coordinates each bisection of one auto_grid call evaluated, one
    list per bisection (one per edge search), each with whether the envelope
    decided it: whether the stop test holds at its last rejected end."""
    bisections = []
    bisect = states._bisect

    def recording_bisect(keep, a, b, steps, decided):
        points = []

        def recorded(q):
            points.append(q)
            return keep(q)

        bracket = bisect(recorded, a, b, steps, decided)
        bisections.append((points, decided(bracket[1])))
        return bracket

    monkeypatch.setattr(states, "_bisect", recording_bisect)
    auto_grid(model, alpha, 2001)
    return bisections


@pytest.mark.parametrize("m, alpha", [
    (make_generalized_morse(1.0, 0.5), 0.1),
    *_search_draws(60, seed=91),
    (make_harmonic(), 5.0),
], ids=lambda v: getattr(v, "family", None))
def test_no_point_is_evaluated_twice_within_one_bisection(monkeypatch, m, alpha):
    # A bisection stops when its midpoint is a bracket end, whose side is
    # known, instead of evaluating that point again (once per bisection
    # before). One the envelope decides stops after one to three points; every
    # other one runs on until its bracket stops shrinking.
    bisections = _points_per_bisection(monkeypatch, m, alpha)
    assert len(bisections) == (1 if math.isfinite(m.q_lower) else 2)
    for points, decided in bisections:
        assert len(points) == len(set(points))
        if not decided:
            assert len(points) > 10
    # No envelope decides a half-line search, nor the right edge of harmonic
    # alpha = 5, whose peak 5 sqrt(2) lies within 1 of the envelope edge 8.
    if math.isfinite(m.q_lower) or (m.family == HARMONIC and alpha == 5.0):
        assert not bisections[0][1]


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
    # The bisection brackets the outward loop's last step, so its midpoints
    # lie strictly between points the loop evaluated (a bracket from the
    # peak re-evaluated the loop's last point in 3 of these draws).
    searches = _points_per_edge_search(monkeypatch, m, alpha)
    assert len(searches) == (1 if math.isfinite(m.q_lower) else 2)
    for points in searches:
        assert len(points) == len(set(points))


def _search_without_envelope(monkeypatch):
    """Pass no envelope to auto_grid's edge searches, so that every bisection
    runs until its bracket stops shrinking."""
    edge_by_mass = states._edge_by_mass

    def full_search(x_and_log_amplitude, t, q_peak, start, log_budget, envelope):
        no_envelope = -math.inf if start > q_peak else math.inf
        return edge_by_mass(x_and_log_amplitude, t, q_peak, start, log_budget, no_envelope)

    monkeypatch.setattr(states, "_edge_by_mass", full_search)


def _edges_or_refusals(draws):
    """float.hex of each draw's auto_grid edges, or its TruncationError."""
    edges = []
    for m, alpha in draws:
        try:
            g = auto_grid(m, alpha, 2001)
        except TruncationError as exc:
            edges.append(str(exc))
        else:
            edges.append((g.q_min.hex(), g.q_max.hex()))
    return edges


def test_an_edge_the_envelope_decides_is_the_full_searchs_edge(monkeypatch):
    # A full-line search stops once its rejected end gives an edge within
    # the envelope; the grid then takes the envelope edge, as it does from
    # the edge of the full bisection, bit for bit.
    draws = _search_draws(2000, seed=2024)
    stopped = _edges_or_refusals(draws)
    with monkeypatch.context() as patch:
        _search_without_envelope(patch)
        assert _edges_or_refusals(draws) == stopped
    # Not vacuous: most full-line grids take an envelope edge.
    on_envelope = 0
    for (m, _), edges in zip(draws, stopped):
        if not math.isfinite(m.q_lower) and isinstance(edges, tuple):
            a0, b0 = family_of(m).envelope(m.params)
            on_envelope += (edges[0] == a0.hex()) + (edges[1] == b0.hex())
    assert on_envelope > 1000


# Points each edge search of auto_grid evaluates, right edge first, with and
# without the envelope passed. A search the envelope decides stops after 2
# to 4 points; the others evaluate as many as a full search, as before the
# envelope was passed.
_SEARCH_COUNTS = [
    ("harmonic", 0.1, [3, 3], [54, 55]),
    ("harmonic", 5.0, [55, 2], [55, 56]),
    ("harmonic", -5.0, [2, 55], [56, 55]),
    ("morse", 0.1, [3, 4], [54, 54]),
    ("morse", -2.0, [2, 53], [57, 53]),
    ("morse", (0.2+0.3j), [54, 4], [54, 54]),
    ("weihua_full_line", 0.1, [55, 2], [55, 58]),
    ("weihua", 0.1, [61], [61]),
    ("kratzer", 0.1, [57], [57]),
    ("gkf", 0.1, [57], [57]),
]


@pytest.mark.parametrize("name, alpha, counts, full_counts", _SEARCH_COUNTS)
def test_edge_search_evaluation_counts_are_pinned(monkeypatch, name, alpha, counts, full_counts):
    m = {**_DESK_MODELS, **_WIDE_MODELS}[name]
    with monkeypatch.context() as patch:
        assert [len(p) for p in _points_per_edge_search(patch, m, alpha)] == counts
    _search_without_envelope(monkeypatch)
    assert [len(p) for p in _points_per_edge_search(monkeypatch, m, alpha)] == full_counts


def test_bisection_stops_before_a_bracket_end():
    # keep() holds left of 1; the bracket shrinks onto (1 - ulp, 1) and the
    # midpoint of two adjacent floats is one of them.
    seen = []

    def keep(q):
        seen.append(q)
        return q < 1.0

    def undecided(b):
        return False

    a, b = states._bisect(keep, 0.0, 3.0, 200, undecided)
    assert (a, b) == (np.nextafter(1.0, 0.0), 1.0)
    assert len(seen) == len(set(seen)) and a in seen and b in seen
    # Either order: here the kept end is the right one.
    seen.clear()
    a, b = states._bisect(lambda q: not keep(q), 3.0, 0.0, 200, undecided)
    assert (a, b) == (1.0, np.nextafter(1.0, 0.0))
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize("kept", ["left", "right"])
def test_a_decided_bisection_bounds_the_full_one(kept):
    # keep() changes sign 41 times in the bracket, so no stop test can
    # foresee where the bisection ends. Wherever decided() stops it, its
    # bracket holds the full bisection's: the stopped rejected end bounds
    # the full one, which makes the edge searches' stop exact.
    end = math.sqrt(41.0 * math.pi)  # cos(end^2) = -1: a rejected end
    points = []

    def keep(q):
        points.append(q)
        return math.cos((q if kept == "left" else end - q) ** 2) > 0.0

    a, b = (0.0, end) if kept == "left" else (end, 0.0)
    full = states._bisect(keep, a, b, 200, lambda rejected: False)
    full_count = len(points)
    sign = 1.0 if kept == "left" else -1.0  # rejected ends move by -sign
    early = []
    for bound in np.linspace(0.0, end, 38)[1:-1]:

        def decided(rejected):
            return sign * rejected <= sign * bound

        points.clear()
        stopped = states._bisect(keep, a, b, 200, decided)
        assert sign * stopped[0] <= sign * full[0] < sign * full[1] <= sign * stopped[1]
        if decided(full[1]):
            assert decided(stopped[1])
            early.append(len(points) < full_count)
        else:
            assert stopped == full
    assert len(early) > 5 and all(early)


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
    assert g.q_min == states._pole_edge(m)
    assert 2.0 ** 53 < g.q_max < math.inf
    # The peak, where x = 0, lies inside the grid.
    assert eval_superpotential(m, g.q_max) < 0.0


def _decimal_peak(model, t):
    """The root of x(q) = -t to 60 digits, with the model's float constants
    taken as exact, from stdlib decimal; asserted to be a root."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        p, t = model.params, Decimal(t)
        if model.family == HARMONIC:
            return t
        c0, c1 = Decimal(p.c0), Decimal(p.c1)
        k = c0 / c1 - t
        if model.family == GENERALIZED_MORSE:
            q = -(c1 * k).ln() / c1
            x = ((-c1 * q).exp() - c0) / c1
        elif model.family == WEI_HUA:
            c2, big_c = Decimal(p.c2), Decimal(p.big_c)
            r = k * c2 / c1
            q = (big_c * (1 + r) / r).ln() / c1
            ce = big_c * (-c1 * q).exp()
            x = c1 / c2 * ce / (1 - ce) - c0 / c1
        else:
            q = (1 / (c1 * k) - 1) / c1
            x = 1 / (c1 * (c1 * q + 1)) - c0 / c1
        assert abs(x + t) <= Decimal("1e-45") * (abs(t) + c0 / c1)
        return q


def _peak_error_ulps(model, t):
    """|q - root| in ulps of max(|root|, 1) for the closed-form peak, or the
    TruncationError message."""
    try:
        q = states._peak(model, t)
    except TruncationError as exc:
        return str(exc)
    root = _decimal_peak(model, t)
    return float(abs(Decimal(q) - root)) / math.ulp(max(abs(float(root)), 1.0))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_closed_form_peak_is_a_root(seed):
    # Against the 60-digit root of x(q) = -t; the few draws whose peak
    # auto_grid refuses are left out.
    closed = [error for m, alpha in _search_draws(3000, seed=seed)
              if not isinstance(error := _peak_error_ulps(m, SQRT2 * alpha.real), str)]
    assert len(closed) > 2900
    assert max(closed) <= 256.0


# Models whose admissibility bounds c0/c1 and c1/c2 + c0/c1 are exact in
# float64, so that k = c0/c1 - t is exact for the closed form too.
_EXACT_BOUND_MODELS = [*(m for m in _DESK_MODELS.values() if m.family != HARMONIC),
                       make_wei_hua(0.25, 1.0, -0.5)]


def _near_bound_cases(models):
    """(model, alpha) at the admissibility bounds of each model, none of them
    harmonic: its only bound is +inf, and its largest peaks are covered by
    the beyond-2^53 and reaching-infinity tests above."""
    cases = []
    for m in models:
        b = admissible_bound(m)
        ts = [np.nextafter(b.sup_re_alpha, -math.inf), b.sup_re_alpha * (1.0 - 1e-12)]
        if math.isfinite(b.inf_re_alpha):
            ts.append(np.nextafter(b.inf_re_alpha, math.inf))
        if math.isfinite(m.q_lower):
            ts.append(-1e10)
        for t in ts:
            # The alpha nearest t / sqrt(2) whose sqrt(2) Re(alpha) is admissible.
            alpha = float(t) / SQRT2
            while not is_admissible(m, alpha):
                alpha = float(np.nextafter(alpha, -t))
            cases.append((m, alpha))
    return cases


@pytest.mark.parametrize("m, alpha", _near_bound_cases(_EXACT_BOUND_MODELS),
                         ids=lambda v: getattr(v, "family", None))
def test_closed_form_peak_is_a_root_up_to_the_bounds(m, alpha):
    # k is exact here, so the closed form keeps its accuracy up to the last
    # float inside each bound. On the full line, 1 + r comes from the
    # distance to the lower bound, which cannot cancel to zero.
    error = _peak_error_ulps(m, SQRT2 * alpha)
    if isinstance(error, str):
        assert alpha == -1e10 / SQRT2 and "pole offset" in error
    else:
        assert error <= 256.0


@pytest.mark.parametrize("c0, c1, c2", [(0.2, 1.0, -0.5), (0.3, 1.3, -0.7)])
def test_full_line_wei_hua_peak_is_finite_up_to_the_lower_bound(c0, c1, c2):
    # At the last float above the lower bound, 1 + r = (c2/c1)(inf_re_alpha
    # - t) stays positive; formed as 1 + r it cancels to 0 at (0.3, 1.3, -0.7).
    m = make_wei_hua(c0, c1, c2)
    t = float(np.nextafter(admissible_bound(m).inf_re_alpha, math.inf))
    assert -math.inf < states._peak(m, t) < states._peak(m, 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m, alpha", _near_bound_cases([
    *_EXACT_BOUND_MODELS, *_WIDE_MODELS.values(),
    # k = c0/c1 - t and r = k c2/c1 underflow to zero: no float peak.
    make_generalized_kratzer_fues(5e-324, 0.5), make_wei_hua(1e-320, 1.0, 0.5),
]), ids=lambda v: getattr(v, "family", None))
def test_auto_grid_near_the_admissibility_bounds(m, alpha):
    # A grid around the true peak, or a TruncationError; never a grid that
    # misses the peak, nor a ValueError, ZeroDivisionError or OverflowError
    # of the closed form.
    try:
        g = auto_grid(m, alpha, 2001)
    except TruncationError:
        return
    assert Decimal(g.q_min) < _decimal_peak(m, SQRT2 * alpha) < Decimal(g.q_max)
