"""Ground states, coherent states, ladder application, normalization, and
expectation values. Expected numbers come from Gaussian-moment oracles and
the closed-form wavefunctions evaluated independently here."""

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
from anhosc.numerics import SampledFunction, make_grid, solve_first_order_ode
from anhosc.models import eval_superpotential
from anhosc.states import (
    ANNIHILATION,
    CREATION,
    _log_amplitude,
    _log_ground_amplitude,
    admissible_bound,
    apply_ladder,
    auto_grid,
    coherent_state,
    default_interval,
    expectation,
    grid_fields,
    ground_state,
    is_admissible,
    l2_norm,
    ladder_values,
    normalize,
    normalized_samples,
)

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


class TestLadder:
    def test_annihilation_kills_harmonic_ground_state(self):
        m = make_harmonic()
        grid = auto_grid(m)
        psi = ground_state(m)
        resid = l2_norm(apply_ladder(m, psi, ANNIHILATION, grid))
        assert resid / l2_norm(psi.sample(grid)) < 1e-8

    def test_coherent_states_are_eigenstates(self):
        m = make_kratzer_fues(0.5)
        alpha = 0.1 + 0.2j
        grid = auto_grid(m, alpha)
        psi = coherent_state(m, alpha)
        acted = apply_ladder(m, psi, ANNIHILATION, grid)
        resid = acted.values - alpha * psi.sample(grid).values
        rel = l2_norm(SampledFunction(grid, resid)) / l2_norm(psi.sample(grid))
        assert rel < 1e-6

    def test_creation_on_harmonic_ground_state(self):
        # (-d/dq + q) e^{-q^2/2} / sqrt(2) = sqrt(2) q e^{-q^2/2}, by hand.
        m = make_harmonic()
        grid = auto_grid(m)
        created = apply_ladder(m, ground_state(m), CREATION, grid)
        q = grid.points()
        expected = SQRT2 * q * np.exp(-0.5 * q**2)
        assert np.max(np.abs(created.values - expected)) < 1e-8

    def test_unknown_operator_rejected(self):
        m = make_harmonic()
        with pytest.raises(InvalidParameterError):
            apply_ladder(m, ground_state(m), "lower", auto_grid(m))


class TestLadderValues:
    @pytest.mark.parametrize("dpsi_dtype", [float, complex])
    def test_bits_match_the_written_out_expressions(self, dpsi_dtype):
        rng = np.random.default_rng(5)
        dpsi = rng.standard_normal(2001)
        if dpsi_dtype is complex:
            dpsi = dpsi + 1j * rng.standard_normal(2001)
        dpsi[::7] = 0.0
        dpsi[3::7] = -0.0
        x_psi = rng.standard_normal(2001) + 1j * rng.standard_normal(2001)
        x_psi[::5] = complex(0.0, -0.0)
        x_psi[1::5] = 0.0
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


def _parity_cases():
    models = {
        "harmonic": make_harmonic(),
        "morse": make_generalized_morse(1.0, 0.5),
        "weihua": make_wei_hua(0.2, 1.0, 0.5),
        "weihua_full_line": make_wei_hua(1.0, 1.0, -0.5),
        "kratzer": make_kratzer_fues(0.5),
        "gkf": make_generalized_kratzer_fues(0.75, 0.5),
    }
    for name, model in models.items():
        for alpha in (0.0, 0.1, -0.3, 0.2 + 0.3j):
            if is_admissible(model, alpha):
                yield pytest.param(model, alpha, id=f"{name}-{alpha}")


class TestGridFields:
    @pytest.mark.parametrize("model, alpha", _parity_cases())
    def test_states_are_bit_equal_to_the_wavefunction_path(self, model, alpha):
        grid = auto_grid(model, alpha)
        fields = grid_fields(model, grid)
        got, norm = fields.normalized(alpha)
        ref, ref_norm = normalized_samples(coherent_state(model, alpha), grid)
        assert got.values.tobytes() == ref.values.tobytes()
        assert norm == ref_norm
        assert fields.sample(alpha).values.tobytes() == coherent_state(model, alpha).sample(grid).values.tobytes()
        if alpha != 0.0:
            return
        # alpha None is the real ground state, not the complex alpha = 0 state.
        got0, norm0 = fields.normalized()
        ref0, ref_norm0 = normalized_samples(ground_state(model), grid)
        assert got0.values.tobytes() == ref0.values.tobytes()
        assert norm0 == ref_norm0
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
        assert abs(l2_norm(psi.sample(grid)) - 1.0) < 1e-12

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
            for sample in (psi.sample, lambda g: normalized_samples(psi, g)):
                with pytest.raises(TruncationError, match="overflows float64"):
                    sample(grid)

    def test_wrong_shaped_evaluator_is_not_called_an_overflow(self):
        psi = replace(ground_state(make_harmonic()), evaluator=lambda q: np.ones(3))
        with pytest.raises(InvalidParameterError, match="expected 101 samples"):
            psi.sample(make_grid(-8.0, 8.0, 101))

    @pytest.mark.parametrize("alpha", [None, 0.0, 0.1, -0.1 + 0.2j])
    def test_samples_match_normalize_bit_for_bit(self, alpha):
        # The verification suite and the coherent table work on these samples;
        # they must equal what normalize() followed by sample() gives, also for
        # the real-valued ground state, where scaling after the complex cast
        # would round differently.
        for m in (make_harmonic(), make_wei_hua(0.2, 1.0, 0.5), make_kratzer_fues(0.5)):
            psi = ground_state(m) if alpha is None else coherent_state(m, alpha)
            grid = auto_grid(m, alpha or 0.0, n=2001)
            sampled, norm = normalized_samples(psi, grid)
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
    def test_harmonic_ground_state_moments(self):
        m = make_harmonic()
        grid = auto_grid(m)
        psi = normalize(ground_state(m), grid)
        assert abs(expectation(psi, "x", grid)) < 1e-10
        assert abs(expectation(psi, "x_squared", grid) - 0.5) < 1e-8
        assert abs(expectation(psi, "p_squared", grid) - 0.5) < 1e-8
        assert abs(expectation(psi, "x_prime", grid) - (-1.0)) < 1e-10

    def test_harmonic_coherent_position(self):
        # Oracle: |psi_alpha|^2 is a Gaussian centered at sqrt(2) alpha, so
        # <q> = sqrt(2) alpha = 1 and the superpotential x = -q averages to -1.
        m = make_harmonic()
        alpha = 1.0 / SQRT2
        grid = auto_grid(m, alpha)
        psi = normalize(coherent_state(m, alpha), grid)
        assert abs(expectation(psi, "x", grid) - (-1.0)) < 1e-8

    def test_momentum_of_complex_alpha(self):
        # <p> = sqrt(2) Im(alpha) for the harmonic coherent state.
        m = make_harmonic()
        alpha = 0.3j
        grid = auto_grid(m, alpha)
        psi = normalize(coherent_state(m, alpha), grid)
        assert abs(expectation(psi, "p", grid) - SQRT2 * 0.3) < 1e-8

    def test_unknown_observable(self):
        m = make_harmonic()
        grid = auto_grid(m)
        with pytest.raises(InvalidParameterError):
            expectation(ground_state(m), "energy", grid)


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


def _reference_log_amplitude(model, t, q):
    """_log_amplitude as it was before the searches evaluated on numpy
    scalars: the closed form on a 0-d array."""
    return float(_log_ground_amplitude(model, np.asarray(q, dtype=float))) + t * q


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
        for q in map(float, qs):
            assert (_log_amplitude(m, t, q).hex()
                    == _reference_log_amplitude(m, t, q).hex()), (t, q)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_auto_grid_matches_zero_dim_reference_search(monkeypatch):
    draws = _search_draws(300, seed=2024)
    new = [_grid_outcome(m, alpha) for m, alpha in draws]
    monkeypatch.setattr(states, "_log_amplitude", _reference_log_amplitude)
    assert [_grid_outcome(m, alpha) for m, alpha in draws] == new
