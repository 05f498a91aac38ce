"""Constructor validation, derived constants, the reduction identities
between generalized and standard families, and the family records:
envelopes and CLI spellings."""

import math
from dataclasses import replace

import numpy as np
import pytest

from anhosc.cli import _build_model, build_parser
from anhosc.errors import InvalidParameterError
from anhosc.families import (
    FAMILIES,
    GENERALIZED_KRATZER_FUES,
    GENERALIZED_MORSE,
    HARMONIC,
    KRATZER_FUES,
    WEI_HUA,
    make_generalized_kratzer_fues,
    make_generalized_morse,
    make_harmonic,
    make_kratzer_fues,
    make_wei_hua,
)
from anhosc.models import (
    closed_form_potential,
    eval_superpotential,
    eval_superpotential_derivative,
)
from anhosc.states import auto_grid, ground_state


class TestHarmonic:
    def test_basic(self):
        m = make_harmonic()
        assert eval_superpotential(m, 0.0) == 0.0
        assert m.e0 == 0.5
        q = np.linspace(-5, 5, 41)
        np.testing.assert_allclose(closed_form_potential(m, q), 0.5 * (q**2 - 1))


class TestGeneralizedMorse:
    def test_derived_constants(self):
        m = make_generalized_morse(1.0, 0.5)
        assert m.params.c0 == 0.5
        assert m.params.c1 == 1.0

    def test_rejects_nonpositive_anharmonicity(self):
        with pytest.raises(InvalidParameterError):
            make_generalized_morse(1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            make_generalized_morse(1.0, -0.5)

    def test_rejects_s_not_exceeding_xe(self):
        with pytest.raises(InvalidParameterError):
            make_generalized_morse(1.0, 2.0)
        with pytest.raises(InvalidParameterError):
            make_generalized_morse(0.5, 0.5)


class TestWeiHua:
    def test_derived_constants(self):
        m = make_wei_hua(0.2, 1.0, 0.5)
        p = m.params
        assert abs(p.w - 1.4) < 1e-15
        assert abs(p.b - 2.0 / 3.0) < 1e-15
        assert abs(p.big_c - 1.0 / 3.0) < 1e-15
        # c = C / (B/W - C) with B/W - C = 1/7.
        assert abs(p.c - 7.0 / 3.0) < 1e-14
        assert abs(p.q0 - math.log(1.0 / 7.0)) < 1e-14

    def test_domain_follows_pole(self):
        m = make_wei_hua(0.2, 1.0, 0.5)
        assert abs(m.q_lower - math.log(1.0 / 3.0)) < 1e-14
        assert m.q_upper == math.inf

    def test_rejects_degenerate_split(self):
        # B/W - C = 0 leaves q0 undefined.
        with pytest.raises(InvalidParameterError, match="B/W - C"):
            make_wei_hua(0.5, 1.0, 0.5)

    def test_rejects_bad_c2(self):
        with pytest.raises(InvalidParameterError):
            make_wei_hua(0.2, 1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            make_wei_hua(0.2, 1.0, 1.0)

    def test_rejects_nonpositive_c1(self):
        with pytest.raises(InvalidParameterError):
            make_wei_hua(0.2, -1.0, 0.5)
        with pytest.raises(InvalidParameterError):
            make_wei_hua(0.2, 0.0, 0.5)

    def test_superpotential_matches_pole_split_form(self):
        # The stored (c, q0) split must reproduce x(q) written as
        # (c c1/c2) E/(1 - c E) - c0/c1 with E = exp(-c1 (q - q0)).
        m = make_wei_hua(0.2, 1.0, 0.5)
        p = m.params
        q = np.linspace(-1.0, 12.0, 301)
        e = np.exp(-p.c1 * (q - p.q0))
        split_form = (p.c * p.c1 / p.c2) * e / (1.0 - p.c * e) - p.c0 / p.c1
        np.testing.assert_allclose(eval_superpotential(m, q), split_form, atol=1e-12)

    def test_full_line_branch(self):
        # c2 < 0 gives c < 0 and no pole: the domain is the whole line and the
        # superpotential interpolates between two finite limits.
        m = make_wei_hua(1.0, 1.0, -0.5)
        assert m.q_lower == -math.inf
        assert m.params.c < 0.0
        x_left = eval_superpotential(m, -60.0)
        x_right = eval_superpotential(m, 60.0)
        # x(-inf) = -c1/c2 - c0/c1 = 1, x(+inf) = -c0/c1 = -1.
        assert abs(x_left - 1.0) < 1e-12
        assert abs(x_right - (-1.0)) < 1e-12

    @pytest.mark.filterwarnings("error")
    def test_x_prime_where_w_squared_overflows(self):
        # x' = (-c1^2/c2) C e^{-c1 q} / w^2 with w = 1 - C e^{-c1 q}. Far left
        # on the full line |w| passes 1.3e154 and w^2 overflows: there x' is
        # divided by w twice; everywhere else it keeps the bits of / w ** 2.
        m = make_wei_hua(5.0, 1.0, -0.3)
        p = m.params
        q = np.linspace(-400.0, 10.0, 1001)
        ce = p.big_c * np.exp(-p.c1 * q)
        w = 1.0 - ce
        num = -(p.c1 ** 2 / p.c2) * ce
        with np.errstate(over="ignore"):
            far = np.isinf(w ** 2)
            before = num / w ** 2
        assert 100 < far.sum() < q.size
        got = eval_superpotential_derivative(m, q)
        assert got[~far].tobytes() == before[~far].tobytes()
        assert got[far].tobytes() == (num[far] / w[far] / w[far]).tobytes()
        assert np.all(got[far] < 0.0) and np.all(before[far] == 0.0)
        # Neighbouring x' differ by the factor e^{c1 h} on both sides of the switch.
        ratio = got[1:] / got[:-1]
        np.testing.assert_allclose(ratio[: far.sum() + 5], math.exp(p.c1 * (q[1] - q[0])),
                                   rtol=1e-12)
        for value, expected in zip(q[::50], got[::50]):
            scalar = eval_superpotential_derivative(m, float(value))
            assert np.float64(scalar).tobytes() == expected.tobytes()


class TestKratzerFamilies:
    def test_generalized_constants(self):
        m = make_generalized_kratzer_fues(0.75, 0.5)
        assert abs(m.params.s - 0.0) < 1e-15
        assert abs(m.params.two_d - 3.0) < 1e-15
        assert abs(m.params.two_e0 - 0.75) < 1e-15
        assert abs(eval_superpotential(m, 0.0) - 0.5) < 1e-15

    def test_plain_delegates(self):
        m = make_kratzer_fues(0.5)
        assert abs(m.params.c0 - 0.75) < 1e-15
        assert abs(m.params.two_d - 3.0) < 1e-15

    def test_rejects_out_of_range_c1(self):
        with pytest.raises(InvalidParameterError):
            make_generalized_kratzer_fues(0.5, 1.2)
        with pytest.raises(InvalidParameterError):
            make_kratzer_fues(1.0)

    @pytest.mark.parametrize("c1", [0.0, 1.0, 2.0, -0.5, math.nan, math.inf])
    def test_plain_out_of_range_c1_is_named(self, c1):
        # The checks live in the shared constructor, which tests c1 before
        # the derived c0 = 1 - c1^2; a non-finite c1 is refused as such.
        with pytest.raises(InvalidParameterError) as caught:
            make_kratzer_fues(c1)
        assert type(caught.value) is InvalidParameterError
        rule = "be finite" if not math.isfinite(c1) else "satisfy 0 < c1 < 1"
        assert str(caught.value) == f"c1 must {rule}, got {c1!r}"

    def test_rejects_nonpositive_c0(self):
        with pytest.raises(InvalidParameterError):
            make_generalized_kratzer_fues(0.0, 0.5)


#: Each constructor with valid arguments, by parameter name.
_VALID_ARGUMENTS = [
    (make_generalized_morse, dict(s=1.0, x_e=0.5)),
    (make_wei_hua, dict(c0=0.2, c1=1.0, c2=0.5)),
    (make_wei_hua, dict(c0=5.0, c1=1.0, c2=-0.3)),
    (make_generalized_kratzer_fues, dict(c0=0.75, c1=0.5)),
    (make_kratzer_fues, dict(c1=0.5)),
]


@pytest.mark.parametrize("make, valid, name", [
    (make, valid, name) for make, valid in _VALID_ARGUMENTS for name in valid])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_constructors_reject_a_non_finite_parameter_by_name(make, valid, name, value):
    # Checked first: an infinite parameter otherwise fails a later derived
    # condition, or surfaces only at grid time, with a message that misleads.
    make(**valid)
    with pytest.raises(InvalidParameterError, match=f"^{name} must be finite, got "):
        make(**{**valid, name: value})


@pytest.mark.parametrize("make, args", [
    (make_generalized_kratzer_fues, (0.5, 1e-200)),  # c1^2 underflows: a ZeroDivisionError
    (make_kratzer_fues, (1e-200,)),
    (make_wei_hua, (-2.7e-218, 5e-324, 0.85)),  # 2 c1 (1 - c2) underflows
    (make_wei_hua, (1e300, 5.88, -2.2)),  # (c0/c1) ** 2: an OverflowError
])
def test_derived_constants_beyond_float64_are_refused_by_name(make, args):
    # Each raised a bare ZeroDivisionError or OverflowError, which left the
    # command line as a traceback. Each names the constructor called, not
    # one it delegates to.
    pattern = rf"^derived constants of {make.__name__}\(.*\) leave float64 range$"
    with pytest.raises(InvalidParameterError, match=pattern):
        make(*args)


class TestReductions:
    def test_standard_morse_limit(self):
        # s = 1 must reproduce the standard Morse forms, written here
        # independently: x = (e^{-c1 q} - (1 - x_e))/c1, c1 = sqrt(2 x_e),
        # V - E0 = ((1 - u)^2/(2 x_e) - 1 + x_e/2)/2,
        # psi0 = exp((1 - u)/(2 x_e) - ((1 - x_e)/c1) q).
        x_e = 0.5
        c1 = math.sqrt(2 * x_e)
        m = make_generalized_morse(1.0, x_e)
        q = np.linspace(-3.0, 20.0, 801)
        u = np.exp(-c1 * q)

        x_std = (u - (1 - x_e)) / c1
        v_std = 0.5 * ((1 - u) ** 2 / (2 * x_e) - 1 + 0.5 * x_e)
        psi_std = np.exp((1 - u) / (2 * x_e) - ((1 - x_e) / c1) * q)

        np.testing.assert_allclose(eval_superpotential(m, q), x_std, atol=1e-12)
        np.testing.assert_allclose(closed_form_potential(m, q), v_std, atol=1e-12)
        psi = ground_state(m).evaluator(q)
        np.testing.assert_allclose(psi.real, psi_std, atol=1e-12)

    def test_plain_kratzer_fues_limit(self):
        c1 = 0.5
        gen = make_generalized_kratzer_fues(1 - c1**2, c1)
        plain = make_kratzer_fues(c1)
        q = np.linspace(-1.9, 30.0, 801)
        np.testing.assert_allclose(
            eval_superpotential(gen, q), eval_superpotential(plain, q), atol=1e-12
        )
        np.testing.assert_allclose(
            eval_superpotential_derivative(gen, q),
            eval_superpotential_derivative(plain, q),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            closed_form_potential(gen, q), closed_form_potential(plain, q), atol=1e-12
        )
        np.testing.assert_allclose(
            ground_state(gen).evaluator(q).real,
            ground_state(plain).evaluator(q).real,
            atol=1e-12,
        )


def test_constructor_determinism():
    a = make_wei_hua(0.2, 1.0, 0.5)
    b = make_wei_hua(0.2, 1.0, 0.5)
    assert a == b
    q = np.linspace(-1.0, 10.0, 97)
    np.testing.assert_array_equal(eval_superpotential(a, q), eval_superpotential(b, q))


def test_only_the_full_line_families_carry_an_envelope():
    assert {name for name, family in FAMILIES.items() if family.envelope} == {
        HARMONIC, GENERALIZED_MORSE, WEI_HUA}


def _refused_envelope(params):
    raise AssertionError("a half-line grid read the envelope")


@pytest.mark.parametrize("model", [
    make_wei_hua(0.2, 1.0, 0.5), make_kratzer_fues(0.5), make_generalized_kratzer_fues(0.75, 0.5),
], ids=lambda m: m.family)
def test_a_half_line_grid_never_reads_an_envelope(monkeypatch, model):
    expected = auto_grid(model, 0.1, 2001)
    for name, family in FAMILIES.items():
        monkeypatch.setitem(FAMILIES, name, replace(family, envelope=_refused_envelope))
    assert auto_grid(model, 0.1, 2001) == expected
    # The full-line Wei Hua branch shares the record and reads it.
    with pytest.raises(AssertionError, match="read the envelope"):
        auto_grid(make_wei_hua(0.2, 1.0, -0.5), 0.1, 2001)


def test_cli_table_help_and_names_cover_the_same_five_families():
    assert set(FAMILIES) == {HARMONIC, GENERALIZED_MORSE, WEI_HUA, KRATZER_FUES,
                             GENERALIZED_KRATZER_FUES}
    assert {family.cli_name: family.cli_params for family in FAMILIES.values()} == {
        "harmonic": (), "morse": ("s", "xe"), "weihua": ("c0", "c1", "c2"),
        "kratzer": ("c1",), "gkf": ("c0", "c1")}
    valid = {"harmonic": {}, "morse": {"s": 1.0, "xe": 0.5},
             "weihua": {"c0": 0.2, "c1": 1.0, "c2": 0.5}, "kratzer": {"c1": 0.5},
             "gkf": {"c0": 0.6, "c1": 0.5}}
    for family in FAMILIES.values():
        assert _build_model(family.cli_name, valid[family.cli_name]).family == family.name
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    for command in ("construct", "coherent", "verify"):
        flag = next(a for a in sub.choices[command]._actions if a.dest == "family")
        assert flag.help == "harmonic|morse|weihua|kratzer|gkf"
