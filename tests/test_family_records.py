"""The family records against the per-family branches they replaced.

describe, closed_form_potential, admissible_bound, the search's default
interval and the CLI's model building and header lines used to branch on
model.family. The branching versions are kept here verbatim as the
reference; the record lookups must give the same strings, the same bits and
the same exceptions over seeded random parameters of all five families,
full-line Wei Hua included. The default interval now splits into a
full-line family's envelope and the half-line pole edge of states; its
reference copy also places sample points in test_models and test_states."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from anhosc import cli, states
from anhosc.cli import _build_model, _model_header_lines, build_parser
from anhosc.errors import InvalidParameterError
from anhosc.families import (
    FAMILIES,
    GENERALIZED_KRATZER_FUES,
    GENERALIZED_MORSE,
    HARMONIC,
    KRATZER_FUES,
    WEI_HUA,
    AdmissibilityBound,
    make_generalized_kratzer_fues,
    make_generalized_morse,
    make_harmonic,
    make_kratzer_fues,
    make_wei_hua,
)
from anhosc.models import _as_input_shape, check_domain, closed_form_potential, describe
from anhosc.states import admissible_bound, auto_grid

_POLE_OFFSET = 1e-3
_fmt = cli._fmt


# --- The former branching code, copied verbatim ---------------------------

def _reference_describe(model):
    """Short deterministic descriptor used in file headers and reports."""
    p = model.params
    if model.family == HARMONIC:
        return "harmonic"
    if model.family == GENERALIZED_MORSE:
        return f"generalized_morse(s={p.s!r}, x_e={p.x_e!r})"
    if model.family == WEI_HUA:
        return f"wei_hua(c0={p.c0!r}, c1={p.c1!r}, c2={p.c2!r})"
    if model.family == KRATZER_FUES:
        return f"kratzer_fues(c1={p.c1!r})"
    return f"generalized_kratzer_fues(c0={p.c0!r}, c1={p.c1!r})"


def _reference_closed_form_potential(model, q):
    """V(q) - E0 from the family closed-form potential shape.

    This is a different algebraic route than riccati_potential; agreement of
    the two is the Riccati consistency check.
    """
    qa = check_domain(model, q)
    p = model.params
    if model.family == HARMONIC:
        v = 0.5 * (qa * qa - 1.0)
    elif model.family == GENERALIZED_MORSE:
        u = np.exp(-p.c1 * qa)
        v = 0.5 * ((p.s - u) ** 2 / (2.0 * p.x_e) - p.s + 0.5 * p.x_e)
    elif model.family == WEI_HUA:
        u = np.exp(-p.c1 * qa)
        ratio = (1.0 - p.pot_num * u) / (1.0 - p.big_c * u)
        v = 0.5 * (p.two_d * ratio * ratio - p.two_e0)
    else:
        w = p.c1 * qa + 1.0
        ratio = (p.c1 * qa - p.s) / w
        v = 0.5 * (p.two_d * ratio * ratio - p.two_e0)
    return _as_input_shape(v, q)


def _reference_admissible_bound(model):
    """Normalizability bounds on sqrt(2) Re(alpha) for coherent states."""
    if model.family == HARMONIC:
        return AdmissibilityBound(sup_re_alpha=math.inf)
    p = model.params
    sup = p.c0 / p.c1
    if model.family == WEI_HUA and not math.isfinite(model.q_lower):
        # Full-line branch: the left tail decays only for
        # sqrt(2) Re(alpha) > x(-inf) flipped in sign.
        return AdmissibilityBound(sup_re_alpha=sup, inf_re_alpha=p.c1 / p.c2 + sup)
    return AdmissibilityBound(sup_re_alpha=sup)


def _reference_default_interval(model):
    """Family-specific starting interval for truncation searches."""
    if model.family == HARMONIC:
        return (-8.0, 8.0)
    p = model.params
    if model.family == GENERALIZED_MORSE:
        return (-3.0, 40.0 / p.c1)
    if model.family == WEI_HUA:
        if math.isfinite(model.q_lower):
            lo = model.q_lower + _POLE_OFFSET / p.c1
        else:
            lo = p.q0 - 40.0 / p.c1
        return (lo, p.q0 + 40.0 / p.c1)
    return (model.q_lower + _POLE_OFFSET / p.c1, 80.0 / p.c1)


def _reference_model_header_lines(model):
    lines = [f"# model: {_reference_describe(model)}"]
    consts = [f"e0={_fmt(model.e0)}"]
    if model.d_const is not None:
        consts.append(f"d={_fmt(model.d_const)}")
    p = model.params
    if model.family == WEI_HUA:
        consts += [
            f"W={_fmt(p.w)}", f"B={_fmt(p.b)}", f"C={_fmt(p.big_c)}",
            f"c={_fmt(p.c)}", f"q0={_fmt(p.q0)}",
        ]
    elif hasattr(p, "c0"):
        consts += [f"c0={_fmt(p.c0)}", f"c1={_fmt(p.c1)}"]
        if hasattr(p, "s"):
            consts.append(f"s={_fmt(p.s)}")
    lines.append("# constants: " + " ".join(consts))
    lines.append(f"# domain: ({_fmt(model.q_lower)}, {_fmt(model.q_upper)})")
    return lines


_FAMILY_PARAMS = {
    "harmonic": (),
    "morse": ("s", "xe"),
    "weihua": ("c0", "c1", "c2"),
    "kratzer": ("c1",),
    "gkf": ("c0", "c1"),
}


def _reference_build_model(family, params):
    if family not in _FAMILY_PARAMS:
        raise InvalidParameterError(
            f"unknown family {family!r}; expected one of {sorted(_FAMILY_PARAMS)}"
        )
    expected = _FAMILY_PARAMS[family]
    missing = [name for name in expected if name not in params]
    if missing:
        raise InvalidParameterError(f"family {family!r} needs --param {missing[0]}=...")
    extra = [name for name in params if name not in expected]
    if extra:
        raise InvalidParameterError(f"unknown parameter {extra[0]!r} for family {family!r}")
    if family == "harmonic":
        return make_harmonic()
    if family == "morse":
        return make_generalized_morse(params["s"], params["xe"])
    if family == "weihua":
        return make_wei_hua(params["c0"], params["c1"], params["c2"])
    if family == "kratzer":
        return make_kratzer_fues(params["c1"])
    return make_generalized_kratzer_fues(params["c0"], params["c1"])


# --- Comparison helpers ----------------------------------------------------

def _bits(value):
    """Exact bits of a float, a float array or a tuple of floats, with the type."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, AdmissibilityBound):
        return _bits((value.sup_re_alpha, value.inf_re_alpha))
    if isinstance(value, np.ndarray):
        return (type(value), value.dtype, value.shape, value.tobytes())
    return (type(value), np.float64(value).tobytes())


def _outcome(call):
    """(result, warnings) of call(); the result is its bits, or the
    exception's type and message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except Exception as exc:  # the exception is part of the contract
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def _random_models(seed, count):
    """Seeded models of every family, half-line and full-line Wei Hua alike,
    with parameters spread over several decades."""
    rng = np.random.default_rng(seed)
    makers = [
        lambda: make_harmonic(),
        lambda: make_generalized_morse(*sorted(10.0 ** rng.uniform(-3, 1, 2))[::-1]),
        lambda: make_wei_hua(rng.uniform(-0.5, 2.0), 10.0 ** rng.uniform(-1, 0.5),
                             rng.uniform(0.05, 0.95)),
        lambda: make_wei_hua(rng.uniform(-0.5, 2.0), 10.0 ** rng.uniform(-1, 0.5),
                             -rng.uniform(0.05, 2.0)),
        lambda: make_kratzer_fues(rng.uniform(0.01, 0.999)),
        lambda: make_generalized_kratzer_fues(10.0 ** rng.uniform(-3, 1), rng.uniform(0.01, 0.999)),
    ]
    models = []
    while len(models) < count:
        try:
            models.append(makers[len(models) % len(makers)]())
        except InvalidParameterError:
            continue
    return models


_MODELS = _random_models(seed=409, count=600)


def test_the_draws_reach_every_family_and_both_wei_hua_branches():
    families = {m.family for m in _MODELS}
    assert families == set(FAMILIES)
    wei_hua = [m for m in _MODELS if m.family == WEI_HUA]
    assert {math.isfinite(m.q_lower) for m in wei_hua} == {True, False}


def test_strings_match_the_branching_code():
    for m in _MODELS:
        assert describe(m) == _reference_describe(m)
        assert _model_header_lines(m) == _reference_model_header_lines(m)


def _envelope_or_pole_edge(model):
    """What is left of the default interval: the full-line envelope, or the
    half-line pole edge of states."""
    if math.isfinite(model.q_lower):
        return states._pole_edge(model)
    return FAMILIES[model.family].envelope(model.params)


def test_bound_and_interval_bits_match_the_branching_code():
    for m in _MODELS:
        assert (_outcome(lambda: _bits(admissible_bound(m)))
                == _outcome(lambda: _bits(_reference_admissible_bound(m))))
        reference = _reference_default_interval(m)
        if math.isfinite(m.q_lower):
            reference = reference[0]  # the far end only started the search
        assert (_outcome(lambda: _bits(_envelope_or_pole_edge(m)))
                == _outcome(lambda: _bits(reference)))


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


def test_closed_form_potential_matches_the_branching_code():
    rng = np.random.default_rng(410)
    for m in _MODELS:
        a0, b0 = _reference_default_interval(m)
        inside = [*np.linspace(a0, b0, 17), *rng.uniform(a0, b0, 8), b0 * 1e3, 1e200]
        if math.isfinite(m.q_lower):
            inside += [float(np.nextafter(m.q_lower, math.inf)), m.q_lower + 1e-9]
        else:
            inside += [a0 * 1e3, -1e200]  # exp(-c1 q) overflows on the left
        outside = [math.nan, -math.inf, math.inf]
        if math.isfinite(m.q_lower):
            outside += [m.q_lower, m.q_lower - 1.0]
        qs = [*map(float, inside), *map(np.float64, inside), *outside,
              np.array(inside), np.array(inside + outside[:1])]
        for q in qs:
            new = _outcome(lambda: _bits(closed_form_potential(m, q)))
            old = _outcome(lambda: _bits(_reference_closed_form_potential(m, q)))
            assert new == old, (describe(m), q)


def _random_cli_params(rng):
    """A --family name and --param dict: mostly valid, some out of range,
    non-finite, missing, extra or misspelled."""
    name = str(rng.choice([*_FAMILY_PARAMS, "bogus", "wei_hua"]))
    values = [0.0, -0.5, 1.0, 2.0, math.nan, math.inf, -math.inf, 1e-300]
    params = {}
    for key in _FAMILY_PARAMS.get(name, ("c1",)):
        if rng.uniform() < 0.15:
            params[key] = float(rng.choice(values))
        else:
            params[key] = float(rng.uniform(-0.5, 2.5))
    if name == "morse" and rng.uniform() < 0.6:  # mostly s > xe
        params["s"] = params.get("xe", 0.5) + float(rng.uniform(0.0, 2.0))
    if params and rng.uniform() < 0.1:
        del params[str(rng.choice(sorted(params)))]
    if rng.uniform() < 0.1:
        params[str(rng.choice(["c0", "c2", "xe", "zz"]))] = 0.5
    return name, params


def test_cli_model_building_matches_the_branching_code():
    rng = np.random.default_rng(411)
    built = set()
    for _ in range(3000):
        name, params = _random_cli_params(rng)

        def new():
            return repr(_build_model(name, dict(params)))

        def old():
            return repr(_reference_build_model(name, dict(params)))

        outcome = _outcome(new)
        assert outcome == _outcome(old), (name, params)
        if isinstance(outcome[0], str):
            built.add(name)
    assert built == set(_FAMILY_PARAMS)


def test_cli_table_help_and_names_cover_the_same_five_families():
    assert set(FAMILIES) == {HARMONIC, GENERALIZED_MORSE, WEI_HUA, KRATZER_FUES,
                             GENERALIZED_KRATZER_FUES}
    assert {family.cli_name: family.cli_params for family in FAMILIES.values()} == _FAMILY_PARAMS
    valid = {"harmonic": {}, "morse": {"s": 1.0, "xe": 0.5},
             "weihua": {"c0": 0.2, "c1": 1.0, "c2": 0.5}, "kratzer": {"c1": 0.5},
             "gkf": {"c0": 0.6, "c1": 0.5}}
    for family in FAMILIES.values():
        assert _build_model(family.cli_name, valid[family.cli_name]).family == family.name
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    for command in ("construct", "coherent", "verify"):
        flag = next(a for a in sub.choices[command]._actions if a.dest == "family")
        assert flag.help == "harmonic|morse|weihua|kratzer|gkf"
