"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Desk parameters: harmonic; generalized Morse (s=1, x_e=0.5) and
(s=1.2, x_e=0.125); Wei Hua (0.2, 1.0, 0.5); Kratzer-Fues (0.5); generalized
Kratzer-Fues (0.75, 0.5). Grids are n=4001 with automatic truncation.
Alphas {0, 0.1, 0.1+0.2i} are filtered by admissibility per model.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import math

import numpy as np
import pytest

from anhosc.families import (
    make_generalized_kratzer_fues,
    make_generalized_morse,
    make_harmonic,
    make_kratzer_fues,
    make_wei_hua,
)
from anhosc.fit import ExpansionParams, convergence_radius_lower, eval_expansion, fit_expansion
from anhosc.generator import (
    FORM_LINEAR,
    FORM_PARABOLIC,
    FORM_SQUARED_LINEAR,
    GeneratingSeries,
    closed_form_from_series,
    superpotential_from_series,
)
from anhosc.models import (
    closed_form_potential,
    eval_superpotential,
    eval_superpotential_derivative,
)
from anhosc.numerics import make_grid
from anhosc.states import auto_grid, ground_state, is_admissible
from anhosc.verify import verify_coherent, verify_model

ALPHAS = (0.0, 0.1, 0.1 + 0.2j)


def desk_models():
    return {
        "harmonic": make_harmonic(),
        "generalized_morse(1,0.5)": make_generalized_morse(1.0, 0.5),
        "generalized_morse(1.2,0.125)": make_generalized_morse(1.2, 0.125),
        "wei_hua(0.2,1,0.5)": make_wei_hua(0.2, 1.0, 0.5),
        "kratzer_fues(0.5)": make_kratzer_fues(0.5),
        "generalized_kratzer_fues(0.75,0.5)": make_generalized_kratzer_fues(0.75, 0.5),
    }


@pytest.fixture(scope="module")
def models():
    return desk_models()


@pytest.fixture(scope="module")
def model_reports(models):
    return {name: verify_model(m, auto_grid(m)) for name, m in models.items()}


@pytest.fixture(scope="module")
def coherent_reports(models):
    reports = {}
    for name, m in models.items():
        for alpha in ALPHAS:
            if is_admissible(m, alpha):
                reports[(name, alpha)] = verify_coherent(m, alpha, auto_grid(m, alpha))
    return reports


def announce(number, title, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:>2} ({title}): {status}  [{detail}]")
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_01_riccati_identity(models):
    worst = 0.0
    for m in models.values():
        q = auto_grid(m).points()
        x = eval_superpotential(m, q)
        riccati = 0.5 * (x * x + eval_superpotential_derivative(m, q))
        resid = np.max(np.abs(closed_form_potential(m, q) - riccati))
        worst = max(worst, float(resid))
    announce(1, "Riccati identity", worst < 1e-8, f"max residual {worst:.3e} < 1e-8")


def test_criterion_02_ground_state_annihilation(model_reports):
    worst = max(r.annihilation_rel for r in model_reports.values())
    announce(2, "ground-state annihilation", worst < 1e-6, f"max rel {worst:.3e} < 1e-6")


def test_criterion_03_schrodinger_residual(model_reports):
    worst = max(r.schrodinger_rel for r in model_reports.values())
    announce(3, "Schrodinger residual", worst < 1e-5, f"max rel {worst:.3e} < 1e-5")


def test_criterion_04_coherent_eigenstate(coherent_reports):
    worst = max(r.eigenstate_rel for r in coherent_reports.values())
    announce(4, "coherent eigenstate", worst < 1e-6, f"max rel {worst:.3e} < 1e-6")


def test_criterion_05_uncertainty_minimization(coherent_reports, models):
    worst_eq = max(abs(r.delta_x - r.delta_p) for r in coherent_reports.values())
    worst_prod = max(r.product_rel_err for r in coherent_reports.values())
    m = models["harmonic"]
    harmonic_dev = max(
        abs(coherent_reports[("harmonic", a)].product - 0.25)
        for a in ALPHAS
    )
    ok = worst_eq < 1e-6 and worst_prod < 1e-4 and harmonic_dev < 1e-8
    announce(
        5,
        "uncertainty minimization",
        ok,
        f"|dx-dp| {worst_eq:.3e} < 1e-6, product rel {worst_prod:.3e} < 1e-4, "
        f"harmonic |product-1/4| {harmonic_dev:.3e} < 1e-8",
    )


def test_criterion_06_expectation_identities(coherent_reports):
    worst_first = max(
        max(r.exp_x_err, r.exp_p_err) for r in coherent_reports.values()
    )
    worst_second = max(
        max(r.exp_x2_err, r.exp_p2_err) for r in coherent_reports.values()
    )
    ok = worst_first < 1e-6 and worst_second < 1e-5
    announce(
        6,
        "expectation identities",
        ok,
        f"first moments {worst_first:.3e} < 1e-6, quadratic {worst_second:.3e} < 1e-5",
    )


def test_criterion_07_commutator_action(model_reports):
    worst = max(r.commutator_action_rel for r in model_reports.values())
    announce(7, "commutator action", worst < 1e-5, f"max rel {worst:.3e} < 1e-5")


def test_criterion_08_generator_round_trip():
    cases = [
        GeneratingSeries(FORM_LINEAR, c0=0.5, c1=1.0),
        GeneratingSeries(FORM_PARABOLIC, c0=0.2, c1=1.0, c2=0.5),
        GeneratingSeries(FORM_SQUARED_LINEAR, c0=0.75, c1=0.5),
    ]
    worst = 0.0
    for series in cases:
        grid = make_grid(0.0, 5.0, 5001)
        numeric = superpotential_from_series(series, grid)
        closed = eval_superpotential(closed_form_from_series(series), grid.points())
        worst = max(worst, float(np.max(np.abs(numeric.values - closed))))

    linear = GeneratingSeries(FORM_LINEAR, c0=0.5, c1=1.0)
    closed_fn = lambda q: np.exp(-q) - 0.5
    errors = []
    for n in (251, 501):
        g = make_grid(0.0, 1.0, n)
        out = superpotential_from_series(linear, g)
        errors.append(float(np.max(np.abs(out.values - closed_fn(g.points())))))
    ratio = errors[0] / errors[1]
    ok = worst < 1e-7 and ratio >= 8.0
    announce(
        8,
        "generator round trip",
        ok,
        f"max closed-form deviation {worst:.3e} < 1e-7, halving ratio {ratio:.1f} >= 8",
    )


def test_criterion_09_reductions():
    # s = 1 generalized Morse against the standard Morse forms, written
    # out independently, and s = 0 generalized Kratzer-Fues against the
    # plain Kratzer-Fues constructor.
    x_e = 0.5
    c1 = math.sqrt(2.0 * x_e)
    morse = make_generalized_morse(1.0, x_e)
    q = np.linspace(-3.0, 20.0, 1601)
    u = np.exp(-c1 * q)
    x_std = (u - (1.0 - x_e)) / c1
    v_std = 0.5 * ((1.0 - u) ** 2 / (2.0 * x_e) - 1.0 + 0.5 * x_e)
    psi_std = np.exp((1.0 - u) / (2.0 * x_e) - ((1.0 - x_e) / c1) * q)
    dev_morse = max(
        float(np.max(np.abs(eval_superpotential(morse, q) - x_std))),
        float(np.max(np.abs(closed_form_potential(morse, q) - v_std))),
        float(np.max(np.abs(ground_state(morse).evaluator(q).real - psi_std))),
    )

    gen = make_generalized_kratzer_fues(1.0 - 0.25, 0.5)
    plain = make_kratzer_fues(0.5)
    qk = np.linspace(-1.9, 30.0, 1601)
    dev_kf = max(
        float(np.max(np.abs(eval_superpotential(gen, qk) - eval_superpotential(plain, qk)))),
        float(np.max(np.abs(
            eval_superpotential_derivative(gen, qk) - eval_superpotential_derivative(plain, qk)
        ))),
        float(np.max(np.abs(closed_form_potential(gen, qk) - closed_form_potential(plain, qk)))),
        float(np.max(np.abs(
            ground_state(gen).evaluator(qk).real - ground_state(plain).evaluator(qk).real
        ))),
    )
    ok = dev_morse < 1e-12 and dev_kf < 1e-12
    announce(
        9,
        "family reductions",
        ok,
        f"Morse s=1 deviation {dev_morse:.3e}, Kratzer-Fues s=0 deviation {dev_kf:.3e} < 1e-12",
    )


def test_criterion_10_fit_round_trip():
    from anhosc.fit import PotentialSample

    truth0 = ExpansionParams(r_e=1.2, s=0.1, c0=3.0)
    data0 = [
        PotentialSample(r, float(eval_expansion(truth0, r)))
        for r in np.linspace(0.8, 6.0, 50)
    ]
    fit0 = fit_expansion(data0, order=0)
    m_err0 = abs(
        fit0.params.r_e * (fit0.params.s + 1.0) - truth0.r_e * (truth0.s + 1.0)
    ) / (truth0.r_e * (truth0.s + 1.0))
    c0_err0 = abs(fit0.params.c0 - truth0.c0) / truth0.c0

    truth1 = ExpansionParams(r_e=1.2, s=0.1, c0=3.0, c_n=(-0.2,))
    data1 = [
        PotentialSample(r, float(eval_expansion(truth1, r)))
        for r in np.linspace(0.8, 6.0, 60)
    ]
    fit1 = fit_expansion(data1, order=1)
    m_err1 = abs(
        fit1.params.r_e * (fit1.params.s + 1.0) - truth1.r_e * (truth1.s + 1.0)
    ) / (truth1.r_e * (truth1.s + 1.0))
    c1_err = abs(fit1.params.c_n[0] - truth1.c_n[0]) / abs(truth1.c_n[0])

    radius = convergence_radius_lower(1.0, 0.0)
    ok = (
        fit0.converged and fit1.converged
        and m_err0 < 1e-4 and c0_err0 < 1e-4
        and m_err1 < 1e-3 and c1_err < 1e-3
        and radius == 0.5
    )
    announce(
        10,
        "fit round trip",
        ok,
        f"N=0 errors ({m_err0:.2e}, {c0_err0:.2e}) < 1e-4; "
        f"N=1 errors ({m_err1:.2e}, {c1_err:.2e}) < 1e-3; radius {radius} == 0.5",
    )


def test_criterion_11_cli_contract(tmp_path):
    from anhosc.cli import main

    # Exit 0: documented success invocation.
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    base = ["construct", "--family", "weihua", "--param", "c0=0.2",
            "--param", "c1=1", "--param", "c2=0.5"]
    ok0 = main(base + ["--out", str(out_a)]) == 0
    ok0 &= main(base + ["--out", str(out_b)]) == 0
    identical = out_a.read_bytes() == out_b.read_bytes()

    # Exit 1: verification failure under an unrealistic tolerance.
    code1 = main([
        "verify", "--family", "harmonic", "--alphas", "0.1",
        "--qmin", "-8", "--qmax", "8", "--n", "201",
        "--tol", "product=1e-12", "--report", str(tmp_path / "r.txt"),
    ])

    # Exit 2: parameter errors.
    code2a = main(["construct", "--family", "morse", "--param", "s=1",
                   "--param", "xe=2", "--out", str(tmp_path / "m.csv")])
    code2b = main(["coherent", "--family", "morse", "--param", "s=1",
                   "--param", "xe=0.5", "--alpha", "0.5+0i",
                   "--out", str(tmp_path / "c.csv"),
                   "--report", str(tmp_path / "c.txt")])
    code2c = main(["generate", "--form", "cubic", "--param", "c0=1",
                   "--param", "c1=1", "--out", str(tmp_path / "g.csv")])

    ok = (
        ok0 and identical and code1 == 1
        and code2a == 2 and code2b == 2 and code2c == 2
    )
    announce(
        11,
        "CLI contract",
        ok,
        f"exit0 {ok0}, byte-identical {identical}, exit1 {code1 == 1}, "
        f"exit2 {code2a == 2 and code2b == 2 and code2c == 2}",
    )
