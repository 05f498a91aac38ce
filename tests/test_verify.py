"""Verification-report tests: residual magnitudes, refinement behavior,
determinism, and tolerance handling."""

import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from anhosc.cli import main
from anhosc.errors import InvalidParameterError, TruncationError
from anhosc.families import (
    make_generalized_kratzer_fues,
    make_generalized_morse,
    make_harmonic,
    make_kratzer_fues,
    make_wei_hua,
)
from anhosc.numerics import make_grid
from anhosc import cli, models, states, verify
from anhosc.states import Workspace, auto_grid, grid_fields
from anhosc.verify import Tolerances, verify_coherent, verify_model


def desk_models():
    return [
        make_harmonic(),
        make_generalized_morse(1.0, 0.5),
        make_generalized_morse(1.2, 0.125),
        make_wei_hua(0.2, 1.0, 0.5),
        make_kratzer_fues(0.5),
        make_generalized_kratzer_fues(0.75, 0.5),
    ]


class TestVerifyModel:
    def test_harmonic_all_residuals_small(self):
        report = verify_model(make_harmonic(), make_grid(-8.0, 8.0, 4001))
        assert report.riccati_max_abs < 1e-6
        assert report.annihilation_rel < 1e-6
        assert report.schrodinger_rel < 1e-6
        assert report.commutator_action_rel < 1e-6
        assert report.passed

    def test_morse_riccati_is_symbolically_tight(self):
        m = make_generalized_morse(1.0, 0.5)
        report = verify_model(m, auto_grid(m))
        assert report.riccati_max_abs < 1e-10

    def test_wei_hua_commutator_action(self):
        m = make_wei_hua(0.2, 1.0, 0.5)
        report = verify_model(m, auto_grid(m))
        assert report.commutator_action_rel < 1e-5
        assert report.passed

    def test_all_desk_models_pass_defaults(self):
        for m in desk_models():
            assert verify_model(m, auto_grid(m)).passed, m.family

    def test_full_line_wei_hua_passes(self):
        m = make_wei_hua(1.0, 1.0, -0.5)
        assert verify_model(m, auto_grid(m)).passed
        assert verify_coherent(m, 0.1, auto_grid(m, 0.1)).passed

    def test_insufficient_truncation_raises(self):
        from anhosc.errors import TruncationError

        with pytest.raises(TruncationError):
            verify_model(make_harmonic(), make_grid(-1.0, 1.0, 201))


class TestVerifyCoherent:
    def test_harmonic_product_is_quarter(self):
        m = make_harmonic()
        report = verify_coherent(m, 0.3, auto_grid(m, 0.3))
        assert abs(report.product - 0.25) < 1e-8
        assert abs(report.delta_x - 1.0 / math.sqrt(2.0)) < 1e-8
        assert abs(report.delta_p - 1.0 / math.sqrt(2.0)) < 1e-8
        assert report.passed

    def test_morse_uncertainty_equality(self):
        m = make_generalized_morse(1.0, 0.5)
        report = verify_coherent(m, 0.0, auto_grid(m))
        assert abs(report.delta_x - report.delta_p) < 1e-6

    def test_kratzer_complex_alpha_product(self):
        m = make_kratzer_fues(0.5)
        alpha = 0.1 + 0.2j
        report = verify_coherent(m, alpha, auto_grid(m, alpha))
        assert report.product_rel_err < 1e-4
        assert report.passed

    def test_acceptance_alpha_sweep(self):
        for m in desk_models():
            for alpha in (0.0, 0.1, 0.1 + 0.2j):
                grid = auto_grid(m, alpha)
                assert verify_coherent(m, alpha, grid).passed, (m.family, alpha)


class TestRefinement:
    def test_doubling_never_hurts_and_usually_helps(self):
        # Same span, doubled point count: the dominant stencil and quadrature
        # errors are fourth order, so residuals should fall far more than 4x
        # unless they already sit at the floating-point floor.
        for m in desk_models():
            span = auto_grid(m, 0.1, n=4001)
            coarse = verify_coherent(m, 0.1, make_grid(span.q_min, span.q_max, 2001))
            fine = verify_coherent(m, 0.1, make_grid(span.q_min, span.q_max, 4001))
            assert fine.eigenstate_rel <= coarse.eigenstate_rel * 1.1 + 1e-14
            if coarse.eigenstate_rel > 1e-10:
                assert coarse.eigenstate_rel / fine.eigenstate_rel >= 4.0


class TestReports:
    def test_determinism(self):
        m = make_wei_hua(0.2, 1.0, 0.5)
        grid = auto_grid(m)
        a = verify_model(m, grid).to_text()
        b = verify_model(m, grid).to_text()
        assert a == b

    def test_text_contains_checks(self):
        m = make_harmonic()
        text = verify_model(m, auto_grid(m)).to_text()
        assert "riccati: pass" in text
        assert "result: pass" in text

    def test_default_tolerances(self):
        tol = Tolerances()
        assert tol.riccati == 1e-8
        assert tol.annihilation == 1e-6
        assert tol.eigenstate == 1e-6
        assert tol.schrodinger == 1e-5
        assert tol.product == 1e-4
        assert tol.expectation == 1e-5
        assert tol.commutator == 1e-5

    def test_override_recomputes_flags(self):
        m = make_harmonic()
        grid = auto_grid(m)
        strict = replace(Tolerances(), riccati=1e-30)
        report = verify_model(m, grid, strict)
        # Harmonic riccati is exactly zero, so tighten annihilation instead.
        strict = replace(Tolerances(), annihilation=1e-30)
        report = verify_model(m, grid, strict)
        assert not report.passed

    def test_negative_tolerance_rejected(self):
        with pytest.raises(InvalidParameterError):
            Tolerances(riccati=-1.0)


class TestSampleOnce:
    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """(model, q, outputs asked for) of every family-kernel evaluation,
        under any name a module of the package binds the kernel to; outputs
        is the (x, xp, log_psi0) flags."""
        calls = []
        make = models.kernel

        def counting_kernel(model):
            fields = make(model)

            def counted(q, x=True, xp=False, log_psi0=False):
                calls.append((model, q, (x, xp, log_psi0)))
                return fields(q, x, xp, log_psi0)

            return counted

        for module in (models, states, verify, cli):
            for name, value in list(vars(module).items()):
                if value is make:
                    monkeypatch.setattr(module, name, counting_kernel)
        return calls

    @staticmethod
    def _on_arrays(calls):
        return [(model, outputs) for model, q, outputs in calls if np.ndim(q)]

    @pytest.mark.parametrize("model", desk_models(), ids=lambda m: m.family)
    def test_verify_coherent_evaluates_the_state_once(self, kernel_calls, model):
        grid = auto_grid(model, 0.1 + 0.2j)
        kernel_calls.clear()
        verify_coherent(model, 0.1 + 0.2j, grid)
        assert self._on_arrays(kernel_calls) == [(model, (True, True, True))]

    @pytest.mark.parametrize("model", desk_models(), ids=lambda m: m.family)
    def test_verify_model_evaluates_the_ground_state_once(self, kernel_calls, model):
        grid = auto_grid(model)
        kernel_calls.clear()
        verify_model(model, grid)
        assert self._on_arrays(kernel_calls) == [(model, (True, True, True))]

    def test_cli_verify_on_explicit_grid_evaluates_each_state_once(self, kernel_calls, tmp_path):
        # One grid_fields record serves verify_model and every alpha, and
        # one kernel call fills its x, x' and log psi0 (1 + alphas calls of
        # each before the record, one call of each before the kernel).
        code = main(["verify", "--family", "morse", "--param", "s=1", "--param", "xe=0.5",
                     "--qmin=-3", "--qmax=40", "--n", "2001", "--alphas", "0.1,0.05+0.1i",
                     "--report", str(tmp_path / "r.txt")])
        assert code == 0
        assert [outputs for _, _, outputs in kernel_calls] == [(True, True, True)]

    def test_cli_coherent_on_explicit_grid(self, kernel_calls, tmp_path):
        # The table and verify_coherent share one record (twice before).
        code = main(["coherent", "--family", "morse", "--param", "s=1", "--param", "xe=0.5",
                     "--qmin=-3", "--qmax=40", "--n", "2001", "--alpha", "0.1",
                     "--out", str(tmp_path / "c.csv"), "--report", str(tmp_path / "c.txt")])
        assert code == 0
        assert [outputs for _, _, outputs in kernel_calls] == [(True, True, True)]

    @pytest.mark.parametrize("grid", [[], ["--qmin=-3", "--qmax=40"]], ids=["auto", "explicit"])
    def test_cli_coherent_forms_the_state_once(self, monkeypatch, tmp_path, grid):
        # The table's normalized samples are the ones verify_coherent checks
        # (psi_alpha was formed twice before).
        formed = []
        state_values = states._state_values

        def counting(log_psi0, q, alpha, out=None):
            formed.append(alpha)
            return state_values(log_psi0, q, alpha, out)

        monkeypatch.setattr(states, "_state_values", counting)
        code = main(["coherent", "--family", "morse", "--param", "s=1", "--param", "xe=0.5",
                     *grid, "--n", "2001", "--alpha", "0.1+0.2i",
                     "--out", str(tmp_path / "c.csv"), "--report", str(tmp_path / "c.txt")])
        assert code == 0
        assert formed == [0.1 + 0.2j]

    @staticmethod
    def _edge_search_points(kernel_calls, monkeypatch, model, alpha):
        """The points auto_grid's edge searches evaluated, each asserted to
        be one scalar kernel call with one exponential."""
        exps = []
        exp = np.exp

        def counting_exp(value):
            exps.append(value)
            return exp(value)

        monkeypatch.setattr(np, "exp", counting_exp)
        auto_grid(model, alpha)
        assert all(np.ndim(q) == 0 for _, q, _ in kernel_calls)
        peak = [q for _, q, outputs in kernel_calls if outputs == (True, False, False)]
        edge = [q for _, q, outputs in kernel_calls if outputs == (True, False, True)]
        # The one other call is x' at the peak, for the Laplace mass estimate.
        assert peak == []
        assert len(edge) == len(kernel_calls) - 1
        assert len(exps) == len(kernel_calls)
        return edge

    def test_a_search_point_is_one_kernel_call_and_one_exponential(self, kernel_calls, monkeypatch):
        # x and log psi0 of an edge-search point share one exp(-c1 q) (two
        # exponentials and two evaluations before); the peak comes from its
        # closed form, with no kernel call (one x-only call per bisection
        # point before). The envelope decides both edges here, after 3 and
        # 4 points (54 each in a full search).
        edge = self._edge_search_points(kernel_calls, monkeypatch,
                                        make_generalized_morse(1.0, 0.5), 0.1)
        assert len(edge) == 3 + 4

    @pytest.mark.parametrize("model, alpha", [
        (make_generalized_morse(1.0, 0.5), -2.0),  # the left edge lies beyond the envelope
        (make_wei_hua(0.2, 1.0, 0.5), 0.1),  # a half line has no envelope
    ], ids=["morse", "weihua"])
    def test_a_full_search_point_is_one_kernel_call_and_one_exponential(
            self, kernel_calls, monkeypatch, model, alpha):
        edge = self._edge_search_points(kernel_calls, monkeypatch, model, alpha)
        assert len(edge) > 20


class TestSharedFields:
    @pytest.mark.parametrize("model", desk_models(), ids=lambda m: m.family)
    def test_passing_the_record_changes_no_report(self, model):
        # One wide grid shared by every alpha, as on an explicit-grid sweep.
        tol = Tolerances(eigenstate=1e-7)
        alphas = (0.0, 0.1, -0.1 + 0.2j)
        edges = [auto_grid(model, alpha) for alpha in alphas]
        grid = make_grid(min(g.q_min for g in edges), max(g.q_max for g in edges), 4001)
        fields = grid_fields(model, grid)
        assert (verify_model(model, grid, tol, fields=fields).to_text()
                == verify_model(model, grid, tol).to_text())
        for alpha in alphas:
            assert (verify_coherent(model, alpha, grid, tol, fields=fields).to_text()
                    == verify_coherent(model, alpha, grid, tol).to_text())

    def test_a_record_for_another_model_or_grid_is_refused(self):
        m = make_generalized_morse(1.0, 0.5)
        grid = auto_grid(m)
        for other in (grid_fields(make_harmonic(), grid), grid_fields(m, replace(grid, n=2001)),
                      grid_fields(make_generalized_morse(1.0, 0.25), grid)):
            with pytest.raises(InvalidParameterError, match="another model or grid"):
                verify_model(m, grid, fields=other)
            with pytest.raises(InvalidParameterError, match="another model or grid"):
                verify_coherent(m, 0.1, grid, fields=other)

    def test_passing_the_normalized_samples_changes_no_report(self):
        m = make_generalized_morse(1.0, 0.5)
        grid = auto_grid(m, 0.1)
        fields = grid_fields(m, grid)
        samples, _ = fields.normalized(0.1)
        assert (verify_coherent(m, 0.1, grid, fields=fields, normalized=samples).to_text()
                == verify_coherent(m, 0.1, grid).to_text())
        elsewhere, _ = grid_fields(m, replace(grid, n=2001)).normalized(0.1)
        with pytest.raises(InvalidParameterError, match="another grid"):
            verify_coherent(m, 0.1, grid, fields=fields, normalized=elsewhere)

    def test_inadmissible_alpha_is_refused_before_the_grid(self):
        from anhosc.errors import InadmissibleAlphaError
        m = make_kratzer_fues(0.5)
        outside = make_grid(-3.0, 10.0, 101)  # crosses the q = -2 boundary
        with pytest.raises(InadmissibleAlphaError, match="state not normalizable"):
            verify_coherent(m, 5.0, outside)


# SHA-256 of verify_model / verify_coherent reports for the README desk
# models, recorded before verification sampled each state once. Sharing the
# samples must not move a single digit of any report.
_PINNED_MODELS = {
    "harmonic": make_harmonic(),
    "morse": make_generalized_morse(1.0, 0.5),
    "weihua": make_wei_hua(0.2, 1.0, 0.5),
    "kratzer": make_kratzer_fues(0.5),
    "gkf": make_generalized_kratzer_fues(0.75, 0.5),
}

# (model, alpha or None for verify_model, grid, sha256). The grid is an n
# for auto_grid, or the hex edges of one explicit wide grid per model at
# n = 16001: the union of its auto grids for alpha 0, 0.1, -0.3, 0.2+0.3i.
_PINNED_REPORTS = [
    ('harmonic', None, 2001, '78df005da68d2ace37c776a534f6d8c69cd48a1ca3bbea358448d13da72a9c14'),
    ('harmonic', 0.1, 2001, '51c2d0f771f2983aa28b9abb370367964fe9b835b952d341dcc1ea04d662dbd7'),
    ('harmonic', -0.3, 2001, '9c09161402bec468c9023ea6466f881e75a94a0f2f4b8d153790deba4a2f37ef'),
    ('harmonic', (0.2+0.3j), 2001, 'd4c79a91ec385ff3a27057f1449fccc3ca3bdca583ed77158ce015647fc0a5bc'),
    ('harmonic', None, 4001, '120d9141e183fe32b85e9b8100e5f53910ba244854f948099414f6d766d30b1b'),
    ('harmonic', 0.1, 4001, 'fbf71766313822efd07d078e9617a036b73d1aa4e2e066285ba43942e6b05213'),
    ('harmonic', -0.3, 4001, '7f71d5328541137b5545dce0b5197b8518ec0bd6eede33b56512cacbaad46ec7'),
    ('harmonic', (0.2+0.3j), 4001, '021af9f2d4a206ff804487cc8713cc36f48e5d40418f98fe78edc6ff015f632a'),
    ('morse', None, 2001, '227c3499ee999820ff1fff9e626d8bce5cb7edd365e17be9f8289e34934e054b'),
    ('morse', 0.1, 2001, '98bcdbf90f9a143c0e947e7d444b0e949685e13ca468a3c32359f25f01642c6d'),
    ('morse', -0.3, 2001, 'e64e7e607f7a7d585a6b518e46135529db9e9ab0be09e2a1e2bfd042beccd43d'),
    ('morse', (0.2+0.3j), 2001, 'eda1d66f165ea205486801874fa229f96aae6838bdc349c616cf1db449c881b8'),
    ('morse', None, 4001, '64523e2365308900b729c067383405b6f0e0a8c3fbc9a8a9cdb7e670e0da74ca'),
    ('morse', 0.1, 4001, 'bcad49b42bbb0dcffd305207f415d463f8bb0fef8c62797b74a7ea330379ac88'),
    ('morse', -0.3, 4001, 'a78fa5e446b6acc8e5f366bd206c5d6d6dab07aab291ebab6985cbbc780107c0'),
    ('morse', (0.2+0.3j), 4001, '04600348d95266e888b954e3d6d8363760126405a64c559be408faf2040327a1'),
    ('weihua', None, 2001, 'e38a0967c176de8884eb90b1633baa10bebf29262ee53f73dd90e48ae19e3eb8'),
    ('weihua', 0.1, 2001, 'bcecc707879485794283146b3fc3050154978a02c48f87daeff1b04202b305c2'),
    ('weihua', -0.3, 2001, '6455c777990c85074889490ffc7448b42de83b10560c55c46c5edb30f6608829'),
    ('weihua', None, 4001, 'b625c6baba2e072487ea324ddfc17c3ed5958f4675556d05d3695740af62e4e2'),
    ('weihua', 0.1, 4001, '0efcec559d4eb3a2d6582942278d3535a87bcd60f884346b26eee6bb732b8652'),
    ('weihua', -0.3, 4001, 'baa86d8cccbb5d6fb9372ecbf4dd4c8c4f805c4d5965cbcee0ec8bac1c95addc'),
    ('kratzer', None, 2001, '1c059c0f5cb556f6217371de1bd8d998ec48951f18cf75e4f2a6b02aa3ab9756'),
    ('kratzer', 0.1, 2001, '9950f26e5562c2fee38ff16feaa7176590783cd6d28004a7f4e75f7dfe89cd57'),
    ('kratzer', -0.3, 2001, '960d5e449d4ff10fded890bf376c4691ca61721d0dda7541f5d10becb4df9b2c'),
    ('kratzer', (0.2+0.3j), 2001, '5b7e74cfaf9e66fc2037107c820a8a42fa2616b54cf78972e7cd5fe39f9d11be'),
    ('kratzer', None, 4001, '2de8d14679c1ec53c7f7342b5ea871e509f3a31b136b900d9a9e529d9d814182'),
    ('kratzer', 0.1, 4001, '3a2ce986197de32f56c21c53e725e974f78ebb2de920e37c8f02ebcb1c7e0bbe'),
    ('kratzer', -0.3, 4001, '1a321bc5e4b79c9348f8bf754b86483e96cb8d25deeafba5a4080dfbfc9351a6'),
    ('kratzer', (0.2+0.3j), 4001, '1d0db0f319876e1886cb473bc25ebad0bddcf6e1ba19b020b2012fc2433b76f8'),
    ('gkf', None, 2001, '00b4a7620d44fa1c46a793d0ae64b87c2e6cfe5e9d7c764df90c4c6306c52e69'),
    ('gkf', 0.1, 2001, '6d6fda4912db1320794cb859a40a27c7f2f3218014bd9810e02966fb4a575fca'),
    ('gkf', -0.3, 2001, '3504ba134c6da3750a805a4e59af445334af072e2ee321e69d343efe8d901461'),
    ('gkf', (0.2+0.3j), 2001, '003a7a998d26589ecd5b2f1ae93e4500d16500eed9e65fe7fa7d4ca874253e8f'),
    ('gkf', None, 4001, '774f74776bf530350ee22652a52c96cd49d6ff9155247cc48f178a94b36afa54'),
    ('gkf', 0.1, 4001, '8fa601749a09d748c590ed408028622b05253bfa8e6ab579db30d260632d1c3c'),
    ('gkf', -0.3, 4001, '5a5dcb92ef8b9a15f2e211b52aa997cb394a797b9e4e3512c57bfa9584741373'),
    ('gkf', (0.2+0.3j), 4001, '92c8fdce29fa7cd135681420c5e87efa65932f46af4b494fe1a3ab1e65fb4b74'),
    ('harmonic', None, ('-0x1.0000000000000p+3', '0x1.0000000000000p+3'), '853082025b8b650225daffa8911cbae00e37af91afde4ed8eae003b65a38cf96'),
    ('harmonic', 0.1, ('-0x1.0000000000000p+3', '0x1.0000000000000p+3'), '0e614f628f7a6e0763a50c8add983ef67f41b978c9de9d7d7596c8ae86afbbc2'),
    ('harmonic', -0.3, ('-0x1.0000000000000p+3', '0x1.0000000000000p+3'), 'e60398d4a5186a9900272b14b90b42cf72e1f34b5fe54158d90e1756d02730e1'),
    ('harmonic', (0.2+0.3j), ('-0x1.0000000000000p+3', '0x1.0000000000000p+3'), '0e957b0d45e16a26f49ac2dce601d14f80226f58e9ca2920533ebda051733b38'),
    ('morse', None, ('-0x1.8000000000000p+1', '0x1.545e373f8c24bp+5'), 'b2ac261ce6150b243b304861cbeab87f13c7613e3f3e7a0fce1ec59b53a5c835'),
    ('morse', 0.1, ('-0x1.8000000000000p+1', '0x1.545e373f8c24bp+5'), 'b5f198d381ec268e9d6d42c8fc242bae7c11a1d3c06b7911de58cd3c865b5e8b'),
    ('morse', -0.3, ('-0x1.8000000000000p+1', '0x1.545e373f8c24bp+5'), 'd10fbea5a3deffa2cae498b2a05a436289fe2d66ba6e7a38f2b5612286c023b2'),
    ('morse', (0.2+0.3j), ('-0x1.8000000000000p+1', '0x1.545e373f8c24bp+5'), '3fcf891b846a5458d911264bc6a98006a60e4cd276d523c355c3bd6b18438d8c'),
    ('weihua', None, ('-0x1.18fd1e73846a1p+0', '0x1.3808b55c4f354p+7'), '65f8923fd81d4708a7f4c7487aef53c45a54b91d3d12b543139a4b0e38da146d'),
    ('weihua', 0.1, ('-0x1.18fd1e73846a1p+0', '0x1.3808b55c4f354p+7'), '7028c5cf3beff0fd58b667bf5e98a0ce1d9c8dc005b1297ad59d1098f3f2fcec'),
    ('weihua', -0.3, ('-0x1.18fd1e73846a1p+0', '0x1.3808b55c4f354p+7'), 'f702c4bbe8ca5ed9a378ed36a3765a46a007309222231a8c9b968150734129e3'),
    ('kratzer', None, ('-0x1.ff7ced916872bp+0', '0x1.aca80d9ced704p+3'), '251decc8ed891fc3041185255e43111ea1f9b71e9fe23ae5068a9bf8c95d407e'),
    ('kratzer', 0.1, ('-0x1.ff7ced916872bp+0', '0x1.aca80d9ced704p+3'), 'a63cc6dcb880e9c99bbba7b5caa64c0d05b77eb96e7566eac40856ac65b6b67b'),
    ('kratzer', -0.3, ('-0x1.ff7ced916872bp+0', '0x1.aca80d9ced704p+3'), '68e2dd19b8425edb18623fde33719c83ff251c0d7f42bd897255887898234974'),
    ('kratzer', (0.2+0.3j), ('-0x1.ff7ced916872bp+0', '0x1.aca80d9ced704p+3'), 'fd07e852dca1bc94c9ab478970c3436863cd1fd986f056865ad50902649047e4'),
    ('gkf', None, ('-0x1.ff7ced916872bp+0', '0x1.aca80d9ced704p+3'), 'bf345d8c9c61ca997a91f50251d1dd417704f3543dea5095500b20ef3185207b'),
    ('gkf', 0.1, ('-0x1.ff7ced916872bp+0', '0x1.aca80d9ced704p+3'), '709f58d4018cf14a60b7c91865feffc2467bdf0b5a6523260b9036adc7c90561'),
    ('gkf', -0.3, ('-0x1.ff7ced916872bp+0', '0x1.aca80d9ced704p+3'), '7b400b729345b18f9aedc1d3ff2b81a4b33c7170c7726b76e76c0135b4377f90'),
    ('gkf', (0.2+0.3j), ('-0x1.ff7ced916872bp+0', '0x1.aca80d9ced704p+3'), '3d4405e25a75e7bfd180f466d39cd69bb33b82be705521484c00ec08337ac6d8'),
]


def _pinned_grid(model, alpha, spec):
    if isinstance(spec, int):
        return auto_grid(model, 0.0 if alpha is None else alpha, spec)
    return make_grid(float.fromhex(spec[0]), float.fromhex(spec[1]), 16001)


@pytest.mark.parametrize("name, alpha, grid, digest", _PINNED_REPORTS)
def test_verify_reports_are_pinned(name, alpha, grid, digest):
    model = _PINNED_MODELS[name]
    g = _pinned_grid(model, alpha, grid)
    if alpha is None:
        report = verify_model(model, g)
    else:
        report = verify_coherent(model, alpha, g)
    assert hashlib.sha256(report.to_text().encode()).hexdigest() == digest


@pytest.mark.parametrize("alpha, bound", [(None, 3.5), (0.1 + 0.2j, 3.75)])
def test_peak_memory_stays_below_the_complex_path(alpha, bound):
    # In complex arrays of the grid: the complex path of verify_model peaked
    # at 6 of them, and verify_coherent at 4 beside psi. verify_model now runs
    # in float64 (3), and verify_coherent reuses its work arrays (3, plus
    # half of one for |residual| or x^2).
    m = make_harmonic()
    g = make_grid(-10.0, 10.0, 64001)
    fields = grid_fields(m, g)
    psi = None if alpha is None else fields.normalized(alpha)[0]
    tracemalloc.start()
    try:
        if alpha is None:
            verify_model(m, g, fields=fields)
        else:
            verify_coherent(m, alpha, g, fields=fields, normalized=psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 16 * g.n


def _poison(workspace):
    """NaN in every array of the workspace, so that stale data would show."""
    for array in (workspace.state(None), workspace.state(0j), workspace.work(0),
                  workspace.work(1), workspace.work(2), workspace.real()):
        array.fill(np.nan)


class TestWorkspace:
    def test_one_workspace_per_n_reproduces_the_pinned_reports(self):
        # One workspace per point count serves every model, alpha and grid
        # (auto and explicit) of that count, refilled with NaN between calls.
        workspaces = {}
        for name, alpha, spec, digest in _PINNED_REPORTS:
            if alpha is None:
                continue
            model = _PINNED_MODELS[name]
            grid = _pinned_grid(model, alpha, spec)
            workspace = workspaces.setdefault(grid.n, Workspace(grid.n))
            _poison(workspace)
            text = verify_coherent(model, alpha, grid, workspace=workspace).to_text()
            assert hashlib.sha256(text.encode()).hexdigest() == digest, (name, alpha, spec)

    @pytest.mark.parametrize("model", desk_models(), ids=lambda m: m.family)
    def test_reuse_across_alphas_and_auto_grids_matches_fresh_calls(self, model):
        workspace = Workspace(4001)
        for alpha in (0.0, 0.1, -0.3, 0.1 + 0.3j, -0.1 - 0.2j):
            grid = auto_grid(model, alpha)
            _poison(workspace)
            assert (verify_coherent(model, alpha, grid, workspace=workspace).to_text()
                    == verify_coherent(model, alpha, grid).to_text())

    def test_reuse_on_an_explicit_grid_with_negative_zero_tails(self):
        # The harmonic [-40, 40] states underflow to -0.0 parts in their
        # tails, so their scaling takes np.divide; the CLI's dense sweep.
        m = make_harmonic()
        grid = make_grid(-40.0, 40.0, 16001)
        fields = grid_fields(m, grid)
        workspace = Workspace(grid.n)
        negative_zeros = 0
        for alpha in (0.0, 0.1, 0.05 + 0.1j, -0.1 - 0.2j, 0.3j):
            samples, norm = fields.normalized(alpha)
            parts = samples.values.view(np.float64)
            negative_zeros += np.count_nonzero((parts == 0.0) & np.signbit(parts))
            _poison(workspace)
            shared, shared_norm = fields.normalized(alpha, workspace=workspace)
            assert shared.values.tobytes() == samples.values.tobytes() and shared_norm == norm
            assert np.shares_memory(shared.values, workspace.state(alpha))
            _poison(workspace)
            assert (verify_coherent(m, alpha, grid, fields=fields, workspace=workspace).to_text()
                    == verify_coherent(m, alpha, grid).to_text())
        assert negative_zeros > 0

    def test_the_ground_state_takes_the_float_array(self):
        m = make_generalized_morse(1.0, 0.5)
        fields = grid_fields(m, auto_grid(m))
        workspace = Workspace(fields.grid.n)
        _poison(workspace)
        shared, norm = fields.normalized(workspace=workspace)
        fresh, fresh_norm = fields.normalized()
        assert shared.values.dtype == float and norm == fresh_norm
        assert shared.values.tobytes() == fresh.values.tobytes()
        assert np.shares_memory(shared.values, workspace.state(None))

    def test_a_workspace_for_another_point_count_is_refused(self):
        m = make_harmonic()
        grid = auto_grid(m, 0.1)
        with pytest.raises(InvalidParameterError, match="workspace holds 2001 points"):
            verify_coherent(m, 0.1, grid, workspace=Workspace(2001))
        with pytest.raises(InvalidParameterError, match="workspace holds 2001 points"):
            grid_fields(m, grid).normalized(0.1, workspace=Workspace(2001))

    def test_a_warm_workspace_allocates_less_than_half_a_complex_array(self):
        # Every full-size array of a second alpha is the workspace's: what is
        # left is a finiteness mask (1 byte a point) and scalars.
        m = make_harmonic()
        g = make_grid(-10.0, 10.0, 64001)
        fields = grid_fields(m, g)
        workspace = Workspace(g.n)
        verify_coherent(m, 0.1 + 0.2j, g, fields=fields, workspace=workspace)
        tracemalloc.start()
        try:
            verify_coherent(m, -0.2 + 0.1j, g, fields=fields, workspace=workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 16 * g.n

    def test_a_new_workspace_holds_what_the_per_alpha_path_peaked_at(self):
        # psi, three complex work arrays and one float64 array: 4.5 complex
        # arrays of the grid, as the path held before it wrote into a workspace.
        m = make_harmonic()
        g = make_grid(-10.0, 10.0, 64001)
        fields = grid_fields(m, g)
        tracemalloc.start()
        try:
            verify_coherent(m, 0.1 + 0.2j, g, fields=fields)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.75 * 16 * g.n


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [801, 16001])
def test_an_imaginary_part_at_the_limit_is_checked_or_refused_without_warnings(n):
    # Just inside the limit the checks stay finite (they fail: no grid
    # resolves such a phase); just beyond it the state is refused by name.
    m = make_harmonic()
    grid = make_grid(-8.0, 8.0, n)
    limit = states._im_alpha_limit(grid)
    report = verify_coherent(m, complex(0.1, 0.999 * limit), grid)
    assert all(math.isfinite(value) for _, value, _, _ in report.checks)
    assert not report.passed
    beyond = complex(0.1, -1.001 * limit)
    message = r"^\|Im\(alpha\)\| = .* reduce \|Im\(alpha\)\|$"
    for refuse in (lambda: verify_coherent(m, beyond, grid),
                   lambda: grid_fields(m, grid).sample(beyond),
                   lambda: states.coherent_state(m, beyond).sample(grid)):
        with pytest.raises(TruncationError, match=message):
            refuse()
