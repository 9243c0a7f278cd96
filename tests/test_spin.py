import numpy as np
import pytest

from qgeo.errors import (
    BadSpin,
    NonPositive,
    NotDescending,
    NotNormalized,
)
from qgeo.geometry import GeometryContext, brackets, inertia_inner, xi_field
from qgeo.linalg import frobenius
from qgeo.spin import (
    abcd_experiment,
    build_ensemble,
    build_spin,
    closed_forms,
    ensemble_spec,
)
from qgeo.uncertainty import moments


class TestBuildSpin:
    def test_spin_half_matches_pauli(self):
        spin = build_spin(0.5)
        assert np.allclose(spin.sx, 0.5 * np.array([[0, 1], [1, 0]]))
        assert np.allclose(spin.sy, 0.5 * np.array([[0, -1j], [1j, 0]]))
        assert np.allclose(spin.sz, 0.5 * np.diag([1, -1]))

    def test_spin_one_matrices(self):
        spin = build_spin(1.0)
        tri = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / np.sqrt(2)
        assert np.allclose(spin.sx, tri)
        assert np.allclose(spin.sz, np.diag([1.0, 0.0, -1.0]))

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 3.5])
    def test_algebra(self, s):
        spin = build_spin(s)
        comm = spin.sx @ spin.sy - spin.sy @ spin.sx
        assert frobenius(comm - 1j * spin.sz) <= 1e-12
        comm = spin.sy @ spin.sz - spin.sz @ spin.sy
        assert frobenius(comm - 1j * spin.sx) <= 1e-12
        total = spin.sx @ spin.sx + spin.sy @ spin.sy + spin.sz @ spin.sz
        assert frobenius(total - s * (s + 1) * np.eye(spin.dim)) <= 1e-12

    def test_hbar_scales_linearly(self):
        assert np.allclose(build_spin(1.0, 0.32).sx, 0.32 * build_spin(1.0).sx)

    def test_ladder_adjointness(self):
        spin = build_spin(1.5)
        assert np.allclose(spin.sminus, spin.splus.conj().T)

    def test_rejects_bad_spin(self):
        with pytest.raises(BadSpin):
            build_spin(0.7)
        with pytest.raises(BadSpin):
            build_spin(-0.5)


class TestEnsembleSpec:
    def test_valid(self):
        spec = ensemble_spec(1.5, (1.5, -0.5), (0.9, 0.1))
        assert spec.k == 2

    def test_rejects_out_of_range_m(self):
        with pytest.raises(BadSpin):
            ensemble_spec(1.0, (2.0, 0.0), (0.7, 0.3))

    def test_rejects_non_half_integer_offset(self):
        with pytest.raises(BadSpin):
            ensemble_spec(1.0, (0.5, 0.0), (0.7, 0.3))

    def test_rejects_repeats(self):
        with pytest.raises(BadSpin):
            ensemble_spec(1.0, (1.0, 1.0), (0.7, 0.3))

    def test_rejects_degenerate_weights(self):
        with pytest.raises(NotDescending):
            ensemble_spec(1.0, (1.0, 0.0), (0.5, 0.5))

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            ensemble_spec(1.0, (1.0, 0.0), (0.7, 0.2))

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositive):
            ensemble_spec(1.0, (1.0, 0.0), (1.3, -0.3))


class TestBuildEnsemble:
    def test_demo_state(self, demo_spec):
        state, frame = build_ensemble(demo_spec)
        assert np.allclose(state.rho, np.diag([0.7, 0.3, 0.0]))
        assert np.allclose(frame.psi.conj().T @ frame.psi, np.diag([0.7, 0.3]))
        assert np.allclose(frame.psi @ frame.psi.conj().T, state.rho)

    def test_pure_highest_weight(self):
        spec = ensemble_spec(1.0, (1.0,), (1.0,))
        state, frame = build_ensemble(spec)
        assert np.allclose(state.rho, np.diag([1.0, 0.0, 0.0]))
        assert frame.k == 1

    def test_m_order_follows_p(self):
        spec = ensemble_spec(1.0, (-1.0, 1.0), (0.8, 0.2))
        state, frame = build_ensemble(spec)
        assert state.rho[2, 2] == pytest.approx(0.8)
        assert frame.psi[2, 0] == pytest.approx(np.sqrt(0.8))


class TestClosedForms:
    def test_demo_values(self, demo_spec, ctx):
        forms = closed_forms(demo_spec, ctx)
        assert forms.sxsy_omega == pytest.approx(0.7, abs=1e-12)
        assert forms.sxsx_g == pytest.approx(1.3, abs=1e-12)
        assert forms.xi_sz_perp_sq == pytest.approx(0.42, abs=1e-12)
        assert forms.sz_exp == pytest.approx(0.7, abs=1e-12)

    def test_scales_with_hbar(self, demo_spec):
        hbar = 0.32
        forms = closed_forms(demo_spec, GeometryContext(hbar=hbar))
        assert forms.sxsy_omega == pytest.approx(0.7 * hbar, abs=1e-12)
        assert forms.xi_sz_perp_sq == pytest.approx(0.42 * hbar, abs=1e-12)

    def test_random_ensembles_agree_with_pipeline(self):
        rng = np.random.default_rng(2024)
        ctx = GeometryContext(hbar=1.0)
        for _ in range(25):
            s = int(rng.integers(1, 8)) / 2.0
            dim = int(round(2 * s + 1))
            k = int(rng.integers(1, dim + 1))
            slots = rng.choice(dim, size=k, replace=False)
            m_list = [s - int(i) for i in slots]
            raw = np.cumsum(rng.uniform(0.2, 1.0, size=k))[::-1]
            spec = ensemble_spec(s, m_list, raw / raw.sum())
            forms = closed_forms(spec, ctx)  # self-verifies at 1e-10
            spin = build_spin(s)
            state, frame = build_ensemble(spec)
            assert brackets(spin.sx, spin.sy, frame, ctx).w == pytest.approx(
                forms.sxsy_omega, abs=1e-9)
            assert brackets(spin.sx, spin.sx, frame, ctx).g == pytest.approx(
                forms.sxsx_g, abs=1e-9)
            _, perp = xi_field(spin.sz, frame, ctx)
            assert inertia_inner(perp, perp, ctx) == pytest.approx(
                forms.xi_sz_perp_sq, abs=1e-9)
            assert moments(spin.sz, state)[0] == pytest.approx(
                forms.sz_exp, abs=1e-9)


class TestAbcdExperiment:
    def test_demo_numbers(self, demo_spec, ctx):
        demo = abcd_experiment(demo_spec, 0.25, ctx)
        assert demo.window_holds
        assert demo.window_lower == pytest.approx(0.105, abs=1e-12)
        assert demo.window_upper == pytest.approx(1.3, abs=1e-12)
        ab, cd = demo.report_ab, demo.report_cd
        assert ab.dA * ab.dB == pytest.approx(0.7025, abs=1e-9)
        assert ab.geo_bound == pytest.approx(0.65, abs=1e-9)
        assert ab.rs_bound == pytest.approx(0.5975, abs=1e-9)
        assert ab.winner == "geometric"
        assert cd.dA * cd.dB == pytest.approx(0.86, abs=1e-9)
        assert cd.geo_bound == pytest.approx(0.35, abs=1e-9)
        assert cd.rs_bound == pytest.approx(0.4081666326391711, abs=1e-9)
        assert cd.winner == "robertson_schrodinger"
        assert demo.sxsy_product == pytest.approx(0.65, abs=1e-9)
        assert demo.sxsy_floor == pytest.approx(0.35, abs=1e-9)
        assert demo.sxsy_product >= demo.sxsy_floor

    def test_window_violation_reported(self, demo_spec, ctx):
        demo = abcd_experiment(demo_spec, 20.0, ctx)
        assert not demo.window_holds
        assert demo.window_lower > demo.window_upper

    def test_pure_ensemble_window_cannot_hold(self, ctx):
        spec = ensemble_spec(1.0, (1.0,), (1.0,))
        demo = abcd_experiment(spec, 0.25, ctx)
        assert not demo.window_holds  # xi_sz_perp vanishes on a pure state
        assert demo.window_lower == pytest.approx(0.0, abs=1e-15)

    def test_rejects_nonpositive_eps(self, demo_spec, ctx):
        with pytest.raises(NonPositive):
            abcd_experiment(demo_spec, 0.0, ctx)

    def test_winners_hold_across_random_windows(self, ctx):
        rng = np.random.default_rng(99)
        count = 0
        for _ in range(40):
            s = int(rng.integers(2, 8)) / 2.0
            dim = int(round(2 * s + 1))
            k = int(rng.integers(2, dim + 1))
            slots = rng.choice(dim, size=k, replace=False)
            m_list = [s - int(i) for i in slots]
            raw = np.cumsum(rng.uniform(0.2, 1.0, size=k))[::-1]
            spec = ensemble_spec(s, m_list, raw / raw.sum())
            eps = float(rng.uniform(0.01, 1.0 / (2 * s)))
            demo = abcd_experiment(spec, eps, ctx)  # raises if winners flip
            count += demo.window_holds
        assert count > 0  # the window actually held on some draws
