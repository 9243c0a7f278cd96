import numpy as np
import pytest

import qgeo.linalg
from qgeo.errors import BadDims, IdentityViolation, NotHermitian, SpectrumDrift
from qgeo.geometry import GeometryContext, ambient_forms, brackets, hamiltonian_lift, xi_field
from qgeo.linalg import sample_hermitian, unitary_exponential_family
from qgeo.spin import build_ensemble, build_spin
from qgeo.states import (
    DensityState,
    density_state,
    frame_to_state,
    make_spectrum,
    purify,
    random_frame,
)
from qgeo.uncertainty import (
    classify,
    combined_bound,
    decomposition,
    evolve,
    geometric_bound,
    moments,
    rs_bound,
)


class TestMoments:
    def test_identity_observable(self, demo):
        _, state, _ = demo
        exp, delta = moments(np.eye(3), state)
        assert exp == pytest.approx(1.0, abs=1e-14)
        assert delta == 0.0

    def test_commuting_mixture_gives_classical_variance(self, rng):
        sigma = make_spectrum((0.6, 0.4))
        frame = random_frame(sigma, 4, rng)
        state = frame_to_state(frame)
        # an observable diagonal in the state's eigenbasis
        vecs = purify(state).psi / np.sqrt(sigma.full)[None, :]
        eigs = np.array([1.5, -0.5])
        a = (vecs * eigs) @ vecs.conj().T
        exp, delta = moments(a, state)
        p = sigma.full
        assert exp == pytest.approx(float(np.sum(p * eigs)), abs=1e-10)
        classical = float(np.sum(p * eigs**2) - np.sum(p * eigs) ** 2)
        assert delta**2 == pytest.approx(classical, abs=1e-10)

    def test_spin_ensemble_sx(self, demo):
        spin, state, _ = demo
        exp, delta = moments(spin.sx, state)
        assert exp == pytest.approx(0.0, abs=1e-14)
        assert delta == pytest.approx(np.sqrt(0.65), abs=1e-12)

    def test_spin_ensemble_sx_hbar_scaling(self, demo_spec):
        hbar = 0.32
        spin = build_spin(1.0, hbar)
        state, _ = build_ensemble(demo_spec)
        _, delta = moments(spin.sx, state)
        assert delta == pytest.approx(np.sqrt(0.65) * hbar, abs=1e-12)

    def test_rejects_non_hermitian(self, demo):
        _, state, _ = demo
        with pytest.raises(NotHermitian):
            moments(1j * np.eye(3), state)


class TestRsBound:
    def test_equal_observables_give_variance(self, demo, rng):
        _, state, _ = demo
        a = sample_hermitian(3, rng)
        _, delta = moments(a, state)
        assert rs_bound(a, a, state) == pytest.approx(delta**2, abs=1e-12)

    def test_qubit_textbook_value(self):
        spin = build_spin(0.5)
        sigma = make_spectrum((1.0,))
        rho = np.diag([1.0, 0.0]).astype(complex)
        state = density_state(rho, sigma)
        value = rs_bound(spin.sx, spin.sy, state)
        assert value == pytest.approx(0.25, abs=1e-12)  # (hbar/2)|<Sz>| at hbar=1
        frame = purify(state)
        assert geometric_bound(spin.sx, spin.sy, frame) == pytest.approx(value, abs=1e-12)

    def test_demo_cd_value(self, demo):
        spin, state, _ = demo
        c = spin.sx + spin.sz
        d = spin.sy + spin.sz
        assert rs_bound(c, d, state) == pytest.approx(np.hypot(0.21, 0.35), abs=1e-12)


class TestGeometricBound:
    def test_demo_ab(self, demo, ctx):
        spin, _, frame = demo
        a = spin.sx + 0.5 * spin.sz
        b = spin.sx - 0.5 * spin.sz
        assert geometric_bound(a, b, frame, ctx) == pytest.approx(0.65, abs=1e-12)

    def test_demo_cd(self, demo, ctx):
        spin, _, frame = demo
        c = spin.sx + spin.sz
        d = spin.sy + spin.sz
        assert geometric_bound(c, d, frame, ctx) == pytest.approx(0.35, abs=1e-12)

    def test_pure_state_equals_rs(self, rng, ctx):
        sigma = make_spectrum((1.0,))
        for _ in range(10):
            frame = random_frame(sigma, 5, rng)
            a = sample_hermitian(5, rng)
            b = sample_hermitian(5, rng)
            geo = geometric_bound(a, b, frame, ctx)
            rs = rs_bound(a, b, frame_to_state(frame))
            assert geo == pytest.approx(rs, abs=1e-9 * max(1.0, rs))


class TestCombinedBound:
    def test_pure_state_equals_geo(self, rng, ctx):
        sigma = make_spectrum((1.0,))
        frame = random_frame(sigma, 4, rng)
        a = sample_hermitian(4, rng)
        b = sample_hermitian(4, rng)
        assert combined_bound(a, b, frame, ctx) == pytest.approx(
            geometric_bound(a, b, frame, ctx), abs=1e-12)

    def test_demo_pairs(self, demo, ctx):
        spin, _, frame = demo
        a = spin.sx + 0.5 * spin.sz
        b = spin.sx - 0.5 * spin.sz
        assert combined_bound(a, b, frame, ctx) == pytest.approx(0.65, abs=1e-9)
        c = spin.sx + spin.sz
        d = spin.sy + spin.sz
        assert combined_bound(c, d, frame, ctx) == pytest.approx(
            np.hypot(0.21, 0.35), abs=1e-9)

    def test_is_max_of_both(self, rng, ctx):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            raw = np.cumsum(rng.uniform(0.2, 1.0, size=k))[::-1]
            sigma = make_spectrum(raw / raw.sum())
            frame = random_frame(sigma, n, rng)
            a = sample_hermitian(n, rng)
            b = sample_hermitian(n, rng)
            combined = combined_bound(a, b, frame, ctx)
            geo = geometric_bound(a, b, frame, ctx)
            rs = rs_bound(a, b, frame_to_state(frame))
            assert combined == pytest.approx(max(geo, rs), abs=1e-9 * max(1.0, combined))


class TestDecomposition:
    def test_demo_ab_report(self, demo, ctx):
        spin, _, frame = demo
        a = spin.sx + 0.5 * spin.sz
        b = spin.sx - 0.5 * spin.sz
        report = decomposition(a, b, frame, ctx)
        assert report.dA * report.dB == pytest.approx(0.7025, abs=1e-12)
        assert report.geo_bound == pytest.approx(0.65, abs=1e-12)
        assert report.rs_bound == pytest.approx(0.5975, abs=1e-12)
        assert report.winner == "geometric"
        assert report.xiAperp_xiBperp == pytest.approx(-0.105, abs=1e-12)

    def test_parallel_equal_pair_ties(self, demo, ctx):
        spin, _, frame = demo
        report = decomposition(spin.sx, spin.sx, frame, ctx)
        # Sx is parallel here, so both bounds collapse onto dA^2
        assert report.winner == "tie"
        assert report.rs_bound == pytest.approx(report.dA**2, abs=1e-12)
        assert report.geo_bound == pytest.approx(report.dA**2, abs=1e-12)

    def test_perp_equal_pair_rs_wins(self, demo, ctx):
        spin, _, frame = demo
        # Sz is perpendicular at the ensemble: rs = dSz^2 > geo = 0
        report = decomposition(spin.sz, spin.sz, frame, ctx)
        assert report.winner == "robertson_schrodinger"
        assert report.geo_bound == pytest.approx(0.0, abs=1e-12)
        assert report.rs_bound == pytest.approx(report.dA**2, abs=1e-12)

    def test_dominance_random(self, rng, ctx):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            raw = np.cumsum(rng.uniform(0.2, 1.0, size=k))[::-1]
            sigma = make_spectrum(raw / raw.sum())
            frame = random_frame(sigma, n, rng)
            a = sample_hermitian(n, rng)
            b = sample_hermitian(n, rng)
            report = decomposition(a, b, frame, ctx)
            product = report.dA * report.dB
            slack = 1e-9 * max(1.0, product)
            assert product >= report.geo_bound - slack
            assert product >= report.rs_bound - slack
            assert product >= report.combined_bound - slack

    def test_validates_each_observable_once(self, mixed_frame, ctx, rng, monkeypatch):
        calls = []
        check = qgeo.linalg.check_hermitian

        def counting(*args, **kwargs):
            calls.append(kwargs.get("name", args[2] if len(args) > 2 else None))
            return check(*args, **kwargs)

        monkeypatch.setattr(qgeo.linalg, "check_hermitian", counting)
        a = sample_hermitian(5, rng)
        b = sample_hermitian(5, rng)
        decomposition(a, b, mixed_frame, ctx)
        assert len(calls) == 2
        decomposition(a, a, mixed_frame, ctx)
        assert len(calls) == 4

    def test_identity_checks_use_the_trace_side(self, demo, ctx, monkeypatch):
        # a kernel that disagrees with the traces against rho must be caught
        import qgeo.uncertainty

        spin, _, frame = demo
        true = qgeo.uncertainty.pair_terms

        def skewed(*args, **kwargs):
            return true(*args, **kwargs)._replace(g_aa=5.0)

        monkeypatch.setattr(qgeo.uncertainty, "pair_terms", skewed)
        with pytest.raises(IdentityViolation, match="uncertainty-product"):
            decomposition(spin.sx, spin.sy, frame, ctx)


class TestDimensionErrors:
    """A wrong-size observable is BadDims everywhere, not a numpy error."""

    def test_decomposition(self, mixed_frame, ctx, rng):
        with pytest.raises(BadDims, match="observable B"):
            decomposition(sample_hermitian(5, rng), np.eye(3), mixed_frame, ctx)

    def test_bounds(self, mixed_frame, ctx, rng):
        with pytest.raises(BadDims):
            geometric_bound(np.eye(3), sample_hermitian(5, rng), mixed_frame, ctx)
        with pytest.raises(BadDims):
            combined_bound(np.eye(6), sample_hermitian(5, rng), mixed_frame, ctx)

    def test_moments(self, demo):
        _, state, _ = demo
        with pytest.raises(BadDims, match="dimension 3"):
            moments(np.eye(2), state)

    def test_rs_bound(self, demo):
        spin, state, _ = demo
        with pytest.raises(BadDims, match="observable A"):
            rs_bound(np.eye(2), spin.sx, state)
        with pytest.raises(BadDims, match="observable B"):
            rs_bound(spin.sx, np.eye(4), state)

    def test_evolve_hamiltonian(self, demo, ctx):
        _, state, _ = demo
        with pytest.raises(BadDims, match="hamiltonian"):
            evolve(np.eye(2), state, t=0.1, steps=4, ctx=ctx)

    def test_evolve_probe(self, demo, ctx):
        spin, state, _ = demo
        with pytest.raises(BadDims, match="probe 'B'"):
            evolve(spin.sx, state, t=0.1, steps=4, ctx=ctx, probes={"B": np.eye(2)})

    @pytest.mark.parametrize("oracle", [hamiltonian_lift, xi_field, classify])
    def test_oracle_observable(self, oracle, ctx, rng):
        frame = random_frame(make_spectrum((0.6, 0.4)), 4, rng)
        with pytest.raises(BadDims, match="dimension 4"):
            oracle(sample_hermitian(5, rng), frame, ctx)


class TestClassify:
    def test_sx_parallel(self, demo, ctx):
        spin, _, frame = demo
        assert classify(spin.sx, frame, ctx) == "parallel"

    def test_sz_perpendicular(self, demo, ctx):
        spin, _, frame = demo
        assert classify(spin.sz, frame, ctx) == "perpendicular"

    def test_mixed_generic(self, demo, ctx):
        spin, _, frame = demo
        assert classify(spin.sx + spin.sz, frame, ctx) == "generic"

    def test_zero_lift_parallel(self, demo, ctx):
        _, _, frame = demo
        assert classify(np.zeros((3, 3)), frame, ctx) == "parallel"


class TestEvolve:
    def test_identity_hamiltonian_constant(self, demo, ctx):
        spin, state, _ = demo
        result = evolve(np.eye(3), state, t=1.0, steps=10, ctx=ctx,
                        probes={"Sz": spin.sz})
        assert result.max_drift <= 1e-12
        series = result.expectations["Sz"]
        assert np.allclose(series, series[0], atol=1e-12)

    def test_commuting_hamiltonian_constant(self, demo, ctx):
        spin, state, _ = demo
        result = evolve(spin.sz, state, t=1.0, steps=10, ctx=ctx,
                        probes={"Sz": spin.sz})
        series = result.expectations["Sz"]
        assert np.allclose(series, series[0], atol=1e-12)

    def test_spin_flow_derivative(self, demo, ctx):
        spin, state, _ = demo
        result = evolve(spin.sx, state, t=0.5, steps=100, ctx=ctx,
                        probes={"Sz": spin.sz})
        assert result.max_drift <= 1e-12
        assert result.max_flow_residual <= 1e-5

    def test_states_are_built_on_first_access(self, demo, ctx):
        spin, state, _ = demo
        result = evolve(spin.sx, state, t=0.5, steps=10, ctx=ctx)
        assert "states" not in vars(result)
        assert len(result.states) == 11 and result.states is result.states
        for rho_j, state_j in zip(result.rho, result.states):
            assert np.array_equal(state_j.rho, rho_j) and state_j.sigma is state.sigma

    def test_flow_derivative_matches_bracket_sign(self, demo, ctx):
        spin, state, _ = demo
        result = evolve(spin.sx, state, t=0.01, steps=2, ctx=ctx,
                        probes={"Sz": spin.sz})
        mid = purify(result.states[1])
        w = brackets(spin.sz, spin.sx, mid, ctx).w
        fd = (result.expectations["Sz"][2] - result.expectations["Sz"][0]) / 0.01
        assert w != 0.0  # the flow genuinely moves <Sz> at the midpoint
        assert fd == pytest.approx(w, abs=1e-6)

    def test_spectrum_drift_detected(self, ctx):
        sigma = make_spectrum((0.7, 0.3))
        rho = np.diag([0.7 + 5e-9, 0.3 - 5e-9]).astype(complex)
        bad = DensityState(rho, sigma)  # bypasses validation on purpose
        with pytest.raises(SpectrumDrift) as info:
            evolve(np.eye(2), bad, t=0.1, steps=1, ctx=ctx)
        assert abs(info.value.drift - 5e-9) <= 1e-15

    def test_steps_validation(self, demo, ctx):
        _, state, _ = demo
        with pytest.raises(ValueError):
            evolve(np.eye(3), state, t=1.0, steps=0, ctx=ctx)

    @pytest.mark.parametrize("t", [0.0, np.nan, np.inf])
    def test_time_validation(self, demo, ctx, t):
        # t = 0 would make every central difference 0/0
        spin, state, _ = demo
        with pytest.raises(ValueError, match="finite and nonzero"):
            evolve(spin.sx, state, t=t, steps=4, ctx=ctx, probes={"Sz": spin.sz})

    def test_matches_per_step_geometric_reference(self, mixed_frame, rng):
        # rank-deficient, degenerate spectrum at hbar != 1; every step is
        # recomputed here with its own eigensolve and the ambient pairing of
        # the lifts at a fresh purification
        ctx = GeometryContext(hbar=0.32)
        state = frame_to_state(mixed_frame)
        h = sample_hermitian(5, rng)
        b = sample_hermitian(5, rng)
        t, steps = 0.2, 40
        result = evolve(h, state, t=t, steps=steps, ctx=ctx, probes={"B": b})

        lam, vec = np.linalg.eigh(h)
        padded = state.sigma.padded(5)
        times = np.linspace(0.0, t, steps + 1)
        exp_ref = np.zeros(steps + 1)
        for j, tj in enumerate(times):
            u = (vec * np.exp(-1j * lam * tj / ctx.hbar)) @ vec.conj().T
            rho_j = u @ state.rho @ u.conj().T
            drift_j = np.max(np.abs(np.linalg.eigh(rho_j)[0][::-1] - padded))
            assert abs(result.spectrum_drift[j] - drift_j) <= 1e-10
            exp_ref[j] = np.real(np.trace(b @ rho_j))
        assert np.max(np.abs(result.expectations["B"] - exp_ref)) <= 1e-10

        dt = times[1] - times[0]
        res_ref = np.zeros(steps - 1)
        for j in range(1, steps):
            fd = (exp_ref[j + 1] - exp_ref[j - 1]) / (2.0 * dt)
            frame = purify(result.states[j])
            w = ambient_forms(hamiltonian_lift(b, frame, ctx),
                              hamiltonian_lift(h, frame, ctx), ctx).w
            assert w != 0.0
            res_ref[j - 1] = abs(fd - w)
        assert np.max(np.abs(result.flow_residuals["B"] - res_ref)) <= 1e-10

    def test_checks_the_hamiltonian_once(self, demo, ctx, monkeypatch):
        # H is checked as an observable; its generator -iH/hbar is not checked again
        from qgeo.verify import RunConfig, run_exponential_suite

        spin, state, _ = demo
        labels = []
        check = qgeo.linalg._check_defect

        def recording(m, tol, name, *args, **kwargs):
            labels.append(name)
            return check(m, tol, name, *args, **kwargs)

        monkeypatch.setattr(qgeo.linalg, "_check_defect", recording)
        evolve(spin.sx, state, t=0.5, steps=10, ctx=ctx, probes={"Sz": spin.sz})
        assert labels.count("hamiltonian") == 1 and "generator" not in labels
        labels.clear()
        assert run_exponential_suite(RunConfig(seed=7, trials=20)).ok
        assert "generator" in labels

    def test_flow_is_the_checked_family(self, mixed_frame, rng):
        # the flow the exponential suite checks is the one evolve applies
        ctx = GeometryContext(hbar=0.32)
        state = frame_to_state(mixed_frame)
        h = sample_hermitian(5, rng)
        result = evolve(h, state, t=0.2, steps=8, ctx=ctx)
        flow = unitary_exponential_family(h / (1j * ctx.hbar), ctx.tol)(result.times)
        rho = flow @ state.rho @ flow.conj().swapaxes(-1, -2)
        assert np.array_equal(result.rho, 0.5 * (rho + rho.conj().swapaxes(-1, -2)))

    def test_hbar_dependence(self, demo, demo_spec):
        spin, state, _ = demo
        slow = evolve(spin.sx, state, t=0.3, steps=30,
                      ctx=GeometryContext(hbar=1.0), probes={"Sz": spin.sz})
        fast = evolve(spin.sx, state, t=0.3, steps=30,
                      ctx=GeometryContext(hbar=0.5), probes={"Sz": spin.sz})
        # smaller hbar advances the phase faster
        assert not np.allclose(slow.expectations["Sz"], fast.expectations["Sz"])
