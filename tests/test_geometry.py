import numpy as np
import pytest

from qgeo.errors import (
    BadDims,
    BasepointMismatch,
    NonPositive,
    NotAntiHermitian,
    NotHermitian,
    NotTangent,
    SpectrumMismatch,
)
from qgeo.geometry import (
    _hermitian_basis,
    _omega_grams,
    AmbientTangent,
    GeometryContext,
    ambient_forms,
    ambient_tangent,
    brackets,
    chi,
    connection,
    hamiltonian_lift,
    inertia_inner,
    momentum_map,
    omega_rank,
    pair_terms,
    random_tangent,
    split,
    xi_field,
)
from qgeo.linalg import frobenius, sample_haar_unitary, sample_hermitian, trial_rng
from qgeo.states import (
    frame_to_state,
    gauge_act,
    make_spectrum,
    random_frame,
    random_gauge,
    random_gauge_algebra,
)
from qgeo.verify import _instance_terms, random_instance, representative_scalars


class TestAmbientForms:
    def test_self_pairing(self, mixed_frame, ctx, rng):
        x = random_tangent(mixed_frame, rng)
        g, w = ambient_forms(x, x, ctx)
        assert g == pytest.approx(2.0 * ctx.hbar * frobenius(x.x) ** 2, rel=1e-12)
        assert w == 0.0

    def test_compatible_pair(self, mixed_frame, ctx, rng):
        x = random_tangent(mixed_frame, rng)
        ix = AmbientTangent(1j * x.x, mixed_frame)
        g, w = ambient_forms(x, ix, ctx)
        assert g == pytest.approx(0.0, abs=1e-12)
        assert w == pytest.approx(2.0 * ctx.hbar * frobenius(x.x) ** 2, rel=1e-12)

    def test_cauchy_schwarz(self, mixed_frame, ctx, rng):
        for _ in range(20):
            x = random_tangent(mixed_frame, rng)
            y = random_tangent(mixed_frame, rng)
            g, w = ambient_forms(x, y, ctx)
            gx = ambient_forms(x, x, ctx).g
            gy = ambient_forms(y, y, ctx).g
            assert g * g + w * w <= gx * gy + 1e-9

    def test_basepoint_mismatch(self, rng, ctx):
        sigma = make_spectrum((0.7, 0.3))
        f1 = random_frame(sigma, 4, rng)
        f2 = random_frame(sigma, 4, rng)
        with pytest.raises(BasepointMismatch):
            ambient_forms(random_tangent(f1, rng), random_tangent(f2, rng), ctx)

    def test_tangent_validation(self, mixed_frame):
        with pytest.raises(NotTangent):
            ambient_tangent(np.ones_like(mixed_frame.psi), mixed_frame)


class TestInertia:
    def test_chi_is_unit(self, ctx):
        sigma = make_spectrum((0.5, 0.25), (1, 2))
        c = chi(sigma, ctx.hbar)
        assert inertia_inner(c, c, ctx) == pytest.approx(1.0, abs=1e-12)

    def test_chi_unit_other_hbar(self):
        ctx = GeometryContext(hbar=0.32)
        sigma = make_spectrum((0.7, 0.3))
        c = chi(sigma, 0.32)
        assert inertia_inner(c, c, ctx) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self, ctx):
        sigma = make_spectrum((0.7, 0.3))
        a = np.diag([1j, 0.0])
        b = np.diag([0.0, 1j])
        from qgeo.states import gauge_element
        assert inertia_inner(gauge_element(a, sigma), gauge_element(b, sigma), ctx) == 0.0

    def test_locked_inertia_matches_metric(self, mixed_frame, ctx, rng):
        for _ in range(10):
            xi = random_gauge_algebra(mixed_frame.sigma, rng)
            eta = random_gauge_algebra(mixed_frame.sigma, rng)
            lhs = inertia_inner(xi, eta, ctx)
            vx = AmbientTangent(mixed_frame.psi @ xi.xi, mixed_frame)
            vy = AmbientTangent(mixed_frame.psi @ eta.xi, mixed_frame)
            assert lhs == pytest.approx(ambient_forms(vx, vy, ctx).g, abs=1e-10)

    def test_spectrum_mismatch(self, ctx, rng):
        a = random_gauge_algebra(make_spectrum((0.7, 0.3)), rng)
        b = random_gauge_algebra(make_spectrum((0.6, 0.4)), rng)
        with pytest.raises(SpectrumMismatch):
            inertia_inner(a, b, ctx)

    def test_rejects_raw_arrays(self, ctx):
        # a raw array skips GaugeElement's checks: np.ones is neither
        # anti-Hermitian nor block-diagonal
        c = chi(make_spectrum((0.7, 0.3)), ctx.hbar)
        for xi, eta in ((c, np.ones((2, 2))), (np.ones((2, 2)), c), (c.xi, c.xi)):
            with pytest.raises(SpectrumMismatch):
                inertia_inner(xi, eta, ctx)

    @pytest.mark.parametrize("hbar", [0.0, -1.0, float("nan")])
    def test_chi_rejects_nonpositive_hbar(self, hbar):
        with pytest.raises(NonPositive):
            chi(make_spectrum((0.7, 0.3)), hbar)


class TestMomentumMap:
    def test_chi_value(self, ctx, rng):
        sigma = make_spectrum((0.7, 0.3), (1, 1))
        frame = random_frame(sigma, 4, rng)
        value = momentum_map(frame, chi(sigma, 1.0), ctx)
        assert value == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-10)

    def test_zero(self, mixed_frame, ctx):
        assert momentum_map(mixed_frame, np.zeros((3, 3)), ctx) == 0.0

    def test_equivariance(self, mixed_frame, ctx, rng):
        for _ in range(10):
            u = sample_haar_unitary(3, rng)
            xi = 1j * sample_hermitian(3, rng)
            lhs = momentum_map(mixed_frame.psi @ u, xi, ctx)
            rhs = momentum_map(mixed_frame, u @ xi @ u.conj().T, ctx)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_differential_is_symplectic_pairing(self, mixed_frame, ctx, rng):
        h = ctx.tol.fd_step
        for _ in range(10):
            xi = random_gauge_algebra(mixed_frame.sigma, rng)
            x = random_tangent(mixed_frame, rng)
            fd = (momentum_map(mixed_frame.psi + h * x.x, xi, ctx)
                  - momentum_map(mixed_frame.psi - h * x.x, xi, ctx)) / (2 * h)
            target = ambient_forms(
                AmbientTangent(mixed_frame.psi @ xi.xi, mixed_frame), x, ctx).w
            assert fd == pytest.approx(target, abs=1e-5 * max(1.0, abs(target)))

    def test_rejects_hermitian_argument(self, mixed_frame, ctx):
        with pytest.raises(NotAntiHermitian):
            momentum_map(mixed_frame, np.eye(3), ctx)


class TestConnection:
    def test_reproduces_gauge_directions(self, mixed_frame, ctx, rng):
        for _ in range(10):
            xi = random_gauge_algebra(mixed_frame.sigma, rng)
            vertical = AmbientTangent(mixed_frame.psi @ xi.xi, mixed_frame)
            out = connection(mixed_frame, vertical, ctx)
            assert frobenius(out.xi - xi.xi) <= 1e-10 * max(1.0, frobenius(xi.xi))

    def test_rank_one_case(self, rng, ctx):
        sigma = make_spectrum((1.0,))
        frame = random_frame(sigma, 4, rng)
        c = 0.37j
        vertical = AmbientTangent(frame.psi * c, frame)
        out = connection(frame, vertical, ctx)
        assert out.xi == pytest.approx(np.array([[c]]), abs=1e-12)

    def test_annihilates_horizontal(self, mixed_frame, ctx, rng):
        x = random_tangent(mixed_frame, rng)
        hor, _ = split(mixed_frame, x, ctx)
        assert frobenius(connection(mixed_frame, hor, ctx).xi) <= 1e-10

    def test_rejects_non_tangent(self, mixed_frame, ctx):
        with pytest.raises(NotTangent):
            connection(mixed_frame, np.ones_like(mixed_frame.psi), ctx)


class TestSplit:
    def test_vertical_input(self, mixed_frame, ctx, rng):
        xi = random_gauge_algebra(mixed_frame.sigma, rng)
        vertical = AmbientTangent(mixed_frame.psi @ xi.xi, mixed_frame)
        hor, xi_out = split(mixed_frame, vertical, ctx)
        assert frobenius(hor.x) <= 1e-10 * max(1.0, frobenius(vertical.x))
        assert np.allclose(mixed_frame.psi @ xi_out.xi, vertical.x, atol=1e-10)

    def test_reconstruction_exact(self, mixed_frame, ctx, rng):
        x = random_tangent(mixed_frame, rng)
        hor, xi = split(mixed_frame, x, ctx)
        # hor is defined as x - psi xi, so the sum returns x to the last ulp
        assert np.allclose(hor.x + mixed_frame.psi @ xi.xi, x.x, rtol=0, atol=1e-15)

    def test_returns_the_connection_value(self, mixed_frame, ctx, rng):
        x = random_tangent(mixed_frame, rng)
        _, xi = split(mixed_frame, x, ctx)
        assert xi.sigma is mixed_frame.sigma
        assert np.array_equal(xi.xi, connection(mixed_frame, x, ctx).xi)

    def test_idempotent(self, mixed_frame, ctx, rng):
        x = random_tangent(mixed_frame, rng)
        hor, _ = split(mixed_frame, x, ctx)
        hor2, xi2 = split(mixed_frame, hor, ctx)
        assert frobenius(hor2.x - hor.x) <= 1e-10 * max(1.0, frobenius(hor.x))
        assert frobenius(mixed_frame.psi @ xi2.xi) <= 1e-10 * max(1.0, frobenius(hor.x))

    def test_horizontal_orthogonal_to_gauge_directions(self, mixed_frame, ctx, rng):
        x = random_tangent(mixed_frame, rng)
        hor, _ = split(mixed_frame, x, ctx)
        for _ in range(10):
            xi = random_gauge_algebra(mixed_frame.sigma, rng)
            vertical = AmbientTangent(mixed_frame.psi @ xi.xi, mixed_frame)
            assert ambient_forms(hor, vertical, ctx).g == pytest.approx(0.0, abs=1e-9)

    def test_spin_lifts_are_horizontal(self, demo, ctx):
        spin, _, frame = demo
        for obs in (spin.sx, spin.sy):
            lift = hamiltonian_lift(obs, frame, ctx)
            hor, xi = split(frame, lift, ctx)
            assert frobenius(frame.psi @ xi.xi) <= 1e-12
            assert np.allclose(hor.x, lift.x)


class TestLift:
    def test_identity_observable_fully_vertical(self, mixed_frame, ctx):
        lift = hamiltonian_lift(np.eye(5), mixed_frame, ctx)
        value = connection(mixed_frame, lift, ctx)
        assert np.allclose(value.xi, np.eye(3) / (1j * ctx.hbar), atol=1e-12)

    def test_zero_observable(self, mixed_frame, ctx):
        lift = hamiltonian_lift(np.zeros((5, 5)), mixed_frame, ctx)
        assert frobenius(lift.x) == 0.0

    def test_sz_is_vertical_at_ensemble(self, demo, ctx):
        spin, _, frame = demo
        lift = hamiltonian_lift(spin.sz, frame, ctx)
        xi, _ = xi_field(spin.sz, frame, ctx)
        assert frobenius(lift.x - frame.psi @ xi.xi) <= 1e-10

    def test_rejects_non_hermitian(self, mixed_frame, ctx):
        with pytest.raises(NotHermitian):
            hamiltonian_lift(1j * np.eye(5), mixed_frame, ctx)


class TestXiField:
    def test_expectation_identity(self, rng):
        for hbar in (1.0, 0.32):
            ctx = GeometryContext(hbar=hbar)
            sigma = make_spectrum((0.5, 0.3, 0.2))
            frame = random_frame(sigma, 5, rng)
            a = sample_hermitian(5, rng)
            xi, _ = xi_field(a, frame, ctx)
            c = chi(sigma, hbar)
            lhs = np.sqrt(hbar / 2.0) * inertia_inner(c, xi, ctx)
            rho = frame_to_state(frame).rho
            assert lhs == pytest.approx(float(np.real(np.trace(a @ rho))), abs=1e-10)

    def test_pure_state_has_no_perp(self, rng, ctx):
        sigma = make_spectrum((1.0,))
        frame = random_frame(sigma, 4, rng)
        a = sample_hermitian(4, rng)
        _, perp = xi_field(a, frame, ctx)
        assert frobenius(perp.xi) <= 1e-12

    def test_sz_perp_norm_at_ensemble(self, demo, ctx):
        spin, _, frame = demo
        _, perp = xi_field(spin.sz, frame, ctx)
        assert inertia_inner(perp, perp, ctx) == pytest.approx(0.42, abs=1e-10)


class TestBrackets:
    def test_self_bracket(self, mixed_frame, ctx, rng):
        a = sample_hermitian(5, rng)
        g, w = brackets(a, a, mixed_frame, ctx)
        assert g >= 0.0
        assert w == 0.0

    def test_spin_pair_values(self, demo, ctx):
        spin, _, frame = demo
        g, w = brackets(spin.sx, spin.sy, frame, ctx)
        assert g == pytest.approx(0.0, abs=1e-12)
        assert w == pytest.approx(0.7, abs=1e-12)
        gxx, _ = brackets(spin.sx, spin.sx, frame, ctx)
        assert gxx == pytest.approx(1.3, abs=1e-12)

    def test_omega_matches_commutator_trace(self, mixed_frame, ctx, rng):
        for _ in range(10):
            a = sample_hermitian(5, rng)
            b = sample_hermitian(5, rng)
            _, w = brackets(a, b, mixed_frame, ctx)
            rho = frame_to_state(mixed_frame).rho
            direct = float(np.real(np.trace((a @ b - b @ a) @ rho) / 2j))
            assert 0.5 * ctx.hbar * w == pytest.approx(direct, abs=1e-9)


class TestPairTerms:
    def test_matches_ambient_oracle(self):
        # 240 random instances against the lift/split/connection pipeline and
        # the conjugated-representative recomputation; differences are
        # relative to max(1, |oracle value|)
        seen = {"rank_deficient": 0, "degenerate_multi_block": 0,
                "full_rank_single_block": 0}
        worst = 0.0
        for trial in range(240):
            rng = trial_rng(2024, trial)
            hbar = 1.0 if trial % 2 == 0 else 0.32
            ctx = GeometryContext(hbar=hbar)
            frame, a, b = random_instance(rng, 8)
            sigma = frame.sigma
            seen["rank_deficient"] += sigma.k < frame.n
            seen["degenerate_multi_block"] += sigma.l > 1 and max(sigma.mults) > 1
            seen["full_rank_single_block"] += sigma.k == frame.n and sigma.l == 1

            t = pair_terms(a, b, frame, ctx)
            ref, _ = _instance_terms(a, b, frame, ctx)
            root = np.sqrt(2.0 / hbar)  # chi . xi_A = sqrt(2/hbar) <A>
            got = {"g_ab": t.g_ab, "w_ab": t.w_ab, "g_aa": t.g_aa, "g_bb": t.g_bb,
                   "pa_pb": t.pa_pb, "pa_pa": t.pa_pa, "pb_pb": t.pb_pb,
                   "chi_a": root * t.exp_a, "chi_b": root * t.exp_b,
                   "xa_xb": t.pa_pb + root * root * t.exp_a * t.exp_b}
            u = sample_haar_unitary(sigma.k, rng)
            tilde = representative_scalars(a, b, frame, u, hbar)
            for oracle in (ref, tilde):
                for key, value in oracle.items():
                    if key in got:
                        worst = max(worst, abs(got[key] - value) / max(1.0, abs(value)))
            rho = frame_to_state(frame).rho
            for exp, second, obs in ((t.exp_a, t.second_a, a), (t.exp_b, t.second_b, b)):
                worst = max(worst, abs(exp - np.trace(obs @ rho).real) / max(1.0, abs(exp)),
                            abs(second - np.trace(obs @ obs @ rho).real) / max(1.0, second))
        assert all(count > 0 for count in seen.values()), seen
        assert worst <= 1e-12

    def test_exact_symmetries(self, mixed_frame, ctx, rng):
        a = sample_hermitian(5, rng)
        b = sample_hermitian(5, rng)
        ab = pair_terms(a, b, mixed_frame, ctx)
        ba = pair_terms(b, a, mixed_frame, ctx)
        assert ab.g_ab == ba.g_ab
        assert ab.w_ab == -ba.w_ab
        assert pair_terms(a, a, mixed_frame, ctx).w_ab == 0.0

    def test_pure_state_has_no_perp(self, rng, ctx):
        frame = random_frame(make_spectrum((1.0,)), 4, rng)
        t = pair_terms(sample_hermitian(4, rng), sample_hermitian(4, rng), frame, ctx)
        # M_A is the 1 x 1 matrix <A>: only round-off of its imaginary part is left
        assert max(abs(t.pa_pa), abs(t.pb_pb), abs(t.pa_pb)) <= 1e-28

    def test_wrong_dimension_is_bad_dims(self, mixed_frame, ctx, rng):
        small = sample_hermitian(3, rng)
        good = sample_hermitian(5, rng)
        with pytest.raises(BadDims, match="observable A"):
            pair_terms(small, good, mixed_frame, ctx)
        with pytest.raises(BadDims, match="observable B"):
            brackets(good, small, mixed_frame, ctx)

    def test_rejects_non_hermitian(self, mixed_frame, ctx):
        with pytest.raises(NotHermitian):
            pair_terms(1j * np.eye(5), np.eye(5), mixed_frame, ctx)


class TestGaugeInvariance:
    def test_scalars_invariant(self, mixed_frame, rng, ctx):
        a = sample_hermitian(5, rng)
        b = sample_hermitian(5, rng)
        u = random_gauge(mixed_frame.sigma, rng)
        moved = gauge_act(mixed_frame, u)
        for frame_pair in ((mixed_frame, moved),):
            f0, f1 = frame_pair
            assert brackets(a, b, f0, ctx).g == pytest.approx(brackets(a, b, f1, ctx).g, abs=1e-9)
            assert brackets(a, b, f0, ctx).w == pytest.approx(brackets(a, b, f1, ctx).w, abs=1e-9)
            xi0, p0 = xi_field(a, f0, ctx)
            xi1, p1 = xi_field(a, f1, ctx)
            eta0, q0 = xi_field(b, f0, ctx)
            eta1, q1 = xi_field(b, f1, ctx)
            assert inertia_inner(xi0, eta0, ctx) == pytest.approx(
                inertia_inner(xi1, eta1, ctx), abs=1e-9)
            assert inertia_inner(p0, q0, ctx) == pytest.approx(
                inertia_inner(p1, q1, ctx), abs=1e-9)

    def test_scalars_invariant_nonabelian_gauge(self, rng, ctx):
        # two multiplicity blocks of sizes 2 and 3: gauge group U(2) x U(3)
        sigma = make_spectrum((0.26, 0.16), (2, 3))
        frame = random_frame(sigma, 7, rng)
        a = sample_hermitian(7, rng)
        b = sample_hermitian(7, rng)
        u = random_gauge(sigma, rng)
        moved = gauge_act(frame, u)
        assert brackets(a, b, frame, ctx).g == pytest.approx(
            brackets(a, b, moved, ctx).g, abs=1e-9)
        _, p0 = xi_field(a, frame, ctx)
        _, p1 = xi_field(a, moved, ctx)
        _, q0 = xi_field(b, frame, ctx)
        _, q1 = xi_field(b, moved, ctx)
        assert inertia_inner(p0, q0, ctx) == pytest.approx(
            inertia_inner(p1, q1, ctx), abs=1e-9)

    def test_xi_transforms_by_conjugation(self, mixed_frame, rng, ctx):
        a = sample_hermitian(5, rng)
        u = random_gauge(mixed_frame.sigma, rng)
        moved = gauge_act(mixed_frame, u)
        xi0, _ = xi_field(a, mixed_frame, ctx)
        xi1, _ = xi_field(a, moved, ctx)
        assert frobenius(xi1.xi - u.conj().T @ xi0.xi @ u) <= 1e-10

    def test_representative_independence(self, mixed_frame, rng, ctx):
        a = sample_hermitian(5, rng)
        b = sample_hermitian(5, rng)
        u = sample_haar_unitary(3, rng)
        tilde = representative_scalars(a, b, mixed_frame, u, ctx.hbar)
        assert tilde["g_ab"] == pytest.approx(brackets(a, b, mixed_frame, ctx).g, abs=1e-9)
        assert tilde["w_ab"] == pytest.approx(brackets(a, b, mixed_frame, ctx).w, abs=1e-9)
        xi_a, perp_a = xi_field(a, mixed_frame, ctx)
        xi_b, perp_b = xi_field(b, mixed_frame, ctx)
        assert tilde["xa_xb"] == pytest.approx(inertia_inner(xi_a, xi_b, ctx), abs=1e-9)
        assert tilde["pa_pb"] == pytest.approx(inertia_inner(perp_a, perp_b, ctx), abs=1e-9)
        c = chi(mixed_frame.sigma, ctx.hbar)
        assert tilde["chi_a"] == pytest.approx(inertia_inner(c, xi_a, ctx), abs=1e-9)


class TestDiagnostics:
    def test_omega_rank_nondegenerate(self, rng, ctx):
        sigma = make_spectrum((0.7, 0.3))
        frame = random_frame(sigma, 3, rng)
        rank_w, rank_g = omega_rank(frame, ctx)
        assert rank_w == rank_g  # reduced form nondegenerate at this point
        # orbit dim = dim U(3) - dim stabilizer(diag(0.7, 0.3, 0)) = 9 - 3
        assert rank_g == 6

    def test_omega_rank_degenerate(self, mixed_frame, ctx):
        rank_w, rank_g = omega_rank(mixed_frame, ctx)
        # stabilizer of diag(0.5, 0.25, 0.25, 0, 0) is U(1) x U(2) x U(2)
        assert rank_w == rank_g == 25 - (1 + 4 + 4)

    @pytest.mark.parametrize("full_rank", [False, True])
    def test_omega_grams_match_pairwise_loop(self, mixed_frame, rng, full_rank):
        # reference: one lift, one split and one ambient_forms call per pair
        ctx = GeometryContext(hbar=0.32)
        frame = random_frame(make_spectrum((0.5, 0.3, 0.2)), 3, rng) if full_rank else mixed_frame
        basis = _hermitian_basis(frame.n)
        lifts = [hamiltonian_lift(a, frame, ctx) for a in basis]
        hors = [split(frame, x, ctx)[0] for x in lifts]
        d = len(basis)
        ref_w = np.array([[ambient_forms(lifts[i], lifts[j], ctx).w for j in range(d)]
                          for i in range(d)])
        ref_g = np.array([[ambient_forms(hors[i], hors[j], ctx).g for j in range(d)]
                          for i in range(d)])
        gram_w, gram_g = _omega_grams(frame, ctx)
        assert np.max(np.abs(gram_w - ref_w)) <= 1e-12
        assert np.max(np.abs(gram_g - ref_g)) <= 1e-12
        assert np.array_equal(gram_w, -gram_w.T) and np.array_equal(gram_g, gram_g.T)

        def rank(sym):
            values = np.linalg.eigvalsh(sym)
            return int(np.sum(np.abs(values) > 1e-9 * np.max(np.abs(values))))

        assert omega_rank(frame, ctx) == (rank(1j * ref_w), rank(ref_g))

    def test_context_requires_positive_hbar(self):
        with pytest.raises(NonPositive):
            GeometryContext(hbar=0.0)
