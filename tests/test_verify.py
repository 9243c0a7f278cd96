import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgeo.cli
from qgeo.config import Tolerances
from qgeo.geometry import GeometryContext
from qgeo.linalg import trial_rng
from qgeo.uncertainty import classify
from qgeo.verify import (
    _bound_rows,
    _instance_terms,
    RunConfig,
    SuiteResult,
    parallel_observable,
    random_instance,
    random_spectrum,
    run_all,
    run_gauge_invariance_suite,
    run_identity_campaign,
    run_spin_demo_suite,
    run_spin_suites,
    summary,
)


class TestSuiteResult:
    def test_counts_and_worst(self):
        res = SuiteResult("demo")
        res.add(1e-12, 1e-9)
        res.add(2e-9, 1e-9)
        assert res.passed == 1 and res.failed == 1
        assert res.worst_residual == 2e-9
        assert not res.ok

    def test_fail_ignores_limit_and_keeps_measured_worst(self):
        res = SuiteResult("demo")
        res.fail()
        assert res.failed == 1 and res.worst_residual == 0.0
        res.add(0.5, 1.0)
        res.fail()
        assert res.failed == 2 and res.passed == 1 and res.worst_residual == 0.5

    def test_nan_residual_fails_and_keeps_worst(self):
        res = SuiteResult("demo")
        res.add(0.25, 1.0)
        res.add(float("nan"), 1.0)
        assert res.passed == 1 and res.failed == 1
        assert res.worst_residual == 0.25

    def test_records_the_first_failure(self):
        res = SuiteResult("demo")
        res.add(0.25, 1.0, trial=0)
        assert res.first_failure is None
        res.fail("NotGauge", trial=3)
        res.add(2.0, 1.0, trial=4)
        assert res.first_failure == ("NotGauge", 3) and res.failed == 2
        res = SuiteResult("demo")
        res.add(2.0, 1.0, trial=7)
        assert res.first_failure == ("residual", 7)


class TestGenerators:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 8))
    def test_random_spectrum_valid(self, seed, k):
        sigma = random_spectrum(trial_rng(seed), k)
        assert sigma.k == k
        assert abs(float(np.sum(sigma.full)) - 1.0) <= 1e-12
        assert np.all(np.diff(sigma.values) < 0) or sigma.l == 1

    def test_random_instance_shapes(self):
        frame, a, b = random_instance(trial_rng(5), 8)
        assert a.shape == (frame.n, frame.n)
        assert frame.sigma.k <= frame.n

    def test_parallel_observable_classifies(self):
        rng = trial_rng(17)
        ctx = GeometryContext()
        frame, a, _ = random_instance(rng, 6)
        while frame.sigma.l == 1 and frame.sigma.k == frame.n:
            frame, a, _ = random_instance(rng, 6)
        assert classify(parallel_observable(a, frame, ctx), frame, ctx) == "parallel"


class TestCampaign:
    def test_all_suites_green_and_deterministic(self):
        cfg = RunConfig(seed=7, trials=40, dim_max=6)
        first = summary(run_all(cfg))
        second = summary(run_all(cfg))
        assert first == second
        assert all(entry["fail"] == 0 for entry in first.values())
        assert first["identity_variance_product"]["pass"] == 40
        assert first["momentum_differential"]["pass"] == 8
        assert first["evolution_flow_derivative"]["pass"] == 2

    def test_trial_count_validation(self):
        # on construction, so no run_* entry point sees an invalid config
        with pytest.raises(ValueError, match="trials"):
            RunConfig(trials=0)
        with pytest.raises(ValueError, match="dim-max"):
            RunConfig(dim_max=1)
        with pytest.raises(ValueError, match="hbar"):
            RunConfig(hbar=-1.0)

    @pytest.mark.parametrize("scale", [1.0, 1e5])
    def test_drifting_trajectory_counts_as_failure(self, monkeypatch, scale):
        # at scale 1e5 the flow limit exceeds 1, so a stand-in residual
        # would pass; the drifted trial must still fail both suites
        import qgeo.verify
        from qgeo.errors import SpectrumDrift

        def drifting(*args, **kwargs):
            raise SpectrumDrift("state left its orbit", drift=0.25)

        monkeypatch.setattr(qgeo.verify, "evolve", drifting)
        cfg = RunConfig(seed=7, trials=20, dim_max=4, tol=Tolerances().scaled(scale))
        results = summary(run_all(cfg))
        assert results["evolution_spectrum_drift"]["fail"] == 1
        assert results["evolution_spectrum_drift"]["worst_residual"] == 0.25
        assert results["evolution_flow_derivative"]["fail"] == 1
        assert results["evolution_flow_derivative"]["worst_residual"] == 0.0
        assert results["identity_product"]["fail"] == 0

    def test_failed_spin_cross_check_counts_as_failure(self, monkeypatch):
        # at scale 1e9 the invariance and demo limits reach 1, so a stand-in
        # residual of 1 would pass
        import qgeo.verify
        from qgeo.errors import IdentityViolation

        def violating(*args, **kwargs):
            raise IdentityViolation("cross-check failed")

        monkeypatch.setattr(qgeo.verify, "closed_forms", violating)
        monkeypatch.setattr(qgeo.verify, "abcd_experiment", violating)
        cfg = RunConfig(seed=7, trials=10, tol=Tolerances().scaled(1e9))
        agreement, _ = run_spin_suites(cfg)
        demo = run_spin_demo_suite(cfg)
        assert agreement.failed == cfg.fifth and agreement.passed == 0
        assert demo.failed == 1 and demo.passed == 0

    def test_failed_oracle_counts_as_failure(self, monkeypatch):
        # _instance_terms feeds the identity, collapse, invariance and spin
        # agreement suites; at scale 1e9 a stand-in residual would pass
        import qgeo.verify
        from qgeo.errors import IdentityViolation

        def violating(*args, **kwargs):
            raise IdentityViolation("oracle failed")

        monkeypatch.setattr(qgeo.verify, "_instance_terms", violating)
        cfg = RunConfig(seed=7, trials=20, dim_max=4, tol=Tolerances().scaled(1e9))
        results = summary(run_all(cfg))
        expected = {name: cfg.trials for name in (
            "identity_expectation", "identity_product", "identity_covariance",
            "identity_variance_product", "identity_rs_decomposition", "cauchy_schwarz",
            "variance_floor", "bound_dominance", "combined_is_max",
            "omega_from_horizontal")}
        expected.update({name: cfg.fifth for name in (
            "pure_state_collapse", "parallel_collapse", "gauge_invariance",
            "representative_independence", "closed_form_agreement")})
        for name, trials in expected.items():
            assert results[name] == {"pass": 0, "fail": trials, "worst_residual": 0.0}, name
        unaffected = set(results) - set(expected)
        assert "spin_horizontality" in unaffected
        assert all(results[name]["fail"] == 0 for name in unaffected)

    def test_failing_trials_do_not_abort_the_campaign(self):
        # at 1e-3 x the tolerances the oracle's own self-checks raise; every
        # such trial is a failure of its suites and all 28 suites report
        cfg = RunConfig(seed=42, trials=200, tol=Tolerances().scaled(1e-3))
        results = run_all(cfg)
        assert len(results) == 28
        assert not all(r.ok for r in results)

    def test_failed_gauge_action_fails_only_its_trials(self, monkeypatch):
        import qgeo.verify
        from qgeo.errors import NotGauge

        def not_gauge(*args, **kwargs):
            raise NotGauge("U is not unitary within tolerance")

        monkeypatch.setattr(qgeo.verify, "gauge_act", not_gauge)
        cfg = RunConfig(seed=7, trials=20, dim_max=4)
        results = summary(run_all(cfg))
        # fiber_transitivity acts by a gauge element on its even trials only
        assert results["fiber_transitivity"]["fail"] == 2
        assert results["fiber_transitivity"]["pass"] == 2
        assert results["gauge_invariance"] == {"pass": 0, "fail": cfg.fifth,
                                               "worst_residual": 0.0}
        others = set(results) - {"fiber_transitivity", "gauge_invariance"}
        assert all(results[name]["fail"] == 0 for name in others)

    def test_exponential_suite_diagonalizes_once_per_trial(self, monkeypatch):
        import qgeo.verify

        calls = []
        family = qgeo.verify.unitary_exponential_family

        def counting(*args, **kwargs):
            calls.append(1)
            return family(*args, **kwargs)

        monkeypatch.setattr(qgeo.verify, "unitary_exponential_family", counting)
        cfg = RunConfig(seed=7, trials=20)
        res = qgeo.verify.run_exponential_suite(cfg)
        assert res.passed == cfg.fifth and len(calls) == cfg.fifth

    def test_identity_campaign_reports_all_suites(self):
        results = run_identity_campaign(RunConfig(seed=3, trials=10, dim_max=5))
        names = {r.name for r in results}
        assert {"identity_expectation", "identity_product", "identity_covariance",
                "identity_variance_product", "identity_rs_decomposition", "cauchy_schwarz",
                "variance_floor", "bound_dominance", "combined_is_max"} <= names


IDENTITY_SUITES = (
    "identity_expectation", "identity_product", "identity_covariance",
    "identity_variance_product", "identity_rs_decomposition", "cauchy_schwarz",
    "variance_floor", "bound_dominance", "combined_is_max", "omega_from_horizontal")


class TestStacking:
    """The stacked suites against the same trials evaluated one at a time."""

    @staticmethod
    def _run(monkeypatch, suite, cfg, singletons):
        import qgeo.verify

        rows, sizes = [], []
        add = SuiteResult.add
        stack = qgeo.verify.stack_frames

        def recording_add(self, residual, limit, trial=None):
            rows.append((self.name, trial, float(residual), float(residual) <= limit))
            add(self, residual, limit, trial)

        def recording_stack(frames, n):
            sizes.append(len(frames))
            return stack(frames, n)

        with monkeypatch.context() as m:
            m.setattr(SuiteResult, "add", recording_add)
            m.setattr(qgeo.verify, "stack_frames", recording_stack)
            if singletons:
                campaign = qgeo.verify._campaign
                m.setattr(qgeo.verify, "_campaign",
                          lambda *args, key=None, **kwargs: campaign(*args, **kwargs))
            getattr(qgeo.verify, suite)(cfg)
        return rows, sizes

    # rows per campaign of 39 trials: 10 identity suites, a fifth of the
    # trials for each collapse suite
    ROWS = {"run_identity_campaign": 390, "run_connection_suite": 39,
            "run_pure_collapse_suite": 7, "run_parallel_collapse_suite": 7}

    @pytest.mark.parametrize("suite", ["run_identity_campaign", "run_connection_suite",
                                       "run_pure_collapse_suite",
                                       "run_parallel_collapse_suite"])
    def test_stacks_match_stacks_of_one(self, monkeypatch, suite):
        stacked_seeds = 0
        for seed in range(8):
            cfg = RunConfig(seed=seed, trials=39, dim_max=8)
            stacked, sizes = self._run(monkeypatch, suite, cfg, singletons=False)
            single, single_sizes = self._run(monkeypatch, suite, cfg, singletons=True)
            assert set(single_sizes) == {1}
            stacked_seeds += max(sizes) > 1
            assert len(stacked) == len(single) == self.ROWS[suite]
            for (name, trial, resid, ok), (name1, trial1, resid1, ok1) in zip(stacked, single):
                assert (name, trial, ok) == (name1, trial1, ok1)
                assert abs(resid - resid1) <= 1e-13 * max(1.0, abs(resid1)), (name, trial)
        # every seed forms a stack; the parallel suite's seven trials may all
        # fall in distinct (rank, hbar) groups, as they do for one seed here
        assert stacked_seeds == 8 or (suite == "run_parallel_collapse_suite"
                                      and stacked_seeds == 7)

    def test_planted_defect_fails_only_its_trial(self, monkeypatch):
        import qgeo.verify

        draw = qgeo.verify.random_instance
        stack = qgeo.verify.stack_frames
        planted, sizes = [], []

        def non_hermitian_on_trial_5(rng, dim_max, k=None):
            frame, a, b = draw(rng, dim_max, k)
            planted.append(frame)
            if len(planted) == 6:  # draws run in trial order
                a = a + 1e-3j * np.eye(a.shape[0])
            return frame, a, b

        def recording_stack(frames, n):
            if any(f is planted[5] for f in frames):
                sizes.append(len(frames))
            return stack(frames, n)

        monkeypatch.setattr(qgeo.verify, "random_instance", non_hermitian_on_trial_5)
        monkeypatch.setattr(qgeo.verify, "stack_frames", recording_stack)
        results = run_identity_campaign(RunConfig(seed=7, trials=39))
        assert tuple(r.name for r in results) == IDENTITY_SUITES
        for r in results:
            assert (r.passed, r.failed) == (38, 1), r.name
            assert r.first_failure == ("NotHermitian", 5), r.name
        # trial 5 shared a stack with other trials, then was replayed alone
        assert sizes[0] > 1 and sizes[-1] == 1

    def test_planted_trace_fault_fails_identity_product(self, monkeypatch):
        # the campaign's trace side is the one behind `qgeo bounds`: a fault
        # there must fail the identity suites
        import qgeo.uncertainty
        import qgeo.verify

        def swapped(a, b, a_rho, b_rho, exp_a, exp_b):
            ba = np.einsum("...ij,...ji->...", b, a_rho)
            ab = ba  # Tr(B A rho) in place of Tr(A B rho)
            return 0.5 * (ab.real + ba.real) - exp_a * exp_b, 0.5 * (ab.imag - ba.imag)

        for module in (qgeo.uncertainty, qgeo.verify):
            monkeypatch.setattr(module, "_cov_com", swapped)
        results = {r.name: r for r in run_identity_campaign(RunConfig(seed=7, trials=40))}
        assert results["identity_product"].failed > 0
        assert results["identity_product"].first_failure[0] == "residual"

    def test_unknown_suite_name_raises(self):
        frame, a, b = random_instance(trial_rng(3, 0), 4)
        batch = [(1.0, frame, a, b, 0.0)]
        assert _bound_rows(Tolerances(), ["pure_state_collapse"], batch)[0][0][0] == \
            "pure_state_collapse"
        with pytest.raises(KeyError, match="identity_produkt"):
            _bound_rows(Tolerances(), ["identity_product", "identity_produkt"], batch)

    def test_zero_padding_is_exact(self):
        from qgeo.states import PurificationFrame

        for trial in range(40):
            rng = trial_rng(99, trial)
            ctx = GeometryContext(hbar=1.0 if trial % 2 == 0 else 0.32)
            frame, a, b = random_instance(rng, 8)
            padded = PurificationFrame(np.vstack([frame.psi, np.zeros((3, frame.k))]),
                                       frame.sigma)
            pad = ((0, 3), (0, 3))
            ref, _ = _instance_terms(a, b, frame, ctx)
            got, _ = _instance_terms(np.pad(a, pad), np.pad(b, pad), padded, ctx)
            for key, value in ref.items():
                assert abs(got[key] - value) <= 1e-14 * max(1.0, abs(value)), key


class TestOraclePasses:
    """Each observable of an instance is lifted, checked and connected once."""

    @staticmethod
    def _count(monkeypatch, names):
        import qgeo.geometry
        import qgeo.verify

        calls = dict.fromkeys(names, 0)
        for module in (qgeo.geometry, qgeo.verify):
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue

                def counting(*args, _name=name, _original=original, **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counting)
        return calls

    def test_instance_terms_lifts_and_connects_once(self, monkeypatch):
        from qgeo.geometry import xi_field
        from qgeo.linalg import stack_padded
        from qgeo.states import stack_frames

        ctx = GeometryContext(hbar=0.32)
        instances = [random_instance(trial_rng(5, trial), 6, k=2) for trial in range(3)]
        n = max(frame.n for frame, _, _ in instances)
        frames = stack_frames([frame for frame, _, _ in instances], n)
        a, b = (stack_padded([inst[i] for inst in instances], (n, n)) for i in (1, 2))
        calls = self._count(monkeypatch, ["hamiltonian_lift", "connection"])
        terms, xis = _instance_terms(a, b, frames, ctx)
        assert calls == {"hamiltonian_lift": 1, "connection": 1}
        assert "xi" not in terms and xis.xi.shape == (2, 3, 2, 2)
        assert np.array_equal(xis.xi, xi_field(np.stack([a, b]), frames, ctx)[0].xi)

    def test_gauge_suite_makes_no_xi_field_call(self, monkeypatch):
        calls = self._count(monkeypatch, ["xi_field"])
        assert run_gauge_invariance_suite(RunConfig(seed=7, trials=40)).ok
        assert calls == {"xi_field": 0}


class TestVerifyExitCodes:
    def test_failure_exits_2(self, monkeypatch, capsys):
        failing = SuiteResult("forced")
        failing.add(1.0, 1e-9)
        monkeypatch.setattr(qgeo.cli, "run_all", lambda cfg: [failing])
        assert qgeo.cli.main(["verify", "--trials", "5"]) == 2
        assert "FAILURES" in capsys.readouterr().out

    def test_failing_trials_exit_2_with_the_table(self, capsys):
        # at 1e-5 x the tolerances gauge_act rejects the sampled gauge
        # elements; that is a verification failure, not bad input
        assert qgeo.cli.main(["verify", "--trials", "200", "--tol-scale", "1e-5"]) == 2
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 30  # header, 28 suites, verdict
        assert "gauge_invariance" in out and "FAILURES" in out
        # last column: the first failure's cause and trial, "-" for a pass
        causes = {line.split()[0]: line.split()[-1] for line in out.splitlines()[1:-1]}
        assert causes["partial_trace_identity"] == "-"
        assert causes["fiber_transitivity"].startswith("NotGauge@")
        assert causes["connection_contract"].startswith("IdentityViolation@")
        assert causes["gauge_invariance"].split("@")[0] in {"IdentityViolation", "NotGauge"}

    def test_env_scale_applies(self, monkeypatch):
        from qgeo.config import default_tolerances
        monkeypatch.setenv("QGEO_TOL_SCALE", "10")
        tol = default_tolerances()
        assert tol.identity == pytest.approx(1e-7)
        assert tol.fd_step == 1e-5  # step size is not a gate
