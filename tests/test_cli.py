import json
from pathlib import Path

import numpy as np
import pytest

import qgeo.linalg
from qgeo.cli import main
from qgeo.linalg import sample_hermitian
from qgeo.serialize import dumps, matrix_to_json
from qgeo.spin import build_spin


@pytest.fixture
def workdir(tmp_path):
    spin = build_spin(1.0)
    state = {
        "hbar": 1.0,
        "rho": matrix_to_json(np.diag([0.7, 0.3, 0.0]).astype(complex)),
        "spectrum": {"values": [0.7, 0.3], "mults": [1, 1]},
    }
    (tmp_path / "state.json").write_text(dumps(state))
    obs = {
        "Sx": matrix_to_json(spin.sx),
        "Sy": matrix_to_json(spin.sy),
        "Sz": matrix_to_json(spin.sz),
    }
    (tmp_path / "obs.json").write_text(dumps(obs))
    (tmp_path / "ham.json").write_text(dumps(matrix_to_json(spin.sx)))
    (tmp_path / "bad_obs.json").write_text(dumps(
        {"A": matrix_to_json(spin.sx + 0.2j * np.eye(3))}))
    (tmp_path / "not_json.json").write_text("{broken")
    return tmp_path


class TestVerifyCommand:
    def test_passes_and_is_deterministic(self, workdir, capsys):
        out1 = workdir / "v1.json"
        out2 = workdir / "v2.json"
        assert main(["verify", "--trials", "25", "--seed", "42",
                     "--out", str(out1)]) == 0
        assert main(["verify", "--trials", "25", "--seed", "42",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert all(entry["fail"] == 0 for entry in payload["suites"].values())
        table = capsys.readouterr().out
        assert "spin_demo" in table

    def test_config_error(self):
        assert main(["verify", "--trials", "0"]) == 1
        assert main(["verify", "--dim-max", "1"]) == 1


class TestBoundsCommand:
    def test_spin_pair_values(self, workdir, capsys):
        out = workdir / "bounds.json"
        code = main(["bounds", str(workdir / "state.json"), str(workdir / "obs.json"),
                     "--pair", "Sx,Sy", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        report = payload["pairs"]["Sx,Sy"]
        assert report["w_bracket"] == pytest.approx(0.7, abs=1e-9)
        assert report["geo_bound"] == pytest.approx(0.35, abs=1e-9)
        assert "inputs" in report and "tolerances" in report
        assert "winner" in capsys.readouterr().out

    def test_identical_parallel_pair_ties(self, workdir):
        out = workdir / "tie.json"
        assert main(["bounds", str(workdir / "state.json"), str(workdir / "obs.json"),
                     "--pair", "Sx,Sx", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["pairs"]["Sx,Sx"]["winner"] == "tie"

    def test_non_hermitian_exits_1(self, workdir, capsys):
        code = main(["bounds", str(workdir / "state.json"),
                     str(workdir / "bad_obs.json"), "--pair", "A,A"])
        assert code == 1
        assert "NotHermitian: obs 'A'" in capsys.readouterr().err

    def test_wrong_dimension_exits_1(self, workdir, tmp_path, capsys):
        (tmp_path / "small.json").write_text(dumps(
            {"Sx": matrix_to_json(build_spin(1.0).sx),
             "Half": matrix_to_json(build_spin(0.5).sx)}))
        code = main(["bounds", str(workdir / "state.json"),
                     str(tmp_path / "small.json"), "--pair", "Sx,Half"])
        assert code == 1
        err = capsys.readouterr().err
        assert "BadDims" in err and "'Half'" in err

    def test_checks_each_observable_once(self, tmp_path, monkeypatch):
        # 8 observables in all 28 pairs on a 4-level state: one check per
        # observable (the named pre-check) and two on the state
        rng = np.random.default_rng(18)
        names = [f"O{i}" for i in range(8)]
        (tmp_path / "state.json").write_text(dumps({
            "hbar": 1.0,
            "rho": matrix_to_json(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)),
            "spectrum": {"values": [0.4, 0.3, 0.2, 0.1], "mults": [1, 1, 1, 1]},
        }))
        (tmp_path / "obs.json").write_text(dumps(
            {name: matrix_to_json(sample_hermitian(4, rng)) for name in names}))
        pairs = [f"{a},{b}" for i, a in enumerate(names) for b in names[i + 1:]]
        calls = []
        check = qgeo.linalg.check_hermitian
        monkeypatch.setattr(qgeo.linalg, "check_hermitian",
                            lambda *args, **kwargs: calls.append(1) or check(*args, **kwargs))
        args = ["bounds", str(tmp_path / "state.json"), str(tmp_path / "obs.json")]
        for pair in pairs:
            args += ["--pair", pair]
        assert main(args + ["--out", str(tmp_path / "out.json")]) == 0
        assert len(pairs) == 28 and len(calls) == 10
        payload = json.loads((tmp_path / "out.json").read_text())
        assert list(payload["pairs"]) == pairs

    def test_examples_run(self, tmp_path):
        examples = Path(__file__).resolve().parent.parent / "examples"
        out = tmp_path / "report.json"
        assert main(["bounds", str(examples / "state.json"),
                     str(examples / "observables.json"),
                     "--pair", "Sx,Sy", "--pair", "Sx,Sz", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["pairs"]["Sx,Sy"]["geo_bound"] == pytest.approx(0.35, abs=1e-9)

    def test_unknown_name_exits_1(self, workdir):
        assert main(["bounds", str(workdir / "state.json"),
                     str(workdir / "obs.json"), "--pair", "Sx,Nope"]) == 1

    def test_malformed_json_exits_1(self, workdir):
        assert main(["bounds", str(workdir / "not_json.json"),
                     str(workdir / "obs.json"), "--pair", "Sx,Sy"]) == 1

    def test_spectrum_override_flag(self, workdir, tmp_path):
        bare = json.loads((workdir / "state.json").read_text())
        del bare["spectrum"]
        path = tmp_path / "bare_state.json"
        path.write_text(dumps(bare))
        assert main(["bounds", str(path), str(workdir / "obs.json"),
                     "--pair", "Sx,Sy"]) == 1  # no spectrum anywhere
        assert main(["bounds", str(path), str(workdir / "obs.json"),
                     "--pair", "Sx,Sy", "--spectrum-values", "0.7,0.3"]) == 0


class TestSpinDemoCommand:
    def test_demo_passes(self, workdir, capsys):
        out = workdir / "demo.json"
        code = main(["spin-demo", "--s", "1", "--p", "0.7,0.3", "--m", "1,0",
                     "--eps", "0.25", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["pairs"]["AB"]["winner"] == "geometric"
        assert payload["pairs"]["CD"]["winner"] == "robertson_schrodinger"
        assert payload["closed_forms"]["xi_sz_perp_sq"] == pytest.approx(0.42)
        assert payload["sista"]["lhs"] >= payload["sista"]["rhs"]
        assert payload["window"]["holds"] is True
        assert "geometric" in capsys.readouterr().out

    def test_degenerate_weights_exit_1(self):
        assert main(["spin-demo", "--s", "1", "--p", "0.5,0.5", "--m", "1,0",
                     "--eps", "0.25"]) == 1

    def test_tol_scale_reaches_the_weights(self, capsys):
        args = ["spin-demo", "--s", "1", "--p", "0.7,0.3000000001", "--m", "1,0",
                "--eps", "0.25"]
        assert main(args) == 1
        assert "NotNormalized" in capsys.readouterr().err
        assert main(args + ["--tol-scale", "1e6"]) == 0

    def test_zero_eps_exit_1(self):
        assert main(["spin-demo", "--s", "1", "--p", "0.7,0.3", "--m", "1,0",
                     "--eps", "0"]) == 1

    def test_window_violation_reported_not_fatal(self, workdir, capsys):
        code = main(["spin-demo", "--s", "1", "--p", "0.7,0.3", "--m", "1,0",
                     "--eps", "20"])
        assert code == 0
        assert "VIOLATED" in capsys.readouterr().out


class TestEvolveCommand:
    def test_spin_flow(self, workdir):
        out = workdir / "evolve.json"
        code = main(["evolve", str(workdir / "state.json"), str(workdir / "ham.json"),
                     "--t", "0.1", "--steps", "50",
                     "--probes-file", str(workdir / "obs.json"),
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["max_spectrum_drift"] <= 1e-9
        assert payload["max_flow_residual"] <= 1e-4
        assert len(payload["times"]) == 51
        assert set(payload["expectations"]) == {"Sx", "Sy", "Sz"}

    def test_identity_hamiltonian_constant(self, workdir, tmp_path):
        ham = tmp_path / "id.json"
        ham.write_text(dumps(matrix_to_json(np.eye(3).astype(complex))))
        out = tmp_path / "ev.json"
        code = main(["evolve", str(workdir / "state.json"), str(ham),
                     "--t", "1.0", "--steps", "10",
                     "--probes-file", str(workdir / "obs.json"),
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        series = payload["expectations"]["Sz"]
        assert max(series) - min(series) <= 1e-12
        assert payload["max_spectrum_drift"] <= 1e-12

    def test_tol_scale_loosens_gates(self, workdir, tmp_path, capsys):
        # two coarse steps leave a flow residual of about 0.025: above the
        # default gate 1e-4, below the gate 0.1 at scale 1e3
        args = ["evolve", str(workdir / "state.json"), str(workdir / "ham.json"),
                "--t", "1", "--steps", "2",
                "--probes-file", str(workdir / "obs.json")]
        assert main(args) == 2
        out = tmp_path / "ev.json"
        capsys.readouterr()
        assert main(args + ["--tol-scale", "1e3", "--out", str(out)]) == 0
        assert "(gate 0.1)" in capsys.readouterr().out
        assert 1e-4 < json.loads(out.read_text())["max_flow_residual"] <= 0.1

    def test_malformed_json_exit_1(self, workdir):
        assert main(["evolve", str(workdir / "not_json.json"),
                     str(workdir / "ham.json"), "--t", "1", "--steps", "5"]) == 1

    def test_bad_steps_exit_1(self, workdir):
        assert main(["evolve", str(workdir / "state.json"),
                     str(workdir / "ham.json"), "--t", "1", "--steps", "0"]) == 1

    @pytest.mark.parametrize("t", ["0", "nan"])
    def test_bad_time_exit_1(self, workdir, t, capsys):
        # at t = 0 every flow residual would be NaN, which must not pass a gate
        assert main(["evolve", str(workdir / "state.json"), str(workdir / "ham.json"),
                     "--t", t, "--steps", "4",
                     "--probes-file", str(workdir / "obs.json")]) == 1
        assert "finite and nonzero" in capsys.readouterr().err


class TestVerificationFailurePaths:
    def test_spin_demo_winner_mismatch_exits_2(self, monkeypatch, capsys):
        import qgeo.cli
        from qgeo.errors import IdentityViolation

        def boom(spec, eps, ctx):
            raise IdentityViolation("window condition holds but winners flipped")

        monkeypatch.setattr(qgeo.cli, "abcd_experiment", boom)
        code = main(["spin-demo", "--s", "1", "--p", "0.7,0.3", "--m", "1,0",
                     "--eps", "0.25"])
        assert code == 2
        assert "verification failure" in capsys.readouterr().err

    def test_evolve_gate_violation_exits_2(self, workdir, monkeypatch, capsys):
        import qgeo.cli

        real_evolve = qgeo.cli.evolve

        def drifting(*args, **kwargs):
            result = real_evolve(*args, **kwargs)
            object.__setattr__(result, "spectrum_drift",
                               result.spectrum_drift + 1e-6)
            return result

        monkeypatch.setattr(qgeo.cli, "evolve", drifting)
        code = main(["evolve", str(workdir / "state.json"),
                     str(workdir / "ham.json"), "--t", "0.1", "--steps", "5"])
        assert code == 2
        assert "gates violated" in capsys.readouterr().err


class TestTolScale:
    def test_flag_loosens_gates(self, workdir, tmp_path):
        # a slightly perturbed state fails strict validation but passes
        # once every tolerance is scaled up
        state = json.loads((workdir / "state.json").read_text())
        rho = np.diag([0.7 + 4e-9, 0.3 - 4e-9, 0.0]).astype(complex)
        state["rho"] = matrix_to_json(rho)
        path = tmp_path / "near_state.json"
        path.write_text(dumps(state))
        args = ["bounds", str(path), str(workdir / "obs.json"), "--pair", "Sx,Sy"]
        assert main(args) == 1
        assert main(args + ["--tol-scale", "100"]) == 0
