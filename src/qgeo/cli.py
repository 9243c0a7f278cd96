"""Command-line interface.

Subcommands:

  verify     run the full property-suite campaign (exit 2 on any failure)
  bounds     compute bound reports for observable pairs from JSON files
  spin-demo  the four-observable spin ensemble experiment
  evolve     conjugation flow with spectrum-drift and flow-derivative gates

Human-readable tables go to stdout; machine JSON goes to --out. Exit codes:
0 ok, 1 input/config error, 2 verification failure. QGEO_TOL_SCALE
multiplies every tolerance; --tol-scale does the same and wins over the
environment.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import Tolerances, env_tol_scale
from .errors import IdentityViolation, QGeoError, SpectrumDrift
from .geometry import GeometryContext
from .linalg import check_observable
from .serialize import (
    bound_report_to_json,
    dumps,
    load_observables,
    load_state,
    matrix_digest,
    matrix_from_json,
    spectrum_to_json,
)
from .spin import abcd_experiment, ensemble_spec
from .states import DensityState, make_spectrum, purify
from .uncertainty import decomposition, evolve
from .verify import RunConfig, run_all, summary

__all__ = ["main"]


def _tolerances(args: argparse.Namespace) -> Tolerances:
    scale = args.tol_scale if args.tol_scale is not None else env_tol_scale()
    return Tolerances().scaled(scale)


def _write_out(path: str | None, payload: dict) -> None:
    if path:
        Path(path).write_text(dumps(payload))


def _read_json(path: str, what: str) -> object:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise QGeoError(f"{what}: file not found: {path}")
    except json.JSONDecodeError as exc:
        raise QGeoError(f"{what}: malformed JSON ({exc})")


def _parse_floats(raw: str) -> list[float]:
    return [float(x) for x in raw.split(",") if x.strip() != ""]


def _failure_cause(result) -> str:
    """The first failure as ``cause@trial`` (``residual`` for a residual over
    its limit, else the exception class), or ``-`` for a passing suite."""
    if result.first_failure is None:
        return "-"
    cause, trial = result.first_failure
    return cause if trial is None else f"{cause}@{trial}"


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = RunConfig(seed=args.seed, trials=args.trials, dim_max=args.dim_max,
                    hbar=args.hbar, tol=_tolerances(args))
    results = run_all(cfg)
    width = max(len(r.name) for r in results)
    print(f"{'suite':<{width}}  {'pass':>6} {'fail':>6}  {'worst_residual':<14}  first_failure")
    for r in results:
        print(f"{r.name:<{width}}  {r.passed:>6} {r.failed:>6}  {r.worst_residual:<14.3e}  "
              f"{_failure_cause(r)}")
    payload = {
        "config": {"seed": cfg.seed, "trials": cfg.trials,
                   "dim_max": cfg.dim_max, "hbar": cfg.hbar},
        "suites": summary(results),
    }
    _write_out(args.out, payload)
    ok = all(r.ok for r in results)
    print("verify:", "all suites passed" if ok else "FAILURES present")
    return 0 if ok else 2


def _spectrum_from_args(args: argparse.Namespace, tol: Tolerances):
    if args.spectrum_values is None:
        return None
    values = _parse_floats(args.spectrum_values)
    mults = None
    if args.spectrum_mults is not None:
        mults = [int(x) for x in args.spectrum_mults.split(",") if x.strip() != ""]
    return make_spectrum(values, mults, tol)


def _load_state(args: argparse.Namespace, tol: Tolerances) -> tuple[DensityState, GeometryContext]:
    """The state file's state with the command line's spectrum and hbar
    overrides applied, and its geometry context."""
    state_obj = _read_json(args.state_file, "state file")
    hbar_file, state = load_state(state_obj, spectrum=_spectrum_from_args(args, tol), tol=tol)
    hbar = args.hbar if args.hbar is not None else hbar_file
    return state, GeometryContext(hbar=hbar, tol=tol)


def _cmd_bounds(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    state, ctx = _load_state(args, tol)
    observables = load_observables(_read_json(args.obs_file, "observable file"))
    frame = purify(state, tol)

    pairs = []
    for raw in args.pair:
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) != 2:
            raise QGeoError(f"--pair wants 'NAME,NAME', got {raw!r}")
        for name in parts:
            if name not in observables:
                raise QGeoError(f"observable {name!r} not present in {args.obs_file}")
        pairs.append((parts[0], parts[1]))
    for name in sorted({n for pair in pairs for n in pair}):
        check_observable(observables[name], state.n, tol, f"obs {name!r}")

    reports = {}
    print(f"{'pair':<16} {'dA*dB':>12} {'geo':>12} {'rs':>12} {'combined':>12}  winner")
    for name_a, name_b in pairs:
        a, b = observables[name_a], observables[name_b]
        report = decomposition(a, b, frame, ctx)
        key = f"{name_a},{name_b}"
        reports[key] = bound_report_to_json(
            report, hbar=ctx.hbar,
            inputs={"A": matrix_digest(a), "B": matrix_digest(b),
                    "rho": matrix_digest(state.rho)},
            tol=tol,
        )
        print(f"{key:<16} {report.dA * report.dB:>12.6f} {report.geo_bound:>12.6f} "
              f"{report.rs_bound:>12.6f} {report.combined_bound:>12.6f}  {report.winner}")
    _write_out(args.out, {
        "hbar": ctx.hbar,
        "spectrum": spectrum_to_json(state.sigma),
        "pairs": reports,
    })
    return 0


def _cmd_spin_demo(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    spec = ensemble_spec(args.s, _parse_floats(args.m), _parse_floats(args.p))
    ctx = GeometryContext(hbar=args.hbar, tol=tol)
    demo = abcd_experiment(spec, args.eps, ctx)
    print(f"spin demo: s={spec.s}, p={spec.p_list}, m={spec.m_list}, "
          f"eps={demo.eps}, hbar={ctx.hbar}")
    print(f"window: 0 < {demo.window_lower:.6g} < {demo.window_upper:.6g} "
          f"{'holds' if demo.window_holds else 'VIOLATED'}")
    if not demo.window_holds:
        print(
            f"WindowViolated: eps={demo.eps} puts the difference term outside "
            f"(0, {demo.window_upper:.6g}); winner prediction not applicable",
            file=sys.stderr,
        )
    print(f"{'pair':<6} {'dA*dB':>12} {'geo':>12} {'rs':>12}  winner")
    for label, rep in (("A,B", demo.report_ab), ("C,D", demo.report_cd)):
        print(f"{label:<6} {rep.dA * rep.dB:>12.6f} {rep.geo_bound:>12.6f} "
              f"{rep.rs_bound:>12.6f}  {rep.winner}")
    print(f"uncertainty product dSx*dSy = {demo.sxsy_product:.6f} >= "
          f"{demo.sxsy_floor:.6f} (bracket bound)")
    payload = {
        "spec": {"s": spec.s, "m": list(spec.m_list), "p": list(spec.p_list),
                 "eps": demo.eps, "hbar": ctx.hbar},
        "closed_forms": {
            "sxsy_omega": demo.closed.sxsy_omega,
            "sxsx_g": demo.closed.sxsx_g,
            "xi_sz_perp_sq": demo.closed.xi_sz_perp_sq,
            "sz_exp": demo.closed.sz_exp,
        },
        "pairs": {
            "AB": bound_report_to_json(demo.report_ab, hbar=ctx.hbar),
            "CD": bound_report_to_json(demo.report_cd, hbar=ctx.hbar),
        },
        "sista": {"lhs": demo.sxsy_product, "rhs": demo.sxsy_floor},
        "window": {"holds": demo.window_holds, "lower": demo.window_lower,
                   "upper": demo.window_upper},
    }
    _write_out(args.out, payload)
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    tol = _tolerances(args)
    state, ctx = _load_state(args, tol)
    hamiltonian = matrix_from_json(_read_json(args.hamiltonian_file, "hamiltonian file"),
                                   "hamiltonian")
    probes = {}
    if args.probes_file:
        probes = load_observables(_read_json(args.probes_file, "probes file"))

    result = evolve(hamiltonian, state, t=args.t, steps=args.steps,
                    ctx=ctx, probes=probes)
    drift = result.max_drift
    residual = result.max_flow_residual
    print(f"evolve: t={args.t}, steps={args.steps}, hbar={ctx.hbar}")
    print(f"max spectrum drift    = {drift:.3e} (gate {tol.spec:.3g})")
    print(f"max flow fd residual  = {residual:.3e} (gate {tol.flow:.3g})")
    payload = {
        "t": args.t,
        "steps": args.steps,
        "hbar": ctx.hbar,
        "times": result.times.tolist(),
        "expectations": {k: v.tolist() for k, v in result.expectations.items()},
        "flow_residuals": {k: v.tolist() for k, v in result.flow_residuals.items()},
        "max_spectrum_drift": drift,
        "max_flow_residual": residual,
    }
    _write_out(args.out, payload)
    if not (drift <= tol.spec and residual <= tol.flow):
        print("evolve: gates violated", file=sys.stderr)
        return 2
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgeo",
        description="Geometry of isospectral mixed-state orbits and "
                    "uncertainty bound comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="write machine JSON here")
        p.add_argument("--tol-scale", type=float, default=None,
                       help="multiply all tolerances (overrides QGEO_TOL_SCALE)")

    p_verify = sub.add_parser("verify", help="run the property-suite campaign")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--dim-max", type=int, default=8)
    p_verify.add_argument("--hbar", type=float, default=1.0)
    common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_bounds = sub.add_parser("bounds", help="bound reports for observable pairs")
    p_bounds.add_argument("state_file")
    p_bounds.add_argument("obs_file")
    p_bounds.add_argument("--pair", action="append", required=True,
                          metavar="NAME,NAME", help="observable pair (repeatable)")
    p_bounds.add_argument("--spectrum-values", default=None,
                          help="comma list; overrides/supplies the state's spectrum")
    p_bounds.add_argument("--spectrum-mults", default=None,
                          help="comma list of multiplicities for --spectrum-values")
    p_bounds.add_argument("--hbar", type=float, default=None,
                          help="override the state file's hbar")
    common(p_bounds)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_demo = sub.add_parser("spin-demo", help="four-observable ensemble experiment")
    p_demo.add_argument("--s", type=float, required=True, help="spin (half-integer)")
    p_demo.add_argument("--p", required=True, help="comma list of weights, descending")
    p_demo.add_argument("--m", required=True, help="comma list of magnetic numbers")
    p_demo.add_argument("--eps", type=float, required=True)
    p_demo.add_argument("--hbar", type=float, default=1.0)
    common(p_demo)
    p_demo.set_defaults(func=_cmd_spin_demo)

    p_evolve = sub.add_parser("evolve", help="conjugation flow with drift gates")
    p_evolve.add_argument("state_file")
    p_evolve.add_argument("hamiltonian_file")
    p_evolve.add_argument("--t", type=float, required=True, help="total time")
    p_evolve.add_argument("--steps", type=int, required=True)
    p_evolve.add_argument("--probes-file", default=None,
                          help="JSON name->matrix map of probe observables")
    p_evolve.add_argument("--spectrum-values", default=None)
    p_evolve.add_argument("--spectrum-mults", default=None)
    p_evolve.add_argument("--hbar", type=float, default=None)
    common(p_evolve)
    p_evolve.set_defaults(func=_cmd_evolve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IdentityViolation, SpectrumDrift) as exc:
        print(f"verification failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except QGeoError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
