"""Inputs, operations and independent output checks of the benchmark workloads.

Every input is generated here with numpy from the benchmark seed; nothing is
drawn through ``qgeo.verify``'s generators. Each operation calls qgeo's public
API through module attributes (``qgeo.decomposition``, ``qgeo.verify.run_all``)
so that the traced run's wrappers see the calls. Each check recomputes what it
can from plain numpy and returns the name of the first failed check, or None.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import qgeo
import qgeo.verify

# bounds_pairs: one request is a `qgeo bounds` call on 8 observables, all 28 pairs
N_OBS = 8
PAIRS = tuple((i, j) for i in range(N_OBS) for j in range(i + 1, N_OBS))
BOUNDS_DIMS = (2, 4, 8)
BOUNDS_POOL = 96

# evolve_flow: two n=4 trajectories per n=8 one. A cycle of odd length keeps
# the median inside the n=4 mode and the tail percentile inside the n=8 mode;
# an even 4/8 alternation would put the median on the gap between the modes.
EVOLVE_DIMS = (4, 8, 4)
EVOLVE_POOL = 12
EVOLVE_T = 0.1
EVOLVE_STEPS = 100

# verify_campaign: a fixed pool of small campaigns (run_all seeds 0..7). A
# campaign's cost is set by the dimensions and degeneracies that its own seed
# draws inside run_all, and one campaign's cost varies by about 0.37 of the
# mean from seed to seed, so pools of campaign seeds drawn from the bench seed
# differed in cost by 0.11 (IQR / median over ten bench seeds) before any
# timing noise. The bench seed instead draws each campaign's hbar, which
# changes the values that most suites check but, as measured, not the cost. run_all runs trials // 20
# evolution trajectories (at least one); 39 trials is the largest campaign
# with a single one, so a pass stays short and each campaign gets many passes.
CAMPAIGN_TRIALS = 39
CAMPAIGN_DIM_MAX = 8
CAMPAIGN_SEEDS = tuple(range(8))
CAMPAIGN_HBAR = (0.5, 2.0)   # log-uniform


def _complex_gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * np.sqrt(0.5)


def _hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    z = _complex_gaussian(rng, n)
    return 0.5 * (z + z.conj().T)


def _unit_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Hermitian with Frobenius norm at most 1 (keeps central differences
    of the flow well inside the flow-derivative gate)."""
    h = _hermitian(rng, n)
    return h / max(1.0, float(np.linalg.norm(h)))


def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_complex_gaussian(rng, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _spectrum(rng: np.random.Generator, k: int, split: bool) -> tuple[tuple, tuple]:
    """Distinct descending weights with gaps >= 0.2 before normalisation.

    With ``split`` the rank k is cut into a random multiplicity partition;
    without it every eigenvalue is simple.
    """
    mults: list[int] = []
    remaining = k
    while remaining > 0:
        m = int(rng.integers(1, remaining + 1)) if split else 1
        mults.append(m)
        remaining -= m
    raw = np.cumsum(rng.uniform(0.2, 1.0, size=len(mults)))[::-1]
    values = raw / float(np.sum(raw * np.asarray(mults)))
    return tuple(float(v) for v in values), tuple(mults)


def _rho(rng: np.random.Generator, n: int, values: tuple, mults: tuple) -> np.ndarray:
    full = np.repeat(values, mults)
    padded = np.concatenate([full, np.zeros(n - len(full))])
    v = _haar(rng, n)
    rho = (v * padded) @ v.conj().T
    return 0.5 * (rho + rho.conj().T)


def _close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def _expect(a: np.ndarray, rho: np.ndarray) -> float:
    return float(np.real(np.trace(a @ rho)))


# --- bounds_pairs -----------------------------------------------------------

@dataclass(frozen=True)
class BoundsRequest:
    values: tuple
    mults: tuple
    rho: np.ndarray
    observables: tuple


def make_bounds(seed: int, tol) -> list[BoundsRequest]:
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(BOUNDS_POOL):
        n = BOUNDS_DIMS[i % len(BOUNDS_DIMS)]
        values, mults = _spectrum(rng, int(rng.integers(1, n + 1)), split=True)
        rho = _rho(rng, n, values, mults)
        obs = tuple(_hermitian(rng, n) for _ in range(N_OBS))
        pool.append(BoundsRequest(values, mults, rho, obs))
    return pool


def run_bounds(req: BoundsRequest, tol):
    """One `qgeo bounds` request without file I/O."""
    sigma = qgeo.make_spectrum(req.values, req.mults, tol)
    state = qgeo.density_state(req.rho, sigma, tol)
    frame = qgeo.purify(state, tol)
    ctx = qgeo.GeometryContext(tol=tol)
    obs = req.observables
    return [qgeo.decomposition(obs[i], obs[j], frame, ctx) for i, j in PAIRS]


def check_bounds(req: BoundsRequest, reports, tol) -> str | None:
    if len(reports) != len(PAIRS):
        return "pair_count"
    rho = req.rho
    moments = []
    for a in req.observables:
        mean = _expect(a, rho)
        moments.append((mean, _expect(a @ a, rho) - mean * mean))
    for (i, j), rep in zip(PAIRS, reports):
        a, b = req.observables[i], req.observables[j]
        (mean_a, var_a), (mean_b, var_b) = moments[i], moments[j]
        if not (_close(rep.expA, mean_a, tol.identity) and _close(rep.expB, mean_b, tol.identity)):
            return "expectation"
        if not (_close(rep.dA ** 2, var_a, tol.identity) and _close(rep.dB ** 2, var_b, tol.identity)):
            return "uncertainty"
        sym = _expect(0.5 * (a @ b + b @ a), rho)
        com = float(np.real(np.trace((a @ b - b @ a) @ rho) / 2j))
        if not _close(rep.rs_bound, float(np.hypot(sym - mean_a * mean_b, com)), tol.identity):
            return "rs_bound"
        product = float(np.sqrt(max(var_a, 0.0) * max(var_b, 0.0)))
        slack = tol.dominance * max(1.0, product)
        if abs(rep.combined_bound - max(rep.geo_bound, rep.rs_bound)) > slack:
            return "combined_is_max"
        if max(rep.geo_bound, rep.rs_bound, rep.combined_bound) > product + slack:
            return "dominance"
    return None


# --- evolve_flow ------------------------------------------------------------

@dataclass(frozen=True)
class EvolveInput:
    h: np.ndarray
    state: Any
    probes: dict


def make_evolve(seed: int, tol) -> list[EvolveInput]:
    """Full-rank states with simple spectra: the Jacobi solver's cost depends
    strongly on rank and degeneracy, so the structure is fixed per size and
    only the values are random."""
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(EVOLVE_POOL):
        n = EVOLVE_DIMS[i % len(EVOLVE_DIMS)]
        values, mults = _spectrum(rng, n, split=False)
        state = qgeo.density_state(_rho(rng, n, values, mults),
                                   qgeo.make_spectrum(values, mults, tol), tol)
        probes = {"B": _unit_hermitian(rng, n), "C": _unit_hermitian(rng, n)}
        pool.append(EvolveInput(_unit_hermitian(rng, n), state, probes))
    return pool


def run_evolve(inp: EvolveInput, tol):
    ctx = qgeo.GeometryContext(tol=tol)
    return qgeo.evolve(inp.h, inp.state, t=EVOLVE_T, steps=EVOLVE_STEPS, ctx=ctx,
                       probes=inp.probes)


def check_evolve(inp: EvolveInput, result, tol) -> str | None:
    if len(result.times) != EVOLVE_STEPS + 1:
        return "step_count"
    if not result.max_drift <= tol.spec:
        return "drift"
    if not result.max_flow_residual <= tol.flow:
        return "flow_residual"
    w, v = np.linalg.eigh(inp.h)
    u = (v * np.exp(-1j * w * EVOLVE_T)) @ v.conj().T
    rho_t = u @ inp.state.rho @ u.conj().T
    for name, b in inp.probes.items():
        if not _close(float(result.expectations[name][-1]), _expect(b, rho_t), tol.identity):
            return "final_expectation"
    return None


# --- verify_campaign --------------------------------------------------------

def make_campaigns(seed: int, tol) -> list:
    rng = np.random.default_rng(seed)
    hbars = np.exp(rng.uniform(*np.log(CAMPAIGN_HBAR), size=len(CAMPAIGN_SEEDS)))
    return [qgeo.verify.RunConfig(seed=s, trials=CAMPAIGN_TRIALS, dim_max=CAMPAIGN_DIM_MAX,
                                  hbar=float(h), tol=tol)
            for s, h in zip(CAMPAIGN_SEEDS, hbars)]


def run_campaign(cfg, tol):
    return qgeo.verify.run_all(cfg)


def check_campaign(cfg, results, tol) -> str | None:
    if not results:
        return "no_suites"
    for r in results:
        if r.passed + r.failed == 0:
            return f"empty:{r.name}"
        if not r.ok:
            return f"suite:{r.name}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, Any], list]
    op: Callable[[Any, Any], Any]
    check: Callable[[Any, Any, Any], str | None]
    warmup: int       # untimed ops first: one of each size, or one campaign
    trace_ops: int    # fixed op list of the traced run, so call counts repeat


WORKLOADS = {
    w.name: w for w in (
        Workload("bounds_pairs", make_bounds, run_bounds, check_bounds,
                 warmup=len(BOUNDS_DIMS), trace_ops=24),
        Workload("evolve_flow", make_evolve, run_evolve, check_evolve,
                 warmup=len(EVOLVE_DIMS), trace_ops=6),
        Workload("verify_campaign", make_campaigns, run_campaign, check_campaign,
                 warmup=1, trace_ops=6),
    )
}
