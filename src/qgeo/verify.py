"""Property-based verification campaigns.

Each suite replays one contract of the toolkit on seeded random inputs and
reports pass/fail counts plus the worst scaled residual. Campaigns derive a
fresh generator from (seed, suite id, trial index), so results are
independent of execution order and byte-stable across runs.

The identity campaign is the core: on every random instance it evaluates
the expectation/covariance identities linking trace-level statistics to the
bracket/xi-field pipeline, then checks that the uncertainty product
dominates all three lower bounds and that the combined bound is exactly the
pointwise maximum of the other two.

The identity campaign, the two collapse suites and the connection suite
evaluate their trials in stacks: trials of one rank k (and one hbar) are
zero-padded to a common dimension and pushed through the stack-aware
geometry oracle at once. The draws stay per trial, in trial order, so every
random stream is the same as in a one-trial-at-a-time loop. The trace side
of the identity and collapse suites is ``uncertainty``'s own (the statistics
behind ``qgeo bounds``); only the brackets come from the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import Tolerances, default_tolerances
from .errors import QGeoError, SpectrumDrift
from .geometry import (
    GeometryContext,
    AmbientTangent,
    _chi_parts,
    ambient_forms,
    connection,
    hamiltonian_lift,
    inertia_inner,
    momentum_map,
    random_tangent,
    split,
)
from .linalg import (
    frobenius,
    frobenius_norms,
    hermitian_eigensystem,
    sample_haar_unitary,
    sample_hermitian,
    sample_isometry,
    stack_padded,
    trial_rng,
    unitary_exponential_family,
)
from .spin import abcd_experiment, build_ensemble, build_spin, closed_forms, ensemble_spec
from .states import (
    GaugeElement,
    PurificationFrame,
    Spectrum,
    connecting_gauge,
    frame_to_state,
    gauge_act,
    make_spectrum,
    purify,
    random_frame,
    random_gauge,
    random_gauge_algebra,
    rank_one_partial_trace,
    stack_frames,
)
from .uncertainty import _bounds, _cov_com, _moments, classify, evolve, moments

__all__ = [
    "RunConfig",
    "SuiteResult",
    "random_spectrum",
    "random_instance",
    "parallel_observable",
    "representative_scalars",
    "run_all",
    "summary",
]

# stable suite ids for rng derivation (never reorder)
_EIG, _SAMPLER, _EXP = 1, 2, 3
_FIBER, _PURIFY, _PTRACE = 4, 5, 6
_CONN, _MOMFD, _MOMEQ = 7, 8, 9
_IDENT, _PURE, _PARALLEL = 10, 11, 12
_GAUGE, _REPR, _EVOLVE = 13, 14, 15
_SPIN = 16


@dataclass(frozen=True)
class RunConfig:
    """Campaign knobs; defaults match the acceptance suite."""

    seed: int = 42
    trials: int = 1000
    dim_max: int = 8
    hbar: float = 1.0
    tol: Tolerances = field(default_factory=default_tolerances)

    def validate(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.dim_max < 2:
            raise ValueError(f"dim-max must be >= 2, got {self.dim_max}")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")

    @property
    def fifth(self) -> int:
        return max(1, self.trials // 5)

    @property
    def twentieth(self) -> int:
        return max(1, self.trials // 20)


@dataclass
class SuiteResult:
    """Pass/fail counts, the worst residual, and the first failure's cause:
    ``("residual", trial)`` for a residual over its limit, or the exception
    class name and trial of a trial that could not be checked."""

    name: str
    passed: int = 0
    failed: int = 0
    worst_residual: float = 0.0
    first_failure: tuple[str, int | None] | None = None

    def add(self, residual: float, limit: float, trial: int | None = None) -> None:
        """Count one checked trial. A NaN residual counts a failure and
        leaves the worst residual unchanged."""
        residual = float(residual)
        if residual <= limit:
            self.passed += 1
        else:
            self.fail("residual", trial)
        if residual > self.worst_residual:
            self.worst_residual = residual

    def fail(self, cause: str = "error", trial: int | None = None) -> None:
        """Count a trial that could not be checked as failed."""
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = (cause, trial)

    @property
    def ok(self) -> bool:
        return self.failed == 0


Row = tuple[str, float, float]  # (suite name, residual, limit)


def _campaign(cfg: RunConfig, suite_id: int, trials: int, names: list[str],
              draw: Callable[[np.random.Generator, int], object],
              evaluate: Callable[[list], list[list[Row]]] = list,
              key: Callable[[object], object] | None = None) -> list[SuiteResult]:
    """Run ``trials`` seeded trials feeding the suites in ``names``.

    Trial i draws its inputs with ``draw(trial_rng(seed, suite_id, i), i)``,
    in trial order. With a ``key``, the trials whose inputs share
    ``key(inputs)`` form one group and ``evaluate`` maps the group's list of
    inputs to each trial's (suite, residual, limit) rows in one call.
    Without one every trial is its own group, and ``draw`` may return the
    rows itself (the default ``evaluate``, ``list``, passes them on).

    A QGeoError in a trial's draw fails that trial in every suite it feeds.
    One raised by a group's evaluation replays the group trial by trial, so
    only the offending trials fail. Rows are added in trial order once every
    group has finished, so no trial counts twice.
    """
    outcomes: list = [None] * trials  # a trial's rows, or its exception class
    groups: dict = {}
    for trial in range(trials):
        try:
            inputs = draw(trial_rng(cfg.seed, suite_id, trial), trial)
        except QGeoError as exc:
            outcomes[trial] = type(exc).__name__
            continue
        groups.setdefault(trial if key is None else key(inputs), []).append((trial, inputs))

    def run(members: list) -> None:
        try:
            out = evaluate([inputs for _, inputs in members])
        except QGeoError as exc:
            if len(members) == 1:
                outcomes[members[0][0]] = type(exc).__name__
            else:
                for member in members:
                    run([member])
            return
        for (trial, _), rows in zip(members, out):
            outcomes[trial] = rows

    for members in groups.values():
        run(members)
    suites = {name: SuiteResult(name) for name in names}
    for trial, outcome in enumerate(outcomes):
        if isinstance(outcome, str):
            for suite in suites.values():
                suite.fail(outcome, trial)
            continue
        for name, residual, limit in outcome:
            suites[name].add(residual, limit, trial)
    return list(suites.values())


def _stack_rows(columns: list[tuple[str, np.ndarray, float]]) -> list[list[Row]]:
    """Per-trial rows from per-suite residual arrays over a group."""
    return [[(name, float(resid[i]), limit) for name, resid, limit in columns]
            for i in range(len(columns[0][1]))]


# --- input generators --------------------------------------------------------

def random_spectrum(rng: np.random.Generator, k: int) -> Spectrum:
    """Random rank-k spectrum with a random multiplicity partition.

    Distinct values are kept well separated (gaps >= 0.2 before
    normalization) so that declared degeneracy is the only degeneracy.
    """
    mults: list[int] = []
    remaining = k
    while remaining > 0:
        m = int(rng.integers(1, remaining + 1))
        mults.append(m)
        remaining -= m
    gaps = rng.uniform(0.2, 1.0, size=len(mults))
    raw = np.cumsum(gaps)[::-1].copy()
    weights = raw / float(np.sum(raw * np.asarray(mults)))
    return make_spectrum(weights, mults)


def random_instance(rng: np.random.Generator, dim_max: int, k: int | None = None
                    ) -> tuple[PurificationFrame, np.ndarray, np.ndarray]:
    """Random (frame, A, B): dimension in [2, dim_max], rank k <= n."""
    n = int(rng.integers(2, dim_max + 1))
    kk = int(rng.integers(1, n + 1)) if k is None else min(k, n)
    sigma = random_spectrum(rng, kk)
    frame = random_frame(sigma, n, rng)
    return frame, sample_hermitian(n, rng), sample_hermitian(n, rng)


def parallel_observable(a: np.ndarray, frame: PurificationFrame,
                        ctx: GeometryContext) -> np.ndarray:
    """Remove the gauge component of an observable at a frame.

    Subtracting psi P^-1 D P^-1 psi† with D the block-diagonal part of
    psi†A psi zeroes the connection value of the lift, so the result is
    parallel at the projected state.
    """
    m = frame.psi.conj().T @ a @ frame.psi
    d = np.where(frame.sigma.block_mask, m, 0)
    inv = 1.0 / frame.sigma.full
    corr = frame.psi @ (d * inv[:, None] * inv[None, :]) @ frame.psi.conj().T
    out = a - corr
    return 0.5 * (out + out.conj().T)


# --- matrix kernel suites ----------------------------------------------------

def run_eigensystem_suite(cfg: RunConfig) -> SuiteResult:
    def rows(rng: np.random.Generator, trial: int) -> list[Row]:
        n = int(rng.integers(1, cfg.dim_max + 1))
        m = sample_hermitian(n, rng)
        values, vectors = hermitian_eigensystem(m, cfg.tol)
        scale = max(1.0, frobenius(m))
        rebuilt = (vectors * values) @ vectors.conj().T
        resid = frobenius(rebuilt - m) / scale
        resid = max(resid, frobenius(vectors.conj().T @ vectors - np.eye(n)) / scale)
        resid = max(resid, 0.0 if np.all(np.diff(values) <= 1e-15) else 1.0)
        return [("eigensystem_roundtrip", resid, cfg.tol.roundtrip)]

    return _campaign(cfg, _EIG, cfg.trials, ["eigensystem_roundtrip"], rows)[0]


def run_sampler_determinism_suite(cfg: RunConfig) -> SuiteResult:
    cases = [(sample_hermitian, (5,)), (sample_haar_unitary, (3,)), (sample_isometry, (4, 2)),
             (sample_hermitian, (cfg.dim_max,)),
             (sample_isometry, (cfg.dim_max, cfg.dim_max // 2))]

    def rows(rng: np.random.Generator, trial: int) -> list[Row]:
        sampler, dims = cases[trial]
        first = sampler(*dims, rng)
        second = sampler(*dims, trial_rng(cfg.seed, _SAMPLER, trial))
        if sampler is sample_isometry:
            contract = frobenius(first.conj().T @ first - np.eye(dims[1]))
        elif sampler is sample_haar_unitary:
            contract = abs(abs(np.linalg.det(first)) - 1.0)
        else:
            contract = frobenius(first - first.conj().T)
        identical = np.array_equal(first, second)
        return [("sampler_determinism", 0.0 if identical else 1.0, 0.5),
                ("sampler_determinism", contract, cfg.tol.sampler)]

    return _campaign(cfg, _SAMPLER, len(cases), ["sampler_determinism"], rows)[0]


def run_exponential_suite(cfg: RunConfig) -> SuiteResult:
    def rows(rng: np.random.Generator, trial: int) -> list[Row]:
        n = int(rng.integers(1, cfg.dim_max + 1))
        x = 1j * sample_hermitian(n, rng)
        norm = frobenius(x)
        if norm > 1.0:
            x = x / norm
        s, t = rng.uniform(-1.0, 1.0, size=2)
        flow = unitary_exponential_family(x, cfg.tol)
        u = flow(float(t))
        resid = frobenius(flow(float(s + t)) - flow(float(s)) @ u)
        resid = max(resid, frobenius(u.conj().T @ u - np.eye(n)))
        return [("exponential_group_law", resid, cfg.tol.group_law)]

    return _campaign(cfg, _EXP, cfg.fifth, ["exponential_group_law"], rows)[0]


# --- state space suites ------------------------------------------------------

def run_fiber_transitivity_suite(cfg: RunConfig) -> SuiteResult:
    def rows(rng: np.random.Generator, trial: int) -> list[Row]:
        frame, _, _ = random_instance(rng, cfg.dim_max)
        if trial % 2 == 0:
            other = gauge_act(frame, random_gauge(frame.sigma, rng), cfg.tol)
        else:
            other = purify(frame_to_state(frame), cfg.tol)
        u = connecting_gauge(frame, other)
        k = frame.sigma.k
        p = frame.sigma.p_matrix
        resid = frobenius(u.conj().T @ u - np.eye(k))
        resid = max(resid, frobenius(u @ p - p @ u))
        resid = max(resid, frobenius(frame.psi @ u - other.psi))
        return [("fiber_transitivity", resid, cfg.tol.fiber)]

    return _campaign(cfg, _FIBER, cfg.fifth, ["fiber_transitivity"], rows)[0]


def run_purify_determinism_suite(cfg: RunConfig) -> SuiteResult:
    def rows(rng: np.random.Generator, trial: int) -> list[Row]:
        frame, _, _ = random_instance(rng, cfg.dim_max)
        state = frame_to_state(frame)
        first = purify(state, cfg.tol)
        second = purify(state, cfg.tol)
        identical = np.array_equal(first.psi, second.psi)
        return [("purify_determinism", 0.0 if identical else 1.0, 0.5),
                ("purify_determinism", frobenius(frame_to_state(first).rho - state.rho),
                 cfg.tol.spec)]

    return _campaign(cfg, _PURIFY, min(cfg.fifth, 50), ["purify_determinism"], rows)[0]


def run_partial_trace_suite(cfg: RunConfig) -> SuiteResult:
    def rows(rng: np.random.Generator, trial: int) -> list[Row]:
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(n, 4) + 1))
        sigma = random_spectrum(rng, k)
        frame = random_frame(sigma, n, rng)
        resid = frobenius(rank_one_partial_trace(frame) - frame_to_state(frame).rho)
        return [("partial_trace_identity", resid, cfg.tol.partial_trace)]

    return _campaign(cfg, _PTRACE, cfg.fifth, ["partial_trace_identity"], rows)[0]


# --- bundle geometry suites --------------------------------------------------

def run_connection_suite(cfg: RunConfig) -> SuiteResult:
    ctx = GeometryContext(hbar=cfg.hbar, tol=cfg.tol)

    def draw(rng: np.random.Generator, trial: int):
        frame, _, _ = random_instance(rng, cfg.dim_max)
        xi = random_gauge_algebra(frame.sigma, rng)
        return frame, xi.xi, random_tangent(frame, rng).x

    def evaluate(batch: list) -> list[list[Row]]:
        frame_list, xi_list, tangent_list = zip(*batch)
        n = max(frame.n for frame in frame_list)
        frames = stack_frames(frame_list, n)
        xi = np.stack(xi_list)
        tangent = AmbientTangent(stack_padded(tangent_list, (n, frames.k)), frames)
        reproduced = connection(frames, AmbientTangent(frames.psi @ xi, frames), ctx)
        resid = frobenius_norms(reproduced.xi - xi) / np.maximum(1.0, frobenius_norms(xi))
        hor, _ = split(frames, tangent, ctx)
        resid = np.maximum(resid, frobenius_norms(connection(frames, hor, ctx).xi)
                           / np.maximum(1.0, frobenius_norms(tangent.x)))
        hor2, xi2 = split(frames, hor, ctx)
        hor_scale = np.maximum(1.0, frobenius_norms(hor.x))
        resid = np.maximum(resid, frobenius_norms(hor2.x - hor.x) / hor_scale)
        resid = np.maximum(resid, frobenius_norms(frames.psi @ xi2.xi) / hor_scale)
        return _stack_rows([("connection_contract", resid, cfg.tol.connection)])

    return _campaign(cfg, _CONN, cfg.trials, ["connection_contract"], draw, evaluate,
                     key=lambda inputs: inputs[0].k)[0]


def run_momentum_fd_suite(cfg: RunConfig) -> SuiteResult:
    ctx = GeometryContext(hbar=cfg.hbar, tol=cfg.tol)
    h = cfg.tol.fd_step

    def rows(rng: np.random.Generator, trial: int) -> list[Row]:
        frame, _, _ = random_instance(rng, cfg.dim_max)
        xi = random_gauge_algebra(frame.sigma, rng)
        tangent = random_tangent(frame, rng)
        plus = momentum_map(frame.psi + h * tangent.x, xi.xi, ctx)
        minus = momentum_map(frame.psi - h * tangent.x, xi.xi, ctx)
        fd = (plus - minus) / (2.0 * h)
        target = ambient_forms(AmbientTangent(frame.psi @ xi.xi, frame), tangent, ctx).w
        return [("momentum_differential", abs(fd - target) / max(1.0, abs(target)), cfg.tol.fd)]

    return _campaign(cfg, _MOMFD, cfg.fifth, ["momentum_differential"], rows)[0]


def run_momentum_equivariance_suite(cfg: RunConfig) -> SuiteResult:
    ctx = GeometryContext(hbar=cfg.hbar, tol=cfg.tol)

    def rows(rng: np.random.Generator, trial: int) -> list[Row]:
        frame, _, _ = random_instance(rng, cfg.dim_max)
        k = frame.sigma.k
        u = sample_haar_unitary(k, rng)
        xi = 1j * sample_hermitian(k, rng)
        lhs = momentum_map(frame.psi @ u, xi, ctx)
        rhs = momentum_map(frame, u @ xi @ u.conj().T, ctx)
        return [("momentum_equivariance", abs(lhs - rhs) / max(1.0, abs(rhs)), cfg.tol.invariance)]

    return _campaign(cfg, _MOMEQ, cfg.fifth, ["momentum_equivariance"], rows)[0]


# --- identity and bound campaign ---------------------------------------------

def _instance_terms(a: np.ndarray, b: np.ndarray, frame: PurificationFrame,
                    ctx: GeometryContext) -> tuple[dict[str, float], GaugeElement]:
    """All bracket/xi-field scalars of one instance via the pipeline, and
    the connection values (xi_A, xi_B) as one stack.

    Also takes a ``FrameStack`` with observable stacks a, b of shape
    (B, n, n); every value is then a length-B array. A and B are lifted and
    split once, as one (2, ..., n, k) stack, and the xi-fields come from it.
    """
    lifts = hamiltonian_lift(np.stack([a, b]), frame, ctx)
    hors, xis = split(frame, lifts, ctx)
    chis, perps = _chi_parts(xis, ctx)
    lift_a, lift_b = (AmbientTangent(x, frame) for x in lifts.x)
    hor_a, hor_b = (AmbientTangent(x, frame) for x in hors.x)
    xi_a, xi_b = (GaugeElement(x, frame.sigma) for x in xis.xi)
    perp_a, perp_b = (GaugeElement(x, frame.sigma) for x in perps.xi)
    cross = ambient_forms(hor_a, hor_b, ctx)
    g_self = ambient_forms(hors, hors, ctx).g
    perp_sq = inertia_inner(perps, perps, ctx)
    return {
        "g_ab": cross.g,
        "w_ab": ambient_forms(lift_a, lift_b, ctx).w,
        "w_hor": cross.w,
        "g_aa": g_self[0],
        "g_bb": g_self[1],
        "xa_xb": inertia_inner(xi_a, xi_b, ctx),
        "pa_pb": inertia_inner(perp_a, perp_b, ctx),
        "pa_pa": perp_sq[0],
        "pb_pb": perp_sq[1],
        "chi_a": chis[0],
        "chi_b": chis[1],
    }, xis


_IDENTITY_SUITES = [
    "identity_expectation", "identity_product", "identity_covariance",
    "identity_variance_product", "identity_rs_decomposition", "cauchy_schwarz",
    "variance_floor", "bound_dominance", "combined_is_max", "omega_from_horizontal",
]


def _hbar(trial: int) -> float:
    """hbar alternates between 1 and 0.32 to catch hidden unit errors."""
    return 1.0 if trial % 2 == 0 else 0.32


def _bound_rows(tol: Tolerances, names: list[str], batch: list) -> list[list[Row]]:
    """Rows of the identity and collapse suites in ``names`` for one group.

    Every trial of ``batch`` is ``(hbar, frame, A, B, classify_residual)``
    with the group's hbar. The group is zero-padded to one stack; the trace
    side and the three bounds come from ``uncertainty``'s own statistics, the
    brackets and xi-field products from the ambient oracle. An unknown name
    in ``names`` raises KeyError.
    """
    hbars, frame_list, a_list, b_list, classified = zip(*batch)
    hbar = hbars[0]
    ctx = GeometryContext(hbar=hbar, tol=tol)
    n = max(frame.n for frame in frame_list)
    frames = stack_frames(frame_list, n)
    a, b = (stack_padded(x, (n, n)) for x in (a_list, b_list))
    t, _ = _instance_terms(a, b, frames, ctx)
    g, w, pp = t["g_ab"], t["w_ab"], t["pa_pb"]
    rho = frame_to_state(frames).rho
    a_rho, b_rho = a @ rho, b @ rho
    exp_a, d_a = _moments(a, a_rho)
    exp_b, d_b = _moments(b, b_rho)
    cov, com = _cov_com(a, b, a_rho, b_rho, exp_a, exp_b)
    rs = np.hypot(cov, com)
    geo, combined = _bounds(g, w, pp, hbar)

    def scaled(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return np.abs(lhs - rhs) / np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))

    half, quarter, root = 0.5 * hbar, 0.25 * hbar * hbar, np.sqrt(0.5 * hbar)
    product = d_a * d_b
    scale = np.maximum(1.0, product)
    collapse = np.abs(geo - rs) / np.maximum(1.0, rs)
    ident, dom, inv = tol.identity, tol.dominance, tol.invariance
    columns = {
        "identity_expectation": (np.maximum(scaled(exp_a, root * t["chi_a"]),
                                            scaled(exp_b, root * t["chi_b"])), ident),
        "identity_product": (np.maximum(scaled(cov + exp_a * exp_b, half * (g + t["xa_xb"])),
                                        scaled(com, half * w)), ident),
        "identity_covariance": (scaled(cov, half * (g + pp)), ident),
        "identity_variance_product": (scaled(product**2, quarter * (
            t["g_aa"] * t["g_bb"] + t["g_aa"] * t["pb_pb"] + t["g_bb"] * t["pa_pa"]
            + t["pa_pa"] * t["pb_pb"])), ident),
        "identity_rs_decomposition": (scaled(cov * cov + com * com, quarter * (
            g**2 + w**2 + 2.0 * g * pp + pp**2)), ident),
        "cauchy_schwarz": (np.maximum(0.0, (g**2 + t["w_hor"] ** 2) - t["g_aa"] * t["g_bb"])
                           / np.maximum(1.0, t["g_aa"] * t["g_bb"]), dom),
        "variance_floor": (np.maximum(0.0, half * t["g_aa"] - d_a * d_a)
                           / np.maximum(1.0, d_a * d_a), dom),
        "bound_dominance": (np.maximum(0.0, np.maximum(np.maximum(geo, rs), combined) - product)
                            / scale, dom),
        "combined_is_max": (np.abs(combined - np.maximum(geo, rs)) / scale, dom),
        "omega_from_horizontal": (np.abs(w - t["w_hor"]) / np.maximum(1.0, np.abs(w)), inv),
        "pure_state_collapse": (collapse, inv),
        "parallel_collapse": (np.maximum(np.asarray(classified), collapse), inv),
    }
    return _stack_rows([(name, *columns[name]) for name in names])


def _bound_campaign(cfg: RunConfig, suite_id: int, trials: int, names: list[str],
                    draw: Callable[[np.random.Generator, int], tuple]) -> list[SuiteResult]:
    """A campaign of ``_bound_rows`` trials, evaluated in (rank, hbar) groups."""
    return _campaign(cfg, suite_id, trials, names, draw,
                     lambda batch: _bound_rows(cfg.tol, names, batch),
                     key=lambda inputs: (inputs[1].sigma.k, inputs[0]))


def run_identity_campaign(cfg: RunConfig) -> list[SuiteResult]:
    """One pass over random instances feeding several suites.

    Trace-level statistics (expectations, covariance, commutator, moments)
    act as the oracle side; the bracket pipeline is the machine side.
    Alternates hbar between 1 and 0.32 to catch hidden unit errors. Trials
    of one (rank, hbar) are evaluated as one zero-padded stack.
    """

    def draw(rng: np.random.Generator, trial: int):
        return (_hbar(trial), *random_instance(rng, cfg.dim_max), 0.0)

    return _bound_campaign(cfg, _IDENT, cfg.trials, _IDENTITY_SUITES, draw)


def run_pure_collapse_suite(cfg: RunConfig) -> SuiteResult:
    def draw(rng: np.random.Generator, trial: int):
        return (_hbar(trial), *random_instance(rng, cfg.dim_max, k=1), 0.0)

    return _bound_campaign(cfg, _PURE, cfg.fifth, ["pure_state_collapse"], draw)[0]


def run_parallel_collapse_suite(cfg: RunConfig) -> SuiteResult:
    def draw(rng: np.random.Generator, trial: int):
        ctx = GeometryContext(hbar=_hbar(trial), tol=cfg.tol)
        frame, a, b = random_instance(rng, cfg.dim_max)
        while frame.sigma.l == 1 and frame.sigma.k == frame.n:
            # point orbit (maximally mixed full-rank state): no nonzero
            # parallel observables exist there
            frame, a, b = random_instance(rng, cfg.dim_max)
        par = parallel_observable(a, frame, ctx)
        resid = 0.0 if classify(par, frame, ctx) == "parallel" else 1.0
        return ctx.hbar, frame, par, b, resid

    return _bound_campaign(cfg, _PARALLEL, cfg.fifth, ["parallel_collapse"], draw)[0]


# --- invariance suites -------------------------------------------------------

def run_gauge_invariance_suite(cfg: RunConfig) -> SuiteResult:
    ctx = GeometryContext(hbar=cfg.hbar, tol=cfg.tol)

    def rows(rng: np.random.Generator, trial: int) -> list[Row]:
        frame, a, b = random_instance(rng, cfg.dim_max)
        u = random_gauge(frame.sigma, rng)
        moved = gauge_act(frame, u, cfg.tol)
        # the frame and its gauge image as one stack of two
        both = stack_frames([frame, moved], frame.n)
        t, xis = _instance_terms(np.stack([a, a]), np.stack([b, b]), both, ctx)
        resid = max(
            abs(t[key][0] - t[key][1]) / max(1.0, abs(t[key][0]))
            for key in ("g_ab", "w_ab", "xa_xb", "pa_pb", "chi_a")
        )
        xi_a = xis.xi[0]  # xi_A at the frame and at its gauge image
        conj = u.conj().T @ xi_a[0] @ u
        resid = max(resid, frobenius(xi_a[1] - conj) / max(1.0, frobenius(conj)))
        return [("gauge_invariance", resid, cfg.tol.invariance)]

    return _campaign(cfg, _GAUGE, cfg.fifth, ["gauge_invariance"], rows)[0]


def representative_scalars(a: np.ndarray, b: np.ndarray, frame: PurificationFrame,
                           u: np.ndarray, hbar: float) -> dict[str, float]:
    """Scalars recomputed in the conjugated representative (psi U†, U P U†).

    Local re-implementation of the connection/bracket formulas with the
    transported weight matrix and block projectors; the library itself keeps
    the fixed diagonal representative.
    """
    sigma = frame.sigma
    psit = frame.psi @ u.conj().T
    pt = u @ sigma.p_matrix @ u.conj().T
    pt_inv = u @ np.diag(1.0 / sigma.full).astype(complex) @ u.conj().T
    projs = [u[:, blk] @ u[:, blk].conj().T for blk in sigma.blocks]

    def lift(o: np.ndarray) -> np.ndarray:
        return (o @ psit) / (1j * hbar)

    def conn(x: np.ndarray) -> np.ndarray:
        m = psit.conj().T @ x
        out = np.zeros_like(m)
        for pj in projs:
            out += pj @ m @ pj
        return out @ pt_inv

    def inert(x: np.ndarray, y: np.ndarray) -> float:
        return float(np.real(hbar * np.trace((x.conj().T @ y + y.conj().T @ x) @ pt)))

    chi_t = np.eye(sigma.k, dtype=complex) / (1j * np.sqrt(2.0 * hbar))
    la, lb = lift(a), lift(b)
    xa, xb = conn(la), conn(lb)
    hor_a, hor_b = la - psit @ xa, lb - psit @ xb
    g = float(np.real(hbar * np.trace(hor_a.conj().T @ hor_b + hor_b.conj().T @ hor_a)))
    w = float(np.real(-1j * hbar * np.trace(la.conj().T @ lb - lb.conj().T @ la)))
    ca = inert(chi_t, xa)
    pa = xa - ca * chi_t
    pb = xb - inert(chi_t, xb) * chi_t
    return {"g_ab": g, "w_ab": w, "xa_xb": inert(xa, xb),
            "pa_pb": inert(pa, pb), "chi_a": ca}


def run_representative_suite(cfg: RunConfig) -> SuiteResult:
    ctx = GeometryContext(hbar=cfg.hbar, tol=cfg.tol)

    def rows(rng: np.random.Generator, trial: int) -> list[Row]:
        frame, a, b = random_instance(rng, cfg.dim_max)
        u = sample_haar_unitary(frame.sigma.k, rng)
        t0, _ = _instance_terms(a, b, frame, ctx)
        t1 = representative_scalars(a, b, frame, u, ctx.hbar)
        resid = max(abs(t0[key] - t1[key]) / max(1.0, abs(t0[key])) for key in t1)
        return [("representative_independence", resid, cfg.tol.invariance)]

    return _campaign(cfg, _REPR, cfg.fifth, ["representative_independence"], rows)[0]


# --- evolution suite ---------------------------------------------------------

def run_evolution_suites(cfg: RunConfig) -> list[SuiteResult]:
    drift, flow = "evolution_spectrum_drift", "evolution_flow_derivative"
    ctx = GeometryContext(hbar=cfg.hbar, tol=cfg.tol)

    def rows(rng: np.random.Generator, trial: int) -> list[Row]:
        frame, h, b = random_instance(rng, cfg.dim_max)
        h = h / max(1.0, frobenius(h))
        b = b / max(1.0, frobenius(b))
        try:
            result = evolve(h, frame_to_state(frame), t=0.1, steps=100, ctx=ctx,
                            probes={"B": b})
        except SpectrumDrift as exc:
            # the flow was never checked: a NaN residual counts as its failure
            return [(drift, exc.drift, cfg.tol.spec), (flow, float("nan"), cfg.tol.flow)]
        return [(drift, result.max_drift, cfg.tol.spec),
                (flow, result.max_flow_residual, cfg.tol.flow)]

    return _campaign(cfg, _EVOLVE, cfg.twentieth, [drift, flow], rows)


# --- spin suites -------------------------------------------------------------

def _random_ensemble(rng: np.random.Generator):
    s = int(rng.integers(1, 8)) / 2.0
    dim = int(round(2 * s + 1))
    k = int(rng.integers(1, dim + 1))
    slots = rng.choice(dim, size=k, replace=False)
    m_list = [s - int(i) for i in slots]
    gaps = rng.uniform(0.2, 1.0, size=k)
    raw = np.cumsum(gaps)[::-1].copy()
    p_list = raw / float(np.sum(raw))
    spec = ensemble_spec(s, m_list, p_list)
    return (spec, *build_ensemble(spec))


def run_spin_suites(cfg: RunConfig) -> list[SuiteResult]:
    # two passes over the same _SPIN trials: a failed agreement check still
    # leaves that ensemble's horizontality checked
    agreement, horizontality = "closed_form_agreement", "spin_horizontality"
    ctx = GeometryContext(hbar=cfg.hbar, tol=cfg.tol)

    def agreement_rows(rng: np.random.Generator, trial: int) -> list[Row]:
        spec, state, frame = _random_ensemble(rng)
        spin = build_spin(spec.s, cfg.hbar)
        forms = closed_forms(spec, ctx)
        # one oracle stack of the pairs (Sx, Sy) and (Sx, Sz)
        t, _ = _instance_terms(np.stack([spin.sx, spin.sx]), np.stack([spin.sy, spin.sz]),
                               frame, ctx)
        machine = {
            "sxsy_omega": t["w_ab"][0],
            "sxsx_g": t["g_aa"][1],
            "xi_sz_perp_sq": t["pb_pb"][1],
            "sz_exp": moments(spin.sz, state, cfg.tol)[0],
        }
        resid = max(abs(value - getattr(forms, key)) / max(1.0, abs(getattr(forms, key)))
                    for key, value in machine.items())
        return [(agreement, resid, cfg.tol.invariance)]

    def horizontality_rows(rng: np.random.Generator, trial: int) -> list[Row]:
        spec, _, frame = _random_ensemble(rng)
        spin = build_spin(spec.s, cfg.hbar)
        lifts = hamiltonian_lift(np.stack([spin.sx, spin.sy, spin.sz]), frame, ctx)
        xis = connection(frame, lifts, ctx).xi
        scale = np.maximum(1.0, frobenius_norms(lifts.x))
        # Sx and Sy lift horizontally; Sz lifts to the vertical psi xi_Sz
        resid = np.max(frobenius_norms(xis[:2]) / scale[:2])
        resid = max(resid, frobenius_norms(lifts.x[2] - frame.psi @ xis[2]) / scale[2])
        return [(horizontality, resid, cfg.tol.connection)]

    return (_campaign(cfg, _SPIN, cfg.fifth, [agreement], agreement_rows)
            + _campaign(cfg, _SPIN, cfg.fifth, [horizontality], horizontality_rows))


def run_spin_demo_suite(cfg: RunConfig) -> SuiteResult:
    """The worked s=1 example with its frozen targets."""
    res = SuiteResult("spin_demo")
    ctx = GeometryContext(hbar=1.0, tol=cfg.tol)
    spec = ensemble_spec(1.0, (1.0, 0.0), (0.7, 0.3))
    try:
        demo = abcd_experiment(spec, 0.25, ctx)
    except QGeoError as exc:
        res.fail(type(exc).__name__)
        return res
    targets = [
        (demo.closed.sxsy_omega, 0.7),
        (demo.closed.sxsx_g, 1.3),
        (demo.closed.xi_sz_perp_sq, 0.42),
        (demo.closed.sz_exp, 0.7),
        (demo.report_ab.dA * demo.report_ab.dB, 0.7025),
        (demo.report_ab.geo_bound, 0.65),
        (demo.report_ab.rs_bound, 0.5975),
        (demo.report_cd.dA * demo.report_cd.dB, 0.86),
        (demo.report_cd.geo_bound, 0.35),
        (demo.report_cd.rs_bound, 0.4081666326391711),
        (demo.sxsy_product, 0.65),
        (demo.sxsy_floor, 0.35),
    ]
    for value, target in targets:
        res.add(abs(value - target), cfg.tol.demo)
    res.add(0.0 if demo.window_holds else 1.0, 0.5)
    res.add(0.0 if demo.report_ab.winner == "geometric" else 1.0, 0.5)
    res.add(0.0 if demo.report_cd.winner == "robertson_schrodinger" else 1.0, 0.5)
    res.add(0.0 if demo.sxsy_product >= demo.sxsy_floor else 1.0, 0.5)
    return res


# --- driver ------------------------------------------------------------------

def run_all(cfg: RunConfig) -> list[SuiteResult]:
    cfg.validate()
    results: list[SuiteResult] = []
    results.append(run_eigensystem_suite(cfg))
    results.append(run_sampler_determinism_suite(cfg))
    results.append(run_exponential_suite(cfg))
    results.append(run_fiber_transitivity_suite(cfg))
    results.append(run_purify_determinism_suite(cfg))
    results.append(run_partial_trace_suite(cfg))
    results.append(run_connection_suite(cfg))
    results.append(run_momentum_fd_suite(cfg))
    results.append(run_momentum_equivariance_suite(cfg))
    results.extend(run_identity_campaign(cfg))
    results.append(run_pure_collapse_suite(cfg))
    results.append(run_parallel_collapse_suite(cfg))
    results.append(run_gauge_invariance_suite(cfg))
    results.append(run_representative_suite(cfg))
    results.extend(run_evolution_suites(cfg))
    results.extend(run_spin_suites(cfg))
    results.append(run_spin_demo_suite(cfg))
    return results


def summary(results: list[SuiteResult]) -> dict:
    return {
        r.name: {
            "pass": r.passed,
            "fail": r.failed,
            "worst_residual": r.worst_residual,
        }
        for r in results
    }
