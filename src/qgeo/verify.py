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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import Tolerances, default_tolerances
from .errors import IdentityViolation, QGeoError, SpectrumDrift
from .geometry import (
    GeometryContext,
    AmbientTangent,
    ambient_forms,
    chi,
    connection,
    hamiltonian_lift,
    inertia_inner,
    momentum_map,
    random_tangent,
    split,
    xi_field,
)
from .linalg import (
    frobenius,
    hermitian_eigensystem,
    sample_haar_unitary,
    sample_hermitian,
    sample_random,
    trial_rng,
    unitary_exponential_family,
)
from .spin import abcd_experiment, build_ensemble, build_spin, closed_forms, ensemble_spec
from .states import (
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
)
from .uncertainty import classify, evolve, moments, rs_bound

__all__ = [
    "RunConfig",
    "SuiteResult",
    "random_spectrum",
    "random_instance",
    "parallel_observable",
    "perpendicular_observable",
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
    name: str
    passed: int = 0
    failed: int = 0
    worst_residual: float = 0.0

    def add(self, residual: float, limit: float) -> None:
        self.worst_residual = max(self.worst_residual, float(residual))
        if residual <= limit:
            self.passed += 1
        else:
            self.failed += 1

    def fail(self, residual: float = float("nan")) -> None:
        """Count a trial that could not be checked as failed, whatever the
        limit; a measured residual (not NaN) still updates the worst."""
        if residual > self.worst_residual:
            self.worst_residual = float(residual)
        self.failed += 1

    @property
    def ok(self) -> bool:
        return self.failed == 0


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
    d = np.zeros_like(m)
    for b in frame.sigma.blocks:
        d[b, b] = m[b, b]
    inv = 1.0 / frame.sigma.full
    corr = frame.psi @ (d * inv[:, None] * inv[None, :]) @ frame.psi.conj().T
    out = a - corr
    return 0.5 * (out + out.conj().T)


def perpendicular_observable(frame: PurificationFrame, rng: np.random.Generator,
                             ctx: GeometryContext) -> np.ndarray:
    """Observable whose lift is exactly psi*xi for a random gauge element."""
    xi = random_gauge_algebra(frame.sigma, rng).xi
    inv = 1.0 / frame.sigma.full
    out = 1j * ctx.hbar * frame.psi @ (inv[:, None] * xi) @ frame.psi.conj().T
    return 0.5 * (out + out.conj().T)


# --- matrix kernel suites ----------------------------------------------------

def run_eigensystem_suite(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("eigensystem_roundtrip")
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, _EIG, trial)
        n = int(rng.integers(1, cfg.dim_max + 1))
        m = sample_hermitian(n, rng)
        values, vectors = hermitian_eigensystem(m, cfg.tol)
        scale = max(1.0, frobenius(m))
        rebuilt = (vectors * values) @ vectors.conj().T
        resid = frobenius(rebuilt - m) / scale
        resid = max(resid, frobenius(vectors.conj().T @ vectors - np.eye(n)) / scale)
        resid = max(resid, 0.0 if np.all(np.diff(values) <= 1e-15) else 1.0)
        res.add(resid, cfg.tol.roundtrip)
    return res


def run_sampler_determinism_suite(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("sampler_determinism")
    cases = [("hermitian", 5, None), ("haar_unitary", 3, None), ("isometry", 4, 2),
             ("hermitian", cfg.dim_max, None), ("isometry", cfg.dim_max, cfg.dim_max // 2)]
    for trial, (kind, n, k) in enumerate(cases):
        first = sample_random(kind, n, k, trial_rng(cfg.seed, _SAMPLER, trial))
        second = sample_random(kind, n, k, trial_rng(cfg.seed, _SAMPLER, trial))
        identical = np.array_equal(first, second)
        if kind == "isometry":
            contract = frobenius(first.conj().T @ first - np.eye(k))
        elif kind == "haar_unitary":
            contract = abs(abs(np.linalg.det(first)) - 1.0)
        else:
            contract = frobenius(first - first.conj().T)
        res.add(0.0 if identical else 1.0, 0.5)
        res.add(contract, cfg.tol.sampler)
    return res


def run_exponential_suite(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("exponential_group_law")
    for trial in range(cfg.fifth):
        rng = trial_rng(cfg.seed, _EXP, trial)
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
        res.add(resid, cfg.tol.group_law)
    return res


# --- state space suites ------------------------------------------------------

def run_fiber_transitivity_suite(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("fiber_transitivity")
    for trial in range(cfg.fifth):
        rng = trial_rng(cfg.seed, _FIBER, trial)
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
        res.add(resid, cfg.tol.fiber)
    return res


def run_purify_determinism_suite(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("purify_determinism")
    for trial in range(min(cfg.fifth, 50)):
        rng = trial_rng(cfg.seed, _PURIFY, trial)
        frame, _, _ = random_instance(rng, cfg.dim_max)
        state = frame_to_state(frame)
        first = purify(state, cfg.tol)
        second = purify(state, cfg.tol)
        res.add(0.0 if np.array_equal(first.psi, second.psi) else 1.0, 0.5)
        res.add(frobenius(frame_to_state(first).rho - state.rho), cfg.tol.spec)
    return res


def run_partial_trace_suite(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("partial_trace_identity")
    for trial in range(cfg.fifth):
        rng = trial_rng(cfg.seed, _PTRACE, trial)
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(n, 4) + 1))
        sigma = random_spectrum(rng, k)
        frame = random_frame(sigma, n, rng)
        reduced = rank_one_partial_trace(frame)
        res.add(frobenius(reduced - frame_to_state(frame).rho), cfg.tol.partial_trace)
    return res


# --- bundle geometry suites --------------------------------------------------

def run_connection_suite(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("connection_contract")
    ctx = GeometryContext(hbar=cfg.hbar, tol=cfg.tol)
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, _CONN, trial)
        frame, _, _ = random_instance(rng, cfg.dim_max)
        xi = random_gauge_algebra(frame.sigma, rng)
        vertical = AmbientTangent(frame.psi @ xi.xi, frame)
        reproduced = connection(frame, vertical, ctx)
        resid = frobenius(reproduced.xi - xi.xi) / max(1.0, frobenius(xi.xi))
        tangent = random_tangent(frame, rng)
        hor, _ = split(frame, tangent, ctx)
        resid = max(resid, frobenius(connection(frame, hor, ctx).xi)
                    / max(1.0, frobenius(tangent.x)))
        hor2, vert2 = split(frame, hor, ctx)
        resid = max(resid, frobenius(hor2.x - hor.x) / max(1.0, frobenius(hor.x)))
        resid = max(resid, frobenius(vert2.x) / max(1.0, frobenius(hor.x)))
        res.add(resid, cfg.tol.connection)
    return res


def run_momentum_fd_suite(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("momentum_differential")
    ctx = GeometryContext(hbar=cfg.hbar, tol=cfg.tol)
    h = cfg.tol.fd_step
    for trial in range(cfg.fifth):
        rng = trial_rng(cfg.seed, _MOMFD, trial)
        frame, _, _ = random_instance(rng, cfg.dim_max)
        xi = random_gauge_algebra(frame.sigma, rng)
        tangent = random_tangent(frame, rng)
        plus = momentum_map(frame.psi + h * tangent.x, xi.xi, ctx)
        minus = momentum_map(frame.psi - h * tangent.x, xi.xi, ctx)
        fd = (plus - minus) / (2.0 * h)
        target = ambient_forms(AmbientTangent(frame.psi @ xi.xi, frame), tangent, ctx).w
        res.add(abs(fd - target) / max(1.0, abs(target)), cfg.tol.fd)
    return res


def run_momentum_equivariance_suite(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("momentum_equivariance")
    ctx = GeometryContext(hbar=cfg.hbar, tol=cfg.tol)
    for trial in range(cfg.fifth):
        rng = trial_rng(cfg.seed, _MOMEQ, trial)
        frame, _, _ = random_instance(rng, cfg.dim_max)
        k = frame.sigma.k
        u = sample_haar_unitary(k, rng)
        xi = 1j * sample_hermitian(k, rng)
        lhs = momentum_map(frame.psi @ u, xi, ctx)
        rhs = momentum_map(frame, u @ xi @ u.conj().T, ctx)
        res.add(abs(lhs - rhs) / max(1.0, abs(rhs)), cfg.tol.invariance)
    return res


# --- identity and bound campaign ---------------------------------------------

def _instance_terms(a: np.ndarray, b: np.ndarray, frame: PurificationFrame,
                    ctx: GeometryContext) -> dict[str, float]:
    """All bracket/xi-field scalars of one instance via the pipeline."""
    lift_a = hamiltonian_lift(a, frame, ctx)
    lift_b = hamiltonian_lift(b, frame, ctx)
    hor_a, _ = split(frame, lift_a, ctx)
    hor_b, _ = split(frame, lift_b, ctx)
    xi_a, perp_a = xi_field(a, frame, ctx)
    xi_b, perp_b = xi_field(b, frame, ctx)
    c = chi(frame.sigma, ctx.hbar)
    return {
        "g_ab": ambient_forms(hor_a, hor_b, ctx).g,
        "w_ab": ambient_forms(lift_a, lift_b, ctx).w,
        "w_hor": ambient_forms(hor_a, hor_b, ctx).w,
        "g_aa": ambient_forms(hor_a, hor_a, ctx).g,
        "g_bb": ambient_forms(hor_b, hor_b, ctx).g,
        "xa_xb": inertia_inner(xi_a, xi_b, ctx),
        "pa_pb": inertia_inner(perp_a, perp_b, ctx),
        "pa_pa": inertia_inner(perp_a, perp_a, ctx),
        "pb_pb": inertia_inner(perp_b, perp_b, ctx),
        "chi_a": inertia_inner(c, xi_a, ctx),
        "chi_b": inertia_inner(c, xi_b, ctx),
    }


def run_identity_campaign(cfg: RunConfig) -> list[SuiteResult]:
    """One pass over random instances feeding several suites.

    Trace-level statistics (expectations, covariance, commutator, moments)
    act as the oracle side; the bracket pipeline is the machine side.
    Alternates hbar between 1 and 0.32 to catch hidden unit errors.
    """
    names = [
        "identity_expectation", "identity_product", "identity_covariance",
        "identity_variance_product", "identity_rs_decomposition", "cauchy_schwarz",
        "variance_floor", "bound_dominance", "combined_is_max",
        "omega_from_horizontal",
    ]
    suites = {name: SuiteResult(name) for name in names}
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, _IDENT, trial)
        hbar = 1.0 if trial % 2 == 0 else 0.32
        ctx = GeometryContext(hbar=hbar, tol=cfg.tol)
        frame, a, b = random_instance(rng, cfg.dim_max)
        state = frame_to_state(frame)
        rho = state.rho

        exp_a = float(np.real(np.trace(a @ rho)))
        exp_b = float(np.real(np.trace(b @ rho)))
        sym = float(np.real(np.trace(0.5 * (a @ b + b @ a) @ rho)))
        com = float(np.real(np.trace((a @ b - b @ a) @ rho) / 2j))
        _, d_a = moments(a, state, cfg.tol)
        _, d_b = moments(b, state, cfg.tol)

        try:
            t = _instance_terms(a, b, frame, ctx)
        except QGeoError:
            # an instance the pipeline cannot evaluate fails every suite it
            # feeds, not the run
            for suite in suites.values():
                suite.fail()
            continue
        half = 0.5 * hbar
        quarter = 0.25 * hbar * hbar
        root = np.sqrt(0.5 * hbar)

        def scaled(lhs: float, rhs: float) -> float:
            return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))

        suites["identity_expectation"].add(
            max(scaled(exp_a, root * t["chi_a"]), scaled(exp_b, root * t["chi_b"])),
            cfg.tol.identity)
        suites["identity_product"].add(
            max(scaled(sym, half * (t["g_ab"] + t["xa_xb"])),
                scaled(com, half * t["w_ab"])),
            cfg.tol.identity)
        suites["identity_covariance"].add(
            scaled(sym - exp_a * exp_b, half * (t["g_ab"] + t["pa_pb"])),
            cfg.tol.identity)
        suites["identity_variance_product"].add(
            scaled((d_a * d_b) ** 2,
                   quarter * (t["g_aa"] * t["g_bb"] + t["g_aa"] * t["pb_pb"]
                              + t["g_bb"] * t["pa_pa"] + t["pa_pa"] * t["pb_pb"])),
            cfg.tol.identity)
        cov = sym - exp_a * exp_b
        suites["identity_rs_decomposition"].add(
            scaled(cov * cov + com * com,
                   quarter * (t["g_ab"] ** 2 + t["w_ab"] ** 2
                              + 2.0 * t["g_ab"] * t["pa_pb"] + t["pa_pb"] ** 2)),
            cfg.tol.identity)

        cs_slack = t["g_aa"] * t["g_bb"] - (t["g_ab"] ** 2 + t["w_hor"] ** 2)
        suites["cauchy_schwarz"].add(
            max(0.0, -cs_slack) / max(1.0, t["g_aa"] * t["g_bb"]),
            cfg.tol.dominance)
        floor_slack = d_a * d_a - half * t["g_aa"]
        suites["variance_floor"].add(
            max(0.0, -floor_slack) / max(1.0, d_a * d_a), cfg.tol.dominance)

        geo = half * float(np.hypot(t["g_ab"], t["w_ab"]))
        rs = float(np.hypot(cov, com))
        diff = 2.0 * t["g_ab"] * t["pa_pb"] + t["pa_pb"] ** 2
        combined = half * float(np.sqrt(t["g_ab"] ** 2 + t["w_ab"] ** 2 + max(0.0, diff)))
        product = d_a * d_b
        scale = max(1.0, product)
        dom = max(0.0, geo - product, rs - product, combined - product) / scale
        suites["bound_dominance"].add(dom, cfg.tol.dominance)
        suites["combined_is_max"].add(
            abs(combined - max(geo, rs)) / scale, cfg.tol.dominance)
        suites["omega_from_horizontal"].add(
            abs(t["w_ab"] - t["w_hor"]) / max(1.0, abs(t["w_ab"])),
            cfg.tol.invariance)
    return list(suites.values())


def run_pure_collapse_suite(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("pure_state_collapse")
    for trial in range(cfg.fifth):
        rng = trial_rng(cfg.seed, _PURE, trial)
        hbar = 1.0 if trial % 2 == 0 else 0.32
        ctx = GeometryContext(hbar=hbar, tol=cfg.tol)
        frame, a, b = random_instance(rng, cfg.dim_max, k=1)
        state = frame_to_state(frame)
        try:
            t = _instance_terms(a, b, frame, ctx)
        except QGeoError:
            res.fail()
            continue
        geo = 0.5 * hbar * float(np.hypot(t["g_ab"], t["w_ab"]))
        rs = rs_bound(a, b, state, cfg.tol)
        res.add(abs(geo - rs) / max(1.0, rs), cfg.tol.invariance)
    return res


def run_parallel_collapse_suite(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("parallel_collapse")
    for trial in range(cfg.fifth):
        rng = trial_rng(cfg.seed, _PARALLEL, trial)
        hbar = 1.0 if trial % 2 == 0 else 0.32
        ctx = GeometryContext(hbar=hbar, tol=cfg.tol)
        frame, a, b = random_instance(rng, cfg.dim_max)
        while frame.sigma.l == 1 and frame.sigma.k == frame.n:
            # point orbit (maximally mixed full-rank state): no nonzero
            # parallel observables exist there
            frame, a, b = random_instance(rng, cfg.dim_max)
        par = parallel_observable(a, frame, ctx)
        try:
            resid = 0.0 if classify(par, frame, ctx) == "parallel" else 1.0
            t = _instance_terms(par, b, frame, ctx)
        except QGeoError:
            res.fail()
            continue
        state = frame_to_state(frame)
        geo = 0.5 * hbar * float(np.hypot(t["g_ab"], t["w_ab"]))
        rs = rs_bound(par, b, state, cfg.tol)
        resid = max(resid, abs(geo - rs) / max(1.0, rs))
        res.add(resid, cfg.tol.invariance)
    return res


# --- invariance suites -------------------------------------------------------

def run_gauge_invariance_suite(cfg: RunConfig) -> SuiteResult:
    res = SuiteResult("gauge_invariance")
    ctx = GeometryContext(hbar=cfg.hbar, tol=cfg.tol)
    for trial in range(cfg.fifth):
        rng = trial_rng(cfg.seed, _GAUGE, trial)
        frame, a, b = random_instance(rng, cfg.dim_max)
        u = random_gauge(frame.sigma, rng)
        moved = gauge_act(frame, u, cfg.tol)
        try:
            t0 = _instance_terms(a, b, frame, ctx)
            t1 = _instance_terms(a, b, moved, ctx)
            xi0, _ = xi_field(a, frame, ctx)
            xi1, _ = xi_field(a, moved, ctx)
        except QGeoError:
            res.fail()
            continue
        resid = max(
            abs(t0[key] - t1[key]) / max(1.0, abs(t0[key]))
            for key in ("g_ab", "w_ab", "xa_xb", "pa_pb", "chi_a")
        )
        conj = u.conj().T @ xi0.xi @ u
        resid = max(resid, frobenius(xi1.xi - conj) / max(1.0, frobenius(conj)))
        res.add(resid, cfg.tol.invariance)
    return res


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
    res = SuiteResult("representative_independence")
    ctx = GeometryContext(hbar=cfg.hbar, tol=cfg.tol)
    for trial in range(cfg.fifth):
        rng = trial_rng(cfg.seed, _REPR, trial)
        frame, a, b = random_instance(rng, cfg.dim_max)
        u = sample_haar_unitary(frame.sigma.k, rng)
        try:
            t0 = _instance_terms(a, b, frame, ctx)
        except QGeoError:
            res.fail()
            continue
        t1 = representative_scalars(a, b, frame, u, ctx.hbar)
        resid = max(abs(t0[key] - t1[key]) / max(1.0, abs(t0[key])) for key in t1)
        res.add(resid, cfg.tol.invariance)
    return res


# --- evolution suite ---------------------------------------------------------

def run_evolution_suites(cfg: RunConfig) -> list[SuiteResult]:
    drift = SuiteResult("evolution_spectrum_drift")
    flow = SuiteResult("evolution_flow_derivative")
    ctx = GeometryContext(hbar=cfg.hbar, tol=cfg.tol)
    for trial in range(cfg.twentieth):
        rng = trial_rng(cfg.seed, _EVOLVE, trial)
        frame, h, b = random_instance(rng, cfg.dim_max)
        h = h / max(1.0, frobenius(h))
        b = b / max(1.0, frobenius(b))
        state = frame_to_state(frame)
        try:
            result = evolve(h, state, t=0.1, steps=100, ctx=ctx, probes={"B": b})
        except SpectrumDrift as exc:
            # a trajectory that leaves its orbit fails both suites, not the run
            drift.fail(exc.drift)
            flow.fail()
            continue
        drift.add(result.max_drift, cfg.tol.spec)
        flow.add(result.max_flow_residual, cfg.tol.flow)
    return [drift, flow]


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
    return ensemble_spec(s, m_list, p_list)


def run_spin_suites(cfg: RunConfig) -> list[SuiteResult]:
    agreement = SuiteResult("closed_form_agreement")
    horizontality = SuiteResult("spin_horizontality")
    ctx = GeometryContext(hbar=cfg.hbar, tol=cfg.tol)
    for trial in range(cfg.fifth):
        rng = trial_rng(cfg.seed, _SPIN, trial)
        spec = _random_ensemble(rng)
        spin = build_spin(spec.s, cfg.hbar)
        state, frame = build_ensemble(spec)
        # a failed internal cross-check or oracle is a suite failure, not a crash
        try:
            forms = closed_forms(spec, ctx)
            _, perp = xi_field(spin.sz, frame, ctx)
            machine = {
                "sxsy_omega": _instance_terms(spin.sx, spin.sy, frame, ctx)["w_ab"],
                "sxsx_g": _instance_terms(spin.sx, spin.sx, frame, ctx)["g_ab"],
                "xi_sz_perp_sq": inertia_inner(perp, perp, ctx),
                "sz_exp": moments(spin.sz, state, cfg.tol)[0],
            }
        except QGeoError:
            agreement.fail()
        else:
            agreement.add(max(abs(machine[name] - getattr(forms, name))
                              / max(1.0, abs(getattr(forms, name))) for name in machine),
                          cfg.tol.invariance)

        try:
            lift_x = hamiltonian_lift(spin.sx, frame, ctx)
            lift_y = hamiltonian_lift(spin.sy, frame, ctx)
            lift_z = hamiltonian_lift(spin.sz, frame, ctx)
            resid_h = max(
                frobenius(connection(frame, lift_x, ctx).xi) / max(1.0, frobenius(lift_x.x)),
                frobenius(connection(frame, lift_y, ctx).xi) / max(1.0, frobenius(lift_y.x)),
            )
            xi_z, _ = xi_field(spin.sz, frame, ctx)
        except QGeoError:
            horizontality.fail()
            continue
        resid_h = max(resid_h, frobenius(lift_z.x - frame.psi @ xi_z.xi)
                      / max(1.0, frobenius(lift_z.x)))
        horizontality.add(resid_h, cfg.tol.connection)
    return [agreement, horizontality]


def run_spin_demo_suite(cfg: RunConfig) -> SuiteResult:
    """The worked s=1 example with its frozen targets."""
    res = SuiteResult("spin_demo")
    ctx = GeometryContext(hbar=1.0, tol=cfg.tol)
    spec = ensemble_spec(1.0, (1.0, 0.0), (0.7, 0.3))
    try:
        demo = abcd_experiment(spec, 0.25, ctx)
    except IdentityViolation:
        res.fail()
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
