"""Uncertainty statistics, the three lower bounds, and orbit-preserving
evolution.

For observables A, B at a mixed state rho with purification psi:

  * Robertson-Schrodinger bound:  sqrt(cov(A,B)^2 + com(A,B)^2) from the
    symmetric/antisymmetric product expectations.
  * Geometric bound:  (hbar/2) sqrt({A,B}_g^2 + {A,B}_w^2) from the metric
    and symplectic brackets on the isospectral orbit.
  * Combined bound:  (hbar/2) sqrt({A,B}_g^2 + {A,B}_w^2
                        + max(0, 2 {A,B}_g xiA_perp.xiB_perp
                                  + (xiA_perp.xiB_perp)^2)),
    which equals max(geometric, RS) pointwise.

The two bounds differ exactly by the xi_perp cross term, which measures the
classical covariance content hidden in the gauge directions; the
decomposition report exposes every term and self-checks the underlying
product identities. The trace side of those checks is computed from
rho = psi psi†, apart from the k x k kernel; the frame remembers rho and
each observable's A rho, <A> and dA, so the pairs of one request share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .config import Tolerances
from .errors import IdentityViolation, SpectrumDrift
from .geometry import GeometryContext, _lift, pair_terms, split
from .linalg import _unitary_flow, check_observable, frobenius
from .states import DensityState, PurificationFrame, Spectrum, _frozen, frame_to_state

__all__ = [
    "BoundReport",
    "moments",
    "rs_bound",
    "geometric_bound",
    "combined_bound",
    "decomposition",
    "classify",
    "EvolutionResult",
    "evolve",
]


@dataclass(frozen=True)
class BoundReport:
    """All scalars of a two-observable comparison at one state.

    Field names double as the wire format. ``winner`` is decided with a tie
    window of tol.tie * max(1, dA*dB) so round-off never flips the headline.
    """

    expA: float
    expB: float
    dA: float
    dB: float
    rs_bound: float
    geo_bound: float
    combined_bound: float
    g_bracket: float
    w_bracket: float
    xiAperp_xiBperp: float
    xiAperp_sq: float
    xiBperp_sq: float
    winner: str


def _moments(a: np.ndarray, a_rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<A> and dA from A and A rho, over the trailing two axes."""
    exp = np.trace(a_rho, axis1=-2, axis2=-1).real
    second = np.einsum("...ij,...ji->...", a, a_rho).real
    return exp, np.sqrt(np.maximum(0.0, second - exp * exp))


def _cov_com(a: np.ndarray, b: np.ndarray, a_rho: np.ndarray, b_rho: np.ndarray,
             exp_a: np.ndarray, exp_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cov(A,B) and com(A,B) from Tr(A B rho), Tr(B A rho) and the
    expectations; the Robertson-Schrodinger bound is hypot(cov, com)."""
    ab = np.einsum("...ij,...ji->...", a, b_rho)
    ba = np.einsum("...ij,...ji->...", b, a_rho)
    return 0.5 * (ab.real + ba.real) - exp_a * exp_b, 0.5 * (ab.imag - ba.imag)


def _bounds(g: np.ndarray, w: np.ndarray, cross: np.ndarray,
            hbar: float) -> tuple[np.ndarray, np.ndarray]:
    """Geometric and combined bounds from the brackets g_AB, w_AB and the
    cross term xiA_perp . xiB_perp."""
    geo = 0.5 * hbar * np.hypot(g, w)
    diff = 2.0 * g * cross + cross * cross
    return geo, 0.5 * hbar * np.sqrt(g**2 + w**2 + np.maximum(0.0, diff))


def moments(a, state: DensityState, tol: Tolerances | None = None) -> tuple[float, float]:
    """Expectation value and uncertainty sqrt(<A^2> - <A>^2).

    Negative round-off under the square root is clamped to zero.
    """
    a = check_observable(a, state.n, tol)
    exp, d = _moments(a, a @ state.rho)
    return float(exp), float(d)


def rs_bound(a, b, state: DensityState, tol: Tolerances | None = None) -> float:
    """Robertson-Schrodinger lower bound for dA*dB at the state."""
    a = check_observable(a, state.n, tol, "observable A")
    b = check_observable(b, state.n, tol, "observable B")
    a_rho, b_rho = a @ state.rho, b @ state.rho
    (exp_a, _), (exp_b, _) = _moments(a, a_rho), _moments(b, b_rho)
    return float(np.hypot(*_cov_com(a, b, a_rho, b_rho, exp_a, exp_b)))


def _trace_side(a: np.ndarray, psi: PurificationFrame) -> tuple[np.ndarray, float, float]:
    """A rho, <A> and dA for a checked observable, traced against
    rho = psi psi†; the frame remembers rho and each observable's triple
    (by content), independently of ``pair_terms``' k x k data."""

    def build() -> tuple[np.ndarray, float, float]:
        rho = psi._remember("rho", None, lambda: frame_to_state(psi).rho)
        a_rho = _frozen(a @ rho)
        exp, d = _moments(a, a_rho)
        return a_rho, float(exp), float(d)

    return psi._remember(("trace", a.shape, a.tobytes()), None, build)


def _winner(geo: float, rs: float, da: float, db: float, tol: Tolerances) -> str:
    window = tol.tie * max(1.0, da * db)
    if geo > rs + window:
        return "geometric"
    if rs > geo + window:
        return "robertson_schrodinger"
    return "tie"


def decomposition(a, b, psi: PurificationFrame,
                  ctx: GeometryContext | None = None) -> BoundReport:
    """Full term-by-term comparison of the bounds at one state.

    Self-checks the two product identities behind the comparison: the
    diagonal one,

      dA^2 dB^2 = (hbar^2/4)(gAA gBB + gAA xiBp^2 + gBB xiAp^2
                              + xiAp^2 xiBp^2),

    and the cross one,

      cov^2 + com^2 = (hbar^2/4)(gAB^2 + wAB^2 + 2 gAB xiABp + xiABp^2).

    Raises IdentityViolation if either residual exceeds
    tol.identity * max(1, |lhs|, |rhs|).
    """
    ctx = ctx or GeometryContext()
    hbar = ctx.hbar
    t = pair_terms(a, b, psi, ctx)
    g_ab, w_ab, g_aa, g_bb = t.g_ab, t.w_ab, t.g_aa, t.g_bb
    cross, sq_a, sq_b = t.pa_pb, t.pa_pa, t.pb_pb

    # the trace side of both identities, from rho = psi psi† (pair_terms
    # has validated the observables)
    a, b = (np.asarray(x, dtype=complex) for x in (a, b))
    a_rho, exp_a, d_a = _trace_side(a, psi)
    b_rho, exp_b, d_b = _trace_side(b, psi)

    quarter = 0.25 * hbar * hbar
    lhs1 = (d_a * d_b) ** 2
    rhs1 = quarter * (g_aa * g_bb + g_aa * sq_b + g_bb * sq_a + sq_a * sq_b)
    if abs(lhs1 - rhs1) > ctx.tol.identity * max(1.0, abs(lhs1), abs(rhs1)):
        raise IdentityViolation(
            f"uncertainty-product identity residual {abs(lhs1 - rhs1):.3e}"
        )

    rs = float(np.hypot(*_cov_com(a, b, a_rho, b_rho, exp_a, exp_b)))
    lhs2 = rs * rs
    rhs2 = quarter * (g_ab**2 + w_ab**2 + 2.0 * g_ab * cross + cross**2)
    if abs(lhs2 - rhs2) > ctx.tol.identity * max(1.0, abs(lhs2), abs(rhs2)):
        raise IdentityViolation(
            f"covariance-commutator identity residual {abs(lhs2 - rhs2):.3e}"
        )

    geo, combined = (float(x) for x in _bounds(g_ab, w_ab, cross, hbar))

    return BoundReport(
        expA=exp_a,
        expB=exp_b,
        dA=d_a,
        dB=d_b,
        rs_bound=rs,
        geo_bound=geo,
        combined_bound=combined,
        g_bracket=g_ab,
        w_bracket=w_ab,
        xiAperp_xiBperp=cross,
        xiAperp_sq=sq_a,
        xiBperp_sq=sq_b,
        winner=_winner(geo, rs, d_a, d_b, ctx.tol),
    )


def geometric_bound(a, b, psi: PurificationFrame,
                    ctx: GeometryContext | None = None) -> float:
    """(hbar/2) sqrt(g^2 + w^2) from the orbit brackets: the ``geo_bound``
    of the self-checked ``decomposition``."""
    return decomposition(a, b, psi, ctx).geo_bound


def combined_bound(a, b, psi: PurificationFrame,
                   ctx: GeometryContext | None = None) -> float:
    """Pointwise maximum of the geometric and RS bounds, in bracket form:
    the ``combined_bound`` of ``decomposition``, whose cross identity
    rs^2 = geo^2 + (hbar^2/4)(2 g xiAB + xiAB^2) makes the maximum itself a
    bracket-level quantity."""
    return decomposition(a, b, psi, ctx).combined_bound


def classify(a, psi: PurificationFrame, ctx: GeometryContext | None = None) -> str:
    """'parallel' (lift horizontal), 'perpendicular' (lift vertical), or
    'generic', by the relative norms of the split. The zero lift counts as
    parallel."""
    ctx = ctx or GeometryContext()
    lift = _lift(check_observable(a, psi.n, ctx.tol), psi, ctx)
    total = frobenius(lift.x)
    if total == 0.0:
        return "parallel"
    hor, xi = split(psi, lift, ctx)
    if frobenius(psi.psi @ xi.xi) <= ctx.tol.classify * total:
        return "parallel"
    if frobenius(hor.x) <= ctx.tol.classify * total:
        return "perpendicular"
    return "generic"


@dataclass(frozen=True)
class EvolutionResult:
    """Trajectory data from a conjugation flow rho_j = U_j rho U_j†: the stack
    ``rho`` of states on the orbit of ``sigma``, wrapped on first access as
    ``states``."""

    times: np.ndarray
    rho: np.ndarray
    sigma: Spectrum
    expectations: dict[str, np.ndarray]
    flow_residuals: dict[str, np.ndarray]
    spectrum_drift: np.ndarray

    @cached_property
    def states(self) -> tuple[DensityState, ...]:
        return tuple(DensityState(r, self.sigma) for r in self.rho)

    @property
    def max_drift(self) -> float:
        return float(np.max(self.spectrum_drift))

    @property
    def max_flow_residual(self) -> float:
        if not self.flow_residuals:
            return 0.0
        return max(float(np.max(r)) if r.size else 0.0
                   for r in self.flow_residuals.values())


def evolve(h, state: DensityState, t: float, steps: int,
           ctx: GeometryContext | None = None,
           probes: Mapping[str, np.ndarray] | None = None) -> EvolutionResult:
    """Conjugation flow rho_j = U_j rho U_j† with U_j = exp(-i H t_j / hbar).

    The unitaries are ``linalg.unitary_exponential_family`` of -iH/hbar on
    the whole time grid: exact exponentials from one eigendecomposition, so
    staying on the isospectral orbit is an identity, not an integrator
    property. The spectrum of every rho_j is certified independently of the
    flow by one batched eigensolve; drift beyond tol.spec raises
    SpectrumDrift at the first offending step.

    For each probe observable B the flow derivative d<B>/dt, by central
    differences at the interior points, is compared to the symplectic
    bracket {B, H}_w = W(X_B, X_H) of the lifts X_A = A psi_j / (i hbar).
    Because psi_j psi_j† = rho_j, that pairing is (2/hbar) Im Tr(rho_j B H),
    so it is read off the stack of states without building a frame per
    step; residuals are returned per probe. t must be finite and nonzero.
    """
    ctx = ctx or GeometryContext()
    h = check_observable(h, state.n, ctx.tol, "hamiltonian")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not (np.isfinite(t) and t != 0):
        raise ValueError(f"t must be finite and nonzero, got {t}")
    probes = {name: check_observable(mat, state.n, ctx.tol, f"probe {name!r}")
              for name, mat in (probes or {}).items()}

    hbar = ctx.hbar
    times = np.linspace(0.0, t, steps + 1)
    # the family's unchecked core: -iH/hbar has H's relative defect, checked above
    flow = _unitary_flow(h / (1j * hbar))(times)
    rho = flow @ state.rho @ flow.conj().swapaxes(-1, -2)
    rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))

    spectra = np.linalg.eigvalsh(rho)[:, ::-1]
    drift = np.max(np.abs(spectra - state.sigma.padded(state.n)), axis=1)
    off_orbit = np.flatnonzero(~(drift <= ctx.tol.spec))
    if off_orbit.size:
        j = off_orbit[0]
        raise SpectrumDrift(
            f"state left its orbit at t={times[j]}: eigenvalue drift {drift[j]:.3e}",
            drift=float(drift[j]),
        )

    dt = times[1] - times[0]
    expectations: dict[str, np.ndarray] = {}
    residuals: dict[str, np.ndarray] = {}
    for name, mat in probes.items():
        series = np.einsum("ab,sba->s", mat, rho).real
        w = (2.0 / hbar) * np.einsum("ab,sba->s", mat @ h, rho[1:-1]).imag
        expectations[name] = series
        residuals[name] = np.abs((series[2:] - series[:-2]) / (2.0 * dt) - w)

    return EvolutionResult(
        times=times,
        rho=rho,
        sigma=state.sigma,
        expectations=expectations,
        flow_residuals=residuals,
        spectrum_drift=drift,
    )
