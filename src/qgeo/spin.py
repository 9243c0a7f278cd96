"""Spin-s operators, diagonal spin ensembles, and the four-observable
bound-comparison experiment.

Basis convention: |s, m> with m descending from s to -s, so the z operator
is diag(hbar*m) and the ladder matrices sit on the first off-diagonals.
Ensembles pair descending nondegenerate weights p_j with distinct magnetic
numbers m_j; their canonical frame puts sqrt(p_j) at (row of m_j, column j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Tolerances
from .errors import BadSpin, IdentityViolation, NonPositive
from .geometry import GeometryContext, pair_terms
from .states import DensityState, PurificationFrame, Spectrum, make_spectrum
from .uncertainty import BoundReport, decomposition, moments

__all__ = [
    "SpinSystem",
    "build_spin",
    "EnsembleSpec",
    "ensemble_spec",
    "build_ensemble",
    "ClosedForms",
    "closed_forms",
    "SpinDemoReport",
    "abcd_experiment",
]


@dataclass(frozen=True)
class SpinSystem:
    """Spin matrices for one value of s, in the descending-m basis."""

    s: float
    hbar: float
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    splus: np.ndarray
    sminus: np.ndarray

    @property
    def dim(self) -> int:
        return self.sx.shape[0]


def _check_half_integer(s: float) -> float:
    two_s = 2.0 * s
    if s < 0 or abs(two_s - round(two_s)) > 1e-12:
        raise BadSpin(f"spin must be a nonnegative half-integer, got {s}")
    return float(s)


def build_spin(s: float, hbar: float = 1.0) -> SpinSystem:
    """Construct Sx, Sy, Sz and the ladder operators for spin s.

    Ladder amplitudes a(+/-)_m = sqrt(s(s+1) - m(m +/- 1)) place
    hbar * a+_m one row above the diagonal and hbar * a-_m one row below.
    """
    s = _check_half_integer(s)
    if hbar <= 0:
        raise NonPositive(f"hbar must be positive, got {hbar}")
    dim = int(round(2 * s + 1))
    m = s - np.arange(dim)
    splus = np.zeros((dim, dim), dtype=complex)
    sminus = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        if i >= 1:  # raise m_i -> m_i + 1, lands on row i-1
            splus[i - 1, i] = hbar * np.sqrt(s * (s + 1) - m[i] * (m[i] + 1))
        if i + 1 < dim:  # lower m_i -> m_i - 1, lands on row i+1
            sminus[i + 1, i] = hbar * np.sqrt(s * (s + 1) - m[i] * (m[i] - 1))
    sx = 0.5 * (splus + sminus)
    sy = (splus - sminus) / 2j
    sz = (hbar * np.diag(m)).astype(complex)
    return SpinSystem(s=s, hbar=hbar, sx=sx, sy=sy, sz=sz, splus=splus, sminus=sminus)


@dataclass(frozen=True)
class EnsembleSpec:
    """Spin-s ensemble: weight p_j of magnetic quantum number m_j.

    Weights are strictly descending (nondegenerate) and the m_j distinct, so
    the orbit's gauge group is the diagonal torus.
    """

    s: float
    m_list: tuple[float, ...]
    p_list: tuple[float, ...]

    @property
    def k(self) -> int:
        return len(self.p_list)

    def spectrum(self) -> Spectrum:
        # the weights were validated by ensemble_spec, at its tolerances
        return Spectrum(self.p_list, (1,) * self.k)


def ensemble_spec(s: float, m_list, p_list, tol: Tolerances | None = None) -> EnsembleSpec:
    """Validate ensemble data; the weights form a nondegenerate spectrum
    (``make_spectrum`` at ``tol``)."""
    s = _check_half_integer(s)
    ms = tuple(float(m) for m in m_list)
    ps = tuple(float(p) for p in p_list)
    if len(ms) != len(ps) or not ms:
        raise BadSpin(f"need matching nonempty m and p lists, got {len(ms)} and {len(ps)}")
    for m in ms:
        if abs(m) > s + 1e-12 or abs((s - m) - round(s - m)) > 1e-12:
            raise BadSpin(f"m={m} is not a magnetic quantum number for s={s}")
    if len(set(ms)) != len(ms):
        raise BadSpin(f"magnetic quantum numbers must be distinct, got {ms}")
    make_spectrum(ps, tol=tol)
    return EnsembleSpec(s=s, m_list=ms, p_list=ps)


def build_ensemble(spec: EnsembleSpec) -> tuple[DensityState, PurificationFrame]:
    """Diagonal ensemble state and its canonical frame.

    rho has p_j on the diagonal slot of m_j; psi has sqrt(p_j) at
    (slot of m_j, j). psi psi† = rho and psi†psi = diag(p) exactly.
    """
    dim = int(round(2 * spec.s + 1))
    sigma = spec.spectrum()
    rho = np.zeros((dim, dim), dtype=complex)
    psi = np.zeros((dim, spec.k), dtype=complex)
    for j, (mj, pj) in enumerate(zip(spec.m_list, spec.p_list)):
        idx = int(round(spec.s - mj))
        rho[idx, idx] = pj
        psi[idx, j] = np.sqrt(pj)
    return DensityState(rho, sigma), PurificationFrame(psi, sigma)


@dataclass(frozen=True)
class ClosedForms:
    """Closed-form ensemble quantities (cross-checked against the generic
    pipeline on construction)."""

    sxsy_omega: float
    sxsx_g: float
    xi_sz_perp_sq: float
    sz_exp: float


def closed_forms(spec: EnsembleSpec, ctx: GeometryContext | None = None) -> ClosedForms:
    """Evaluate the ensemble's closed forms and verify each against the
    bundle-geometry computation at the canonical frame.

    sxsy_omega     = hbar * sum p_j m_j
    sxsx_g         = hbar * s(s+1) - hbar * sum m_j^2 p_j
    xi_sz_perp_sq  = 2 hbar sum m_j^2 p_j - 2 hbar (sum m_j p_j)^2
    sz_exp         = hbar * sum m_j p_j
    """
    ctx = ctx or GeometryContext()
    hbar = ctx.hbar
    p = np.asarray(spec.p_list)
    m = np.asarray(spec.m_list)
    mp = float(np.sum(m * p))
    m2p = float(np.sum(m * m * p))
    forms = ClosedForms(
        sxsy_omega=hbar * mp,
        sxsx_g=hbar * spec.s * (spec.s + 1) - hbar * m2p,
        xi_sz_perp_sq=2.0 * hbar * m2p - 2.0 * hbar * mp * mp,
        sz_exp=hbar * mp,
    )

    spin = build_spin(spec.s, hbar)
    state, psi = build_ensemble(spec)
    xy = pair_terms(spin.sx, spin.sy, psi, ctx)
    machine = {
        "sxsy_omega": xy.w_ab,
        "sxsx_g": xy.g_aa,
        "xi_sz_perp_sq": pair_terms(spin.sz, spin.sz, psi, ctx).pa_pa,
        "sz_exp": moments(spin.sz, state, ctx.tol)[0],
    }
    for name, value in machine.items():
        target = getattr(forms, name)
        if abs(value - target) > ctx.tol.closed_form * max(1.0, abs(target)):
            raise IdentityViolation(
                f"closed form {name}: pipeline {value!r} vs formula {target!r}"
            )
    return forms


@dataclass(frozen=True)
class SpinDemoReport:
    """Outcome of the four-observable experiment on one ensemble."""

    spec: EnsembleSpec
    eps: float
    closed: ClosedForms
    report_ab: BoundReport
    report_cd: BoundReport
    sxsy_product: float
    sxsy_floor: float
    window_lower: float
    window_upper: float
    window_holds: bool


def abcd_experiment(spec: EnsembleSpec, eps: float,
                    ctx: GeometryContext | None = None) -> SpinDemoReport:
    """Compare the bounds for A = Sx + sqrt(eps) Sz, B = Sx - sqrt(eps) Sz,
    C = Sx + Sz, D = Sy + Sz at the ensemble state.

    The window condition 0 < eps * xi_sz_perp_sq < sxsx_g is checked
    numerically per instance (rather than assuming any a-priori range for
    eps). When it holds, the geometric bound must win on (A, B) and the RS
    bound on (C, D); a violation of that implication raises
    IdentityViolation. The product dSx * dSy is also checked against
    (hbar^2/2) |sum p_j m_j|.
    """
    ctx = ctx or GeometryContext()
    if eps <= 0:
        raise NonPositive(f"eps must be positive, got {eps}")
    forms = closed_forms(spec, ctx)
    spin = build_spin(spec.s, ctx.hbar)
    state, psi = build_ensemble(spec)

    root = np.sqrt(eps)
    a = spin.sx + root * spin.sz
    b = spin.sx - root * spin.sz
    c = spin.sx + spin.sz
    d = spin.sy + spin.sz
    report_ab = decomposition(a, b, psi, ctx)
    report_cd = decomposition(c, d, psi, ctx)

    lower = eps * forms.xi_sz_perp_sq
    upper = forms.sxsx_g
    window_holds = 0.0 < lower < upper

    _, dsx = moments(spin.sx, state, ctx.tol)
    _, dsy = moments(spin.sy, state, ctx.tol)
    sxsy_product = dsx * dsy
    sxsy_floor = 0.5 * ctx.hbar**2 * abs(sum(pj * mj for pj, mj in zip(spec.p_list, spec.m_list)))
    if sxsy_product < sxsy_floor - ctx.tol.dominance * max(1.0, sxsy_floor):
        raise IdentityViolation(
            f"dSx*dSy = {sxsy_product!r} fell below its bracket bound {sxsy_floor!r}"
        )

    if window_holds:
        if report_ab.winner != "geometric" or report_cd.winner != "robertson_schrodinger":
            raise IdentityViolation(
                "window condition holds but winners are "
                f"AB={report_ab.winner!r}, CD={report_cd.winner!r}"
            )

    return SpinDemoReport(
        spec=spec,
        eps=float(eps),
        closed=forms,
        report_ab=report_ab,
        report_cd=report_cd,
        sxsy_product=sxsy_product,
        sxsy_floor=sxsy_floor,
        window_lower=lower,
        window_upper=upper,
        window_holds=window_holds,
    )
