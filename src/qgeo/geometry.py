"""Metric and symplectic geometry of the purification bundle.

The ambient operator space carries the pairings

    G(X, Y) = hbar Tr(X†Y + Y†X),      W(X, Y) = -i hbar Tr(X†Y - Y†X),

i.e. 2*hbar times the real/imaginary parts of the Hilbert-Schmidt product.
Frames psi with psi†psi = P form a bundle over the isospectral orbit whose
gauge directions are psi*xi for block-diagonal anti-Hermitian xi. The
mechanical connection

    A_psi(X) = sum_j Pi_j psi†X Pi_j P^-1

projects a tangent onto the gauge algebra; its kernel is the horizontal
subspace, which descends isometrically to the orbit. Observables A lift to
X_A(psi) = A psi / (i hbar); their connection values xi_A and the split of
xi_A along/against the unit central direction chi = 1/(i sqrt(2 hbar))
carry all expectation and covariance data.

Gauge covariance: xi_A transforms by conjugation U† xi_A U under
psi -> psi U, so only Ad-invariant contractions of xi-fields (inner products,
chi-projections) are well-defined scalars on the orbit; those are what this
module exports alongside the brackets.

Every such scalar of an observable pair reduces to k x k data on the
ancilla: with Y_A = A psi, M_A = psi†Y_A and D_A its block-diagonal part,
xi_A = D_A P^-1 / (i hbar), and ``pair_terms`` evaluates brackets and
xi-products from (Y_A, M_A) alone. Those come from ``observable_terms``,
which checks and forms them once per observable and frame (the frame
remembers them by the observable's content), so m observables in all their
pairs cost m checks. The ambient lift/split/connection path stays as the
independent oracle that ``verify`` checks it against.

The oracle functions (``hamiltonian_lift``, ``connection``, ``split``,
``xi_field``, ``chi``, ``ambient_forms``, ``inertia_inner``) work on stacks:
every operation acts on the trailing matrix axes, so a frame may carry a
leading batch axis (``psi`` of shape (B, n, k) with ``sigma.full`` (B, k) and
``sigma.block_mask`` (B, k, k), see ``states.FrameStack``), observables and
tangents may carry further leading axes that broadcast against it, and a
plain frame is the case with no batch axis. Scalars come back with the
leading shape; every check applies to each slice and raises if any fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import Tolerances, default_tolerances
from .errors import (
    BadDims,
    BasepointMismatch,
    IdentityViolation,
    NonPositive,
    NotTangent,
    SpectrumMismatch,
)
from .linalg import (
    _check_defect,
    _complex_gaussian,
    check_anti_hermitian,
    check_finite,
    check_observable,
    frobenius_norms,
    hermitian_eigensystem,
)
from .states import GaugeElement, PurificationFrame, Spectrum, _frozen

__all__ = [
    "GeometryContext",
    "AmbientTangent",
    "ambient_tangent",
    "random_tangent",
    "AmbientForms",
    "ObservableTerms",
    "PairTerms",
    "chi",
    "ambient_forms",
    "inertia_inner",
    "momentum_map",
    "connection",
    "split",
    "hamiltonian_lift",
    "xi_field",
    "observable_terms",
    "pair_terms",
    "brackets",
    "omega_rank",
]


@dataclass(frozen=True)
class GeometryContext:
    """hbar and the tolerance record; the spectrum comes from the inputs."""

    hbar: float = 1.0
    tol: Tolerances = field(default_factory=default_tolerances)

    def __post_init__(self) -> None:
        if not self.hbar > 0:
            raise NonPositive(f"hbar must be positive, got {self.hbar}")


@dataclass(frozen=True)
class AmbientTangent:
    """Tangent vector X at a frame: X†psi + psi†X = 0."""

    x: np.ndarray
    base: PurificationFrame


class AmbientForms(NamedTuple):
    g: float
    w: float


class PairTerms(NamedTuple):
    """Every scalar of an observable pair at one state.

    ``exp_*`` are <A>, <B>; ``second_*`` are <A^2>, <B^2>; ``g_*``/``w_ab``
    are metric/symplectic brackets; ``p*_p*`` are the inertia products of the
    chi-orthogonal xi-fields (``pa_pb`` = xi_A_perp . xi_B_perp).
    """

    exp_a: float
    exp_b: float
    second_a: float
    second_b: float
    g_ab: float
    w_ab: float
    g_aa: float
    g_bb: float
    pa_pb: float
    pa_pa: float
    pb_pb: float


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _tangency_defect(x: np.ndarray, psi: np.ndarray):
    h = _adjoint(x) @ psi
    return frobenius_norms(h + _adjoint(h))


def ambient_tangent(x, base: PurificationFrame,
                    tol: Tolerances | None = None) -> AmbientTangent:
    """Validate tangency of x at the frame and wrap.

    x has the frame's shape, or extra leading axes (a stack of tangents at
    the same frame)."""
    tol = tol or default_tolerances()
    x = np.asarray(x, dtype=complex)
    psi = base.psi
    if x.shape[x.ndim - psi.ndim:] != psi.shape:
        raise NotTangent(f"tangent shape {x.shape} does not end in frame shape {psi.shape}")
    if not np.isfinite(x).all():
        raise BadDims("tangent contains non-finite entries")
    scale = np.maximum(1.0, frobenius_norms(x) * frobenius_norms(psi))
    defect = _tangency_defect(x, psi)
    if (defect > tol.tangent * scale).any():
        raise NotTangent(f"|X†psi + psi†X|_F = {np.max(defect):.3e} exceeds "
                         f"{tol.tangent:.3e} x scale")
    return AmbientTangent(x, base)


def random_tangent(base: PurificationFrame, rng: np.random.Generator) -> AmbientTangent:
    """Gaussian tangent vector at the frame.

    A raw Gaussian matrix is corrected by psi*M where M solves
    MP + PM = X†psi + psi†X entrywise (possible since p_i + p_j > 0),
    which lands exactly on the tangency constraint.
    """
    n, k = base.psi.shape
    raw = _complex_gaussian(n, k, rng)
    h = raw.conj().T @ base.psi + base.psi.conj().T @ raw
    p = base.sigma.full
    m = h / (p[:, None] + p[None, :])
    return AmbientTangent(raw - base.psi @ m, base)


def _resolve_tangent(psi: PurificationFrame, x, tol: Tolerances) -> AmbientTangent:
    if isinstance(x, AmbientTangent):
        if x.base.psi is not psi.psi and not np.array_equal(x.base.psi, psi.psi):
            raise BasepointMismatch("tangent is anchored at a different frame")
        return x
    return ambient_tangent(x, psi, tol)


def chi(sigma: Spectrum, hbar: float = 1.0) -> GaugeElement:
    """The unit central gauge direction 1/(i sqrt(2 hbar)); chi . chi = 1.

    One k x k matrix, which broadcasts over a stack's slices."""
    if not hbar > 0:
        raise NonPositive(f"hbar must be positive, got {hbar}")
    xi = np.eye(sigma.k, dtype=complex) / (1j * np.sqrt(2.0 * hbar))
    return GaugeElement(xi, sigma)


def ambient_forms(x: AmbientTangent, y: AmbientTangent,
                  ctx: GeometryContext | None = None) -> AmbientForms:
    """Metric and symplectic pairings of two tangents at the same frame.

    Both values are exactly real: they are 2*hbar times the real and
    imaginary parts of the Hilbert-Schmidt inner product Tr(X†Y), one per
    slice of a stack.
    """
    ctx = ctx or GeometryContext()
    if x.base.psi is not y.base.psi and not np.array_equal(x.base.psi, y.base.psi):
        raise BasepointMismatch("tangents live at different frames")
    # both traces are combined so g is exactly symmetric and w exactly
    # antisymmetric (a single trace leaves FMA residue in Tr(X†X))
    xy = np.einsum("...ij,...ij->...", x.x.conj(), y.x)
    yx = np.einsum("...ij,...ij->...", y.x.conj(), x.x)
    return AmbientForms(ctx.hbar * (xy.real + yx.real), ctx.hbar * (xy.imag - yx.imag))


def inertia_inner(xi: GaugeElement, eta: GaugeElement, ctx: GeometryContext | None = None):
    """Bi-invariant metric on the gauge algebra:
    xi . eta = hbar Tr((xi†eta + eta†xi) P), one value per slice of a stack.

    Coincides with G(psi xi, psi eta) at every frame (locked inertia)."""
    ctx = ctx or GeometryContext()
    if not (isinstance(xi, GaugeElement) and isinstance(eta, GaugeElement)):
        raise SpectrumMismatch("both arguments must be GaugeElements")
    if xi.sigma is not eta.sigma and xi.sigma != eta.sigma:
        raise SpectrumMismatch("gauge elements carry different spectra")
    diag = np.einsum("...ij,...ij->...j", xi.xi.conj(), eta.xi).real
    return 2.0 * ctx.hbar * np.einsum("...j,...j->...", diag, xi.sigma.full)


def momentum_map(psi, xi, ctx: GeometryContext | None = None) -> float:
    """J(psi)(xi) = i hbar Tr(psi†psi xi) for anti-Hermitian xi.

    Defined for any linear map psi (the frame constraint is not needed), so
    equivariance J(psi U)(xi) = J(psi)(U xi U†) can be probed with arbitrary
    unitaries U on the ancilla.
    """
    ctx = ctx or GeometryContext()
    mat = check_finite(psi.psi if isinstance(psi, PurificationFrame) else psi, "psi")
    x = check_anti_hermitian(xi.xi if isinstance(xi, GaugeElement) else xi, ctx.tol,
                             "momentum argument")
    value = 1j * ctx.hbar * np.trace(mat.conj().T @ mat @ x)
    return float(value.real)


def connection(psi: PurificationFrame, x, ctx: GeometryContext | None = None) -> GaugeElement:
    """Mechanical connection A_psi(X) = sum_j Pi_j psi†X Pi_j P^-1.

    The result is anti-Hermitian and commutes with P; both facts follow from
    tangency and the block structure, and the first is asserted numerically.
    Reproduces gauge directions (A_psi(psi xi) = xi) and annihilates
    horizontal ones.
    """
    ctx = ctx or GeometryContext()
    xt = _resolve_tangent(psi, x, ctx.tol)
    m = _adjoint(psi.psi) @ xt.x
    out = np.where(psi.sigma.block_mask, m, 0) / psi.sigma.full[..., None, :]
    adj = _adjoint(out)
    defect = frobenius_norms(out + adj)
    if (defect > ctx.tol.gauge * np.maximum(1.0, frobenius_norms(out))).any():
        raise IdentityViolation(
            f"connection value not anti-Hermitian: defect {np.max(defect):.3e}"
        )
    out = 0.5 * (out - adj)
    return GaugeElement(out, psi.sigma)


def split(psi: PurificationFrame, x, ctx: GeometryContext | None = None
          ) -> tuple[AmbientTangent, GaugeElement]:
    """Horizontal part and connection value of X = hor + psi A_psi(X).

    Returns (hor, xi) with xi = A_psi(X); the vertical part is psi xi, and
    hor + psi xi reproduces X exactly. The horizontal part is G-orthogonal
    to every gauge direction.
    """
    ctx = ctx or GeometryContext()
    xt = _resolve_tangent(psi, x, ctx.tol)
    xi = connection(psi, xt, ctx)
    return AmbientTangent(xt.x - psi.psi @ xi.xi, psi), xi


def hamiltonian_lift(a, psi: PurificationFrame,
                     ctx: GeometryContext | None = None) -> AmbientTangent:
    """Gauge-invariant lift X_A(psi) = A psi / (i hbar) of an observable, or
    of every slice of an observable stack (the oracle lifts many at once).
    Each slice is checked; tangency holds for Hermitian A and is checked.
    """
    ctx = ctx or GeometryContext()
    n = psi.psi.shape[-2]
    a = _check_defect(a, ctx.tol, "observable", stack=True)
    if a.shape[-1] != n:
        raise BadDims(f"observable is {a.shape[-1]} x {a.shape[-1]}, the state lives in dimension {n}")
    return _lift(a, psi, ctx)


def _lift(a: np.ndarray, psi: PurificationFrame, ctx: GeometryContext) -> AmbientTangent:
    """``hamiltonian_lift`` of checked observables."""
    return ambient_tangent((a @ psi.psi) / (1j * ctx.hbar), psi, ctx.tol)


def _chi_parts(xi: GaugeElement, ctx: GeometryContext) -> tuple[np.ndarray, GaugeElement]:
    """chi . xi and the chi-orthogonal part xi - (chi . xi) chi, per slice."""
    c = chi(xi.sigma, ctx.hbar)
    coeff = inertia_inner(c, xi, ctx)
    return coeff, GaugeElement(xi.xi - np.asarray(coeff)[..., None, None] * c.xi, xi.sigma)


def xi_field(a, psi: PurificationFrame, ctx: GeometryContext | None = None
             ) -> tuple[GaugeElement, GaugeElement]:
    """Gauge-algebra value of an observable's lift and its chi-orthogonal part.

    Returns (xi_A, xi_A_perp) in the gauge of the supplied frame. Only
    Ad-invariant contractions of these (inertia inner products and
    chi-projections) are frame-independent scalars.
    """
    ctx = ctx or GeometryContext()
    xi = connection(psi, hamiltonian_lift(a, psi, ctx), ctx)
    return xi, _chi_parts(xi, ctx)[1]


class ObservableTerms(NamedTuple):
    """One observable's k x k data at a frame, the per-observable half of
    ``pair_terms``: Y_A = A psi, q_A = (D_A - <A> P) P^-1/2, <A>, <A^2> and
    |q_A|^2. The arrays are read-only."""

    y: np.ndarray
    q: np.ndarray
    exp: float
    second: float
    q_sq: float


def observable_terms(a, psi: PurificationFrame, ctx: GeometryContext | None = None,
                     name: str = "observable") -> ObservableTerms:
    """Check A once per frame (Hermitian, n x n, else NotHermitian/BadDims
    labelled ``name``) and form its k x k data.

    The frame remembers the result by A's content and the tolerance record,
    so a later call with an equal matrix at the same frame reuses it, and a
    matrix changed in place since, or a different record, is checked and
    formed again.
    """
    ctx = ctx or GeometryContext()
    m = np.asarray(a, dtype=complex)
    return psi._remember(("terms", m.shape, m.tobytes()), ctx.tol,
                         lambda: _observable_terms(m, psi, ctx.tol, name))


def _observable_terms(a: np.ndarray, psi: PurificationFrame, tol: Tolerances,
                      name: str) -> ObservableTerms:
    frame = psi.psi
    y = check_observable(a, psi.n, tol, name) @ frame
    m = frame.conj().T @ y
    exp = float(np.vdot(frame, y).real)  # Tr M_A
    # (D_A - <A> P) P^-1/2, row-scaled (p is constant on each block): its
    # pairings are the xi_perp products with no <A><B> cancellation, and
    # <q_a, q_b> + <A><B> = Tr(D_A† D_B P^-1) since Tr P = 1
    sigma = psi.sigma
    root = np.sqrt(sigma.full)
    weight = sigma.block_mask / root[:, None]
    q = m * weight - np.diag(exp * root)
    return ObservableTerms(_frozen(y), _frozen(q), exp,
                           float(np.vdot(y, y).real), float(np.vdot(q, q).real))


def pair_terms(a, b, psi: PurificationFrame,
               ctx: GeometryContext | None = None) -> PairTerms:
    """All pair scalars from the k x k data M_A = psi†A psi of each observable.

    With Y_A = A psi, D_A the block-diagonal part of M_A and
    Tr(A B rho) = <Y_A, Y_B>:

      <A> = Tr M_A,   <A^2> = |Y_A|^2,
      g_AB = (2/hbar) Re[Tr(A B rho) - Tr(D_A D_B P^-1)],
      w_AB = (2/hbar) Im Tr(A B rho),
      xi_A_perp . xi_B_perp = (2/hbar) [Re Tr(D_A D_B P^-1) - <A><B>].

    These equal the ambient pairings of the (horizontal) lifts and the
    inertia products of the xi-fields. Each observable's data comes from
    ``observable_terms``, so it is validated once per frame (Hermitian, and
    of the frame's dimension, BadDims otherwise) however many pairs it is
    in; the pair step only pairs the two observables' data.
    """
    ctx = ctx or GeometryContext()
    ta = observable_terms(a, psi, ctx, "observable A")
    tb = observable_terms(b, psi, ctx, "observable B")
    exp_a, exp_b = ta.exp, tb.exp
    second_a, second_b = ta.second, tb.second
    qq = float(np.vdot(ta.q, tb.q).real)
    # both orders are combined, as in ambient_forms, so g is exactly
    # symmetric and w exactly antisymmetric
    ab = complex(np.vdot(ta.y, tb.y))
    ba = complex(np.vdot(tb.y, ta.y))
    scale = 2.0 / ctx.hbar
    return PairTerms(
        exp_a=exp_a,
        exp_b=exp_b,
        second_a=second_a,
        second_b=second_b,
        g_ab=(ab.real + ba.real) / ctx.hbar - scale * (qq + exp_a * exp_b),
        w_ab=(ab.imag - ba.imag) / ctx.hbar,
        g_aa=scale * (second_a - ta.q_sq - exp_a * exp_a),
        g_bb=scale * (second_b - tb.q_sq - exp_b * exp_b),
        pa_pb=scale * qq,
        pa_pa=scale * ta.q_sq,
        pb_pb=scale * tb.q_sq,
    )


def brackets(a, b, psi: PurificationFrame,
             ctx: GeometryContext | None = None) -> AmbientForms:
    """Metric and symplectic brackets of two observables at a state.

    The metric bracket pairs the horizontal parts of the lifts (the
    submersion is isometric only horizontally); the symplectic bracket may
    use the full lifts, since vertical contributions cancel in the reduced
    form. Both are gauge invariant and computed from k x k data by
    ``pair_terms``.
    """
    t = pair_terms(a, b, psi, ctx)
    return AmbientForms(t.g_ab, t.w_ab)


def _hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the n x n Hermitian matrices as an (n^2, n, n)
    stack: the diagonal units, then for each i < j the symmetric and the
    antisymmetric pair."""
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    d = n
    for i in range(n):
        for j in range(i + 1, n):
            basis[d, i, j] = basis[d, j, i] = 1.0 / np.sqrt(2.0)
            basis[d + 1, i, j] = 1j / np.sqrt(2.0)
            basis[d + 1, j, i] = -1j / np.sqrt(2.0)
            d += 2
    return basis


def _omega_grams(psi: PurificationFrame, ctx: GeometryContext
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrices of the symplectic pairing of the lifts and of the
    metric pairing of their horizontal parts, over ``_hermitian_basis``."""
    lifts = hamiltonian_lift(_hermitian_basis(psi.n), psi, ctx)
    hors, _ = split(psi, lifts, ctx)
    # as in ambient_forms, both orders are combined: G_ij = hbar 2 Re<x_i, x_j>
    # exactly symmetric, W_ij = hbar 2 Im<x_i, x_j> exactly antisymmetric
    lw = np.einsum("anm,bnm->ab", lifts.x.conj(), lifts.x)
    hg = np.einsum("anm,bnm->ab", hors.x.conj(), hors.x)
    return ctx.hbar * (lw.imag - lw.imag.T), ctx.hbar * (hg.real + hg.real.T)


def omega_rank(psi: PurificationFrame, ctx: GeometryContext | None = None) -> tuple[int, int]:
    """Diagnostic rank of the reduced symplectic form at a state.

    Lifts a full Hermitian operator basis as one stack, forms the Gram
    matrices of the symplectic pairing (on full lifts) and the metric
    pairing (on horizontal parts), and counts eigenvalues above 1e-9 times
    the largest. The metric rank equals the orbit dimension, so nondegeneracy of the
    reduced form shows up as equal ranks. Not an acceptance gate.
    """
    ctx = ctx or GeometryContext()
    gram_w, gram_g = _omega_grams(psi, ctx)

    def _rank(sym: np.ndarray) -> int:
        values, _ = hermitian_eigensystem(sym.astype(complex), ctx.tol)
        top = np.max(np.abs(values)) if values.size else 0.0
        if top == 0.0:
            return 0
        return int(np.sum(np.abs(values) > 1e-9 * top))

    return _rank(1j * gram_w), _rank(gram_g)
