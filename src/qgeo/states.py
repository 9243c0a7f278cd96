"""Spectra, density operators, purification frames, and the gauge group.

A rank-k mixed state with spectrum sigma lives on the orbit D(sigma) of
density operators sharing that spectrum. Its purifications are n x k frames
psi with psi†psi = P, where P is the diagonal weight matrix carrying the
spectrum on the k-dimensional ancilla. The multiplicity structure of sigma
is always *declared*, never inferred from floating-point clustering: the
shape of the gauge group (block-diagonal unitaries commuting with P) must be
exact.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import Tolerances, default_tolerances
from .errors import (
    BadDims,
    NonPositive,
    NotDescending,
    NotGauge,
    NotNormalized,
    SpectrumMismatch,
)
from .linalg import (
    check_finite,
    frobenius,
    hermitian_eigensystem,
    sample_haar_unitary,
    sample_hermitian,
    sample_isometry,
    stack_padded,
)

__all__ = [
    "Spectrum",
    "make_spectrum",
    "DensityState",
    "density_state",
    "PurificationFrame",
    "purification_frame",
    "SpectrumStack",
    "FrameStack",
    "stack_frames",
    "GaugeElement",
    "gauge_element",
    "purify",
    "frame_to_state",
    "gauge_act",
    "random_frame",
    "random_gauge",
    "random_gauge_algebra",
    "rank_one_partial_trace",
    "connecting_gauge",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Spectrum:
    """Distinct positive eigenvalues (descending) with multiplicities.

    ``values[j]`` is repeated ``mults[j]`` times; the total rank is
    ``k = sum(mults)`` and the weighted sum over all repeats is 1.
    """

    values: tuple[float, ...]
    mults: tuple[int, ...]

    @property
    def l(self) -> int:
        return len(self.values)

    # Derived data is computed once per spectrum. The arrays are read-only,
    # since every caller shares them; the cache lives outside the dataclass
    # fields, so equality and hashing still see only values and mults.

    @cached_property
    def k(self) -> int:
        return int(sum(self.mults))

    @cached_property
    def full(self) -> np.ndarray:
        """Length-k vector of eigenvalues with repeats, descending."""
        return _frozen(np.repeat(np.asarray(self.values, dtype=float),
                                 np.asarray(self.mults, dtype=int)))

    @cached_property
    def p_matrix(self) -> np.ndarray:
        """The k x k diagonal weight matrix P."""
        return _frozen(np.diag(self.full).astype(complex))

    @cached_property
    def blocks(self) -> tuple[slice, ...]:
        """Index ranges of the multiplicity blocks inside {1..k}."""
        edges = np.concatenate(([0], np.cumsum(self.mults))).astype(int)
        return tuple(slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]))

    @cached_property
    def block_mask(self) -> np.ndarray:
        """k x k bool mask, True where row and column lie in the same
        multiplicity block: the entries a matrix commuting with P may use."""
        labels = np.repeat(np.arange(self.l), self.mults)
        return _frozen(labels[:, None] == labels[None, :])

    def padded(self, n: int) -> np.ndarray:
        """Spectrum as a length-n descending vector, zero-padded."""
        if self.k > n:
            raise BadDims(f"rank k={self.k} exceeds ambient dimension n={n}")
        return np.concatenate([self.full, np.zeros(n - self.k)])


def make_spectrum(values, mults=None, tol: Tolerances | None = None) -> Spectrum:
    """Validate and build a Spectrum; mults defaults to all ones."""
    tol = tol or default_tolerances()
    vals = tuple(float(v) for v in values)
    ms = tuple(1 for _ in vals) if mults is None else tuple(int(m) for m in mults)
    if len(vals) != len(ms):
        raise BadDims(f"{len(vals)} values vs {len(ms)} multiplicities")
    if len(vals) == 0:
        raise BadDims("spectrum needs at least one eigenvalue")
    if any(v <= 0 for v in vals):
        raise NonPositive(f"eigenvalues must be positive, got {vals}")
    if any(m < 1 for m in ms):
        raise NonPositive(f"multiplicities must be >= 1, got {ms}")
    if any(vals[i] <= vals[i + 1] for i in range(len(vals) - 1)):
        raise NotDescending(f"distinct eigenvalues must strictly descend, got {vals}")
    total = sum(v * m for v, m in zip(vals, ms))
    if abs(total - 1.0) > tol.trace:
        raise NotNormalized(f"weighted eigenvalue sum {total!r} != 1")
    return Spectrum(vals, ms)


@dataclass(frozen=True)
class DensityState:
    """Hermitian, positive, unit-trace matrix together with the spectrum
    it is certified against."""

    rho: np.ndarray
    sigma: Spectrum

    @property
    def n(self) -> int:
        return self.rho.shape[-1]


@dataclass(frozen=True)
class PurificationFrame:
    """n x k matrix psi with psi†psi = P; a purification of psi psi†."""

    psi: np.ndarray
    sigma: Spectrum

    @property
    def n(self) -> int:
        return self.psi.shape[0]

    @property
    def k(self) -> int:
        return self.psi.shape[1]


@dataclass(frozen=True, eq=False)
class SpectrumStack:
    """The spectrum data the geometry reads, one slice per frame of a stack:
    ``full`` (B, k) and ``block_mask`` (B, k, k). Compares by identity."""

    full: np.ndarray
    block_mask: np.ndarray

    @property
    def k(self) -> int:
        return self.full.shape[-1]


@dataclass(frozen=True)
class FrameStack:
    """B purification frames of one rank k as one (B, n, k) array.

    Frames of smaller dimension are zero-padded to n. The embedding is
    exact: psi (+) 0 purifies rho (+) 0 with the same spectrum, and an
    observable A (+) 0 has the same expectations and brackets there.
    """

    psi: np.ndarray
    sigma: SpectrumStack

    @property
    def k(self) -> int:
        return self.psi.shape[-1]


def stack_frames(frames: Sequence[PurificationFrame], n: int) -> FrameStack:
    """Stack frames of one rank k, zero-padding each to dimension n."""
    psi = stack_padded([f.psi for f in frames], (n, frames[0].k))
    sigma = SpectrumStack(np.stack([f.sigma.full for f in frames]),
                          np.stack([f.sigma.block_mask for f in frames]))
    return FrameStack(psi, sigma)


@dataclass(frozen=True)
class GaugeElement:
    """Anti-Hermitian k x k matrix commuting with P (gauge Lie algebra)."""

    xi: np.ndarray
    sigma: Spectrum


def _certify_spectrum(values: np.ndarray, sigma: Spectrum, tol: Tolerances) -> None:
    """The n descending eigenvalues of a state equal sigma zero-padded to n,
    within the absolute spectrum tolerance."""
    dev = np.max(np.abs(values - sigma.padded(len(values))))
    if dev > tol.spec:
        raise SpectrumMismatch(
            f"eigenvalues deviate from declared spectrum by {dev:.3e} > {tol.spec:.3e}"
        )


def density_state(rho, sigma: Spectrum, tol: Tolerances | None = None) -> DensityState:
    """Validate rho against sigma: Hermitian, trace one, PSD, eigenvalues
    equal to the padded spectrum within the absolute spectrum tolerance."""
    tol = tol or default_tolerances()
    rho = np.asarray(rho, dtype=complex)
    # the eigensolve checks rho (shape, finiteness, Hermiticity) first
    values, _ = hermitian_eigensystem(rho, tol, "rho")
    n = rho.shape[0]
    if sigma.k > n:
        raise BadDims(f"spectrum rank {sigma.k} exceeds dimension {n}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > tol.trace:
        raise NotNormalized(f"trace(rho) = {tr!r}, expected 1")
    if values[-1] < -tol.trace:
        raise SpectrumMismatch(f"rho not PSD: min eigenvalue {values[-1]:.3e}")
    _certify_spectrum(values, sigma, tol)
    return DensityState(rho, sigma)


def purification_frame(psi, sigma: Spectrum, tol: Tolerances | None = None) -> PurificationFrame:
    """Validate psi†psi = P and wrap."""
    tol = tol or default_tolerances()
    psi = check_finite(psi, "psi")
    n, k = psi.shape
    if k != sigma.k:
        raise BadDims(f"frame has {k} columns, spectrum rank is {sigma.k}")
    if k > n:
        raise BadDims(f"rank k={k} exceeds ambient dimension n={n}")
    defect = frobenius(psi.conj().T @ psi - sigma.p_matrix)
    if defect > tol.frame:
        raise SpectrumMismatch(f"|psi†psi - P|_F = {defect:.3e} > {tol.frame:.3e}")
    return PurificationFrame(psi, sigma)


def gauge_element(xi, sigma: Spectrum, tol: Tolerances | None = None) -> GaugeElement:
    """Validate anti-Hermiticity and commutation with P (block diagonality)."""
    tol = tol or default_tolerances()
    xi = check_finite(xi, "xi")
    if xi.shape != (sigma.k, sigma.k):
        raise BadDims(f"gauge element must be {sigma.k} x {sigma.k}, got {xi.shape}")
    norm = frobenius(xi)
    scale = max(1.0, norm)
    if frobenius(xi + xi.conj().T) > tol.gauge * scale:
        raise NotGauge("gauge algebra element is not anti-Hermitian")
    if frobenius(np.where(sigma.block_mask, 0, xi)) > tol.gauge * scale:
        raise NotGauge("gauge algebra element does not commute with P")
    return GaugeElement(xi, sigma)


def _fix_column_phases(vectors: np.ndarray) -> np.ndarray:
    """Make each column's largest-modulus entry real positive (deterministic
    gauge for eigenvector bases)."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))
        a = col[i]
        if a != 0:
            out[:, j] = col * (np.conj(a) / abs(a))
    return out


def frame_from_eigensystem(values: np.ndarray, vectors: np.ndarray,
                           sigma: Spectrum, tol: Tolerances | None = None) -> PurificationFrame:
    """Build the canonical frame psi = sum_j sqrt(p_j) |v_j><j| from a
    descending eigensystem, after certifying the values against sigma."""
    tol = tol or default_tolerances()
    _certify_spectrum(values, sigma, tol)
    k = sigma.k
    cols = _fix_column_phases(vectors[:, :k])
    psi = cols * np.sqrt(sigma.full)[None, :]
    return PurificationFrame(psi, sigma)


def purify(state: DensityState, tol: Tolerances | None = None) -> PurificationFrame:
    """Canonical purification of a density operator.

    Deterministic: eigenvalues are ordered descending with stable ties, each
    eigenvector's largest-modulus entry is rotated to the positive real
    axis, and the column scales come from the declared spectrum (so
    psi†psi = P to eigenvector-orthonormality accuracy).
    """
    tol = tol or default_tolerances()
    values, vectors = hermitian_eigensystem(state.rho, tol)
    return frame_from_eigensystem(values, vectors, state.sigma, tol)


def frame_to_state(frame: PurificationFrame) -> DensityState:
    """psi psi†, certified by the frame invariant (no eigensolve needed:
    the nonzero eigenvalues of psi psi† are those of psi†psi = P).

    A ``FrameStack`` gives the (B, n, n) stack of its states."""
    rho = frame.psi @ frame.psi.conj().swapaxes(-1, -2)
    rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    return DensityState(rho, frame.sigma)


def gauge_act(frame: PurificationFrame, u: np.ndarray,
              tol: Tolerances | None = None) -> PurificationFrame:
    """Right action psi -> psi U by a gauge group element.

    U must be unitary and commute with P; the projected state is unchanged.
    """
    tol = tol or default_tolerances()
    u = check_finite(u, "U")
    k = frame.k
    if u.shape != (k, k):
        raise BadDims(f"gauge unitary must be {k} x {k}, got {u.shape}")
    if frobenius(u.conj().T @ u - np.eye(k)) > tol.unitary:
        raise NotGauge("U is not unitary within tolerance")
    p = frame.sigma.p_matrix
    if frobenius(u @ p - p @ u) > tol.unitary:
        raise NotGauge("U does not commute with P within tolerance")
    return PurificationFrame(frame.psi @ u, frame.sigma)


def random_frame(sigma: Spectrum, n: int, rng: np.random.Generator,
                 tol: Tolerances | None = None) -> PurificationFrame:
    """psi = V sqrt(P) for a Haar-random n x k isometry V."""
    if sigma.k > n:
        raise BadDims(f"rank k={sigma.k} exceeds ambient dimension n={n}")
    v = sample_isometry(n, sigma.k, rng)
    psi = v * np.sqrt(sigma.full)[None, :]
    return PurificationFrame(psi, sigma)


def random_gauge(sigma: Spectrum, rng: np.random.Generator) -> np.ndarray:
    """Block-diagonal unitary, one Haar block per multiplicity block.

    Commutes with P exactly by construction.
    """
    u = np.zeros((sigma.k, sigma.k), dtype=complex)
    for b in sigma.blocks:
        u[b, b] = sample_haar_unitary(b.stop - b.start, rng)
    return u


def random_gauge_algebra(sigma: Spectrum, rng: np.random.Generator) -> GaugeElement:
    """Random gauge algebra element: i * (Hermitian) per multiplicity block."""
    xi = np.zeros((sigma.k, sigma.k), dtype=complex)
    for b in sigma.blocks:
        xi[b, b] = 1j * sample_hermitian(b.stop - b.start, rng)
    return GaugeElement(xi, sigma)


def rank_one_partial_trace(frame: PurificationFrame) -> np.ndarray:
    """Reduce the rank-one projector of the vectorized frame.

    Flattens psi into a unit vector of the (n*k)-dimensional product space,
    forms the full nk x nk projector, and traces out the k-dimensional
    factor. Must coincide with psi psi†; kept as a genuinely independent
    computation so the identity can be cross-checked.
    """
    n, k = frame.psi.shape
    vec = frame.psi.reshape(n * k)
    proj = np.outer(vec, vec.conj())
    return np.einsum("iaja->ij", proj.reshape(n, k, n, k))


def connecting_gauge(frame_a: PurificationFrame, frame_b: PurificationFrame) -> np.ndarray:
    """The gauge transformation U = psi† phi P^-1 with phi = psi U whenever
    the two frames project to the same state."""
    inv = 1.0 / frame_a.sigma.full
    return (frame_a.psi.conj().T @ frame_b.psi) * inv[None, :]
