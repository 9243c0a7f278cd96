"""Dense complex matrix kernel: Hermitian eigensystems, unitary
exponentials, and seeded random sampling.

Hermitian eigensystems come from LAPACK through ``numpy.linalg.eigh``,
reordered descending with stable ties. Every eigenvalue gate in the toolkit
is absolute, so a solver with high relative accuracy would buy nothing. All
functions are pure; random sampling threads an explicit numpy ``Generator``.
"""

from __future__ import annotations

import math

import numpy as np

from .config import Tolerances, default_tolerances
from .errors import BadDims, NotAntiHermitian, NotHermitian

__all__ = [
    "frobenius",
    "frobenius_norms",
    "stack_padded",
    "check_finite",
    "check_hermitian",
    "check_observable",
    "check_anti_hermitian",
    "hermitian_eigensystem",
    "unitary_exponential_family",
    "trial_rng",
    "sample_hermitian",
    "sample_haar_unitary",
    "sample_isometry",
]


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm with ``numpy.linalg.norm``'s arithmetic (flatten in
    memory order, real dot products, a correctly rounded square root) but
    without its dispatch, which costs more than the norm of a small matrix."""
    x = np.asarray(m)
    if x.dtype.kind not in "fc":
        x = x.astype(float)
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def frobenius_norms(m: np.ndarray):
    """Frobenius norm of each matrix in a stack (the trailing two axes); a
    scalar for one matrix."""
    v = np.ascontiguousarray(m, dtype=complex).view(float)
    return np.sqrt(np.einsum("...ij,...ij->...", v, v))


def stack_padded(ms, shape: tuple[int, int]) -> np.ndarray:
    """Stack matrices into one complex array, zero-padding each to ``shape``."""
    out = np.zeros((len(ms), *shape), dtype=complex)
    for slot, m in zip(out, ms):
        slot[:m.shape[0], :m.shape[1]] = m
    return out


def check_finite(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise BadDims(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise BadDims(f"{name} contains non-finite entries")
    return m


def _check_defect(m, tol: Tolerances | None, name: str, anti: bool = False,
                  stack: bool = False) -> np.ndarray:
    """Finite square matrix, or with ``stack`` a stack of them, whose relative
    defect |M - M†|_F / |M|_F (|M + M†|_F / |M|_F if ``anti``) is within
    tol.herm in every slice; a zero matrix has defect 0."""
    tol = tol or default_tolerances()
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 and not (stack and m.ndim > 2):
        raise BadDims(f"{name} must be 2-dimensional, got shape {m.shape}")
    # Python floats for one matrix: observables are checked once per pair,
    # where the stack form's array overhead would cost more than the check
    one = m.ndim == 2
    norm = frobenius(m) if one else frobenius_norms(m)
    # a finite sum of squares has finite terms, so the entries are scanned
    # only when a norm is not finite (a NaN, an infinity or an overflow)
    if not (math.isfinite(norm if one else norm.sum()) or np.isfinite(m).all()):
        raise BadDims(f"{name} contains non-finite entries")
    if m.shape[-1] != m.shape[-2]:
        raise BadDims(f"{name} must be square, got shape {m.shape}")
    adj = m.conj().swapaxes(-1, -2)
    diff = m + adj if anti else m - adj
    if one:
        defect = frobenius(diff) / norm if norm else 0.0
    else:
        # the relative defects are divided out only for a failing stack's message
        gaps = frobenius_norms(diff)
        defect = 0.0
        if (gaps > tol.herm * norm).any():
            defect = float(np.max(gaps / np.where(norm == 0.0, 1.0, norm)))
    if defect > tol.herm:
        if anti:
            raise NotAntiHermitian(f"{name}: anti-Hermiticity defect {defect:.3e} > {tol.herm:.3e}")
        raise NotHermitian(f"{name}: relative Hermiticity defect {defect:.3e} > {tol.herm:.3e}")
    return m


def check_hermitian(m: np.ndarray, tol: Tolerances | None = None,
                    name: str = "matrix") -> np.ndarray:
    return _check_defect(m, tol, name)


def check_observable(m: np.ndarray, n: int, tol: Tolerances | None = None,
                     name: str = "observable") -> np.ndarray:
    """Hermitian n x n matrix, an observable on an n-level system."""
    m = check_hermitian(m, tol, name)
    if m.shape[-1] != n:
        raise BadDims(f"{name} is {m.shape[-1]} x {m.shape[-1]}, the state lives in dimension {n}")
    return m


def check_anti_hermitian(m: np.ndarray, tol: Tolerances | None = None,
                         name: str = "matrix") -> np.ndarray:
    return _check_defect(m, tol, name, anti=True)


def hermitian_eigensystem(m: np.ndarray, tol: Tolerances | None = None,
                          name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a Hermitian matrix.

    LAPACK via ``numpy.linalg.eigh`` on the exactly Hermitian part
    ``(m + m†)/2``, then a stable descending sort: equal eigenvalues keep
    eigh's order, so the output is deterministic for degenerate spectra.

    Returns ``(values, vectors)`` with ``m = vectors @ diag(values) @ vectors†``.
    """
    return _eigh_descending(check_hermitian(m, tol, name))


def _eigh_descending(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    values, vectors = np.linalg.eigh(0.5 * (a + a.conj().T))
    order = np.argsort(-values, kind="stable")
    return values[order], vectors[:, order]


def unitary_exponential_family(x: np.ndarray, tol: Tolerances | None = None):
    """One-parameter group t -> exp(t X) for anti-Hermitian X.

    Diagonalizes the Hermitian matrix iX once and exponentiates its
    eigenvalues, so every exp(t X) is unitary to eigensolver accuracy and
    all points of the flow share one eigendecomposition. An array of times
    gives the stack of unitaries, one per time.
    """
    return _unitary_flow(check_anti_hermitian(x, tol, "generator"))


def _unitary_flow(x: np.ndarray):
    """``unitary_exponential_family`` of a checked X (iX has X's defect)."""
    values, vectors = _eigh_descending(1j * x)
    vh = vectors.conj().T

    def at(t) -> np.ndarray:
        # exp(tX) = exp(-it(iX))
        return (vectors * np.exp(-1j * np.multiply.outer(t, values))[..., None, :]) @ vh

    return at


# --- seeded sampling ---------------------------------------------------------

def trial_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator derived from (seed, *path), e.g. per (suite, trial).

    Derivation goes through ``SeedSequence`` so results are independent of
    how trials are scheduled.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


def _complex_gaussian(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) * np.sqrt(0.5)


def sample_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """(Z + Z†)/2 for Z with i.i.d. standard complex Gaussian entries."""
    if n < 1:
        raise BadDims(f"need n >= 1, got {n}")
    z = _complex_gaussian(n, n, rng)
    return 0.5 * (z + z.conj().T)


def sample_haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix.

    The R diagonal phases are divided out, which fixes the QR gauge and
    makes the distribution exactly Haar.
    """
    if n < 1:
        raise BadDims(f"need n >= 1, got {n}")
    z = _complex_gaussian(n, n, rng)
    q, r = np.linalg.qr(z)
    d = np.where(np.abs(np.diagonal(r)) == 0, 1.0, np.diagonal(r))
    return q * (d / np.abs(d))


def sample_isometry(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """First k columns of an n x n Haar unitary; V†V = I_k."""
    if not 1 <= k <= n:
        raise BadDims(f"need 1 <= k <= n, got k={k}, n={n}")
    return sample_haar_unitary(n, rng)[:, :k]
