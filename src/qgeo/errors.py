"""Exception hierarchy for qgeo.

Every validation failure raises a subclass of :class:`QGeoError` whose name
matches the violated invariant, so callers (and the CLI) can report failures
by name.
"""


class QGeoError(Exception):
    """Base class for all qgeo errors."""


class BadDims(QGeoError):
    """Matrix or index dimensions are inconsistent."""


class NotHermitian(QGeoError):
    """Matrix fails the Hermiticity tolerance."""


class NotAntiHermitian(QGeoError):
    """Matrix fails the anti-Hermiticity tolerance."""


class NotNormalized(QGeoError):
    """Probability weights do not sum to one."""


class NotDescending(QGeoError):
    """Sequence is not strictly descending."""


class NonPositive(QGeoError):
    """Value required to be positive is not."""


class SpectrumMismatch(QGeoError):
    """Eigenvalues deviate from the declared spectrum."""


class NotGauge(QGeoError):
    """Operator is not a valid gauge transformation (unitarity or
    commutation with the weight matrix fails)."""


class NotTangent(QGeoError):
    """Matrix is not tangent to the frame manifold at the given point."""


class BasepointMismatch(QGeoError):
    """Tangent vectors anchored at different frames were combined."""


class BadSpin(QGeoError):
    """Spin quantum number is not a nonnegative half-integer."""


class SpectrumDrift(QGeoError):
    """Evolved state left its isospectral orbit beyond tolerance.

    ``drift`` is the measured eigenvalue deviation at the offending step
    (NaN when the raiser did not measure one).
    """

    def __init__(self, message: str, drift: float = float("nan")):
        super().__init__(message)
        self.drift = drift


class IdentityViolation(QGeoError):
    """A self-checked algebraic identity exceeded its residual budget."""
