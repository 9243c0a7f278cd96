"""qgeo: geometry of isospectral mixed-state orbits and uncertainty bounds.

The toolkit equips the orbit of density operators with a fixed spectrum
with metric and symplectic structures via purification frames, computes the
geometric and Robertson-Schrodinger uncertainty bounds plus their pointwise
maximum, and ships a verification CLI (``qgeo``) driving property-based
campaigns over all of it.
"""

from .config import Tolerances, default_tolerances
from .errors import (
    BadDims,
    BadSpin,
    BasepointMismatch,
    IdentityViolation,
    NonPositive,
    NotAntiHermitian,
    NotDescending,
    NotGauge,
    NotHermitian,
    NotNormalized,
    NotTangent,
    QGeoError,
    SpectrumDrift,
    SpectrumMismatch,
)
from .geometry import (
    AmbientTangent,
    GeometryContext,
    PairTerms,
    ambient_forms,
    ambient_tangent,
    brackets,
    chi,
    connection,
    hamiltonian_lift,
    inertia_inner,
    momentum_map,
    omega_rank,
    pair_terms,
    random_tangent,
    split,
    xi_field,
)
from .linalg import (
    hermitian_eigensystem,
    trial_rng,
)
from .spin import (
    ClosedForms,
    EnsembleSpec,
    SpinDemoReport,
    SpinSystem,
    abcd_experiment,
    build_ensemble,
    build_spin,
    closed_forms,
    ensemble_spec,
)
from .states import (
    DensityState,
    GaugeElement,
    PurificationFrame,
    Spectrum,
    connecting_gauge,
    density_state,
    frame_to_state,
    gauge_act,
    gauge_element,
    make_spectrum,
    purification_frame,
    purify,
    random_frame,
    random_gauge,
    random_gauge_algebra,
    rank_one_partial_trace,
)
from .uncertainty import (
    BoundReport,
    EvolutionResult,
    classify,
    combined_bound,
    decomposition,
    evolve,
    geometric_bound,
    moments,
    rs_bound,
)

__version__ = "0.1.0"
