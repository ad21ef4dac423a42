"""Numerical toolkit for non-Hermitian Hamiltonians with antilinear symmetry.

Builds truncated Fock-space matrices for the standard model Hamiltonians
(cubic i·x³ oscillator, Pais-Uhlenbeck two-oscillator, gain/loss dimer),
computes biorthogonal left/right eigensystems, classifies spectra into real
levels and conjugate pairs, detects exceptional points, verifies antilinear
symmetries and reality conditions, checks the time-independence selection
rule for left-right overlaps, and validates the complex-Lorentz
gamma-matrix identities exactly.
"""

__version__ = "0.1.0"

from .antilinear import (
    AntilinearOp,
    anticommutator_with,
    build_c_operator,
    commutes_with,
    find_antilinear_symmetry,
    identity_op,
    is_real,
)
from .errors import (
    BiorthoError,
    BoundaryResolutionError,
    ConditioningError,
    ConstraintSolveError,
    ConvergenceError,
    DefectiveSystemError,
    InvalidCutoffError,
    NoAntilinearSymmetryError,
    PropagatorRangeError,
    SignAmbiguityError,
    SingularOperatorError,
)
from .evolution import (
    EuclideanReality,
    OverlapTrace,
    SelectionRuleReport,
    euclidean_reality,
    overlap_trace,
    propagator,
    selection_rule_check,
)
from .fock import (
    Realization,
    commutator,
    ladder,
    parity,
    position_momentum,
    truncation_block,
)
from .models import (
    CubicOracleResult,
    PUParams,
    QuadraticModel,
    cubic_hamiltonian,
    cubic_oracle,
    dimer_hamiltonian,
    dimer_pt_operator,
    grid_eigenvalues,
    harmonic_hamiltonian,
    pt_operator,
    pu_dynamical_matrix,
    pu_hamiltonian_fock,
    pu_mode_scales,
    pu_pt_operator,
    pu_spectrum_formula,
)
from .spectral import (
    BiorthogonalSystem,
    DefectReport,
    SpectrumClassification,
    classify_spectrum,
    eigendecompose,
)
