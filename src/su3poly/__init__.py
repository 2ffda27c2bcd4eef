"""Momentum polytopes of SU(3) acting on weighted products of CP^2.

Classifies the polytope type of a weight vector, constructs the exact
polytope as a half-plane intersection in the positive Weyl chamber, checks
it against a Monte Carlo sampling oracle, and applies it to eigenvalue
bounds for sums of 3x3 trace-zero Hermitian matrices with double
eigenvalues.
"""

from types import ModuleType as _ModuleType

from .classifier import (
    Canonicalization,
    N2Type,
    N3Type,
    canonicalize,
    classify_n2,
    classify_n3,
)
from .cones import (
    CoincidentWeights,
    ConeSpec,
    Definiteness,
    InvalidGeneratorKind,
    OnWall,
    QuadraticForm2,
    ZeroSum,
    a_discriminant,
    b_slice_coefficients,
    c_vertex_criterion,
    definiteness,
    slice_cone_a,
    slice_cone_b,
    slice_cone_c,
)
from .eigen_bounds import (
    DoubleEigMatrixSpec,
    RealizeResult,
    check_spectrum,
    gamma_of_lambda,
    realize,
    sum_bounds_three,
    sum_bounds_two,
)
from .moment_map import (
    CPPoint,
    DegenerateWeight,
    InvalidWeight,
    NotNormalized,
    StabilizerClass,
    Weights,
    configuration_stabilizer,
    fixed_point_spectra,
    fubini_study_moment,
    tangent_weights,
    weighted_moment,
)
from .oracle import (
    InvalidCount,
    PredictionUnavailable,
    SampleBatch,
    VerificationReport,
    empirical_polytope,
    sample_batch,
    sample_cp2,
    verify,
)
from .polytope import (
    ChamberPolytope,
    InvalidHalfPlane,
    InvalidHullPoints,
    InvalidPolytopeDocument,
    build_polytope,
    build_polytope_n2,
    build_polytope_n3,
    contains,
    hausdorff,
    hull2d,
)
from .su3 import (
    ChamberPoint,
    Hermitian3,
    InvalidIndex,
    InvalidTolerance,
    LengthMismatch,
    NotHermitian,
    NotSorted,
    Root,
    SignedRoot,
    SkewHermitian3,
    Spectrum,
    SumNotZero,
    XI1,
    XI2,
    pairing,
    spectrum,
    star_involution,
    to_chamber,
    to_positive_chamber,
)

# Importing a name from a submodule also binds the submodule here; only the
# imported names are exported.
__all__ = [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)]
__version__ = "0.1.0"
