"""Numerical invariants and moduli coordinates of ordered quadruples of
points on the boundary of complex hyperbolic n-space, up to holomorphic
isometry.
"""

from .errors import (
    CartanOutOfRange,
    CertificateFailure,
    CoincidentPoints,
    DegenerateBasis,
    DegenerateEntry,
    DimensionMismatch,
    GeometryError,
    InconsistentGram,
    InvalidFace,
    InvalidParameter,
    NotInModuliSpace,
    NotIsometry,
    NotNormalForm,
    NotNull,
    PreconditionViolated,
    ResamplingExhausted,
    ZeroCrossRatio,
    ZeroVector,
)
from .gram import (
    FACES,
    GramMatrix,
    NormalizedGram,
    congruent_antiholomorphic,
    congruent_holomorphic,
    det_face,
    det_gram,
    gram_of,
    normalize,
    normalized_gram_of_points,
)
from .hermitian import (
    BoundaryPoint,
    HermitianVector,
    Isometry,
    apply_isometry,
    apply_isometry_point,
    form_matrix,
    herm_product,
    infer_dimension,
    point_from_lift,
    signature_basis,
    standard_lift,
)
from .invariants import (
    CrossRatioTriple,
    ModuliPoint,
    cartan,
    cartan_from_lifts,
    cross_ratio,
    cross_ratio_from_lifts,
    cross_ratio_triple,
    det_from_moduli,
    face_dets_from_moduli,
    gram_from_moduli,
    moduli_from_gram,
)
from .moduli import (
    ClassificationReport,
    classify,
    in_moduli_space,
    moduli_coordinates,
    moduli_residual,
    positivity_check,
    real_slice_residual,
    reconstruct,
    residual_scale,
)
from .numeric import NumericConfig, resolve, small
from .sampling import (
    random_boundary_point,
    random_chain_moduli,
    random_isometry,
    random_moduli_point,
    random_quadruple,
)
from .varieties import (
    Certificate,
    certify_noninjectivity,
    counterexample_pair,
    project_moduli,
    variety_residuals,
)

__version__ = "0.1.0"
