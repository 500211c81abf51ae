"""Numerical invariants and moduli coordinates of ordered quadruples of
points on the boundary of complex hyperbolic n-space, up to holomorphic
isometry.

``import chquad`` loads no submodule: each public name imports the module
that defines it on first access, and a command of ``chquad.cli`` loads only
the modules it calls.
"""

from importlib import import_module

_EXPORTS = {
    "errors": (
        "CartanOutOfRange", "CertificateFailure", "CoincidentPoints", "DegenerateBasis",
        "DegenerateEntry", "DimensionMismatch", "GeometryError", "InconsistentGram",
        "InvalidFace", "InvalidParameter", "NotInModuliSpace", "NotIsometry", "NotNormalForm",
        "NotNull", "PreconditionViolated", "ResamplingExhausted", "UnderflowError",
        "ZeroCrossRatio", "ZeroVector",
    ),
    "gram": (
        "GramMatrix", "NormalizedGram", "cartan_from_lifts", "cross_ratio_from_lifts", "det_face",
        "det_gram", "gram_from_moduli", "gram_of", "gram_of_points", "moduli_from_gram",
        "normalize", "normalized_gram_of_points",
    ),
    "hermitian": (
        "HermitianVector", "Isometry", "apply_isometry_point", "form_matrix", "point_from_lift",
        "signature_basis", "standard_lift",
    ),
    "invariants": (
        "CrossRatioTriple", "FACES", "ModuliPoint", "cartan", "congruent_antiholomorphic",
        "congruent_holomorphic", "cross_ratio", "cross_ratio_triple",
    ),
    "moduli": (
        "ClassificationReport", "classify", "det_from_moduli", "face_dets_from_moduli",
        "in_moduli_space", "moduli_coordinates", "moduli_residual", "positivity_check",
        "real_slice_residual", "reconstruct", "residual_scale",
    ),
    "numeric": ("NumericConfig", "resolve", "small"),
    "points": ("BoundaryPoint", "infer_dimension"),
    "sampling": (
        "random_boundary_point", "random_chain_moduli", "random_isometry",
        "random_moduli_point", "random_quadruple",
    ),
    "varieties": (
        "Certificate", "certify_noninjectivity", "counterexample_pair", "project_moduli",
        "variety_residuals",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a submodule, or the module that defines a public name, on first access."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_EXPORTS})
