"""Exception types shared across the package.

Every ``GeometryError`` carries a short machine-readable ``code`` so the
CLI can emit structured failures.
"""


class GeometryError(Exception):
    code = "geometry-error"


class DimensionMismatch(GeometryError):
    code = "dimension-mismatch"


class ZeroVector(GeometryError):
    code = "zero-vector"


class NotNull(GeometryError):
    code = "not-null"


class NotIsometry(GeometryError):
    code = "not-isometry"


class CoincidentPoints(GeometryError):
    code = "coincident-points"


class DegenerateEntry(GeometryError):
    code = "degenerate-entry"


class NotNormalForm(GeometryError):
    code = "not-normal-form"


class InvalidFace(GeometryError):
    code = "invalid-face"


class CartanOutOfRange(GeometryError):
    code = "cartan-out-of-range"


class ZeroCrossRatio(GeometryError):
    code = "zero-cross-ratio"


class NotInModuliSpace(GeometryError):
    code = "not-in-moduli-space"


class InconsistentGram(GeometryError):
    code = "inconsistent-gram"


class InvalidParameter(GeometryError):
    code = "invalid-parameter"


class CertificateFailure(GeometryError):
    code = "certificate-failure"

    def __init__(self, clause: str, detail: str = ""):
        self.clause = clause
        super().__init__(f"clause '{clause}' failed" + (f": {detail}" if detail else ""))


class PreconditionViolated(GeometryError):
    code = "precondition-violated"


class ResamplingExhausted(GeometryError):
    code = "resampling-exhausted"


class DegenerateBasis(GeometryError):
    code = "degenerate-basis"


class UnderflowError(ArithmeticError):
    """A subnormal Gram entry or |X2|^2: like OverflowError, not a GeometryError."""
