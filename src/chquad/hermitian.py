"""The Hermitian space C^{n,1}, null lifts of boundary points, and the isometries.

Coordinates are chosen so that the signature-(n,1) Hermitian product is

    <Z, W> = z_1 conj(w_{n+1}) + z_2 conj(w_2) + ... + z_n conj(w_n)
             + z_{n+1} conj(w_1),

linear in the first slot, conjugate-linear in the second.  The boundary
of complex hyperbolic n-space consists of the isotropic complex lines
of this form.  Standard lifts of the boundary points of ``points``:

    (z, t)    ->  (-|z|^2 + i t,  z * sqrt(2),  1)
    infinity  ->  (1, 0, ..., 0)

With ``gram``, this is the lift side, above the points side (``points``,
``invariants``, ``moduli``), whose ``BoundaryPoint`` and
``infer_dimension`` are names of this module too.

All values are immutable; all operations are pure functions.  Lifts
store Python complex numbers, so numpy is imported only by the
functions that build or read arrays.  ``HermitianVector``'s checks
read outside input; ``moduli.reconstruct``'s lifts, whose numbers it
computed itself, skip them (``_unchecked``; ``gram`` names the rest).
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import TYPE_CHECKING

from .errors import DimensionMismatch, NotIsometry, NotNull, ZeroVector
from .numeric import (_LO, Frozen, NumericConfig, _close, _ldexp, _overflow, _setattr,
                      resolve)
from .points import (BoundaryPoint, _dimension, _json_complex, _json_field, _json_int,
                     _json_list, infer_dimension)

if TYPE_CHECKING:
    import numpy as np

_SQRT2 = math.sqrt(2.0)


def form_matrix(n: int) -> np.ndarray:
    """Matrix J of the form, so that <Z, W> = conj(W) . (J Z)."""
    import numpy as np

    n = _dimension(n)
    J = np.zeros((n + 1, n + 1), dtype=complex)
    J[0, n] = J[n, 0] = 1.0
    for i in range(1, n):
        J[i, i] = 1.0
    return J


def signature_basis(n: int) -> np.ndarray:
    """Unitary C with C* J C = diag(1, ..., 1, -1).

    Columns are (e_1 + e_{n+1})/sqrt(2), e_2, ..., e_n and
    (e_1 - e_{n+1})/sqrt(2); exhibits the (n, 1) signature directly.
    """
    import numpy as np

    n = _dimension(n)
    C = np.zeros((n + 1, n + 1), dtype=complex)
    C[0, 0] = C[n, 0] = 1.0 / _SQRT2
    for i in range(1, n):
        C[i, i] = 1.0
    C[0, n], C[n, n] = 1.0 / _SQRT2, -1.0 / _SQRT2
    return C


class HermitianVector(Frozen, compare=False):
    """A vector of C^{n,1}, typically a (null) lift of a boundary point.

    ``values`` stores the coordinates as a tuple of Python complex
    numbers; ``coords`` is a read-only complex array built from them on
    each access.
    """

    _fields = ("n", "values")

    def __init__(self, n: int, values: tuple):
        n = _dimension(n)
        checked = _complex_values(values, (n + 1,))
        if checked is None:
            raise DimensionMismatch(f"expected {n + 1} coordinates for n={n}, "
                                    f"got shape {_numpy_shape(values)}")
        _setattr(self, "n", n)
        _setattr(self, "values", checked)

    @property
    def coords(self) -> np.ndarray:
        return _read_only(self.values)

    def scale(self) -> float:
        """Largest coordinate magnitude; NaN if any magnitude is NaN."""
        return _scale(self.values)

    def scaled(self, factor: complex) -> "HermitianVector":
        # numpy's complex product, whose last bit differs from Python's for some values
        return HermitianVector(self.n, self.coords * factor)

    def conjugated(self) -> "HermitianVector":
        """Image under the standard anti-holomorphic involution Z -> conj(Z)."""
        return HermitianVector(self.n, [v.conjugate() for v in self.values])

    def is_null(self, cfg: NumericConfig | None = None) -> bool:
        return _is_null(self.values, self.scale(), resolve(cfg))

    def proportional_to(self, other: "HermitianVector",
                        cfg: NumericConfig | None = None) -> bool:
        """Projective comparison: scale the largest coordinate to 1 first."""
        if self.n != other.n:
            return False
        c = resolve(cfg)
        try:
            mags = [abs(v) for v in self.values]
        except OverflowError:  # |z_k| of finite parts beyond the float range
            raise _overflow(*((f"z{k + 1}", v) for k, v in enumerate(self.values))) from None
        i = mags.index(max(mags))
        if mags[i] == 0.0:
            return other.scale() <= c.abs_tol
        zi, wi = self.values[i], other.values[i]
        if not abs(wi) > c.tol(other.scale()):  # also when other's scale is NaN
            return False
        return _close(c.tol(1.0), *(z / zi - w / wi for z, w in zip(self.values, other.values)))

    def to_json(self) -> dict:
        return {"n": self.n, "coords": [[z.real, z.imag] for z in self.values]}

    @classmethod
    def from_json(cls, obj: dict, path: str = "lift") -> "HermitianVector":
        """Parse to_json output; a malformed field raises ValueError naming its JSON path."""
        n = _json_int(_json_field(obj, "n", path), f"{path}.n")
        coords = _json_list(_json_field(obj, "coords", path), f"{path}.coords")
        return cls(n, [_json_complex(v, f"{path}.coords[{k}]") for k, v in enumerate(coords)])


def _unchecked(n: int, values: tuple) -> HermitianVector:
    """A HermitianVector of n + 1 Python complex numbers the package computed: no checks run."""
    Z = object.__new__(HermitianVector)
    _setattr(Z, "n", n)
    _setattr(Z, "values", values)
    return Z


def _complex_row(values) -> tuple:
    if isinstance(values, (str, bytes, bytearray)):  # characters are not coordinates
        raise TypeError("expected a sequence of numbers")
    return tuple(map(complex, values))


def _complex_values(values, shape: tuple) -> tuple | None:
    """values as a tuple of Python complex numbers (for a 2-D shape, a tuple of such rows).

    None when values have another shape, which ``_numpy_shape`` then names;
    numpy only unpacks an ndarray here.
    """
    np = sys.modules.get("numpy")  # no ndarray exists before numpy is imported
    if np is not None and isinstance(values, np.ndarray):
        values = values.tolist()
    try:
        out = _complex_row(values) if len(shape) == 1 else tuple(map(_complex_row, values))
    except TypeError:  # a nested entry, or one that is not a number
        if _numpy_shape(values) == shape:
            raise
        return None
    if len(out) != shape[0] or (len(shape) == 2 and any(len(row) != shape[1] for row in out)):
        return None
    return out


def _numpy_shape(values) -> tuple | str:
    """The shape numpy reads in values, for the error message of a wrong shape.

    "ragged" when nested sequences differ in length, which numpy refuses.
    """
    import numpy as np

    try:
        return np.array(values, dtype=complex).shape
    except ValueError:
        if isinstance(values, str):  # a string that complex() cannot read, not a nesting
            raise
        return "ragged"


def _read_only(values) -> np.ndarray:
    """A fresh read-only complex array of a tuple (of tuples) of Python complex numbers."""
    import numpy as np

    array = np.array(values)
    array.setflags(write=False)
    return array


def _form(z, w) -> complex:
    """<z, w> on two equally long coordinate sequences of Python complex numbers."""
    acc = z[0] * w[-1].conjugate() + z[-1] * w[0].conjugate()
    for i in range(1, len(z) - 1):
        acc += z[i] * w[i].conjugate()
    return acc


def _scale(z) -> float:
    """Largest magnitude in a coordinate sequence; NaN if any magnitude is NaN.

    Raises OverflowError naming the magnitude when a finite coordinate's
    modulus lies beyond the float range.
    """
    try:
        mags = [abs(v) for v in z]
    except OverflowError:  # |v| of finite parts beyond the float range
        big = max(max(abs(v.real), abs(v.imag)) for v in z if cmath.isfinite(v))
        raise OverflowError(f"|Z| overflows for coordinates of magnitude {big}") from None
    total = sum(mags)  # NaN exactly when some magnitude is; max() keeps a NaN only if first
    return total if math.isnan(total) else max(mags)


def _is_null(z, s: float, c: NumericConfig) -> bool:
    """Is <z, z> negligible against s^2, where s is the largest coordinate magnitude?

    By the range rule, s^2 is taken as it reads while s lies in the window;
    below it, where s^2 would lose bits or vanish, z and s are first scaled
    exactly by 2^-e, e the exponent of s, and abs_tol with them by 4^-e.
    Under rel_tol = 0 the bound is abs_tol alone, with no 0 * inf = NaN
    above the window.  Raises OverflowError when s is finite but <z, z>
    is not, as a finite input then has no defined verdict.
    """
    floor = c.abs_tol
    if s < _LO:
        e = math.frexp(s)[1]
        z = [complex(math.ldexp(v.real, -e), math.ldexp(v.imag, -e)) for v in z]
        s, floor = math.ldexp(s, -e), _ldexp(floor, -2 * e)
    form = abs(_form(z, z))
    if math.isfinite(s) and not math.isfinite(form):
        raise OverflowError(f"<Z,Z> overflows for coordinates of magnitude {s}")
    return form <= (floor + c.rel_tol * (s * s) if c.rel_tol else floor)


def _lift(p: BoundaryPoint, n: int) -> list:
    """The standard lift of p as n + 1 Python complex numbers, for an n ``_dimension`` has read."""
    if p.at_infinity:
        return [1 + 0j] + [0j] * n
    if len(p.z) != n - 1:
        raise DimensionMismatch(
            f"finite point with {len(p.z)} z-coordinates does not live in dimension {n}"
        )
    zz = 0  # summed left to right, as sum() did before Python 3.12 compensated float sums
    try:
        for v in p.z:
            zz += abs(v) ** 2
    except OverflowError:  # a square beyond the float range
        zz = math.inf
    if zz == math.inf:
        big = max(max(abs(v.real), abs(v.imag)) for v in p.z)
        raise OverflowError(f"|z|^2 overflows for coordinates of magnitude {big}")
    return [-zz + 1j * p.t] + [v * _SQRT2 for v in p.z] + [1 + 0j]


def _point(z, cfg: NumericConfig | None) -> BoundaryPoint:
    """Dehomogenize a coordinate sequence of Python complex numbers (see point_from_lift)."""
    c = resolve(cfg)
    s = _scale(z)
    if s <= c.abs_tol:
        raise ZeroVector("cannot project the zero vector")
    if not _is_null(z, s, c):
        raise NotNull(f"lift is not isotropic: <Z,Z> = {_form(z, z)}")
    last = z[-1]
    if abs(last) <= c.tol(s):
        return BoundaryPoint.infinity()
    # z holds Python complex numbers: the quotients need no conversion by finite()
    return BoundaryPoint(False, tuple([v / last / _SQRT2 for v in z[1:-1]]), (z[0] / last).imag)


def standard_lift(p: BoundaryPoint, n: int) -> HermitianVector:
    """Null lift of a boundary point; always <lift, lift> = 0."""
    n = _dimension(n)
    return HermitianVector(n, _lift(p, n))


def point_from_lift(Z: HermitianVector, cfg: NumericConfig | None = None) -> BoundaryPoint:
    """Dehomogenize a null vector back to its boundary point."""
    return _point(Z.values, cfg)


class Isometry(Frozen, compare=False):
    """A holomorphic isometry: a J-unitary matrix acting on lifts, checked with ``cfg``."""

    _fields = ("n", "matrix")

    def __init__(self, n: int, matrix: np.ndarray, cfg: NumericConfig | None = None):
        import numpy as np

        n = _dimension(n)
        mat = np.array(matrix, dtype=complex, order="C")  # view(float) needs C order
        if mat.shape != (n + 1, n + 1):
            raise DimensionMismatch(f"expected a {n + 1}x{n + 1} matrix, got {mat.shape}")
        big = float(np.abs(mat.view(float)).max())  # the largest real or imaginary part
        if not math.isfinite(big):
            raise NotIsometry("matrix entries must be finite")
        if 4.0 * (n + 1) * big * big == math.inf:  # bounds the form check's products
            raise OverflowError(f"the form check overflows for entries of magnitude {big}")
        mat.setflags(write=False)
        J = form_matrix(n)
        residual = np.abs(mat.conj().T @ J @ mat - J).max()
        scale = (n + 1) * float(np.abs(mat).max()) ** 2
        if not residual <= resolve(cfg).tol(scale):  # a NaN residual fails too
            raise NotIsometry(f"matrix does not preserve the form (residual {residual:.3e})")
        _setattr(self, "n", n)
        _setattr(self, "matrix", mat)
        _setattr(self, "cfg", cfg)

    def __matmul__(self, other: "Isometry") -> "Isometry":
        if self.n != other.n:
            raise DimensionMismatch("cannot compose isometries of different dimension")
        return Isometry(self.n, self.matrix @ other.matrix, self.cfg)


def apply_isometry_point(g: Isometry, p: BoundaryPoint,
                         cfg: NumericConfig | None = None) -> BoundaryPoint:
    """Move a boundary point: lift, act, dehomogenize."""
    return _point(g.matrix.dot(_lift(p, g.n)).tolist(), cfg)


def standard_lifts(points) -> list:
    """Standard lifts of boundary points in their common dimension."""
    n = infer_dimension(points)
    return [standard_lift(p, n) for p in points]
