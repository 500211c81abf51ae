"""The Hermitian space C^{n,1} and null lifts of boundary points.

Coordinates are chosen so that the signature-(n,1) Hermitian product is

    <Z, W> = z_1 conj(w_{n+1}) + z_2 conj(w_2) + ... + z_n conj(w_n)
             + z_{n+1} conj(w_1),

linear in the first slot, conjugate-linear in the second.  The boundary
of complex hyperbolic n-space consists of the isotropic complex lines
of this form.  A finite boundary point carries horospherical
coordinates (z, t) with z in C^{n-1} and t real; one distinguished
point sits at infinity.  Standard lifts:

    (z, t)    ->  (-|z|^2 + i t,  z * sqrt(2),  1)
    infinity  ->  (1, 0, ..., 0)

All values are immutable; all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoincidentPoints,
    DimensionMismatch,
    NotIsometry,
    NotNull,
    ZeroVector,
)
from .numeric import NumericConfig, resolve

_SQRT2 = math.sqrt(2.0)


def form_matrix(n: int) -> np.ndarray:
    """Matrix J of the form, so that <Z, W> = conj(W) . (J Z)."""
    J = np.zeros((n + 1, n + 1), dtype=complex)
    J[0, n] = 1.0
    J[n, 0] = 1.0
    for i in range(1, n):
        J[i, i] = 1.0
    return J


def signature_basis(n: int) -> np.ndarray:
    """Unitary C with C* J C = diag(1, ..., 1, -1).

    Columns are (e_1 + e_{n+1})/sqrt(2), e_2, ..., e_n and
    (e_1 - e_{n+1})/sqrt(2); exhibits the (n, 1) signature directly.
    """
    C = np.zeros((n + 1, n + 1), dtype=complex)
    C[0, 0] = C[n, 0] = 1.0 / _SQRT2
    for i in range(1, n):
        C[i, i] = 1.0
    C[0, n] = 1.0 / _SQRT2
    C[n, n] = -1.0 / _SQRT2
    return C


@dataclass(frozen=True, eq=False)
class HermitianVector:
    """A vector of C^{n,1}, typically a (null) lift of a boundary point."""

    n: int
    coords: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch(f"n must be >= 1, got {self.n}")
        coords = np.array(self.coords, dtype=complex)
        if coords.shape != (self.n + 1,):
            raise DimensionMismatch(
                f"expected {self.n + 1} coordinates for n={self.n}, got shape {coords.shape}"
            )
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    def scale(self) -> float:
        """Largest coordinate magnitude."""
        return float(np.max(np.abs(self.coords)))

    def scaled(self, factor: complex) -> "HermitianVector":
        return HermitianVector(self.n, self.coords * factor)

    def conjugated(self) -> "HermitianVector":
        """Image under the standard anti-holomorphic involution Z -> conj(Z)."""
        return HermitianVector(self.n, np.conj(self.coords))

    def is_null(self, cfg: NumericConfig | None = None) -> bool:
        return _is_null(self.coords.tolist(), self.scale(), resolve(cfg))

    def proportional_to(self, other: "HermitianVector",
                        cfg: NumericConfig | None = None) -> bool:
        """Projective comparison: scale the largest coordinate to 1 first."""
        if self.n != other.n:
            return False
        c = resolve(cfg)
        i = int(np.argmax(np.abs(self.coords)))
        if abs(self.coords[i]) == 0.0:
            return other.scale() <= c.abs_tol
        if abs(other.coords[i]) <= c.tol(other.scale()):
            return False
        a = self.coords / self.coords[i]
        b = other.coords / other.coords[i]
        return float(np.max(np.abs(a - b))) <= c.tol(1.0)

    def to_json(self) -> dict:
        return {"n": self.n, "coords": [[z.real, z.imag] for z in self.coords]}

    @classmethod
    def from_json(cls, obj: dict) -> "HermitianVector":
        coords = [complex(re, im) for re, im in obj["coords"]]
        return cls(int(obj["n"]), np.array(coords))


def _form(z, w) -> complex:
    """<z, w> on two equally long coordinate lists of Python complex numbers."""
    acc = z[0] * w[-1].conjugate() + z[-1] * w[0].conjugate()
    for i in range(1, len(z) - 1):
        acc += z[i] * w[i].conjugate()
    return acc


def _is_null(z, s: float, c: NumericConfig) -> bool:
    """Is <z, z> negligible against s^2, where s is the largest coordinate magnitude?"""
    return abs(_form(z, z)) <= c.tol(s * s)


def herm_product(Z: HermitianVector, W: HermitianVector) -> complex:
    """<Z, W>; conjugate-symmetric and sesquilinear."""
    if Z.n != W.n:
        raise DimensionMismatch(f"products need equal n, got {Z.n} and {W.n}")
    return _form(Z.coords.tolist(), W.coords.tolist())


@dataclass(frozen=True)
class BoundaryPoint:
    """A boundary point: horospherical (z, t) or the point at infinity."""

    at_infinity: bool
    z: tuple = ()
    t: float = 0.0

    @classmethod
    def finite(cls, z, t) -> "BoundaryPoint":
        return cls(False, tuple(complex(v) for v in z), float(t))

    @classmethod
    def infinity(cls) -> "BoundaryPoint":
        return cls(True)

    def mirror(self) -> "BoundaryPoint":
        """Image under the standard anti-holomorphic involution (z, t) -> (conj z, -t)."""
        if self.at_infinity:
            return self
        return BoundaryPoint(False, tuple(v.conjugate() for v in self.z), -self.t)

    def isclose(self, other: "BoundaryPoint", cfg: NumericConfig | None = None) -> bool:
        c = resolve(cfg)
        if self.at_infinity or other.at_infinity:
            return self.at_infinity and other.at_infinity
        if len(self.z) != len(other.z):
            return False
        scale = max([1.0, abs(self.t), abs(other.t)]
                    + [abs(v) for v in self.z] + [abs(v) for v in other.z])
        if abs(self.t - other.t) > c.tol(scale):
            return False
        return all(abs(a - b) <= c.tol(scale) for a, b in zip(self.z, other.z))

    def to_json(self) -> dict:
        if self.at_infinity:
            return {"type": "infinity"}
        return {"type": "finite", "z": [[v.real, v.imag] for v in self.z], "t": self.t}

    @classmethod
    def from_json(cls, obj: dict) -> "BoundaryPoint":
        if obj["type"] == "infinity":
            return cls.infinity()
        if obj["type"] == "finite":
            return cls.finite([complex(re, im) for re, im in obj["z"]], obj["t"])
        raise ValueError(f"unknown point type {obj['type']!r}")


def _lift(p: BoundaryPoint, n: int) -> list:
    """Coordinates of the standard lift of p, as a list of n + 1 Python complex numbers."""
    if n < 1:
        raise DimensionMismatch(f"n must be >= 1, got {n}")
    if p.at_infinity:
        return [1 + 0j] + [0j] * n
    if len(p.z) != n - 1:
        raise DimensionMismatch(
            f"finite point with {len(p.z)} z-coordinates does not live in dimension {n}"
        )
    zz = sum(abs(v) ** 2 for v in p.z)
    return [-zz + 1j * p.t] + [v * _SQRT2 for v in p.z] + [1 + 0j]


def _point(z: list, cfg: NumericConfig | None) -> BoundaryPoint:
    """Dehomogenize a coordinate list of Python complex numbers (see point_from_lift)."""
    c = resolve(cfg)
    s = max(abs(v) for v in z)
    if s <= c.abs_tol:
        raise ZeroVector("cannot project the zero vector")
    if not _is_null(z, s, c):
        raise NotNull(f"lift is not isotropic: <Z,Z> = {_form(z, z)}")
    last = z[-1]
    if abs(last) <= c.tol(s):
        return BoundaryPoint.infinity()
    return BoundaryPoint.finite([v / last / _SQRT2 for v in z[1:-1]], (z[0] / last).imag)


def standard_lift(p: BoundaryPoint, n: int) -> HermitianVector:
    """Null lift of a boundary point; always <lift, lift> = 0."""
    return HermitianVector(n, _lift(p, n))


def point_from_lift(Z: HermitianVector, cfg: NumericConfig | None = None) -> BoundaryPoint:
    """Dehomogenize a null vector back to its boundary point."""
    return _point(Z.coords.tolist(), cfg)


@dataclass(frozen=True, eq=False)
class Isometry:
    """A holomorphic isometry, stored as a J-unitary matrix acting on lifts."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (self.n + 1, self.n + 1):
            raise DimensionMismatch(
                f"expected a {self.n + 1}x{self.n + 1} matrix, got {mat.shape}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        J = form_matrix(self.n)
        residual = np.max(np.abs(mat.conj().T @ J @ mat - J))
        scale = (self.n + 1) * float(np.max(np.abs(mat))) ** 2
        if residual > resolve(None).tol(scale):
            raise NotIsometry(f"matrix does not preserve the form (residual {residual:.3e})")

    def __matmul__(self, other: "Isometry") -> "Isometry":
        if self.n != other.n:
            raise DimensionMismatch("cannot compose isometries of different dimension")
        return Isometry(self.n, self.matrix @ other.matrix)


def apply_isometry(g: Isometry, Z: HermitianVector) -> HermitianVector:
    if g.n != Z.n:
        raise DimensionMismatch(f"isometry of n={g.n} cannot act on vector of n={Z.n}")
    return HermitianVector(Z.n, g.matrix @ Z.coords)


def apply_isometry_point(g: Isometry, p: BoundaryPoint,
                         cfg: NumericConfig | None = None) -> BoundaryPoint:
    """Move a boundary point: lift, act, dehomogenize."""
    return _point((g.matrix @ np.array(_lift(p, g.n))).tolist(), cfg)


def infer_dimension(points) -> int:
    """Common ambient dimension of a tuple of boundary points."""
    n = None
    for p in points:
        if p.at_infinity:
            continue
        k = len(p.z) + 1
        if n is None:
            n = k
        elif n != k:
            raise DimensionMismatch("points live in different dimensions")
    if n is None:
        raise CoincidentPoints("all points are at infinity")
    return n


def standard_lifts(points) -> list:
    """Standard lifts of boundary points in their common dimension."""
    n = infer_dimension(points)
    return [standard_lift(p, n) for p in points]


def chordal_distances(coords) -> np.ndarray:
    """Pairwise chordal distances of the complex lines spanned by the rows of coords.

    Euclidean: sqrt(1 - |<z_i, z_j>|^2 / (|z_i|^2 |z_j|^2)) with the
    standard inner product of C^{n+1}; 0 wherever a row vanishes.
    """
    L = np.asarray(coords, dtype=complex)
    # entry by entry, so that a pair's distance does not depend on the other rows
    products = (L.conj()[:, None, :] * L[None, :, :]).sum(axis=2)
    sq = products.diagonal().real
    denom = sq[:, None] * sq[None, :]
    cos2 = np.divide(np.abs(products) ** 2, denom, out=np.ones_like(denom), where=denom > 0.0)
    return np.sqrt(np.maximum(0.0, 1.0 - cos2))


def chordal_distance(Z: HermitianVector, W: HermitianVector) -> float:
    """Chordal distance of the complex lines spanned by Z and W (Euclidean)."""
    return float(chordal_distances([Z.coords, W.coords])[0, 1])
