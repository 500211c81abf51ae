"""Boundary points in horospherical coordinates, and the Gram kernel of points.

A finite boundary point of complex hyperbolic n-space carries coordinates
(z, t) with z in C^{n-1} and t real; one distinguished point sits at
infinity.  The Gram matrix of the points' standard lifts (see
``hermitian``) has a closed form in these coordinates, which
``_points_rows`` evaluates without building a lift.  It and every other
loop over the pairs i < j, on both sides, walk one table: ``_PAIRS``, in row order.
A finite point keeps the kernel's config-free read of it (``_read``).

This module, with the JSON readers every ``from_json`` shares and
``_dimension``, the one rule of every public ``n`` on both sides, is the
base of the points side: ``invariants``, ``moduli`` and ``varieties``
import it and nothing of the lift side (``hermitian``, ``gram``) above.
"""

from __future__ import annotations

import math
import sys

from .errors import CoincidentPoints, DimensionMismatch, InvalidParameter, UnderflowError
from .numeric import Frozen, NumericConfig, _close, _overflow, _setattr, resolve

_TINY = sys.float_info.min  # the smallest normal float
# the pairs i < j of three or four points (or lifts) in row order: g12, g13, ...
_PAIRS = {3: ((0, 1), (0, 2), (1, 2)), 4: ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))}


def _json_field(obj, key: str, path: str):
    """obj[key] of the JSON object found at path in the input."""
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected an object")
    if key not in obj:
        raise ValueError(f"{path}: missing key {key!r}")
    return obj[key]


def _json_list(value, path: str):
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{path}: expected a list")
    return value


def _json_number(value, path: str) -> float:
    """A JSON number as a float; strings, booleans and null are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path}: expected a number")
    return float(value)


def _json_int(value, path: str) -> int:
    """A JSON int, or an integral float, as an int; booleans and strings are not integers."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{path}: expected an integer, got {value!r}")
    return value


def _json_complex(value, path: str) -> complex:
    """A JSON [re, im] pair of numbers as a complex number."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{path}: expected [re, im]")
    return complex(_json_number(value[0], f"{path}[0]"), _json_number(value[1], f"{path}[1]"))


class BoundaryPoint(Frozen):
    """A boundary point: horospherical (z, t) or the point at infinity."""

    _fields = ("at_infinity", "z", "t")
    _read = None  # ((Re z1, Im z1, ...), t, |z|) once ``_reads`` has read a finite point

    def __init__(self, at_infinity: bool, z: tuple = (), t: float = 0.0):
        _setattr(self, "at_infinity", at_infinity)
        _setattr(self, "z", tuple(z))
        _setattr(self, "t", t)

    @classmethod
    def finite(cls, z, t) -> "BoundaryPoint":
        return cls(False, [complex(v) for v in z], float(t))

    @classmethod
    def infinity(cls) -> "BoundaryPoint":
        return cls(True)

    def mirror(self) -> "BoundaryPoint":
        """Image under the standard anti-holomorphic involution (z, t) -> (conj z, -t)."""
        if self.at_infinity:
            return self
        return BoundaryPoint(False, [v.conjugate() for v in self.z], -self.t)

    def isclose(self, other: "BoundaryPoint", cfg: NumericConfig | None = None) -> bool:
        c = resolve(cfg)
        if self.at_infinity or other.at_infinity:
            return self.at_infinity and other.at_infinity
        if len(self.z) != len(other.z):
            return False
        try:
            scale = max([1.0, abs(self.t), abs(other.t)]
                        + [abs(v) for v in self.z] + [abs(v) for v in other.z])
        except OverflowError:  # |z_k| of finite parts beyond the float range
            raise _overflow(*((f"z{k + 1}", v) for z in (self.z, other.z)
                              for k, v in enumerate(z))) from None
        return _close(c.tol(scale), self.t - other.t, *(a - b for a, b in zip(self.z, other.z)))

    def to_json(self) -> dict:
        if self.at_infinity:
            return {"type": "infinity"}
        return {"type": "finite", "z": [[v.real, v.imag] for v in self.z], "t": self.t}

    @classmethod
    def from_json(cls, obj: dict, path: str = "point") -> "BoundaryPoint":
        """Parse to_json output; a malformed field raises ValueError naming its JSON path."""
        kind = _json_field(obj, "type", path)
        if kind == "infinity":
            return cls.infinity()
        if kind == "finite":
            z = _json_list(_json_field(obj, "z", path), f"{path}.z")
            return cls.finite([_json_complex(v, f"{path}.z[{k}]") for k, v in enumerate(z)],
                              _json_number(_json_field(obj, "t", path), f"{path}.t"))
        raise ValueError(f"{path}.type: unknown point type {kind!r}")


def _dimension(n) -> int:
    """Every public n, read as an int >= 1; a bool (a numpy mask) or a non-integral n is refused."""
    if type(n) is not int:
        if isinstance(n, bool) or not hasattr(n, "__index__"):
            raise InvalidParameter(f"n must be an integer, got {n!r}")
        n = n.__index__()
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")
    return n


def infer_dimension(points) -> int:
    """Common ambient dimension of a tuple of boundary points."""
    return _reads(points)[1] // 2 + 1


def _reads(points) -> tuple:
    """Per point None at infinity or its ``_read``, set once on first use; the width, per call."""
    reads, width = [], None
    for p in points:
        read = p._read
        if read is None and not p.at_infinity:  # a finite point's first read
            flat = ()
            for v in p.z:
                flat += v.real, v.imag
            read = flat, p.t, math.hypot(*flat)
            _setattr(p, "_read", read)
        if read is not None:
            if width not in (None, len(read[0])):
                raise DimensionMismatch("points live in different dimensions")
            width = len(read[0])
        reads.append(read)
    if width is None:
        raise CoincidentPoints("all points are at infinity")
    return reads, width


def _check_count(m: int, what: str):
    if m not in (3, 4):
        raise InvalidParameter(f"expected 3 or 4 {what}, got {m}")


def _underflow(i: int, j: int, size: float) -> UnderflowError:
    """UnderflowError naming distinct points (or lifts) i < j and their entry's modulus."""
    return UnderflowError(f"|<P{i + 1},P{j + 1}>| = {size!r} lies below the normal float range")


def _points_rows(points, c: NumericConfig) -> tuple:
    """Rows of the Gram matrix of the standard lifts of three or four points, in closed form.

    For finite points i < j the entry is
    g_ij = -|z_i - z_j|^2 + i(t_i - t_j + 2 Im<z_i - z_j, z_j>), the squared
    Koranyi-Cygan distance in modulus, and g_ij = 1 when one point is at
    infinity.  Points i and j coincide when |g_ij| <= tol(|dz|^2 + |dt| +
    2|dz||z_j|), a bound by the entry's own terms, and two points at infinity
    coincide.  A pair whose entry or bound leaves the float range raises
    OverflowError naming the coordinates' magnitude, or InvalidParameter when
    a coordinate is not finite; distinct points whose entry's modulus is
    subnormal raise UnderflowError.  Errors, in order: DimensionMismatch, all
    points at infinity, the count, then each pair in turn.
    """
    reads, width = _reads(points)
    m = len(points)
    _check_count(m, "points")
    a, r, r2, reals = c.abs_tol, c.rel_tol, 2.0 * c.rel_tol, range(0, width, 2)
    sqrt, inf = math.sqrt, math.inf  # r2 * s is 2.0 * r * s, which groups from the left
    upper = []
    for i, j in _PAIRS[m]:
        u, v = reads[i], reads[j]
        if u is None or v is None:
            if u is v:
                raise CoincidentPoints(f"points {i + 1} and {j + 1} coincide")
            upper.append(1 + 0j)
            continue
        (pz, pt, _), (qz, qt, norm) = u, v
        dz2 = im = 0.0
        for k in reals:  # one coordinate's real and imaginary parts
            qr, qi = qz[k], qz[k + 1]
            dr, di = pz[k] - qr, pz[k + 1] - qi
            dz2 += dr * dr + di * di
            im += di * qr - dr * qi
        dt = pt - qt
        g = complex(0.0 - dz2, dt + 2.0 * im)  # 0.0 - 0.0 is +0.0, as <P_i, P_j> gives
        try:
            size = abs(g)
        except OverflowError:  # |g| of finite parts beyond the float range
            size = inf
        bound = a + r * dz2 + r * abs(dt) + r2 * sqrt(dz2) * norm
        if not size < inf > bound:  # also when either is NaN
            raise _out_of_range([*pz, *qz, pt, qt], i, j)
        if size <= bound:
            raise CoincidentPoints(f"points {i + 1} and {j + 1} coincide")
        if size < _TINY:
            raise _underflow(i, j, size)
        upper.append(g)
    return _hermitian_rows(upper)


def _hermitian_rows(g) -> tuple:
    """Rows of the zero-diagonal Hermitian matrix above whose diagonal lie g12, g13, ...."""
    if len(g) == 3:
        a, b, c = g
        return (0j, a, b), (a.conjugate(), 0j, c), (b.conjugate(), c.conjugate(), 0j)
    a, b, c, d, e, f = g
    return ((0j, a, b, c), (a.conjugate(), 0j, d, e), (b.conjugate(), d.conjugate(), 0j, f),
            (c.conjugate(), e.conjugate(), f.conjugate(), 0j))


def _out_of_range(parts: list, i: int, j: int) -> Exception:
    """The error of finite points i < j, read as parts, whose Gram entry or bound is not finite."""
    if all(map(math.isfinite, parts)):
        return OverflowError(f"<P{i + 1},P{j + 1}> overflows for coordinates of magnitude "
                             f"{max(map(abs, parts))}")
    return InvalidParameter("Gram matrix entries must be finite")
