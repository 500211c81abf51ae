"""Cartan's angular invariant, complex cross-ratios, and the dictionary
between the moduli coordinates (X1, X2, A) and the Gram normal form.

For an ordered triple of distinct boundary points, the Cartan invariant

    A(p1, p2, p3) = arg(-<P1,P2><P2,P3><P3,P1>)

is lift-independent, lies in [-pi/2, pi/2], and classifies the triple
up to holomorphic isometry.  For quadruples, the Koranyi-Reimann
complex cross-ratio

    X(p1, p2, p3, p4) = <P3,P1><P4,P2> / (<P4,P1><P3,P2>)

is likewise lift-independent and isometry-invariant.  Against the Gram
normal form (g13, g14, g24) the dictionary reads

    X1 = conj(g13) conj(g24) / conj(g14),   X2 = 1 / conj(g14),
    X3 = 1 / (g13 conj(g24)),               A  = arg(-conj(g13)),

with inverse g13 = -e^{-iA}, g14 = 1/conj(X2),
g24 = -(conj(X1)/conj(X2)) e^{iA}.  Only the squares of g13 and g24
are determined by (X1, X2, X3) alone, which is why the angle A is part
of the moduli data.  Every value here is read off one Gram matrix
(``gram.gram_of`` of lifts, the rows of ``gram.gram_of_points`` of points), and
each formula (cross-ratio, Cartan, F, face determinants) has one
definition.
"""

from __future__ import annotations

import cmath
import math
import sys

from .errors import CartanOutOfRange, InvalidParameter, ZeroCrossRatio
from .gram import FACES, NormalizedGram, _balanced, _face_det, _points_rows, _triple, gram_of
from .hermitian import HermitianVector, _json_complex, _json_field, _json_number
from .numeric import Frozen, NumericConfig, _overflow, _setattr, resolve

HALF_PI = math.pi / 2.0
_TINY, _HUGE = sys.float_info.min, sys.float_info.max


def _clamp_cartan(angle: float, cfg: NumericConfig) -> float:
    """Snap values a rounding error past +-pi/2 back onto the interval."""
    if abs(angle) <= HALF_PI:
        return angle
    if abs(angle) <= HALF_PI + cfg.tol(1.0):
        return math.copysign(HALF_PI, angle)
    raise CartanOutOfRange(f"angle {angle} lies outside [-pi/2, pi/2]")


def _cross_ratio(g, i, j, k, l) -> complex:
    """X(p_i, p_j, p_k, p_l) = g_ki g_lj / (g_li g_kj), read off Gram rows g (0-based).

    A product beyond the normal float range (subnormal, 0, inf or NaN) is
    taken again on the balanced rows, whose products stay in it.
    """
    num, den = g[k][i] * g[l][j], g[l][i] * g[k][j]
    try:
        if _TINY <= abs(num) <= _HUGE and _TINY <= abs(den) <= _HUGE:
            return num / den
    except OverflowError:  # |num| or |den| of finite parts beyond the float range
        pass
    g = _balanced(g)
    return g[k][i] * g[l][j] / (g[l][i] * g[k][j])


def _cartan(g, i, j, k, cfg: NumericConfig | None) -> float:
    """A(p_i, p_j, p_k) = arg(-g_ij g_jk g_ki), read off Gram rows g (0-based).

    A product beyond the normal float range (subnormal, 0, inf or NaN) takes
    its phase from the unit factors g/|g| instead, whose product stays in it.
    """
    t = _triple(g, i, j, k)
    try:
        normal = _TINY <= abs(t) <= _HUGE
    except OverflowError:  # |t| of finite parts beyond the float range
        normal = False
    if not normal:
        p, q, r = g[i][j], g[j][k], g[k][i]
        t = p / abs(p) * (q / abs(q)) * (r / abs(r))
    return _clamp_cartan(cmath.phase(-t), resolve(cfg))


def _quadruple_gram(points, cfg: NumericConfig | None) -> tuple:
    """Rows of the Gram matrix of an ordered quadruple's standard lifts."""
    points = tuple(points)
    if len(points) != 4:
        raise InvalidParameter(f"expected 4 points, got {len(points)}")
    return _points_rows(points, resolve(cfg))


def cartan_from_lifts(P1: HermitianVector, P2: HermitianVector, P3: HermitianVector,
                      cfg: NumericConfig | None = None) -> float:
    return _cartan(gram_of((P1, P2, P3), cfg).rows, 0, 1, 2, cfg)


def cartan(p1, p2, p3, cfg: NumericConfig | None = None) -> float:
    """Cartan angular invariant of an ordered triple of boundary points."""
    return _cartan(_points_rows((p1, p2, p3), resolve(cfg)), 0, 1, 2, cfg)


def cross_ratio_from_lifts(P1, P2, P3, P4, cfg: NumericConfig | None = None) -> complex:
    return _cross_ratio(gram_of((P1, P2, P3, P4), cfg).rows, 0, 1, 2, 3)


def cross_ratio(p1, p2, p3, p4, cfg: NumericConfig | None = None) -> complex:
    """Koranyi-Reimann complex cross-ratio of an ordered quadruple."""
    return _cross_ratio(_points_rows((p1, p2, p3, p4), resolve(cfg)), 0, 1, 2, 3)


class ModuliPoint(Frozen):
    """Moduli coordinates (X1, X2, A) of a quadruple class.

    ``cartan`` is the Cartan invariant of the first face (p1, p2, p3),
    in radians.  The checks use ``cfg`` (the default config when None).
    """

    _fields = ("x1", "x2", "cartan")

    def __init__(self, x1: complex, x2: complex, cartan: float,
                 cfg: NumericConfig | None = None):
        x1, x2, cartan = complex(x1), complex(x2), float(cartan)
        if not (cmath.isfinite(x1) and cmath.isfinite(x2) and math.isfinite(cartan)):
            raise InvalidParameter("moduli coordinates must be finite")
        _setattr(self, "x1", x1)
        _setattr(self, "x2", x2)
        _setattr(self, "cartan", cartan)
        _setattr(self, "cfg", cfg)
        c = resolve(cfg)
        try:
            zero = abs(x1) <= c.abs_tol or abs(x2) <= c.abs_tol
        except OverflowError:  # a modulus of finite parts beyond the float range
            raise _overflow(("X1", x1), ("X2", x2)) from None
        if zero:
            raise ZeroCrossRatio("moduli coordinates require nonzero X1 and X2")

    def isclose(self, other: "ModuliPoint", cfg: NumericConfig | None = None) -> bool:
        c = resolve(cfg)
        scale = max(1.0, abs(self.x1), abs(other.x1), abs(self.x2), abs(other.x2))
        return (abs(self.x1 - other.x1) <= c.tol(scale)
                and abs(self.x2 - other.x2) <= c.tol(scale)
                and abs(self.cartan - other.cartan) <= c.tol(1.0))

    def to_json(self) -> dict:
        return {"x1": [self.x1.real, self.x1.imag],
                "x2": [self.x2.real, self.x2.imag],
                "a": self.cartan}

    @classmethod
    def from_json(cls, obj: dict, path: str = "moduli",
                  cfg: NumericConfig | None = None) -> "ModuliPoint":
        """Parse to_json output; a malformed field raises ValueError naming its JSON path."""
        return cls(_json_complex(_json_field(obj, "x1", path), f"{path}.x1"),
                   _json_complex(_json_field(obj, "x2", path), f"{path}.x2"),
                   _json_number(_json_field(obj, "a", path), f"{path}.a"), cfg)


class CrossRatioTriple(Frozen):
    """The Parker-Platis cross-ratio coordinates (X1, X2, X3) of a quadruple."""

    _fields = ("x1", "x2", "x3")

    def __init__(self, x1: complex, x2: complex, x3: complex):
        if not (cmath.isfinite(x1) and cmath.isfinite(x2) and cmath.isfinite(x3)):
            raise InvalidParameter("cross-ratios must be finite")
        _setattr(self, "x1", x1)
        _setattr(self, "x2", x2)
        _setattr(self, "x3", x3)

    def isclose(self, other: "CrossRatioTriple", cfg: NumericConfig | None = None) -> bool:
        c = resolve(cfg)
        values = (self.x1, self.x2, self.x3, other.x1, other.x2, other.x3)
        try:
            scale = max([1.0] + [abs(v) for v in values])
        except OverflowError:  # a modulus of finite parts beyond the float range
            raise _overflow(*zip(("X1", "X2", "X3") * 2, values)) from None
        return (abs(self.x1 - other.x1) <= c.tol(scale)
                and abs(self.x2 - other.x2) <= c.tol(scale)
                and abs(self.x3 - other.x3) <= c.tol(scale))

    def to_json(self) -> dict:
        return {"x1": [self.x1.real, self.x1.imag],
                "x2": [self.x2.real, self.x2.imag],
                "x3": [self.x3.real, self.x3.imag]}

    @classmethod
    def from_json(cls, obj: dict, path: str = "cross_ratios") -> "CrossRatioTriple":
        """Parse to_json output; a malformed field raises ValueError naming its JSON path."""
        return cls(*(_json_complex(_json_field(obj, k, path), f"{path}.{k}")
                     for k in ("x1", "x2", "x3")))


def cross_ratio_triple(points, cfg: NumericConfig | None = None) -> CrossRatioTriple:
    """The three cross-ratios (X1, X2, X3) of an ordered quadruple.

    X3 is computed from Hermitian products directly, never through the
    identity X3 = (X2/X1) e^{2iA}, so that identity stays testable.
    """
    return _cross_ratios(_quadruple_gram(points, cfg))


def _cross_ratios(g) -> CrossRatioTriple:
    """(X1, X2, X3) read off the rows of any Gram matrix of the quadruple."""
    return CrossRatioTriple(_cross_ratio(g, 0, 1, 2, 3), _cross_ratio(g, 0, 2, 1, 3),
                            _cross_ratio(g, 1, 2, 0, 3))


def _moduli(g, cfg: NumericConfig | None) -> ModuliPoint:
    """(X1, X2, A) read off the rows of any Gram matrix of the quadruple."""
    return ModuliPoint(_cross_ratio(g, 0, 1, 2, 3), _cross_ratio(g, 0, 2, 1, 3),
                       _cartan(g, 0, 1, 2, cfg), cfg)


def moduli_from_gram(G: NormalizedGram, cfg: NumericConfig | None = None) -> ModuliPoint:
    """Read (X1, X2, A) off a Gram normal form."""
    return _moduli(G.rows, cfg)


def gram_from_moduli(m: ModuliPoint) -> NormalizedGram:
    """Rebuild the Gram normal form from (X1, X2, A), with m's config."""
    g13 = -cmath.exp(-1j * m.cartan)
    g14 = 1.0 / m.x2.conjugate()
    g24 = -(m.x1.conjugate() / m.x2.conjugate()) * cmath.exp(1j * m.cartan)
    return NormalizedGram(g13, g14, g24, m.cfg)


def _defining_function(x1: complex, x2: complex, a: float) -> float:
    """F(X1, X2, A) = -2 Re(X1 + X2) - 2 Re(X1 conj(X2) e^{-2iA}) + |X1|^2 + |X2|^2 + 1."""
    return (-2.0 * (x1 + x2).real
            - 2.0 * (x1 * x2.conjugate() * cmath.exp(-2j * a)).real
            + abs(x1) ** 2 + abs(x2) ** 2 + 1.0)


def det_from_moduli(m: ModuliPoint) -> float:
    """Determinant of the Gram normal form, in moduli coordinates: F / |X2|^2."""
    return _defining_function(m.x1, m.x2, m.cartan) / abs(m.x2) ** 2


def face_dets_from_moduli(m: ModuliPoint) -> tuple:
    """The four face determinants in moduli coordinates.

    Order matches ``gram.FACES``.
    """
    g = gram_from_moduli(m).rows
    return tuple(_face_det(g, face) for face in FACES)
