"""Cartan's angular invariant, complex cross-ratios, the moduli coordinates
(X1, X2, A), and congruence.

For an ordered triple of distinct boundary points, the Cartan invariant

    A(p1, p2, p3) = arg(-<P1,P2><P2,P3><P3,P1>)

is lift-independent, lies in [-pi/2, pi/2], and classifies the triple
up to holomorphic isometry.  For quadruples, the Koranyi-Reimann
complex cross-ratio

    X(p1, p2, p3, p4) = <P3,P1><P4,P2> / (<P4,P1><P3,P2>)

is likewise lift-independent and isometry-invariant.  Two quadruples
are congruent under a holomorphic isometry precisely when their moduli
points coincide, and under an anti-holomorphic one precisely when one
is (conj X1, conj X2, -A) of the other.  ``_dictionary`` gives the free
entries of the Gram normal form (see ``gram``) that ``reconstruct`` reads.

Every value here is read off the rows of one Gram matrix, which
``points._points_rows`` builds of points and ``gram`` of lifts or of a
normal form, or off (X1, X2, A).  Each formula (cross-ratio, Cartan, F,
face determinants) has one definition.  A product is taken as it reads
while its modulus lies in [2^-500, 2^500], and otherwise on its factors
scaled exactly by powers of two, so rows at any scale give
full-precision values.
"""

from __future__ import annotations

import cmath
import math

from .errors import CartanOutOfRange, InvalidParameter, UnderflowError, ZeroCrossRatio
from .numeric import _HI, _LO, Frozen, NumericConfig, _close, _ldexp, _overflow, _setattr, resolve
from .points import _TINY, _json_complex, _json_field, _json_number, _points_rows

FACES = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
HALF_PI = math.pi / 2.0


def _mantissa(v: complex) -> tuple:
    """(v 2^-e, e), e the binary exponent of v's larger part, which lands in [1/2, 1).

    Exact unless the smaller part is below about 2^-1021 times the larger one:
    then it rounds in the subnormal range.
    """
    e = math.frexp(max(abs(v.real), abs(v.imag)))[1]
    return complex(math.ldexp(v.real, -e), math.ldexp(v.imag, -e)), e


def _cross_ratio(g, i, j, k, l) -> complex:
    """X(p_i, p_j, p_k, p_l) = g_ki g_lj / (g_li g_kj), read off Gram rows g (0-based).

    Taken as it reads while both products lie in the window [2^-500, 2^500],
    where the division's intermediates and its quotient stay normal; otherwise
    on the factors scaled exactly by their own powers of two, and scaled back.
    """
    num, den = g[k][i] * g[l][j], g[l][i] * g[k][j]
    try:
        if _LO <= abs(num) <= _HI and _LO <= abs(den) <= _HI:
            return num / den
    except OverflowError:  # |num| or |den| of finite parts beyond the float range
        pass
    (a, ea), (b, eb), (c, ec), (d, ed) = map(_mantissa, (g[k][i], g[l][j], g[l][i], g[k][j]))
    x, e = a * b / (c * d), ea + eb - ec - ed
    return complex(_ldexp(x.real, e), _ldexp(x.imag, e))


def _cartan(g, i, j, k, cfg: NumericConfig | None) -> float:
    """A(p_i, p_j, p_k) = arg(-g_ij g_jk g_ki), read off Gram rows g (0-based).

    Taken as it reads while g_ij g_jk and the triple product lie in the window
    of ``_cross_ratio``; otherwise on the factors scaled exactly by their own
    powers of two, which leaves the phase alone.  An angle a rounding error
    past +-pi/2 is snapped back onto the interval.
    """
    pq = g[i][j] * g[j][k]
    t = pq * g[k][i]
    try:
        normal = _LO <= abs(pq) <= _HI and _LO <= abs(t) <= _HI
    except OverflowError:  # a modulus of finite parts beyond the float range
        normal = False
    if not normal:
        t = _mantissa(g[i][j])[0] * _mantissa(g[j][k])[0] * _mantissa(g[k][i])[0]
    angle = cmath.phase(-t)
    if abs(angle) <= HALF_PI:
        return angle
    if abs(angle) <= HALF_PI + resolve(cfg).tol(1.0):
        return math.copysign(HALF_PI, angle)
    raise CartanOutOfRange(f"angle {angle} lies outside [-pi/2, pi/2]")


def _quadruple_gram(points, cfg: NumericConfig | None) -> tuple:
    """Rows of the Gram matrix of an ordered quadruple's standard lifts."""
    points = tuple(points)
    if len(points) != 4:
        raise InvalidParameter(f"expected 4 points, got {len(points)}")
    return _points_rows(points, resolve(cfg))


def cartan(p1, p2, p3, cfg: NumericConfig | None = None) -> float:
    """Cartan angular invariant of an ordered triple of boundary points."""
    return _cartan(_points_rows((p1, p2, p3), resolve(cfg)), 0, 1, 2, cfg)


def cross_ratio(p1, p2, p3, p4, cfg: NumericConfig | None = None) -> complex:
    """Koranyi-Reimann complex cross-ratio of an ordered quadruple."""
    return _cross_ratio(_points_rows((p1, p2, p3, p4), resolve(cfg)), 0, 1, 2, 3)


def _guard(x1: complex, x2: complex, a: float, c: NumericConfig):
    """ModuliPoint's guard: finite X1, X2 and A, then |X1| and |X2| above c's absolute tolerance."""
    if not (cmath.isfinite(x1) and cmath.isfinite(x2) and math.isfinite(a)):
        raise InvalidParameter("moduli coordinates must be finite")
    try:
        if abs(x1) <= c.abs_tol or abs(x2) <= c.abs_tol:
            raise ZeroCrossRatio("moduli coordinates require nonzero X1 and X2")
    except OverflowError:  # a modulus of finite parts beyond the float range
        raise _overflow(("X1", x1), ("X2", x2)) from None


def _isclose(p: tuple, q: tuple, c: NumericConfig) -> bool:
    """ModuliPoint.isclose's rule on coordinates p = (X1, X2, A) and q."""
    scale = max(1.0, abs(p[0]), abs(q[0]), abs(p[1]), abs(q[1]))
    return _close(c.tol(scale), p[0] - q[0], p[1] - q[1]) and abs(p[2] - q[2]) <= c.tol(1.0)


class ModuliPoint(Frozen):
    """Moduli coordinates (X1, X2, A) of a quadruple class.

    ``cartan`` is the Cartan invariant of the first face (p1, p2, p3),
    in radians.  The checks use ``cfg`` (the default config when None).
    """

    _fields = ("x1", "x2", "cartan")

    def __init__(self, x1: complex, x2: complex, cartan: float,
                 cfg: NumericConfig | None = None):
        x1, x2, cartan = complex(x1), complex(x2), float(cartan)
        _guard(x1, x2, cartan, resolve(cfg))
        _setattr(self, "x1", x1)
        _setattr(self, "x2", x2)
        _setattr(self, "cartan", cartan)
        _setattr(self, "cfg", cfg)

    def isclose(self, other: "ModuliPoint", cfg: NumericConfig | None = None) -> bool:
        return _isclose(self._key(self), self._key(other), resolve(cfg))

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
        return _close(c.tol(scale), self.x1 - other.x1, self.x2 - other.x2, self.x3 - other.x3)

    def to_json(self) -> dict:
        return {name: [v.real, v.imag] for name, v in zip(self._fields, self._key(self))}

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


def _coordinates(g, cfg: NumericConfig | None) -> tuple:
    """``_moduli``'s (X1, X2, A) as a tuple, through the same guard, with no ModuliPoint."""
    x = _cross_ratio(g, 0, 1, 2, 3), _cross_ratio(g, 0, 2, 1, 3), _cartan(g, 0, 1, 2, cfg)
    _guard(*x, resolve(cfg))
    return x


def _dictionary(x1: complex, x2: complex, a: float) -> tuple:
    """The normal form's free entries g13 = -e^{-iA}, g14 = 1/conj(X2) and
    g24 = -(conj X1/conj X2) e^{iA}; OverflowError or UnderflowError naming g14 or g24 when
    its modulus is not in [smallest normal float, inf), the Gram kernels' rule."""
    g13 = -cmath.exp(-1j * a)
    g14 = 1.0 / x2.conjugate()
    g24 = -(x1.conjugate() / x2.conjugate()) * cmath.exp(1j * a)
    for name, g in (("g14", g14), ("g24", g24)):
        size = math.hypot(g.real, g.imag)  # inf where abs() raises; NaN of inf times 0
        if not size < math.inf:
            raise OverflowError(f"{name} leaves the float range at |X1| = {abs(x1)!r}, "
                                f"|X2| = {abs(x2)!r}")
        if size < _TINY:
            raise UnderflowError(f"|{name}| = {size!r} lies below the normal float range")
    return g13, g14, g24


def _residual(x1: complex, x2: complex, a: float) -> tuple:
    """F(X1, X2, A) and its scale 1 + |X1|^2 + |X2|^2; OverflowError naming |X1| and |X2| if
    either is not finite."""
    try:
        s1, s2 = abs(x1) ** 2, abs(x2) ** 2
    except OverflowError:  # a square beyond the float range
        s1 = s2 = math.inf
    F = (-2.0 * (x1 + x2).real - 2.0 * (x1 * x2.conjugate() * cmath.exp(-2j * a)).real
         + s1 + s2 + 1.0)
    scale = 1.0 + s1 + s2
    if math.isfinite(F) and math.isfinite(scale):
        return F, scale
    raise OverflowError(f"F leaves the float range at |X1| = {abs(x1)!r}, |X2| = {abs(x2)!r}")


def _face_dets(g13: complex, g14: complex, g24: complex) -> tuple:
    """The four face determinants of the normal form with free entries g13, g14, g24.

    Face (i, j, k) gives 2 Re g_ij g_jk g_ki; with the unit entries left out, in the order
    of ``FACES``, that is 2 Re g13, 2 Re(g24 conj g14), 2 Re(g13 conj g14) and 2 Re g24.
    """
    return (2.0 * g13.real, 2.0 * (g24 * g14.conjugate()).real,
            2.0 * (g13 * g14.conjugate()).real, 2.0 * g24.real)


def congruent_holomorphic(p, q, cfg: NumericConfig | None = None) -> bool:
    """Are two quadruples congruent under a holomorphic isometry, i.e. their moduli points close?"""
    mp, mq = (_coordinates(_quadruple_gram(x, cfg), cfg) for x in (p, q))
    return _isclose(mp, mq, resolve(cfg))


def congruent_antiholomorphic(p, q, cfg: NumericConfig | None = None) -> bool:
    """Are two quadruples congruent under an anti-holomorphic isometry (X -> conj X, A -> -A)?"""
    mp, (y1, y2, b) = (_coordinates(_quadruple_gram(x, cfg), cfg) for x in (p, q))
    return _isclose(mp, (y1.conjugate(), y2.conjugate(), -b), resolve(cfg))
