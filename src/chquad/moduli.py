"""Moduli coordinates of boundary quadruples.

An ordered quadruple of distinct boundary points, taken up to
holomorphic isometry, is described completely by the triple
(X1, X2, A): the cross-ratios X1 = X(p1,p2,p3,p4) and
X2 = X(p1,p3,p2,p4) together with the Cartan invariant A of
(p1, p2, p3).  The image of the space of quadruples is cut out by the
defining function

    F(X1, X2, A) = -2 Re(X1 + X2) - 2 Re(X1 conj(X2) e^{-2iA})
                   + |X1|^2 + |X2|^2 + 1

through F = 0 for quadruples in dimension 2 and F <= 0 in dimension
n >= 3, subject to -pi/2 <= A <= pi/2 and Re(X1 e^{-iA}) >= 0.  The
inequality is an equality exactly when the quadruple fits inside the
boundary of a complex hyperbolic 2-subspace.  Every reader here takes F
and its scale 1 + |X1|^2 + |X2|^2 from ``invariants._residual``, which
raises an OverflowError naming |X1| and |X2| when either is not finite.

``reconstruct`` inverts the coordinates explicitly: it produces four
null lifts whose Gram normal form realizes the given (X1, X2, A).
"""

from __future__ import annotations

import cmath
import math

from .errors import (InconsistentGram, InvalidParameter, NotInModuliSpace, PreconditionViolated,
                     UnderflowError)
from .invariants import (HALF_PI, ModuliPoint, _dictionary, _face_dets, _guard, _moduli,
                         _quadruple_gram, _residual)
from .numeric import Frozen, NumericConfig, _setattr, resolve
from .points import _TINY, _dimension


def moduli_coordinates(points, cfg: NumericConfig | None = None) -> ModuliPoint:
    """Map a quadruple of boundary points to its moduli coordinates."""
    return _moduli(_quadruple_gram(points, cfg), cfg)


def moduli_residual(m: ModuliPoint) -> float:
    """Value of the defining function F at (X1, X2, A).

    Vanishes for every quadruple in dimension 2; is <= 0 in general.
    Equals |X2|^2 times the Gram normal-form determinant.
    """
    return _residual(m.x1, m.x2, m.cartan)[0]


def residual_scale(m: ModuliPoint) -> float:
    """Natural magnitude 1 + |X1|^2 + |X2|^2 of F at m, used to scale tolerance checks."""
    return _residual(m.x1, m.x2, m.cartan)[1]


def _x2_squared(r2: float) -> float:
    """|X2|^2 of |X2| = r2, a divisor of the determinants; UnderflowError below the normal range."""
    x2_sq = r2 ** 2
    if x2_sq < _TINY:
        raise UnderflowError(f"|X2| = {r2!r}: |X2|^2 lies below the normal float range")
    return x2_sq


def det_from_moduli(m: ModuliPoint) -> float:
    """Determinant of the Gram normal form, in moduli coordinates: F / |X2|^2."""
    return moduli_residual(m) / _x2_squared(abs(m.x2))


def face_dets_from_moduli(m: ModuliPoint) -> tuple:
    """The four face determinants in moduli coordinates, in the order of ``FACES``."""
    _x2_squared(min(abs(m.x2), 1.0))  # the underflow rule: a |X2| >= 1 does not underflow
    return _face_dets(*_dictionary(m.x1, m.x2, m.cartan))


def real_slice_residual(x1: float, x2: float, a: float) -> float:
    """F restricted to real X1, X2: the conic family of the real slice."""
    return _residual(x1, x2, a)[0]


def _positivity(m: ModuliPoint) -> float:
    """Re(X1 e^{-iA}), which is >= 0 on the moduli space."""
    return (m.x1 * cmath.exp(-1j * m.cartan)).real


def in_moduli_space(m: ModuliPoint, n: int, cfg: NumericConfig | None = None) -> bool:
    """Is (X1, X2, A) realized by a quadruple in dimension n?

    Dimension 2 requires F = 0, dimension n >= 3 only F <= 0; both
    require -pi/2 <= A <= pi/2 and Re(X1 e^{-iA}) >= 0.  At A = +-pi/2
    the side condition degenerates to the sign rule Im(X1) >= 0
    (A = pi/2) or Im(X1) <= 0 (A = -pi/2); evaluating Re(X1 e^{-iA})
    directly implements exactly that rule.
    """
    c, n = resolve(cfg), _dimension(n)
    if n < 2:
        raise InvalidParameter(f"moduli membership is defined for n >= 2, got {n}")
    return _membership(m, n, c) is not None


def _membership(m: ModuliPoint, n: int, c: NumericConfig) -> float | None:
    """F's scale 1 + |X1|^2 + |X2|^2 when m is a member in dimension n >= 2 under c, else None:
    the one reading of F that ``in_moduli_space`` and ``reconstruct`` decide on."""
    if abs(m.cartan) > HALF_PI + c.tol(1.0) or _positivity(m) < -c.tol(abs(m.x1)):
        return None
    F, scale = _residual(m.x1, m.x2, m.cartan)
    return scale if (abs(F) if n == 2 else F) <= c.tol(scale) else None


def reconstruct(m: ModuliPoint, n: int, cfg: NumericConfig | None = None):
    """Four null lifts in C^{n,1} realizing the moduli point m.

    The lifts are P1 = (0,...,0,1), P2 = (1,0,...,0),
    P3 = (z1, z, 1) and P4 = (w1, w, w_last) with z, w in C^{n-1}.
    The anchor entries are the normal form's free entries for
    (X1, X2, A), A clamped to [-pi/2, pi/2]:
    z1 = conj(g13), w1 = conj(g14), w_last = conj(g24).  Nullity of P3
    and P4 pins |z|^2 = -2 Re(g13) and |w|^2 = -2 Re(g24 conj(g14)),
    and the unit entry g34 = 1 demands <z, w> = R with
    R = 1 - z1 conj(w_last) - conj(w1).  For n = 2 the vectors z, w
    are scalars and the phase of w is rotated onto R, which is possible
    exactly on the F = 0 locus; for n >= 3 two coordinates of w absorb
    R and the leftover norm, which is possible exactly when F <= 0
    (Cauchy-Schwarz, as |R|^2 - |z|^2 |w|^2 = F / |X2|^2).  Any choice
    of solution lands in the same congruence class, so the canonical
    one below is as good as any.  Within membership's tolerance |R| may
    differ from |z||w| (n = 2) or exceed it (n >= 3); <z, w> then takes
    R's phase and modulus |z||w|, and the lifts realize (X1, X2', A)
    with |X2' - X2|^2 <= |F|.  When |z||w| <= tol(1) and
    |R|^2 <= tol(scale / |X2|^2 + 1), w is left real, and X2 moves by
    at most sqrt(tol(scale)) + 2 tol(1) |X2|.  |w|^2 is 2 Re(X1 e^{-iA}) / |X2|^2, which
    membership holds only to -2 tol(|X1|) / |X2|^2.  Where |w|^2 < -tol(max(|g14|, |g24|)^2),
    P4 would not be null: g24 is then read off the projection X1' = X1 - Re(X1 e^{-iA}) e^{iA}
    (|w|^2 = 0), at most tol(|X1|) from X1, plus |X1| times A's clamp.
    A |X2|^2 below the normal float range raises UnderflowError, and an
    anchor entry g14 or g24 outside the float range OverflowError or
    UnderflowError (``invariants._dictionary``).
    """
    from .hermitian import _unchecked  # the lift side, which only this function needs

    c, n = resolve(cfg), _dimension(n)
    if n < 2:
        raise InvalidParameter(f"reconstruction is defined for n >= 2, got {n}")
    scale = _membership(m, n, c)
    if scale is None:
        raise NotInModuliSpace(f"{m} is not realized by any quadruple in dimension {n}")

    _guard(m.x1, m.x2, m.cartan, c)  # cfg's guard, which may be stricter than m's own
    x2_sq = _x2_squared(abs(m.x2))
    a = min(max(m.cartan, -HALF_PI), HALF_PI)
    g13, g14, g24 = _dictionary(m.x1, m.x2, a)
    d123, d124 = _face_dets(g13, g14, g24)[:2]
    zz, ww = -d123, -d124
    if ww < 0.0 and -ww > c.tol(max(abs(g14) * abs(g14), abs(g24) * abs(g24))):
        e = cmath.exp(1j * a)  # P4 would not be null: X1 drops Re(X1 e^{-iA}) < 0
        g24 = _dictionary(m.x1 - (m.x1 * e.conjugate()).real * e, m.x2, a)[2]
        ww = -_face_dets(g13, g14, g24)[1]
    z1, w1, w_last = g13.conjugate(), g14.conjugate(), g24.conjugate()
    ww_slack = 2.0 * c.tol(abs(m.x1)) / x2_sq + c.abs_tol
    if zz < 0.0 or ww < -ww_slack:
        raise InconsistentGram("negative squared norm; input is off the moduli space")
    z_norm = math.sqrt(zz)
    w_norm = math.sqrt(max(ww, 0.0))
    ww = w_norm * w_norm
    R = 1.0 - z1 * w_last.conjugate() - w1.conjugate()

    if z_norm * w_norm <= c.tol(1.0) and abs(R) ** 2 <= c.tol(scale / x2_sq + 1.0):
        w = (complex(w_norm),)  # |z||w| vanishes and so does R, within tolerance: w stays real
    elif n == 2:
        w = (w_norm * cmath.exp(-1j * cmath.phase(R)),)
    else:
        mag = min(abs(R) / z_norm, w_norm)
        w = (mag * cmath.exp(-1j * cmath.phase(R)) if abs(R) > 0.0 else 0j,
             complex(math.sqrt(ww - mag * mag)))

    zeros = (0j,) * n  # each lift as the n + 1 Python complex numbers HermitianVector stores
    return [_unchecked(n, v) for v in (zeros + (1 + 0j,), (1 + 0j,) + zeros,
                                       (z1, complex(z_norm), *zeros[2:], 1 + 0j),
                                       (w1, *w, *zeros[len(w) + 1:], w_last))]


class ClassificationReport(Frozen):
    """Pointwise classification of a moduli point.

    ``face_on_chain`` flags the faces (1,2,3), (1,2,4), (1,3,4),
    (2,3,4) whose vertices lie on a chain.  ``det_sign`` is "zero" or
    "negative" for realizable points; "positive" marks input no
    quadruple realizes.
    """

    _fields = ("residual", "face_on_chain", "is_c_plane", "is_r_plane", "in_real_slice",
               "in_singular_set", "det_sign")

    def __init__(self, residual: float, face_on_chain: tuple, is_c_plane: bool,
                 is_r_plane: bool, in_real_slice: bool, in_singular_set: bool, det_sign: str):
        _setattr(self, "residual", residual)
        _setattr(self, "face_on_chain", face_on_chain)
        _setattr(self, "is_c_plane", is_c_plane)
        _setattr(self, "is_r_plane", is_r_plane)
        _setattr(self, "in_real_slice", in_real_slice)
        _setattr(self, "in_singular_set", in_singular_set)
        _setattr(self, "det_sign", det_sign)

    def to_json(self) -> dict:
        out = dict(zip(self._fields, self._key(self)))
        out["face_on_chain"] = list(self.face_on_chain)
        return out


def classify(m: ModuliPoint, cfg: NumericConfig | None = None) -> ClassificationReport:
    """Evaluate the classification predicates at a moduli point.

    A quadruple is C-plane (all four points on one chain) iff
    A = +-pi/2 with X1, X2 real and X1 + X2 = 1; this locus is exactly
    the singular set of the moduli space.  It is R-plane (all four
    points on one R-circle) iff A = 0 with X1, X2 positive reals on
    the conic -2(X1+X2) - 2 X1 X2 + X1^2 + X2^2 + 1 = 0, which is
    F = 0 restricted to real coordinates.  A face lies on a chain iff
    its chain quantity vanishes: cos A, Re(X1 e^{-iA}), Re(X2 e^{iA})
    and Re(X1 conj(X2) e^{-iA}) for the faces in the order of
    ``FACES``, each held to tol of its own size.
    """
    tol = resolve(cfg).tol
    x1, x2, a = m.x1, m.x2, m.cartan
    r1, r2 = abs(x1), abs(x2)
    F, scale = _residual(x1, x2, a)  # finite |X1|^2 + |X2|^2, which bounds 2|X1 X2|
    on_shell = abs(F) <= tol(scale)
    e = cmath.exp(-1j * a)
    x1e = x1 * e
    unit = tol(1.0)
    faces = (abs(e.real) <= unit, abs(x1e.real) <= tol(r1),
             abs((x2 * e.conjugate()).real) <= tol(r2),
             abs((x1e * x2.conjugate()).real) <= tol(r1 * r2))
    reals = abs(x1.imag) <= tol(r1) and abs(x2.imag) <= tol(r2)
    is_c = (abs(abs(a) - HALF_PI) <= unit and reals
            and abs(x1.real + x2.real - 1.0) <= tol(r1 + r2))
    is_r = abs(a) <= unit and reals and on_shell and x1.real > 0.0 and x2.real > 0.0
    if on_shell:
        sign = "zero"
    elif F < 0.0:
        sign = "negative"
    else:
        sign = "positive"
    return ClassificationReport(F, faces, is_c, is_r, reals and on_shell, is_c, sign)


def positivity_check(m: ModuliPoint, cfg: NumericConfig | None = None) -> bool:
    """Re(X1 e^{-iA}) >= 0 on the F = 0 locus away from A = +-pi/2.

    Always true there; exposed as a regression check.
    """
    c = resolve(cfg)
    F, scale = _residual(m.x1, m.x2, m.cartan)
    if abs(F) > c.tol(scale):
        raise PreconditionViolated("point is not on the F = 0 locus")
    if abs(m.cartan) >= HALF_PI - c.tol(1.0):
        raise PreconditionViolated("positivity check requires |A| < pi/2")
    return _positivity(m) >= -c.tol(abs(m.x1))
