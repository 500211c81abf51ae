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
boundary of a complex hyperbolic 2-subspace.

``reconstruct`` inverts the coordinates explicitly: it produces four
null lifts whose Gram normal form realizes the given (X1, X2, A).
"""

from __future__ import annotations

import cmath
import math

from .errors import InconsistentGram, InvalidParameter, NotInModuliSpace, PreconditionViolated
from .invariants import (HALF_PI, ModuliPoint, _defining_function, _face_det, _moduli,
                         _quadruple_gram, face_dets_from_moduli, gram_from_moduli)
from .numeric import Frozen, NumericConfig, _setattr, resolve, small


def moduli_coordinates(points, cfg: NumericConfig | None = None) -> ModuliPoint:
    """Map a quadruple of boundary points to its moduli coordinates."""
    return _moduli(_quadruple_gram(points, cfg), cfg)


def moduli_residual(m: ModuliPoint) -> float:
    """Value of the defining function F at (X1, X2, A).

    Vanishes for every quadruple in dimension 2; is <= 0 in general.
    Equals |X2|^2 times the Gram normal-form determinant.
    """
    return _defining_function(m.x1, m.x2, m.cartan)


def residual_scale(m: ModuliPoint) -> float:
    """Natural magnitude of F at m, used to scale tolerance checks."""
    return 1.0 + abs(m.x1) ** 2 + abs(m.x2) ** 2


def real_slice_residual(x1: float, x2: float, a: float) -> float:
    """F restricted to real X1, X2: the conic family of the real slice."""
    return _defining_function(x1, x2, a)


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
    c = resolve(cfg)
    if n < 2:
        raise InvalidParameter(f"moduli membership is defined for n >= 2, got {n}")
    if abs(m.cartan) > HALF_PI + c.tol(1.0):
        return False
    if _positivity(m) < -c.tol(abs(m.x1)):
        return False
    F = moduli_residual(m)
    if n == 2:
        return abs(F) <= c.tol(residual_scale(m))
    return F <= c.tol(residual_scale(m))


def reconstruct(m: ModuliPoint, n: int, cfg: NumericConfig | None = None):
    """Four null lifts in C^{n,1} realizing the moduli point m.

    The lifts are P1 = (0,...,0,1), P2 = (1,0,...,0),
    P3 = (z1, z, 1) and P4 = (w1, w, w_last) with z, w in C^{n-1}.
    The anchor entries come from the Gram normal form of m:
    z1 = conj(g13), w1 = conj(g14), w_last = conj(g24).  Nullity of P3
    and P4 pins |z|^2 = -2 Re(g13) and |w|^2 = -2 Re(g24 conj(g14)),
    and the unit entry g34 = 1 demands <z, w> = R with
    R = 1 - z1 conj(w_last) - conj(w1).  For n = 2 the vectors z, w
    are scalars and the phase of w is rotated onto R, which is possible
    exactly on the F = 0 locus; for n >= 3 two coordinates of w absorb
    R and the leftover norm, which is possible exactly when F <= 0
    (Cauchy-Schwarz).  Any choice of solution lands in the same
    congruence class, so the canonical one below is as good as any.
    """
    from .hermitian import HermitianVector  # the lift side, which only this function needs

    c = resolve(cfg)
    if n < 2:
        raise InvalidParameter(f"reconstruction is defined for n >= 2, got {n}")
    if not in_moduli_space(m, n, c):
        raise NotInModuliSpace(f"{m} is not realized by any quadruple in dimension {n}")

    a = min(max(m.cartan, -HALF_PI), HALF_PI)
    g = gram_from_moduli(ModuliPoint(m.x1, m.x2, a, c)).rows
    z1, w1, w_last = g[2][0], g[3][0], g[3][1]  # conj(g13), conj(g14), conj(g24)

    zz = -_face_det(g, (1, 2, 3))
    ww = -_face_det(g, (1, 2, 4))
    ww_slack = 2.0 * c.tol(abs(m.x1)) / abs(m.x2) ** 2 + c.abs_tol
    if zz < 0.0 or ww < -ww_slack:
        raise InconsistentGram("negative squared norm; input is off the moduli space")
    z_norm = math.sqrt(zz)
    w_norm = math.sqrt(max(ww, 0.0))
    ww = w_norm * w_norm
    R = 1.0 - z1 * w_last.conjugate() - w1.conjugate()
    det_slack = c.tol(residual_scale(m) / abs(m.x2) ** 2 + 1.0)

    zvec = [0j] * (n - 1)
    wvec = [0j] * (n - 1)
    zvec[0] = z_norm
    if z_norm * w_norm <= c.tol(1.0):
        # a vanishing coordinate forces <z, w> = 0, so R itself must vanish
        if abs(R) ** 2 > det_slack:
            raise InconsistentGram("unit Gram entry unreachable with a zero coordinate")
        wvec[0] = w_norm
    elif n == 2:
        wvec[0] = w_norm * cmath.exp(-1j * cmath.phase(R))
    else:
        mag = min(abs(R) / z_norm, w_norm)
        if abs(R) > 0.0:
            wvec[0] = mag * cmath.exp(-1j * cmath.phase(R))
        wvec[1] = math.sqrt(ww - mag * mag)

    P1 = [0j] * n + [1.0]
    P2 = [1.0] + [0j] * n
    P3 = [z1, *zvec, 1.0]
    P4 = [w1, *wvec, w_last]
    return [HermitianVector(n, v) for v in (P1, P2, P3, P4)]


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
        return {
            "residual": self.residual,
            "face_on_chain": list(self.face_on_chain),
            "is_c_plane": self.is_c_plane,
            "is_r_plane": self.is_r_plane,
            "in_real_slice": self.in_real_slice,
            "in_singular_set": self.in_singular_set,
            "det_sign": self.det_sign,
        }


def classify(m: ModuliPoint, cfg: NumericConfig | None = None) -> ClassificationReport:
    """Evaluate the classification predicates at a moduli point.

    A quadruple is C-plane (all four points on one chain) iff
    A = +-pi/2 with X1, X2 real and X1 + X2 = 1; this locus is exactly
    the singular set of the moduli space.  It is R-plane (all four
    points on one R-circle) iff A = 0 with X1, X2 positive reals on
    the conic -2(X1+X2) - 2 X1 X2 + X1^2 + X2^2 + 1 = 0, which is
    F = 0 restricted to real coordinates.
    """
    c = resolve(cfg)
    F = moduli_residual(m)
    on_shell = abs(F) <= c.tol(residual_scale(m))
    x1, x2 = m.x1, m.x2
    # face determinant = -2 q (faces 2-4: -2 q / |X2|^2) for a q held to tol(scale)
    weights = (2.0,) + (2.0 / abs(x2) ** 2,) * 3
    faces = tuple(abs(d) <= w * c.tol(scale) for d, w, scale in zip(
        face_dets_from_moduli(m), weights, (1.0, abs(x1), abs(x2), abs(x1 * x2))))
    reals = small(x1.imag, abs(x1), c) and small(x2.imag, abs(x2), c)
    at_half_pi = abs(abs(m.cartan) - HALF_PI) <= c.tol(1.0)
    sum_one = abs(x1.real + x2.real - 1.0) <= c.tol(abs(x1) + abs(x2))
    is_c = at_half_pi and reals and sum_one
    is_r = (abs(m.cartan) <= c.tol(1.0) and reals and on_shell
            and x1.real > 0.0 and x2.real > 0.0)
    if on_shell:
        sign = "zero"
    elif F < 0.0:
        sign = "negative"
    else:
        sign = "positive"
    return ClassificationReport(
        residual=F,
        face_on_chain=faces,
        is_c_plane=is_c,
        is_r_plane=is_r,
        in_real_slice=reals and on_shell,
        in_singular_set=is_c,
        det_sign=sign,
    )


def positivity_check(m: ModuliPoint, cfg: NumericConfig | None = None) -> bool:
    """Re(X1 e^{-iA}) >= 0 on the F = 0 locus away from A = +-pi/2.

    Always true there; exposed as a regression check.
    """
    c = resolve(cfg)
    if abs(moduli_residual(m)) > c.tol(residual_scale(m)):
        raise PreconditionViolated("point is not on the F = 0 locus")
    if abs(m.cartan) >= HALF_PI - c.tol(1.0):
        raise PreconditionViolated("positivity check requires |A| < pi/2")
    return _positivity(m) >= -c.tol(abs(m.x1))
