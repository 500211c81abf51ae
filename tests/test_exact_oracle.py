"""The points path against an exact oracle.

For standard lifts every Gram entry, cross-ratio and Cartan triple
product is rational in the float inputs, so conftest's
``exact_invariants`` gives X1, X2 and X3 exactly with
``fractions.Fraction``, and A = arg(-T) of the exact triple product T
with mpmath.  The oracle takes the Hermitian form of the lifts, not the
closed form the package uses, so it also checks that closed form.

Errors are counted in ulp: of |X| for a cross-ratio, and of 1.0 for the
angle A, whose rounding error is absolute.  Each value's error is held
to 2(1 + kappa), where kappa sums s_ij / |g_ij| over the Gram entries
the value reads and s_ij = |dz|^2 + |dt| + 2|dz||z_j| bounds the terms of
entry (i, j) (0 for a pair with infinity): the rounding error of an
entry is a few ulp of s_ij, so kappa is the value's condition number
with respect to those errors.  On every group of cases where the lifts
path (``gram_of(standard_lifts(...))``, the arithmetic the points path
used before it had a closed form) accepts the quadruples, the largest
error is at most that path's.
"""

import math

import numpy as np
import pytest

from chquad import BoundaryPoint, CoincidentPoints, NumericConfig, gram_of
from chquad.gram import gram_of_points
from chquad.hermitian import standard_lifts
from chquad.sampling import KINDS, random_quadruple

FINE = NumericConfig(0.0, 1e-9)  # no absolute floor: the rule scales with the quadruple
ORDERS = ((0, 1, 2, 3), (0, 2, 1, 3), (1, 2, 0, 3))  # X1, X2, X3
FACE = ((0, 1), (1, 2), (2, 0))  # the entries of A's triple product


def pair_scale(p, q) -> float:
    if p.at_infinity or q.at_infinity:
        return 0.0
    dz = math.sqrt(sum(abs(u - v) ** 2 for u, v in zip(p.z, q.z)))
    return dz * dz + abs(p.t - q.t) + 2.0 * dz * math.sqrt(sum(abs(v) ** 2 for v in q.z))


def kappas(points, rows):
    def c(i, j):
        i, j = min(i, j), max(i, j)
        return pair_scale(points[i], points[j]) / abs(rows[i][j])

    return ([c(k, i) + c(l, j) + c(l, i) + c(k, j) for i, j, k, l in ORDERS]
            + [sum(c(i, j) for i, j in FACE)])


def check(ulps, quadruples, cfg=None) -> tuple:
    """Bound each value's error (``ulps``: the ``invariant_ulps`` fixture), and return the
    largest errors of the points path and, where it accepts the quadruple, of the lifts path."""
    new, old = [0.0], [0.0]
    for q in quadruples:
        rows = gram_of_points(q, cfg).rows
        errs = ulps(q, rows, cfg)
        for err, kappa in zip(errs, kappas(q, rows)):
            assert err <= 2.0 * (1.0 + kappa), (q, errs)
        try:
            lift_rows = gram_of(standard_lifts(q), cfg).rows
        except CoincidentPoints:  # the lifts path's rule grows with the lifts' scales
            continue
        new.append(max(errs))
        old.append(max(ulps(q, lift_rows, cfg)))
    return max(new), max(old)


def draws(kind, n, count, seed):
    rng = np.random.default_rng(seed)
    return [random_quadruple(n, kind, rng) for _ in range(count)]


def moved(points, z_map, t_map):
    return tuple(p if p.at_infinity else BoundaryPoint.finite(z_map(p.z), t_map(p.z, p.t))
                 for p in points)


def translated(points, a, s):
    """(z, t) -> (z + a, t + s - 2 Im<z, a>): a Heisenberg translation."""
    def im_za(z):
        return sum((u * b.conjugate()).imag for u, b in zip(z, a))
    return moved(points, lambda z: [u + b for u, b in zip(z, a)],
                 lambda z, t: t + s - 2.0 * im_za(z))


def dilated(points, lam):
    return moved(points, lambda z: [lam * v for v in z], lambda z, t: lam * lam * t)


def rotated(points, U):
    return moved(points, lambda z: (U @ np.array(z)).tolist(), lambda z, t: t)


def unitary(rng, m):
    """A random m x m unitary matrix (QR of a complex Gaussian matrix, phases fixed)."""
    q, r = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


CASES = [(kind, n) for kind in KINDS for n in (2, 3)]


@pytest.mark.parametrize("kind,n", CASES)
def test_sampled_quadruples(invariant_ulps, kind, n):
    new, old = check(invariant_ulps, draws(kind, n, 50, 7))
    assert new <= old
    assert new <= 8.0


@pytest.mark.parametrize("kind,n", CASES)
def test_wide_magnitudes(invariant_ulps, kind, n):
    quads = draws(kind, n, 8, 8)
    for lam in (1e-70, 3e-20, 7e20, 1e70):  # not powers of two: the dilated inputs round
        new, old = check(invariant_ulps, [dilated(q, lam) for q in quads], FINE)
        assert new <= old
    # one point far from the other three: not an isometric image
    far = [q[:3] + dilated(q[3:], 1e6) for q in quads]
    new, old = check(invariant_ulps, far, FINE)
    assert new <= old


@pytest.mark.parametrize("kind,n", CASES)
def test_isometric_copies(invariant_ulps, kind, n):
    rng = np.random.default_rng(9)
    quads = draws(kind, n, 10, 9)
    for mag in (1e2, 1e4, 1e6):
        copies = []
        for q in quads:
            a = mag * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)) / 2.0
            copies.append(translated(q, a.tolist(), float(rng.standard_normal()) * mag))
        new, old = check(invariant_ulps, copies)
        assert new <= old
    new, old = check(invariant_ulps, [rotated(q, unitary(rng, n - 1)) for q in quads])
    assert new <= old
    scaled = [dilated(q, 10.0 ** rng.uniform(-3.0, 3.0)) for q in quads]
    new, old = check(invariant_ulps, scaled, FINE)
    assert new <= old
