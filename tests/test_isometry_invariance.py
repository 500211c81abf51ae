"""Moduli and cross-ratios are unchanged under Heisenberg translations, unitary
rotations of z and dilations, and so is the verdict that the points are distinct.

Each point is one of four base points, z_1 = 5, 5i, -5 or -5i and t = 0, moved
by multiples of 1/16 of at most 1.5 in every coordinate, so every pair is at
least 8 apart in |g_ij|, the squared Koranyi-Cygan distance: a dilation by
2^-15 stays above the default ``abs_tol``.  Translations and dilations are
chosen so that the image of a quadruple is exact in floating point: it is
the isometric image itself, not a rounding of it.  Only rotations round
their inputs.
"""

import cmath
import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from chquad import (BoundaryPoint, CoincidentPoints, NumericConfig, ZeroCrossRatio,
                    cross_ratio_triple, moduli_coordinates)

FINE = NumericConfig(0.0, 1e-9)
BASES = (5.0, 5.0j, -5.0, -5.0j)
SHIFTS = st.integers(-24, 24).map(lambda k: k / 16.0)


def near(base, n):
    """A finite point within 1.5 of (base, 0, ..., 0; t = 0) in every coordinate."""
    z = st.lists(st.builds(complex, SHIFTS, SHIFTS), min_size=n - 1, max_size=n - 1)
    return st.builds(lambda dz, t: BoundaryPoint.finite([base + dz[0], *dz[1:]], t), z, SHIFTS)


@st.composite
def quadruples(draw, n):
    points = [draw(near(base, n)) for base in BASES]
    k = draw(st.integers(-1, 3))  # the point sent to infinity, if any
    if k >= 0:
        points[k] = BoundaryPoint.infinity()
    return tuple(points)


def invariants(points, cfg=None):
    """(moduli, triple) of a quadruple; assume fails where X1 or X2 vanishes."""
    try:
        return moduli_coordinates(points, cfg), cross_ratio_triple(points, cfg)
    except ZeroCrossRatio:
        assume(False)


def unchanged(before, after, cfg=None):
    (m, x), (m2, x2) = before, after
    assert m.isclose(m2, cfg) and x.isclose(x2, cfg), (before, after)


def image(points, z_map, t_map):
    return tuple(p if p.at_infinity else BoundaryPoint.finite(z_map(p.z), t_map(p.z, p.t))
                 for p in points)


@given(n=st.sampled_from((2, 3)), data=st.data())
def test_heisenberg_translations(n, data):
    points = data.draw(quadruples(n))
    before = invariants(points)
    # a: parts of at most 4 bits times 2^e, so |a| <= 11 sqrt(2) 2^16 ~ 1e6 for n = 2
    e = data.draw(st.integers(-4, 16))
    a = [complex(*data.draw(st.tuples(st.integers(-11, 11), st.integers(-11, 11)))) * 2.0 ** e
         for _ in range(n - 1)]
    s = data.draw(st.integers(-1024, 1024)) * 2.0 ** e
    im = lambda z: sum((u * b.conjugate()).imag for u, b in zip(z, a))  # noqa: E731
    moved = image(points, lambda z: [u + b for u, b in zip(z, a)],
                  lambda z, t: t + s - 2.0 * im(z))
    unchanged(before, (moduli_coordinates(moved), cross_ratio_triple(moved)))


@given(points=quadruples(3), angles=st.tuples(*[st.floats(0.0, 2.0 * math.pi)] * 4))
def test_unitary_rotations(points, angles):
    before = invariants(points)
    theta, alpha, beta, phi = angles
    a = cmath.exp(1j * alpha) * math.cos(theta)
    b = cmath.exp(1j * beta) * math.sin(theta)
    u = cmath.exp(1j * phi)  # U = e^{i phi} [[a, -conj b], [b, conj a]] is unitary
    moved = image(points, lambda z: [u * (a * z[0] - b.conjugate() * z[1]),
                                     u * (b * z[0] + a.conjugate() * z[1])],
                  lambda z, t: t)
    unchanged(before, (moduli_coordinates(moved), cross_ratio_triple(moved)))


def dilated(points, k):
    lam = math.ldexp(1.0, k)
    return image(points, lambda z: [lam * v for v in z], lambda z, t: lam * lam * t)


@given(n=st.sampled_from((2, 3)), data=st.data())
def test_dilations_without_an_absolute_floor(n, data):
    points = data.draw(quadruples(n))
    before = invariants(points, FINE)
    moved = dilated(points, data.draw(st.integers(-250, 250)))
    unchanged(before, (moduli_coordinates(moved, FINE), cross_ratio_triple(moved, FINE)), FINE)


@given(n=st.sampled_from((2, 3)), data=st.data())
def test_dilations_under_the_default_config(n, data):
    points = data.draw(quadruples(n))
    before = invariants(points)
    moved = dilated(points, data.draw(st.integers(-15, 20)))
    unchanged(before, (moduli_coordinates(moved), cross_ratio_triple(moved)))


QUAD = (BoundaryPoint.finite([0j], 0.0), BoundaryPoint.infinity(), BoundaryPoint.finite([1], 0.3),
        BoundaryPoint.finite([0.5j], -0.7))


@pytest.mark.parametrize("a", [1e3, 1e4, 1e6])
def test_a_translated_quadruple_keeps_its_moduli(a):
    # the rule |g| <= tol(s_i s_j) of the lifts' scales called points 1 and 3 coincident here
    moved = image(QUAD, lambda z: [z[0] + a], lambda z, t: t - 2.0 * (z[0] * a).imag)
    assert moduli_coordinates(moved).isclose(moduli_coordinates(QUAD))


@pytest.mark.parametrize("a", [0.0, 1e6])
def test_coincident_points_stay_coincident_when_translated(a):
    t = QUAD[3].t
    for fourth in (QUAD[0], BoundaryPoint.finite([0j], math.nextafter(0.0, 1.0)),
                   BoundaryPoint.finite(QUAD[3].z, math.nextafter(t, 0.0))):
        quad = (QUAD[0], QUAD[1], QUAD[3], fourth)
        moved = image(quad, lambda z: [z[0] + a], lambda z, t: t - 2.0 * (z[0] * a).imag)
        with pytest.raises(CoincidentPoints):
            moduli_coordinates(moved)
