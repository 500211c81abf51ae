"""The closed-form Gram kernel against a plain evaluation of its formula, on edge inputs.

Triples and quadruples in dimensions n = 1..3, with points at infinity mixed
in, coordinates spread over binary exponents -300..300, and near-coincident
pairs: one point a copy of another with its t or one part of its z moved by a
few ulp.  Whenever ``gram_of_points`` returns, its rows equal
``closed_form(points)`` bit for bit.  Whenever it calls points i and j
coincident, the closed-form entry of that pair lies within the bound
tol(|dz|^2 + |dt| + 2|dz||z_j|) taken here, or both points are at infinity.
Both kernels, of points and of lifts, return through one row assembly: each
diagonal entry packs as 0j's doubles and each entry below the diagonal as the
conjugate of the one above it.
"""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_gram_points import closed_form, entry_scale, packed

from chquad import (BoundaryPoint, CoincidentPoints, GeometryError, NumericConfig, gram_of,
                    infer_dimension, moduli_coordinates, reconstruct)
from chquad.gram import gram_of_points
from chquad.hermitian import standard_lifts

CONFIGS = (NumericConfig(), NumericConfig(0.0, 1e-9))
NONZERO = st.builds(lambda sign, mantissa, e: sign * math.ldexp(mantissa, e),
                    st.sampled_from((-1.0, 1.0)), st.floats(1.0, 2.0, exclude_max=True),
                    st.integers(-300, 300))
COORDS = st.tuples(st.integers(0, 7), NONZERO).map(lambda d: d[1] if d[0] else 0.0)
MODERATE = st.floats(-8.0, 8.0)  # coordinates whose standard lifts the lift kernel takes


def point(n, coords=COORDS):
    finite = st.builds(lambda parts, t: BoundaryPoint.finite(
        [complex(parts[k], parts[k + 1]) for k in range(0, len(parts), 2)], t),
        st.lists(coords, min_size=2 * (n - 1), max_size=2 * (n - 1)), coords)
    return st.tuples(st.integers(0, 7), finite).map(
        lambda d: d[1] if d[0] else BoundaryPoint.infinity())


def moved(x: float, ulps: int) -> float:
    """x moved by ulps units in the last place (toward +inf when positive)."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def near_copy(p: BoundaryPoint, where: int, ulps: int) -> BoundaryPoint:
    """p with its t (where = -1) or the where-th float of z moved by a few ulp."""
    if p.at_infinity:
        return p
    parts = [x for v in p.z for x in (v.real, v.imag)]
    t = p.t
    if where < 0 or not parts:
        t = moved(t, ulps)
    else:
        parts[where % len(parts)] = moved(parts[where % len(parts)], ulps)
    return BoundaryPoint.finite([complex(parts[k], parts[k + 1])
                                 for k in range(0, len(parts), 2)], t)


@st.composite
def inputs(draw, coords=COORDS):
    n, m = draw(st.integers(1, 3)), draw(st.sampled_from((3, 4)))
    points = draw(st.lists(point(n, coords), min_size=m, max_size=m))
    if draw(st.booleans()):  # a near-coincident pair
        i, j = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        points[j] = near_copy(points[i], draw(st.integers(-1, 5)), draw(st.integers(-4, 4)))
    return tuple(points), draw(st.sampled_from(CONFIGS))


@settings(max_examples=400)
@given(inputs())
def test_kernel_matches_the_closed_form(case):
    points, cfg = case
    try:
        G = gram_of_points(points, cfg)
    except CoincidentPoints as e:
        if str(e) == "all points are at infinity":
            assert all(p.at_infinity for p in points)
            return
        i, j = (int(k) - 1 for k in re.fullmatch(r"points (\d) and (\d) coincide", str(e)).groups())
        p, q = points[i], points[j]
        if p.at_infinity or q.at_infinity:
            assert p.at_infinity and q.at_infinity
            return
        assert abs(closed_form(points)[i][j]) <= cfg.tol(entry_scale(p, q)), (points, i, j)
        return
    assert tuple(map(packed, G.rows)) == tuple(map(packed, closed_form(points)))


def assert_hermitian_rows(rows, m):
    """m rows of m entries, each diagonal entry 0j with +0.0 parts, and each entry below the
    diagonal, as packed doubles, the conjugate of the one above it."""
    assert len(rows) == m and all(len(row) == m for row in rows)
    for i in range(m):
        assert packed([rows[i][i]]) == packed([0j])
        for j in range(i + 1, m):
            assert packed([rows[j][i]]) == packed([rows[i][j].conjugate()])


def finite(n, *parts):
    """A finite point of dimension n from its z parts (re, im, re, im, ...) and t, last."""
    z = [complex(parts[k], parts[k + 1]) for k in range(0, 2 * (n - 1), 2)]
    return BoundaryPoint.finite(z, parts[-1])


INF = BoundaryPoint.infinity()
ROW_CASES = {
    "n=3": (finite(3, 0.3, -0.7, -1.1, 0.2, 0.4), finite(3, -0.5, 0.1, 0.8, 0.9, -1.3),
            finite(3, 1.2, 0.6, 0.05, -0.4, 2.2), finite(3, -0.0, 0.0, 0.0, -0.0, -0.0)),
    "n=2 infinity first": (INF, finite(2, 0.4, -0.9, 0.7), finite(2, -1.3, 0.2, -0.4),
                           finite(2, 0.6, 1.1, 1.9)),
    "n=2 infinity last": (finite(2, 0.4, -0.9, 0.7), finite(2, 0.0, -0.0, -0.0),
                          finite(2, 0.6, 1.1, 1.9), INF),
    "n=1": (finite(1, 0.5), finite(1, -2.0), INF, finite(1, 3.25)),
    "signed zeros": (finite(2, 1.0, -0.0, 0.0), finite(2, -0.0, 1.0, 0.0),
                     finite(2, -1.0, 0.0, -0.0), finite(2, 0.0, -1.0, 0.0)),
}


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("points", [pytest.param(v, id=k) for k, v in ROW_CASES.items()])
def test_both_kernels_assemble_hermitian_rows(points, m):
    points = points[:m]
    n = infer_dimension(points)
    lifts = standard_lifts(points)
    for rows in (gram_of_points(points).rows, gram_of(lifts).rows,
                 gram_of([P.scaled(-0.3 + 1.7j) for P in lifts]).rows):
        assert_hermitian_rows(rows, m)
    if m == 4 and n >= 2:  # reconstruct's lifts, the second of which lifts infinity
        assert_hermitian_rows(gram_of(reconstruct(moduli_coordinates(points), n)).rows, 4)


@settings(max_examples=300)
@given(st.one_of(inputs(), inputs(MODERATE)))
def test_each_kernel_run_that_returns_assembles_hermitian_rows(case):
    points, cfg = case
    for build in (lambda: gram_of_points(points, cfg),
                  lambda: gram_of(standard_lifts(points), cfg)):
        try:
            G = build()
        except (ArithmeticError, GeometryError):
            continue
        assert_hermitian_rows(G.rows, len(points))
