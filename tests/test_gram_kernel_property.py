"""The closed-form Gram kernel against a plain evaluation of its formula, on edge inputs.

Triples and quadruples in dimensions n = 1..3, with points at infinity mixed
in, coordinates spread over binary exponents -300..300, and near-coincident
pairs: one point a copy of another with its t or one part of its z moved by a
few ulp.  Whenever ``gram_of_points`` returns, its rows equal
``closed_form(points)`` bit for bit.  Whenever it calls points i and j
coincident, the closed-form entry of that pair lies within the bound
tol(|dz|^2 + |dt| + 2|dz||z_j|) taken here, or both points are at infinity.
"""

import math
import re

from hypothesis import given, settings
from hypothesis import strategies as st
from test_gram_points import closed_form, entry_scale, packed

from chquad import BoundaryPoint, CoincidentPoints, NumericConfig
from chquad.gram import gram_of_points

CONFIGS = (NumericConfig(), NumericConfig(0.0, 1e-9))
NONZERO = st.builds(lambda sign, mantissa, e: sign * math.ldexp(mantissa, e),
                    st.sampled_from((-1.0, 1.0)), st.floats(1.0, 2.0, exclude_max=True),
                    st.integers(-300, 300))
COORDS = st.tuples(st.integers(0, 7), NONZERO).map(lambda d: d[1] if d[0] else 0.0)


def point(n):
    finite = st.builds(lambda parts, t: BoundaryPoint.finite(
        [complex(parts[k], parts[k + 1]) for k in range(0, len(parts), 2)], t),
        st.lists(COORDS, min_size=2 * (n - 1), max_size=2 * (n - 1)), COORDS)
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
def inputs(draw):
    n, m = draw(st.integers(1, 3)), draw(st.sampled_from((3, 4)))
    points = draw(st.lists(point(n), min_size=m, max_size=m))
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
