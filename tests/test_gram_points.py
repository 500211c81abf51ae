"""The closed-form points path against the lifts path.

``gram_of_points(points)`` computes each entry of the standard lifts' Gram
matrix in closed form.  Its rows must equal, bit for bit (compared as packed
doubles, so that -0.0 and 0.0 differ), a plain evaluation of that form, and
agree with ``gram_of(standard_lifts(points))`` up to the rounding of each
path.  Every invariant of a quadruple is read off its ``gram_of_points``
rows, bit for bit.  Both paths raise the same error type and message, except
on the inputs listed in ``CHANGED``.
"""

import math
import struct

import numpy as np
import pytest

from chquad import (
    BoundaryPoint,
    InvalidParameter,
    cartan,
    cartan_from_lifts,
    cross_ratio,
    cross_ratio_from_lifts,
    cross_ratio_triple,
    gram_of,
    moduli_coordinates,
    normalize,
    normalized_gram_of_points,
)
from chquad.gram import gram_of_points
from chquad.hermitian import standard_lifts
from chquad.invariants import _cartan, _cross_ratio, _moduli
from chquad.numeric import DEFAULT
from chquad.sampling import KINDS, random_quadruple

EPS = 2.0 ** -52


def packed(values) -> bytes:
    """The doubles of a sequence of complex numbers, as bytes."""
    values = list(values)
    return struct.pack(f"<{2 * len(values)}d", *(x for v in values for x in (v.real, v.imag)))


def gram_bits(G) -> tuple:
    return G.m, tuple(map(packed, G.rows)), G.cfg


def closed_form(points) -> list:
    """Rows of g_ij = -|z_i - z_j|^2 + i(t_i - t_j + 2 Im<z_i - z_j, z_j>), or 1 with infinity."""
    m = len(points)
    rows = [[0j] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            p, q = points[i], points[j]
            if p.at_infinity or q.at_infinity:
                g = 1 + 0j
            else:
                dz2 = im = 0.0
                for u, v in zip(p.z, q.z):
                    d = u - v
                    dz2 += d.real * d.real + d.imag * d.imag
                    im += d.imag * v.real - d.real * v.imag
                g = complex(0.0 - dz2, (p.t - q.t) + 2.0 * im)
            rows[i][j], rows[j][i] = g, g.conjugate()
    return rows


def entry_scale(p, q) -> float:
    """|dz|^2 + |dt| + 2|dz||z_j|, the size of the closed form's terms (0 with infinity)."""
    if p.at_infinity or q.at_infinity:
        return 0.0
    dz = math.sqrt(sum(abs(u - v) ** 2 for u, v in zip(p.z, q.z)))
    return dz * dz + abs(p.t - q.t) + 2.0 * dz * math.sqrt(sum(abs(v) ** 2 for v in q.z))


SAMPLED = [(kind, n) for kind in KINDS for n in (2, 3)] + [("c_plane", 1)]


def draws(kind, n, count=60):
    rng = np.random.default_rng(100 + n)
    return [random_quadruple(n, kind, rng) for _ in range(count)]


@pytest.mark.parametrize("kind,n", SAMPLED)
def test_rows_equal_bitwise(kind, n):
    for q in draws(kind, n):
        for points in (q, q[:3], q[1:]):
            G = gram_of_points(points)
            m = len(points)
            assert gram_bits(G) == (m, tuple(map(packed, closed_form(points))), DEFAULT)
            lifts = standard_lifts(points)
            old = gram_of(lifts).rows
            for i in range(m):
                for j in range(i + 1, m):
                    # each path within a few ulp of its terms: the entry's, or the lifts' scales
                    bound = 8.0 * EPS * (entry_scale(points[i], points[j])
                                         + lifts[i].scale() * lifts[j].scale())
                    assert abs(G.rows[i][j] - old[i][j]) <= bound


@pytest.mark.parametrize("kind,n", SAMPLED)
def test_invariants_equal_bitwise(kind, n):
    for q in draws(kind, n, 10):
        g = gram_of_points(q).rows
        m, ref = moduli_coordinates(q), _moduli(g, None)
        assert packed([m.x1, m.x2, m.cartan]) == packed([ref.x1, ref.x2, ref.cartan])
        assert m.isclose(_moduli(gram_of(standard_lifts(q)).rows, None))
        t = cross_ratio_triple(q)
        assert packed([t.x1, t.x2, t.x3]) == packed([_cross_ratio(g, 0, 1, 2, 3),
                                                     _cross_ratio(g, 0, 2, 1, 3),
                                                     _cross_ratio(g, 1, 2, 0, 3)])
        assert packed([cross_ratio(*q)]) == packed([t.x1])
        assert abs(cross_ratio(*q) - cross_ratio_from_lifts(*standard_lifts(q))) \
            <= 1e-9 * max(1.0, abs(t.x1))
        a = cartan(*q[:3])
        assert packed([a]) == packed([_cartan(gram_of_points(q[:3]).rows, 0, 1, 2, None)])
        assert abs(a - cartan_from_lifts(*standard_lifts(q[:3]))) <= 1e-9
        ng, ref_ng = normalized_gram_of_points(q), normalize(gram_of_points(q))
        assert packed([ng.g13, ng.g14, ng.g24]) == packed([ref_ng.g13, ref_ng.g14, ref_ng.g24])


INF = BoundaryPoint.infinity()


def finite(*z, t=0.0):
    return BoundaryPoint.finite(z, t)


BAD = {
    "repeated point": (finite(1j, t=0.5), INF, finite(2.0), finite(1j, t=0.5)),
    "two infinities": (finite(0.0), INF, finite(1.0), INF),
    "four infinities": (INF, INF, INF, INF),
    "z-length mismatch": (finite(0.0), INF, finite(1.0, 2.0), finite(3.0)),
    "z = 1e200": (finite(0.0), INF, finite(1e200), finite(1.0)),
    "NaN t": (finite(0.0), INF, finite(1.0, t=math.nan), finite(2.0)),
    "|lift| overflows": (finite(0.0), INF, finite(1.2e154, t=1.5e308), finite(1.0)),
    "3-point cartan": (finite(1.0), INF, finite(1.0)),
    "five points": (finite(0.0), INF, finite(1.0), finite(2.0), finite(3.0)),
}


# where the points path's error differs from the lifts path's: the lifts path
# reports the NaN t of a lift as not null and names the overflow of |z|^2 or of a
# product, the points path the pair whose entry leaves the float range; each path's
# count check names what it counts
CHANGED = {
    "z = 1e200": (OverflowError, "<P1,P3> overflows for coordinates of magnitude 1e+200"),
    "NaN t": (InvalidParameter, "Gram matrix entries must be finite"),
    "|lift| overflows": (OverflowError,
                         "<P1,P3> overflows for coordinates of magnitude 1.5e+308"),
    "five points": (InvalidParameter, "expected 3 or 4 points, got 5"),
}


def error(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("name", list(BAD))
def test_errors_match(name):
    points = BAD[name]
    old = error(lambda p: gram_of(standard_lifts(p)), points)
    want = CHANGED.get(name, old)
    assert (name in CHANGED) == (want != old)
    assert error(gram_of_points, points) == want
    if len(points) == 3:
        assert error(cartan, *points) == error(lambda *p: cartan_from_lifts(*standard_lifts(p)),
                                               *points)
    elif len(points) == 4:
        assert error(moduli_coordinates, points) == want
        assert error(cross_ratio_triple, points) == want
        assert error(normalized_gram_of_points, points) == want
        assert error(cross_ratio, *points) == want
