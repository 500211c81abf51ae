"""The points entry of the Gram kernel agrees bit for bit with the lifts entry.

``gram_of_points(points)`` lifts to plain coordinate lists; it must give
exactly ``gram_of(standard_lifts(points))``: the same rows to the last bit
(compared as packed doubles, so that -0.0 and 0.0 differ) and the same
error type and message.
"""

import math
import struct

import numpy as np
import pytest

from chquad import (
    BoundaryPoint,
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
from chquad.invariants import _cross_ratio, _moduli
from chquad.sampling import KINDS, random_quadruple


def packed(values) -> bytes:
    """The doubles of a sequence of complex numbers, as bytes."""
    values = list(values)
    return struct.pack(f"<{2 * len(values)}d", *(x for v in values for x in (v.real, v.imag)))


def gram_bits(G) -> tuple:
    return G.m, tuple(map(packed, G.rows)), G.cfg


SAMPLED = [(kind, n) for kind in KINDS for n in (2, 3)] + [("c_plane", 1)]


def draws(kind, n, count=60):
    rng = np.random.default_rng(100 + n)
    return [random_quadruple(n, kind, rng) for _ in range(count)]


@pytest.mark.parametrize("kind,n", SAMPLED)
def test_rows_equal_bitwise(kind, n):
    for q in draws(kind, n):
        for points in (q, q[:3], q[1:]):
            assert gram_bits(gram_of_points(points)) == gram_bits(gram_of(standard_lifts(points)))


@pytest.mark.parametrize("kind,n", SAMPLED)
def test_invariants_equal_bitwise(kind, n):
    for q in draws(kind, n, 10):
        g = gram_of(standard_lifts(q)).rows
        m, ref = moduli_coordinates(q), _moduli(g, None)
        assert packed([m.x1, m.x2, m.cartan]) == packed([ref.x1, ref.x2, ref.cartan])
        t = cross_ratio_triple(q)
        assert packed([t.x1, t.x2, t.x3]) == packed([_cross_ratio(g, 0, 1, 2, 3),
                                                     _cross_ratio(g, 0, 2, 1, 3),
                                                     _cross_ratio(g, 1, 2, 0, 3)])
        assert packed([cross_ratio(*q)]) == packed([cross_ratio_from_lifts(*standard_lifts(q))])
        assert packed([cartan(*q[:3])]) == packed([cartan_from_lifts(*standard_lifts(q[:3]))])
        ng, ref_ng = normalized_gram_of_points(q), normalize(gram_of(standard_lifts(q)))
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


def error(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("points", [pytest.param(v, id=k) for k, v in BAD.items()])
def test_errors_match(points):
    assert error(gram_of_points, points) == error(lambda p: gram_of(standard_lifts(p)), points)
    if len(points) == 3:
        assert error(cartan, *points) == error(lambda *p: cartan_from_lifts(*standard_lifts(p)),
                                               *points)
    elif len(points) == 4:
        old = error(lambda p: gram_of(standard_lifts(p)), points)
        assert error(moduli_coordinates, points) == old
        assert error(cross_ratio_triple, points) == old
        assert error(normalized_gram_of_points, points) == old
        assert error(cross_ratio, *points) == \
            error(lambda *p: cross_ratio_from_lifts(*standard_lifts(p)), *points)
