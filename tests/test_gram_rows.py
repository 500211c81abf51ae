"""Gram matrices on Python rows: golden values, and GramMatrix's checks.

The values in GOLDEN were recorded while ``gram_of`` still stored its
products in a numpy array and every reader called ``entries.tolist()``.
The products and the readers do the same arithmetic on
``GramMatrix.rows``, so every value must match bit for bit.  The moduli
and triples of points were recorded again when ``gram_of_points`` took
its closed form, and each of X1, X2, X3 and A lies within 4 ulp of the
exact oracle.  The normal form is pinned through the moduli point
instead: it is the dictionary image of the moduli read off the rows, bit
for bit, and each entry lies within 4 ulp of that image computed with 50
digits.
"""

import dataclasses
import math

import numpy as np
import pytest

from chquad import (
    BoundaryPoint,
    CoincidentPoints,
    DimensionMismatch,
    GramMatrix,
    InvalidParameter,
    NotNull,
    NumericConfig,
    counterexample_pair,
    cross_ratio_triple,
    gram_from_moduli,
    gram_of,
    moduli_coordinates,
    normalize,
    standard_lift,
)
from chquad.gram import gram_of_points
from chquad.hermitian import HermitianVector
from chquad.gram import _moduli, cartan_from_lifts, cross_ratio_from_lifts
from chquad.varieties import certify_noninjectivity


LAMBDAS = (2.0 - 1.0j, 0.5j, -3.0 + 0.25j, 1e-3 + 1e3j)


def finite(z, t):
    return BoundaryPoint.finite(z, t)


def scaled(points, r):
    """The quadruple dilated by r (z by r, t by r^2)."""
    return tuple(p if p.at_infinity else finite([v * r for v in p.z], p.t * r * r) for p in points)


GENERIC2 = (finite([0.4 - 0.9j], 0.7), finite([-1.3 + 0.2j], -0.4),
            finite([0.6 + 1.1j], 1.9), finite([0.05 - 0.3j], -2.6))
GENERIC3 = (finite([0.3 - 0.7j, -1.1 + 0.2j], 0.4), finite([-0.5 + 0.1j, 0.8 + 0.9j], -1.3),
            BoundaryPoint.infinity(), finite([1.2 + 0.6j, 0.05 - 0.4j], 2.2))

# name -> (n, points, whether the standard lifts are rescaled by LAMBDAS)
CASES = {
    "witness t=2": (2, counterexample_pair(2.0)[0], False),
    "witness t=3": (2, counterexample_pair(3.0)[0], False),
    "mirror witness t=2": (2, counterexample_pair(2.0)[1], False),
    "witness t=2 rescaled": (2, counterexample_pair(2.0)[0], True),
    "generic CH^2": (2, GENERIC2, False),
    "generic CH^2 rescaled": (2, GENERIC2, True),
    "R-circle CH^2 through infinity": (2, (finite([-1.0], 0.0), finite([0.5], 0.0),
                                           BoundaryPoint.infinity(), finite([2.0], 0.0)), False),
    "chain CH^3": (3, tuple(finite([1.0 + 0j, 1j], t) for t in (-2.0, 0.5, 1.0, 3.5)), False),
    "R-circle CH^3": (3, tuple(finite([x, 0.0], 0.0) for x in (-1.5, -0.2, 0.7, 2.4)), False),
    "generic CH^3": (3, GENERIC3, False),
    "generic CH^3 rescaled": (3, GENERIC3, True),
    "generic CH^3 reordered": (3, tuple(GENERIC3[k] for k in (2, 0, 3, 1)), False),
    "generic CH^3 large scale": (3, scaled(GENERIC3, 1e3), False),
    "generic CH^3 small scale": (3, scaled(GENERIC3, 1e-3), True),
}


# Recorded before the rows existed (see the module docstring).
GOLDEN = {'witness t=2': {'upper': ((1.0, 0.0),
                                    (0.0, -1.0),
                                    (0.0, -2.0),
                                    (1.0, 0.0),
                                    (1.0, 0.0),
                                    (0.0, -1.0)),
                          'moduli': ((0.5, 0.0), (0.5, 0.0), -1.5707963267948966),
                          'triple': ((0.5, 0.0), (0.5, 0.0), (-1.0, 0.0)),
                          'from_lifts': ((0.5, 0.0), -1.5707963267948966)},
          'witness t=3': {'upper': ((1.0, 0.0),
                                    (0.0, -1.0),
                                    (0.0, -3.0),
                                    (1.0, 0.0),
                                    (1.0, 0.0),
                                    (0.0, -2.0)),
                          'moduli': ((0.3333333333333333, 0.0),
                                     (0.6666666666666666, 0.0),
                                     -1.5707963267948966),
                          'triple': ((0.3333333333333333, 0.0),
                                     (0.6666666666666666, 0.0),
                                     (-2.0, 0.0)),
                          'from_lifts': ((0.3333333333333333, 0.0), -1.5707963267948966)},
          'mirror witness t=2': {'upper': ((1.0, 0.0),
                                           (0.0, 1.0),
                                           (0.0, 2.0),
                                           (1.0, 0.0),
                                           (1.0, 0.0),
                                           (0.0, 1.0)),
                                 'moduli': ((0.5, -0.0), (0.5, -0.0), 1.5707963267948966),
                                 'triple': ((0.5, -0.0), (0.5, -0.0), (-1.0, -0.0)),
                                 'from_lifts': ((0.5, -0.0), 1.5707963267948966)},
          'witness t=2 rescaled': {'upper': ((-0.5, -1.0),
                                             (2.5, 6.25),
                                             (-4000.002, 1999.996),
                                             (0.125, -1.5),
                                             (500.0, 0.0005),
                                             (3000.00025, -249.997)),
                                   'moduli': ((0.5, 0.0), (0.5, 0.0), -1.5707963267948966),
                                   'triple': ((0.5, 0.0), (0.5, 0.0), (-1.0, 0.0)),
                                   'from_lifts': ((0.5, -0.0), -1.5707963267948966)},
          'generic CH^2': {'upper': ((-4.1000000000000005, 3.2800000000000002),
                                     (-4.040000000000001, -3.16),
                                     (-0.48249999999999993, 3.4499999999999997),
                                     (-4.420000000000001, 0.8000000000000012),
                                     (-2.0725000000000007, 1.4400000000000002),
                                     (-2.2625000000000006, 4.97)),
                           'moduli': ((-0.07982311924013631, -0.8233593198685452),
                                      (1.5470453610870516, 0.9819351063663163),
                                      -1.5175770869004146),
                           'triple': ((-0.07982311924013631, -0.8233593198685452),
                                      (1.5470453610870516, 0.9819351063663163),
                                      (1.5398344528530805, -1.5923272015953407)),
                           'from_lifts': ((-0.07982311924013655, -0.823359319868545),
                                          -1.517577086900415)},
          'generic CH^2 rescaled': {'upper': ((5.330000000000001, 2.4600000000000004),
                                              (33.150000000000006, 9.649999999999997),
                                              (7382.502484999999, -2484.9926175000005),
                                              (0.6475000000000017, 6.730000000000001),
                                              (-1036.2507200000002, 719.99896375),
                                              (-15475.619454999998, -5545.015475625001)),
                                    'moduli': ((-0.07982311924013631, -0.8233593198685452),
                                               (1.5470453610870516, 0.9819351063663163),
                                               -1.5175770869004146),
                                    'triple': ((-0.07982311924013631, -0.8233593198685452),
                                               (1.5470453610870516, 0.9819351063663163),
                                               (1.5398344528530805, -1.5923272015953407)),
                                    'from_lifts': ((-0.0798231192401366, -0.823359319868545),
                                                   -1.517577086900415)},
          'R-circle CH^2 through infinity': {'upper': ((-2.25, 0.0),
                                                       (1.0, 0.0),
                                                       (-9.0, 0.0),
                                                       (1.0, 0.0),
                                                       (-2.2499999999999996, 0.0),
                                                       (1.0, 0.0)),
                                             'moduli': ((0.25, -0.0), (0.25, -0.0), -0.0),
                                             'triple': ((0.25, -0.0), (0.25, -0.0), (1.0, -0.0)),
                                             'from_lifts': ((0.24999999999999994, -0.0), -0.0)},
          'chain CH^3': {'upper': ((8.881784197001252e-16, -2.5),
                                   (8.881784197001252e-16, -3.0),
                                   (8.881784197001252e-16, -5.5),
                                   (8.881784197001252e-16, -0.5),
                                   (8.881784197001252e-16, -3.0),
                                   (8.881784197001252e-16, -2.5)),
                         'moduli': ((3.272727272727273, -0.0),
                                    (-2.272727272727273, 0.0),
                                    1.5707963267948966),
                         'triple': ((3.272727272727273, -0.0),
                                    (-2.272727272727273, 0.0),
                                    (0.6944444444444444, 0.0)),
                         'from_lifts': ((3.272727272727273, 4.404190510909711e-15),
                                        1.5707963267948966)},
          'R-circle CH^3': {'upper': ((-1.69, 0.0),
                                      (-4.84, 0.0),
                                      (-15.21, 0.0),
                                      (-0.81, 0.0),
                                      (-6.76, 0.0),
                                      (-2.8899999999999997, 0.0)),
                            'moduli': ((2.6556927297668054, 0.0), (0.3964334705075447, 0.0), -0.0),
                            'triple': ((2.6556927297668054, 0.0),
                                       (0.3964334705075447, 0.0),
                                       (0.1492768595041322, 0.0)),
                            'from_lifts': ((2.655692729766803, 0.0), -0.0)},
          'generic CH^3': {'upper': ((-5.380000000000001, 4.640000000000001),
                                     (1.0, 0.0),
                                     (-4.182500000000001, -4.700000000000001),
                                     (1.0, 0.0),
                                     (-5.3925, -1.93),
                                     (1.0, 0.0)),
                           'normal': ((-0.757265922970056, -0.6531066696247323),
                                      (0.01374668145976149, 0.8854618219281215),
                                      (-0.7590253698171052, -0.2716585931844252)),
                           'moduli': ((0.7989512308613683, 0.4363588248770909),
                                      (0.017528854098689414, 1.1290820356877085),
                                      -0.7116796977526944),
                           'triple': ((0.7989512308613683, 0.4363588248770909),
                                      (0.017528854098689414, 1.1290820356877085),
                                      (1.1573863137315947, -0.4462205682889241)),
                           'from_lifts': ((0.7989512308613682, 0.4363588248770906),
                                          -0.7116796977526944)},
          'generic CH^3 rescaled': {'upper': ((7.330000000000001, 3.060000000000001),
                                              (-6.25, 2.5),
                                              (-5217.513065000001, 13064.994782500002),
                                              (0.125, -1.5),
                                              (-2696.249035, -965.0026962499999),
                                              (249.997, 3000.00025)),
                                    'moduli': ((0.7989512308613683, 0.4363588248770909),
                                               (0.017528854098689414, 1.1290820356877085),
                                               -0.7116796977526944),
                                    'triple': ((0.7989512308613683, 0.4363588248770909),
                                               (0.017528854098689414, 1.1290820356877085),
                                               (1.1573863137315947, -0.4462205682889241)),
                                    'from_lifts': ((0.798951230861368, 0.4363588248770905),
                                                   -0.7116796977526942)},
          'generic CH^3 reordered': {'upper': ((1.0, 0.0),
                                               (1.0, 0.0),
                                               (1.0, 0.0),
                                               (-4.182500000000001, -4.700000000000001),
                                               (-5.380000000000001, 4.640000000000001),
                                               (-5.3925, 1.93)),
                                     'moduli': ((0.017528854098689414, 1.1290820356877085),
                                                (0.7989512308613683, -0.4363588248770909),
                                                0.843593004123444),
                                     'triple': ((0.017528854098689414, 1.1290820356877085),
                                                (0.7989512308613683, -0.4363588248770909),
                                                (0.7522060863018583, -0.2900067361413797)),
                                     'from_lifts': ((0.01752885409868962, 1.1290820356877085),
                                                    0.8435930041234437)},
          'generic CH^3 large scale': {'upper': ((-5380000.0, 4640000.0),
                                                 (1.0, 0.0),
                                                 (-4182500.0, -4700000.0),
                                                 (1.0, 0.0),
                                                 (-5392500.0, -1930000.0),
                                                 (1.0, 0.0)),
                                       'moduli': ((0.7989512308613685, 0.43635882487709077),
                                                  (0.0175288540986896, 1.1290820356877087),
                                                  -0.7116796977526944),
                                       'triple': ((0.7989512308613685, 0.43635882487709077),
                                                  (0.0175288540986896, 1.1290820356877087),
                                                  (1.1573863137315945, -0.446220568288924)),
                                       'from_lifts': ((0.7989512308613685, 0.43635882487709077),
                                                      -0.7116796977526944)},
          'generic CH^3 small scale': {'upper': ((7.330000000000002e-06, 3.0600000000000003e-06),
                                                 (-6.25, 2.5),
                                                 (-0.005217513065, 0.0130649947825),
                                                 (0.125, -1.5),
                                                 (-0.002696249035, -0.0009650026962500004),
                                                 (249.997, 3000.00025)),
                                       'moduli': ((0.7989512308613685, 0.43635882487709077),
                                                  (0.017528854098689393, 1.129082035687709),
                                                  -0.7116796977526944),
                                       'triple': ((0.7989512308613685, 0.43635882487709077),
                                                  (0.017528854098689393, 1.129082035687709),
                                                  (1.1573863137315947, -0.446220568288924)),
                                       'from_lifts': ((0.7989512308613684, 0.43635882487709055),
                                                      -0.7116796977526945)},
          'certificate': {2.0: {'12': [1.0, 0.0],
                                '13': [0.0, -1.0],
                                '14': [0.0, -2.0],
                                '23': [1.0, 0.0],
                                '24': [1.0, 0.0],
                                '34': [0.0, -1.0]},
                          3.0: {'12': [1.0, 0.0],
                                '13': [0.0, -1.0],
                                '14': [0.0, -3.0],
                                '23': [1.0, 0.0],
                                '24': [1.0, 0.0],
                                '34': [0.0, -2.0]}}}


def bits(x):
    """A float or complex number as the exact bits of its parts (keeps the sign of zero)."""
    if isinstance(x, complex):
        return (x.real.hex(), x.imag.hex())
    return float(x).hex()


def pair(z):
    return bits(complex(*z))


def case_lifts(name):
    n, points, rescale = CASES[name]
    lifts = [standard_lift(p, n) for p in points]
    if rescale:
        lifts = [P.scaled(lam) for P, lam in zip(lifts, LAMBDAS)]
    return points, lifts


@pytest.mark.parametrize("name", list(CASES))
def test_gram_rows_bitwise_golden(name, normal_form_ulps, invariant_ulps):
    points, lifts = case_lifts(name)
    want = GOLDEN[name]
    G = gram_of(lifts)
    upper = iter(want["upper"])
    for i in range(4):
        assert bits(G.rows[i][i]) == bits(0j)
        for j in range(i + 1, 4):
            g = next(upper)
            assert bits(G.rows[i][j]) == pair(g)
            assert bits(G.rows[j][i]) == bits(complex(*g).conjugate())
    assert [[bits(complex(v)) for v in row] for row in G.entries] == \
        [[bits(v) for v in row] for row in G.rows]
    N = normalize(G)
    ref = gram_from_moduli(_moduli(G.rows, None))
    assert [bits(N.g13), bits(N.g14), bits(N.g24)] == [bits(ref.g13), bits(ref.g14), bits(ref.g24)]
    assert max(normal_form_ulps(N, G.rows)) <= 4.0
    m = moduli_coordinates(points)
    x1, x2, a = want["moduli"]
    assert [bits(m.x1), bits(m.x2), bits(m.cartan)] == [pair(x1), pair(x2), bits(a)]
    x = cross_ratio_triple(points)
    assert [bits(x.x1), bits(x.x2), bits(x.x3)] == [pair(z) for z in want["triple"]]
    assert max(invariant_ulps(points, gram_of_points(points).rows)) <= 4.0
    cross, cartan = want["from_lifts"]
    assert bits(cross_ratio_from_lifts(*lifts)) == pair(cross)
    assert bits(cartan_from_lifts(*lifts[:3])) == bits(cartan)


@pytest.mark.parametrize("t", [2.0, 3.0])
def test_certificate_products_bitwise_golden(t):
    got = certify_noninjectivity(t).products
    want = GOLDEN["certificate"][t]
    assert list(got) == list(want)
    assert [pair(v) for v in got.values()] == [pair(v) for v in want.values()]


def unit_gram(m=4):
    """All off-diagonal entries 1, diagonal 0: a valid Gram matrix to spoil."""
    return np.ones((m, m), dtype=complex) - np.eye(m)


def spoiled(**entries):
    e = unit_gram()
    for key, value in entries.items():
        i, j = int(key[1]) - 1, int(key[2]) - 1
        e[i, j] = value
    return e


# Every GramMatrix error branch, in the order the checks run: a matrix that
# fails two checks reports the earlier one.
ERRORS = [
    ("m", (5, np.zeros((5, 5))), InvalidParameter,
     "only 3x3 and 4x4 Gram matrices are supported, got m=5"),
    ("shape", (4, unit_gram(3)), DimensionMismatch, "expected shape (4, 4), got (3, 3)"),
    ("shape of a flat list", (3, [0j] * 9), DimensionMismatch,
     "expected shape (3, 3), got (9,)"),
    ("Hermitian", (4, spoiled(e13=2.0)), InvalidParameter, "Gram matrix must be Hermitian"),
    ("Hermitian on the diagonal", (4, spoiled(e11=0.1j)), InvalidParameter,
     "Gram matrix must be Hermitian"),
    ("Hermitian before off-diagonal", (4, spoiled(e12=0.0, e34=2.0)), InvalidParameter,
     "Gram matrix must be Hermitian"),
    ("diagonal", (4, spoiled(e22=0.5)), NotNull,
     "Gram diagonal must vanish (lifts must be isotropic)"),
    ("diagonal before off-diagonal", (4, spoiled(e33=0.5, e12=0.0, e21=0.0)), NotNull,
     "Gram diagonal must vanish (lifts must be isotropic)"),
    ("off-diagonal", (4, spoiled(e24=0.0, e42=0.0)), CoincidentPoints,
     "off-diagonal entry (2,4) vanishes"),
    ("first off-diagonal", (4, spoiled(e34=1e-12, e43=1e-12, e13=0.0, e31=0.0)),
     CoincidentPoints, "off-diagonal entry (1,3) vanishes"),
    ("off-diagonal 3x3", (3, unit_gram(3) * np.array([1, 1, 0])[:, None]
                          * np.array([1, 1, 0])[None, :]), CoincidentPoints,
     "off-diagonal entry (1,3) vanishes"),
]


@pytest.mark.parametrize("args,error,message",
                         [pytest.param(*case[1:], id=case[0]) for case in ERRORS])
def test_gram_matrix_error_branches(args, error, message):
    with pytest.raises(error) as info:
        GramMatrix(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0.0, math.nan),
                                   complex(1.0, math.inf)])
@pytest.mark.parametrize("where", ["e13", "e31", "e22"])
def test_gram_matrix_rejects_non_finite_entries(value, where):
    with pytest.raises(InvalidParameter, match="Gram matrix entries must be finite"):
        GramMatrix(4, spoiled(**{where: value}))


def test_gram_matrix_validates_with_the_callers_config():
    e = unit_gram()
    e[0, 1] = e[1, 0] = 1e-3
    GramMatrix(4, e)  # passes the default tolerance
    coarse = NumericConfig(abs_tol=1e-9, rel_tol=1e-2)
    with pytest.raises(CoincidentPoints, match=r"entry \(1,2\) vanishes"):
        GramMatrix(4, e, coarse)
    # lifts of size 1e-6 pair to ~1e-12, below the default abs_tol but not a finer one
    fine = NumericConfig(abs_tol=1e-30, rel_tol=1e-9)
    lifts = [P.scaled(1e-6) for P in case_lifts("generic CH^3")[1]]
    with pytest.raises(CoincidentPoints):
        gram_of(lifts)
    G = gram_of(lifts, fine)
    assert G.cfg is fine
    N = normalize(G, fine)
    want = GOLDEN["generic CH^3"]["normal"]
    for got, z in zip((N.g13, N.g14, N.g24), want):
        assert abs(got - complex(*z)) <= 1e-12


def test_gram_matrix_rows_are_read_only():
    G = gram_of(case_lifts("generic CH^3")[1])
    assert isinstance(G.rows, tuple) and all(isinstance(row, tuple) for row in G.rows)
    assert all(type(v) is complex for row in G.rows for v in row)
    with pytest.raises(dataclasses.FrozenInstanceError):
        G.rows = ()
    with pytest.raises(TypeError):
        G.rows[0][1] = 0j
    with pytest.raises(TypeError):
        G.rows[0] = G.rows[1]
    with pytest.raises(ValueError):
        G.entries[0, 1] = 0j
    assert "cfg" not in repr(G) and "rows" not in repr(G)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scale_is_nan_for_a_nan_coordinate_anywhere(n):
    for k in range(n + 1):
        for bad in (math.nan, complex(math.nan, 1.0), complex(2.0, math.nan)):
            coords = [1.5 - 2j] * (n + 1)
            coords[k] = bad
            assert math.isnan(HermitianVector(n, coords).scale())
        coords = [1.5 - 2j] * (n + 1)
        coords[k] = complex(math.nan, math.inf)  # |.| is inf, as np.abs gives
        assert HermitianVector(n, coords).scale() == math.inf


def test_scale_is_the_largest_magnitude():
    # numpy's complex abs and Python's disagree in the last bit for about a third
    # of random values, so the numpy maximum is held to one ulp, not to equality
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 5):
        for _ in range(50):
            coords = (rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)) \
                * 10.0 ** rng.integers(-150, 150)
            P = HermitianVector(n, coords)
            s = P.scale()
            assert bits(s) == bits(max(abs(v) for v in P.coords.tolist()))
            assert abs(s - float(np.max(np.abs(P.coords)))) <= math.ulp(s)
