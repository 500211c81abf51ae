import cmath
import math

import numpy as np
import pytest

import chquad
from chquad import (
    BoundaryPoint,
    CartanOutOfRange,
    CoincidentPoints,
    CrossRatioTriple,
    HermitianVector,
    InvalidParameter,
    ModuliPoint,
    NormalizedGram,
    NotNull,
    NumericConfig,
    ZeroCrossRatio,
    cartan,
    cartan_from_lifts,
    congruent_antiholomorphic,
    congruent_holomorphic,
    certify_noninjectivity,
    counterexample_pair,
    cross_ratio,
    cross_ratio_from_lifts,
    cross_ratio_triple,
    det_face,
    det_from_moduli,
    det_gram,
    face_dets_from_moduli,
    gram_from_moduli,
    moduli_coordinates,
    moduli_from_gram,
    normalized_gram_of_points,
    standard_lift,
)
from chquad.gram import FACES
from chquad.hermitian import _form, apply_isometry_point
from chquad.sampling import random_isometry, random_quadruple

HALF_PI = math.pi / 2.0


def test_cartan_values():
    o = BoundaryPoint.finite([0], 0)
    inf = BoundaryPoint.infinity()
    up = BoundaryPoint.finite([0], 1)
    assert abs(cartan(o, inf, up) - (-HALF_PI)) < 1e-12
    assert abs(cartan(o, inf, up.mirror()) - HALF_PI) < 1e-12
    # three points on the standard R-circle
    a = BoundaryPoint.finite([1], 0)
    b = BoundaryPoint.finite([2], 0)
    assert abs(cartan(o, a, b)) < 1e-12


def test_cartan_range():
    rng = np.random.default_rng(20)
    for _ in range(200):
        p = random_quadruple(3, "generic", rng)
        assert abs(cartan(p[0], p[1], p[2])) <= HALF_PI


def test_cartan_coincident():
    o = BoundaryPoint.finite([0], 0)
    with pytest.raises(CoincidentPoints):
        cartan(o, o, BoundaryPoint.infinity())
    with pytest.raises(CoincidentPoints):
        cartan(BoundaryPoint.infinity(), BoundaryPoint.infinity(), BoundaryPoint.infinity())


def test_cross_ratio_witness_values():
    p, _ = counterexample_pair(2.0)
    p1, p2, p3, p4 = p
    assert abs(cross_ratio(p1, p2, p3, p4) - 0.5) < 1e-12
    assert abs(cross_ratio(p1, p3, p2, p4) - 0.5) < 1e-12
    assert abs(cross_ratio(p2, p3, p1, p4) - (-1.0)) < 1e-12


def test_cross_ratio_triple_matches_orderings():
    p, q = counterexample_pair(2.0)
    triple = cross_ratio_triple(p)
    assert abs(triple.x1 - 0.5) < 1e-12
    assert abs(triple.x2 - 0.5) < 1e-12
    assert abs(triple.x3 - (-1.0)) < 1e-12
    assert triple.isclose(cross_ratio_triple(q))


def test_lift_independence():
    rng = np.random.default_rng(21)
    for _ in range(100):
        p = random_quadruple(2, "generic", rng)
        lifts = [standard_lift(x, 2) for x in p]
        lam = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        scaled = [P.scaled(l) for P, l in zip(lifts, lam)]
        a0 = cartan_from_lifts(*lifts[:3])
        a1 = cartan_from_lifts(*scaled[:3])
        assert abs(a0 - a1) <= 1e-10
        x0 = cross_ratio_from_lifts(*lifts)
        x1 = cross_ratio_from_lifts(*scaled)
        assert abs(x0 - x1) <= 1e-10 * max(1.0, abs(x0))


def test_from_lifts_reject_a_non_isotropic_lift():
    p, _ = counterexample_pair(2.0)
    lifts = [standard_lift(x, 2) for x in p]
    # pairs to nonzero values with every witness lift, but <Z, Z> = -2
    bad = HermitianVector(2, np.array([1, 0, -1], dtype=complex))
    with pytest.raises(NotNull):
        cross_ratio_from_lifts(*lifts[:3], bad)
    with pytest.raises(NotNull):
        cartan_from_lifts(*lifts[:2], bad)


def count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` through every package module binding it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for binding in (chquad.points, chquad.hermitian, chquad.gram, chquad.invariants,
                    chquad.moduli, chquad.varieties, chquad.sampling):
        if getattr(binding, name, None) is original:
            monkeypatch.setattr(binding, name, counted)
    return calls


@pytest.mark.parametrize("invariant,runs,objects", [
    pytest.param(moduli_coordinates, 1, 0, id="moduli_coordinates"),
    pytest.param(cross_ratio_triple, 1, 0, id="cross_ratio_triple"),
    pytest.param(normalized_gram_of_points, 1, 1, id="normalized_gram_of_points"),
    pytest.param(lambda p: cartan(*p[:3]), 1, 0, id="cartan"),
    pytest.param(lambda p: cross_ratio(*p), 1, 0, id="cross_ratio"),
    pytest.param(lambda p: congruent_holomorphic(p, p), 2, 0, id="congruent_holomorphic"),
    pytest.param(lambda p: certify_noninjectivity(2.0), 2, 0, id="certify_noninjectivity"),
])
def test_one_gram_per_quadruple(monkeypatch, invariant, runs, objects):
    # one closed-form kernel run per quadruple, which reads the points itself: no lift,
    # neither as a list nor as an object, no separate dimension pass, and a GramMatrix
    # only where the caller asks for one
    p, _ = counterexample_pair(2.0)
    lifts = count_calls(monkeypatch, chquad.hermitian, "_lift")
    lift_objects = count_calls(monkeypatch, chquad.hermitian, "standard_lift")
    dimensions = count_calls(monkeypatch, chquad.hermitian, "infer_dimension")
    kernels = count_calls(monkeypatch, chquad.gram, "_points_rows")
    lift_kernels = count_calls(monkeypatch, chquad.gram, "_gram")
    gram_objects = count_calls(monkeypatch, chquad.gram, "_set_gram")
    invariant(p)
    assert (len(lifts), len(lift_objects), len(dimensions)) == (0, 0, 0)
    assert (len(kernels), len(lift_kernels), len(gram_objects)) == (runs, 0, objects)


@pytest.mark.parametrize("count", [3, 5])
@pytest.mark.parametrize("invariant", [
    moduli_coordinates,
    cross_ratio_triple,
    lambda p: congruent_holomorphic(p, counterexample_pair(2.0)[0]),
    lambda p: congruent_holomorphic(counterexample_pair(2.0)[0], p),
    lambda p: congruent_antiholomorphic(p, counterexample_pair(2.0)[1]),
    lambda p: congruent_antiholomorphic(counterexample_pair(2.0)[0], p),
], ids=["moduli_coordinates", "cross_ratio_triple", "congruent_holomorphic_first",
        "congruent_holomorphic_second", "congruent_antiholomorphic_first",
        "congruent_antiholomorphic_second"])
def test_a_quadruple_of_another_size_is_an_invalid_parameter(invariant, count):
    p, _ = counterexample_pair(2.0)
    points = (p + (BoundaryPoint.finite([1.0], 2.5),))[:count]
    with pytest.raises(InvalidParameter, match=f"^expected 4 points, got {count}$"):
        invariant(points)


def test_isometry_invariance():
    rng = np.random.default_rng(22)
    for n in (2, 3):
        for _ in range(50):
            p = random_quadruple(n, "generic", rng)
            g = random_isometry(n, rng)
            q = tuple(apply_isometry_point(g, x) for x in p)
            a0, a1 = cartan(*p[:3]), cartan(*q[:3])
            assert abs(a0 - a1) <= 1e-9
            x0 = cross_ratio(*p)
            x1 = cross_ratio(*q)
            assert abs(x0 - x1) <= 1e-9 * max(1.0, abs(x0))


def test_goldman_identity():
    rng = np.random.default_rng(23)
    for n in (2, 3):
        for _ in range(100):
            t = cross_ratio_triple(random_quadruple(n, "generic", rng))
            assert abs(abs(t.x2) - abs(t.x1) * abs(t.x3)) \
                <= 1e-10 * max(1.0, abs(t.x2))


def test_moduli_from_gram_values():
    m = moduli_from_gram(NormalizedGram(-1j, 2.0, 1j))
    assert abs(m.x1 - 0.5) < 1e-12
    assert abs(m.x2 - 0.5) < 1e-12
    assert abs(m.cartan - (-HALF_PI)) < 1e-12

    m2 = moduli_from_gram(NormalizedGram(-1.0, 1.0, -1.0))
    assert abs(m2.x1 - 1.0) < 1e-12
    assert abs(m2.x2 - 1.0) < 1e-12
    assert abs(m2.cartan) < 1e-12


def reference_cartan(points):
    """A(p1, p2, p3) of finite n = 2 points (z, t), from their standard lifts in 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        lifts = [(mpmath.mpc(-abs(complex(z)) ** 2, t), mpmath.mpc(z) * mpmath.sqrt(2), 1)
                 for z, t in points]

        def g(i, j):
            P, Q = lifts[i], lifts[j]
            return P[0] * mpmath.conj(Q[2]) + P[1] * mpmath.conj(Q[1]) + P[2] * mpmath.conj(Q[0])

        return float(mpmath.arg(-g(0, 1) * g(1, 2) * g(2, 0)))


@pytest.mark.parametrize("points", [
    ((0, 0), (1, 0), (1e150, -4e153)),  # g13 and g23 are about 1e300: the product is inf - inf
    ((0.5 - 1j, 0.3), (1 + 2j, -0.7), (3e150 - 1e150j, 2e300)),
])
def test_cartan_of_an_overflowing_triple_product(points):
    # every Gram entry is finite; the phase comes from the entries scaled by powers of two
    value = cartan(*[BoundaryPoint.finite([z], t) for z, t in points])
    assert abs(value - reference_cartan(points)) <= 1e-15


def test_cartan_of_entries_near_1e200_matches_a_dilation():
    points = [(0.3 - 0.7j, 0.4), (-1.1 + 0.2j, -1.3), (0.8 + 0.9j, 2.2)]
    lifts = [standard_lift(BoundaryPoint.finite([z], t), 2).scaled(s)
             for (z, t), s in zip(points, (1e100, -2e100j, 3e100 + 1e100j))]
    g = [[_form(P.values, Q.values) for Q in lifts] for P in lifts]
    assert all(1e198 < abs(g[i][j]) < 1e202 for i, j in ((0, 1), (1, 2), (2, 0)))
    assert not cmath.isfinite(g[0][1] * g[1][2] * g[2][0])
    lam = 2.0 ** 10  # (z, t) -> (lam z, lam^2 t), exactly in floats
    dilated = [BoundaryPoint.finite([lam * z], lam * lam * t) for z, t in points]
    expected = cartan(*dilated)
    assert abs(cartan_from_lifts(*lifts) - expected) <= 1e-14
    assert abs(expected - reference_cartan(points)) <= 1e-14


def test_cartan_of_an_underflowing_triple_product():
    # entries of 1e-220 pass a purely relative rule; their product underflows to 0
    points = [BoundaryPoint.finite([z], t) for z, t in ((0.3, 0.4), (-1.1j, -1.3), (0.8, 2.2))]
    lifts = [standard_lift(p, 2).scaled(1e-110) for p in points]
    cfg = chquad.NumericConfig(0.0, 1e-9)
    assert abs(cartan_from_lifts(*lifts, cfg) - cartan(*points)) <= 1e-14


def test_moduli_from_gram_rejects_wrong_halfplane():
    with pytest.raises(CartanOutOfRange):
        moduli_from_gram(NormalizedGram(1.0, 1.0, -1.0))


def test_gram_from_moduli_values():
    ng = gram_from_moduli(ModuliPoint(0.5, 0.5, -HALF_PI))
    assert abs(ng.g13 - (-1j)) < 1e-12
    assert abs(ng.g14 - 2.0) < 1e-12
    assert abs(ng.g24 - 1j) < 1e-12

    ng2 = gram_from_moduli(ModuliPoint(1.0, 1.0, 0.0))
    assert abs(ng2.g13 - (-1.0)) < 1e-12
    assert abs(ng2.g14 - 1.0) < 1e-12
    assert abs(ng2.g24 - (-1.0)) < 1e-12


def test_gram_from_moduli_unit_entry():
    rng = np.random.default_rng(24)
    for _ in range(100):
        m = ModuliPoint(complex(*rng.standard_normal(2)) + 2,
                        complex(*rng.standard_normal(2)) + 2,
                        rng.uniform(-HALF_PI, HALF_PI))
        assert abs(abs(gram_from_moduli(m).g13) - 1.0) < 1e-14


def test_dictionary_round_trip():
    rng = np.random.default_rng(25)
    for _ in range(200):
        g13 = cmath.exp(1j * rng.uniform(HALF_PI, 3 * HALF_PI))
        g14 = complex(*rng.standard_normal(2))
        g24 = complex(*rng.standard_normal(2))
        if min(abs(g14), abs(g24)) < 1e-2:
            continue
        ng = NormalizedGram(g13, g14, g24)
        back = gram_from_moduli(moduli_from_gram(ng))
        assert back.isclose(ng)

        m = moduli_from_gram(ng)
        again = moduli_from_gram(gram_from_moduli(m))
        assert again.isclose(m)


def test_zero_cross_ratio_rejected():
    with pytest.raises(ZeroCrossRatio):
        ModuliPoint(0.0, 1.0, 0.0)


def test_det_from_moduli_values():
    assert abs(det_from_moduli(ModuliPoint(0.5, 0.5, -HALF_PI))) < 1e-12
    assert abs(det_from_moduli(ModuliPoint(1.0, 1.0, 0.0)) - (-3.0)) < 1e-12


def test_det_from_moduli_matches_det_gram():
    rng = np.random.default_rng(26)
    for _ in range(300):
        m = ModuliPoint(complex(*rng.standard_normal(2)),
                        complex(*rng.standard_normal(2)),
                        rng.uniform(-HALF_PI, HALF_PI))
        want = det_gram(gram_from_moduli(m))
        assert abs(det_from_moduli(m) - want) <= 1e-9 * max(1.0, abs(want))


def test_face_dets_from_moduli_values():
    vals = face_dets_from_moduli(ModuliPoint(1.0, 1.0, -HALF_PI))
    assert abs(vals[0]) < 1e-12
    assert abs(face_dets_from_moduli(ModuliPoint(1.0, 1.0, 0.0))[0] - (-2.0)) < 1e-12
    for v in face_dets_from_moduli(ModuliPoint(0.5, 0.5, -HALF_PI)):
        assert abs(v) < 1e-12


def test_face_dets_from_moduli_match_det_face():
    rng = np.random.default_rng(27)
    for _ in range(300):
        m = ModuliPoint(complex(*rng.standard_normal(2)),
                        complex(*rng.standard_normal(2)),
                        rng.uniform(-HALF_PI, HALF_PI))
        ng = gram_from_moduli(m)
        for value, face in zip(face_dets_from_moduli(m), FACES):
            want = det_face(ng, face)
            assert abs(value - want) <= 1e-9 * max(1.0, abs(want))


def test_squared_ambiguity():
    rng = np.random.default_rng(28)
    for _ in range(100):
        p = random_quadruple(2, "generic", rng)
        ng = normalized_gram_of_points(p)
        t = cross_ratio_triple(p)
        lhs13 = ng.g13 ** 2
        rhs13 = t.x2 / (t.x1 * t.x3)
        assert abs(lhs13 - rhs13) <= 1e-9 * max(1.0, abs(rhs13))
        lhs24 = ng.g24 ** 2
        rhs24 = t.x1.conjugate() / (t.x2.conjugate() * t.x3.conjugate())
        assert abs(lhs24 - rhs24) <= 1e-9 * max(1.0, abs(rhs24))


def test_conjugation_law():
    rng = np.random.default_rng(29)
    for _ in range(50):
        p = random_quadruple(2, "generic", rng)
        q = tuple(x.mirror() for x in p)
        tp, tq = cross_ratio_triple(p), cross_ratio_triple(q)
        for a, b in ((tp.x1, tq.x1), (tp.x2, tq.x2), (tp.x3, tq.x3)):
            assert abs(a - b.conjugate()) <= 1e-10 * max(1.0, abs(a))
        assert abs(cartan(*p[:3]) + cartan(*q[:3])) <= 1e-10
    # on the witness family the cross-ratios are real, hence equal
    p, q = counterexample_pair(3.0)
    assert cross_ratio_triple(p).isclose(cross_ratio_triple(q))
    assert abs(cartan(*p[:3]) + cartan(*q[:3])) <= 1e-12


def test_moduli_json_round_trip():
    m = ModuliPoint(0.5 + 0.25j, -1.5, 0.3)
    assert ModuliPoint.from_json(m.to_json()).isclose(m)
    t = CrossRatioTriple(1j, 2.0, -3.0 + 1j)
    assert CrossRatioTriple.from_json(t.to_json()).isclose(t)


@pytest.mark.parametrize("cls,field,value,message", [
    (NormalizedGram, "g13", [1, 0, 2], "normal_form.g13: expected [re, im]"),
    (NormalizedGram, "g14", None, "normal_form: missing key 'g14'"),
    (NormalizedGram, "g24", [1, "0"], "normal_form.g24[1]: expected a number"),
    (CrossRatioTriple, "x1", [1, 0, 2], "cross_ratios.x1: expected [re, im]"),
    (CrossRatioTriple, "x3", None, "cross_ratios: missing key 'x3'"),
    (CrossRatioTriple, "x2", "0.5", "cross_ratios.x2: expected [re, im]"),
])
def test_from_json_names_the_malformed_field(cls, field, value, message):
    obj = (NormalizedGram(-1j, 2.0, 1j) if cls is NormalizedGram
           else CrossRatioTriple(1j, 2.0, -3.0 + 1j)).to_json()
    if value is None:
        del obj[field]
    else:
        obj[field] = value
    with pytest.raises(ValueError) as info:
        cls.from_json(obj)
    assert str(info.value) == message
    with pytest.raises(ValueError, match=r": expected an object$"):
        cls.from_json([obj])


@pytest.mark.parametrize("fields", [(math.nan, 1, 1), (1, complex(0, math.inf), 1),
                                    (1, 1, complex(math.nan, math.nan))])
def test_cross_ratio_triple_rejects_non_finite_fields(fields):
    with pytest.raises(InvalidParameter, match="cross-ratios must be finite"):
        CrossRatioTriple(*fields)


GENERIC3 = (BoundaryPoint.finite([0.3 - 0.7j, -1.1 + 0.2j], 0.4),
            BoundaryPoint.finite([-0.5 + 0.1j, 0.8 + 0.9j], -1.3),
            BoundaryPoint.infinity(),
            BoundaryPoint.finite([1.2 + 0.6j, 0.05 - 0.4j], 2.2))


def dilated(points, lam):
    return tuple(p if p.at_infinity
                 else BoundaryPoint.finite([lam * v for v in p.z], lam * lam * p.t)
                 for p in points)


@pytest.mark.parametrize("lam", [1e80, 1e-80, 1e-85, 1e150, 1e-150])
def test_cross_ratios_of_points_at_extreme_scales(lam):
    # Gram entries near lam^2: their products leave the float range (nan at 1e80, a division
    # by zero at 1e-85, subnormal digits lost at 1e-80) unless taken on scaled factors
    fine = NumericConfig(0.0, 1e-9)
    q = dilated(GENERIC3, lam)
    t0, m0 = cross_ratio_triple(GENERIC3, fine), moduli_coordinates(GENERIC3, fine)
    t, m = cross_ratio_triple(q, fine), moduli_coordinates(q, fine)
    for got, want in ((t.x1, t0.x1), (t.x2, t0.x2), (t.x3, t0.x3), (m.x1, m0.x1), (m.x2, m0.x2),
                      (cross_ratio(*q, fine), t0.x1)):
        assert abs(got - want) <= 4e-15 * abs(want)
    assert abs(m.cartan - m0.cartan) <= 4e-16


def test_cartan_of_a_subnormal_triple_product():
    # dilated by 2^-176, the triple product is about 2^-1056 |T|: subnormal, not zero
    fine = NumericConfig(0.0, 1e-9)
    q = (BoundaryPoint.finite([0j, 0j], -2.0), BoundaryPoint.finite([0j, 0j], 2.0625),
         BoundaryPoint.finite([0j, 1.4375j], 0.0), BoundaryPoint.finite([0j, 0j], 0.0))
    want = cartan(*q[:3], fine)
    assert abs(cartan(*dilated(q, math.ldexp(1.0, -176))[:3], fine) - want) <= 4e-16


@pytest.mark.parametrize("from_lifts,count", [(cartan_from_lifts, 3), (cross_ratio_from_lifts, 4)],
                         ids=["cartan_from_lifts", "cross_ratio_from_lifts"])
def test_lift_invariants_read_the_kernel_rows(monkeypatch, from_lifts, count):
    # one run of the lift kernel, whose bare rows are read: no GramMatrix
    lifts = [standard_lift(p, 2) for p in counterexample_pair(2.0)[0]][:count]
    kernels = count_calls(monkeypatch, chquad.gram, "_gram")
    gram_objects = count_calls(monkeypatch, chquad.gram, "_set_gram")
    from_lifts(*lifts)
    assert (len(kernels), len(gram_objects)) == (1, 0)


def test_cartan_of_lifts_whose_partial_product_is_subnormal():
    # g12 g23 is about 1e-320 while the triple product is normal: the partial product
    # decides the fallback too
    fine = NumericConfig(0.0, 1e-9)
    points = (BoundaryPoint.finite([0.3 + 0.1j], 0.5), BoundaryPoint.finite([-0.5 + 0.2j], -0.2),
              BoundaryPoint.finite([0.1 - 0.8j], 1.1))
    lifts = [standard_lift(p, 2).scaled(s) for p, s in zip(points, (1e100, 1e-260, 1e100))]
    assert abs(cartan_from_lifts(*lifts, fine) - cartan(*points, fine)) <= 4e-16


def test_moduli_of_quadruples_dilated_to_the_edge_of_the_float_range():
    # dilated by 2^k, finite-pair entries grow by 4^k: near k = 254 a product nears the float
    # maximum, where Smith's division overflows inside num / den
    fine = NumericConfig(0.0, 1e-9)
    rng = np.random.default_rng(7)
    for _ in range(200):
        q = random_quadruple(3, "generic", rng, fine)
        m = moduli_coordinates(q, fine)
        for k in range(240, 262):
            assert moduli_coordinates(dilated(q, math.ldexp(1.0, k)), fine).isclose(m, fine)


def test_a_cross_ratio_beyond_the_float_range_is_not_finite():
    # X1 = g31 g42 / (g41 g32) = 1e308 / 1e-300: the value classes reject it as not finite,
    # and no bare OverflowError escapes from scaling it back
    fine = NumericConfig(0.0, 1e-9)
    q = (BoundaryPoint.finite([0], 0), BoundaryPoint.infinity(), BoundaryPoint.finite([1e154], 0),
         BoundaryPoint.finite([1e-150], 0))
    with pytest.raises(InvalidParameter, match="^moduli coordinates must be finite$"):
        moduli_coordinates(q, fine)
    with pytest.raises(InvalidParameter, match="^cross-ratios must be finite$"):
        cross_ratio_triple(q, fine)
