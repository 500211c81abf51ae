import math
import re

import numpy as np
import pytest

from chquad import (
    InvalidParameter,
    ModuliPoint,
    NotInModuliSpace,
    PreconditionViolated,
    classify,
    congruent_antiholomorphic,
    counterexample_pair,
    det_face,
    det_from_moduli,
    gram_from_moduli,
    gram_of,
    in_moduli_space,
    moduli_coordinates,
    moduli_residual,
    normalize,
    normalized_gram_of_points,
    point_from_lift,
    positivity_check,
    real_slice_residual,
    reconstruct,
    residual_scale,
)
from chquad.gram import FACES
from chquad.sampling import (
    random_chain_moduli,
    random_moduli_point,
    random_quadruple,
)

HALF_PI = math.pi / 2.0


def test_moduli_coordinates_of_witness_family():
    p, q = counterexample_pair(2.0)
    mp = moduli_coordinates(p)
    assert abs(mp.x1 - 0.5) < 1e-12
    assert abs(mp.x2 - 0.5) < 1e-12
    assert abs(mp.cartan - (-HALF_PI)) < 1e-12
    mq = moduli_coordinates(q)
    assert abs(mq.x1 - 0.5) < 1e-12
    assert abs(mq.x2 - 0.5) < 1e-12
    assert abs(mq.cartan - HALF_PI) < 1e-12


def test_residual_values():
    assert abs(moduli_residual(ModuliPoint(0.5, 0.5, -HALF_PI))) < 1e-12
    assert abs(moduli_residual(ModuliPoint(1.0, 1.0, 0.0)) - (-3.0)) < 1e-12
    # real X1 + X2 = 1 at the chain angle always sits on the variety
    assert abs(moduli_residual(ModuliPoint(0.3, 0.7, HALF_PI))) < 1e-12


def test_residual_vanishes_in_dimension_two():
    rng = np.random.default_rng(30)
    for _ in range(300):
        m = moduli_coordinates(random_quadruple(2, "generic", rng))
        assert abs(moduli_residual(m)) <= 1e-8 * residual_scale(m)


def test_residual_matches_determinant():
    rng = np.random.default_rng(31)
    for _ in range(200):
        m = ModuliPoint(complex(*rng.standard_normal(2)),
                        complex(*rng.standard_normal(2)),
                        rng.uniform(-HALF_PI, HALF_PI))
        want = abs(m.x2) ** 2 * det_from_moduli(m)
        assert abs(moduli_residual(m) - want) <= 1e-9 * max(1.0, abs(want))


def test_real_slice_residual_matches():
    rng = np.random.default_rng(32)
    for _ in range(100):
        x1, x2 = rng.standard_normal(2) + 2.0
        a = rng.uniform(-HALF_PI, HALF_PI)
        want = moduli_residual(ModuliPoint(x1, x2, a))
        assert abs(real_slice_residual(x1, x2, a) - want) <= 1e-10 * max(1.0, abs(want))


def test_membership_examples():
    assert in_moduli_space(ModuliPoint(0.5, 0.5, -HALF_PI), 2)
    assert not in_moduli_space(ModuliPoint(1.0, 1.0, 0.0), 2)
    assert in_moduli_space(ModuliPoint(1.0, 1.0, 0.0), 3)
    assert not in_moduli_space(ModuliPoint(-1.0, 1.0, 0.0), 2)
    assert not in_moduli_space(ModuliPoint(1.0, 1.0, 2.0), 3)
    with pytest.raises(InvalidParameter):
        in_moduli_space(ModuliPoint(1.0, 1.0, 0.0), 1)


def test_membership_sign_rule_at_chain_angle():
    # at A = +pi/2 membership needs Im(X1) >= 0, at -pi/2 the opposite
    up = ModuliPoint(0.5 + 0.2j, 0.5 - 0.2j, HALF_PI)
    assert abs(moduli_residual(up)) < 1e-12
    assert in_moduli_space(up, 2)
    assert not in_moduli_space(ModuliPoint(0.5 - 0.2j, 0.5 + 0.2j, HALF_PI), 2)
    assert in_moduli_space(ModuliPoint(0.5 - 0.2j, 0.5 + 0.2j, -HALF_PI), 2)


def test_reconstruct_witness_point():
    lifts = reconstruct(ModuliPoint(0.5, 0.5, -HALF_PI), 2)
    ng = normalize(gram_of(lifts))
    assert abs(ng.g13 - (-1j)) < 1e-7
    assert abs(ng.g14 - 2.0) < 1e-7
    assert abs(ng.g24 - 1j) < 1e-7
    p, _ = counterexample_pair(2.0)
    points = [point_from_lift(P) for P in lifts]
    from chquad import congruent_holomorphic
    assert congruent_holomorphic(points, p)


def test_reconstruct_round_trip_dimension_two():
    rng = np.random.default_rng(33)
    for _ in range(200):
        p = random_quadruple(2, "generic", rng)
        m = moduli_coordinates(p)
        lifts = reconstruct(m, 2)
        assert all(P.is_null() for P in lifts)
        ng = normalize(gram_of(lifts))
        assert ng.isclose(normalized_gram_of_points(p))


def test_reconstruct_from_sampled_moduli():
    rng = np.random.default_rng(34)
    for _ in range(200):
        m = random_moduli_point(rng)
        lifts = reconstruct(m, 2)
        back = moduli_coordinates([point_from_lift(P) for P in lifts])
        assert abs(back.x1 - m.x1) <= 1e-8 * max(1.0, abs(m.x1))
        assert abs(back.x2 - m.x2) <= 1e-8 * max(1.0, abs(m.x2))
        assert abs(back.cartan - m.cartan) <= 1e-8


def test_reconstruct_strict_inequality_needs_higher_dimension():
    m = ModuliPoint(1.0, 1.0, 0.0)
    with pytest.raises(NotInModuliSpace):
        reconstruct(m, 2)
    lifts = reconstruct(m, 3)
    ng = normalize(gram_of(lifts))
    assert ng.isclose(gram_from_moduli(m))
    d = det_from_moduli(m)
    assert d < -1e-6
    for face in FACES:
        assert det_face(ng, face) <= 1e-9


def test_reconstruct_needs_n_of_at_least_two():
    with pytest.raises(InvalidParameter, match="^reconstruction is defined for n >= 2, got 1$"):
        reconstruct(ModuliPoint(1.0, 1.0, 0.0), 1)


def test_reconstruct_higher_ambient_dimension():
    rng = np.random.default_rng(42)
    m = moduli_coordinates(random_quadruple(3, "generic", rng))
    assert moduli_residual(m) < -1e-6
    assert in_moduli_space(m, 5)
    lifts = reconstruct(m, 5)
    assert all(P.is_null() for P in lifts)
    assert normalize(gram_of(lifts)).isclose(gram_from_moduli(m))


def test_reconstruct_real_slice_gives_real_gram():
    # the A = 0 slice of the variety is the conic x2 = (1 + x1) +- 2 sqrt(x1)
    rng = np.random.default_rng(35)
    for _ in range(50):
        x1 = float(rng.uniform(0.1, 3.0))
        x2 = (x1 + 1.0) + 2.0 * math.sqrt(x1)
        if rng.uniform() < 0.5 and (math.sqrt(x1) - 1.0) ** 2 > 0.05:
            x2 = (x1 + 1.0) - 2.0 * math.sqrt(x1)
        cand = ModuliPoint(x1, x2, 0.0)
        assert abs(moduli_residual(cand)) < 1e-9
        assert in_moduli_space(cand, 2)
        lifts = reconstruct(cand, 2)
        ng = normalize(gram_of(lifts))
        assert abs(ng.g13.imag) < 1e-7
        assert abs(ng.g14.imag) < 1e-7
        assert abs(ng.g24.imag) < 1e-7
        points = [point_from_lift(P) for P in lifts]
        assert congruent_antiholomorphic(points, points)


def test_classify_chain_locus():
    for sign in (1.0, -1.0):
        rep = classify(ModuliPoint(0.5, 0.5, sign * HALF_PI))
        assert rep.is_c_plane
        assert rep.in_singular_set
        assert all(rep.face_on_chain)
        assert rep.det_sign == "zero"
        assert rep.in_real_slice


def test_classify_r_circle_fixture():
    rep = classify(ModuliPoint(0.25, 0.25, 0.0))
    assert abs(real_slice_residual(0.25, 0.25, 0.0)) < 1e-12
    assert rep.is_r_plane
    assert rep.in_real_slice
    assert not rep.is_c_plane


def test_classify_generic_point():
    rep = classify(ModuliPoint(1.0, 1.0, math.pi / 4.0))
    assert not any(rep.face_on_chain)
    assert not rep.is_c_plane
    assert not rep.is_r_plane
    assert not rep.in_real_slice
    assert not rep.in_singular_set
    assert rep.det_sign == "negative"
    # no configuration realizes a positive determinant
    assert classify(ModuliPoint(-1.0, 1.0, 0.0)).det_sign == "positive"


def test_classify_flags_match_face_determinants():
    rng = np.random.default_rng(36)
    for _ in range(200):
        m = ModuliPoint(complex(*rng.standard_normal(2)),
                        complex(*rng.standard_normal(2)),
                        rng.uniform(-HALF_PI, HALF_PI))
        rep = classify(m)
        ng = gram_from_moduli(m)
        for flag, face in zip(rep.face_on_chain, FACES):
            vanishes = abs(det_face(ng, face)) <= 1e-9 * max(1.0, abs(ng.g14), abs(ng.g24)) ** 2
            assert flag == vanishes


def test_classify_of_sampled_kinds():
    rng = np.random.default_rng(37)
    for _ in range(25):
        m = moduli_coordinates(random_quadruple(2, "c_plane", rng))
        rep = classify(m)
        assert rep.is_c_plane and rep.in_singular_set
        assert sum(rep.face_on_chain) >= 2
        assert abs(abs(m.cartan) - HALF_PI) <= 1e-8
        assert abs(m.x1.imag) <= 1e-8 and abs(m.x2.imag) <= 1e-8
        assert abs(m.x1.real + m.x2.real - 1.0) <= 1e-8
    for _ in range(25):
        m = moduli_coordinates(random_quadruple(2, "r_plane", rng))
        rep = classify(m)
        assert rep.is_r_plane
        assert m.x1.real > 0 and m.x2.real > 0
        assert abs(m.cartan) <= 1e-8


def test_chain_moduli_reconstruct_classify():
    rng = np.random.default_rng(38)
    for _ in range(25):
        m = random_chain_moduli(rng, sign=1.0)
        assert in_moduli_space(m, 2)
        lifts = reconstruct(m, 2)
        back = moduli_coordinates([point_from_lift(P) for P in lifts])
        rep = classify(back)
        assert rep.is_c_plane
        assert abs(abs(back.cartan) - HALF_PI) <= 1e-8
        assert abs(back.x1.real + back.x2.real - 1.0) <= 1e-8


def test_positivity_check():
    with pytest.raises(PreconditionViolated):
        positivity_check(ModuliPoint(0.5, 0.5, 0.0))
    with pytest.raises(PreconditionViolated):
        positivity_check(ModuliPoint(0.5, 0.5, -HALF_PI))
    rng = np.random.default_rng(39)
    for _ in range(200):
        assert positivity_check(random_moduli_point(rng))


def test_dimension_dichotomy():
    rng = np.random.default_rng(40)
    strict = 0
    for _ in range(200):
        m = moduli_coordinates(random_quadruple(3, "generic", rng))
        F = moduli_residual(m)
        assert F <= 1e-7 * residual_scale(m)
        if F < -1e-6:
            strict += 1
    assert strict >= 190
    for _ in range(100):
        m = moduli_coordinates(random_quadruple(3, "subspace2", rng))
        assert abs(moduli_residual(m)) <= 1e-8 * residual_scale(m)


# F's squares overflow at |X1| = 1e200; at X1 = X2 = 1.3e154 its middle term does, where F
# read -inf and its scale inf, so that every verdict held F to an infinite tolerance
OVERFLOWING_F = [(1e200, 1.0, "1e+200", "1.0"), (1.3e154, 1.3e154, "1.3e+154", "1.3e+154")]
READERS_OF_F = {
    "moduli_residual": moduli_residual,
    "residual_scale": residual_scale,
    "real_slice_residual": lambda m: real_slice_residual(m.x1.real, m.x2.real, m.cartan),
    "det_from_moduli": det_from_moduli,
    "in_moduli_space_2": lambda m: in_moduli_space(m, 2),
    "in_moduli_space_3": lambda m: in_moduli_space(m, 3),
    "classify": classify,
    "positivity_check": positivity_check,
    "reconstruct": lambda m: reconstruct(m, 3),
}


@pytest.mark.parametrize("x1, x2, r1, r2", OVERFLOWING_F)
@pytest.mark.parametrize("reader", list(READERS_OF_F))
def test_an_overflowing_f_is_an_overflow_error_naming_x1_and_x2(reader, x1, x2, r1, r2):
    message = f"F leaves the float range at |X1| = {r1}, |X2| = {r2}"
    with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
        READERS_OF_F[reader](ModuliPoint(x1, x2, 0.0))


def test_random_moduli_point_accepts_a_draw_by_one_reading_of_f(monkeypatch):
    import chquad.sampling

    reader, calls = chquad.sampling._residual, []
    monkeypatch.setattr(chquad.sampling, "_residual",
                        lambda *args: calls.append(args) or reader(*args))
    m = random_moduli_point(np.random.default_rng(41))
    assert calls[-1] == (m.x1, m.x2, m.cartan)
    F, scale = reader(*calls[-1])
    assert abs(F) <= 1e-10 * scale
    for args in calls[:-1]:  # each earlier candidate was off the locus
        F, scale = reader(*args)
        assert abs(F) > 1e-10 * scale
