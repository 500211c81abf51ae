"""Release gate: one test per acceptance criterion.

Each test prints a single PASS/FAIL line with its measured margin; run
with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import math
import time

import numpy as np

from chquad import (
    ModuliPoint,
    NormalizedGram,
    cartan,
    cartan_from_lifts,
    certify_noninjectivity,
    classify,
    congruent_antiholomorphic,
    congruent_holomorphic,
    counterexample_pair,
    cross_ratio_from_lifts,
    cross_ratio_triple,
    det_face,
    det_gram,
    det_from_moduli,
    face_dets_from_moduli,
    gram_from_moduli,
    gram_of,
    moduli_coordinates,
    moduli_residual,
    normalize,
    normalized_gram_of_points,
    point_from_lift,
    positivity_check,
    project_moduli,
    real_slice_residual,
    reconstruct,
    residual_scale,
    standard_lift,
)
from chquad.gram import FACES
from chquad.hermitian import apply_isometry_point
from chquad.sampling import (
    random_chain_moduli,
    random_isometry,
    random_moduli_point,
    random_quadruple,
)

HALF_PI = math.pi / 2.0


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_counterexample_reproduction():
    start = time.perf_counter()
    worst = 0.0
    for t in (2.0, 3.0, 0.5, 10.0):
        p, q = counterexample_pair(t)
        want = (1.0 / t, (t - 1.0) / t, 1.0 - t)
        for quad, a_want in ((p, -HALF_PI), (q, HALF_PI)):
            triple = cross_ratio_triple(quad)
            for got, ref in zip((triple.x1, triple.x2, triple.x3), want):
                worst = max(worst, abs(got - ref))
            worst = max(worst, abs(cartan(*quad[:3]) - a_want))
        assert not congruent_holomorphic(p, q)
        assert congruent_antiholomorphic(p, q)
        certify_noninjectivity(t)
    elapsed = time.perf_counter() - start
    _report("criterion 1 (counterexample family)",
            worst < 1e-10 and elapsed < 1.0,
            f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_defining_identity_dimension_two():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(10_000):
        m = moduli_coordinates(random_quadruple(2, "generic", rng))
        worst = max(worst, abs(moduli_residual(m)) / residual_scale(m))
    elapsed = time.perf_counter() - start
    _report("criterion 2 (F = 0 on 10000 dimension-2 quadruples)",
            worst < 1e-7 and elapsed < 10.0,
            f"max scaled |F| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_inequality_and_equality_clause():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    worst_pos = -np.inf
    for _ in range(10_000):
        m = moduli_coordinates(random_quadruple(3, "generic", rng))
        worst_pos = max(worst_pos, moduli_residual(m))
    worst_flat = 0.0
    for _ in range(1_000):
        m = moduli_coordinates(random_quadruple(3, "subspace2", rng))
        worst_flat = max(worst_flat, abs(moduli_residual(m)))
    elapsed = time.perf_counter() - start
    _report("criterion 3 (F <= 0 in dimension 3, = 0 on planar quadruples)",
            worst_pos <= 1e-7 and worst_flat < 1e-7 and elapsed < 20.0,
            f"max F = {worst_pos:.2e}, max planar |F| = {worst_flat:.2e}, {elapsed:.2f}s")


def test_criterion_4_bijectivity_round_trip():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(1_000):
        p = random_quadruple(2, "generic", rng)
        ng = normalize(gram_of(reconstruct(moduli_coordinates(p), 2)))
        ref = normalized_gram_of_points(p)
        worst = max(worst, abs(ng.g13 - ref.g13), abs(ng.g14 - ref.g14),
                    abs(ng.g24 - ref.g24))
    worst_inv = 0.0
    for _ in range(1_000):
        m = random_moduli_point(rng)
        back = moduli_coordinates([point_from_lift(P) for P in reconstruct(m, 2)])
        worst_inv = max(worst_inv, abs(back.x1 - m.x1), abs(back.x2 - m.x2),
                        abs(back.cartan - m.cartan))
    _report("criterion 4 (reconstruct inverts the moduli map)",
            worst < 1e-7 and worst_inv < 1e-7,
            f"max Gram deviation {worst:.2e}, max moduli deviation {worst_inv:.2e}")


def test_criterion_5_normal_form_uniqueness():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(1_000):
        lifts = [standard_lift(x, 2) for x in random_quadruple(2, "generic", rng)]
        ref = normalize(gram_of(lifts))
        for _ in range(10):
            lam = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            ng = normalize(gram_of([P.scaled(l) for P, l in zip(lifts, lam)]))
            worst = max(worst, abs(ng.g13 - ref.g13), abs(ng.g14 - ref.g14),
                        abs(ng.g24 - ref.g24))
    _report("criterion 5 (normal form is rescaling-invariant)",
            worst < 1e-9, f"max deviation {worst:.2e} over 10000 rescalings")


def test_criterion_6_determinant_formulas():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(10_000):
        g13 = np.exp(1j * rng.uniform(-np.pi, np.pi))
        g14 = complex(*rng.standard_normal(2))
        g24 = complex(*rng.standard_normal(2))
        if min(abs(g14), abs(g24)) < 1e-3:
            continue
        ng = NormalizedGram(g13, g14, g24)
        M = ng.matrix()
        direct = np.linalg.det(M).real
        worst = max(worst, abs(det_gram(ng) - direct) / max(1.0, abs(direct)))
        for face in FACES:
            idx = [i - 1 for i in face]
            sub = np.linalg.det(M[np.ix_(idx, idx)]).real
            worst = max(worst, abs(det_face(ng, face) - sub) / max(1.0, abs(sub)))
    for _ in range(10_000):
        m = ModuliPoint(complex(*rng.standard_normal(2)),
                        complex(*rng.standard_normal(2)),
                        rng.uniform(-HALF_PI, HALF_PI))
        ng = gram_from_moduli(m)
        M = ng.matrix()
        direct = np.linalg.det(M).real
        worst = max(worst, abs(det_from_moduli(m) - direct) / max(1.0, abs(direct)))
        for value, face in zip(face_dets_from_moduli(m), FACES):
            idx = [i - 1 for i in face]
            sub = np.linalg.det(M[np.ix_(idx, idx)]).real
            worst = max(worst, abs(value - sub) / max(1.0, abs(sub)))
    _report("criterion 6 (determinant formulas vs direct determinants)",
            worst < 1e-9, f"max relative deviation {worst:.2e}")


def test_criterion_7_invariance_suite():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for k in range(1_000):
        n = 2 if k % 2 == 0 else 3
        p = random_quadruple(n, "generic", rng)
        g = random_isometry(n, rng)
        moved = tuple(apply_isometry_point(g, x) for x in p)
        m0, m1 = moduli_coordinates(p), moduli_coordinates(moved)
        worst = max(worst,
                    abs(m0.x1 - m1.x1) / max(1.0, abs(m0.x1)),
                    abs(m0.x2 - m1.x2) / max(1.0, abs(m0.x2)),
                    abs(m0.cartan - m1.cartan))
        lifts = [standard_lift(x, n) for x in p]
        lam = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        scaled = [P.scaled(l) for P, l in zip(lifts, lam)]
        worst = max(worst, abs(cartan_from_lifts(*lifts[:3])
                               - cartan_from_lifts(*scaled[:3])))
        x0 = cross_ratio_from_lifts(*lifts)
        worst = max(worst,
                    abs(x0 - cross_ratio_from_lifts(*scaled)) / max(1.0, abs(x0)))
    _report("criterion 7 (invariance under isometries and rescalings)",
            worst < 1e-9, f"max deviation {worst:.2e} over 1000 trials")


def test_criterion_8_classification_fixtures():
    rng = np.random.default_rng(1008)
    ok = True
    detail = []
    for _ in range(200):
        m = moduli_coordinates(random_quadruple(2, "c_plane", rng))
        rep = classify(m)
        ok &= rep.is_c_plane and rep.in_singular_set
        ok &= abs(abs(m.cartan) - HALF_PI) <= 1e-8
        ok &= abs(m.x1.imag) <= 1e-8 and abs(m.x2.imag) <= 1e-8
        ok &= abs(m.x1.real + m.x2.real - 1.0) <= 1e-8
    detail.append("chain quadruples satisfy the chain predicate")
    fixture = ModuliPoint(0.25, 0.25, 0.0)
    ok &= abs(real_slice_residual(0.25, 0.25, 0.0)) <= 1e-12
    ok &= classify(fixture).is_r_plane
    for _ in range(200):
        m = moduli_coordinates(random_quadruple(2, "r_plane", rng))
        rep = classify(m)
        ok &= rep.is_r_plane and m.x1.real > 0 and m.x2.real > 0
        ok &= abs(m.cartan) <= 1e-8
    detail.append("R-circle quadruples satisfy the real-conic predicate")
    for _ in range(500):
        m = random_moduli_point(rng)
        ok &= positivity_check(m)
    detail.append("positivity holds on 500 on-variety samples")
    _report("criterion 8 (classification fixtures)", ok, "; ".join(detail))


def test_criterion_9_projection_collapse_at_scale():
    rng = np.random.default_rng(1009)
    worst = 0.0
    glued = 0
    for _ in range(1_000):
        up = random_chain_moduli(rng, sign=1.0)
        dn = ModuliPoint(up.x1, up.x2, -up.cartan)
        tu, td = project_moduli(up), project_moduli(dn)
        worst = max(worst, abs(tu.x1 - td.x1), abs(tu.x2 - td.x2), abs(tu.x3 - td.x3))
        pu = [point_from_lift(P) for P in reconstruct(up, 2)]
        pd = [point_from_lift(P) for P in reconstruct(dn, 2)]
        if not congruent_holomorphic(pu, pd):
            glued += 1
    _report("criterion 9 (projection glues distinct chain classes)",
            worst < 1e-12 and glued == 1_000,
            f"max projection gap {worst:.2e}, {glued}/1000 pairs non-congruent")
