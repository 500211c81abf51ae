import numpy as np
import pytest

from chquad import (
    CoincidentPoints,
    DegenerateEntry,
    GramMatrix,
    InvalidFace,
    InvalidParameter,
    NormalizedGram,
    NotNull,
    congruent_antiholomorphic,
    congruent_holomorphic,
    counterexample_pair,
    det_face,
    det_gram,
    gram_of,
    gram_of_points,
    normalize,
    normalized_gram_of_points,
    standard_lift,
)
from chquad.gram import FACES
from chquad.sampling import random_isometry, random_quadruple
from chquad.hermitian import _form, apply_isometry_point


def lifts_of(points, n):
    return [standard_lift(p, n) for p in points]


def witness_lifts(t=2.0):
    p, _ = counterexample_pair(t)
    return lifts_of(p, 2)


def test_gram_of_witness_family():
    G = gram_of(witness_lifts()).entries
    assert np.allclose(
        G[np.triu_indices(4, 1)],
        [1, -1j, -2j, 1, 1, -1j],
    )
    assert np.allclose(np.diag(G), 0)
    assert np.max(np.abs(G - G.conj().T)) < 1e-14


def test_gram_of_rescaled_lifts():
    rng = np.random.default_rng(5)
    lifts = lifts_of(random_quadruple(2, "generic", rng), 2)
    G = gram_of(lifts).entries
    lam = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    scaled = gram_of([P.scaled(l) for P, l in zip(lifts, lam)]).entries
    expected = lam[:, None] * lam.conjugate()[None, :] * G
    assert np.max(np.abs(scaled - expected)) < 1e-9 * np.max(np.abs(expected))


def test_gram_of_rejects_bad_input():
    lifts = witness_lifts()
    not_null = type(lifts[0])(2, np.array([1, 0, 1], dtype=complex))
    with pytest.raises(NotNull):
        gram_of([lifts[0], lifts[1], lifts[2], not_null])
    with pytest.raises(CoincidentPoints):
        gram_of([lifts[0], lifts[1], lifts[2], lifts[0].scaled(2.0)])


def test_gram_of_three_lifts():
    rng = np.random.default_rng(6)
    lifts = lifts_of(random_quadruple(3, "generic", rng), 3)[:3]
    G = gram_of(lifts)
    assert G.m == 3 and G.entries.shape == (3, 3)
    for i in range(3):
        assert G.entries[i, i] == 0
        for j in range(i + 1, 3):
            assert G.entries[i, j] == _form(lifts[i].values, lifts[j].values)
            assert G.entries[j, i] == _form(lifts[i].values, lifts[j].values).conjugate()
    for count in (2, 5):
        with pytest.raises(InvalidParameter):
            gram_of((lifts * 2)[:count])


def test_normalize_witness_family():
    ng = normalize(gram_of(witness_lifts()))
    assert abs(ng.g13 - (-1j)) < 1e-12
    assert abs(ng.g14 - 2.0) < 1e-12
    assert abs(ng.g24 - 1j) < 1e-12


def test_normalize_idempotent():
    ng = NormalizedGram(-1j, 2.0, 1j)
    again = normalize(GramMatrix(4, ng.matrix()))
    assert again.isclose(ng, None)


def test_normalize_class_invariance():
    rng = np.random.default_rng(6)
    for _ in range(200):
        lifts = lifts_of(random_quadruple(2, "generic", rng), 2)
        G = gram_of(lifts)
        ng = normalize(G)
        lam = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        scaled = lam[:, None] * lam.conjugate()[None, :] * G.entries
        ng2 = normalize(GramMatrix(4, scaled))
        for a, b in ((ng.g13, ng2.g13), (ng.g14, ng2.g14), (ng.g24, ng2.g24)):
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


def test_det_sign_invariant_under_rescaling():
    rng = np.random.default_rng(7)
    for n, kind in ((2, "generic"), (3, "generic"), (2, "c_plane")):
        lifts = lifts_of(random_quadruple(n, kind, rng), n)
        G = gram_of(lifts).entries
        base = np.linalg.det(G).real
        for _ in range(10):
            lam = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            d = np.linalg.det(lam[:, None] * lam.conjugate()[None, :] * G).real
            if abs(base) > 1e-10:
                assert np.sign(d) == np.sign(base)
            else:
                assert abs(d) < 1e-8


def test_det_gram_values():
    assert abs(det_gram(NormalizedGram(-1j, 2.0, 1j))) < 1e-12
    assert abs(det_gram(NormalizedGram(-1.0, 1.0, -1.0)) - (-3.0)) < 1e-12


def test_det_gram_generic_n3_negative():
    rng = np.random.default_rng(8)
    for _ in range(20):
        ng = normalized_gram_of_points(random_quadruple(3, "generic", rng))
        d = det_gram(ng)
        assert d < 0
        assert abs(d - np.linalg.det(ng.matrix()).real) <= 1e-9 * max(1.0, abs(d))


def test_det_face_values():
    assert abs(det_face(NormalizedGram(-1j, 2.0, 1j), (1, 2, 3))) < 1e-12
    assert abs(det_face(NormalizedGram(-1.0, 1.0, -1.0), (1, 2, 3)) - (-2.0)) < 1e-12
    assert abs(det_face(NormalizedGram(-1j, 2.0, 1j), (1, 2, 4))) < 1e-12
    with pytest.raises(InvalidFace):
        det_face(NormalizedGram(-1j, 2.0, 1j), (1, 2, 5))


def _random_normal_forms(rng, count):
    for _ in range(count):
        g13 = np.exp(1j * rng.uniform(-np.pi, np.pi))
        g14 = complex(rng.standard_normal(), rng.standard_normal())
        g24 = complex(rng.standard_normal(), rng.standard_normal())
        if min(abs(g14), abs(g24)) < 1e-3:
            continue
        yield NormalizedGram(g13, g14, g24)


def test_det_formulas_match_direct_determinants():
    rng = np.random.default_rng(9)
    for ng in _random_normal_forms(rng, 1000):
        M = ng.matrix()
        direct = np.linalg.det(M).real
        assert abs(det_gram(ng) - direct) <= 1e-9 * max(1.0, abs(direct))
        for face in FACES:
            idx = [i - 1 for i in face]
            sub = np.linalg.det(M[np.ix_(idx, idx)]).real
            assert abs(det_face(ng, face) - sub) <= 1e-9 * max(1.0, abs(sub))


def test_face_negativity_on_configurations():
    rng = np.random.default_rng(10)
    for kind in ("generic", "c_plane", "r_plane"):
        for _ in range(50):
            ng = normalized_gram_of_points(random_quadruple(2, kind, rng))
            for face in FACES:
                assert det_face(ng, face) <= 1e-9


def test_planar_quadruples_have_zero_determinant():
    rng = np.random.default_rng(11)
    for _ in range(50):
        ng = normalized_gram_of_points(random_quadruple(3, "subspace2", rng))
        assert abs(det_gram(ng)) <= 1e-8


def test_normalize_degenerate_entry():
    entries = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(i + 1, 4):
            entries[i, j] = 1.0
            entries[j, i] = 1.0
    entries[0, 1] = entries[1, 0] = 1e-15
    with pytest.raises((DegenerateEntry, CoincidentPoints)):
        normalize(GramMatrix(4, entries))


def test_normalize_needs_a_quadruple():
    p, _ = counterexample_pair(2.0)
    with pytest.raises(InvalidParameter,
                       match=r"^normalization is defined for quadruples \(m=4\)$"):
        normalize(gram_of_points(p[:3]))


def test_congruence_under_isometry():
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = random_quadruple(2, "generic", rng)
        g = random_isometry(2, rng)
        q = tuple(apply_isometry_point(g, x) for x in p)
        assert congruent_holomorphic(p, q)
        assert congruent_holomorphic(p, p)


def test_congruence_of_witness_pair():
    p, q = counterexample_pair(2.0)
    assert not congruent_holomorphic(p, q)
    assert congruent_antiholomorphic(p, q)


def test_antiholomorphic_self_congruence_needs_real_form():
    p, _ = counterexample_pair(2.0)
    rng = np.random.default_rng(13)
    generic = random_quadruple(2, "generic", rng)
    real_form = random_quadruple(2, "r_plane", rng)
    assert congruent_antiholomorphic(real_form, real_form)
    assert not congruent_antiholomorphic(generic, generic)


def test_gram_json_round_trip():
    G = gram_of(witness_lifts())
    back = GramMatrix.from_json(G.to_json())
    assert np.allclose(back.entries, G.entries)
    ng = NormalizedGram(-1j, 2.0, 1j)
    assert NormalizedGram.from_json(ng.to_json()).isclose(ng, None)


@pytest.mark.parametrize("entry,message", [
    ([1, 0, 2], "gram[0][1]: expected [re, im]"),
    ("x", "gram[0][1]: expected [re, im]"),
    ([1, "0"], "gram[0][1][1]: expected a number"),
])
def test_gram_from_json_names_the_malformed_entry(entry, message):
    rows = GramMatrix(4, [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]).to_json()
    rows[0][1] = entry
    with pytest.raises(ValueError) as info:
        GramMatrix.from_json(rows)
    assert str(info.value) == message


def test_gram_from_json_names_a_row_that_is_not_a_list():
    with pytest.raises(ValueError, match=r"^gram\[2\]: expected a list$"):
        GramMatrix.from_json([[[0, 0]] * 3, [[0, 0]] * 3, 7])
    with pytest.raises(ValueError, match=r"^gram: expected a list$"):
        GramMatrix.from_json({"rows": []})
