"""The caller's NumericConfig reaches every value and every verdict.

There is no process-wide tolerance: ``NormalizedGram``, ``ModuliPoint``
and ``Isometry`` validate with the config they were built with.  A
function passes its own config to every value it builds, and a value
derived from another keeps that value's config.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from chquad import (
    FACES,
    BoundaryPoint,
    CoincidentPoints,
    CrossRatioTriple,
    DegenerateEntry,
    GramMatrix,
    HermitianVector,
    InvalidFace,
    InvalidParameter,
    Isometry,
    ModuliPoint,
    NormalizedGram,
    NotIsometry,
    NotNormalForm,
    NumericConfig,
    ZeroCrossRatio,
    certify_noninjectivity,
    classify,
    det_face,
    face_dets_from_moduli,
    gram_from_moduli,
    gram_of,
    moduli_coordinates,
    moduli_from_gram,
    normalize,
    random_isometry,
    random_quadruple,
    reconstruct,
)
from chquad.gram import normalized_gram_of_points
from chquad.hermitian import standard_lifts

FINE = NumericConfig(abs_tol=1e-12, rel_tol=1e-9)
SRC = Path(__file__).resolve().parent.parent / "src" / "chquad"

# r_plane draws 783 and 1213 of random_quadruple(2, "r_plane", default_rng(1)):
# X1 = 6.0e-10 and X2 = 6.8e-11, below the default abs_tol of 1e-9
R_PLANE_DRAWS = {
    783: (1.4193366166859114, -0.503215409101985, 1.2718195744787137, -0.502647964238011),
    1213: (-0.33816008377899204, -0.33797404391957386, -1.8496494151307377, -1.754955529255183),
}


def r_plane(xs):
    return tuple(BoundaryPoint.finite([x], 0.0) for x in xs)


@pytest.mark.parametrize("draw", sorted(R_PLANE_DRAWS))
def test_moduli_coordinates_use_the_callers_config(draw):
    q = r_plane(R_PLANE_DRAWS[draw])
    with pytest.raises(ZeroCrossRatio):
        moduli_coordinates(q)  # the default tolerance is not widened
    m = moduli_coordinates(q, FINE)
    assert m.cfg is FINE
    assert min(abs(m.x1), abs(m.x2)) < 1e-9
    report = classify(m, FINE)
    assert report.det_sign == "zero" and report.is_r_plane


def test_normalize_uses_the_callers_config():
    # the normal form of (X1, X2, A) = (1e-10, 1, 0.2), indices 2 and 4 scaled by 1e6,
    # so that every entry is far above GramMatrix's threshold
    want = gram_from_moduli(ModuliPoint(1e-10, 1.0, 0.2, FINE))
    lam = np.array([1.0, 1e6, 1.0, 1e6])
    G = GramMatrix(4, lam[:, None] * want.matrix() * lam[None, :])
    with pytest.raises(ZeroCrossRatio):
        normalize(G)  # X1 = 1e-10 is below the default abs_tol
    got = normalize(G, FINE)
    assert got.cfg is FINE
    assert got.isclose(want, FINE)
    assert moduli_from_gram(got, FINE).isclose(ModuliPoint(1e-10, 1.0, 0.2, FINE), FINE)


def test_isometry_uses_its_config():
    g = random_isometry(2, np.random.default_rng(0))
    M = g.matrix * (1 + 1e-7)
    with pytest.raises(NotIsometry):
        Isometry(2, M)
    coarse = NumericConfig(1e-9, 1e-5)
    h = Isometry(2, M, coarse)
    assert h.cfg is coarse
    assert (h @ h).cfg is h.cfg
    assert (h @ g).cfg is coarse
    with pytest.raises(NotIsometry):
        g @ h  # a composite takes the config of its left factor


def test_values_keep_the_config_they_were_built_with():
    m = ModuliPoint(0.7 + 0.2j, 1.3 - 0.4j, 0.3, FINE)
    ng = gram_from_moduli(m)
    assert ng.cfg is FINE and ng.conjugate().cfg is FINE
    assert moduli_from_gram(ng, FINE).cfg is FINE
    assert moduli_from_gram(ng).cfg is None
    obj = m.to_json()
    assert ModuliPoint.from_json(obj, "moduli", FINE).cfg is FINE
    assert ModuliPoint.from_json(obj).cfg is None
    # cfg takes no part in equality or repr
    assert ModuliPoint.from_json(obj) == ModuliPoint.from_json(obj, "moduli", FINE)
    assert "cfg" not in repr(m) and "cfg" not in repr(ng)
    cert = certify_noninjectivity(2.0, FINE)
    assert cert.moduli.cfg is FINE and cert.mirror_moduli.cfg is FINE


def test_parsers_take_the_callers_config():
    # values that pass only a finer config can be read back with it
    q = random_quadruple(3, "generic", np.random.default_rng(3))
    lifts = [P.scaled(1e-6) for P in standard_lifts(q)]
    tiny = NumericConfig(abs_tol=1e-30, rel_tol=1e-9)
    G = gram_of(lifts, tiny)
    with pytest.raises(CoincidentPoints):
        GramMatrix.from_json(G.to_json())
    assert GramMatrix.from_json(G.to_json(), tiny).rows == G.rows
    ng = gram_from_moduli(ModuliPoint(1e-10, 1.0, 0.2, FINE))
    with pytest.raises(DegenerateEntry):
        NormalizedGram.from_json(ng.to_json())
    assert NormalizedGram.from_json(ng.to_json(), FINE) == ng


def test_reconstruct_uses_the_callers_config():
    m = ModuliPoint(1e-10, 1.0, 0.2, FINE)
    lifts = reconstruct(m, 3, FINE)
    assert len(lifts) == 4


@pytest.mark.parametrize("m", [ModuliPoint(1e-8, 100.0, 0.3), ModuliPoint(0.5, 1e10, 0.1)])
def test_moduli_points_with_extreme_ratios_round_trip(m):
    classify(m)
    face_dets_from_moduli(m)
    assert moduli_from_gram(gram_from_moduli(m)).isclose(m)


def test_normal_form_guard_is_the_image_of_the_moduli_guard():
    with pytest.raises(DegenerateEntry, match="g14 and g24 must be nonzero"):
        NormalizedGram(-1, 0, 1)
    # |X2| = 1/|g14| and |X1| = |g24|/|g14| must exceed abs_tol = 1e-9
    NormalizedGram(-1, 5e8, 1.0)
    with pytest.raises(DegenerateEntry):
        NormalizedGram(-1, 2e9, 1.0)
    NormalizedGram(-1, 1e-3, 2e-12)
    with pytest.raises(DegenerateEntry):
        NormalizedGram(-1, 1e-3, 5e-13)
    for x1, x2 in ((2e-9, 1.0), (1.0, 2e-9), (0.5e-9, 1.0), (1.0, 0.5e-9)):
        valid = min(x1, x2) > 1e-9
        try:
            ModuliPoint(x1, x2, 0.2)
        except ZeroCrossRatio:
            assert not valid
        else:
            assert valid
        g14, g24 = 1.0 / x2, -(x1 / x2) * complex(math.cos(0.2), math.sin(0.2))
        if valid:
            NormalizedGram(-1, g14, g24)
        else:
            with pytest.raises(DegenerateEntry):
                NormalizedGram(-1, g14, g24)


def test_normal_form_guard_with_zero_abs_tol():
    exact = NumericConfig(abs_tol=0.0, rel_tol=1e-9)
    for g14, g24 in ((0, 1), (1, 0), (0, 0)):
        with pytest.raises(DegenerateEntry):
            NormalizedGram(-1, g14, g24, exact)
    NormalizedGram(-1, 1e-300, 1e-300, exact)
    NormalizedGram(-1, 1e300, 1e-300, exact)
    ModuliPoint(1e-300, 1e-300, 0.0, exact)


NAN, INF = math.nan, math.inf


# each value's finiteness check runs first: (nan, 0, 0) would fail the next check too
@pytest.mark.parametrize("fields", [(NAN, 1, 0), (1, INF, 0), (1, 1, NAN), (1, 1, -INF),
                                    (complex(0, NAN), 1, 0), (NAN, 0, 0)])
def test_moduli_point_rejects_non_finite_fields(fields):
    with pytest.raises(InvalidParameter, match="moduli coordinates must be finite"):
        ModuliPoint(*fields)


@pytest.mark.parametrize("fields", [(NAN, 1, 1), (1, 1, INF), (1j, 2, complex(0, NAN)),
                                    (-1, complex(INF, 0), 1), (NAN, 0, 0)])
def test_normal_form_rejects_non_finite_fields(fields):
    with pytest.raises(InvalidParameter, match="normal form entries must be finite"):
        NormalizedGram(*fields)


# points 1 and 3 coincide; the kernel reported that as an overflow or an underflow under
# the first three configs
COINCIDENT = (BoundaryPoint.finite([0.3], 0.1), BoundaryPoint.infinity(),
              BoundaryPoint.finite([0.3], 0.1), BoundaryPoint.finite([1.0], 0.5))


@pytest.mark.parametrize("tols", [(NAN, 1e-9), (-1.0, 0.0), (0.0, INF), (1e-9, NAN)])
def test_a_tolerance_outside_zero_to_infinity_is_refused(tols):
    with pytest.raises(InvalidParameter) as info:
        moduli_coordinates(COINCIDENT, NumericConfig(*tols))
    assert str(info.value) == f"abs_tol={tols[0]!r}, rel_tol={tols[1]!r}: need 0 <= tol < inf"
    with pytest.raises(CoincidentPoints):
        moduli_coordinates(COINCIDENT, NumericConfig(0, 0))


BIG = complex(1.5e308, 1.5e308)  # finite parts, a modulus beyond the float range


@pytest.mark.parametrize("build,field", [
    pytest.param(lambda: ModuliPoint(BIG, 0.5, 0.1), "X1", id="moduli-x1"),
    pytest.param(lambda: ModuliPoint(0.5, BIG, 0.1), "X2", id="moduli-x2"),
    pytest.param(lambda: NormalizedGram(BIG, 1, 1), "g13", id="normal-g13"),
    pytest.param(lambda: NormalizedGram(-1, BIG, 1), "g14", id="normal-g14"),
    pytest.param(lambda: NormalizedGram(-1, 1, BIG), "g24", id="normal-g24"),
    pytest.param(lambda: GramMatrix(3, [[0, 1, BIG], [1, 0, 1], [BIG.conjugate(), 1, 0]]),
                 "g13", id="gram-g13"),
    pytest.param(lambda: GramMatrix(3, [[0, 1, 1], [1, 0, 1], [1, BIG, 0]]), "g32",
                 id="gram-g32"),
    pytest.param(lambda: CrossRatioTriple(BIG, 1, 1).isclose(CrossRatioTriple(1, 1, 1)), "X1",
                 id="triple-isclose-self"),
    pytest.param(lambda: CrossRatioTriple(1, 1, 1).isclose(CrossRatioTriple(1, 1, BIG)), "X3",
                 id="triple-isclose-other"),
    pytest.param(lambda: BoundaryPoint.finite([0], 0).isclose(BoundaryPoint.finite([BIG], 0)),
                 "z1", id="point-isclose"),
    pytest.param(lambda: HermitianVector(1, [BIG, 1]).proportional_to(HermitianVector(1, [1, 1])),
                 "z1", id="proportional-to"),
])
def test_value_overflow_names_the_field_and_magnitude(build, field):
    with pytest.raises(OverflowError, match=rf"^\|{field}\| overflows for parts of magnitude "
                                            r"1\.5e\+308$"):
        build()


HUGE = complex(0.8e308, 0.8e308)  # a finite modulus, but not that of HUGE - (-HUGE)


def _hermitian(rows) -> bool:
    try:
        GramMatrix(3, rows)
    except InvalidParameter as e:
        assert str(e) == "Gram matrix must be Hermitian"
        return False
    return True


@pytest.mark.parametrize("verdict", [
    pytest.param(lambda: ModuliPoint(HUGE, 1, 0).isclose(ModuliPoint(-HUGE, 1, 0)), id="moduli"),
    pytest.param(lambda: NormalizedGram(-1, 1, HUGE).isclose(NormalizedGram(-1, 1, -HUGE)),
                 id="normal-form"),
    pytest.param(lambda: CrossRatioTriple(1, HUGE, 1).isclose(CrossRatioTriple(1, -HUGE, 1)),
                 id="triple"),
    pytest.param(lambda: BoundaryPoint.finite([HUGE], 0).isclose(BoundaryPoint.finite([-HUGE], 0)),
                 id="point"),
    pytest.param(lambda: _hermitian([[0, 0.9e308 + 0.9e308j, 1], [-0.5e308 + 0.5e308j, 0, 1],
                                     [1, 1, 0]]), id="gram-hermitian"),
    pytest.param(lambda: HermitianVector(1, [1, 0.5]).proportional_to(
        HermitianVector(1, [1e-300, 1.5e8 + 1.5e8j]), NumericConfig(0, 0)), id="proportional-to"),
])
def test_a_difference_beyond_the_float_range_is_not_close(verdict):
    # |a - b| overflows although a and b are finite: it exceeds any finite tolerance
    assert verdict() is False


def test_value_overflow_keeps_the_check_order():
    # an earlier check that fails without reading the overflowing field still decides
    with pytest.raises(ZeroCrossRatio):
        ModuliPoint(1e-12, BIG, 0.1)
    with pytest.raises(NotNormalForm):
        NormalizedGram(2, BIG, 1)
    with pytest.raises(DegenerateEntry):
        NormalizedGram(-1, 0, BIG)


def test_rows_hold_the_matrix_entries():
    ng = normalized_gram_of_points(random_quadruple(3, "generic", np.random.default_rng(2)))
    rows = ng.rows
    assert rows == tuple(map(tuple, ng.matrix().tolist()))
    assert all(type(v) is complex for row in rows for v in row)
    assert rows[0][0] == 0j and rows[0][1] == 1 + 0j and rows[2][3] == 1 + 0j


def test_det_face_matches_the_expanded_formulas():
    rng = np.random.default_rng(6)
    for _ in range(200):
        ng = normalized_gram_of_points(random_quadruple(3, "generic", rng))
        g13, g14, g24 = ng.g13, ng.g14, ng.g24
        want = (2.0 * g13.conjugate().real, 2.0 * (g24 * g14.conjugate()).real,
                2.0 * (g13 * g14.conjugate()).real, 2.0 * g24.conjugate().real)
        assert tuple(det_face(ng, face) for face in FACES) == want
        m = moduli_from_gram(ng)
        assert face_dets_from_moduli(m) == tuple(det_face(gram_from_moduli(m), f) for f in FACES)


def test_det_face_accepts_any_spelling_of_a_face():
    ng = NormalizedGram(-1.0, 1.0, -1.0)
    want = det_face(ng, (1, 2, 4))
    assert det_face(ng, [1, 2, 4]) == want
    assert det_face(ng, np.array([1, 2, 4])) == want
    with pytest.raises(InvalidFace):
        det_face(ng, (1, 2, 5))
    with pytest.raises(InvalidFace):
        det_face(ng, (2, 1, 3))


def _process_state(path):
    """Lines of path that hold a global or nonlocal statement or a resolve(None) call."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            found.append(node.lineno)
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", getattr(node.func, "attr", None)) == "resolve"
              and any(isinstance(a, ast.Constant) and a.value is None for a in node.args)):
            found.append(node.lineno)
    return sorted(found)


def test_no_process_state_in_the_package():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    offenders = {f.name: lines for f in files if (lines := _process_state(f))}
    assert offenders == {}


def test_process_state_check_catches_each_form(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("x = 0\n\ndef f():\n    global x\n\n"
                   "def g():\n    y = 0\n    def h():\n        nonlocal y\n\n"
                   "def k():\n    return resolve(None), numeric.resolve(None), resolve(cfg)\n")
    assert _process_state(bad) == [4, 9, 12, 12]
