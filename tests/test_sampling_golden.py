"""Golden values of the seeded samplers.

The samplers promise fixed outputs for a fixed seed: tests, acceptance
sweeps and `chquad sample --seed` depend on it.  The values below were
recorded before the samplers moved from per-element numpy calls to
Python complex arithmetic, which consumes the same generator draws; a
rewrite may move them by rounding only.
"""

import json

import numpy as np
import pytest

from chquad.cli import main
from chquad.hermitian import apply_isometry_point
from chquad.sampling import KINDS, random_isometry, random_moduli_point, random_quadruple

REL = 1e-12
REL_ISOMETRY = 1e-11  # values that went through a random isometry's Gram-Schmidt

# random_quadruple(n, kind, default_rng(5)); None is the point at infinity,
# a finite point is (z, t).
QUADRUPLES = {
    (2, "generic"): (
        (((-1.324358995628145-0.24836162209524854j),), 0.4204452380655215),
        None,
        (((-0.5526473205362324-0.7847803553442784j),), 0.7487457707345911),
        (((0.27276877584472176-1.2333286640307717j),), -0.9582652054360887),
    ),
    (2, "c_plane"): (
        ((0j,), -0.8019314252534474),
        None,
        ((0j,), -0.24836162209524854),
        ((0j,), 0.4204452380655215),
    ),
    (2, "r_plane"): (
        (((-0.8019314252534474+0j),), 0.0),
        (((-1.324358995628145+0j),), 0.0),
        (((-0.24836162209524854+0j),), 0.0),
        (((0.4204452380655215+0j),), 0.0),
    ),
    (2, "subspace2"): (
        (((-1.324358995628145-0.24836162209524854j),), 0.4204452380655215),
        None,
        (((-0.5526473205362324-0.7847803553442784j),), 0.7487457707345911),
        (((0.27276877584472176-1.2333286640307717j),), -0.9582652054360887),
    ),
    (3, "generic"): (
        ((
            (-1.324358995628145+0.4204452380655215j),
            (-0.24836162209524854+1.1360465324896427j),
         ), 0.10970639932180819),
        ((
            (-0.7847803553442784+1.6347830429585775j),
            (0.7487457707345911+0.27276877584472176j),
         ), -1.2333286640307717),
        ((
            (1.6000190889991115-1.7321348424395848j),
            (0.2028824405086084-0.08369619281702581j),
         ), -1.1632259734447485),
        ((
            (-0.48800582327685743+0.5533784703532895j),
            (-0.7133133716322436-0.06308597192528916j),
         ), -0.5894312580326048),
    ),
    (3, "c_plane"): (
        ((0j, 0j), -0.8019314252534474),
        None,
        ((0j, 0j), -0.24836162209524854),
        ((0j, 0j), 0.4204452380655215),
    ),
    (3, "r_plane"): (
        (((-0.8019314252534474+0j), 0j), 0.0),
        (((-1.324358995628145+0j), 0j), 0.0),
        (((-0.24836162209524854+0j), 0j), 0.0),
        (((0.4204452380655215+0j), 0j), 0.0),
    ),
    (3, "subspace2"): (
        (((-1.324358995628145-0.24836162209524854j), 0j), 0.4204452380655215),
        None,
        (((-0.5526473205362324-0.7847803553442784j), 0j), 0.7487457707345911),
        (((0.27276877584472176-1.2333286640307717j), 0j), -0.9582652054360887),
    ),
}

# random_isometry(n, default_rng(5)).matrix, row by row
ISOMETRIES = {
    2: (
        (
            (-0.7597286316672169-0.49819072502584094j),
            (-0.4696987209858235-0.9390337527736795j),
            (0.22027755925321904+0.7704869856290812j),
        ),
        (
            (-0.36812765633360517+0.3550141252008994j),
            (0.42247592201198475+0.22462596292379788j),
            (-0.5938440392904202+0.470173465757788j),
        ),
        (
            (-0.15182057088614218+0.4940255256466581j),
            (-0.516788953842591-0.15206431610056134j),
            (-0.13250371815254688-0.33442397422810044j),
        ),
    ),
    3: (
        (
            (-0.269194003544376-0.4391362260613053j),
            (-0.23503824072551482-0.7175808108013929j),
            (-0.12819228396882598+0.03167392109532149j),
            (0.05836398778808067+0.6332650206268841j),
        ),
        (
            (-0.8923450565127646+0.30837679092769094j),
            (-0.6265899362078549+0.507291893406091j),
            (0.4813997668725218-0.029406382596439715j),
            (-0.14273596836381428-0.2226334142296853j),
        ),
        (
            (-0.2934034314112013-0.24926050089507787j),
            (-0.4751644344860903+0.07383476437966997j),
            (-0.6328620100241897-0.579181611569048j),
            (0.09929110749677145-0.18267280180025516j),
        ),
        (
            (0.1824619424803175+1.0718279869525318j),
            (0.48602007238498257-0.2419753808978567j),
            (-0.15434629965091545-0.1286254252853212j),
            (-0.8580137706798329-0.010274576559594219j),
        ),
    ),
}

# g . p for the generic n = 3 quadruple and the isometry g drawn in turn from default_rng(7)
MOVED = (
    ((
        (0.3154396720278702+0.012763424527587833j),
        (0.061018681429863525-0.49181974446458054j),
     ), 0.17192664300337523),
    ((
        (0.557550526660451+0.20341625347384126j),
        (-0.10246677799199468-0.5326304452550402j),
     ), 0.14201212012335598),
    ((
        (0.38408551927228457-0.022208397812306862j),
        (0.18210862997199392-0.43339060522623946j),
     ), -0.13492664217645764),
    ((
        (0.4495970505546532+0.11203132655717658j),
        (0.09648020934301971-0.46489012422198145j),
     ), 0.05954943443631003),
)

# (X1, X2, A) of random_moduli_point(default_rng(5))
MODULI = (
    (1.350388867744626-0.3965507651729716j),
    (2.849447660132971-2.795796587326536j),
    0.425059402329907,
)

# the first line of `chquad sample --n 3 --kind subspace2 --count 2 --seed 7`
SAMPLE_LINE = {
    "n": 3, "kind": "subspace2", "seed": 7, "index": 0,
    "points": [
        {"type": "finite", "z": [[1.4650846344213506, -0.43929262819424664], [0.0, 0.0]],
         "t": 2.13635728361371},
        {"type": "finite", "z": [[0.6751928519270304, 0.2884612800439013], [0.0, 0.0]],
         "t": -1.9166466632376802},
        {"type": "infinity"},
        {"type": "finite", "z": [[-0.5131822700667182, 0.45275421404332616], [0.0, 0.0]],
         "t": -1.0769092026465903},
    ],
}


def plain(p):
    """A BoundaryPoint in the form of the tables above."""
    return None if p.at_infinity else (p.z, p.t)


def flat(points) -> list:
    """The real coordinates of (z, t) points in a row; None stays None."""
    out = []
    for p in points:
        if p is None:
            out.append(None)
        else:
            z, t = p
            out += [c for v in z for c in (v.real, v.imag)] + [t]
    return out


def assert_close(got, want, rel):
    """Entry-wise |got - want| <= rel * (largest magnitude in want); None must match None."""
    assert len(got) == len(want)
    scale = max(abs(w) for w in want if w is not None)
    for g, w in zip(got, want):
        if w is None or g is None:
            assert g is w
        else:
            assert abs(g - w) <= rel * scale, (g, w)


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("kind", KINDS)
def test_random_quadruple_golden(kind, n):
    got = random_quadruple(n, kind, np.random.default_rng(5))
    assert_close(flat(map(plain, got)), flat(QUADRUPLES[n, kind]), REL)


@pytest.mark.parametrize("n", (2, 3))
def test_random_isometry_golden(n):
    got = random_isometry(n, np.random.default_rng(5)).matrix
    assert_close(list(got.ravel()), [v for row in ISOMETRIES[n] for v in row], REL_ISOMETRY)


def test_apply_isometry_point_golden():
    gen = np.random.default_rng(7)
    points = random_quadruple(3, "generic", gen)
    g = random_isometry(3, gen)
    assert any(p.at_infinity for p in points)  # the point at infinity moves too
    moved = [plain(apply_isometry_point(g, p)) for p in points]
    assert_close(flat(moved), flat(MOVED), REL_ISOMETRY)


def test_random_moduli_point_golden():
    m = random_moduli_point(np.random.default_rng(5))
    assert_close([m.x1, m.x2, m.cartan], list(MODULI), REL)


def test_sample_command_golden(capsys):
    assert main(["sample", "--n", "3", "--kind", "subspace2", "--count", "2", "--seed", "7"]) == 0
    line = json.loads(capsys.readouterr().out.splitlines()[0])
    want = dict(SAMPLE_LINE)

    def points(obj):
        return [None if p["type"] == "infinity" else ([complex(*v) for v in p["z"]], p["t"])
                for p in obj.pop("points")]

    assert_close(flat(points(line)), flat(points(want)), REL)
    assert line == want
