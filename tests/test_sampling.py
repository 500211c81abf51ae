import json
import math

import numpy as np
import pytest

from chquad import (
    BoundaryPoint,
    HermitianVector,
    InvalidParameter,
    Isometry,
    NumericConfig,
    form_matrix,
    gram_of,
    in_moduli_space,
    moduli_coordinates,
    moduli_residual,
    reconstruct,
    signature_basis,
    standard_lift,
)
from chquad.hermitian import _form
from chquad.sampling import (
    KINDS,
    random_boundary_point,
    random_chain_moduli,
    random_isometry,
    random_moduli_point,
    random_quadruple,
)


def test_boundary_point_determinism():
    a = [random_boundary_point(2, np.random.default_rng(99)) for _ in range(20)]
    b = [random_boundary_point(2, np.random.default_rng(99)) for _ in range(20)]
    assert a == b


def test_boundary_point_golden_value():
    p = random_boundary_point(2, np.random.default_rng(123))
    assert not p.at_infinity
    assert abs(p.z[0] - (-0.3677866514678832 + 1.2879252612892487j)) < 1e-15
    assert abs(p.t - 0.1939744191326132) < 1e-15


def test_boundary_point_dimension_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = random_boundary_point(1, rng)
        if not p.at_infinity:
            assert p.z == ()


def test_boundary_point_lift_null():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        P = standard_lift(random_boundary_point(n, rng), n)
        assert abs(_form(P.values, P.values)) <= 1e-10 * (1.0 + P.scale() ** 2)


def test_quadruple_determinism():
    a = random_quadruple(3, "generic", np.random.default_rng(5))
    b = random_quadruple(3, "generic", np.random.default_rng(5))
    assert a == b


def test_quadruple_distinctness():
    # distinct means what gram_of and ModuliPoint decide, with the config of the draw
    rng = np.random.default_rng(2)
    for cfg in (None, NumericConfig(1e-2, 1e-2), NumericConfig(1e-12, 1e-12)):
        for kind in KINDS:
            for n in (2, 3):
                for _ in range(20):
                    moduli_coordinates(random_quadruple(n, kind, rng, cfg), cfg)


# The x of each point (z = (x, 0, ...), t = 0) of draw 1718 of random_quadruple(2, "r_plane",
# default_rng(1)) under a chordal-distance rule.  Its |g13| = 4.9e-9 passes gram_of's
# tol(s1 s3) = 2.9e-9, but not the tol(max |g|) = 5.7e-9 of GramMatrix's own checks.
# Draws 783 and 1213, whose X1 or X2 is below the default abs_tol, are in test_config.py.
DRAW_1718 = (-0.973844624346595, -1.4018423690781279, -0.9737744305577112, 0.7728522137124093)


@pytest.mark.parametrize("n", [2, 3])
def test_points_distinct_by_the_pairwise_rule_have_moduli(n):
    m = moduli_coordinates([BoundaryPoint.finite([x] + [0.0] * (n - 2), 0.0) for x in DRAW_1718])
    assert 4e-8 < abs(m.x1) < 5e-8


@pytest.mark.parametrize("n", [2, 3])
def test_every_r_plane_draw_is_accepted(n):
    # covers draws 783 and 1213 (ZeroCrossRatio) and 1718 (CoincidentPoints) of that stream
    rng = np.random.default_rng(1)
    for _ in range(2000):
        moduli_coordinates(random_quadruple(n, "r_plane", rng))


def test_quadruple_gram_valid():
    rng = np.random.default_rng(3)
    for kind in ("generic", "c_plane", "r_plane", "subspace2"):
        for _ in range(10):
            lifts = [standard_lift(x, 2 if kind != "subspace2" else 3)
                     for x in random_quadruple(2 if kind != "subspace2" else 3, kind, rng)]
            G = gram_of(lifts).entries
            assert np.max(np.abs(np.diag(G))) < 1e-9
            assert np.max(np.abs(G - G.conj().T)) < 1e-12


def test_quadruple_kind_validation():
    rng = np.random.default_rng(4)
    with pytest.raises(InvalidParameter):
        random_quadruple(2, "nonsense", rng)
    with pytest.raises(InvalidParameter):
        random_quadruple(1, "generic", rng)
    # a chain quadruple exists even on the circle at n = 1
    p = random_quadruple(1, "c_plane", rng)
    assert len(p) == 4


ON_F_ZERO = random_moduli_point(np.random.default_rng(0))  # realized in dimension 2
# each function that takes a dimension n, called with that n; a lift or a verdict goes
# through json.dumps, which refuses a numpy integer that leaks into it
TAKES_N = {
    "random_boundary_point": lambda n: random_boundary_point(n, np.random.default_rng(0)),
    "random_quadruple": lambda n: random_quadruple(n, "generic", np.random.default_rng(0)),
    "random_isometry": lambda n: random_isometry(n, np.random.default_rng(0)),
    "form_matrix": form_matrix,
    "signature_basis": signature_basis,
    "Isometry": lambda n: Isometry(n, np.eye(3)),
    "HermitianVector": lambda n: json.dumps(HermitianVector(n, [1, 0, 0]).to_json()),
    "standard_lift": lambda n: json.dumps(standard_lift(BoundaryPoint.infinity(), n).to_json()),
    "in_moduli_space": lambda n: json.dumps(in_moduli_space(ON_F_ZERO, n)),
    "reconstruct": lambda n: json.dumps([P.to_json() for P in reconstruct(ON_F_ZERO, n)]),
}


@pytest.mark.parametrize("call", list(TAKES_N))
@pytest.mark.parametrize("n", [True, False, np.True_, 2.0, np.float64(2.0), "2", None, 2 + 0j])
def test_a_bool_or_non_integral_n_is_refused(call, n):
    # numpy reads a bool index as a mask: form_matrix(True) was [[1, 1], [0, 0]]
    with pytest.raises(InvalidParameter) as info:
        TAKES_N[call](n)
    assert str(info.value) == f"n must be an integer, got {n!r}"


@pytest.mark.parametrize("call", list(TAKES_N))
@pytest.mark.parametrize("n", [0, -1, np.int64(0)])
def test_an_n_below_one_is_refused(call, n):
    # form_matrix(0) was [[1]] and Isometry(0, [[1]]) built; form_matrix(-1) an IndexError
    with pytest.raises(InvalidParameter) as info:
        TAKES_N[call](n)
    assert str(info.value) == f"n must be >= 1, got {n}"


@pytest.mark.parametrize("call", list(TAKES_N))
@pytest.mark.parametrize("n", [np.int64(2), np.uint8(2)])
def test_a_numpy_integer_n_reads_as_its_int(call, n):
    got, want = TAKES_N[call](n), TAKES_N[call](2)
    if isinstance(want, Isometry):
        assert type(got.n) is int
        got, want = got.matrix, want.matrix
    assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


def test_random_isometry_preserves_form():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 5):
        g = random_isometry(n, rng)
        J = form_matrix(n)
        assert np.max(np.abs(g.matrix.conj().T @ J @ g.matrix - J)) < 1e-9


def test_random_isometry_composition_and_action():
    rng = np.random.default_rng(7)
    g = random_isometry(2, rng)
    h = random_isometry(2, rng)
    gh = g @ h
    J = form_matrix(2)
    assert np.max(np.abs(gh.matrix.conj().T @ J @ gh.matrix - J)) < 1e-8
    P = standard_lift(random_boundary_point(2, rng), 2)
    assert HermitianVector(2, gh.matrix @ P.coords).is_null()


def test_random_isometry_determinism():
    a = random_isometry(3, np.random.default_rng(8)).matrix
    b = random_isometry(3, np.random.default_rng(8)).matrix
    assert np.array_equal(a, b)


def test_random_moduli_point_on_variety():
    rng = np.random.default_rng(9)
    for _ in range(100):
        m = random_moduli_point(rng)
        assert abs(moduli_residual(m)) <= 1e-9 * (1 + abs(m.x1) ** 2 + abs(m.x2) ** 2)
        assert abs(m.cartan) < math.pi / 2 - 1e-3 + 1e-12
        assert in_moduli_space(m, 2)


def test_random_chain_moduli():
    rng = np.random.default_rng(10)
    for sign in (1.0, -1.0):
        m = random_chain_moduli(rng, sign=sign)
        assert m.cartan == math.copysign(math.pi / 2, sign)
        assert abs(m.x1.real + m.x2.real - 1.0) < 1e-12
        assert m.x1.imag == 0.0 and m.x2.imag == 0.0
        assert abs(moduli_residual(m)) < 1e-12
