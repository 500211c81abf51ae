import math
import re

import numpy as np
import pytest

from chquad import (
    BoundaryPoint,
    DimensionMismatch,
    HermitianVector,
    Isometry,
    ModuliPoint,
    NotIsometry,
    NotNull,
    NumericConfig,
    ZeroVector,
    apply_isometry_point,
    form_matrix,
    gram_of,
    moduli_coordinates,
    point_from_lift,
    reconstruct,
    signature_basis,
    standard_lift,
)
from chquad.hermitian import _form
from chquad.sampling import KINDS, random_boundary_point, random_isometry, random_quadruple


def vec(n, *coords):
    return HermitianVector(n, np.array(coords, dtype=complex))


def herm_product(Z, W):
    """<Z, W> by the package's kernel of the form."""
    return _form(Z.values, W.values)


def act(g, Z):
    return HermitianVector(Z.n, g.matrix @ Z.coords)


def test_product_values():
    assert herm_product(vec(2, 0, 0, 1), vec(2, 1, 0, 0)) == 1
    assert herm_product(vec(2, 0, 0, 1), vec(2, 1j, 0, 1)) == -1j
    assert herm_product(vec(2, 1, 0, 0), vec(2, 1, 0, 0)) == 0


def test_product_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match="lifts live in different dimensions"):
        gram_of([vec(2, 0, 0, 1), vec(2, 1, 0, 0), vec(1, 1, 0)])


def test_conjugate_symmetry_and_sesquilinearity():
    rng = np.random.default_rng(0)
    for _ in range(200):
        Z = vec(3, *(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        W = vec(3, *(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        a = complex(rng.standard_normal(), rng.standard_normal())
        zw = herm_product(Z, W)
        assert abs(zw - herm_product(W, Z).conjugate()) <= 1e-12 * (1 + abs(zw))
        assert abs(herm_product(Z.scaled(a), W) - a * zw) <= 1e-12 * (1 + abs(a * zw))
        assert abs(herm_product(Z, W.scaled(a)) - a.conjugate() * zw) \
            <= 1e-12 * (1 + abs(a * zw))


def test_standard_lift_values():
    assert np.allclose(standard_lift(BoundaryPoint.finite([0], 0), 2).coords, [0, 0, 1])
    assert np.allclose(standard_lift(BoundaryPoint.infinity(), 2).coords, [1, 0, 0])
    assert np.allclose(standard_lift(BoundaryPoint.finite([0], 1), 2).coords, [1j, 0, 1])


def test_lift_nullity():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        p = random_boundary_point(n, rng)
        P = standard_lift(p, n)
        bound = 1e-10 * (1.0 + P.scale() ** 2)
        assert abs(herm_product(P, P)) <= bound


def test_lift_dimension_check():
    with pytest.raises(DimensionMismatch):
        standard_lift(BoundaryPoint.finite([0, 0], 0), 2)


def test_point_from_lift_values():
    assert point_from_lift(vec(2, 0, 0, 1)) == BoundaryPoint.finite([0], 0)
    p = point_from_lift(vec(2, 2j, 0, 1))
    assert p.isclose(BoundaryPoint.finite([0], 2))
    assert point_from_lift(vec(2, 5, 0, 0)).at_infinity


def test_point_from_lift_errors():
    with pytest.raises(ZeroVector):
        point_from_lift(vec(2, 0, 0, 0))
    with pytest.raises(NotNull):
        point_from_lift(vec(2, 1, 0, 1))


def test_null_test_raises_on_overflow():
    # <Z,Z> = 2e355 overflows to inf, which tol(s * s) = inf would call null
    with pytest.raises(OverflowError):
        vec(2, 1e200, 0, 1e155).is_null()
    with pytest.raises(OverflowError):
        point_from_lift(vec(2, 1e200, 0, 1e155))
    assert vec(2, 1e200, 0, 0).is_null()  # its form is a finite 0
    for coords in ((1, math.nan, 0), (math.nan, 1, 0)):  # NaN is not an overflow
        with pytest.raises(NotNull):
            point_from_lift(vec(2, *coords))


@pytest.mark.parametrize("s", [1e150, 1.34e154, 1.35e154, 1e155, 1e200, 1.5e308])
def test_an_exactly_null_lift_is_null_under_zero_rel_tol_at_every_scale(s):
    # s * s overflows above ~1.34e154; the bound must not read 0 * inf = NaN there
    zero = NumericConfig(0.0, 0.0)
    assert vec(2, s, 0, 0).is_null(zero)
    assert point_from_lift(vec(2, s, 0, 0), zero).at_infinity
    assert not vec(2, s, 0, 0.25).is_null(zero)  # <Z,Z> = s/2, finite and positive


@pytest.mark.parametrize("z,magnitude", [
    ([1e200], "1e+200"),
    ([1.5e308 + 1.5e308j], "1.5e+308"),  # |z| itself is beyond the float range
    ([1e154, -1e154j], "1e+154"),  # each square is finite, their sum is not
])
def test_lift_overflow_names_the_magnitude(z, magnitude):
    p = BoundaryPoint.finite(z, 0.0)
    n = len(z) + 1
    with pytest.raises(OverflowError, match=re.escape(f"magnitude {magnitude}") + "$"):
        standard_lift(p, n)
    others = [BoundaryPoint.infinity(), BoundaryPoint.finite([0] * (n - 1), 0.0),
              BoundaryPoint.finite([1] * (n - 1), 0.0)]
    with pytest.raises(OverflowError, match=re.escape(f"magnitude {magnitude}") + "$"):
        moduli_coordinates([p, *others])


@pytest.mark.parametrize("coords", [
    [1.5e308 + 1.5e308j, 0],
    [math.nan, 1.5e308 + 1.5e308j],  # a NaN does not hide the overflow
    [math.inf, -1.5e308 + 1.5e308j],  # nor does an infinite coordinate
])
def test_scale_overflow_names_the_magnitude(coords):
    # |v| is beyond the float range although both parts of v are finite
    Z = HermitianVector(1, coords)
    with pytest.raises(OverflowError, match=re.escape("magnitude 1.5e+308") + "$"):
        Z.scale()
    with pytest.raises(OverflowError, match=re.escape("magnitude 1.5e+308") + "$"):
        Z.is_null()


def test_gram_product_overflow_names_the_magnitude():
    # both parts of <P1,P2> are finite, but its modulus overflows
    quad = [BoundaryPoint.finite([0.57e154], 0.65e308), BoundaryPoint.finite([-0.57e154], -0.65e308),
            BoundaryPoint.infinity(), BoundaryPoint.finite([0], 0.0)]
    with pytest.raises(OverflowError, match=re.escape("<P1,P2> overflows for coordinates of "
                                                      "magnitude 6.5e+307") + "$"):
        moduli_coordinates(quad)
    lifts = [standard_lift(p, 2) for p in quad]  # the lifts path names the product's parts
    with pytest.raises(OverflowError, match=re.escape("|<P1,P2>| overflows for parts of "
                                                      "magnitude 1.3e+308") + "$"):
        gram_of(lifts)


def test_lift_scale_overflow_names_the_magnitude():
    # z = 1.2e154 gives a finite |z|^2 = 1.44e308, but |-|z|^2 + i t| overflows
    p = BoundaryPoint.finite([1.2e154], 1.5e308)
    quad = [p, BoundaryPoint.infinity(), BoundaryPoint.finite([0], 0.0),
            BoundaryPoint.finite([1], 0.0)]
    with pytest.raises(OverflowError, match=re.escape("magnitude 1.5e+308") + "$"):
        moduli_coordinates(quad)
    with pytest.raises(OverflowError, match=re.escape("magnitude 1.5e+308") + "$"):
        standard_lift(p, 2).scale()


def test_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        p = random_boundary_point(n, rng)
        q = point_from_lift(standard_lift(p, n))
        assert p.isclose(q)
        assert standard_lift(q, n).proportional_to(standard_lift(p, n))


def test_round_trip_scaled_lift():
    p = BoundaryPoint.finite([1 + 2j], -3.0)
    P = standard_lift(p, 2).scaled(0.3 - 1.7j)
    assert point_from_lift(P).isclose(p)


def test_signature():
    for n in range(1, 6):
        J = form_matrix(n)
        C = signature_basis(n)
        D = C.conj().T @ J @ C
        want = np.diag([1.0] * n + [-1.0])
        assert np.max(np.abs(D - want)) < 1e-14
        eig = np.sort(np.linalg.eigvalsh(J))
        assert np.allclose(eig, [-1.0] + [1.0] * n)


def test_apply_isometry():
    p = BoundaryPoint.finite([1 - 2j], 0.5)
    assert apply_isometry_point(Isometry(2, np.eye(3)), p) == p

    g = Isometry(2, np.diag([2.0, 1.0, 0.5]))  # the dilation (z, t) -> (2z, 4t)
    assert apply_isometry_point(g, p).isclose(BoundaryPoint.finite([2 - 4j], 2.0))
    assert apply_isometry_point(g, BoundaryPoint.infinity()).at_infinity

    rng = np.random.default_rng(3)
    h = random_isometry(2, rng)
    P = standard_lift(random_boundary_point(2, rng), 2)
    assert act(h, P).is_null()


def point_bits(p):
    """A point's fields, each float as hex so that -0.0 and 0.0 differ, with their types."""
    if p.at_infinity:
        return "infinity"
    return type(p.z), [(type(v), v.real.hex(), v.imag.hex()) for v in p.z], type(p.t), p.t.hex()


def finite_of_quotients(z) -> BoundaryPoint:
    """BoundaryPoint.finite of a lift's quotients: z_k / z_{n+1} / sqrt(2) and Im z_1 / z_{n+1}."""
    last = z[-1]
    return BoundaryPoint.finite([v / last / math.sqrt(2.0) for v in z[1:-1]], (z[0] / last).imag)


def null_lifts():
    """reconstruct's lifts for n = 2..4, whose second is (1, 0, ..., 0), and rescaled standard
    lifts of finite points, some with signed zeros, for n = 1..4."""
    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        for kind in KINDS:
            yield from reconstruct(moduli_coordinates(random_quadruple(n, kind, rng)), n)
    for n in (2, 3):  # the zero-coordinate branch
        yield from reconstruct(ModuliPoint(0.5, 0.5, -math.pi / 2), n)
    for n in (1, 2, 3, 4):
        for _ in range(40):
            p = random_boundary_point(n, rng)
            if not p.at_infinity:
                factor = complex(*rng.standard_normal(2))
                yield from (standard_lift(p, n), standard_lift(p, n).scaled(factor))
    yield from (vec(1, 0, -1), vec(1, complex(0.0, -0.0), complex(-2.0, 0.0)),
                vec(2, 0j, complex(-0.0, 0.0), 1j), vec(2, complex(-0.0, -0.0), 0j, -1j),
                standard_lift(BoundaryPoint.finite([complex(-0.0, 0.0)], -0.0), 2).scaled(-1))


def test_point_from_lift_builds_the_point_finite_builds():
    lifts = list(null_lifts())
    assert len(lifts) > 300
    for Z in lifts:
        want = BoundaryPoint.infinity() if Z.values[-1] == 0 else finite_of_quotients(Z.values)
        assert point_bits(point_from_lift(Z)) == point_bits(want), Z


def test_apply_isometry_point_builds_the_point_finite_builds():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 4):
        g = random_isometry(n, rng)
        for _ in range(30):
            p = random_boundary_point(n, rng)
            moved = (g.matrix @ standard_lift(p, n).coords).tolist()
            assert point_bits(apply_isometry_point(g, p)) == point_bits(finite_of_quotients(moved))


@pytest.mark.parametrize("Z", [
    vec(2, 5, 0, 0), vec(2, -1j, 0, 1e-12), vec(3, 1, 0, 0, 0),
    standard_lift(BoundaryPoint.infinity(), 3).scaled(-0.4 + 2j),
])
def test_a_lift_of_infinity_still_gives_the_point_at_infinity(Z):
    assert point_from_lift(Z) == BoundaryPoint.infinity()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_isometry_accepts_a_matrix_in_any_memory_order(n):
    rng = np.random.default_rng(14)
    g = random_isometry(n, rng)
    points = [random_boundary_point(n, rng) for _ in range(8)] + [BoundaryPoint.infinity()]
    for matrix in (np.asfortranarray(g.matrix), np.repeat(g.matrix, 2, axis=1)[:, ::2],
                   np.repeat(g.matrix, 2, axis=0)[::2]):
        assert not matrix.flags.c_contiguous
        h = Isometry(n, matrix)
        assert h.matrix.flags.c_contiguous
        assert np.array_equal(h.matrix, g.matrix)
        for p in points:
            assert point_bits(apply_isometry_point(h, p)) == point_bits(apply_isometry_point(g, p))
    e = Isometry(2, np.eye(3).T)
    assert np.array_equal(e.matrix, np.eye(3))
    p = BoundaryPoint.finite([1 - 2j], 0.5)
    assert apply_isometry_point(e, p) == apply_isometry_point(Isometry(2, np.eye(3)), p) == p


def test_isometry_rejects_non_preserving_matrix():
    with pytest.raises(NotIsometry):
        Isometry(2, np.diag([2.0, 1.0, 1.0]))
    with pytest.raises(NotIsometry):  # large, but its form check stays finite
        Isometry(2, np.full((3, 3), 1e150))


def test_isometry_dimensions_must_agree():
    with pytest.raises(DimensionMismatch, match=r"^expected a 3x3 matrix, got \(2, 2\)$"):
        Isometry(2, np.eye(2))
    with pytest.raises(DimensionMismatch,
                       match="^cannot compose isometries of different dimension$"):
        Isometry(2, np.eye(3)) @ Isometry(3, np.eye(4))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_isometry_rejects_non_finite_matrix(value):
    with pytest.raises(NotIsometry, match="finite"):
        Isometry(2, np.full((3, 3), value))
    matrix = np.eye(3, dtype=complex)
    matrix[1, 2] = value
    with pytest.raises(NotIsometry, match="finite"):
        Isometry(2, matrix)


@pytest.mark.parametrize("value,magnitude", [
    (1e160, "1e+160"), (1e200, "1e+200"), (-3e250j, "3e+250"), (1e300 + 1e300j, "1e+300"),
])
def test_isometry_overflow_names_the_magnitude(value, magnitude):
    # the magnitude is checked before the form check's matrix product could overflow
    with pytest.raises(OverflowError, match=re.escape(f"magnitude {magnitude}") + "$"):
        Isometry(2, np.full((3, 3), value))
    matrix = np.eye(3, dtype=complex)
    matrix[2, 0] = value
    with pytest.raises(OverflowError, match=re.escape(f"magnitude {magnitude}") + "$"):
        Isometry(2, matrix)


def test_isometry_preserves_products():
    rng = np.random.default_rng(4)
    g = random_isometry(3, rng)
    for _ in range(20):
        Z = vec(3, *(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        W = vec(3, *(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        before = herm_product(Z, W)
        after = herm_product(act(g, Z), act(g, W))
        assert abs(before - after) <= 1e-9 * (1 + abs(before))


def test_mirror_point():
    p = BoundaryPoint.finite([1 + 2j], 3.0)
    assert p.mirror() == BoundaryPoint.finite([1 - 2j], -3.0)
    assert BoundaryPoint.infinity().mirror().at_infinity
    P = standard_lift(p, 2)
    assert standard_lift(p.mirror(), 2).proportional_to(P.conjugated())


def test_points_of_different_dimensions_are_not_close():
    assert not BoundaryPoint.finite([0], 0).isclose(BoundaryPoint.finite([0, 0], 0))


def test_json_round_trip():
    p = BoundaryPoint.finite([1 - 1j], 0.5)
    assert BoundaryPoint.from_json(p.to_json()) == p
    assert BoundaryPoint.from_json(BoundaryPoint.infinity().to_json()).at_infinity
    Z = vec(2, 1 + 1j, 0, -2)
    back = HermitianVector.from_json(Z.to_json())
    assert np.allclose(back.coords, Z.coords)
