"""random_isometry's J-unitarity and apply_isometry_point's arithmetic, over seeds.

For n = 1..4 and any seed, the matrix that ``random_isometry`` returns
satisfies max |M* J M - J| <= tol((n + 1) max |M|^2) at the default
config: the bound ``Isometry`` holds it to, recomputed here.  Moving a
point by ``apply_isometry_point`` is the matrix product of the point's
standard lift, read back by ``point_from_lift``, bit for bit.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chquad import (BoundaryPoint, HermitianVector, NumericConfig, apply_isometry_point,
                    form_matrix, point_from_lift, standard_lift)
from chquad.sampling import random_boundary_point, random_isometry

DIMENSIONS = st.integers(1, 4)
SEEDS = st.integers(0, 2 ** 64 - 1)


def bits(p: BoundaryPoint):
    """p's fields with each float as its bit pattern; None for the point at infinity."""
    if p.at_infinity:
        return None
    return [(v.real.hex(), v.imag.hex()) for v in p.z], p.t.hex()


@settings(max_examples=400)
@given(DIMENSIONS, SEEDS)
def test_random_isometry_is_j_unitary(n, seed):
    M = random_isometry(n, seed).matrix
    J = form_matrix(n)
    residual = float(np.max(np.abs(M.conj().T @ J @ M - J)))
    scale = (n + 1) * float(np.max(np.abs(M))) ** 2
    assert math.isfinite(scale)
    assert residual <= NumericConfig().tol(scale)


@settings(max_examples=200)
@given(DIMENSIONS, SEEDS, SEEDS)
def test_apply_isometry_point_is_the_product_of_the_lift(n, seed, point_seed):
    g = random_isometry(n, seed)
    for p in (BoundaryPoint.infinity(), random_boundary_point(n, point_seed)):
        lifted = HermitianVector(n, g.matrix @ standard_lift(p, n).coords)
        assert bits(apply_isometry_point(g, p)) == bits(point_from_lift(lifted))
