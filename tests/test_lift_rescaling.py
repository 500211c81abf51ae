"""Rescaling the lifts keeps the normal form and the cross-ratio.

The normal form is a function of the quadruple, not of its lifts: it is
read off the moduli point, after the Gram rows are scaled by a power of
two that centres their magnitudes on 1.  So is ``cross_ratio_from_lifts``.
"""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from chquad import (
    BoundaryPoint,
    CoincidentPoints,
    NumericConfig,
    gram_of,
    moduli_from_gram,
    normalize,
    normalized_gram_of_points,
    standard_lift,
)
from chquad.gram import _moduli, cross_ratio_from_lifts
from chquad.numeric import small
from chquad.sampling import KINDS, random_quadruple

GENERIC3 = (BoundaryPoint.finite([0.3 - 0.7j, -1.1 + 0.2j], 0.4),
            BoundaryPoint.finite([-0.5 + 0.1j, 0.8 + 0.9j], -1.3),
            BoundaryPoint.infinity(),
            BoundaryPoint.finite([1.2 + 0.6j, 0.05 - 0.4j], 2.2))
# draw 1716 of random_quadruple(n, "r_plane", default_rng(1)), n = 2 and 3: the x of each
# point (z = (x, 0, ...), t = 0); X1 = 4.2e-8
DRAW_1716 = (-0.973844624346595, -1.4018423690781279, -0.9737744305577112, 0.7728522137124093)


def close(x, y) -> bool:
    return small(x - y, max(1.0, abs(x), abs(y)))


@given(kind=st.sampled_from(KINDS), n=st.sampled_from((2, 3)), seed=st.integers(0, 2**32 - 1),
       ks=st.tuples(*[st.integers(-60, 60)] * 4),
       thetas=st.tuples(*[st.floats(0.0, 2.0 * math.pi)] * 4))
def test_rescaled_lifts_keep_the_normal_form_and_cross_ratio(kind, n, seed, ks, thetas):
    lifts = [standard_lift(p, n) for p in random_quadruple(n, kind, np.random.default_rng(seed))]
    G = gram_of(lifts)
    N, x = normalize(G), cross_ratio_from_lifts(*lifts)
    scaled = [P.scaled(math.ldexp(1.0, k) * cmath.exp(1j * theta))
              for P, k, theta in zip(lifts, ks, thetas)]
    try:
        G_scaled = gram_of(scaled)
    except CoincidentPoints:  # a product fell below abs_tol
        assume(False)
    assert normalize(G_scaled).isclose(N)
    assert close(cross_ratio_from_lifts(*scaled), x)
    for gram in (G, G_scaled):
        assert moduli_from_gram(normalize(gram)).isclose(_moduli(gram.rows, None))


def test_every_rescaling_of_the_lifts_normalizes():
    lifts = [standard_lift(p, 3) for p in GENERIC3]
    want = normalize(gram_of(lifts))
    for factors in itertools.product((1e-4, 1.0, 1e4), repeat=4):
        G = gram_of([P.scaled(f) for P, f in zip(lifts, factors)])
        assert normalize(G).isclose(want), factors


@pytest.mark.parametrize("scale,cfg", [(1e77, None), (1e150, None),
                                       (1e-80, NumericConfig(0.0, 1e-9)),
                                       (1e-100, NumericConfig(0.0, 1e-9))])
def test_cross_ratio_from_lifts_over_wide_ranges(scale, cfg):
    lifts = [standard_lift(p, 3) for p in GENERIC3]
    x = cross_ratio_from_lifts(*lifts)
    assert close(cross_ratio_from_lifts(*[P.scaled(scale) for P in lifts], cfg=cfg), x)


@pytest.mark.parametrize("n", [2, 3])
def test_a_sampled_quadruple_with_small_x1_normalizes(n):
    points = [BoundaryPoint.finite([x] + [0.0] * (n - 2), 0.0) for x in DRAW_1716]
    N = normalized_gram_of_points(points)
    assert 4e-8 < abs(moduli_from_gram(N).x1) < 5e-8
