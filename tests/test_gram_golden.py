"""Golden values of the Gram normal form, and the cost of one Gram matrix.

The normal forms below were recorded before ``gram_of`` and
``normalize`` moved from per-entry numpy reductions to one scale per
lift and Python complex scalars, and before ``normalize`` became the
dictionary image of the moduli point; a rewrite may move them by
rounding only.
"""

import cmath
import math

import numpy as np
import pytest

from chquad import (
    BoundaryPoint,
    CartanOutOfRange,
    GramMatrix,
    ModuliPoint,
    NumericConfig,
    counterexample_pair,
    gram_from_moduli,
    gram_of,
    normalize,
    reconstruct,
    standard_lift,
)
from chquad.hermitian import HermitianVector

REL = 1e-12

LAMBDAS = (2.0 - 1.0j, 0.5j, -3.0 + 0.25j, 1e-3 + 1e3j)


def lifts_of(points, n):
    return [standard_lift(p, n) for p in points]


def finite(z, t):
    return BoundaryPoint.finite(z, t)


def rescaled(lifts):
    return [P.scaled(lam) for P, lam in zip(lifts, LAMBDAS)]


GENERIC3 = (
    finite([0.3 - 0.7j, -1.1 + 0.2j], 0.4),
    finite([-0.5 + 0.1j, 0.8 + 0.9j], -1.3),
    BoundaryPoint.infinity(),
    finite([1.2 + 0.6j, 0.05 - 0.4j], 2.2),
)


def gram_case(name):
    """The Gram matrix of a named case; every case builds its lifts in the test."""
    if name == "witness t=2":
        return gram_of(lifts_of(counterexample_pair(2.0)[0], 2))
    if name == "witness t=3":
        return gram_of(lifts_of(counterexample_pair(3.0)[0], 2))
    if name == "mirror witness t=2":
        return gram_of(lifts_of(counterexample_pair(2.0)[1], 2))
    if name == "witness t=2 rescaled":
        return gram_of(rescaled(lifts_of(counterexample_pair(2.0)[0], 2)))
    if name == "chain through finite points":
        # the vertical chain of CH^3 moved by the Heisenberg translation by (1, i)
        points = [finite([1.0 + 0j, 1j], t) for t in (-2.0, 0.5, 1.0, 3.5)]
        return gram_of(lifts_of(points, 3))
    if name == "R-circle":
        points = [finite([x, 0.0], 0.0) for x in (-1.5, -0.2, 0.7, 2.4)]
        return gram_of(lifts_of(points, 3))
    if name == "generic CH^3":
        return gram_of(lifts_of(GENERIC3, 3))
    if name == "generic CH^3 rescaled":
        return gram_of(rescaled(lifts_of(GENERIC3, 3)))
    if name == "generic CH^3 reordered":
        return gram_of(lifts_of([GENERIC3[k] for k in (2, 0, 3, 1)], 3))
    if name == "generic CH^3 large scale":
        points = [BoundaryPoint.infinity() if p.at_infinity
                  else finite([v * 1e3 for v in p.z], p.t * 1e6) for p in GENERIC3]
        return gram_of(lifts_of(points, 3))
    if name == "generic CH^3 small scale":
        points = [BoundaryPoint.infinity() if p.at_infinity
                  else finite([v * 1e-3 for v in p.z], p.t * 1e-6) for p in GENERIC3]
        return gram_of(lifts_of(points, 3))
    if name == "reconstruct n=2":
        return gram_of(reconstruct(ModuliPoint(0.5, 0.5, -math.pi / 2), 2))
    if name == "reconstruct n=3":
        m = ModuliPoint(0.8 + 0.3j, 0.6 - 0.2j, 0.4)
        return gram_of(reconstruct(m, 3))
    if name == "gram_from_moduli matrix":
        m = ModuliPoint(0.8 + 0.3j, 0.6 - 0.2j, 0.4)
        return GramMatrix(4, gram_from_moduli(m).matrix() * 1.7)
    raise KeyError(name)


# normalize(gram_case(name)) before the rewrite, as (g13, g14, g24)
GOLDEN = {
    "witness t=2": ((-0-1j), (2+0j), 1j),
    "witness t=3": ((-0-1j), (1.5+0j), 0.5j),
    "mirror witness t=2": (1j, (2+0j), (-0-1j)),
    "witness t=2 rescaled": (
        (4.163336342344337e-17-0.9999999999999998j),
        (2+1.0294995462864396e-16j),
        (-3.037845118711003e-17+1.0000000000000002j),
    ),
    "chain through finite points": (
        (1.8355687340469253e-15+0.9999999999999998j),
        (-0.44+1.0231815394945442e-15j),
        (2.643218977027573e-15+1.4400000000000004j),
    ),
    "R-circle": ((-1+0j), (2.5224913494809686+0j), (-6.698961937716263+0j)),
    "generic CH^3": (
        (-0.757265922970056-0.6531066696247324j),
        (0.013746681459761496+0.8854618219281215j),
        (-0.7590253698171052-0.27165859318442526j),
    ),
    "generic CH^3 rescaled": (
        (-0.7572659229700561-0.6531066696247324j),
        (0.013746681459761463+0.8854618219281215j),
        (-0.7590253698171053-0.2716585931844253j),
    ),
    "generic CH^3 reordered": (
        (-0.6647830174367535+0.7470365049498486j),
        (0.9640645478546513-0.5265378623348216j),
        (-0.43606771221119744+1.1612496825162935j),
    ),
    "generic CH^3 large scale": (
        (-0.7572659229700561-0.6531066696247324j),
        (0.013746681459761472+0.8854618219281216j),
        (-0.7590253698171056-0.27165859318442537j),
    ),
    "generic CH^3 small scale": (
        (-0.7572659229700558-0.6531066696247323j),
        (0.013746681459761354+0.8854618219281213j),
        (-0.7590253698171053-0.27165859318442526j),
    ),
    "reconstruct n=2": (
        (-6.123233995736766e-17-1j),
        (1.9999999999999996+2.4492935982947054e-16j),
        (-1.8369701987210292e-16+0.9999999999999998j),
    ),
    "reconstruct n=3": (
        (-0.9210609940028851+0.3894183423086505j),
        (1.5000000000000002-0.5000000000000007j),
        (-1.2981196346653827+0.3740125854783696j),
    ),
    "gram_from_moduli matrix": (
        (-0.9210609940028849+0.38941834230865047j),
        (1.4999999999999996-0.5j),
        (-1.2981196346653823+0.374012585478369j),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_normalize_golden_value(name):
    N = normalize(gram_case(name))
    for got, want in zip((N.g13, N.g14, N.g24), GOLDEN[name]):
        assert abs(got - want) <= REL * max(abs(N.g13), abs(N.g14), abs(N.g24), 1.0)


def test_normalize_accepts_small_unit_entry(normal_form_ulps):
    # g12 passes GramMatrix's default check but not a coarser tolerance; X2 = 1e-3 is no
    # smaller than abs_tol, so the normal form exists under both.  The entries are negated:
    # with all of them positive every face's triple product is positive, A = pi, and no
    # quadruple realizes the matrix
    coarse = NumericConfig(abs_tol=1e-9, rel_tol=1e-2)
    entries = np.ones((4, 4), dtype=complex) - np.eye(4)
    entries[0, 1] = entries[1, 0] = 1e-3
    with pytest.raises(CartanOutOfRange):
        normalize(GramMatrix(4, entries), coarse)
    G = GramMatrix(4, -entries)
    N = normalize(G, coarse)
    assert N.cfg is coarse and max(normal_form_ulps(N, G.rows)) <= 4.0
    # and the default tolerance, with g12 = -1e6 and g23 = -1.5e-3
    entries = np.ones((4, 4), dtype=complex) - np.eye(4)
    entries[0, 1] = entries[1, 0] = 1e6
    entries[1, 2] = entries[2, 1] = 1.5e-3
    G = GramMatrix(4, -entries)
    assert max(normal_form_ulps(normalize(G), G.rows)) <= 4.0


def test_normalize_accepts_small_g13(normal_form_ulps):
    entries = np.ones((4, 4), dtype=complex) - np.eye(4)
    entries[0, 2] = cmath.rect(1e-3, 0.7)
    entries[2, 0] = entries[0, 2].conjugate()
    G = GramMatrix(4, -entries)
    N = normalize(G, NumericConfig(abs_tol=1e-9, rel_tol=1e-2))
    assert max(normal_form_ulps(N, G.rows)) <= 4.0


def test_gram_of_takes_one_scale_per_lift(monkeypatch):
    lifts = lifts_of(counterexample_pair(2.0)[0], 2)
    calls = []
    original = HermitianVector.scale

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(HermitianVector, "scale", counted)
    gram_of(lifts)
    assert len(calls) == 4
