"""Congruence decided on coordinates gives the verdicts and errors of the route through values.

``congruent_holomorphic`` and ``congruent_antiholomorphic`` read (X1, X2, A) of each
quadruple through ``ModuliPoint``'s guard (``invariants._coordinates``) and compare the
two triples by ``ModuliPoint.isclose``'s rule, the anti-holomorphic call against
(conj Y1, conj Y2, -B).  The class and functions below are frozen copies of the route
this replaced: a checked ``ModuliPoint`` per quadruple, an unchecked mirror of the
second one, and ``isclose``.  Over moved, mirrored, reversed and perturbed pairs of
sampled quadruples, the 4-point edge cases of the kernel parity corpus and a quadruple
whose X1 has finite parts and an overflowing modulus, both routes must give the same
verdict, or an error of the same type and message, under each config of CONFIGS.
"""

import cmath
import math

import numpy as np
import pytest

from chquad import ModuliPoint, NumericConfig, congruent_antiholomorphic, congruent_holomorphic
from chquad.errors import InvalidParameter, ZeroCrossRatio
from chquad.hermitian import apply_isometry_point
from chquad.invariants import _cartan, _cross_ratio, _quadruple_gram
from chquad.numeric import Frozen, _close, _overflow, _setattr, resolve
from chquad.points import BoundaryPoint, infer_dimension
from chquad.sampling import KINDS, random_isometry, random_quadruple
from test_gram_kernel_parity import edges

# NumericConfig(5, 0) holds most points coincident, and X1 or X2 of modulus <= 5 zero
CONFIGS = (None, NumericConfig(0.0, 0.0), NumericConfig(1e-3, 1e-3), NumericConfig(5.0, 0.0))
EPS = [m * 10.0 ** -k for k in range(3, 13) for m in (1.0, 3.0)]  # 1e-12 .. 3e-3


class FrozenModuliPoint(Frozen):
    """``ModuliPoint`` as it stood: its guard in ``__init__``, and ``isclose``."""

    _fields = ("x1", "x2", "cartan")

    def __init__(self, x1, x2, cartan, cfg=None):
        x1, x2, cartan = complex(x1), complex(x2), float(cartan)
        if not (cmath.isfinite(x1) and cmath.isfinite(x2) and math.isfinite(cartan)):
            raise InvalidParameter("moduli coordinates must be finite")
        _setattr(self, "x1", x1)
        _setattr(self, "x2", x2)
        _setattr(self, "cartan", cartan)
        _setattr(self, "cfg", cfg)
        c = resolve(cfg)
        try:
            if abs(x1) <= c.abs_tol or abs(x2) <= c.abs_tol:
                raise ZeroCrossRatio("moduli coordinates require nonzero X1 and X2")
        except OverflowError:  # a modulus of finite parts beyond the float range
            raise _overflow(("X1", x1), ("X2", x2)) from None

    def isclose(self, other, cfg=None) -> bool:
        c = resolve(cfg)
        scale = max(1.0, abs(self.x1), abs(other.x1), abs(self.x2), abs(other.x2))
        return (_close(c.tol(scale), self.x1 - other.x1, self.x2 - other.x2)
                and abs(self.cartan - other.cartan) <= c.tol(1.0))


def frozen_mirror(m):
    """(conj X1, conj X2, -A) with m's config, unchecked."""
    mirror = object.__new__(FrozenModuliPoint)
    for name, v in zip(("x1", "x2", "cartan", "cfg"),
                       (m.x1.conjugate(), m.x2.conjugate(), -m.cartan, m.cfg)):
        _setattr(mirror, name, v)
    return mirror


def frozen_moduli(points, cfg):
    g = _quadruple_gram(points, cfg)
    return FrozenModuliPoint(_cross_ratio(g, 0, 1, 2, 3), _cross_ratio(g, 0, 2, 1, 3),
                             _cartan(g, 0, 1, 2, cfg), cfg)


def frozen_holomorphic(p, q, cfg=None) -> bool:
    mp, mq = (frozen_moduli(x, cfg) for x in (p, q))
    return mp.isclose(mq, cfg)


def frozen_antiholomorphic(p, q, cfg=None) -> bool:
    mp, mq = (frozen_moduli(x, cfg) for x in (p, q))
    return mp.isclose(frozen_mirror(mq), cfg)


def outcome(run):
    """run()'s verdict, or its error's type and message."""
    try:
        return run()
    except Exception as e:  # every error is part of the outcome
        return type(e).__name__, str(e)


def perturbed(q, eps: float) -> list:
    """q with its first finite point's t, then its first coordinate, moved by eps."""
    k = next(i for i, p in enumerate(q) if not p.at_infinity)
    p = q[k]
    moved = [BoundaryPoint(False, p.z, p.t + eps)]
    if p.z:
        moved.append(BoundaryPoint(False, (p.z[0] + eps * (1 - 1j),) + p.z[1:], p.t))
    return [q[:k] + (r,) + q[k + 1:] for r in moved]


def x1_overflows():
    """A quadruple whose X1 has parts of 1.48e308 and a modulus beyond the float range;
    under NumericConfig(0, 0) its points are distinct."""
    f = BoundaryPoint.finite
    return (f([0j], 0.0), f([1 + 0j], 0.0), f([1 + 0j], 3.37e-155), f([1e-77 + 0j], 1e-154))


def pairs() -> list:
    rng = np.random.default_rng(30)
    quads = [random_quadruple(n, kind, rng) for n in (1, 2, 3, 4)
             for kind in (KINDS if n > 1 else ("c_plane",)) for _ in range(3)]
    out = []
    for q in quads:
        g = random_isometry(infer_dimension(q), rng)
        moved = tuple(apply_isometry_point(g, p) for p in q)
        mirrored = tuple(p.mirror() for p in q)
        out += [(q, q), (q, moved), (moved, q), (q, mirrored), (mirrored, moved),
                (moved, mirrored), (q, q[::-1]), (q[::-1], mirrored[::-1])]
        for eps in EPS:
            for r in perturbed(q, eps):
                out += [(q, r), (mirrored, r), (moved, r)]
    corners = [e for e in edges() if len(e) == 4] + [x1_overflows()]
    for e in corners:
        out += [(e, e), (e, tuple(p.mirror() for p in e))]
        out += [(e, q) for q in quads[::4]] + [(q, e) for q in quads[::4]]
        out += [(e, f) for f in corners]
    return out


def test_congruence_on_coordinates_matches_the_route_through_values():
    corpus = pairs()
    seen = set()
    for p, q in corpus:
        for cfg in CONFIGS:
            for new, old in ((congruent_holomorphic, frozen_holomorphic),
                             (congruent_antiholomorphic, frozen_antiholomorphic)):
                got = outcome(lambda: new(p, q, cfg))
                assert got == outcome(lambda: old(p, q, cfg)), (p, q, cfg, new.__name__)
                seen.add(got if type(got) is bool else got[0])
    assert len(corpus) * len(CONFIGS) >= 10_000
    # both verdicts, and the errors of the kernel, of the guard and of the range
    assert {True, False, "ZeroCrossRatio", "CoincidentPoints", "InvalidParameter",
            "OverflowError", "UnderflowError", "DimensionMismatch"} <= seen


def test_the_overflow_case_reaches_the_guard():
    q = x1_overflows()
    want = ("OverflowError", "|X1| overflows for parts of magnitude 1.4836795252225523e+308")
    assert outcome(lambda: congruent_holomorphic(q, q, NumericConfig(0.0, 0.0))) == want
    assert outcome(lambda: congruent_antiholomorphic(q, q, NumericConfig(0.0, 0.0))) == want


def coordinate_triples() -> list:
    big = 1.5e308
    values = [0j, 1e-300 + 0j, 2e-9 + 0j, 1e-9j, 0.5 - 0.25j, 1 + 0j, 4.9 + 1j, 1e154 + 1e154j,
              complex(big, big), complex(big, 1.0), complex(math.inf, 0.0),
              complex(0.0, math.nan)]
    angles = [0.0, -1.5, math.pi / 2, 3.0, math.inf, math.nan]
    return [(x1, x2, a) for x1 in values for x2 in values for a in angles]


@pytest.mark.parametrize("cfg", CONFIGS)
def test_the_guard_raises_what_the_constructor_raised(cfg):
    # each error, in the constructor's order: non-finite, zero, then an overflowing modulus
    # naming X1 before X2; and isclose's rule on pairs of the points that pass
    built = []
    for x in coordinate_triples():
        got = outcome(lambda: ModuliPoint(*x, cfg))
        want = outcome(lambda: FrozenModuliPoint(*x, cfg))
        if isinstance(got, ModuliPoint):
            assert got._key(got) == want._key(want) and got.cfg is cfg
            built.append((got, want))
        else:
            assert got == want, x
    assert len(built) >= 10
    for m, fm in built:
        for other, fother in built[::3]:
            for c in CONFIGS:
                assert m.isclose(other, c) == fm.isclose(fother, c)
