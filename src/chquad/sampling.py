"""Random boundary configurations and form-preserving matrices.

Coordinates are drawn from standard normals (a documented but
arbitrary choice; nothing downstream may depend on the distribution,
only on validity, which ``moduli_coordinates`` decides).  Every
function is deterministic given a seed, and callers own their
generator streams.  Where a sampler knows it will read several values
of one kind, it fetches them in one generator call: numpy fills an
array with the routine a scalar call runs, value by value, so the
values and the stream position are those of one call per value.
numpy is imported by the functions that draw, so that importing the
module does not load it.
"""

from __future__ import annotations

import cmath
import math
from operator import mul, sub
from typing import TYPE_CHECKING

from .errors import (CoincidentPoints, DegenerateBasis, InvalidParameter, ResamplingExhausted,
                     ZeroCrossRatio)
from .invariants import HALF_PI, ModuliPoint, _moduli, _quadruple_gram, _residual
from .numeric import NumericConfig
from .points import BoundaryPoint, _dimension

if TYPE_CHECKING:
    import numpy as np

    from .hermitian import Isometry

KINDS = ("generic", "c_plane", "r_plane", "subspace2")  # what random_quadruple draws
INFINITY_PROB = 1.0 / 16.0
MAX_ATTEMPTS = 100
MARGIN = 1e-3  # random_moduli_point keeps |A| below pi/2 - MARGIN
_H = 1.0 / math.sqrt(2.0)  # signature_basis's entries, which mix coordinates 0 and n


def _rng(seed) -> np.random.Generator:
    import numpy as np

    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_boundary_point(n: int, rng) -> BoundaryPoint:
    """A random boundary point; lands at infinity with probability 1/16."""
    return _boundary_point(_dimension(n), _rng(rng))


def _boundary_point(n: int, gen: np.random.Generator) -> BoundaryPoint:
    """random_boundary_point's draw, for an n already checked and a Generator."""
    if gen.random() < INFINITY_PROB:
        return BoundaryPoint.infinity()
    # the real parts, the imaginary parts and t, in one draw; tolist() gives Python floats
    x = gen.standard_normal(2 * n - 1).tolist()
    return BoundaryPoint(False, map(complex, x[:n - 1], x[n - 1:-1]), x[-1])


def _draw_quadruple(n: int, kind: str, gen: np.random.Generator):
    """One draw of four points of a kind that ``random_quadruple`` has checked."""
    if kind == "generic":
        return [_boundary_point(n, gen) for _ in range(4)]
    if kind == "c_plane":
        # the vertical chain z = 0, optionally through infinity
        zeros = (0j,) * (n - 1)
        points = [BoundaryPoint(False, zeros, t) for t in gen.standard_normal(4).tolist()]
        if gen.random() < 0.25:
            points[int(gen.integers(4))] = BoundaryPoint.infinity()
        return points
    if kind == "r_plane":
        # the standard R-circle: first horospherical coordinate real, t = 0
        pad = (0j,) * (n - 2)
        return [BoundaryPoint(False, (complex(x),) + pad, 0.0)
                for x in gen.standard_normal(4).tolist()]
    # subspace2: CH^2 points padded with zeros, lifts in the span of the first, second and last axes
    pad = (0j,) * (n - 2)
    points = []
    for _ in range(4):
        p = _boundary_point(2, gen)
        points.append(p if p.at_infinity else BoundaryPoint(False, p.z + pad, p.t))
    return points


def random_quadruple(n: int, kind: str, rng, cfg: NumericConfig | None = None):
    """Four pairwise-distinct boundary points of the requested kind.

    Redrawn from the same stream until ``moduli_coordinates`` accepts the draw with
    ``cfg``: no two points coincide by the rule of ``points._points_rows``, and X1 and
    X2 pass ``ModuliPoint``'s guard.
    """
    if kind not in KINDS:
        raise InvalidParameter(f"unknown kind {kind!r}; choose one of {KINDS}")
    n = _dimension(n)
    if n < 2 and kind != "c_plane":
        raise InvalidParameter(f"kind {kind!r} needs n >= 2, got {n}")
    gen = _rng(rng)
    for _ in range(MAX_ATTEMPTS):
        points = tuple(_draw_quadruple(n, kind, gen))
        try:
            _moduli(_quadruple_gram(points, cfg), cfg)
        except (CoincidentPoints, ZeroCrossRatio):
            continue
        return points
    raise ResamplingExhausted(f"no distinct {kind} quadruple after {MAX_ATTEMPTS} draws")


def random_isometry(n: int, rng) -> Isometry:
    """A random matrix preserving the Hermitian form.

    Gram-Schmidt with respect to the indefinite form, run in the basis
    that diagonalizes it to diag(1, ..., 1, -1); the negative-norm
    vector is handled last.  Each candidate column reads 2(n + 1)
    standard normals, the real parts then the imaginary parts; columns
    whose projected norm collapses are redrawn from the same stream.
    When its normals run out, column k fetches those of n + 1 - k
    candidates in one call, one for each column still to accept, so
    every fetched normal is read, across a restart of the basis too,
    unless ``DegenerateBasis`` is raised.  The projections run on Python
    complex numbers, and so does the change back to the form's own
    basis, C U C* for C the ``signature_basis``: C mixes only
    coordinates 0 and n.  ``Isometry`` validates the result.
    """
    from .hermitian import Isometry  # the lift side, which only this function needs

    n = _dimension(n)
    normal = _rng(rng).standard_normal
    d = [1.0] * n + [-1.0]
    size = 2 * n + 2
    x, at = [], 0  # the fetched normals and the next candidate's offset in them
    for _ in range(50):
        # (u, w): a unit column u of form norm eps and w_i = eps d_i conj(u_i),
        # so that the coefficient of the projection onto u is sum_i v_i w_i
        cols = []
        for k in range(n + 1):
            eps = d[k]
            for _ in range(50):
                if at == len(x):
                    x, at = normal((n + 1 - k) * size).tolist(), 0
                v = list(map(complex, x[at:at + n + 1], x[at + n + 1:at + size]))
                at += size
                for u, w in cols:
                    c = 0j
                    for t in map(mul, v, w):
                        c += t
                    v = list(map(sub, v, map(c.__mul__, u)))
                nrm = 0.0
                for a, e in zip(v, d):
                    m = abs(a)
                    nrm += m * m * e
                if eps * nrm > 1e-6:
                    r = math.sqrt(eps * nrm)
                    u = [a / r for a in v]
                    cols.append((u, [eps * e * b.conjugate() for b, e in zip(u, d)]))
                    break
            else:
                break
        if len(cols) == n + 1:
            # U C, row by row (U's columns are the u), then C (U C); C is real and symmetric
            uc = [[_H * (r[0] + r[n]), *r[1:n], _H * (r[0] - r[n])]
                  for r in zip(*[u for u, _ in cols])]
            top, bottom = uc[0], uc[n]
            return Isometry(n, [[_H * (a + b) for a, b in zip(top, bottom)], *uc[1:n],
                                [_H * (a - b) for a, b in zip(top, bottom)]])
    raise DegenerateBasis("random basis kept collapsing; this should be unreachable")


def random_moduli_point(rng) -> ModuliPoint:
    """A random point on the F = 0 locus with |A| < pi/2 - MARGIN.

    Draws X1 (two normals in one call), A and the phase of X2 (two
    uniforms in one call), then solves the real quadratic
    r^2 - 2 b r + |X1 - 1|^2 = 0 for r = |X2| and keeps a positive
    root; redraws whenever no positive root exists.
    """
    gen = _rng(rng)
    random, normal = gen.random, gen.standard_normal
    low = -HALF_PI + MARGIN  # A and phi drawn as gen.uniform draws them, low + span * random()
    span = (HALF_PI - MARGIN) - low
    for _ in range(1000):
        x1 = complex(*normal(2).tolist())
        if abs(x1) < 0.05:
            continue
        ua, uphi = random(2).tolist()
        a = low + span * ua
        phi = -math.pi + 2.0 * math.pi * uphi
        b = math.cos(phi) + (x1 * cmath.exp(-1j * (phi + 2.0 * a))).real
        disc = b * b - abs(x1 - 1.0) ** 2
        if b <= 1e-6 or disc < 0.0:
            continue
        root = math.sqrt(disc)
        r = b - root if (random() < 0.5 and b - root > 1e-6) else b + root
        if r <= 1e-6:
            continue
        m = ModuliPoint(x1, r * cmath.exp(1j * phi), a)
        F, scale = _residual(m.x1, m.x2, m.cartan)
        if abs(F) <= 1e-10 * scale:
            return m
    raise ResamplingExhausted("could not land on the moduli variety")


def random_chain_moduli(rng, sign: float = 1.0) -> ModuliPoint:
    """A random point of the chain locus: A = +-pi/2, X1 + X2 = 1 real."""
    gen = _rng(rng)
    for _ in range(1000):
        x1 = -3.0 + 7.0 * gen.random()  # gen.uniform(-3.0, 4.0), without its argument handling
        if abs(x1) < 0.05 or abs(1.0 - x1) < 0.05:
            continue
        return ModuliPoint(x1, 1.0 - x1, math.copysign(HALF_PI, sign))
    raise ResamplingExhausted("could not sample the chain locus")
