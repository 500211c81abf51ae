"""Random boundary configurations and form-preserving matrices.

Coordinates are drawn from standard normals (a documented but
arbitrary choice; nothing downstream may depend on the distribution,
only on validity).  Every function is deterministic given a seed, and
callers own their generator streams.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DegenerateBasis, InvalidParameter, ResamplingExhausted
from .hermitian import BoundaryPoint, Isometry, _lift, chordal_distances, signature_basis
from .invariants import HALF_PI, ModuliPoint
from .moduli import moduli_residual, residual_scale

DISTINCTNESS = 1e-6
INFINITY_PROB = 1.0 / 16.0
MAX_ATTEMPTS = 100

KINDS = ("generic", "c_plane", "r_plane", "subspace2")
_PAIRS = np.triu_indices(4, 1)


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _uniform(gen: np.random.Generator, low: float, high: float) -> float:
    """The draw and the value of ``gen.uniform(low, high)``.

    Skips the argument handling, which costs several times the draw;
    callers check the range.  ``gen.random()`` likewise stands for
    ``gen.uniform()``.
    """
    return low + (high - low) * gen.random()


def random_boundary_point(n: int, rng) -> BoundaryPoint:
    """A random boundary point; lands at infinity with probability 1/16."""
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")
    gen = _rng(rng)
    if gen.random() < INFINITY_PROB:
        return BoundaryPoint.infinity()
    # the real parts, the imaginary parts and t, in one draw
    x = gen.standard_normal(2 * n - 1).tolist()
    return BoundaryPoint.finite(map(complex, x[:n - 1], x[n - 1:-1]), x[-1])


def _draw_quadruple(n: int, kind: str, gen: np.random.Generator):
    if kind == "generic":
        return [random_boundary_point(n, gen) for _ in range(4)]
    if kind == "c_plane":
        # the vertical chain z = 0, optionally through infinity
        zeros = [0.0] * (n - 1)
        points = [BoundaryPoint.finite(zeros, float(t)) for t in gen.standard_normal(4)]
        if gen.random() < 0.25:
            points[int(gen.integers(4))] = BoundaryPoint.infinity()
        return points
    if kind == "r_plane":
        # the standard R-circle: first horospherical coordinate real, t = 0
        points = []
        for x in gen.standard_normal(4):
            z = [0.0] * (n - 1)
            z[0] = float(x)
            points.append(BoundaryPoint.finite(z, 0.0))
        return points
    if kind == "subspace2":
        # CH^2 points padded with zeros: lifts in the span of the first, second and last axes
        pad = (0j,) * (n - 2)
        points = []
        for _ in range(4):
            p = random_boundary_point(2, gen)
            points.append(p if p.at_infinity else BoundaryPoint.finite(p.z + pad, p.t))
        return points
    raise InvalidParameter(f"unknown kind {kind!r}; choose one of {KINDS}")


def random_quadruple(n: int, kind: str, rng):
    """Four pairwise-distinct boundary points of the requested kind.

    Draws are redrawn from the same stream until the chordal distances
    (``hermitian.chordal_distances``) of all six pairs of standard
    lifts exceed DISTINCTNESS.
    """
    if kind not in KINDS:
        raise InvalidParameter(f"unknown kind {kind!r}; choose one of {KINDS}")
    min_n = 1 if kind == "c_plane" else 2
    if n < min_n:
        raise InvalidParameter(f"kind {kind!r} needs n >= {min_n}, got {n}")
    gen = _rng(rng)
    for _ in range(MAX_ATTEMPTS):
        points = _draw_quadruple(n, kind, gen)
        if np.all(chordal_distances([_lift(p, n) for p in points])[_PAIRS] > DISTINCTNESS):
            return tuple(points)
    raise ResamplingExhausted(f"no distinct {kind} quadruple after {MAX_ATTEMPTS} draws")


def random_isometry(n: int, rng) -> Isometry:
    """A random matrix preserving the Hermitian form.

    Gram-Schmidt with respect to the indefinite form, run in the basis
    that diagonalizes it to diag(1, ..., 1, -1); the negative-norm
    vector is handled last.  Each candidate column takes one draw of
    2(n + 1) standard normals, the real parts then the imaginary parts;
    columns whose projected norm collapses are redrawn from the same
    stream.  The projections run on Python complex numbers and one
    matrix product assembles the result, which ``Isometry`` validates.
    """
    if n < 1:
        raise InvalidParameter(f"n must be >= 1, got {n}")
    gen = _rng(rng)
    d = [1.0] * n + [-1.0]
    C = signature_basis(n)
    for _ in range(50):
        # (u, w): a unit column u of form norm eps and w_i = eps d_i conj(u_i),
        # so that the coefficient of the projection onto u is sum_i v_i w_i
        cols = []
        for k in range(n + 1):
            eps = d[k]
            for _ in range(50):
                x = gen.standard_normal(2 * n + 2).tolist()
                v = list(map(complex, x[:n + 1], x[n + 1:]))
                for u, w in cols:
                    c = 0j
                    for a, b in zip(v, w):
                        c += a * b
                    v = [a - c * b for a, b in zip(v, u)]
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
            U = np.array([u for u, _ in cols]).T
            return Isometry(n, C @ U @ C.conj().T)
    raise DegenerateBasis("random basis kept collapsing; this should be unreachable")


def random_moduli_point(rng, margin: float = 1e-3) -> ModuliPoint:
    """A random point on the F = 0 locus with |A| < pi/2 - margin.

    Draws X1, A and the phase of X2, then solves the real quadratic
    r^2 - 2 b r + |X1 - 1|^2 = 0 for r = |X2| and keeps a positive
    root; redraws whenever no positive root exists.
    """
    low, high = -HALF_PI + margin, HALF_PI - margin
    if not 0.0 <= high - low < math.inf:
        raise InvalidParameter(f"margin must leave a finite range of A, got {margin}")
    gen = _rng(rng)
    for _ in range(1000):
        x1 = complex(*gen.standard_normal(2).tolist())
        if abs(x1) < 0.05:
            continue
        a = _uniform(gen, low, high)
        phi = _uniform(gen, -math.pi, math.pi)
        b = math.cos(phi) + (x1 * cmath.exp(-1j * (phi + 2.0 * a))).real
        disc = b * b - abs(x1 - 1.0) ** 2
        if b <= 1e-6 or disc < 0.0:
            continue
        root = math.sqrt(disc)
        r = b - root if (gen.random() < 0.5 and b - root > 1e-6) else b + root
        if r <= 1e-6:
            continue
        m = ModuliPoint(x1, r * cmath.exp(1j * phi), a)
        if abs(moduli_residual(m)) <= 1e-10 * residual_scale(m):
            return m
    raise ResamplingExhausted("could not land on the moduli variety")


def random_chain_moduli(rng, sign: float = 1.0) -> ModuliPoint:
    """A random point of the chain locus: A = +-pi/2, X1 + X2 = 1 real."""
    gen = _rng(rng)
    for _ in range(1000):
        x1 = float(gen.uniform(-3.0, 4.0))
        if abs(x1) < 0.05 or abs(1.0 - x1) < 0.05:
            continue
        return ModuliPoint(x1, 1.0 - x1, math.copysign(HALF_PI, sign))
    raise ResamplingExhausted("could not sample the chain locus")
