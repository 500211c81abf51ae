"""Seeded input generator of the benchmark, independent of ``chquad.sampling``.

Every draw comes from a ``numpy.random.Generator`` that the caller seeds
from the benchmark's ``--seed``, so a rewrite of the package's sampler
cannot change the inputs of any workload but ``sampling``.  Points use
the reference's representation: ``(z, t)`` or ``None`` for infinity.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

# kind -> ambient dimension n
KINDS = {
    "generic_n2": 2,
    "generic_n3": 3,   # one point at infinity with probability 1/16
    "subspace_n3": 3,  # z = (z1, 0): inside a complex hyperbolic 2-subspace
    "chain": 2,        # the vertical chain z = 0
    "r_circle": 3,     # the standard R-circle: real z, t = 0
}
INFINITY_PROB = 1.0 / 16.0
# Draws whose lifts come closer than this are redrawn, which keeps every
# product far above the package's 1e-9 tolerance.
MIN_CHORDAL = 1e-2


def _cnormal(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _draw(kind: str, rng):
    n = KINDS[kind]
    if kind in ("generic_n2", "generic_n3"):
        points = [(tuple(_cnormal(rng, n - 1)), float(rng.standard_normal())) for _ in range(4)]
        if kind == "generic_n3" and rng.uniform() < INFINITY_PROB:
            points[int(rng.integers(4))] = None
        return points
    if kind == "subspace_n3":
        return [((complex(_cnormal(rng, 1)[0]), 0j), float(rng.standard_normal()))
                for _ in range(4)]
    if kind == "chain":
        return [((0j,) * (n - 1), float(t)) for t in rng.standard_normal(4)]
    if kind == "r_circle":
        return [((complex(x), 0j), 0.0) for x in rng.standard_normal(4)]
    raise ValueError(f"unknown kind {kind!r}")


def quadruple(kind: str, rng):
    """A well-separated quadruple of the kind: returns (n, points)."""
    n = KINDS[kind]
    while True:
        points = _draw(kind, rng)
        if ref.min_chordal(points, n) > MIN_CHORDAL:
            return n, tuple(points)


def isometry(n: int, rng) -> np.ndarray:
    """Dilation after a unitary rotation of z after a vertical translation of t."""
    r = math.exp(0.5 * float(rng.standard_normal()))
    Q, R = np.linalg.qr(_cnormal(rng, (n - 1, n - 1)))
    U = Q * (np.diag(R) / np.abs(np.diag(R)))
    s = float(rng.standard_normal())
    return ref.dilation(n, r) @ ref.rotation(U) @ ref.vertical_translation(n, s)


def point_json(p) -> dict:
    if p is None:
        return {"type": "infinity"}
    z, t = p
    return {"type": "finite", "z": [[c.real, c.imag] for c in z], "t": t}


def quadruple_json(n: int, points) -> dict:
    return {"n": n, "points": [point_json(p) for p in points]}


def point_from_json(obj):
    if obj["type"] == "infinity":
        return None
    return tuple(complex(re, im) for re, im in obj["z"]), float(obj["t"])


def moduli_json(x1: complex, x2: complex, a: float) -> dict:
    return {"x1": [x1.real, x1.imag], "x2": [x2.real, x2.imag], "a": a}
