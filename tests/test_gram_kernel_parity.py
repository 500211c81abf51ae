"""The Gram kernels' outcomes, pinned bit for bit by digests.

``points._points_rows`` is hashed over a corpus of sampled triples and
quadruples and of edge cases: points at infinity in every position, a
repeated point in every pair position, two coincident pairs at once (the
first in row order is named), mixed dimensions, non-finite, overflowing and
subnormal entries.  ``gram_of`` and a directly built ``GramMatrix`` are
hashed over lifts and matrices of the same kinds.  Each outcome is the
``float.hex`` of every entry's parts, or the error's type and message, under
each config of CONFIGS.  The digests were recorded before the kernels walked
one table of pairs (x86-64, glibc 2.36, Python 3.11).  The ``NumericConfig(0,
0)`` entry of GRAM was re-recorded when the null test stopped adding a
0 * inf = NaN term above the range window: its one moved outcome is the
(1.5e308, 0, 0) lift, which now reaches the pair's OverflowError instead of
NotNull.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from chquad import BoundaryPoint, GramMatrix, NumericConfig, gram_of
from chquad.hermitian import HermitianVector, standard_lifts
from chquad.points import _points_rows
from chquad.sampling import KINDS, random_quadruple

CONFIGS = (NumericConfig(), NumericConfig(0.0, 0.0), NumericConfig(1e-3, 1e-3))
INF = BoundaryPoint.infinity()


def finite(z, t):
    return BoundaryPoint.finite(z, t)


def digest(items) -> str:
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


def outcome(run) -> list:
    """The hex parts of every entry of the rows run() returns, or its error's type and
    message."""
    try:
        rows = run()
    except Exception as e:  # every error is part of the outcome
        return [type(e).__name__, str(e)]
    return [[v.real.hex(), v.imag.hex()] for row in rows for v in row]


def sampled() -> list:
    """Quadruples of every kind each n = 1..4 takes, and the four triples of each."""
    rng = np.random.default_rng(27)
    quads = [random_quadruple(n, kind, rng) for n in (1, 2, 3, 4)
             for kind in (KINDS if n > 1 else ("c_plane",)) for _ in range(3)]
    return quads + [tuple(q[i] for i in face) for q in quads
                    for face in itertools.combinations(range(4), 3)]


def edges() -> list:
    """Points at infinity, repeated points, and entries outside the normal float range."""
    q = (finite([0.4 - 0.9j, 0.2j], 0.7), finite([-1.3 + 0.2j, 0.5], -0.4),
         finite([0.6 + 1.1j, -0.3 - 0.1j], 1.9), finite([0.05 - 0.3j, 1.0], -2.6))
    out = [q[:k] + (INF,) + q[k + 1:] for k in range(4)]
    out += [tuple(INF if k in pair else p for k, p in enumerate(q))
            for pair in itertools.combinations(range(4), 2)]
    out += [tuple(q[i] if k == j else p for k, p in enumerate(q))
            for i, j in itertools.combinations(range(4), 2)]
    out += [(q[0], q[0], q[2], q[2]), (q[0], q[1], q[0], q[1]), (q[0], q[1], q[1], q[0]),
            (q[1], q[2], q[2], q[1]), (INF, q[1], INF, q[1])]
    out += [(q[0], finite([0.1j], 0.2), q[2], q[3]), (q[0], q[1], finite([], 0.3)),
            (INF, INF, INF), (q[0], q[1], q[2], q[3], q[0]), (q[0], q[1])]
    for bad in (float("nan"), float("inf"), -float("inf")):
        out += [(q[0], finite([complex(bad, 0.1), 0.5], 0.2), q[2], q[3]),
                (q[0], q[1], finite([0.1, 0.5j], bad), q[3])]
    big = [finite([complex(1e154 * s, 3e153), 2e154j], 1e154) for s in (1.0, -1.0)]
    out += [(big[0], big[1], q[2]), (q[0], big[0], q[2], big[1]),
            (finite([1e154], 0.0), finite([-1e154], 0.0), INF), (INF, big[0], big[1], q[1])]
    tiny = [finite([complex(x, 0.0)], y) for x, y in ((0.0, 0.0), (1e-160, 0.0),
                                                      (0.0, 1e-320), (1e-160, 3e-320))]
    out += [tuple(tiny), (tiny[0], tiny[1], INF), (q[0], tiny[0], tiny[2], INF),
            (finite([1e-170j], 5e-324), finite([0.0], 0.0), finite([1.0], 0.0))]
    return out


# sha256 of the outcomes of _points_rows over sampled() + edges(), one per config of CONFIGS
POINTS_ROWS = ("f7cc3657de14fcb9f8db28f05913370cdba29af9946c53854014bfa8ef4d25da",
               "7292e70f020c2bebce54877e48da51ead988307657ac115e5696e1854d76a1b5",
               "ea5a3d4e34842705f4fb41e1cd0e2cc1cc2699b5ee823ef8d6920ffb89a7040c")


@pytest.mark.parametrize("c, want", zip(CONFIGS, POINTS_ROWS))
def test_the_points_kernel_keeps_its_bits(c, want):
    corpus = sampled() + edges()
    assert len(corpus) == 235
    assert digest([outcome(lambda: _points_rows(p, c)) for p in corpus]) == want


def lift_cases() -> list:
    """Standard and rescaled lifts, non-null and coincident lifts."""
    out = []
    for p in sampled()[:24] + edges()[:4]:
        lifts = standard_lifts(p)
        out.append(lifts)
        out.append([P.scaled(s) for P, s in zip(lifts, (2 - 1j, 0.5j, -3 + 0.25j, 1e-3 + 1e3j))])
        out.append(lifts[:1] + [lifts[1].scaled(1e-160j)] + lifts[2:])
        out.append(lifts[:2] + [lifts[0].scaled(-2.5)] + lifts[3:])
        out.append([lifts[0], lifts[1], lifts[1], lifts[0]][:len(lifts)])
    out.append([HermitianVector(2, v) for v in ((1, 0, 0), (0, 0, 1), (1, 0.1, 0), (1, 1, 1))])
    out.append([HermitianVector(2, v) for v in ((1, 0, 0), (0, 0, 1), (1, 0, 1))]
               + [HermitianVector(3, (0, 1, 0, 0))])
    rest = [HermitianVector(2, v) for v in ((-0.5, 1, 1), (-2 + 1j, 2j, 1))]  # exactly null
    for x, y in ((1.5e308, 1 + 1j), (1e-160, 1e-160j), (1e-160, 3e-150)):
        out.append([HermitianVector(2, (x, 0, 0)), HermitianVector(2, (0, 0, y))] + rest)
    return out


def matrices() -> list:
    """Rows for GramMatrix: a normal form, and matrices with near-zero or broken entries."""
    g = [[0, 1, -1j, 2 + 1j], [1, 0, 1, 0.5], [1j, 1, 0, 1], [2 - 1j, 0.5, 1, 0]]
    out = [g]
    for pairs in (((0, 2),), ((1, 3),), ((0, 3), (1, 2)), ((1, 2), (0, 3)), ((0, 1), (2, 3))):
        for tiny in (0.0, 1e-10, 1e-4):
            h = [row[:] for row in g]
            for i, j in pairs:
                h[i][j], h[j][i] = tiny, tiny
            out.append(h)
    h = [row[:] for row in g]
    h[2][2] = 1e-4
    out.append(h)
    h = [row[:] for row in g]
    h[0][3] = 2 + 1.1j
    out.append(h)
    out.append([row[:3] for row in g[:3]])
    return out


# sha256 of the outcomes of gram_of over lift_cases() and of GramMatrix over matrices()
GRAM = ("c7b02ad8d61fc13a09435faf0b220ed728e3a740b73d59b3548aadac6226202f",
        "dfb35b919a561b453f90233324ce153613db6dba4ab7d2e0635051951f6692bb",
        "e69c117db2284725d3023b0e488ca1a543f561de0a05de52f95e86bdb28959ad")


@pytest.mark.parametrize("c, want", zip(CONFIGS, GRAM))
def test_the_lift_kernel_and_the_matrix_checks_keep_their_bits(c, want):
    runs = [lambda lifts=lifts: gram_of(lifts, c).rows for lifts in lift_cases()]
    runs += [lambda rows=rows: GramMatrix(len(rows), rows, c).rows for rows in matrices()]
    assert len(runs) == 164
    assert digest([outcome(run) for run in runs]) == want
