"""Plain-numpy reference for every quantity the benchmark checks.

Independent of chquad: a point is ``(z, t)`` with ``z`` a tuple of
complex horospherical coordinates and ``t`` a float, or ``None`` for the
point at infinity.  The Hermitian form, lifts, products, cross-ratios,
Cartan invariant, defining function F and Gram normal form are written
out again here from their definitions, so a rewrite of the package
cannot move its own yardstick.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

SQRT2 = math.sqrt(2.0)
HALF_PI = math.pi / 2.0
TOL = 1e-9  # the package's default abs_tol and rel_tol
EPS = 2.0 ** -53
# Safety factor over the first-order rounding bound in rounding_tol; the
# observed error ratio stayed below 20 over 8000 sampler draws.
ROUNDING_SLACK = 1e3


def close(a, b, scale=1.0, tol=TOL) -> bool:
    """|a - b| within tol * (1 + scale), the package's scaled tolerance."""
    return abs(a - b) <= tol * (1.0 + abs(scale))


def rounding_tol(amplification: float) -> float:
    """TOL, widened where rounding alone can exceed it.

    A product <P, Q> of lifts carries a relative rounding error of about
    EPS * |P| |Q| / |<P, Q>|; near-coincident points, which the sampler
    may return, make that ratio (``condition``) large.  Outputs of the
    program's own sampler are checked with this tolerance, so that
    honest rounding is not counted as a failure.
    """
    return TOL + ROUNDING_SLACK * EPS * amplification


def lift(point, n: int) -> np.ndarray:
    """Standard null lift: (z, t) -> (-|z|^2 + i t, sqrt(2) z, 1); infinity -> e_1."""
    v = np.zeros(n + 1, dtype=complex)
    if point is None:
        v[0] = 1.0
        return v
    z, t = point
    v[0] = complex(-sum(abs(c) ** 2 for c in z), t)
    v[1:n] = np.asarray(z, dtype=complex) * SQRT2
    v[n] = 1.0
    return v


def product(P: np.ndarray, Q: np.ndarray) -> complex:
    """<P, Q> = p_1 conj(q_{n+1}) + p_2 conj(q_2) + ... + p_{n+1} conj(q_1)."""
    return complex(P[0] * np.conj(Q[-1]) + P[-1] * np.conj(Q[0])
                   + np.dot(P[1:-1], np.conj(Q[1:-1])))


def gram(lifts) -> np.ndarray:
    """4x4 matrix of Hermitian products of four lifts."""
    return np.array([[product(P, Q) for Q in lifts] for P in lifts])


def point(P: np.ndarray):
    """Dehomogenise a null vector; exact zero in the last slot means infinity."""
    if P[-1] == 0:
        return None
    v = P / P[-1]
    return tuple(complex(c) / SQRT2 for c in v[1:-1]), float(v[0].imag)


def chordal(P: np.ndarray, Q: np.ndarray) -> float:
    """Chordal distance of the complex lines through P and Q (Euclidean)."""
    cos2 = abs(np.vdot(P, Q)) ** 2 / (np.vdot(P, P).real * np.vdot(Q, Q).real)
    return math.sqrt(max(0.0, 1.0 - cos2))


def min_chordal(points, n: int) -> float:
    lifts = [lift(p, n) for p in points]
    return min(chordal(lifts[i], lifts[j]) for i in range(4) for j in range(i + 1, 4))


def condition(points, n: int) -> float:
    """Largest |P_i| |P_j| / |<P_i, P_j>| over the six pairs of lifts."""
    lifts = [lift(p, n) for p in points]
    norms = [float(np.linalg.norm(P)) for P in lifts]
    return max(norms[i] * norms[j] / abs(product(lifts[i], lifts[j]))
               for i in range(4) for j in range(i + 1, 4))


def defining(x1: complex, x2: complex, a: float) -> float:
    """F(X1, X2, A) = -2 Re(X1 + X2) - 2 Re(X1 conj(X2) e^{-2iA}) + |X1|^2 + |X2|^2 + 1."""
    return (-2.0 * (x1 + x2).real
            - 2.0 * (x1 * x2.conjugate() * cmath.exp(-2j * a)).real
            + abs(x1) ** 2 + abs(x2) ** 2 + 1.0)


def f_scale(x1: complex, x2: complex) -> float:
    return 1.0 + abs(x1) ** 2 + abs(x2) ** 2


def invariants(points, n: int) -> dict:
    """X1, X2, X3, A, F and the normal form (g13, g14, g24) from the six products.

    X(q1, q2, q3, q4) = <Q3,Q1><Q4,Q2> / (<Q4,Q1><Q3,Q2>), with
    X1 = X(p1,p2,p3,p4), X2 = X(p1,p3,p2,p4), X3 = X(p2,p3,p1,p4), and
    A = arg(-<P1,P2><P2,P3><P3,P1>).  In the normal form g12 = g23 =
    g34 = 1 these definitions read X2 = 1/conj(g14) and
    X1 = conj(g13 g24 / g14), while the triple product of the first face
    fixes g13 = conj(T)/|T|; solving gives the normal form below.
    """
    G = gram([lift(p, n) for p in points])

    def g(i, j):
        return G[i - 1, j - 1]

    x1 = g(3, 1) * g(4, 2) / (g(4, 1) * g(3, 2))
    x2 = g(2, 1) * g(4, 3) / (g(4, 1) * g(2, 3))
    x3 = g(1, 2) * g(4, 3) / (g(4, 2) * g(1, 3))
    triple = g(1, 2) * g(2, 3) * g(3, 1)
    a = cmath.phase(-triple)
    g13 = triple.conjugate() / abs(triple)
    g14 = 1.0 / x2.conjugate()
    g24 = x1.conjugate() * g14 / g13
    return {"x1": x1, "x2": x2, "x3": x3, "a": a, "f": defining(x1, x2, a),
            "g13": g13, "g14": g14, "g24": g24, "gram": G}


def moduli_close(inv: dict, x1, x2, a, tol=TOL) -> bool:
    scale = max(abs(inv["x1"]), abs(inv["x2"]), abs(x1), abs(x2))
    return (close(inv["x1"], x1, scale, tol) and close(inv["x2"], x2, scale, tol)
            and close(inv["a"], a, 1.0, tol))


def normal_form_close(inv: dict, g13, g14, g24, tol=TOL) -> bool:
    scale = max(abs(inv["g14"]), abs(inv["g24"]), abs(g14), abs(g24))
    return all(close(inv[k], v, scale, tol)
               for k, v in (("g13", g13), ("g14", g14), ("g24", g24)))


def on_chain(inv: dict, tol=TOL) -> bool:
    """All four points on one chain: A = +-pi/2, X1 and X2 real, X1 + X2 = 1."""
    x1, x2 = inv["x1"], inv["x2"]
    scale = abs(x1) + abs(x2)
    return (close(abs(inv["a"]), HALF_PI, 1.0, tol) and close(x1.imag, 0.0, scale, tol)
            and close(x2.imag, 0.0, scale, tol) and close(x1.real + x2.real, 1.0, scale, tol))


def on_r_circle(inv: dict, tol=TOL) -> bool:
    """All four points on one R-circle: A = 0, X1 and X2 positive reals, F = 0."""
    x1, x2 = inv["x1"], inv["x2"]
    scale = abs(x1) + abs(x2)
    return (close(inv["a"], 0.0, 1.0, tol) and close(x1.imag, 0.0, scale, tol)
            and close(x2.imag, 0.0, scale, tol) and x1.real > 0.0 and x2.real > 0.0
            and in_subspace2(inv, tol))


def in_subspace2(inv: dict, tol=TOL) -> bool:
    """The quadruple spans a complex hyperbolic 2-subspace: F = 0."""
    return close(inv["f"], 0.0, f_scale(inv["x1"], inv["x2"]), tol)


def witness(t: float):
    """The vertical-chain quadruple p(t) = ((0,0), inf, (0,1), (0,t)) in n = 2 and its mirror."""
    p = (((0j,), 0.0), None, ((0j,), 1.0), ((0j,), float(t)))
    return p, tuple(mirror(q) for q in p)


def mirror(p):
    """The anti-holomorphic involution (z, t) -> (conj z, -t)."""
    if p is None:
        return None
    z, t = p
    return tuple(c.conjugate() for c in z), -t


# --- isometries built from Heisenberg similarities, as (n+1)x(n+1) matrices ---

def form_matrix(n: int) -> np.ndarray:
    J = np.eye(n + 1, dtype=complex)
    J[0, 0] = J[n, n] = 0.0
    J[0, n] = J[n, 0] = 1.0
    return J


def dilation(n: int, r: float) -> np.ndarray:
    """(z, t) -> (r z, r^2 t)."""
    d = np.ones(n + 1, dtype=complex)
    d[0], d[n] = r, 1.0 / r
    return np.diag(d)


def rotation(U: np.ndarray) -> np.ndarray:
    """(z, t) -> (U z, t) for a unitary U on C^{n-1}."""
    n = U.shape[0] + 1
    M = np.eye(n + 1, dtype=complex)
    M[1:n, 1:n] = U
    return M


def vertical_translation(n: int, s: float) -> np.ndarray:
    """(z, t) -> (z, t + s)."""
    M = np.eye(n + 1, dtype=complex)
    M[0, n] = 1j * s
    return M


def act(M: np.ndarray, p, n: int):
    return point(M @ lift(p, n))
