"""Shared test settings: hypothesis's derandomized profile, and exact oracles for the
normal form and for the invariants of boundary points."""

import math
from fractions import Fraction

import pytest
from hypothesis import settings

# the same examples on every run, and no example database left behind
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


def exact_normal_form(rows) -> tuple:
    """(g13, g14, g24) of the dictionary image of a float Gram matrix's moduli, to 50 digits.

    X1, X2 and A are taken exactly from the rows, and A is clamped to
    [-pi/2, pi/2] as ``invariants._cartan`` does.
    """
    import mpmath

    with mpmath.workdps(50):
        g = [[mpmath.mpc(v.real, v.imag) for v in row] for row in rows]
        x1 = g[2][0] * g[3][1] / (g[3][0] * g[2][1])
        x2 = g[1][0] * g[3][2] / (g[3][0] * g[1][2])
        a = min(max(mpmath.arg(-g[0][1] * g[1][2] * g[2][0]), -mpmath.pi / 2), mpmath.pi / 2)
        return (-mpmath.exp(-1j * a), 1 / mpmath.conj(x2),
                -(mpmath.conj(x1) / mpmath.conj(x2)) * mpmath.exp(1j * a))


@pytest.fixture
def normal_form_ulps():
    """Per-entry error of a normal form against ``exact_normal_form(rows)``, in ulp of each
    exact entry's modulus."""
    import mpmath

    def ulps(N, rows) -> list:
        with mpmath.workdps(50):
            return [float(abs(mpmath.mpc(v.real, v.imag) - e)) / math.ulp(float(abs(e)))
                    for v, e in zip((N.g13, N.g14, N.g24), exact_normal_form(rows))]

    return ulps


ORDERS = ((0, 1, 2, 3), (0, 2, 1, 3), (1, 2, 0, 3))  # X1, X2, X3: X(p_i, p_j, p_k, p_l)


def cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def conj(a):
    return a[0], -a[1]


def exact_lift(p, n):
    """The standard lift of p with Fraction parts, and the z block divided by sqrt(2)."""
    if p.at_infinity:
        return [(Fraction(1), Fraction(0))] + [(Fraction(0), Fraction(0))] * n
    z = [(Fraction(v.real), Fraction(v.imag)) for v in p.z]
    zz = sum((a * a + b * b for a, b in z), Fraction(0))
    return [(-zz, Fraction(p.t))] + z + [(Fraction(1), Fraction(0))]


def exact_form(P, W):
    """<P, W> of two exact lifts; the sqrt(2) of both z blocks makes the factor 2."""
    terms = [cmul(P[0], conj(W[-1])), cmul(P[-1], conj(W[0]))]
    terms += [tuple(2 * x for x in cmul(a, conj(b))) for a, b in zip(P[1:-1], W[1:-1])]
    return sum(t[0] for t in terms), sum(t[1] for t in terms)


def exact_invariants(points):
    """Exact X1, X2, X3 of standard lifts as Fraction pairs, and A to 60 digits.

    The sqrt(2) of a lift appears only as sqrt(2) z conj(sqrt(2) w) = 2 z conj(w), so every
    Gram entry, cross-ratio and triple product is rational in the float inputs.
    """
    import mpmath

    n = next(len(p.z) + 1 for p in points if not p.at_infinity)
    lifts = [exact_lift(p, n) for p in points]
    g = [[exact_form(P, W) for W in lifts] for P in lifts]

    def cross(i, j, k, l):
        num, den = cmul(g[k][i], g[l][j]), cmul(g[l][i], g[k][j])
        q = cmul(num, conj(den))
        d = den[0] * den[0] + den[1] * den[1]
        return q[0] / d, q[1] / d

    t = cmul(cmul(g[0][1], g[1][2]), g[2][0])
    with mpmath.workdps(60):
        re, im = (mpmath.mpf(v.numerator) / v.denominator for v in t)
        a = mpmath.atan2(-im, -re)
    return [cross(*order) for order in ORDERS], a


@pytest.fixture
def invariant_ulps():
    """Errors of X1, X2, X3 (in ulp of |X|) and A (in ulp of 1.0, as its error is absolute)
    read off Gram rows of ``points``, against ``exact_invariants(points)``."""
    import mpmath

    from chquad.invariants import _cross_ratio, _moduli

    def ulps(points, rows, cfg=None) -> list:
        xs, a = exact_invariants(points)
        out = []
        for order, (re, im) in zip(ORDERS, xs):
            x = _cross_ratio(rows, *order)
            err2 = (Fraction(x.real) - re) ** 2 + (Fraction(x.imag) - im) ** 2
            unit = Fraction(math.ulp(math.sqrt(float(re * re + im * im))))
            out.append(math.sqrt(float(err2 / (unit * unit))))
        with mpmath.workdps(60):
            out.append(float(abs(mpmath.mpf(_moduli(rows, cfg).cartan) - a)) / 2.0 ** -52)
        return out

    return ulps
