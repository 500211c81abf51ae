"""Shared test settings: hypothesis's derandomized profile, and an exact normal-form oracle."""

import math

import pytest
from hypothesis import settings

# the same examples on every run, and no example database left behind
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


def exact_normal_form(rows) -> tuple:
    """(g13, g14, g24) of the dictionary image of a float Gram matrix's moduli, to 50 digits.

    X1, X2 and A are taken exactly from the rows, and A is clamped to
    [-pi/2, pi/2] as ``invariants._clamp_cartan`` does.
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
