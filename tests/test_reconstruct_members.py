"""Every member reconstructs: ``in_moduli_space`` and ``reconstruct`` decide alike.

Membership holds F to tol(scale), scale = 1 + |X1|^2 + |X2|^2.  Near the chain locus F is
a squared distance: at A = +-pi/2, F = |X2 - (1 - X1)|^2.  So a member may lie up to
sqrt(tol(scale)) from every realizable point, farther than ``isclose`` allows.
``reconstruct`` keeps A and moves X2, by at most sqrt(|F|) on its rotation branches and
by at most sqrt(tol(scale)) + 2 tol(1) |X2| on its zero-coordinate branch.  Where that
ball holds X2 = 0, the lifts may realize it: P3 and P4 then coincide.  It keeps X1 too,
but for a member whose Re(X1 e^{-iA}) < 0 would leave P4 non-null: that X1 moves onto
Re(X1 e^{-iA}) = 0, by at most membership's tol(|X1|).
"""

import cmath
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chquad import (CoincidentPoints, ModuliPoint, NotInModuliSpace, NumericConfig,
                    ZeroCrossRatio, gram_of, in_moduli_space, moduli_from_gram, normalize,
                    reconstruct, residual_scale)

HALF_PI = math.pi / 2.0

# check-moduli calls this a member at --tol 1e-3; reconstruct used to exit 1 on it with
# inconsistent-gram "unit Gram entry unreachable with a zero coordinate"
FOUND = {"n": 4, "moduli": {"x1": [0.9565095874629154, 7.914195807129557e-17],
                            "x2": [-0.0017980407308533536, -0.00516986191015801],
                            "a": -1.5707963257948965}}


def x2_bound(m, c) -> float:
    """How far the lifts' X2 may lie from a member's: sqrt(tol(scale)) + 2 tol(1) |X2|."""
    return math.sqrt(c.tol(residual_scale(m))) + 2.0 * c.tol(1.0) * abs(m.x2)


def assert_realizes(m, n, c):
    """A member's lifts are null, and their moduli point is m but for X2, which lies within
    x2_bound of m's, and X1, which lies within tol of m's."""
    lifts = reconstruct(m, n, c)
    assert all(P.is_null(c) for P in lifts)
    rebuilt = moduli_from_gram(normalize(gram_of(lifts, c), c), c)
    a = min(max(m.cartan, -HALF_PI), HALF_PI)
    assert abs(rebuilt.x1 - m.x1) <= c.tol(max(1.0, abs(m.x1)))
    assert abs(rebuilt.cartan - a) <= c.tol(1.0)
    assert abs(rebuilt.x2 - m.x2) <= x2_bound(m, c)
    return rebuilt


def test_the_found_member_reconstructs():
    c = NumericConfig(1e-3, 1e-3)
    moduli = FOUND["moduli"]
    m = ModuliPoint(complex(*moduli["x1"]), complex(*moduli["x2"]), moduli["a"], c)
    assert in_moduli_space(m, FOUND["n"], c)
    rebuilt = assert_realizes(m, FOUND["n"], c)
    # F = 2.08e-3 of a chain-locus point is a squared distance: X2 moves to the C-plane
    # point 1 - X1 (to within A's 1e-9 from -pi/2), 0.0456 away; no realizable point lies
    # within isclose's 2e-3 of m
    assert abs(rebuilt.x2 - (1.0 - m.x1)) <= 1e-8
    assert not rebuilt.isclose(m, c)


def test_the_found_member_reconstructs_on_the_command_line(tmp_path, capsys):
    from chquad.cli import main

    path = tmp_path / "found.json"
    path.write_text(json.dumps(FOUND))
    assert main(["--tol", "1e-3", "check-moduli", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["member"] is True
    assert main(["--tol", "1e-3", "reconstruct", "--input", str(path)]) == 0
    lifts = capsys.readouterr().out
    (tmp_path / "lifts.json").write_text(lifts)
    assert main(["--tol", "1e-3", "invariants", "--input", str(tmp_path / "lifts.json")]) == 0


@st.composite
def near_chain_locus(draw):
    """(m, n, c): A at or near +-pi/2, X2 near the F = 0 circle of (X1, A) or |X2| small.

    |X1| stays above 0.1: within a few tol of ModuliPoint's guard, ``gram_of`` may find the
    lifts' P2 and P4 coincident (|g24| = |X1 / X2|), a rule of its own.  Re(X1 e^{-iA})
    is >= 0, or in [-tol(|X1|), 0), where ``reconstruct`` may project X1.
    """
    n = draw(st.sampled_from((2, 3, 4)))
    tol = 10.0 ** -draw(st.floats(3.0, 12.0))
    c = NumericConfig(tol, tol)
    a = math.copysign(HALF_PI, draw(st.sampled_from((-1.0, 1.0))))
    a -= math.copysign(draw(st.sampled_from((0.0, 1e-12, 1e-9, 1e-6, 1e-3))), a)
    rho = math.sqrt(tol) * draw(st.floats(0.0, 2.0))  # a step of the order membership allows
    step = rho * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    if draw(st.booleans()):
        # X1 = e^{iA}(u + iv) with u >= 0, or with u in [-tol(|v|), 0), within membership's
        # -tol(|X1|); X2 on the circle of centre 1 + X1 e^{-2iA} and radius^2 4 cos(A) u (0 for
        # u < 0), on which F vanishes, moved by step
        v = draw(st.floats(-3.0, 3.0))
        if draw(st.booleans()):
            u = draw(st.floats(0.1, 3.0))
        else:
            v = math.copysign(max(abs(v), 0.1), v)
            u = -c.tol(abs(v)) * draw(st.floats(0.0, 1.0, exclude_min=True))
        x1 = cmath.exp(1j * a) * complex(u, v)
        radius = math.sqrt(max(4.0 * math.cos(a) * (x1 * cmath.exp(-1j * a)).real, 0.0))
        centre = 1.0 + x1 * cmath.exp(-2j * a)
        x2 = centre + radius * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi))) + step
    else:
        # |X2| small and X1 = 1 - step, where F is |1 - X1|^2 plus terms of order |X2|,
        # reflected onto Re(X1 e^{-iA}) >= 0
        u = (1.0 - step) * cmath.exp(-1j * a)
        x1 = cmath.exp(1j * a) * complex(abs(u.real), u.imag)
        phase = draw(st.floats(0.0, 2.0 * math.pi))
        x2 = 10.0 ** -draw(st.floats(0.5, 2.5)) * cmath.exp(1j * phase)
    if abs(x2) <= tol:
        x2 += 2.0 * tol  # off ModuliPoint's guard
    return ModuliPoint(x1, x2, a, c), n, c


@settings(max_examples=600)
@given(near_chain_locus())
def test_every_member_reconstructs_and_no_other_point_does(case):
    m, n, c = case
    if not in_moduli_space(m, n, c):
        with pytest.raises(NotInModuliSpace):
            reconstruct(m, n, c)
        return
    try:
        assert_realizes(m, n, c)
    except (CoincidentPoints, ZeroCrossRatio):
        # the lifts realize X2 = 0, where P3 and P4 coincide, which lies within x2_bound of a
        # member such as ModuliPoint(1, 0.01, -pi/2) at tol 1e-3
        assert abs(m.x2) <= x2_bound(m, c)


def test_a_member_of_negative_positivity_reconstructs_to_null_lifts():
    # Re(X1 e^{-iA}) = -1.96e-3 passes membership's -tol(|X1|) = -1.99e-3
    c = NumericConfig(1e-3, 1e-3)
    m = ModuliPoint(0.992340074735412 - 0.0019559000334694646j, 0.01, HALF_PI, c)
    assert in_moduli_space(m, 2, c)
    assert_realizes(m, 2, c)
