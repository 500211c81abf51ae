"""A Gram entry of distinct points whose modulus is subnormal is an error, never a value.

Below the normal float range an entry keeps too few bits to read an invariant off.  Under
``abs_tol = 0`` the coincidence rule lets such an entry through, so each kernel checks it
after that rule: an input gets full-precision invariants, UnderflowError naming the pair, or
CoincidentPoints once the entries vanish.  The two sweeps dilate points and rescale lifts
through and past the subnormal range.
"""

import json
import math
from collections import Counter

import numpy as np
import pytest

from chquad import (BoundaryPoint, CartanOutOfRange, CoincidentPoints, HermitianVector, NotNull,
                    NumericConfig, UnderflowError, cartan, cartan_from_lifts, cross_ratio,
                    cross_ratio_from_lifts, gram_of, moduli_coordinates, point_from_lift,
                    standard_lift)
from chquad.cli import main
from chquad.sampling import random_quadruple

ZERO_ABS = NumericConfig(0.0, 1e-9)


def dilate(p, k):
    """The image of p under the dilation (z, t) -> (2^k z, 4^k t), exact in floats."""
    if p.at_infinity:
        return p
    return BoundaryPoint.finite([complex(math.ldexp(v.real, k), math.ldexp(v.imag, k))
                                 for v in p.z], math.ldexp(p.t, 2 * k))


def outcome(compute, close):
    """"ok" when compute() gives a value close to the undilated one, else its error's name."""
    try:
        value = compute()
    except (UnderflowError, CoincidentPoints, CartanOutOfRange) as e:
        return type(e).__name__
    return "ok" if close(value) else "wrong"


def test_dilated_points_give_their_moduli_or_a_named_error():
    # entries scale by 4^k: they turn subnormal near k = -511 and vanish near k = -540
    rng = np.random.default_rng(7)
    quads = [random_quadruple(3, "generic", rng, ZERO_ABS) for _ in range(200)]
    base = [moduli_coordinates(q, ZERO_ABS) for q in quads]
    seen = Counter()
    for k in range(-545, -500):
        for q, m in zip(quads, base):
            dilated = [dilate(p, k) for p in q]
            seen[outcome(lambda: moduli_coordinates(dilated, ZERO_ABS),
                         lambda got: got.isclose(m, ZERO_ABS))] += 1
    assert set(seen) == {"ok", "UnderflowError", "CoincidentPoints"}, seen


def test_rescaled_lifts_give_their_invariants_or_a_named_error():
    # lifts scaled by (N(0,1) + iN(0,1)) 10^(250 U(-1,1)): some entries overflow (OverflowError),
    # some turn subnormal; a lift's nullity is decided at any scale, so no NotNull
    rng = np.random.default_rng(123)
    seen = Counter()
    for _ in range(3000):
        q = random_quadruple(2, "generic", rng, ZERO_ABS)
        lifts = [standard_lift(p, 2).scaled(complex(rng.standard_normal(), rng.standard_normal())
                                            * 10 ** (250 * rng.uniform(-1, 1))) for p in q]
        try:
            a = cartan_from_lifts(*lifts[:3], ZERO_ABS)
            x = cross_ratio_from_lifts(*lifts, ZERO_ABS)
        except (OverflowError, UnderflowError, CoincidentPoints, CartanOutOfRange) as e:
            seen[type(e).__name__] += 1
            continue
        want_a, want_x = cartan(*q[:3], ZERO_ABS), cross_ratio(*q, ZERO_ABS)
        close = abs(a - want_a) <= 1e-9 and abs(x - want_x) <= 1e-9 * abs(want_x)
        seen["ok" if close else "wrong"] += 1
    assert "wrong" not in seen and "CartanOutOfRange" not in seen, seen
    assert seen["ok"] > 500 and seen["UnderflowError"] > 0, seen


QUAD = [BoundaryPoint.finite([0.3 - 0.7j], 0.4), BoundaryPoint.finite([-1.1 + 0.2j], -1.3),
        BoundaryPoint.infinity(), BoundaryPoint.finite([0.8 + 0.9j], 2.2)]


def test_a_null_lift_below_the_window_is_null():
    # s^2 ~ 2.5e-320 is subnormal, so <Z,Z> was held to a bound that had lost its bits
    lift = standard_lift(QUAD[0], 2).scaled((0.7 - 1.3j) * 1e-160)
    assert lift.is_null(ZERO_ABS)
    assert point_from_lift(lift, ZERO_ABS).isclose(QUAD[0])
    with pytest.raises(NotNull):  # <Z,Z> = 2e-320 against s^2 = 1e-320
        point_from_lift(HermitianVector(2, [1e-160, 0, 1e-160]), ZERO_ABS)


def test_the_error_names_the_pair_and_the_magnitude():
    tiny = [dilate(p, -520) for p in QUAD]
    with pytest.raises(UnderflowError, match=r"^\|<P1,P2>\| = \S+e-31\d lies below the normal "
                                             r"float range$"):
        moduli_coordinates(tiny, ZERO_ABS)
    with pytest.raises(CoincidentPoints, match="points 1 and 2 coincide"):  # abs_tol 1e-9
        moduli_coordinates(tiny)
    lifts = [standard_lift(p, 2) for p in QUAD]
    lifts[3] = lifts[3].scaled(2.0 ** -1030)
    with pytest.raises(UnderflowError, match=r"^\|<P1,P4>\| = \S+e-31\d lies below"):
        gram_of(lifts, ZERO_ABS)


def test_the_cli_reports_a_subnormal_entry_as_malformed_input(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"n": 2, "points": [dilate(p, -520).to_json() for p in QUAD]}))
    assert main(["--tol", "1e-320", "invariants", "--input", str(path)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "malformed-input"
    assert out["detail"].startswith("|<P1,P2>| = ")
    assert out["detail"].endswith("lies below the normal float range")
