"""A boundary point's kept read of its coordinates changes no outcome.

The Gram kernel of points (``points._points_rows``) reads each finite
point's coordinates once and keeps that read on the point (``_read``).
The read is not a field: it is left out of ``==``, ``hash``, ``repr`` and
JSON, depends on no ``NumericConfig``, and each call still makes every
decision of its own.  The points here are built by hand; this file imports
neither numpy nor pytest, so it also runs as ``python tests/test_point_read.py``
on an interpreter without them.
"""

import copy
import math
import pickle
from dataclasses import FrozenInstanceError

from chquad import NumericConfig
from chquad.errors import CoincidentPoints, DimensionMismatch, InvalidParameter
from chquad.hermitian import standard_lifts
from chquad.points import BoundaryPoint, _points_rows, infer_dimension

COARSE = NumericConfig(1e-3, 1e-3)


def finite(z, t):
    return BoundaryPoint.finite(z, t)


def quad():
    return (finite([0.3 - 0.7j, -1.1 + 0.2j], 0.4), finite([-0.5 + 0.1j, 0.8 + 0.9j], -1.3),
            BoundaryPoint.infinity(), finite([1.2 + 0.6j, 0.05 - 0.4j], 2.2))


def unread(p):
    return BoundaryPoint(p.at_infinity, p.z, p.t)


def raised(run):
    """The type and message of the error run() raises, or None."""
    try:
        run()
    except Exception as e:  # every error is part of the outcome
        return type(e), str(e)
    return None


def test_both_constructors_build_the_same_value():
    p, q = BoundaryPoint(False, [1j, 2.0 + 0j], 0.5), finite([1j, 2.0], 0.5)
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
    assert type(p.z) is tuple
    z = [1j]
    r = BoundaryPoint(False, z, 0.5)
    z.append(3j)  # the caller's list is not the point's
    assert r.z == (1j,) and infer_dimension((r, r, r)) == 2
    assert BoundaryPoint(False, q.z, 0.5).z is q.z  # a tuple is kept, not copied
    inf, direct = BoundaryPoint.infinity(), BoundaryPoint(True, [1j], 2.0)  # no z, t at infinity
    assert direct == inf and hash(direct) == hash(inf) and repr(direct) == repr(inf)
    assert BoundaryPoint.from_json(direct.to_json()) == direct and direct.mirror() is direct


def test_the_first_kernel_run_keeps_each_finite_points_read():
    points = quad()
    assert all(p._read is None for p in points)
    rows = _points_rows(points, NumericConfig())
    reads = [p._read for p in points]
    assert reads[2] is None
    for p, (flat, t, norm) in zip(points[:2] + points[3:], reads[:2] + reads[3:]):
        assert flat == tuple(part for v in p.z for part in (v.real, v.imag)) and t == p.t
        assert norm == math.hypot(*flat)
    assert _points_rows(points, COARSE) == rows  # well apart: both configs agree
    assert all(p._read is r for p, r in zip(points, reads))
    assert _points_rows(tuple(map(unread, points)), NumericConfig()) == rows


def test_a_read_point_is_the_value_it_was():
    read, fresh = quad(), quad()
    _points_rows(read, NumericConfig())
    for p, q in zip(read, fresh):
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
        assert p.to_json() == q.to_json() and "_read" not in repr(p)
        for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert twin == q and hash(twin) == hash(q) and repr(twin) == repr(q)
            assert twin._read == p._read  # a copy keeps the read, which its fields determine
        assert p.mirror() == q.mirror()
        assert p.mirror()._read is None or p.at_infinity  # a mirror is a new, unread point
        for attempt in (lambda: setattr(p, "_read", None), lambda: delattr(p, "_read")):
            assert raised(attempt)[0] is FrozenInstanceError


def test_each_call_decides_its_errors_on_read_points():
    a, b, inf, d = quad()
    narrow, near = finite([0.1j], 0.2), finite([0.3 - 0.7j, -1.1 + 0.2j], 0.4 + 1e-6)
    _points_rows((a, b, inf, d), NumericConfig())
    _points_rows((narrow, finite([1.0], 0.0), finite([2.0], 1.0)), NumericConfig())
    cases = [((a, narrow, d), DimensionMismatch, "points live in different dimensions"),
             ((narrow, a, d), DimensionMismatch, "points live in different dimensions"),
             ((inf, inf, inf), CoincidentPoints, "all points are at infinity"),
             ((a, b), InvalidParameter, "expected 3 or 4 points, got 2"),
             ((a, b, d, a, b), InvalidParameter, "expected 3 or 4 points, got 5"),
             ((a, b, a), CoincidentPoints, "points 1 and 3 coincide")]
    for points, error, message in cases:
        for _ in range(2):
            assert raised(lambda: _points_rows(points, NumericConfig())) == (error, message)
    # a read kept under one config decides nothing under another: near is 1e-6 from a
    for cfg in (NumericConfig(), COARSE, NumericConfig()):
        outcome = raised(lambda: _points_rows((a, b, near), cfg))
        assert outcome == ((CoincidentPoints, "points 1 and 3 coincide") if cfg is COARSE
                           else None)


def test_the_lift_side_shares_the_read():
    points = quad()
    assert infer_dimension(points) == 3
    reads = [p._read for p in points]
    assert [r is None for r in reads] == [p.at_infinity for p in points]
    lifts = standard_lifts(points)
    assert all(p._read is r for p, r in zip(points, reads))
    assert [P.values for P in lifts] == [P.values for P in standard_lifts(quad())]


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
    print("ok")
