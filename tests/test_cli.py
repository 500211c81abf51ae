import json
import math
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from chquad import (BoundaryPoint, counterexample_pair, moduli_coordinates, random_quadruple,
                    standard_lift)
from chquad.sampling import KINDS
from chquad.cli import _grid, _quadruple_json, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


WITNESS_MODULI = {"x1": [0.5, 0.0], "x2": [0.5, 0.0], "a": -math.pi / 2}


def test_counterexample_command(capsys):
    code, out = run(capsys, "counterexample", "--t", "2")
    assert code == 0
    cert = json.loads(out)
    assert cert["cross_ratios"]["x1"] == [0.5, 0.0]
    assert cert["cross_ratios"]["x2"] == [0.5, 0.0]
    assert cert["cross_ratios"]["x3"] == [-1.0, 0.0]
    assert cert["holomorphic_congruent"] is False
    assert cert["antiholomorphic_congruent"] is True


def test_counterexample_rejects_t_one(capsys):
    code, out = run(capsys, "counterexample", "--t", "1")
    assert code == 1
    assert json.loads(out)["error"] == "invalid-parameter"


def test_check_moduli_command(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"n": 2, "moduli": WITNESS_MODULI})
    code, out = run(capsys, "check-moduli", "--input", path)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["member"] is True
    assert abs(verdict["residuals"]["defining"]) < 1e-9


def test_reconstruct_invariants_pipeline(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"n": 2, "moduli": WITNESS_MODULI})
    code, out = run(capsys, "reconstruct", "--input", path)
    assert code == 0
    quad = json.loads(out)
    assert len(quad["points"]) == 4 and len(quad["lifts"]) == 4

    path2 = write(tmp_path, "quad.json", quad)
    code, out = run(capsys, "invariants", "--input", path2)
    assert code == 0
    inv = json.loads(out)
    assert abs(inv["moduli"]["x1"][0] - 0.5) < 1e-7
    assert abs(inv["moduli"]["a"] - (-math.pi / 2)) < 1e-7
    assert inv["classification"]["is_c_plane"] is True

    # the lifts feed the normalize command directly
    path3 = write(tmp_path, "lifts.json", {"lifts": quad["lifts"]})
    code, out = run(capsys, "normalize", "--input", path3)
    assert code == 0
    norm = json.loads(out)
    assert abs(norm["normalized"]["g13"][1] - (-1.0)) < 1e-7
    assert abs(norm["normalized"]["g14"][0] - 2.0) < 1e-7

    # and the moduli object feeds check-moduli
    path4 = write(tmp_path, "back.json", {"n": 2, "moduli": inv["moduli"]})
    code, out = run(capsys, "check-moduli", "--input", path4)
    assert code == 0
    assert json.loads(out)["member"] is True


def test_sample_lines_feed_invariants(tmp_path, capsys):
    code, out = run(capsys, "sample", "--n", "2", "--kind", "c_plane",
                    "--count", "3", "--seed", "11")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        quad = json.loads(line)
        path = write(tmp_path, "q.json", quad)
        code, out = run(capsys, "invariants", "--input", path)
        assert code == 0
        assert json.loads(out)["classification"]["is_c_plane"] is True


@pytest.mark.parametrize("n", ["2", "3"])
def test_every_sampled_r_plane_record_has_moduli(capsys, n):
    # covers n = 2 records 5879 and 6076 (coincident points) and 9724 (zero cross-ratio)
    code, out = run(capsys, "sample", "--n", n, "--kind", "r_plane", "--seed", "0",
                    "--count", "10000")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10000
    for line in lines:
        points = json.loads(line)["points"]
        moduli_coordinates([BoundaryPoint.from_json(p) for p in points])


def test_sample_output_feeds_invariants_at_the_same_tol(tmp_path, capsys):
    for kind in KINDS:
        code, out = run(capsys, "--tol", "1e-2", "sample", "--n", "3", "--kind", kind,
                        "--count", "25", "--seed", "3")
        assert code == 0
        for line in out.splitlines():
            path = write(tmp_path, "q.json", json.loads(line))
            code, record = run(capsys, "--tol", "1e-2", "invariants", "--input", path)
            assert code == 0, record


def test_sample_deterministic(capsys):
    _, first = run(capsys, "sample", "--n", "3", "--count", "2", "--seed", "7")
    _, second = run(capsys, "sample", "--n", "3", "--count", "2", "--seed", "7")
    assert first == second


def test_congruent_command(tmp_path, capsys):
    code, out = run(capsys, "counterexample", "--t", "3")
    cert = json.loads(out)
    payload = {"first": cert["quadruple"], "second": cert["mirror_quadruple"]}
    path = write(tmp_path, "pair.json", payload)
    code, out = run(capsys, "congruent", "--input", path)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["holomorphic"] is False
    assert verdict["antiholomorphic"] is True


def test_slice_csv(capsys):
    code, out = run(capsys, "slice", "--a", "0", "--x1-min", "1", "--x1-max", "1",
                    "--x1-steps", "1", "--x2-min", "1", "--x2-max", "1", "--x2-steps", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x1,x2,residual"
    x1, x2, res = lines[1].split(",")
    assert float(res) == -3.0


def test_malformed_input_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out = run(capsys, "invariants", "--input", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "malformed-input"

    path2 = write(tmp_path, "short.json", {"n": 2, "points": []})
    code, out = run(capsys, "invariants", "--input", str(path2))
    assert code == 2


@pytest.mark.parametrize("command", ["invariants", "normalize", "reconstruct", "check-moduli",
                                     "congruent"])
def test_a_missing_input_file_exits_two(capsys, command):
    code, out = run(capsys, command, "--input", "/nonexistent/q.json")
    assert code == 2
    assert out == ('{"error": "malformed-input", "detail": "[Errno 2] No such file or directory: '
                   "'/nonexistent/q.json'\"}\n")


def test_domain_error_exits_one(tmp_path, capsys):
    bad = {"n": 2, "moduli": {"x1": [1.0, 0.0], "x2": [1.0, 0.0], "a": 0.0}}
    path = write(tmp_path, "m.json", bad)
    code, out = run(capsys, "reconstruct", "--input", str(path))
    assert code == 1
    assert json.loads(out)["error"] == "not-in-moduli-space"


def test_output_round_trips_through_json(capsys):
    code, out = run(capsys, "counterexample", "--t", "2")
    parsed = json.loads(out)
    assert json.loads(json.dumps(parsed)) == parsed


def test_tol_flag(tmp_path, capsys):
    # an aggressive tolerance declares a barely-off point a member
    moduli = {"x1": [0.5, 0.0], "x2": [0.5001, 0.0], "a": -math.pi / 2}
    path = write(tmp_path, "m.json", {"n": 2, "moduli": moduli})
    code, out = run(capsys, "check-moduli", "--input", path)
    assert json.loads(out)["member"] is False
    code, out = run(capsys, "--tol", "1e-2", "check-moduli", "--input", path)
    assert json.loads(out)["member"] is True


@pytest.mark.parametrize("argv", [
    ("--tol", "-1", "counterexample", "--t", "2"),
    ("--tol", "0", "counterexample", "--t", "2"),
    ("--tol", "nan", "counterexample", "--t", "2"),
    ("--tol", "inf", "counterexample", "--t", "2"),
    ("counterexample", "--t", "nan"),
    ("counterexample", "--t", "inf"),
    ("sample", "--n", "2", "--count", "-1"),
])
def test_bad_numeric_flags_exit_two(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"] == "malformed-input"


def test_no_process_wide_config():
    import chquad
    assert not hasattr(chquad, "set_default_config")
    assert not hasattr(chquad, "default_config")


def test_tol_flag_does_not_leak(tmp_path, capsys):
    # the point test_tol_flag moves into the moduli space with --tol 1e-2
    from chquad import ModuliPoint, in_moduli_space
    moduli = {"x1": [0.5, 0.0], "x2": [0.5001, 0.0], "a": -math.pi / 2}
    path = write(tmp_path, "m.json", {"n": 2, "moduli": moduli})
    code, out = run(capsys, "--tol", "1e-2", "check-moduli", "--input", path)
    assert code == 0 and json.loads(out)["member"] is True
    assert in_moduli_space(ModuliPoint(0.5, 0.5001, -math.pi / 2), 2) is False


def strict_json(text):
    """Parse text as standard JSON: NaN and Infinity tokens are errors."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command,text", [
    ("check-moduli", '{"n": 2, "moduli": {"x1": [NaN, 0], "x2": [0.5, 0], "a": 0.1}}'),
    ("check-moduli", '{"n": 2, "moduli": {"x1": [0.5, 0], "x2": [Infinity, 0], "a": 0.1}}'),
    ("check-moduli", '{"n": 2, "moduli": {"x1": [0.5, 0], "x2": [0.5, 0], "a": 1e999}}'),
    ("invariants", '{"points": [{"type": "finite", "z": [[NaN, 0]], "t": 0},'
                   ' {"type": "finite", "z": [[1, 0]], "t": 0},'
                   ' {"type": "finite", "z": [[0, 1]], "t": 0}, {"type": "infinity"}]}'),
    ("invariants", '{"points": [{"type": "finite", "z": [[0, 0]], "t": -Infinity},'
                   ' {"type": "finite", "z": [[1, 0]], "t": 0},'
                   ' {"type": "finite", "z": [[0, 1]], "t": 0}, {"type": "infinity"}]}'),
])
def test_non_finite_input_exits_two(tmp_path, capsys, command, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    code, out = run(capsys, command, "--input", str(path))
    assert code == 2
    assert strict_json(out)["error"] == "malformed-input"


def test_overflow_exits_two(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"n": 2, "moduli": {"x1": [1e308, 0], "x2": [0.5, 0],
                                                         "a": 0.1}})
    code, out = run(capsys, "check-moduli", "--input", path)
    assert code == 2
    assert strict_json(out)["error"] == "malformed-input"


@pytest.mark.parametrize("command", ["check-moduli", "reconstruct"])
@pytest.mark.parametrize("x1, x2, detail", [
    (1e200, 1, "F leaves the float range at |X1| = 1e+200, |X2| = 1.0"),
    (1.3e154, 1.3e154, "F leaves the float range at |X1| = 1.3e+154, |X2| = 1.3e+154")])
def test_an_overflowing_f_exits_two_naming_x1_and_x2(tmp_path, capsys, command, x1, x2, detail):
    path = write(tmp_path, "m.json", {"n": 3, "moduli": {"x1": [x1, 0], "x2": [x2, 0], "a": 0}})
    code, out = run(capsys, command, "--input", path)
    assert code == 2
    assert strict_json(out) == {"error": "malformed-input", "detail": detail}


def test_invariants_reads_one_gram_matrix_per_input(tmp_path, capsys, monkeypatch):
    import chquad.invariants

    kernel, runs = chquad.invariants._points_rows, []
    monkeypatch.setattr(chquad.invariants, "_points_rows",
                        lambda *args: runs.append(args) or kernel(*args))
    quad = _quadruple_json(2, counterexample_pair(2.0)[0])
    code, out = run(capsys, "invariants", "--input", write(tmp_path, "q.json", quad))
    assert code == 0 and json.loads(out)["moduli"]["x1"] == [0.5, 0.0]
    assert len(runs) == 1


def test_overflowing_moduli_modulus_exits_two_naming_the_field(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"n": 2, "moduli": {"x1": [1.5e308, 1.5e308],
                                                         "x2": [0.5, 0], "a": 0.1}})
    code, out = run(capsys, "check-moduli", "--input", path)
    assert code == 2
    assert strict_json(out) == {"error": "malformed-input",
                                "detail": "|X1| overflows for parts of magnitude 1.5e+308"}


def test_overflowing_lift_exits_two_naming_the_magnitude(tmp_path, capsys):
    points = [{"type": "finite", "z": [[1e200, 0]], "t": 0}, {"type": "infinity"},
              {"type": "finite", "z": [[0, 0]], "t": 0}, {"type": "finite", "z": [[1, 0]], "t": 0}]
    code, out = run(capsys, "invariants", "--input", write(tmp_path, "q.json", {"points": points}))
    assert code == 2
    assert strict_json(out) == {"error": "malformed-input",
                                "detail": "<P1,P3> overflows for coordinates of magnitude 1e+200"}


def test_non_finite_output_exits_two(capsys, monkeypatch):
    import chquad.cli as cli
    monkeypatch.setattr(cli, "_cmd_counterexample", lambda args, cfg: {"value": math.nan})
    code, out = run(capsys, "counterexample", "--t", "2")
    assert code == 2
    record = strict_json(out)
    assert record["error"] == "malformed-input"
    assert record["detail"].startswith("Out of range float values are not JSON compliant")


def test_overflowing_lift_products_exit_two(tmp_path, capsys):
    # valid null lifts whose products overflow: <P,P> would be inf - inf = NaN, not a verdict
    points = counterexample_pair(2.0)[0]
    lifts = [standard_lift(p, 2).scaled(1e160).to_json() for p in points]
    code, out = run(capsys, "normalize", "--input", write(tmp_path, "l.json", {"lifts": lifts}))
    assert code == 2
    assert strict_json(out)["error"] == "malformed-input"


@pytest.mark.parametrize("flag,value", [
    ("--x1-steps", "-1"), ("--x2-steps", "-1"), ("--a", "nan"), ("--a", "inf"),
    ("--x1-min", "inf"), ("--x1-max", "nan"), ("--x2-min", "-inf"), ("--x2-max", "inf"),
])
def test_slice_bad_flags_exit_two_without_header(capsys, flag, value):
    code, out = run(capsys, "slice", "--a=0", f"{flag}={value}")
    assert code == 2
    assert strict_json(out)["error"] == "malformed-input"


@pytest.mark.parametrize("bounds", [
    ("--x1-min=1e200", "--x1-max=1e200"),
    ("--x1-min=1.3e154", "--x1-max=1.3e154", "--x2-min=1.3e154", "--x2-max=1.3e154",
     "--x1-steps=1", "--x2-steps=1"),
    ("--x2-min=-1e300", "--x2-steps=0"),
])
def test_slice_overflowing_bounds_exit_two_without_header(capsys, bounds):
    code, out = run(capsys, "slice", "--a=0", *bounds)
    assert code == 2
    assert strict_json(out)["error"] == "malformed-input"


def test_slice_large_finite_bounds_stay_finite(capsys):
    code, out = run(capsys, "slice", "--a=0.3", "--x1-min=-1e153", "--x1-max=1e153",
                    "--x2-min=-1e153", "--x2-max=1e153", "--x1-steps=3", "--x2-steps=3")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 9
    assert all(math.isfinite(float(row.split(",")[2])) for row in rows)


@pytest.mark.parametrize("start,stop,steps", [
    (-1.0, 3.0, 0), (-1.0, 3.0, 1), (-1.0, 3.0, 2), (-1.0, 3.0, 81), (2.5, 2.5, 7),
    (-3.5, -0.25, 11), (3.0, -1.0, 81), (0.1, -0.7, 2), (0.0, 5e-324, 3),
])
def test_grid_matches_linspace(start, stop, steps):
    assert list(_grid(start, stop, steps)) == np.linspace(start, stop, steps).tolist()


def test_grid_is_lazy():
    steps = 10**12
    head = list(islice(_grid(-1.0, 3.0, steps), 3))
    assert head == [k * (4.0 / (steps - 1)) - 1.0 for k in range(3)]


@pytest.mark.parametrize("command,text", [
    ("reconstruct", '{"n": 100000000, "moduli": {"x1": [0.5, 0], "x2": [0.5, 0], "a": -1.5}}'),
    ("reconstruct", '{"n": 1025, "moduli": {"x1": [0.5, 0], "x2": [0.5, 0], "a": -1.5}}'),
    ("check-moduli", '{"n": 100000000, "moduli": {"x1": [0.5, 0], "x2": [0.5, 0], "a": -1.5}}'),
])
def test_dimension_above_max_exits_two(tmp_path, capsys, command, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    code, out = run(capsys, command, "--input", str(path))
    assert code == 2
    assert strict_json(out)["error"] == "malformed-input"


@pytest.mark.parametrize("command", ["check-moduli", "reconstruct"])
@pytest.mark.parametrize("n,detail", [
    ("2.9", "n: expected an integer, got 2.9"),
    ('"3"', "n: expected an integer, got '3'"),
    ("true", "n: expected an integer, got True"),
    ("null", "n: expected an integer, got None"),
    ("[2]", "n: expected an integer, got [2]"),
])
def test_non_integer_dimension_exits_two(tmp_path, capsys, command, n, detail):
    path = tmp_path / "in.json"
    path.write_text('{"n": ' + n + ', "moduli": ' + json.dumps(WITNESS_MODULI) + "}")
    code, out = run(capsys, command, "--input", str(path))
    assert code == 2
    assert strict_json(out) == {"error": "malformed-input", "detail": detail}


@pytest.mark.parametrize("command", ["check-moduli", "reconstruct"])
def test_integral_float_dimension_reads_as_an_int(tmp_path, capsys, command):
    outputs = []
    for n in ("2", "2.0"):
        path = tmp_path / "in.json"
        path.write_text('{"n": ' + n + ', "moduli": ' + json.dumps(WITNESS_MODULI) + "}")
        code, out = run(capsys, command, "--input", str(path))
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] and json.loads(outputs[0])["n"] == 2


@pytest.mark.parametrize("n", ["1025", "100000000"])
def test_sample_dimension_above_max_exits_two(capsys, n):
    code, out = run(capsys, "sample", "--n", n)
    assert code == 2
    assert strict_json(out)["error"] == "malformed-input"


FINE = '{"type": "finite", "z": [[1, 0]], "t": 0}'


def quadruple_text(*points):
    return '{"points": [' + ", ".join(points) + "]}"


MALFORMED_POINTS = [
    ("invariants", quadruple_text('{"type": "finite", "z": [[0.5, 0, 1]], "t": 0}',
                                  FINE, FINE, '{"type": "infinity"}'),
     "points[0].z[0]: expected [re, im]"),
    ("invariants", quadruple_text(FINE, '{"type": "finite", "z": [["a", 0]], "t": 0}',
                                  FINE, FINE),
     "points[1].z[0][0]: expected a number"),
    ("invariants", quadruple_text(FINE, '{"type": "finite", "z": [[1, 0]], "t": "nan"}',
                                  FINE, FINE),
     "points[1].t: expected a number"),
    ("invariants", quadruple_text(FINE, FINE, '{"z": [[1, 0]], "t": 0}', FINE),
     "points[2]: missing key 'type'"),
    ("invariants", quadruple_text(FINE, FINE, FINE, "[1, 2]"),
     "points[3]: expected an object"),
    ("invariants", quadruple_text(FINE, '{"type": "bogus"}', FINE, FINE),
     "points[1].type: unknown point type 'bogus'"),
    ("invariants", '{"points": {}}', "points: expected a list"),
    ("congruent", '{"first": ' + quadruple_text(FINE, FINE, FINE, FINE)
     + ', "second": ' + quadruple_text(FINE, FINE, '{"type": "finite", "z": 1, "t": 0}', FINE)
     + "}",
     "second.points[2].z: expected a list"),
    ("congruent", '{"first": ' + quadruple_text(FINE, FINE, FINE, FINE) + "}",
     "input: missing key 'second'"),
    ("check-moduli", '{"n": 2, "moduli": {"x1": [0.5, 0], "x2": [0.5, 0], "a": "nan"}}',
     "moduli.a: expected a number"),
]


@pytest.mark.parametrize("command,text,where",
                         [pytest.param(*case, id=case[2]) for case in MALFORMED_POINTS])
def test_malformed_point_names_json_path(tmp_path, capsys, command, text, where):
    path = tmp_path / "in.json"
    path.write_text(text)
    code, out = run(capsys, command, "--input", str(path))
    assert code == 2
    error = strict_json(out)
    assert error["error"] == "malformed-input"
    assert error["detail"] == where


LIFT = '{"n": 1, "coords": [[1, 0], [0, 0]]}'

MALFORMED_LIFTS = [
    ('{"lifts": [{"n": 1, "coords": [[0, 0], [1, 0, 2]]}, ' + LIFT + "]}",
     "lifts[0].coords[1]: expected [re, im]"),
    ('{"lifts": [' + LIFT + ', {"n": 1, "coords": [["a", 0], [1, 0]]}]}',
     "lifts[1].coords[0][0]: expected a number"),
    ('{"lifts": [' + LIFT + ", " + LIFT + ', {"n": 1, "coords": 5}]}',
     "lifts[2].coords: expected a list"),
    ('{"lifts": [' + LIFT + ', {"n": 1}]}', "lifts[1]: missing key 'coords'"),
    ('{"lifts": [' + LIFT + ", [1, 2]]}", "lifts[1]: expected an object"),
    ('{"lifts": {}}', "lifts: expected a list"),
    ('{"gram": []}', "input: missing key 'lifts'"),
]


@pytest.mark.parametrize("text,where",
                         [pytest.param(*case, id=case[1]) for case in MALFORMED_LIFTS])
def test_malformed_lift_names_json_path(tmp_path, capsys, text, where):
    path = tmp_path / "in.json"
    path.write_text(text)
    code, out = run(capsys, "normalize", "--input", str(path))
    assert code == 2
    error = strict_json(out)
    assert error["error"] == "malformed-input"
    assert error["detail"] == where


def lifts_text(n_texts) -> str:
    """The lifts input of counterexample_pair's first quadruple, lift k's "n" written as
    n_texts[k]."""
    lifts = [standard_lift(p, 2).to_json() for p in counterexample_pair(2.0)[0]]
    return '{"lifts": [' + ", ".join(
        json.dumps(P).replace('"n": 2', f'"n": {n}') for P, n in zip(lifts, n_texts)) + "]}"


@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("n,shown", [("2.7", "2.7"), ("true", "True"), ('"2"', "'2'"),
                                     ("null", "None")])
def test_a_lift_dimension_that_is_not_an_integer_exits_two(tmp_path, capsys, k, n, shown):
    # read by int() it was 2.7 -> 2, true -> 1 and "2" -> 2
    n_texts = ["2"] * 4
    n_texts[k] = n
    path = tmp_path / "in.json"
    path.write_text(lifts_text(n_texts))
    code, out = run(capsys, "normalize", "--input", str(path))
    assert code == 2
    assert strict_json(out) == {"error": "malformed-input",
                                "detail": f"lifts[{k}].n: expected an integer, got {shown}"}


def test_an_integral_float_lift_dimension_reads_as_an_int(tmp_path, capsys):
    outputs = []
    for n in ("2", "2.0"):
        path = tmp_path / "in.json"
        path.write_text(lifts_text([n] * 4))
        code, out = run(capsys, "normalize", "--input", str(path))
        assert code == 0 and "normalized" in strict_json(out)
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_sample_spawns_one_seed_per_record(capsys, monkeypatch):
    spawned = []

    class Recording(np.random.SeedSequence):
        def spawn(self, n_children):
            spawned.append(n_children)
            return super().spawn(n_children)

    monkeypatch.setattr(np.random, "SeedSequence", Recording)
    code, out = run(capsys, "sample", "--n", "2", "--kind", "c_plane", "--count", "5",
                    "--seed", "4")
    monkeypatch.undo()
    assert code == 0
    assert spawned == [1] * 5
    # the children spawn(5) gives at once, so the records are those of an up-front spawn
    for index, (line, child) in enumerate(zip(out.splitlines(),
                                              np.random.SeedSequence(4).spawn(5))):
        points = random_quadruple(2, "c_plane", np.random.default_rng(child))
        want = {"n": 2, "kind": "c_plane", "seed": 4, "index": index}
        want.update(_quadruple_json(2, points))
        assert line == json.dumps(want, allow_nan=False)


def test_closed_output_pipe_exits_141_quietly():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.Popen([sys.executable, "-m", "chquad.cli", "sample", "--n", "2",
                             "--count", "100000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()  # the reader goes away after one line, as `head -1` does
        status = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert json.loads(first)["index"] == 0
    assert status == 141
    assert "Traceback" not in stderr and stderr == ""
