import json
import math

import pytest

from chquad import default_config
from chquad.cli import main


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
    from chquad import NumericConfig, set_default_config
    set_default_config(NumericConfig())


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


def test_tol_flag_restores_default_config(capsys):
    before = default_config()
    code, _ = run(capsys, "--tol", "1e-2", "counterexample", "--t", "2")
    assert code == 0
    assert default_config() == before
