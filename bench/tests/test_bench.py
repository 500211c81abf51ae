"""Tests of the benchmark's own code: reference, input generator, isometries, metrics."""

import json
import math
import time

import numpy as np
import pytest

import chquad
import inputs
import reference as ref
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
W = run.load_workloads()


@pytest.mark.parametrize("t", [2.0, 3.0, 0.5, 10.0])
def test_reference_reproduces_the_witness_family(t):
    p, q = ref.witness(t)
    for points, sign in ((p, -1.0), (q, 1.0)):
        inv = ref.invariants(points, 2)
        assert ref.close(inv["x1"], 1.0 / t)
        assert ref.close(inv["x2"], (t - 1.0) / t)
        assert ref.close(inv["x3"], 1.0 - t, abs(t))
        assert ref.close(inv["a"], sign * math.pi / 2)


FIXTURES = [
    (2, (((0.3 + 0.1j,), 0.5), None, ((-1.0 + 0.2j,), -0.7), ((0.4 - 0.9j,), 1.1))),
    (3, (((0.3 + 0.1j, 0.2j), 0.5), ((-0.5 + 0j, 1.0 + 0j), 0.0),
         ((0j, -0.8 + 0.3j), 2.0), ((1.2 - 0.4j, 0.1 + 0j), -1.3))),
    (2, (((0j,), -1.0), ((0j,), 0.25), ((0j,), 1.5), None)),
    (3, (((0.5 + 0j, 0j), 0.0), ((-1.5 + 0j, 0j), 0.0), ((2.0 + 0j, 0j), 0.0),
         ((0.1 + 0j, 0j), 0.0))),
]


@pytest.mark.parametrize("n, points", FIXTURES)
def test_reference_agrees_with_chquad(n, points):
    inv = ref.invariants(points, n)
    q = W.to_chquad(points)
    m = chquad.moduli_coordinates(q)
    x = chquad.cross_ratio_triple(q)
    nf = chquad.normalized_gram_of_points(q)
    assert ref.moduli_close(inv, m.x1, m.x2, m.cartan)
    assert ref.close(inv["x3"], x.x3, abs(x.x3))
    assert ref.normal_form_close(inv, nf.g13, nf.g14, nf.g24)
    assert ref.close(inv["f"], chquad.moduli_residual(m), ref.f_scale(m.x1, m.x2))


def test_generated_kinds_lie_on_their_locus():
    rng = np.random.default_rng(7)
    for kind, n in inputs.KINDS.items():
        for _ in range(40):
            got_n, points = inputs.quadruple(kind, rng)
            assert got_n == n
            assert ref.min_chordal(points, n) > inputs.MIN_CHORDAL
            inv = ref.invariants(points, n)
            c = chquad.classify(W.moduli_point(inv))
            assert W.classification_ok(kind, inv, c.is_c_plane, c.is_r_plane, c.det_sign)
            if kind == "chain":
                assert ref.on_chain(inv)
            elif kind == "r_circle":
                assert ref.on_r_circle(inv)
            elif kind == "generic_n3":
                assert inv["f"] < 0.0
            else:
                assert ref.in_subspace2(inv)


@pytest.mark.parametrize("n", [2, 3])
def test_benchmark_isometry_preserves_reference_moduli(n):
    rng = np.random.default_rng(11)
    J = ref.form_matrix(n)
    for _ in range(30):
        _, points = inputs.quadruple(f"generic_n{n}", rng)
        inv = ref.invariants(points, n)
        U = np.linalg.qr(rng.standard_normal((n - 1, n - 1)) + 0j)[0]
        for M in (inputs.isometry(n, rng), ref.dilation(n, 1.7), ref.rotation(U),
                  ref.vertical_translation(n, -0.6)):
            assert np.allclose(M.conj().T @ J @ M, J)
            moved = ref.invariants([ref.act(M, p, n) for p in points], n)
            assert ref.moduli_close(inv, moved["x1"], moved["x2"], moved["a"])


def test_benchmark_json_names_the_metrics_the_runner_emits():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.per_layer_units(W))
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units(W)
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["invariants", "roundtrip", "sampling", "cli"])
def test_minimal_run_emits_every_named_metric(monkeypatch, name, trace):
    monkeypatch.setattr(run, "START_REPEATS", 1)
    result = run.run_workload(W, name, seed=3, seconds=0.0, trace=trace,
                              start=time.perf_counter(), setup_repeats=1)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] > 0
    wanted = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    for key in wanted:
        value = result["metrics"][key]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), key
    if not trace:
        assert result["metrics"]["fail_frac"]["value"] == 0.0
        assert all(result["metrics"][key]["value"] > 0 for key in wanted)


def test_compare_prints_one_row_per_workload_and_metric(tmp_path, capsys):
    def record(ops):
        return {"workloads": {w: {"metrics": {"ops_per_s": {"value": ops, "unit": "op/s"},
                                              "setup_s": {"value": 0.5, "unit": "s"}}}
                              for w in ("invariants", "cli")}}
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(record(100.0)))
    new.write_text(json.dumps(record(125.0)))
    run.compare(base, new)
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 4
    assert rows[0].split() == ["invariants", "ops_per_s", "op/s", "100", "125", "1.2500"]
