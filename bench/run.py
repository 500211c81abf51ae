#!/usr/bin/env python3
"""Benchmark of chquad: four workloads against the library and the CLI.

Run from the repository root (the package is used from ``src/``, never
installed):

    python3 bench/run.py --workload invariants --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seconds 5
    python3 bench/run.py --compare bench/results/a.json bench/results/b.json

One caller, closed loop: each op starts when the previous one has
finished.  Library workloads run in this process; the ``cli`` workload
runs one child process at a time.  Every output is checked against the
benchmark's own reference (``reference.py``).  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` wraps a span around each call the
benchmark makes into a layer and reports the per-layer metrics.  Every
metric is printed with its unit, the full record goes to
``bench/results/``, and the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``bench/README.md`` for the workloads and metrics.
"""

import time

_START = time.perf_counter()  # set-up is timed from here, before any import below

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from spans import Tracer, p50, p99

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

SETUP_REPEATS = 9      # fresh-process set-ups behind the setup_s median
START_REPEATS = 5      # bare-interpreter and import-only processes in a traced run
PROBE_FIXTURES = 100   # quadruples each probe function is timed on

END_TO_END = {"ops_per_s": "op/s", "op_us_p50": "us", "setup_s": "s", "peak_rss_mb": "MB"}


def load_workloads():
    """Import the workloads, which import chquad from ``src/``."""
    if not (ROOT / "src" / "chquad" / "__init__.py").is_file():
        sys.exit(f"bench: no chquad package under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    return workloads


def per_layer_units(W) -> dict:
    """Every per-layer metric name, in report order, with its unit."""
    units = {}
    for name in W.LAYER:
        units.update({f"{name}.us_p50": "us", f"{name}.us_p99": "us", f"{name}.calls": "count"})
        if name not in W.PROBE_ONLY:
            units.update({f"{name}.errors": "count", f"{name}.share": "ratio"})
    units.update({"cli.interpreter_ms": "ms", "cli.import_ms": "ms"})
    for cmd in W.CLI_COMMANDS:
        units.update({f"cli.{cmd}.ms_p50": "ms", f"cli.{cmd}.calls": "count",
                      f"cli.{cmd}.errors": "count"})
    units.update({"cli.bytes_out": "B", "tail.op_us_p99": "us", "tail.op_us_p99.beyond": "count",
                  "trace.overhead_frac": "ratio"})
    return units


def set_up(W, name, seed, start):
    """Build the workload's inputs and run its warm-up ops; returns (workload, seconds)."""
    wl = W.WORKLOADS[name](seed)
    api = W.Api()
    for i in range(wl.warmup):
        try:
            wl.op(i, api)
        except Exception:  # the timed phase checks and counts every outcome
            pass
    return wl, time.perf_counter() - start


def fresh_setup_seconds(name, seed) -> float:
    """Set-up time of the workload in a new interpreter, from its first line."""
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                           "--seed", str(seed), "--setup-only"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.split()[-1])


def measure(wl, api, seconds, start, kernel_ns=None):
    """Run whole batches of ops until ``seconds`` of op time have passed (at least one batch).

    ``kernel_ns``, if given, is timed just before each op; it and the
    checks of the outputs, which run between batches, stay outside the
    measured wall time.
    """
    phase = {"times": [], "wall_ns": 0, "mix": Counter(), "failed": Counter(), "examples": [],
             "start": start, "kernel": []}
    i = start
    while True:
        batch = []
        kernel = 0
        segment = perf_counter_ns()
        for _ in range(wl.batch):
            if kernel_ns:
                phase["kernel"].append(kernel_ns())
                kernel += phase["kernel"][-1]
            t = perf_counter_ns()
            try:
                out = wl.op(i, api)
            except Exception as exc:  # an op's error is an outcome to check
                out = exc
            phase["times"].append(perf_counter_ns() - t)
            batch.append((i, out))
            i += 1
        phase["wall_ns"] += perf_counter_ns() - segment - kernel
        for j, out in batch:
            kind = wl.kind(j)
            phase["mix"][kind] += 1
            try:
                problem = wl.check(j, out)
            except (KeyError, ValueError, TypeError, IndexError, AttributeError) as exc:
                problem = f"unreadable output: {exc!r}"
            if problem:
                phase["failed"][kind] += 1
                if len(phase["examples"]) < 5:
                    phase["examples"].append(f"op {j} ({kind}): {problem}")
        if phase["wall_ns"] >= seconds * 1e9:
            phase["next"] = i
            return phase


def merge(phases):
    out = {"times": [], "wall_ns": 0, "mix": Counter(), "failed": Counter(), "examples": []}
    for ph in phases:
        out["times"] += ph["times"]
        out["wall_ns"] += ph["wall_ns"]
        out["mix"] += ph["mix"]
        out["failed"] += ph["failed"]
        out["examples"] += ph["examples"]
    return out


def metric(value, unit, **extra):
    return {"value": value, "unit": unit, **extra}


def best_per_input(wl, times, start):
    """Each input's fastest of its timed runs, in ns (``times[j]`` belongs to op start + j)."""
    best = {}
    for j, t in enumerate(times):
        k = (start + j) % wl.pool
        if t < best.get(k, math.inf):
            best[k] = t
    return list(best.values())


def calibration(wl, ph) -> float:
    """Factor that scales a time of this run to the reference core.

    The host's speed drifts by 20-50% over periods of seconds to minutes
    as other tenants load it, often for whole runs.  Contention only adds
    time, so each input's fastest run is its cost at the best speed the
    host gave during the run; the kernel, timed just before every op and
    reduced by the same statistic, measures that speed, and the ratio to
    its fastest time on the reference core cancels the drift.
    """
    return wl.kernel_ref_ns / statistics.median(best_per_input(wl, ph["kernel"], ph["start"]))


def run_untraced(W, wl, seed, seconds, setup_repeats):
    ph = measure(wl, W.Api(), seconds, wl.warmup, wl.kernel_ns)
    ops = len(ph["times"])
    best = best_per_input(wl, ph["times"], ph["start"])
    scale = calibration(wl, ph)
    if wl.name == "cli":
        rss_mb = wl.peak_rss_kib / 1024.0
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Each set-up runs in a fresh interpreter, next to a bare interpreter
    # start that calibrates it as the CLI kernel calibrates CLI calls.
    setups, starts = [], []
    for _ in range(setup_repeats):
        starts.append(W.CliWorkload.kernel_ns())
        setups.append(fresh_setup_seconds(wl.name, seed))
    setup_scale = W.CliWorkload.kernel_ref_ns / statistics.median(starts)
    metrics = {
        "ops_per_s": metric(len(best) / (sum(best) * scale / 1e9), "op/s", inputs=len(best),
                            ops=ops, uncalibrated=len(best) / (sum(best) / 1e9),
                            wall_ops_per_s=ops / (ph["wall_ns"] / 1e9)),
        "op_us_p50": metric(statistics.median(best) * scale / 1e3, "us", inputs=len(best),
                            ops=ops, uncalibrated=statistics.median(best) / 1e3,
                            all_ops_us_p50=statistics.median(ph["times"]) / 1e3),
        "setup_s": metric(statistics.median(setups) * setup_scale, "s", samples=len(setups),
                          uncalibrated=statistics.median(setups)),
        "fail_frac": metric(sum(ph["failed"].values()) / ops, "ratio", samples=ops),
        "peak_rss_mb": metric(rss_mb, "MB",
                              scope="largest child" if wl.name == "cli" else "this process"),
    }
    return ph, metrics, {"calibration": scale, "setup_calibration": setup_scale,
                         "setups_s": setups}


def process_ms(W, code) -> float:
    t = perf_counter_ns()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=W.CLI_ENV, check=True,
                   capture_output=True, timeout=120)
    return (perf_counter_ns() - t) / 1e6


def run_traced(W, wl, seed, seconds):
    tracer = Tracer()
    plain, traced = W.Api(), W.Api(tracer)
    phases = {False: [], True: []}
    i = wl.warmup
    for k in range(4):  # alternate plain and traced quarters, so drift hits both alike
        ph = measure(wl, traced if k % 2 else plain, seconds / 4, i)
        i = ph["next"]
        phases[bool(k % 2)].append(ph)
    plain_ph, traced_ph = merge(phases[False]), merge(phases[True])
    rate = {key: len(ph["times"]) / (ph["wall_ns"] / 1e9) for key, ph in
            ((False, plain_ph), (True, traced_ph))}
    op_ns = sum(traced_ph["times"])

    # Layer functions the op does not call itself are timed by probes on its inputs.
    probes = Tracer()
    probe_api = W.Api(probes)
    rng = np.random.default_rng(seed)
    gen = np.random.default_rng(seed)
    for n, points in wl.fixture_points()[:PROBE_FIXTURES]:
        calls = W.probe_calls(W.Fixture(n, points, rng), probe_api, gen)
        for name in W.LAYER:
            if name not in wl.direct:
                calls[name]()

    values = {}
    for name in W.LAYER:
        source = tracer if name in wl.direct else probes
        durations = source.durations[name]
        values[f"{name}.us_p50"] = p50(durations) / 1e3
        values[f"{name}.us_p99"] = p99(durations)[0] / 1e3
        values[f"{name}.calls"] = len(durations)
        if name not in W.PROBE_ONLY:
            values[f"{name}.errors"] = source.errors[name]
            values[f"{name}.share"] = sum(tracer.durations.get(name, ())) / op_ns

    starts = {"pass": [], "import chquad": []}
    for _ in range(START_REPEATS):
        for code, samples in starts.items():
            samples.append(process_ms(W, code))
    values["cli.interpreter_ms"] = statistics.median(starts["pass"])
    values["cli.import_ms"] = statistics.median(starts["import chquad"])

    cli, cli_tracer, extra_phases = wl, tracer, []
    if wl.name != "cli":  # one round of the CLI mix on the cli workload's inputs
        cli, cli_tracer = W.CliWorkload(seed), Tracer()
        extra_phases.append(measure(cli, W.Api(cli_tracer), 0, 0))
    for cmd in W.CLI_COMMANDS:
        durations = cli_tracer.durations[f"cli.{cmd}"]
        values[f"cli.{cmd}.ms_p50"] = p50(durations) / 1e6
        values[f"cli.{cmd}.calls"] = len(durations)
        values[f"cli.{cmd}.errors"] = cli_tracer.errors[f"cli.{cmd}"]
    values["cli.bytes_out"] = cli.bytes_out / cli.calls_checked

    tail, beyond = p99(plain_ph["times"])
    values["tail.op_us_p99"] = tail / 1e3
    values["tail.op_us_p99.beyond"] = beyond
    values["trace.overhead_frac"] = 1.0 - rate[True] / rate[False]

    units = per_layer_units(W)
    metrics = {name: metric(values[name], unit) for name, unit in units.items()}
    metrics["tail.op_us_p99"]["samples"] = len(plain_ph["times"])
    return merge([plain_ph, traced_ph, *extra_phases]), metrics, {
        "ops_per_s_untraced": rate[False], "ops_per_s_traced": rate[True]}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout's git repository, read from files; 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        if (git / ref_name).is_file():
            return (git / ref_name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu_model(), "git_commit": git_commit(),
            "loadavg_start": list(os.getloadavg())}


def run_workload(W, name, seed, seconds, trace, start, setup_repeats=SETUP_REPEATS) -> dict:
    wl, _ = set_up(W, name, seed, start)
    if trace:
        ph, metrics, notes = run_traced(W, wl, seed, seconds)
    else:
        ph, metrics, notes = run_untraced(W, wl, seed, seconds, setup_repeats)
    attempted = len(ph["times"])
    failed = sum(ph["failed"].values())
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "fail_frac": failed / attempted, "mix": dict(sorted(ph["mix"].items())),
            "failed_by_kind": dict(ph["failed"]), "failures": ph["examples"], **notes}


def report(name, result):
    print(f"[{name}] attempted {result['attempted']} ops, failed {result['failed']}")
    for key, m in result["metrics"].items():
        extra = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in m.items() if k not in ("value", "unit"))
        print(f"  {key:<44} {m['value']:>14.6g} {m['unit']:<6} {extra}")
    print("  mix: " + ", ".join(f"{k}={v}" for k, v in result["mix"].items()))
    for line in result["failures"]:
        print(f"  FAILED {line}")


def compare(base_path, new_path):
    """Print each metric of each workload in both files: base, new and new/base."""
    base = json.loads(Path(base_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    print(f"{'workload':<11} {'metric':<44} {'unit':<6} {'base':>13} {'new':>13} {'new/base':>9}")
    for wl in base:
        if wl not in new:
            continue
        for key, b in base[wl]["metrics"].items():
            n = new[wl]["metrics"].get(key)
            if n is None:
                continue
            ratio = n["value"] / b["value"] if b["value"] else math.nan
            print(f"{wl:<11} {key:<44} {b['unit']:<6} {b['value']:>13.6g} {n['value']:>13.6g} "
                  f"{ratio:>9.4f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["invariants", "roundtrip", "sampling", "cli", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0, help="measured op time per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="print the metrics of two result files side by side")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit (used for setup_s)")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if not args.workload:
        parser.error("--workload is required")

    W = load_workloads()
    if args.setup_only:
        seconds = set_up(W, args.workload, args.seed, _START)[1]
        print(seconds)
        return 0

    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    results = {}
    start = _START
    for name in names:
        results[name] = run_workload(W, name, args.seed, args.seconds, args.trace, start)
        start = time.perf_counter()
        report(name, results[name])
    env["loadavg_end"] = list(os.getloadavg())
    print(f"environment: {json.dumps(env)}")

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"environment": env, "seed": args.seed, "seconds": args.seconds,
                                "trace": args.trace, "workloads": results}, indent=1))
    print(f"results written to {path.relative_to(ROOT)}")

    keys = list(per_layer_units(W)) if args.trace else list(END_TO_END)
    prefix = len(names) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {(f"{name}.{k}" if prefix else k): {"value": r["metrics"][k]["value"],
                                                       "unit": r["metrics"][k]["unit"]}
                    for name, r in results.items() for k in keys},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
