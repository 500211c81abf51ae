"""The four workloads: inputs, one op, and the check of its outputs.

Each workload builds its inputs in ``__init__`` (the set-up), runs one
op per ``op(i, api)`` call through an ``Api`` whose functions may carry
spans, and judges an op's outcome in ``check(i, out)``, which returns
``None`` for a correct outcome and a reason otherwise.  Ops cycle
through a fixed mix of input kinds; ``kind(i)`` names the kind of op i.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from chquad import BoundaryPoint, CoincidentPoints, Isometry, ModuliPoint
from chquad import gram, hermitian, invariants, moduli, sampling

import inputs
import reference as ref

ROOT = Path(__file__).resolve().parent.parent

# Every public layer function a workload op or a probe calls.
LAYER = {
    "hermitian.standard_lift": hermitian.standard_lift,
    "hermitian.point_from_lift": hermitian.point_from_lift,
    "hermitian.apply_isometry_point": hermitian.apply_isometry_point,
    "gram.gram_of": gram.gram_of,
    "gram.normalize": gram.normalize,
    "gram.congruent_holomorphic": gram.congruent_holomorphic,
    "gram.congruent_antiholomorphic": gram.congruent_antiholomorphic,
    "invariants.cross_ratio_triple": invariants.cross_ratio_triple,
    "moduli.moduli_coordinates": moduli.moduli_coordinates,
    "moduli.classify": moduli.classify,
    "moduli.in_moduli_space": moduli.in_moduli_space,
    "moduli.reconstruct": moduli.reconstruct,
    "sampling.random_quadruple": sampling.random_quadruple,
    "sampling.random_isometry": sampling.random_isometry,
    "sampling.random_moduli_point": sampling.random_moduli_point,
}
# Reached by no op directly, only through other calls; timed by probes alone.
PROBE_ONLY = ("hermitian.standard_lift", "gram.gram_of", "gram.normalize")

CLI_COMMANDS = ("invariants", "congruent", "check-moduli", "reconstruct", "normalize",
                "counterexample", "sample", "malformed")
CLI_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_cli(argv, stdin: bytes):
    """One ``python -m chquad.cli`` process: (exit code, stdout, peak RSS in KiB)."""
    proc = subprocess.Popen([sys.executable, "-m", "chquad.cli", *argv], cwd=ROOT, env=CLI_ENV,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    # The CLI reads all of its input before it writes, so this order cannot block.
    proc.stdin.write(stdin)
    proc.stdin.close()
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


class Api:
    """The layer functions an op calls, each wrapped in a span when traced."""

    def __init__(self, tracer=None):
        for name, fn in LAYER.items():
            setattr(self, name.split(".")[1], tracer.wrap(name, fn) if tracer else fn)
        self.cli = {cmd: tracer.wrap(f"cli.{cmd}", run_cli, lambda r: r[0] != 0)
                    if tracer else run_cli for cmd in CLI_COMMANDS}


def to_chquad(points):
    return tuple(BoundaryPoint.infinity() if p is None else BoundaryPoint.finite(*p)
                 for p in points)


def from_chquad(points):
    return tuple(None if p.at_infinity else (p.z, p.t) for p in points)


def moduli_point(inv) -> ModuliPoint:
    return ModuliPoint(inv["x1"], inv["x2"], inv["a"])


def classification_ok(kind, inv, is_c_plane, is_r_plane, det_sign) -> bool:
    """The verdict each input kind's known locus demands."""
    if kind == "chain":
        return is_c_plane
    if kind == "r_circle":
        return is_r_plane
    if kind in ("generic_n2", "subspace_n3"):
        return det_sign == "zero"
    return det_sign == ("zero" if ref.in_subspace2(inv) else "negative")


def sample_problem(n, kind, points):
    """Why a quadruple from the package's sampler is invalid, or None."""
    if ref.min_chordal(points, n) <= ref.TOL:
        return "sampled points coincide"
    inv = ref.invariants(points, n)
    tol = ref.rounding_tol(ref.condition(points, n))
    on_locus = {"generic": lambda: True,
                "c_plane": lambda: ref.on_chain(inv, tol),
                "r_plane": lambda: ref.on_r_circle(inv, tol),
                "subspace2": lambda: ref.in_subspace2(inv, tol)}[kind]
    if not on_locus():
        return f"sampled {kind} quadruple is off its locus"
    return None


class Fixture:
    """One valid quadruple and what the probes of every layer function need."""

    def __init__(self, n, points, rng):
        self.n = n
        self.q = to_chquad(points)
        self.m = moduli_point(ref.invariants(points, n))
        self.lifts = [hermitian.standard_lift(p, n) for p in self.q]
        self.G = gram.gram_of(self.lifts)
        self.g = Isometry(n, inputs.isometry(n, rng))


def probe_calls(f: Fixture, api: Api, gen):
    """One call of every layer function on a fixture, by name."""
    return {
        "hermitian.standard_lift": lambda: [api.standard_lift(p, f.n) for p in f.q],
        "hermitian.point_from_lift": lambda: [api.point_from_lift(P) for P in f.lifts],
        "hermitian.apply_isometry_point": lambda: [api.apply_isometry_point(f.g, p) for p in f.q],
        "gram.gram_of": lambda: api.gram_of(f.lifts),
        "gram.normalize": lambda: api.normalize(f.G),
        "gram.congruent_holomorphic": lambda: api.congruent_holomorphic(f.q, f.q),
        "gram.congruent_antiholomorphic": lambda: api.congruent_antiholomorphic(f.q, f.q),
        "invariants.cross_ratio_triple": lambda: api.cross_ratio_triple(f.q),
        "moduli.moduli_coordinates": lambda: api.moduli_coordinates(f.q),
        "moduli.classify": lambda: api.classify(f.m),
        "moduli.in_moduli_space": lambda: api.in_moduli_space(f.m, f.n),
        "moduli.reconstruct": lambda: api.reconstruct(f.m, f.n),
        "sampling.random_quadruple": lambda: api.random_quadruple(f.n, "generic", gen),
        "sampling.random_isometry": lambda: api.random_isometry(f.n, gen),
        "sampling.random_moduli_point": lambda: api.random_moduli_point(gen),
    }


_KERNEL_POINTS = (((0.3 + 0.1j, 0.2j), 0.5), ((-0.5 + 0j, 1.0 + 0j), 0.0),
                  ((0j, -0.8 + 0.3j), 2.0), ((1.2 - 0.4j, 0.1 + 0j), -1.3))


class Workload:
    name = ""
    pool = 1      # distinct inputs; op i runs input i % pool, so each is timed many times
    cycle = 1     # ops in one round of the input mix; runs measure whole rounds
    batch = 1     # ops timed between two checks, a multiple of cycle
    warmup = 0    # untimed ops at the end of set-up
    direct = ()   # layer functions the op calls itself
    # The kernel's calibration figure (median over inputs of its fastest time
    # before each) on an unloaded core of the machine the bounds were set on:
    # a 2-vCPU Intel Xeon VM with Python 3.11.7 and numpy 2.4.6.
    kernel_ref_ns = 60_000

    @staticmethod
    def kernel_ns() -> int:
        """Time of a fixed calibration kernel: the reference invariants of one quadruple.

        It runs no chquad code, so no change to the package can move it,
        and it mixes interpreter work and small numpy calls as the
        library workloads do, so a loaded host slows it alike.
        """
        t = perf_counter_ns()
        ref.invariants(_KERNEL_POINTS, 3)
        return perf_counter_ns() - t

    def kind(self, i) -> str:
        raise NotImplementedError

    def op(self, i, api: Api):
        raise NotImplementedError

    def check(self, i, out):
        raise NotImplementedError

    def fixture_points(self):
        """(n, points) of valid quadruples among this workload's inputs."""
        raise NotImplementedError


class InvariantsWorkload(Workload):
    """The forward map: moduli, cross-ratios, classification, membership."""

    name = "invariants"
    pool = 1000
    invalid_every = 50  # one op in 50 repeats a point and must raise CoincidentPoints
    cycle = batch = invalid_every
    warmup = 100
    direct = ("moduli.moduli_coordinates", "invariants.cross_ratio_triple",
              "moduli.classify", "moduli.in_moduli_space")

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        kinds = list(inputs.KINDS)
        self.items = []
        valid = invalid = 0
        for i in range(self.pool):
            bad = i % self.invalid_every == self.invalid_every - 1
            if bad:
                kind = kinds[invalid % len(kinds)]
                invalid += 1
            else:
                kind = kinds[valid % len(kinds)]
                valid += 1
            n, points = inputs.quadruple(kind, rng)
            q = to_chquad(points)
            if bad:
                q = (q[0], q[1], q[2], q[1])
            self.items.append((kind, bad, n, points, q, ref.invariants(points, n)))

    def kind(self, i):
        kind, bad, *_ = self.items[i % self.pool]
        return "invalid" if bad else kind

    def op(self, i, api):
        _, _, n, _, q, _ = self.items[i % self.pool]
        m = api.moduli_coordinates(q)
        x = api.cross_ratio_triple(q)
        return m, x, api.classify(m), api.in_moduli_space(m, n)

    def check(self, i, out):
        kind, bad, n, points, q, inv = self.items[i % self.pool]
        if bad:
            return None if isinstance(out, CoincidentPoints) else f"expected CoincidentPoints, got {out!r}"
        if isinstance(out, Exception):
            return f"unexpected {out!r}"
        m, x, c, member = out
        if not ref.moduli_close(inv, m.x1, m.x2, m.cartan):
            return "moduli differ from the reference"
        if not ref.close(inv["x3"], x.x3, max(abs(inv["x3"]), abs(x.x3))) or \
                not ref.moduli_close(inv, x.x1, x.x2, inv["a"]):
            return "cross-ratios differ from the reference"
        if not member:
            return "a realised quadruple is reported outside the moduli space"
        if not classification_ok(kind, inv, c.is_c_plane, c.is_r_plane, c.det_sign):
            return f"classification contradicts the {kind} locus"
        return None

    def fixture_points(self):
        return [(n, points) for _, bad, n, points, _, _ in self.items if not bad]


class RoundtripWorkload(Workload):
    """The inverse map and the congruence decisions of the normal form."""

    name = "roundtrip"
    pool = 600
    kinds = ("chain", "generic_n2", "generic_n3")
    cycle = len(kinds)
    batch = 30
    warmup = 60
    direct = ("moduli.reconstruct", "hermitian.point_from_lift",
              "gram.congruent_holomorphic", "gram.congruent_antiholomorphic")

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.items = []
        for i in range(self.pool):
            kind = self.kinds[i % self.cycle]
            n, points = inputs.quadruple(kind, rng)
            inv = ref.invariants(points, n)
            M = inputs.isometry(n, rng)
            moved = [ref.act(M, p, n) for p in points]
            if not ref.moduli_close(ref.invariants(moved, n), inv["x1"], inv["x2"], inv["a"]):
                raise RuntimeError("benchmark isometry does not preserve the reference moduli")
            mirrored = [ref.mirror(p) for p in points]
            self.items.append((kind, n, points, inv, moduli_point(inv), to_chquad(points),
                               to_chquad(moved), to_chquad(mirrored)))

    def kind(self, i):
        return self.items[i % self.pool][0]

    def op(self, i, api):
        _, n, _, _, m, q, moved, mirrored = self.items[i % self.pool]
        rebuilt = tuple(api.point_from_lift(P) for P in api.reconstruct(m, n))
        return (rebuilt, api.congruent_holomorphic(q, rebuilt),
                api.congruent_holomorphic(q, moved), api.congruent_antiholomorphic(q, mirrored))

    def check(self, i, out):
        kind, n, points, inv, *_ = self.items[i % self.pool]
        if isinstance(out, Exception):
            return f"unexpected {out!r}"
        rebuilt, same, moved, mirrored = out
        got = ref.invariants(from_chquad(rebuilt), n)
        if not ref.moduli_close(inv, got["x1"], got["x2"], got["a"]):
            return "reconstructed quadruple has other reference moduli"
        if not (same and moved and mirrored):
            return f"congruence verdicts {same}, {moved}, {mirrored}; all must hold"
        return None

    def fixture_points(self):
        return [(item[1], item[2]) for item in self.items]


class SamplingWorkload(Workload):
    """The package's own random generators, checked for validity only."""

    name = "sampling"
    combos = [(n, kind) for kind in sampling.KINDS for n in (2, 3)]
    cycle = len(combos)
    batch = 6 * cycle
    warmup = 6 * cycle
    direct = ("sampling.random_quadruple", "sampling.random_isometry",
              "hermitian.apply_isometry_point", "sampling.random_moduli_point")
    keep = 100  # well-separated sampled quadruples kept as probe fixtures

    pool = 1000

    def __init__(self, seed):
        # One generator seed per input, so that an input repeats exactly, as
        # `chquad sample` seeds one generator per quadruple.
        self.seeds = np.random.default_rng(seed).integers(2 ** 63, size=self.pool)
        self.verified = {}  # input -> an output that passed the full check
        self.kept = []

    def kind(self, i):
        n, kind = self.combos[i % self.cycle]
        return f"{kind}_n{n}"

    def op(self, i, api):
        n, kind = self.combos[i % self.cycle]
        gen = np.random.default_rng(self.seeds[i % self.pool])
        q = api.random_quadruple(n, kind, gen)
        g = api.random_isometry(n, gen)
        moved = tuple(api.apply_isometry_point(g, p) for p in q)
        return q, g, moved, api.random_moduli_point(gen)

    def check(self, i, out):
        n, kind = self.combos[i % self.cycle]
        if isinstance(out, Exception):
            return f"unexpected {out!r}"
        q, g, moved, m = out
        if self.verified.get(i % self.pool) == (q, moved, m):
            return None
        points = from_chquad(q)
        problem = sample_problem(n, kind, points)
        if problem:
            return problem
        inv = ref.invariants(points, n)
        amplification = np.linalg.norm(g.matrix, 2) ** 2 * ref.condition(points, n)
        if not ref.moduli_close(ref.invariants(from_chquad(moved), n), inv["x1"], inv["x2"],
                                inv["a"], ref.rounding_tol(amplification)):
            return "isometry image has other reference moduli"
        if abs(m.cartan) > ref.HALF_PI or not ref.in_subspace2(
                {"x1": m.x1, "x2": m.x2, "f": ref.defining(m.x1, m.x2, m.cartan)}):
            return "random moduli point is off the F = 0 locus"
        self.verified[i % self.pool] = (q, moved, m)
        if len(self.kept) < self.keep and ref.min_chordal(points, n) > inputs.MIN_CHORDAL:
            self.kept.append((n, points))
        return None

    def fixture_points(self):
        return self.kept


class CliWorkload(Workload):
    """One ``python -m chquad.cli`` process per op, cycling the command mix."""

    name = "cli"
    rounds = 2  # few distinct calls, so each is timed several times in a run
    sample_count = 1000  # makes in-process sampling a visible share of the call
    cycle = batch = len(CLI_COMMANDS)
    warmup = 1
    direct = ()
    kernel_ref_ns = 40_000_000

    @staticmethod
    def kernel_ns() -> int:
        """Time of a bare interpreter process, the calibration kernel of CLI calls."""
        t = perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=CLI_ENV, check=True)
        return perf_counter_ns() - t

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        kinds = list(inputs.KINDS)
        self.calls = []  # (command, argv, stdin, expectation)
        self.quadruples = []  # every quadruple behind the inputs, the probes' fixtures
        self.peak_rss_kib = 0  # largest checked child
        self.bytes_out = self.calls_checked = 0

        def draw(kind):
            self.quadruples.append(inputs.quadruple(kind, rng))
            return self.quadruples[-1]

        for r in range(self.rounds):
            n2 = 2 + r % 2
            generic = f"generic_n{n2}"
            kind = kinds[r % len(kinds)]
            n, points = draw(kind)
            self._add("invariants", [], inputs.quadruple_json(n, points),
                      (kind, ref.invariants(points, n)))

            n, points = draw(generic)
            inv = ref.invariants(points, n)
            M = inputs.isometry(n, rng)
            moved = [ref.act(M, p, n) for p in points]
            minv = ref.invariants(moved, n)
            anti = ref.normal_form_close(inv, minv["g13"].conjugate(), minv["g14"].conjugate(),
                                         minv["g24"].conjugate())
            self._add("congruent", [], {"first": inputs.quadruple_json(n, points),
                                        "second": inputs.quadruple_json(n, moved)}, anti)

            for cmd in ("check-moduli", "reconstruct"):
                n, points = draw(("chain", generic)[r % 2])
                inv = ref.invariants(points, n)
                self._add(cmd, [], {"n": n, "moduli": inputs.moduli_json(inv["x1"], inv["x2"], inv["a"])},
                          (n, inv))

            n, points = draw(generic)
            scales = rng.uniform(0.5, 2.0, 4) * np.exp(2j * np.pi * rng.uniform(size=4))
            lifts = [s * ref.lift(p, n) for s, p in zip(scales, points)]
            self._add("normalize", [], {"lifts": [{"n": n, "coords": [[c.real, c.imag] for c in P]}
                                                  for P in lifts]},
                      (ref.gram(lifts), ref.invariants(points, n)))

            t = float(rng.uniform(0.2, 5.0))
            t = t if abs(t - 1.0) > 0.05 else t + 0.5
            self._add("counterexample", ["--t", repr(t)], None, t)

            seed_arg = int(rng.integers(2 ** 31))
            skind = sampling.KINDS[r % len(sampling.KINDS)]
            self._add("sample", ["--n", str(n2), "--kind", skind, "--count", str(self.sample_count),
                                 "--seed", str(seed_arg)], None, (n2, skind))

            self._add("malformed", [], b'{"n": 2, "points": [', None)
        self.pool = len(self.calls)

    def _add(self, command, argv, stdin, expect):
        argv = ["invariants"] if command == "malformed" else [command, *argv]
        if isinstance(stdin, dict):
            stdin = json.dumps(stdin).encode()
        self.calls.append((command, argv, stdin or b"", expect))

    def kind(self, i):
        return self.calls[i % self.pool][0]

    def op(self, i, api):
        command, argv, stdin, _ = self.calls[i % self.pool]
        return api.cli[command](argv, stdin)

    def check(self, i, out):
        command, _, _, expect = self.calls[i % self.pool]
        if isinstance(out, Exception):
            return f"unexpected {out!r}"
        code, stdout, rss_kib = out
        self.peak_rss_kib = max(self.peak_rss_kib, rss_kib)
        self.bytes_out += len(stdout)
        self.calls_checked += 1
        if command == "malformed":
            if code != 2:
                return f"malformed input gave exit {code}, expected 2"
            return None if json.loads(stdout).get("error") == "malformed-input" else "wrong error code"
        if code != 0:
            return f"exit {code}: {stdout[:200]!r}"
        if command == "sample":
            return self._check_sample(stdout, *expect)
        return getattr(self, "_check_" + command.replace("-", "_"))(json.loads(stdout), expect)

    @staticmethod
    def _check_invariants(obj, expect):
        kind, inv = expect
        m, x, c = obj["moduli"], obj["cross_ratios"], obj["classification"]
        if not ref.moduli_close(inv, complex(*m["x1"]), complex(*m["x2"]), m["a"]):
            return "moduli differ from the reference"
        x3 = complex(*x["x3"])
        if not ref.close(inv["x3"], x3, max(abs(inv["x3"]), abs(x3))):
            return "X3 differs from the reference"
        if not classification_ok(kind, inv, c["is_c_plane"], c["is_r_plane"], c["det_sign"]):
            return f"classification contradicts the {kind} locus"
        return None

    @staticmethod
    def _check_congruent(obj, anti):
        if obj["holomorphic"] is not True or obj["antiholomorphic"] is not anti:
            return f"verdicts {obj}, expected holomorphic true, antiholomorphic {anti}"
        return None

    @staticmethod
    def _check_check_moduli(obj, expect):
        _, inv = expect
        if obj["member"] is not True:
            return "a realised moduli point is reported outside the moduli space"
        if not ref.close(obj["residuals"]["defining"], inv["f"], ref.f_scale(inv["x1"], inv["x2"])):
            return "defining function differs from the reference"
        return None

    @staticmethod
    def _check_reconstruct(obj, expect):
        n, inv = expect
        got = ref.invariants([inputs.point_from_json(p) for p in obj["points"]], n)
        if not ref.moduli_close(inv, got["x1"], got["x2"], got["a"]):
            return "reconstructed quadruple has other reference moduli"
        return None

    @staticmethod
    def _check_normalize(obj, expect):
        G, inv = expect
        got = np.array([[complex(*v) for v in row] for row in obj["gram"]])
        if np.max(np.abs(got - G)) > ref.TOL * (1.0 + np.max(np.abs(G))):
            return "Gram matrix differs from the reference"
        nf = {k: complex(*v) for k, v in obj["normalized"].items()}
        if not ref.normal_form_close(inv, nf["g13"], nf["g14"], nf["g24"]):
            return "normal form differs from the reference"
        return None

    @staticmethod
    def _check_counterexample(obj, t):
        p, q = ref.witness(t)
        inv, minv = ref.invariants(p, 2), ref.invariants(q, 2)
        for key, want in (("cross_ratios", inv), ("mirror_cross_ratios", minv)):
            got = {k: complex(*v) for k, v in obj[key].items()}
            if not all(ref.close(want[k], got[k], max(abs(want[k]), abs(got[k])))
                       for k in ("x1", "x2", "x3")):
                return f"{key} differ from the reference"
        if not (ref.close(obj["moduli"]["a"], inv["a"]) and ref.close(obj["mirror_moduli"]["a"], minv["a"])):
            return "Cartan invariants differ from the reference"
        if obj["holomorphic_congruent"] is not False or obj["antiholomorphic_congruent"] is not True:
            return "certificate verdicts are wrong"
        return None

    def _check_sample(self, stdout, n, kind):
        lines = stdout.decode().splitlines()
        if len(lines) != self.sample_count:
            return f"{len(lines)} sample lines, expected {self.sample_count}"
        for index, line in enumerate(lines):
            obj = json.loads(line)
            if obj["n"] != n or obj["kind"] != kind or obj["index"] != index:
                return f"sample line {index} has the wrong header"
            problem = sample_problem(n, kind, [inputs.point_from_json(p) for p in obj["points"]])
            if problem:
                return f"sample line {index}: {problem}"
        return None

    def fixture_points(self):
        return self.quadruples


WORKLOADS = {w.name: w for w in (InvariantsWorkload, RoundtripWorkload, SamplingWorkload, CliWorkload)}
