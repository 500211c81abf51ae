"""Command-line front end: JSON in, JSON out.

Complex numbers are always [re, im] pairs and angles are radians.
Subcommands compose: `reconstruct` output feeds `invariants` and
`normalize`; `invariants` and `check-moduli` exchange the moduli
object; `sample` emits one quadruple per line for `invariants` (which
accepts every line at the same `--tol`) or `congruent`.  Exit codes:
0 success, 1 domain error (machine-readable {"error", "detail"} on
stdout), 2 malformed input, whose detail names the JSON path that
failed (e.g. `points[0].z[0]: expected [re, im]`), 141 (128 + SIGPIPE)
when the reader closes standard output early, as `chquad sample ... |
head -1` does; nothing is written to stderr then.  A dimension n above
MAX_N = 1024 (`reconstruct`, `check-moduli`, `sample --n`) is malformed
input: four points span at most a CH^3.

argv is `[--tol X] COMMAND [--flag value | --flag=value ...]`, read once
off the table COMMANDS; a flag is named exactly, never abbreviated.  A
usage error (no or an unknown command, an unknown flag, a flag without a
value or a required one missing, a literal int() or float() rejects, a
--kind outside sampling.KINDS) prints a usage line and the reason to
stderr, nothing to stdout, and exits 2; -h or --help exits 0.  Each
command imports the modules it calls once it has read its input, as
module loading is most of the time a call takes past interpreter start:
without cached bytecode, on 2 vCPUs, `chquad invariants` took ~95 ms, of
which ~65 ms started Python, ~16 ms compiled and ran chquad's modules,
~4 ms loaded the standard library's (json for the most part), and well
under 1 ms was arithmetic.  argparse, whose import and parser took ~6 ms
more, is not loaded.
"""

from __future__ import annotations

import json
import math
import os
import sys
from types import SimpleNamespace

from .errors import GeometryError, UnderflowError
from .numeric import NumericConfig

MAX_N = 1024


def _finite(token: str) -> float:
    """JSON number hook: NaN, Infinity and literals beyond the float range are malformed."""
    x = float(token)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {token} in input")
    return x


def _read_json(args) -> dict:
    if args.input == "-":
        return json.load(sys.stdin, parse_float=_finite, parse_constant=_finite)
    with open(args.input) as fh:
        return json.load(fh, parse_float=_finite, parse_constant=_finite)


def _points_from_json(obj, path: str = "") -> tuple:
    """The four points of the quadruple object at path ('' for the whole input)."""
    from .points import BoundaryPoint, _json_field, _json_list

    where = f"{path}.points" if path else "points"
    points = _json_list(_json_field(obj, "points", path or "input"), where)
    if len(points) != 4:
        raise ValueError(f"{where}: expected 4 points, got {len(points)}")
    return tuple(BoundaryPoint.from_json(p, f"{where}[{k}]") for k, p in enumerate(points))


def _json_n(obj) -> int:
    """The input's dimension "n": a JSON int or integral float (``points._json_int``)."""
    from .points import _json_field, _json_int

    return _bounded_n(_json_int(_json_field(obj, "n", "input"), "n"), "n")


def _bounded_n(n: int, name: str) -> int:
    """Reject a dimension above MAX_N before anything of that size is allocated."""
    if n > MAX_N:
        raise ValueError(f"{name} must be <= {MAX_N}, got {n}")
    return n


def _grid(start: float, stop: float, steps: int):
    """The values of np.linspace(start, stop, steps), one at a time."""
    div = max(steps - 1, 1)
    delta = stop - start
    step = delta / div
    for k in range(steps):
        if k == div:
            yield stop
        elif step == 0.0:  # numpy's order when the step underflows
            yield k / div * delta + start
        else:
            yield k * step + start


def _quadruple_json(n: int, points) -> dict:
    return {"n": n, "points": [p.to_json() for p in points]}


def _cmd_invariants(obj, cfg):
    from .invariants import _cross_ratios, _moduli, _quadruple_gram
    from .moduli import classify
    from .points import infer_dimension

    points = _points_from_json(obj)
    n = infer_dimension(points)
    g = _quadruple_gram(points, cfg)  # one Gram matrix for the moduli and the triple
    m = _moduli(g, cfg)
    return {
        "n": n,
        "moduli": m.to_json(),
        "cross_ratios": _cross_ratios(g).to_json(),
        "classification": classify(m, cfg).to_json(),
    }


def _cmd_normalize(obj, cfg):
    from .gram import gram_of, normalize
    from .hermitian import HermitianVector
    from .points import _json_field, _json_list

    lifts = _json_list(_json_field(obj, "lifts", "input"), "lifts")
    G = gram_of([HermitianVector.from_json(v, f"lifts[{k}]") for k, v in enumerate(lifts)], cfg)
    return {"gram": G.to_json(), "normalized": normalize(G, cfg).to_json()}


def _cmd_reconstruct(obj, cfg):
    from .hermitian import point_from_lift
    from .invariants import ModuliPoint
    from .moduli import reconstruct
    from .points import _json_field

    n = _json_n(obj)
    m = ModuliPoint.from_json(_json_field(obj, "moduli", "input"), "moduli", cfg)
    lifts = reconstruct(m, n, cfg)
    points = [point_from_lift(P, cfg) for P in lifts]
    out = _quadruple_json(n, points)
    out["moduli"] = m.to_json()
    out["lifts"] = [P.to_json() for P in lifts]
    return out


def _cmd_check_moduli(obj, cfg):
    from .invariants import ModuliPoint
    from .moduli import _positivity, in_moduli_space, moduli_residual
    from .points import _json_field

    n = _json_n(obj)
    m = ModuliPoint.from_json(_json_field(obj, "moduli", "input"), "moduli", cfg)
    return {
        "n": n,
        "moduli": m.to_json(),
        "member": in_moduli_space(m, n, cfg),
        "residuals": {
            "defining": moduli_residual(m),
            "positivity": _positivity(m),
        },
    }


def _cmd_congruent(obj, cfg):
    from .invariants import congruent_antiholomorphic, congruent_holomorphic
    from .points import _json_field

    p = _points_from_json(_json_field(obj, "first", "input"), "first")
    q = _points_from_json(_json_field(obj, "second", "input"), "second")
    return {
        "holomorphic": congruent_holomorphic(p, q, cfg),
        "antiholomorphic": congruent_antiholomorphic(p, q, cfg),
    }


def _cmd_counterexample(args, cfg):
    if not math.isfinite(args.t):
        raise ValueError(f"--t must be finite, got {args.t}")
    from .varieties import certify_noninjectivity

    return certify_noninjectivity(args.t, cfg).to_json()


def _cmd_sample(args, cfg):
    import numpy as np

    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    _bounded_n(args.n, "--n")
    from .sampling import random_quadruple

    # one child per record, as spawn(count) would give, without holding count children
    root = np.random.SeedSequence(args.seed)
    encode = json.JSONEncoder(allow_nan=False).encode  # what json.dumps(..., allow_nan=False) runs
    for index in range(args.count):
        (child,) = root.spawn(1)
        points = random_quadruple(args.n, args.kind, np.random.default_rng(child), cfg)
        line = {"n": args.n, "kind": args.kind, "seed": args.seed, "index": index}
        line.update(_quadruple_json(args.n, points))
        print(encode(line))
    return None


def _cmd_slice(args, cfg):
    for flag in ("a", "x1_min", "x1_max", "x2_min", "x2_max"):
        value = getattr(args, flag)
        if not math.isfinite(value):
            raise ValueError(f"--{flag.replace('_', '-')} must be finite, got {value}")
    for flag in ("x1_steps", "x2_steps"):
        value = getattr(args, flag)
        if value < 0:
            raise ValueError(f"--{flag.replace('_', '-')} must be >= 0, got {value}")
    r1 = max(abs(args.x1_min), abs(args.x1_max))
    r2 = max(abs(args.x2_min), abs(args.x2_max))
    # |F| on the grid is at most this (triangle inequality), so F stays finite below the cap
    if 1.0 + 2.0 * (r1 + r2) + 2.0 * r1 * r2 + r1 * r1 + r2 * r2 > sys.float_info.max / 2:
        raise ValueError("--x1/--x2 bounds too large: the residual could overflow")
    import csv

    from .invariants import _residual  # moduli.real_slice_residual's body, without moduli

    writer = csv.writer(sys.stdout)
    writer.writerow(["x1", "x2", "residual"])
    for x1 in _grid(args.x1_min, args.x1_max, args.x1_steps):
        for x2 in _grid(args.x2_min, args.x2_max, args.x2_steps):
            writer.writerow([f"{x1:.12g}", f"{x2:.12g}",
                             f"{_residual(x1, x2, args.a)[0]:.12g}"])
    return None


def _kind(value: str) -> str:
    """--kind's type: one of sampling.KINDS, read from the samplers that `sample` loads."""
    from .sampling import KINDS

    if value not in KINDS:
        raise ValueError(f"invalid choice {value!r} (choose from {', '.join(KINDS)})")
    return value


# command -> (handler name, help line, {flag: (type, default)}), a default of None marking a
# required flag; main calls the handler by name, on the --input JSON if it has one, else on args
_INPUT = {"input": (str, "-")}
COMMANDS = {
    "invariants": ("_cmd_invariants", "quadruple -> moduli, cross-ratios, classification",
                   _INPUT),
    "normalize": ("_cmd_normalize", "null lifts -> Gram matrix and its normal form", _INPUT),
    "reconstruct": ("_cmd_reconstruct", "moduli point + n -> realizing quadruple", _INPUT),
    "check-moduli": ("_cmd_check_moduli", "moduli point + n -> membership and residuals",
                     _INPUT),
    "congruent": ("_cmd_congruent", "two quadruples -> congruence verdicts", _INPUT),
    "counterexample": ("_cmd_counterexample",
                       "certificate that cross-ratio coordinates glue two classes",
                       {"t": (float, None)}),
    "sample": ("_cmd_sample", "random quadruples as JSON lines",
               {"n": (int, None), "kind": (_kind, "generic"), "count": (int, 1),
                "seed": (int, 0)}),
    "slice": ("_cmd_slice", "CSV of the defining residual on a real (X1, X2) grid at fixed A",
              {"a": (float, None), "x1-min": (float, -1.0), "x1-max": (float, 3.0),
               "x1-steps": (int, 81), "x2-min": (float, -1.0), "x2-max": (float, 3.0),
               "x2-steps": (int, 81)}),
}
_TOP = {"tol": (float, None)}  # the flags before the command; no --tol: the default config


class _Usage(Exception):
    """(command, reason): argv does not fit COMMANDS, or with reason None asks for help."""


def _parse(argv):
    """(command, args) read off argv: [--tol X] COMMAND [--flag value | --flag=value ...].

    A value is the next token as it stands, so `--count -1` reaches the handler's own
    check; a repeated flag keeps its last value.
    """
    command, flags, values, tol, k = None, _TOP, {}, None, 0
    while k < len(argv):
        token, k = argv[k], k + 1
        if token in ("-h", "--help"):
            raise _Usage(command, None)
        if command is None and not token.startswith("-"):
            if token not in COMMANDS:
                raise _Usage(None, f"unknown command {token!r}")
            command, flags, tol, values = token, COMMANDS[token][2], values.get("tol"), {}
            continue
        name, eq, value = token.partition("=")
        if not name.startswith("--") or name[2:] not in flags:
            raise _Usage(command, f"unrecognized argument {token!r}")
        if not eq:
            if k == len(argv):
                raise _Usage(command, f"{name} expects a value")
            value, k = argv[k], k + 1
        try:
            values[name[2:]] = flags[name[2:]][0](value)
        except ValueError as e:
            raise _Usage(command, f"{name}: {e}") from None
    if command is None:
        raise _Usage(None, "a command is required")
    missing = [f"--{f}" for f, (_, default) in flags.items()
               if default is None and f not in values]
    if missing:
        raise _Usage(command, f"missing {', '.join(missing)}")
    args = {f.replace("-", "_"): values.get(f, default) for f, (_, default) in flags.items()}
    return command, SimpleNamespace(tol=tol, **args)


def _help(command) -> list:
    """The help lines of a command (None: of chquad), read off COMMANDS; the first is usage."""
    if command is None:
        return ["usage: chquad [-h] [--tol TOL] COMMAND [--FLAG VALUE ...]", "",
                "Invariants and moduli coordinates of boundary quadruples in complex "
                "hyperbolic n-space.", "", "commands:",
                *(f"  {name:<16}{text}" for name, (_, text, _) in COMMANDS.items()), "",
                "  --tol TOL       abs_tol and rel_tol of the config passed to every call", "",
                "A flag is --name value or --name=value, by its exact name."]
    _, text, flags = COMMANDS[command]
    usage = (f"--{f} {f.upper().replace('-', '_')}" for f in flags)
    usage = (u if default is None else f"[{u}]" for u, (_, default) in zip(usage, flags.values()))
    return [" ".join(["usage: chquad", command, "[-h]", *usage]), "", text, "", "flags:",
            *(f"  --{f:<14}{'required' if default is None else f'default {default}'}"
              for f, (_, default) in flags.items()),
            *(["", "--input names a JSON file; '-' reads stdin."] if "input" in flags else [])]


def main(argv=None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else argv)
    except _Usage as e:
        command, reason = e.args
        if reason is None:
            print("\n".join(_help(command)))
            return 0
        print(_help(command)[0], f"chquad: error: {reason}", sep="\n", file=sys.stderr)
        return 2
    try:
        if args.tol is not None and not 0.0 < args.tol < math.inf:
            raise ValueError(f"--tol must be finite and > 0, got {args.tol}")
        cfg = NumericConfig() if args.tol is None else NumericConfig(args.tol, args.tol)
        name, _, flags = COMMANDS[command]
        payload = globals()[name](_read_json(args) if "input" in flags else args, cfg)
        text = None if payload is None else json.dumps(payload, indent=2, allow_nan=False)
    except GeometryError as e:
        print(json.dumps({"error": e.code, "detail": str(e)}))
        return 1
    except BrokenPipeError:
        raise  # the reader has gone; there is no one to send an error record to
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, IndexError, OSError,
            OverflowError, UnderflowError) as e:
        print(json.dumps({"error": "malformed-input", "detail": str(e)}))
        return 2
    if text is not None:
        print(text)
    return 0


def entry():
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Python ignores SIGPIPE, so a closed pipe surfaces as this exception;
        # stdout now points nowhere so that the interpreter's final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141  # 128 + SIGPIPE, the status of a process the signal ended
    raise SystemExit(status)


if __name__ == "__main__":
    entry()
