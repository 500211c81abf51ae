"""Command-line front end: JSON in, JSON out.

Complex numbers are always [re, im] pairs and angles are radians.
Subcommands compose: `reconstruct` output feeds `invariants` and
`normalize`; `invariants` and `check-moduli` exchange the moduli
object; `sample` emits one quadruple per line for `invariants` or
`congruent`.  Exit codes: 0 success, 1 domain error (machine-readable
{"error", "detail"} on stdout), 2 malformed input.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .errors import GeometryError
from .gram import congruent_antiholomorphic, congruent_holomorphic, gram_of, normalize
from .hermitian import BoundaryPoint, HermitianVector, infer_dimension, point_from_lift
from .invariants import ModuliPoint, cross_ratio_triple
from .moduli import (
    _positivity,
    classify,
    in_moduli_space,
    moduli_coordinates,
    moduli_residual,
    real_slice_residual,
    reconstruct,
)
from .numeric import NumericConfig, default_config, set_default_config
from .sampling import KINDS, random_quadruple
from .varieties import certify_noninjectivity


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


def _points_from_json(obj) -> tuple:
    points = tuple(BoundaryPoint.from_json(p) for p in obj["points"])
    if len(points) != 4:
        raise ValueError(f"expected 4 points, got {len(points)}")
    return points


def _quadruple_json(n: int, points) -> dict:
    return {"n": n, "points": [p.to_json() for p in points]}


def _cmd_invariants(args):
    obj = _read_json(args)
    points = _points_from_json(obj)
    n = infer_dimension(points)
    m = moduli_coordinates(points)
    return {
        "n": n,
        "moduli": m.to_json(),
        "cross_ratios": cross_ratio_triple(points).to_json(),
        "classification": classify(m).to_json(),
    }


def _cmd_normalize(args):
    obj = _read_json(args)
    lifts = [HermitianVector.from_json(v) for v in obj["lifts"]]
    G = gram_of(lifts)
    return {"gram": G.to_json(), "normalized": normalize(G).to_json()}


def _cmd_reconstruct(args):
    obj = _read_json(args)
    n = int(obj["n"])
    m = ModuliPoint.from_json(obj["moduli"])
    lifts = reconstruct(m, n)
    points = [point_from_lift(P) for P in lifts]
    out = _quadruple_json(n, points)
    out["moduli"] = m.to_json()
    out["lifts"] = [P.to_json() for P in lifts]
    return out


def _cmd_check_moduli(args):
    obj = _read_json(args)
    n = int(obj["n"])
    m = ModuliPoint.from_json(obj["moduli"])
    return {
        "n": n,
        "moduli": m.to_json(),
        "member": in_moduli_space(m, n),
        "residuals": {
            "defining": moduli_residual(m),
            "positivity": _positivity(m),
        },
    }


def _cmd_congruent(args):
    obj = _read_json(args)
    p = _points_from_json(obj["first"])
    q = _points_from_json(obj["second"])
    return {
        "holomorphic": congruent_holomorphic(p, q),
        "antiholomorphic": congruent_antiholomorphic(p, q),
    }


def _cmd_counterexample(args):
    if not math.isfinite(args.t):
        raise ValueError(f"--t must be finite, got {args.t}")
    return certify_noninjectivity(args.t).to_json()


def _cmd_sample(args):
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    seeds = np.random.SeedSequence(args.seed).spawn(args.count)
    for index, child in enumerate(seeds):
        points = random_quadruple(args.n, args.kind, np.random.default_rng(child))
        line = {"n": args.n, "kind": args.kind, "seed": args.seed, "index": index}
        line.update(_quadruple_json(args.n, points))
        print(json.dumps(line, allow_nan=False))
    return None


def _cmd_slice(args):
    for flag in ("a", "x1_min", "x1_max", "x2_min", "x2_max"):
        value = getattr(args, flag)
        if not math.isfinite(value):
            raise ValueError(f"--{flag.replace('_', '-')} must be finite, got {value}")
    for flag in ("x1_steps", "x2_steps"):
        value = getattr(args, flag)
        if value < 0:
            raise ValueError(f"--{flag.replace('_', '-')} must be >= 0, got {value}")
    writer = csv.writer(sys.stdout)
    writer.writerow(["x1", "x2", "residual"])
    for x1 in np.linspace(args.x1_min, args.x1_max, args.x1_steps):
        for x2 in np.linspace(args.x2_min, args.x2_max, args.x2_steps):
            writer.writerow([f"{x1:.12g}", f"{x2:.12g}",
                             f"{real_slice_residual(float(x1), float(x2), args.a):.12g}"])
    return None


def _add_input(sub):
    sub.add_argument("--input", default="-", help="input JSON file, '-' for stdin")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chquad",
        description="Invariants and moduli coordinates of boundary quadruples "
                    "in complex hyperbolic n-space.",
    )
    parser.add_argument("--tol", type=float, default=None,
                        help="override both tolerance knobs for this command")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="quadruple -> moduli, cross-ratios, classification")
    _add_input(p)
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("normalize", help="null lifts -> Gram matrix and its normal form")
    _add_input(p)
    p.set_defaults(handler=_cmd_normalize)

    p = sub.add_parser("reconstruct", help="moduli point + n -> realizing quadruple")
    _add_input(p)
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("check-moduli", help="moduli point + n -> membership and residuals")
    _add_input(p)
    p.set_defaults(handler=_cmd_check_moduli)

    p = sub.add_parser("congruent", help="two quadruples -> congruence verdicts")
    _add_input(p)
    p.set_defaults(handler=_cmd_congruent)

    p = sub.add_parser("counterexample",
                       help="certificate that cross-ratio coordinates glue two classes")
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(handler=_cmd_counterexample)

    p = sub.add_parser("sample", help="random quadruples as JSON lines")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=KINDS, default="generic")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("slice",
                       help="CSV of the defining residual on a real (X1, X2) grid at fixed A")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--x1-min", type=float, default=-1.0)
    p.add_argument("--x1-max", type=float, default=3.0)
    p.add_argument("--x1-steps", type=int, default=81)
    p.add_argument("--x2-min", type=float, default=-1.0)
    p.add_argument("--x2-max", type=float, default=3.0)
    p.add_argument("--x2-steps", type=int, default=81)
    p.set_defaults(handler=_cmd_slice)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    previous = default_config()
    try:
        if args.tol is not None:
            if not 0.0 < args.tol < math.inf:
                raise ValueError(f"--tol must be finite and > 0, got {args.tol}")
            set_default_config(NumericConfig(abs_tol=args.tol, rel_tol=args.tol))
        payload = args.handler(args)
        text = None if payload is None else json.dumps(payload, indent=2, allow_nan=False)
    except GeometryError as e:
        print(json.dumps({"error": e.code, "detail": str(e)}))
        return 1
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, IndexError, OSError,
            OverflowError) as e:
        print(json.dumps({"error": "malformed-input", "detail": str(e)}))
        return 2
    finally:
        set_default_config(previous)
    if text is not None:
        print(text)
    return 0


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
