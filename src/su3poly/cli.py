"""Command-line interface: classify, polytope, sample, verify, bounds, sweep.

Weights given as integers or fraction strings ("4/3") run the exact rational
pipeline end to end; a decimal point selects floating point.  All output is
deterministic for a fixed command line (fixed seeds, sorted JSON keys,
round-trip float formatting).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .classifier import classify_n2, classify_n3
from .eigen_bounds import sum_bounds_three, sum_bounds_two
from .moment_map import InvalidWeight, LengthMismatch
from .oracle import InvalidCount, sample_batch, verify
from .polytope import build_polytope, hausdorff, polytope_cones
from .render import render_svg
from .su3 import check_tolerance, num_out, to_positive_chamber


def parse_number(text: str):
    """An int, a Fraction "p/q", or with a "." or an exponent a finite float;
    anything else raises :class:`moment_map.InvalidWeight` naming the text."""
    text = text.strip()
    try:
        x = float(text) if "." in text or "e" in text or "E" in text else Fraction(text) if "/" in text else int(text)
    except (ValueError, ZeroDivisionError):
        x = math.nan
    if isinstance(x, float) and not math.isfinite(x):
        raise InvalidWeight(f"{text!r} is not an integer, a fraction p/q or a finite decimal number")
    return x


def parse_vector(text: str):
    return tuple(parse_number(t) for t in text.split(","))


def _num_json(x):
    # a bare int stays a JSON number; the "n/d" rule is su3.num_out's
    return x if type(x) is int else num_out(x)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write(text: str, path: Optional[str]):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_classify(args) -> int:
    gammas = parse_vector(args.gamma)
    if len(gammas) == 2:
        label = classify_n2(gammas, args.tolerance)
        out = {"n": 2, "label": label.value, "gammas": [_num_json(g) for g in gammas]}
    else:
        label, can = classify_n3(gammas, args.tolerance)
        out = {
            "n": 3,
            "label": label.value,
            "starred": can.starred,
            "gammas": [_num_json(g) for g in gammas],
            "sorted_gammas": [_num_json(g) for g in can.sorted_gammas],
            "permutation": list(can.permutation),
        }
    _write(_dump_json(out), args.output)
    return 0


def cmd_polytope(args) -> int:
    gammas = parse_vector(args.gamma)
    poly = build_polytope(gammas, args.tolerance)
    if args.format == "svg":
        _write(render_svg(poly, weights=gammas), args.output)
        return 0
    out = poly.to_json_dict()
    if args.emit_cones and len(gammas) == 3 and poly.kind == "Polygon":
        cones = polytope_cones(gammas, args.tolerance)
        out["cones"] = {name: (cone.asdict() if cone else None) for name, cone in cones.items()}
    _write(_dump_json(out), args.output)
    return 0


def cmd_sample(args) -> int:
    gammas = parse_vector(args.gamma)
    batch = sample_batch(gammas, args.count, args.seed)
    lines = ["lambda1,lambda2,lambda3,p,q"]
    lines += [",".join(repr(float(v)) for v in row) for row in batch.csv_rows()]
    _write("\n".join(lines) + "\n", args.output)
    return 0


def cmd_verify(args) -> int:
    gammas = parse_vector(args.gamma)
    report = verify(gammas, args.count, args.seed, args.tolerance)
    _write(_dump_json(report.to_json_dict()), args.output)
    return 0 if report.ok else 1


def cmd_bounds(args) -> int:
    lams = parse_vector(args.lambdas)
    if len(lams) == 2:
        lam1, (lo, hi) = sum_bounds_two(*lams)
        out = {"lambda1": _num_json(lam1), "lambda2_interval": [_num_json(lo), _num_json(hi)]}
    elif len(lams) == 3:
        poly = sum_bounds_three(*lams)
        out = poly.to_json_dict()
        if args.target:
            target = to_positive_chamber(parse_vector(args.target))[0]
            out["target"] = [_num_json(x) for x in target]
            out["target_inside"] = poly.contains(target, args.tolerance)
    else:
        raise LengthMismatch(f"expected 2 or 3 lambdas, got {len(lams)}")
    _write(_dump_json(out), args.output)
    return 0


def cmd_sweep(args) -> int:
    start, end, steps = parse_vector(args.start), parse_vector(args.end), args.steps
    if len(start) != len(end):
        raise LengthMismatch(f"start has {len(start)} weights and end {len(end)}")
    if steps < 1:
        raise InvalidCount(f"steps {steps} is not an integer >= 1")
    lines, prev = [], None
    for i in range(steps + 1):
        t = Fraction(i, steps)
        gamma = tuple(g0 + t * (g1 - g0) for g0, g1 in zip(start, end))
        poly = build_polytope(gamma, args.tolerance)
        entry = {
            "step": i,
            "gamma": [_num_json(g) for g in gamma],
            "label": poly.label,
            "starred": poly.starred,
            "n_vertices": len(poly.vertices),
        }
        if args.emit_vertices:
            entry["vertices"] = [[_num_json(x) for x in v] for v in poly.vertices]
        if prev is not None:
            entry["hausdorff_step"] = hausdorff(prev, poly)
        prev = poly
        lines.append(json.dumps(entry, sort_keys=True))
    _write("\n".join(lines) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su3poly",
        description="Momentum polytopes for weighted products of projective planes under SU(3).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        p.add_argument("--tolerance", type=float, default=1e-9, help="snap/containment tolerance")

    p = sub.add_parser("classify", help="polytope type of a weight vector")
    p.add_argument("--gamma", required=True, help="comma-separated weights, e.g. 4,2,-1 or 4/3,2,-1")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("polytope", help="exact polytope as JSON or SVG")
    p.add_argument("--gamma", required=True)
    p.add_argument("--format", choices=("json", "svg"), default="json")
    p.add_argument("--emit-cones", action="store_true", help="include the local cone data")
    common(p)
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("sample", help="Monte Carlo momentum spectra as CSV")
    p.add_argument("--gamma", required=True)
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="check samples against the prediction (exit 1 on violations)")
    p.add_argument("--gamma", required=True)
    p.add_argument("--count", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="eigenvalue bounds for sums of double-eigenvalue matrices")
    p.add_argument("--lambdas", required=True, help="2 or 3 doubled eigenvalues, e.g. 1,1,-1")
    p.add_argument("--target", default=None, help="optional spectrum to test, e.g. 3,0,-3")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="polytopes along a straight path in weight space (JSON lines)")
    p.add_argument("--start", required=True)
    p.add_argument("--end", required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--emit-vertices", action="store_true")
    common(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; bad input (a ``ValueError``) prints one line to stderr and exits 2, as argparse does.

    ``--tolerance`` is checked here for every subcommand, including those
    (``sample``, ``bounds`` without ``--target``) that do not read it."""
    args = build_parser().parse_args(argv)
    try:
        check_tolerance(args.tolerance)
        return args.func(args)
    except ValueError as exc:
        print(f"su3poly: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
