"""Command-line front end.

Loads measures and metric specs from JSON, computes distances, couplings,
barycenters, flattenings, and lifted pseudometrics, and runs the law
suite. All output is JSON with deterministic key order; identical inputs
and seeds produce byte-identical output. Exit codes: 0 success, 1 law
failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .ground import GroundSpace, metric_from_spec
from .laws import run_law_suite
from .measures import WEIGHT_TOL, measure_from_json, measure_to_json, second_order_from_json
from .monad import ConvexSpace, barycenter, flatten, lifted_pseudometric, second_order_distance
from .points import distinct_points, point_to_json
from .transport import kantorovich


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


def _resolve_metric(spec: str):
    try:
        is_file = Path(spec).is_file()
    except OSError:  # e.g. an inline JSON spec longer than a file name may be
        is_file = False
    return metric_from_spec(_load_json(spec) if is_file else spec)


def _space_for(metric, *measures) -> GroundSpace:
    pts = [p for mu in measures for p in mu.support]
    return GroundSpace(distinct_points(pts), metric)


def _emit(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _load(args, loader) -> list:
    """The command's input files, read by ``loader`` at the ``--tol`` mass tolerance."""
    mass_tol = WEIGHT_TOL if args.tol is None else args.tol
    return [loader(_load_json(path), mass_tol=mass_tol) for path in args.inputs]


def _pair(args):
    mu, eta = _load(args, measure_from_json)
    return _space_for(args.metric, mu, eta), mu, eta


def _barycenter(args):
    (mu,) = _load(args, measure_from_json)
    if isinstance(mu.support[0], str):
        raise ValueError("barycenter needs coordinate atoms, got labels")
    return 0, point_to_json(barycenter(ConvexSpace(len(mu.support[0])), mu))


def _dist2(args):
    M, N = _load(args, second_order_from_json)
    return 0, second_order_distance(_space_for(args.metric, *M.support, *N.support), M, N).to_json()


def _lift(args):
    space, mu, eta = _pair(args)
    return 0, {"p_tau": float(lifted_pseudometric(space, args.metric, mu, eta))}


def _laws(args):
    reports = run_law_suite(args.seed, args.samples, args.tol)
    return (0 if all(r.passed for r in reports) else 1), [r.to_json() for r in reports]


class Command(NamedTuple):
    """A subcommand; ``run`` maps its parsed arguments to ``(exit code, JSON value)``."""

    name: str
    help: str
    n_inputs: int
    needs_metric: bool
    run: Callable[[argparse.Namespace], tuple[int, object]]
    tol_help: str = "weight-sum tolerance of the loaded measures (default 1e-9)"
    flags: tuple = ()


COMMANDS = (
    Command("dist", "coupling distance between two measures", 2, True,
            lambda args: (0, {"cost": float(kantorovich(*_pair(args)).cost)})),
    Command("coupling", "optimal coupling between two measures", 2, True,
            lambda args: (0, kantorovich(*_pair(args)).to_json())),
    Command("barycenter", "barycenter of a coordinate measure", 1, False, _barycenter),
    Command("flatten", "mixture of a measure of measures", 1, False,
            lambda args: (0, measure_to_json(flatten(*_load(args, second_order_from_json))))),
    Command("dist2", "distance between measures of measures", 2, True, _dist2),
    Command("lift", "lifted pseudometric between two measures", 2, True, _lift),
    Command("laws", "run the seeded law suite", 0, False, _laws, tol_help="tolerance of every law",
            flags=(("--seed", dict(type=int, default=0, help="PRNG seed (PCG64)")),
                   ("--samples", dict(type=int, default=200, help="samples per law")))),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kantorovich",
        description="Distances, couplings, barycenters, and law checks for "
        "finitely supported measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        p.set_defaults(cmd=cmd)
        if cmd.n_inputs:
            p.add_argument("inputs", nargs=cmd.n_inputs, metavar="input", help="JSON input file")
        if cmd.needs_metric:
            p.add_argument("--metric", required=True, help="metric spec (JSON, kind name, or file)")
        for flag, options in cmd.flags:
            p.add_argument(flag, **options)
        p.add_argument("--tol", type=float, default=None, help=cmd.tol_help)
        p.add_argument("--out", default=None, help="write output here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.tol is not None and not 0.0 <= args.tol < math.inf:
            raise ValueError(f"--tol must be a finite nonnegative number, got {args.tol!r}")
        if args.cmd.needs_metric:
            args.metric = _resolve_metric(args.metric)
        code, value = args.cmd.run(args)
        payload = _emit(value)
        if not args.out:
            sys.stdout.write(payload)
            return code
        try:
            Path(args.out).write_text(payload)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}") from None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
