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
from dataclasses import dataclass, field
from pathlib import Path

from .ground import GroundSpace, metric_from_spec
from .laws import run_law_suite
from .measures import measure_from_json, measure_to_json, second_order_from_json
from .monad import ConvexSpace, barycenter, flatten, lifted_pseudometric, second_order_distance
from .points import distinct_points, point_to_json
from .transport import kantorovich


@dataclass
class JobConfig:
    """One resolved CLI invocation."""

    command: str
    inputs: tuple[str, ...] = ()
    metric: str | None = None
    seed: int = 0
    samples: int = 200
    tol: float | None = None
    out: str | None = None


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


def _resolve_metric(spec: str | None):
    if spec is None:
        raise ValueError("this command needs --metric")
    try:
        is_file = Path(spec).is_file()
    except OSError:
        # e.g. an inline JSON spec longer than a file name may be
        is_file = False
    if is_file:
        return metric_from_spec(_load_json(spec))
    return metric_from_spec(spec)


def _space_for(metric, *measures) -> GroundSpace:
    pts = [p for mu in measures for p in mu.support]
    return GroundSpace(distinct_points(pts), metric)


def _emit(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def run(config: JobConfig) -> tuple[int, str]:
    """Execute a job; returns (exit code, JSON payload)."""
    if config.tol is not None and not 0.0 <= config.tol < math.inf:
        raise ValueError(f"--tol must be a finite nonnegative number, got {config.tol!r}")
    mass_tol = config.tol if config.tol is not None else 1e-9
    if config.command == "dist":
        metric = _resolve_metric(config.metric)
        mu = measure_from_json(_load_json(config.inputs[0]), mass_tol=mass_tol)
        eta = measure_from_json(_load_json(config.inputs[1]), mass_tol=mass_tol)
        result = kantorovich(_space_for(metric, mu, eta), mu, eta)
        return 0, _emit({"cost": float(result.cost)})
    if config.command == "coupling":
        metric = _resolve_metric(config.metric)
        mu = measure_from_json(_load_json(config.inputs[0]), mass_tol=mass_tol)
        eta = measure_from_json(_load_json(config.inputs[1]), mass_tol=mass_tol)
        result = kantorovich(_space_for(metric, mu, eta), mu, eta)
        return 0, _emit(result.to_json())
    if config.command == "barycenter":
        mu = measure_from_json(_load_json(config.inputs[0]), mass_tol=mass_tol)
        first = mu.support[0]
        if isinstance(first, str):
            raise ValueError("barycenter needs coordinate atoms, got labels")
        space = ConvexSpace(len(first))
        return 0, _emit(point_to_json(barycenter(space, mu)))
    if config.command == "flatten":
        M = second_order_from_json(_load_json(config.inputs[0]), mass_tol=mass_tol)
        return 0, _emit(measure_to_json(flatten(M)))
    if config.command == "dist2":
        metric = _resolve_metric(config.metric)
        M = second_order_from_json(_load_json(config.inputs[0]), mass_tol=mass_tol)
        N = second_order_from_json(_load_json(config.inputs[1]), mass_tol=mass_tol)
        space = _space_for(metric, *M.support, *N.support)
        return 0, _emit(second_order_distance(space, M, N).to_json())
    if config.command == "lift":
        metric = _resolve_metric(config.metric)
        mu = measure_from_json(_load_json(config.inputs[0]), mass_tol=mass_tol)
        eta = measure_from_json(_load_json(config.inputs[1]), mass_tol=mass_tol)
        space = _space_for(metric, mu, eta)
        return 0, _emit({"p_tau": float(lifted_pseudometric(space, metric, mu, eta))})
    if config.command == "laws":
        reports = run_law_suite(config.seed, config.samples, config.tol)
        payload = _emit([r.to_json() for r in reports])
        return (0 if all(r.passed for r in reports) else 1), payload
    raise ValueError(f"unknown command {config.command!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kantorovich",
        description="Distances, couplings, barycenters, and law checks for "
        "finitely supported measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n_inputs, needs_metric):
        for k in range(n_inputs):
            p.add_argument(f"input{k}", help="path to a JSON input file")
        if needs_metric:
            p.add_argument("--metric", required=True, help="metric spec (JSON, kind name, or file)")
        p.add_argument("--seed", type=int, default=0, help="PRNG seed (PCG64)")
        p.add_argument("--samples", type=int, default=200, help="samples per law")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        p.add_argument("--out", default=None, help="write output here instead of stdout")

    common(sub.add_parser("dist", help="coupling distance between two measures"), 2, True)
    common(sub.add_parser("coupling", help="optimal coupling between two measures"), 2, True)
    common(sub.add_parser("barycenter", help="barycenter of a coordinate measure"), 1, False)
    common(sub.add_parser("flatten", help="mixture of a measure of measures"), 1, False)
    common(sub.add_parser("dist2", help="distance between measures of measures"), 2, True)
    common(sub.add_parser("lift", help="lifted pseudometric between two measures"), 2, True)
    common(sub.add_parser("laws", help="run the seeded law suite"), 0, False)
    return parser


def _config_from_args(args: argparse.Namespace) -> JobConfig:
    inputs = tuple(
        getattr(args, f"input{k}") for k in range(3) if hasattr(args, f"input{k}")
    )
    return JobConfig(
        command=args.command,
        inputs=inputs,
        metric=getattr(args, "metric", None),
        seed=args.seed,
        samples=args.samples,
        tol=args.tol,
        out=args.out,
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = _config_from_args(args)
    try:
        code, payload = run(config)
        if config.out:
            try:
                Path(config.out).write_text(payload)
            except OSError as exc:
                raise ValueError(f"cannot write {config.out}: {exc}") from None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not config.out:
        sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
