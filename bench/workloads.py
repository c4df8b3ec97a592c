"""The benchmark's workloads.

Each workload turns ``(seed, k)`` into the inputs of op ``k`` (untimed),
runs the op against the library (timed), and checks the op's output
against an independent reference (untimed, in :mod:`check`). Ops come in
rounds: a run measures whole rounds, so every run sees the same mix of
sizes. The library receives only the generated inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from kantorovich import FiniteMeasure, GroundSpace, Manhattan, kantorovich, run_law_suite
from kantorovich.cli import main as cli_main

import check
from tracing import CLI_COMMANDS, traced_law_suite

#: Support sizes of the transport workload, one op of each per round.
SIZES = (16, 24, 32)
#: Side of the integer grid the degenerate supports are drawn from.
GRID = 16
#: Samples per law in one law-suite op.
LAW_SAMPLES = 5


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def _points(arr: np.ndarray) -> list[tuple]:
    return [tuple(row) for row in arr.tolist()]


def _weights(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.random(n) + 0.1
    return w / w.sum()


class Workload:
    """Base of the workloads; ``workdir`` holds the run's scratch files."""

    round = 1

    def __init__(self, workdir: Path):
        self.workdir = workdir


class TransportDegenerate(Workload):
    """One op: two measures, a ground space on their union, one solve.

    The supports are distinct points of an integer grid with uniform
    weights, under Manhattan; the two supports may overlap.
    """

    name = "transport_degenerate"
    why = (
        "uniform weights on an integer grid under Manhattan: tied costs and zero-step pivots;"
        " the network simplex is almost all of each op"
    )
    sizes = f"n x n for n in {list(SIZES)}, distinct points of a {GRID}x{GRID} grid, weights 1/n"
    round = len(SIZES)

    def inputs(self, seed: int, k: int) -> dict:
        return self.instance(_rng(seed, k), SIZES[k % len(SIZES)])

    def warmup_inputs(self) -> dict:
        return self.instance(_rng(0, 0), 8)

    def instance(self, rng, n) -> dict:
        grid = np.array([(i, j) for i in range(GRID) for j in range(GRID)], dtype=float)
        x = grid[rng.choice(len(grid), n, replace=False)]
        y = grid[rng.choice(len(grid), n, replace=False)]
        w = np.full(n, 1.0 / n)
        return {"x": x, "y": y, "xs": _points(x), "ys": _points(y), "a": w, "b": w}

    def run(self, inp: dict, tracer=None):
        mu = FiniteMeasure(inp["xs"], inp["a"])
        eta = FiniteMeasure(inp["ys"], inp["b"])
        space = GroundSpace(list(dict.fromkeys(inp["xs"] + inp["ys"])), Manhattan())
        result = kantorovich(space, mu, eta)
        c = result.coupling
        return result.cost, c.rows, c.cols, c.gamma

    def errors(self, inp: dict, out) -> list[str]:
        cost, rows, cols, gamma = out
        i = check.reorder(rows, inp["xs"])
        j = check.reorder(cols, inp["ys"])
        C = check.manhattan(inp["x"][i], inp["y"][j])
        return check.transport_errors(C, inp["a"][i], inp["b"][j], cost, gamma)


class LawSuite(Workload):
    """One op: the whole seeded law suite at a small sample count."""

    name = "law_suite"
    why = (
        "thousands of problems of at most 5 atoms:"
        " point canonicalisation and per-entry metrics dominate"
    )
    sizes = f"run_law_suite(seed * 1000 + k, samples={LAW_SAMPLES}); 17 runners, 23 reports"
    def inputs(self, seed: int, k: int) -> tuple[int, int]:
        # seed * 1000 keeps the law seeds of runs with nearby seeds apart
        return seed * 1000 + k, LAW_SAMPLES

    def warmup_inputs(self) -> tuple[int, int]:
        return 0, 1

    def run(self, inp: tuple[int, int], tracer=None):
        if tracer is None:
            return run_law_suite(*inp)
        return traced_law_suite(tracer, *inp)

    def errors(self, inp, reports) -> list[str]:
        if not reports:
            return ["the law suite returned no reports"]
        return [f"law {r.law} failed: {r.max_deviation!r}" for r in reports if not r.passed]


#: Cap of the capped Manhattan metric used by ``coupling``.
CAP = 0.5
PULLBACK = {"kind": "pullback", "coords": [0], "inner": "euclidean"}


def _measure_json(points: list, w: np.ndarray) -> dict:
    return {"atoms": [{"point": list(p), "w": float(t)} for p, t in zip(points, w)]}


def _second_order_json(parts: list[dict], w: np.ndarray) -> dict:
    atoms = [{"measure": _measure_json(p["xs"], p["w"]), "w": float(t)} for p, t in zip(parts, w)]
    return {"atoms": atoms}


class CliBatch(Workload):
    """One op: one in-process CLI call of each command on generated files."""

    name = "cli_batch"
    why = (
        "the only workload through CLI JSON load and emit,"
        " second-order and quotient paths, and 400-atom supports"
    )
    sizes = (
        "dist 40+40 euclidean; coupling 40+40 manhattan capped at 0.5; dist2 8+8 inner measures"
        " of 12 atoms; lift 24+24 under a pullback metric; flatten 8 x 50 3-D atoms;"
        " barycenter 400 3-D atoms"
    )
    def _write(self, tag: str, obj) -> str:
        path = self.workdir / f"{tag}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def _measure(self, rng, n: int, dim: int = 2, x=None) -> dict:
        x = rng.random((n, dim)) if x is None else x
        return {"x": x, "xs": _points(x), "w": _weights(rng, n)}

    def inputs(self, seed: int, k: int, scale: int = 1, tag: str | None = None) -> dict:
        rng = _rng(seed, k)
        tag = str(k) if tag is None else tag

        def sized(n):
            return max(2, n // scale)

        def lift_points(n):
            # few distinct first coordinates, so the quotient merges points
            return np.column_stack([rng.integers(0, 6, n) / 5.0, rng.random(n)])

        data = {
            "dist": [self._measure(rng, sized(40)), self._measure(rng, sized(40))],
            "coupling": [self._measure(rng, sized(40)), self._measure(rng, sized(40))],
            "dist2": [
                {"parts": [self._measure(rng, sized(12)) for _ in range(sized(8))]}
                for _ in range(2)
            ],
            "lift": [self._measure(rng, sized(24), x=lift_points(sized(24))) for _ in range(2)],
            "flatten": [{"parts": [self._measure(rng, sized(50), 3) for _ in range(8)]}],
            "barycenter": [self._measure(rng, sized(400), 3)],
        }
        for spec in data["dist2"] + data["flatten"]:
            spec["w"] = _weights(rng, len(spec["parts"]))
        metrics = {
            "dist": "euclidean",
            "coupling": json.dumps({"kind": "manhattan", "cap": CAP}),
            "dist2": "euclidean",
            "lift": json.dumps(PULLBACK),
        }
        argvs = {}
        for command in CLI_COMMANDS:
            paths = []
            for i, spec in enumerate(data[command]):
                if "parts" in spec:
                    obj = _second_order_json(spec["parts"], spec["w"])
                else:
                    obj = _measure_json(spec["xs"], spec["w"])
                paths.append(self._write(f"{tag}-{command}-{i}", obj))
            argv = [command, *paths]
            if command in metrics:
                argv += ["--metric", metrics[command]]
            argvs[command] = argv + ["--out", str(self.workdir / f"{tag}-{command}-out.json")]
        return {"data": data, "argv": argvs}

    def warmup_inputs(self) -> dict:
        return self.inputs(0, 0, scale=8, tag="warmup")

    def run(self, inp: dict, tracer=None) -> dict:
        codes = {}
        for command, argv in inp["argv"].items():
            if tracer is None:
                codes[command] = cli_main(argv)
            else:
                codes[command] = tracer.call(f"cli.{command}", cli_main, argv)
        return codes

    def errors(self, inp: dict, codes: dict) -> list[str]:
        errors = [f"{c} exited {code}" for c, code in codes.items() if code != 0]
        if errors:
            return errors
        out = {c: json.loads(Path(argv[-1]).read_text()) for c, argv in inp["argv"].items()}
        data = inp["data"]

        mu, eta = data["dist"]
        C = check.euclidean(mu["x"], eta["x"])
        errors += check.cost_errors(out["dist"]["cost"], C, mu["w"], eta["w"])

        mu, eta = data["coupling"]
        i = check.reorder(out["coupling"]["rows"], mu["xs"])
        j = check.reorder(out["coupling"]["cols"], eta["xs"])
        C = np.minimum(check.manhattan(mu["x"][i], eta["x"][j]), CAP)
        errors += check.transport_errors(
            C, mu["w"][i], eta["w"][j], out["coupling"]["cost"], out["coupling"]["gamma"]
        )

        M, N = data["dist2"]
        D = np.array(
            [
                [
                    check.highs_cost(check.euclidean(m["x"], n["x"]), m["w"], n["w"])
                    for n in N["parts"]
                ]
                for m in M["parts"]
            ]
        )
        errors += check.cost_errors(out["dist2"]["cost"], D, M["w"], N["w"])

        mu, eta = data["lift"]
        C = np.abs(mu["x"][:, None, 0] - eta["x"][None, :, 0])
        errors += check.cost_errors(out["lift"]["p_tau"], C, mu["w"], eta["w"])

        (M,) = data["flatten"]
        expected = {
            p: t * w for part, t in zip(M["parts"], M["w"]) for p, w in zip(part["xs"], part["w"])
        }
        got = {tuple(a["point"]): a["w"] for a in out["flatten"]["atoms"]}
        if got.keys() != expected.keys():
            errors.append("flatten support differs from the union of the inner supports")
        elif max(abs(got[p] - w) for p, w in expected.items()) > check.TOL:
            errors.append("flatten weights differ from the mixture weights")

        (mu,) = data["barycenter"]
        if np.abs(np.asarray(out["barycenter"]) - mu["w"] @ mu["x"]).max() > check.TOL:
            errors.append("barycenter differs from the weighted mean")
        return errors


WORKLOADS = {w.name: w for w in (TransportDegenerate, LawSuite, CliBatch)}
