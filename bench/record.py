"""Run the benchmark over several seeds and summarise the spread.

Usage, from the root of a checkout:

    python3 bench/record.py [--workloads A,B] [--seeds 1-10] [--trace-seed N] [--write]

Runs ``run.py`` once per workload and seed, untraced, one run at a time,
then reports for each end-to-end metric the median, the quartiles and the
spread (interquartile distance over median) next to the metric's bound
from BENCHMARK.json. With ``--trace-seed`` it adds one traced run per
workload. With ``--write`` it records machine, workloads and results in
``bench/baseline.json``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(config: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*config["command"], "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    results = {}
    for workload in args.workloads.split(","):
        runs = [run_once(config, workload, seed, 0) for seed in seed_range(args.seeds)]
        entry = {
            "seeds": seed_range(args.seeds),
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "run_wall_s": [round(r["wall_s"], 2) for r in runs],
            "end_to_end": {
                name: summary([r["metrics"][name]["value"] for r in runs]) for name in bounds
            },
        }
        if args.trace_seed is not None:
            traced = run_once(config, workload, args.trace_seed, 1)
            entry["traced_seed"] = args.trace_seed
            entry["traced_wall_s"] = round(traced["wall_s"], 2)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        results[workload] = entry
        print(f"{workload}: correct={entry['correct']} wall/run={entry['run_wall_s']}")
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- spread >= bound/3"
            values = [round(v, 4) for v in s["values"]]
            print(
                f"  {name:12s} median={s['median']:.6g} spread={s['spread']:.4f}"
                f" bound={bounds[name]}{flag} values={values}"
            )
        sys.stdout.flush()

    if args.write:
        sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
        import run
        from workloads import WORKLOADS

        record = {
            "machine": run.machine(),
            "run_seconds": config["run_seconds"],
            "workloads": {
                name: {"why": w.why, "op": inspect.getdoc(w), "sizes": w.sizes, "round": w.round}
                for name, w in WORKLOADS.items()
            },
            "results": results,
        }
        (BENCH / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
