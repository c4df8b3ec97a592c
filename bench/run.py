"""Benchmark of the kantorovich library: one workload, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run is one process with one caller and one thread. It generates the
workload's inputs from the seed, runs whole rounds of ops until their
summed wall time reaches ``--seconds``, then checks every output against
an independent reference. After each op it runs a little fixed reference
work (``reference.py``) and reports op times in reference seconds, which
do not follow the host's changes of speed. With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it runs the same ops once
untraced and once traced (half the time each) and reports the per-layer
metrics. The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. A human-readable summary goes
to stderr. See LAYERS.md.
"""

import os

# one BLAS/OpenMP thread, set before numpy loads; inherited by the probes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
#: Fresh-interpreter set-up samples per run, spread over the run; setup_s
#: is their median.
SETUP_PROBES = 5

#: End-to-end metrics with their units.
END_TO_END = {
    "setup_s": "s",
    "ops_per_ref_s": "ops/ref_s",
    "op_p50_ref_s": "ref_s",
    "ok_ratio": "1",
    "peak_rss_mb": "MB",
}


def probe_setup(workload: str) -> float:
    # no timeout: with one, subprocess polls in steps of up to 50 ms
    start = time.perf_counter()
    argv = [sys.executable, str(BENCH / "probe.py"), workload]
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


@dataclass
class Op:
    k: int
    inputs: object
    output: object = None
    error: Exception | None = None
    seconds: float = 0.0
    #: mean wall time of a reference unit in the samples right before and after the op
    unit_s: float | None = None


def measure(
    workload, seed, seconds=None, n_ops=None, tracer=None, before_round=None, reference=None
):
    """Run whole rounds until ``seconds`` of op time, or exactly ``n_ops`` ops.

    ``before_round(elapsed)`` runs before each round and ``reference`` samples
    after each op, both outside the op timing.
    """
    ops: list[Op] = []
    elapsed = 0.0
    before = None  # the reference sample taken right before the next op
    while (elapsed < seconds) if n_ops is None else (len(ops) < n_ops):
        if before_round is not None:
            before_round(elapsed)
        for _ in range(workload.round):
            op = Op(len(ops), workload.inputs(seed, len(ops)))
            if tracer is not None:
                tracer.op = op.k
            start = time.perf_counter()
            try:
                if tracer is None:
                    op.output = workload.run(op.inputs)
                else:
                    op.output = tracer.call("op", workload.run, op.inputs, tracer)
            except Exception as exc:  # an op that raises is a failed op
                op.error = exc
            op.seconds = time.perf_counter() - start
            elapsed += op.seconds
            ops.append(op)
            if reference is not None:
                after = reference.sample(op.seconds)
                op.unit_s = after if before is None else (before + after) / 2
                before = after
    return ops


def completed_per_s(ops: list[Op]) -> float:
    """Ops that did not raise, per second of summed op wall time."""
    return sum(op.error is None for op in ops) / sum(op.seconds for op in ops)


def op_errors(workload, op: Op) -> list[str]:
    if op.error is not None:
        return ["".join(traceback.format_exception(op.error)).rstrip()]
    try:
        return workload.errors(op.inputs, op.output)
    except Exception as exc:  # a check that cannot run fails the op
        return [f"check raised {exc!r}"]


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(1, str(SRC))
    try:
        import kantorovich
    except ImportError as exc:
        print(f"error: cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 1
    if Path(kantorovich.__file__).resolve().parent.parent != SRC.resolve():
        print(f"error: kantorovich came from {kantorovich.__file__}, not {SRC}", file=sys.stderr)
        return 1

    import selftest
    import tracing
    from reference import Reference
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as workdir:
        workload = WORKLOADS[args.workload](Path(workdir))
        workload.run(workload.warmup_inputs())
        Reference().sample(0.0)  # warm-up, not counted
        reference = Reference()

        if not args.trace:
            setup: list[float] = []

            def probe_when_due(elapsed):
                due = len(setup) * args.seconds / SETUP_PROBES
                if len(setup) < SETUP_PROBES and elapsed >= due:
                    setup.append(probe_setup(args.workload))

            ops = measure(
                workload,
                args.seed,
                seconds=args.seconds,
                before_round=probe_when_due,
                reference=reference,
            )
            while len(setup) < SETUP_PROBES:
                setup.append(probe_setup(args.workload))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            timed = checked = ops
        else:
            timed = untraced = measure(
                workload, args.seed, seconds=args.seconds / 2, reference=reference
            )
            tracer = tracing.Tracer()
            installation = tracing.install(tracer)
            try:
                traced = measure(workload, args.seed, n_ops=len(untraced), tracer=tracer)
            finally:
                installation.undo()
            checked = untraced + traced

        # outside the timed region from here on
        errors = {id(op): op_errors(workload, op) for op in checked}
        if args.trace:
            for a, b in zip(untraced, traced):
                if args.workload == "law_suite" and a.output != b.output:
                    errors[id(b)].append("traced law loop differs from run_law_suite")
        errors_selftest = selftest.failures()

    failed = sum(1 for e in errors.values() if e)
    attempted = len(checked)
    for op in checked:
        for err in errors[id(op)][:1]:
            print(f"op {op.k} failed: {err}", file=sys.stderr)
    for err in errors_selftest:
        print(f"checker self-test failed: {err}", file=sys.stderr)

    if args.trace:
        metrics = tracing.per_layer(
            tracer,
            len(traced),
            sum(op.seconds for op in traced),
            sum(op.seconds for op in untraced),
        )
        metrics["machine.ref_unit_ms"] = {"value": reference.unit_s() * 1e3, "unit": "ms"}
        metrics["wall.ops_per_s"] = {"value": completed_per_s(timed), "unit": "ops/s"}
    else:
        values = {
            # in seconds at the reference speed, like the op times
            "setup_s": reference.ref_s(statistics.median(setup)),
            "ops_per_ref_s": completed_per_s(ops) / reference.ref_s(1.0),
            "op_p50_ref_s": statistics.median(reference.ref_s(op.seconds, op.unit_s) for op in ops),
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    print(f"machine: {json.dumps(machine())}", file=sys.stderr)
    print(
        f"reference unit {reference.unit_s() * 1e3:.4g} ms over {reference.units} units;"
        f" wall rate {completed_per_s(timed):.6g} ops/s",
        file=sys.stderr,
    )
    print(
        f"{args.workload} seed={args.seed} attempted={attempted} failed={failed}"
        f" fail_ratio={failed / attempted:.4g}",
        file=sys.stderr,
    )
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not errors_selftest,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
