"""In-memory spans and counters around the library's public functions.

Nothing under ``src/`` knows about tracing. :func:`install` rebinds the
traced names in every ``kantorovich.*`` module that holds them (and patches
the traced methods on their classes); :meth:`Installation.undo` puts the
originals back. Spans record name, start, end, parent span and op id; the hottest
scalar functions (``as_point``, ``points_equal``, ``GroundMetric.__call__``)
only count calls, to bound the overhead.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

import numpy as np

from kantorovich import cli, ground, laws, measures, monad, points, transport

#: Module-level functions wrapped in spans, by span name.
SPANNED = {
    "ground.quotient": (ground, "quotient"),
    "transport.solve": (transport, "solve_transport"),
    "transport.cost_matrix": (transport, "cost_matrix"),
    "monad.second_order_distance": (monad, "second_order_distance"),
    "monad.lifted_pseudometric": (monad, "lifted_pseudometric"),
}

#: Module-level functions that only count calls, by counter name.
COUNTED = {
    "points.as_point.calls": (points, "as_point"),
    "points.points_equal.calls": (points, "points_equal"),
}

#: Loaders whose time is ``cli.load``; rebound in ``cli`` only, so loads
#: made by the library itself are not counted as CLI work.
CLI_LOADERS = ("measure_from_json", "second_order_from_json")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        #: ``[name, start, end, parent index or -1, op id]`` per span
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def call(self, name, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self._open[name] += 1
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._open[name] -= 1
            self._stack.pop()

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    def self_times(self) -> Counter:
        """Total self time per span name: duration minus child durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name] += end - start - c
        return out

    def durations(self) -> Counter:
        out: Counter = Counter()
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def calls(self) -> Counter:
        return Counter(rec[0] for rec in self.spans)


def _modules():
    return [m for name, m in sys.modules.items() if name.partition(".")[0] == "kantorovich"]


class Installation:
    """The rebindings made by :func:`install`, so they can be undone."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def rebind(self, owner, name, new):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def rebind_everywhere(self, original, name, new):
        for mod in _modules():
            if mod.__dict__.get(name) is original:
                self.rebind(mod, name, new)

    def undo(self):
        for owner, name, old in reversed(self._saved):
            setattr(owner, name, old)
        self._saved.clear()


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> Installation:
    """Rebind the traced names to wrappers that report to ``tracer``."""
    inst = Installation()
    for name, (mod, attr) in SPANNED.items():
        original = getattr(mod, attr)
        wrapper = _spanned(tracer, name, original)
        if attr == "solve_transport":
            wrapper = _with_cells(tracer, wrapper)
        inst.rebind_everywhere(original, attr, wrapper)
    for name, (mod, attr) in COUNTED.items():
        original = getattr(mod, attr)
        inst.rebind_everywhere(original, attr, _counted(tracer, name, original))

    # kantorovich() calls made by second_order_distance are its inner solves
    inner = monad.kantorovich

    def monad_kantorovich(*args, **kwargs):
        if tracer.inside("monad.second_order_distance"):
            tracer.counts["monad.second_order_distance.inner_solves"] += 1
        return inner(*args, **kwargs)

    inst.rebind(monad, "kantorovich", monad_kantorovich)

    for attr in CLI_LOADERS:
        inst.rebind(cli, attr, _spanned(tracer, "cli.load", getattr(cli, attr)))

    inst.rebind(
        ground.GroundMetric,
        "__call__",
        _counted(tracer, "ground.scalar_calls", ground.GroundMetric.__call__),
    )
    for cls in _subclasses(ground.GroundMetric):
        if "pairwise" in cls.__dict__:
            wrapper = _spanned(tracer, "ground.pairwise", cls.__dict__["pairwise"])
            inst.rebind(cls, "pairwise", wrapper)
    for cls in (measures.SubProbabilityMeasure, measures.FiniteMeasure):
        wrapper = _spanned(tracer, "measures.construct", cls.__dict__["__init__"])
        inst.rebind(cls, "__init__", wrapper)
    return inst


def _with_cells(tracer: Tracer, solve):
    @functools.wraps(solve)
    def wrapper(C, *args, **kwargs):
        m, n = C.shape
        tracer.counts["transport.solve.cells"] += m * n
        return solve(C, *args, **kwargs)

    return wrapper


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out


def traced_law_suite(tracer: Tracer, seed: int, samples: int):
    """``run_law_suite(seed, samples)`` with one span per law runner.

    Spawns the child seeds exactly as ``run_law_suite`` does, so the
    reports must be equal; the benchmark asserts that they are.
    """
    children = np.random.SeedSequence(seed).spawn(len(laws.LAW_RUNNERS))
    reports = []
    for runner, child in zip(laws.LAW_RUNNERS, children):
        rng = np.random.default_rng(child)
        reports.extend(tracer.call(f"laws.{runner.__name__}", runner, rng, samples, None))
    return reports


LAW_METRICS = [f"laws.{runner.__name__}.s" for runner in laws.LAW_RUNNERS]
CLI_COMMANDS = ("dist", "coupling", "dist2", "lift", "flatten", "barycenter")

#: Every per-layer metric with its unit. Counts and times are per op of
#: the traced pass, so runs of different length compare directly.
PER_LAYER = {
    "points.as_point.calls": "calls/op",
    "points.points_equal.calls": "calls/op",
    "ground.pairwise.calls": "calls/op",
    "ground.pairwise.self_s": "s/op",
    "ground.scalar_calls": "calls/op",
    "ground.quotient.self_s": "s/op",
    "measures.construct.calls": "calls/op",
    "measures.construct.self_s": "s/op",
    "transport.solve.calls": "calls/op",
    "transport.solve.self_s": "s/op",
    "transport.solve.cells": "cells/op",
    "transport.solve.share": "1",
    "transport.cost_matrix.self_s": "s/op",
    "monad.second_order_distance.self_s": "s/op",
    "monad.second_order_distance.inner_solves": "solves/op",
    "monad.lifted_pseudometric.self_s": "s/op",
    **{name: "s/op" for name in LAW_METRICS},
    **{f"cli.{command}.s": "s/op" for command in CLI_COMMANDS},
    "cli.load.self_s": "s/op",
    "trace.overhead_ratio": "1",
}


def per_layer(tracer: Tracer, n_ops: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced pass of ``n_ops`` ops."""
    self_s = tracer.self_times()
    total = tracer.durations()
    calls = tracer.calls()
    counts = tracer.counts
    values = {
        "points.as_point.calls": counts["points.as_point.calls"],
        "points.points_equal.calls": counts["points.points_equal.calls"],
        "ground.pairwise.calls": calls["ground.pairwise"],
        "ground.pairwise.self_s": self_s["ground.pairwise"],
        "ground.scalar_calls": counts["ground.scalar_calls"],
        "ground.quotient.self_s": self_s["ground.quotient"],
        "measures.construct.calls": calls["measures.construct"],
        "measures.construct.self_s": self_s["measures.construct"],
        "transport.solve.calls": calls["transport.solve"],
        "transport.solve.self_s": self_s["transport.solve"],
        "transport.solve.cells": counts["transport.solve.cells"],
        "transport.cost_matrix.self_s": self_s["transport.cost_matrix"],
        "monad.second_order_distance.self_s": self_s["monad.second_order_distance"],
        "monad.second_order_distance.inner_solves": counts[
            "monad.second_order_distance.inner_solves"
        ],
        "monad.lifted_pseudometric.self_s": self_s["monad.lifted_pseudometric"],
        **{name: total[name[: -len(".s")]] for name in LAW_METRICS},
        **{f"cli.{c}.s": total[f"cli.{c}"] for c in CLI_COMMANDS},
        "cli.load.self_s": self_s["cli.load"],
    }
    out = {name: value / n_ops for name, value in values.items()}
    out["transport.solve.share"] = self_s["transport.solve"] / total["op"]
    out["trace.overhead_ratio"] = traced_wall / untraced_wall
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER.items()}

