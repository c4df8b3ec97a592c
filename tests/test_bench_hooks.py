"""The benchmark's trace hooks find every library name they rebind, and put
each one back: a rename in the library fails here, not only in a traced run."""

import importlib
from pathlib import Path

from kantorovich import ground, measures, monad, transport
from kantorovich.ground import Euclidean, GroundSpace
from kantorovich.measures import dirac

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_trace_hooks_rebind_the_library_names_and_undo_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    saved = list(inst._saved)
    try:
        rebound = {(owner, name) for owner, name, _ in saved}
        for owner, name in [
            (transport, "cost_matrix"),
            (monad, "kantorovich"),
            (ground, "quotient"),
            (measures.SubProbabilityMeasure, "__init__"),
            (measures.FiniteMeasure, "__init__"),
        ]:
            assert (owner, name) in rebound, f"{owner.__name__}.{name} is not traced"
        space = GroundSpace([(0.0,), (1.0,)], Euclidean())
        monad.kantorovich(space, dirac((0.0,)), dirac((1.0,)))
        assert tracer.calls()["transport.solve"] == 1
    finally:
        inst.undo()
    for owner, name, original in saved:
        assert owner.__dict__[name] is original, f"{owner.__name__}.{name} not restored"
