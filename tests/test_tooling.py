import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_targets_resolve(monkeypatch):
    # the benchmark's tracer wraps these functions by name; a renamed or pruned
    # one would break every traced benchmark run.  Loading it leaves no
    # bytecode cache behind in perfbench/.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, attribute in tracer.TARGETS:
        owner = importlib.import_module(f"gravoptics.{module}")
        assert callable(getattr(owner, attribute, None)), f"{module}.{attribute}"
