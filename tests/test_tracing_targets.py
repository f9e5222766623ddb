"""The benchmark's tracer patches package attributes by name; every one it
lists must exist where it looks, or each traced round would raise."""

import importlib.util
from pathlib import Path

import tracelab

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for path, attr, _, _ in tracing.TARGETS:
        owner = tracelab
        for part in path.split("."):
            owner = getattr(owner, part)
        assert attr in owner.__dict__, f"{path}.{attr}"
