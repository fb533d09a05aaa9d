"""The benchmark's traced boundaries name callables that exist, so deleting
or renaming a traced function fails here rather than in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def _trace_targets():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves_to_a_callable():
    targets = _trace_targets()
    assert targets
    missing = []
    for module_name, attribute, _, _ in targets:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attribute}")
    assert not missing, missing
