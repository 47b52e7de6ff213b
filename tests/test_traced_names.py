"""The benchmark's traced names must exist, or a traced run stops with TraceError."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [
        f"{module}.{attribute}"
        for module, attribute, _ in spans.TARGETS
        if not hasattr(importlib.import_module(module), attribute)
    ]
    assert not missing
