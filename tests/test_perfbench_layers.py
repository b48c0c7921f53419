"""The benchmark's tracer must find every layer it wraps.

``perfbench/spans.py`` replaces each traced function on the modules that
call it; a refactor that drops one of those imports would otherwise only
fail in a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_layers_resolve_on_avmlar_modules():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # its dataclasses look their module up there
    spec.loader.exec_module(spans)
    for layer, attr, callers, _ in spans.LAYERS:
        for name in callers:
            module = importlib.import_module(f"avmlar.{name}")
            assert callable(getattr(module, attr, None)), (layer, name, attr)
