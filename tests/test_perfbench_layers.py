"""The benchmark's tracer must find every layer it wraps.

``perfbench/spans.py`` replaces each traced function on the modules that
call it; a refactor that drops one of those imports would otherwise only
fail in a traced benchmark run. The benchmark also reads each block of a
fitted model's partition as a dataset.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from avmlar import Dataset, EstimatorConfig, EstimatorFamily, fit_avm

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


def test_partition_blocks_serve_the_attributes_perfbench_reads():
    # perfbench/run.py and perfbench/spans.py read partition.blocks[j].x/.y/.n/.d
    rng = np.random.default_rng(3)
    ds = Dataset(rng.random((23, 2)), rng.normal(size=23))
    config = EstimatorConfig(EstimatorFamily.NWK_NAIVE, r=1.0, d=2)
    part = fit_avm(ds, config, 4, 1, h=0.3).partition
    assert len(part.blocks) == part.m == 4
    for j, block in enumerate(part.blocks):
        a, b = part.offsets[j], part.offsets[j + 1]
        assert np.array_equal(block.x, part.data.x[a:b])
        assert np.array_equal(block.y, part.data.y[a:b])
        assert (block.n, block.d) == (b - a, 2)
