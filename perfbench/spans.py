"""In-memory span tracer that wraps avmlar's layer functions from outside.

Each traced layer is a public function, replaced on every module that
imports it by a wrapper that records a span (name, start, end, parent, run
id) and the layer's work counts. No avmlar source file is touched: the
wrappers are installed with ``setattr`` on the importing modules and
removed again by ``Tracer.uninstall``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = "bench"


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


def _samples(partition) -> int:
    return sum(b.n for b in partition.blocks)


def _count_mesh(counts, args, result):
    partition, candidates = args
    pairs = len(candidates) * _samples(partition)
    counts["pairs"] += pairs
    counts["bytes_computed"] += pairs * partition.blocks[0].d * 8


def _count_predict(counts, args, result):
    model = args[0]
    queries = len(result.values)
    counts["queries"] += queries
    counts["pair_evals"] += queries * _samples(model.partition)
    counts["block_estimates"] += queries * model.m
    counts["active"] += int(result.active_blocks.sum())
    counts["degenerate"] += int(result.degenerate_blocks.sum())


def _count_kernel(counts, args, result):
    counts["evals"] += int(result.size)


def _count_cdist(counts, args, result):
    counts["pairs"] += int(result.size)


# (layer name, function name, modules that call it, work counter)
LAYERS = (
    ("experiments.run_experiment", "run_experiment", ("experiments",), None),
    ("experiments.write_result_csv", "write_result_csv", ("experiments",), None),
    ("experiments.compute_ge_le_ae", "compute_ge_le_ae", ("experiments",), None),
    ("tuning.cv_select_constant", "cv_select_constant", ("tuning", "experiments"), None),
    ("datagen.generate_dataset", "generate_dataset", ("datagen", "experiments"), None),
    ("avm.fit_avm", "fit_avm", ("avm",), None),
    ("avm.predict_batch", "predict_batch", ("avm", "experiments"), _count_predict),
    ("partition.random_partition", "random_partition", ("avm", "experiments", "tuning"), None),
    ("partition.mesh_norm_report", "mesh_norm_report", ("avm", "experiments"), _count_mesh),
    ("kernels.kernel_profile", "kernel_profile", ("avm", "tuning", "lar"), _count_kernel),
    ("scipy.cdist", "cdist", ("avm", "tuning"), _count_cdist),
)


class Tracer:
    """Records nested spans and per-layer counts while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._run = ""
        self._patched: list[tuple[object, str, object]] = []

    def install(self, modules: dict[str, object]) -> None:
        for layer, attr, callers, counter in LAYERS:
            for mod_name in callers:
                module = modules[mod_name]
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(layer, original, counter))
                self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _enter(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, name, time.perf_counter(), 0.0, parent, self._run))
        self._stack.append(sid)
        return sid

    def _exit(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, run: str):
        """A top-level span around benchmark code; ``run`` tags the spans inside."""
        self._run = run
        sid = self._enter(ROOT)
        try:
            yield
        finally:
            self._exit(sid)

    def _wrap(self, layer, original, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._enter(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(sid)
            counts = tracer.counts[layer]
            counts["calls"] += 1
            if counter is not None:
                counter(counts, args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Busy time (outermost spans only) and self time per span name."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"busy_s": 0.0, "self_s": 0.0})
        for s in self.spans:
            dur = s.end - s.start
            out[s.name]["self_s"] += dur - child_time[s.sid]
            if not self._has_ancestor(s, s.name):
                out[s.name]["busy_s"] += dur
        return out

    def _has_ancestor(self, span: Span, name: str) -> bool:
        p = span.parent
        while p is not None:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "run"],
                    "spans": [
                        [s.sid, s.name, s.start, s.end, s.parent, s.run] for s in self.spans
                    ],
                    "counts": {k: dict(v) for k, v in self.counts.items()},
                },
                fh,
            )
