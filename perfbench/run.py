"""Layered benchmark for avmlar.

Run one workload in this process (the library is imported from ``src/`` of
the checkout this file sits in, with BLAS/OpenMP pinned to one thread)::

    python3 perfbench/run.py --workload sim1-variants --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` runs a fixed
number of operations once untraced and once traced and reports per-layer
metrics. ``--workload all`` runs every workload in its own process and
prints a table. ``--smoke`` shrinks every size so a run takes seconds.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Results, the
environment record and the spans go to ``perfbench/out/``.

Workloads (closed loop, one caller):

* ``sim1-variants`` -- the paper's headline sweep: one-trial NWK-naive
  sweeps with A1/A2/A3, after timing 5-fold CV of the rule constant.
* ``sim1-knn`` -- the same sweep with k-NN, which never reaches the
  kernel or covering-radius layers.
* ``serve-d5`` -- fit four d=5 models, then serve 50-query batches, three
  of every four to the m=8 models and one to the m=1024 models.

Sweep outputs are checked against ``reference.json`` (recorded by
``record.py``); served predictions against ``tests/oracles.py``.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

from spans import LAYERS, ROOT as ROOT_SPAN, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
META = HERE / "meta.json"

THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOADS = ("sim1-variants", "sim1-knn", "serve-d5")
REL_TOL = 1e-12
# candidate rows per distance matrix in the checks, so checking never sets peak memory
CHECK_CHUNK = 1024
IMPORT_REPEATS = 5
DATAGEN_REPEATS = 5
IMPORT_CODE = (
    "import time; t = time.perf_counter(); "
    "import numpy, scipy.spatial, avmlar; print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class Sizes:
    n: int
    t: int
    m_grid: tuple[int, ...]
    pool: int  # sweep trial seeds with recorded reference rows
    serve_m: tuple[int, int]  # (large blocks, small blocks)
    batches: int
    batch_size: int
    trace_ops: dict


FULL = Sizes(
    n=10_000,
    t=1_000,
    m_grid=(5, 50, 350),
    pool=24,
    serve_m=(8, 1024),
    batches=8,
    batch_size=50,
    trace_ops={"sim1-variants": 4, "sim1-knn": 8, "serve-d5": 256},
)
SMOKE = Sizes(
    n=1_000,
    t=100,
    m_grid=(5, 50),
    pool=4,
    serve_m=(8, 64),
    batches=4,
    batch_size=10,
    trace_ops={"sim1-variants": 2, "sim1-knn": 2, "serve-d5": 16},
)


class Lib:
    """The avmlar modules and the test oracles, imported from this checkout."""

    def __init__(self) -> None:
        for var in THREAD_VARS:
            os.environ[var] = str(THREADS)
        sys.path[:0] = [str(SRC), str(ROOT / "tests")]
        import numpy as np
        from scipy.spatial.distance import cdist

        import avmlar
        import oracles
        from avmlar import avm, datagen, experiments, lar, tuning

        if Path(avmlar.__file__).resolve().parent != SRC / "avmlar":
            raise ImportError(f"avmlar imported from {avmlar.__file__}, not {SRC}")
        self.np = np
        self.cdist = cdist
        self.avmlar = avmlar
        self.oracles = oracles
        self.avm, self.datagen, self.experiments, self.tuning = avm, datagen, experiments, tuning
        # every module that calls a traced layer function
        self.modules = {
            "avm": avm,
            "datagen": datagen,
            "experiments": experiments,
            "lar": lar,
            "tuning": tuning,
        }


def seed_for(lib: Lib, *parts: int) -> int:
    return int(lib.np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= REL_TOL * scale


# -- sweep workloads ---------------------------------------------------------


class Sweep:
    """One-trial sweeps over a fixed m grid, cycling through a seed pool.

    The pool holds the trial seeds whose rows ``record.py`` stored; the
    workload seed picks the order in which they are visited.
    """

    def __init__(self, lib: Lib, name: str, sizes: Sizes, seed: int, reference: dict):
        self.lib, self.name, self.sizes = lib, name, sizes
        # NWK CV takes about 3 s, so three fit a run; k-NN CV takes about 9 s
        self.prep_repeats = 1 if name == "sim1-knn" else 3
        e = lib.avmlar
        if name == "sim1-knn":
            self.scenario = e.Scenario.SIM1_KNN
            self.estimator = e.EstimatorConfig(e.EstimatorFamily.KNN, r=1.0, d=1, constant_c=0.5)
        else:
            self.scenario = e.Scenario.SIM1_VARIANTS
            self.estimator = e.EstimatorConfig(
                e.EstimatorFamily.NWK_NAIVE, r=1.0, d=1, constant_c=1 / 3
            )
        self.order = [int(p) for p in lib.np.random.default_rng(seed).permutation(sizes.pool)]
        self.reference = reference
        self.csv_path = OUT / f"sweep-{name}-{os.getpid()}.csv"
        self.rows_done = 0

    def config(self, trial_seed: int):
        return self.lib.avmlar.ExperimentConfig.for_scenario(
            self.scenario,
            estimator=self.estimator,
            n=self.sizes.n,
            t=self.sizes.t,
            trials=1,
            base_seed=trial_seed,
            m_grid=self.sizes.m_grid,
        )

    def training_set(self, trial_seed: int):
        """The training set ``run_experiment`` draws for this trial."""
        target = self.lib.avmlar.TargetModel(self.lib.avmlar.TargetKind.G1)
        return self.lib.datagen.generate_dataset(target, self.sizes.n, trial_seed)

    def tune(self, train) -> float:
        lib = self.lib
        cv = lib.avmlar.CvConfig(lib.avmlar.default_constant_grid(), folds=5, seed=0)
        return lib.tuning.cv_select_constant(train, self.estimator, cv)

    def generate(self):
        return self.training_set(self.order[0])

    def prepare(self, train) -> None:
        self.constant = self.tune(train)

    def verify_prep(self) -> tuple[int, int]:
        return 1, int(self.constant != self.reference[str(self.order[0])]["cv_constant"])

    def warm_up(self) -> None:
        pass

    mix = (0,)  # operation kinds in one repeat of the workload's call mix

    def op(self, i: int) -> int:
        exp = self.lib.experiments
        trial_seed = self.order[i % len(self.order)]
        result = exp.run_experiment(self.config(trial_seed))
        exp.write_result_csv(result, self.csv_path)
        self.rows_done += len(result.rows)
        return trial_seed

    def check(self, i: int, trial_seed: int) -> tuple[int, int]:
        """Compare the written CSV with the recorded rows: (rows, failed rows).

        Recorded columns are looked up by name, so added columns do not fail.
        """
        ref = self.reference[str(trial_seed)]
        with self.csv_path.open(encoding="utf-8") as fh:
            table = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        failed = abs(len(table) - len(ref["rows"]))
        for got, want in zip(table, ref["rows"]):
            cells = zip((got.get(c) for c in ref["columns"]), want)
            failed += int(not all(self.cell_matches(g, w) for g, w in cells))
        return max(len(table), len(ref["rows"])), failed

    @staticmethod
    def cell_matches(got: str | None, want) -> bool:
        """Integer and empty cells exactly, floats within REL_TOL of their size."""
        if got is None:
            return False
        if want is None or isinstance(want, int):
            return got == ("" if want is None else str(want))
        return close(float(got), want, max(abs(float(got)), abs(want)))

    def finish(self) -> None:
        self.csv_path.unlink(missing_ok=True)


# -- serving workload --------------------------------------------------------


class Serve:
    """Fit four d=5 models, then serve fixed query batches.

    Calls follow an 8-call cycle: six go to the m=8 models and two to the
    m=1024 models, alternating Gaussian A2 and naive A3, so p50 measures
    large blocks and p90 measures many small ones.
    """

    CYCLE = (0, 1, 0, 2, 1, 0, 1, 3)  # indices into self.models
    mix = CYCLE
    prep_repeats = 1  # the four fits take 15-20 s; a second pass does not fit a run

    def __init__(self, lib: Lib, sizes: Sizes, seed: int):
        self.lib, self.sizes, self.seed = lib, sizes, seed
        e = lib.avmlar
        self.specs = []  # (family, variant, m), in fit order
        for m in sizes.serve_m:
            self.specs.append((e.EstimatorFamily.NWK_GAUSSIAN, e.Variant.A2_DATA_DEPENDENT, m))
            self.specs.append((e.EstimatorFamily.NWK_NAIVE, e.Variant.A3_QUALIFIED, m))
        self.rows_done = 0
        self.expected: dict[tuple[int, int], float] = {}

    def generate(self):
        lib, s = self.lib, self.sizes
        target = lib.avmlar.TargetModel(lib.avmlar.TargetKind.G2)
        train = lib.datagen.generate_dataset(target, s.n, seed_for(lib, self.seed, 1))
        queries = lib.datagen.generate_test_set(
            target, s.batches * s.batch_size, seed_for(lib, self.seed, 2)
        )
        return train, queries

    def prepare(self, data) -> None:
        lib = self.lib
        self.train, queries = data
        s = self.sizes
        self.batches = [
            queries.x[b * s.batch_size : (b + 1) * s.batch_size] for b in range(s.batches)
        ]
        self.models = []
        for family, variant, m in self.specs:
            config = lib.avmlar.EstimatorConfig(family, r=1.0, d=5, constant_c=1.0)
            fit_seed = seed_for(lib, self.seed, 3, m)
            self.models.append(lib.avm.fit_avm(self.train, config, m, fit_seed, variant))

    def verify_prep(self) -> tuple[int, int]:
        failed = sum(not self.check_fit(model) for model in self.models)
        self.precompute_oracles()
        return len(self.models), failed

    def check_fit(self, model) -> bool:
        """Bandwidth rule, and tilde_h from covering radii computed here."""
        lib, cfg, n = self.lib, model.config, self.train.n
        h = cfg.constant_c * float(n) ** (-1.0 / (2.0 * cfg.r + cfg.d))
        if not close(model.h_or_k, h, h):
            return False
        if model.tilde_h is None:
            return True
        corners = list(itertools.product(*self.train.domain_bounds))
        candidates = lib.np.vstack([self.train.x, corners])
        chunks = range(0, len(candidates), CHECK_CHUNK)
        radii = [
            max(
                float(lib.cdist(candidates[c : c + CHECK_CHUNK], block.x).min(axis=1).max())
                for c in chunks
            )
            for block in model.partition.blocks
        ]
        tilde = lib.oracles.tilde_bandwidth(radii, model.m, cfg.r, cfg.d)
        return close(model.tilde_h, tilde, tilde)

    def precompute_oracles(self) -> None:
        """Oracle value at the first query of every (model, batch) served.

        A local average lies within the range of the responses, so the
        tolerance is REL_TOL relative to the largest |y|.
        """
        oracles = self.lib.oracles
        self.scale = float(abs(self.train.y).max())
        blocks = [
            [([tuple(r) for r in blk.x], list(blk.y)) for blk in model.partition.blocks]
            for model in self.models
        ]
        for i in range(len(self.CYCLE) * len(self.batches)):
            k, b = self.call(i)
            model = self.models[k]
            q = tuple(self.batches[b][0])
            if model.tilde_h is not None:
                want = oracles.avm_a2_nwk(blocks[k], "gaussian", model.tilde_h, q)
            else:
                want = oracles.avm_a3_nwk(blocks[k], "naive", model.h_or_k, q)
            self.expected[(k, b)] = want

    def call(self, i: int) -> tuple[int, int]:
        return self.CYCLE[i % len(self.CYCLE)], (i // len(self.CYCLE)) % len(self.batches)

    def warm_up(self) -> None:
        for model in self.models:
            self.lib.avm.predict_batch(model, self.batches[0])


    def op(self, i: int):
        k, b = self.call(i)
        out = self.lib.avm.predict_batch(self.models[k], self.batches[b])
        self.rows_done += len(out.values)
        return out

    def check(self, i: int, out) -> tuple[int, int]:
        k, b = self.call(i)
        model = self.models[k]
        np = self.lib.np
        ok = (
            bool(np.isfinite(out.values).all())
            and bool(((out.active_blocks >= 0) & (out.active_blocks <= model.m)).all())
            and bool(((out.degenerate_blocks >= 0) & (out.degenerate_blocks <= model.m)).all())
            and close(float(out.values[0]), self.expected[(k, b)], self.scale)
        )
        return 1, int(not ok)

    def finish(self) -> None:
        pass


def make_workload(lib: Lib, name: str, sizes: Sizes, seed: int, mode: str):
    if name == "serve-d5":
        return Serve(lib, sizes, seed)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[mode][name]
    return Sweep(lib, name, sizes, seed, reference)


# -- measurement -------------------------------------------------------------


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, outcome: tuple[int, int]) -> None:
        self.attempted += outcome[0]
        self.failed += outcome[1]


class Calibration:
    """Host speed, sampled with a fixed kernel, to report times at a nominal speed.

    Other tenants of the shared host slow this process by up to 2x, for
    seconds to minutes at a time and in CPU time as well as in wall time, so
    even the fastest call of a run can be slow. While timed work runs, a
    SIGALRM handler times a fixed numpy/Python kernel that does not touch
    avmlar every ``TICK_S`` seconds. A span of work is reported as its
    duration times ``REF_MS`` over the median kernel time within
    ``WINDOW_S`` of the span: its time on a host where the kernel takes
    ``REF_MS``. The handler's own time is taken out of every span.
    """

    REF_MS = 12.0  # nominal kernel time: about its fastest on the host the bounds were set on
    TICK_S = 0.25
    WINDOW_S = 0.5

    def __init__(self, lib: Lib) -> None:
        self.np, self.cdist = lib.np, lib.cdist
        rng = lib.np.random.default_rng(0)
        self.points = rng.random((2000, 5))
        # 16 MB, past the per-core caches, like the dense matrices of the sweeps and the CV
        self.stream = rng.random(2_000_000)
        self.streamed = lib.np.empty_like(self.stream)
        self.samples: list[tuple[float, float]] = []  # (mid time, kernel seconds)
        self.spent = 0.0  # seconds spent in ticks

    def kernel(self) -> float:
        """Cache-resident distances and sorting, a memory-bound pass and a Python loop."""
        np = self.np
        d = self.cdist(self.points[:100], self.points)
        np.exp(-d, out=d)
        np.argsort(d, axis=1)
        np.exp(-self.stream, out=self.streamed)
        total = 0
        for i in range(5000):
            total += i * i
        return float(d.sum()) + float(self.streamed.sum()) + total

    def tick(self, *_) -> None:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        self.spent += t1 - t0

    def __enter__(self) -> "Calibration":
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def nominal(self, span: tuple[float, float, float]) -> float:
        """Seconds of a (start, end, duration) span at the nominal host speed."""
        start, end, seconds = span
        near = [s for t, s in self.samples if start - self.WINDOW_S <= t <= end + self.WINDOW_S]
        if not near:
            raise RuntimeError(f"no calibration tick within {self.WINDOW_S} s of a span")
        return seconds * self.REF_MS / 1000 / statistics.median(near)


def import_seconds(cal: Calibration) -> float:
    """Median fresh-process import time, each between calibration ticks.

    The ticks run before and after each import, not during it, so that they
    never compete with the importing process for a core.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        for _ in range(3):
            cal.tick()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        end = time.perf_counter()
        for _ in range(3):
            cal.tick()
        times.append(cal.nominal((start, end, float(proc.stdout.strip()))))
    return statistics.median(times)


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Clock:
    """Times the work inside ``with clock.span(run):`` blocks.

    Correctness checks run between blocks, so they are never timed. With a
    tracer, every block is also a root span tagged with the run id. With a
    calibration, its tick time is taken out of each block, and ``last`` is
    the block's (start, end, duration).
    """

    def __init__(self, tracer: Tracer | None = None, cal: Calibration | None = None) -> None:
        self.tracer, self.cal = tracer, cal
        self.total = 0.0
        self.last = (0.0, 0.0, 0.0)

    @contextmanager
    def span(self, run: str):
        spent = self.cal.spent if self.cal else 0.0
        t0 = time.perf_counter()
        with nullcontext() if self.tracer is None else self.tracer.root(run):
            yield
        t1 = time.perf_counter()
        seconds = t1 - t0 - ((self.cal.spent - spent) if self.cal else 0.0)
        self.last = (t0, t1, seconds)
        self.total += seconds


def measure(lib: Lib, work, seconds: float, tally: Tally) -> dict[str, float]:
    """End-to-end metrics of one untraced run, at the nominal host speed.

    Every timed span is scaled by the ``Calibration`` around it. Set-up is
    the median of its repeats, preparation the median of its repeats, and
    each operation kind enters the metrics at its median latency in the
    run. ``op_ms_p50``/``op_ms_p90`` are percentiles of the call mix at
    those latencies (on serve-d5 the m=8 and the m=1024 calls), and
    ``rows_per_s`` is the rows of one mix cycle over its time.
    """
    cal = Calibration(lib)
    setup = import_seconds(cal)
    clock = Clock(cal=cal)
    with cal:
        datagen = []
        for _ in range(DATAGEN_REPEATS):
            with clock.span("setup"):
                data = work.generate()
            datagen.append(clock.last)

        preps = []
        for _ in range(work.prep_repeats):
            with clock.span("prep"):
                work.prepare(data)
            preps.append(clock.last)
            tally.add(work.verify_prep())
        work.warm_up()

        spans, rows = [], []
        while sum(s[2] for s in spans) < seconds or len(spans) < len(work.mix):
            i = len(spans)
            before = work.rows_done
            with clock.span(f"op-{i}"):
                out = work.op(i)
            spans.append(clock.last)
            rows.append(work.rows_done - before)
            tally.add(work.check(i, out))
        # ticks after the last span, so that its window is as full as the others'
        end = time.perf_counter() + cal.WINDOW_S
        while time.perf_counter() < end:
            pass
    work.finish()

    setup += statistics.median(cal.nominal(s) for s in datagen)
    kinds = [work.mix[i % len(work.mix)] for i in range(len(spans))]
    latency = {
        k: statistics.median(cal.nominal(s) for s, kind in zip(spans, kinds) if kind == k)
        for k in set(kinds)
    }
    cycle = [latency[k] for k in work.mix]
    return {
        "setup_s": setup,
        "prep_s": statistics.median(cal.nominal(s) for s in preps),
        "rows_per_s": sum(rows[: len(work.mix)]) / sum(cycle),
        "op_ms_p50": 1000 * percentile(cycle, 50),
        "op_ms_p90": 1000 * percentile(cycle, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latencies_s": [s[2] for s in spans],
        "kernel_ms_median": 1000 * statistics.median(s for _, s in cal.samples),
    }


def one_pass(work, ops: int, tally: Tally, clock: Clock) -> float:
    """Generate, prepare and run ``ops`` operations; return the timed seconds."""
    with clock.span("setup"):
        data = work.generate()
    with clock.span("prep"):
        work.prepare(data)
    tally.add(work.verify_prep())
    for i in range(ops):
        with clock.span(f"op-{i}"):
            out = work.op(i)
        tally.add(work.check(i, out))
    work.finish()
    return clock.total


def measure_layers(lib: Lib, make, ops: int, tally: Tally, spans_path: Path) -> dict:
    """Per-layer metrics: the same operations untraced, then traced."""
    untraced = one_pass(make(), ops, tally, Clock())
    tracer = Tracer()
    tracer.install(lib.modules)
    try:
        wall = one_pass(make(), ops, tally, Clock(tracer))
    finally:
        tracer.uninstall()
    tracer.write(spans_path)

    times = tracer.layer_times()
    roots = sum(s.end - s.start for s in tracer.spans if s.name == ROOT_SPAN)
    remainder = times[ROOT_SPAN]["self_s"]
    layer_self = sum(times[name]["self_s"] for name, *_ in LAYERS if name in times)
    if abs(layer_self + remainder - roots) > 1e-6 * max(roots, 1.0):
        raise RuntimeError(
            f"layer self times {layer_self} + remainder {remainder} != traced time {roots}"
        )

    metrics = {
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": wall - untraced,
        "trace.remainder_s": remainder,
    }
    for name, *_ in LAYERS:
        metrics[f"{name}.self_s"] = times[name]["self_s"] if name in times else 0.0
        metrics[f"{name}.busy_s"] = times[name]["busy_s"] if name in times else 0.0
        for count, value in tracer.counts.get(name, {}).items():
            metrics[f"{name}.{count}"] = value
    # counts that were never incremented are 0, and the block fractions are ratios
    pred = tracer.counts.get("avm.predict_batch", {})
    estimates = pred.get("block_estimates", 0)
    for kind in ("active", "degenerate"):
        metrics[f"avm.predict_batch.{kind}_fraction"] = (
            pred.get(kind, 0) / estimates if estimates else 0.0
        )
    return metrics


# -- environment and output ----------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"


def environment(lib: Lib, workload: str, seed: int) -> dict:
    import scipy

    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    cache = "/sys/devices/system/cpu/cpu0/cache/index{}/size"
    meta = json.loads(META.read_text(encoding="utf-8"))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2": _read(cache.format(2)),
        "l3": _read(cache.format(3)),
        "python": platform.python_version(),
        "numpy": lib.np.__version__,
        "scipy": scipy.__version__,
        "threads": THREADS,
        "workload": workload,
        "seed": seed,
        "recheck_seed": meta["recheck_seed"],
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    try:
        lib = Lib()
    except ImportError as exc:
        print(f"cannot import avmlar or the test oracles from {ROOT}: {exc}", file=sys.stderr)
        return 2
    sizes, mode = (SMOKE, "smoke") if args.smoke else (FULL, "full")
    make = lambda: make_workload(lib, args.workload, sizes, args.seed, mode)  # noqa: E731
    env = environment(lib, args.workload, args.seed)
    tally = Tally()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    OUT.mkdir(exist_ok=True)
    if args.trace:
        values = measure_layers(
            lib, make, sizes.trace_ops[args.workload], tally, OUT / f"spans-{tag}.json"
        )
    else:
        values = measure(lib, make(), args.seconds, tally)
    units = declared_metrics(bool(args.trace))
    metrics = {
        name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()
    }
    failed_fraction = tally.failed / tally.attempted
    record = {
        "env": env,
        "metrics": metrics,
        "latencies_s": values.get("latencies_s"),
        "kernel_ms_median": values.get("kernel_ms_median"),
        "failed_fraction": failed_fraction,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:14s} {'failed_fraction':48s} {failed_fraction:>16.6g} fraction")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    ok = True
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        cmd += ["--smoke"] if args.smoke else []
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print("\n".join(line for line in lines[:-1] if not line.startswith("env ")))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
