"""Set-up, the timed closed loop, the traced run and the metrics they give.

One client in one process calls ``run_pipeline`` and starts the next call
when the previous one returns. Every image is checked against the
reference, and the exact counts of each run (cell updates, bytes and
messages per phase) must equal those of the first run of the invocation;
a run that raises, fails the check or changes a count is a failed run.
"""

from __future__ import annotations

import contextlib
import gc
import os
import shutil
import statistics
import sys
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

from wstack import metrics

from . import tracing
from .imagecheck import check_image, image_stats, load_reference
from .workloads import Workload

MIN_RUNS = 3
MESSAGE_PHASES = ("exchange", "reduce", "fft")
RSS_INTERVAL_S = 0.01
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


@dataclass
class Sample:
    """One checked ``run_pipeline`` call."""

    label: str
    t0: float
    t1: float
    cpu_s: float
    phases: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    failure: str | None = None
    bit_identical: bool = False
    peak_rss_mb: float = 0.0
    reduce_fraction: float = 0.0

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


def exact_counts(result) -> dict:
    counts = {"records": result.ops["records"], "cell_updates": result.ops["grid_updates"]}
    for phase in MESSAGE_PHASES:
        counts[f"{phase}_bytes"] = result.log.total_bytes(phase=phase)
        counts[f"{phase}_messages"] = result.log.count(phase=phase)
    return counts


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_BYTES


class PeakRSS:
    """Peak resident memory of this process while in use, sampled every
    ``RSS_INTERVAL_S`` by a thread of its own. The process high-water mark
    of ``getrusage`` cannot be reset between runs, and its maximum over
    runs depends on how rank threads happened to overlap their buffers."""

    def __enter__(self) -> "PeakRSS":
        self.peak = rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, name="rss-sampler")
        self._thread.start()
        return self

    def _poll(self):
        while not self._stop.wait(RSS_INTERVAL_S):
            self.peak = max(self.peak, rss_bytes())

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, rss_bytes())




def median(values) -> float:
    return statistics.median(values) if values else 0.0


def completed(samples: list[Sample]) -> list[Sample]:
    """The runs that returned an image, whether or not it passed."""
    return [s for s in samples if s.phases]


def tail_percentile(values, beyond: int = 10):
    """``(p, value)`` for the highest whole percentile p with at least
    ``beyond`` samples above it, p >= 50; None when too few samples."""
    n = len(values)
    if n < 2 * beyond:
        return None
    return 100 * (n - beyond) // n, sorted(values)[n - beyond - 1]


class Session:
    """The runs of one workload at one seed, in one process."""

    def __init__(self, workload: Workload, seed: int, out_dir: Path,
                 reference: dict | None = None):
        self.workload = workload
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.dataset = self.out_dir / "dataset.rvis"
        self.reference = reference if reference is not None else load_reference(workload.name)
        self.samples: list[Sample] = []
        self.expected_counts: dict | None = None

    def setup(self) -> float:
        """Write the dataset and make the warm-up run; returns their seconds."""
        t0 = perf_counter()
        self.workload.write_dataset(self.seed, self.dataset)
        warm, _ = self.run("warmup")
        return warm.t1 - t0

    def run(self, label: str, tracer: tracing.Tracer | None = None):
        """One pipeline call, timed with tracing off unless ``tracer`` is
        given, then checked. Returns ``(Sample, PipelineResult or None)``."""
        gc.collect()
        result, failure = None, None
        c0 = process_time()
        t0 = perf_counter()
        try:
            with PeakRSS() as rss, tracer or contextlib.nullcontext():
                result = self.workload.image(self.dataset, self.out_dir / "image", self.seed)
        except Exception as exc:  # a failed run is counted, the loop goes on
            traceback.print_exc(file=sys.stderr)
            failure = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        sample = Sample(label=label, t0=t0, t1=t1, cpu_s=process_time() - c0, failure=failure,
                        peak_rss_mb=rss.peak / 2**20)
        if result is not None:
            sample.phases = dict(result.run.phase_times)
            sample.reduce_fraction = metrics.reduce_fraction(result.run)
            sample.counts = exact_counts(result)
            sample.failure, sample.bit_identical = check_image(
                image_stats(result), self.reference, self.seed)
            if self.expected_counts is None:
                self.expected_counts = sample.counts
            elif sample.counts != self.expected_counts and sample.failure is None:
                sample.failure = f"counts {sample.counts} differ from {self.expected_counts}"
        if sample.failure is not None:
            print(f"perfbench: {self.workload.name} {label} failed: {sample.failure}",
                  file=sys.stderr)
        self.samples.append(sample)
        return sample, result

    def timed_runs(self, seconds: float) -> list[Sample]:
        """Back-to-back runs for at least ``seconds`` and ``MIN_RUNS`` runs."""
        timed = []
        start = perf_counter()
        while len(timed) < MIN_RUNS or perf_counter() - start < seconds:
            timed.append(self.run(f"run{len(timed)}")[0])
        return timed

    def cleanup(self):
        self.dataset.unlink(missing_ok=True)
        shutil.rmtree(self.out_dir / "image", ignore_errors=True)


def end_to_end(workload: Workload, timed: list[Sample], setup_s: float) -> dict:
    """Medians over the timed runs that returned an image: wall seconds per
    ``run_pipeline`` call, records imaged per second of it, process user
    plus system CPU-seconds per call (the stand-in for energy: no power
    counter is read), and peak resident memory per call; plus ``setup_s``.
    Failed runs are counted in the result's ``failed``, not here."""
    ok = completed(timed)
    if not ok:
        raise RuntimeError(f"{workload.name}: no timed run produced an image")
    image_s = median([s.seconds for s in ok])
    return {
        "image_s": image_s,
        "records_per_s": workload.records / image_s,
        "cpu_s": median([s.cpu_s for s in ok]),
        "peak_rss_mb": median([s.peak_rss_mb for s in ok]),
        "setup_s": setup_s,
    }


def per_layer(tracer: tracing.Tracer, traced: Sample, result, timed: list[Sample],
              samples: list[Sample]) -> dict:
    """Per-layer metrics from the traced run's spans and counters, plus the
    medians of the program's own phase timers over the untraced runs.

    Functions that run on every rank thread are reported for the busiest
    rank, the one with the most time in that function, except
    ``comms.prepare_s``, which is summed over ranks; ``gridder.kernel_s``
    is the busiest rank in ``kernel_value`` and ``gridder.accumulate_s`` is
    the busiest ``grid_sector`` rank's time outside ``kernel_value``.
    """
    spans = tracer.spans
    grid = tracing.per_thread_seconds(spans, "gridder.grid")
    grid_rank, grid_s = tracing.busiest(grid)
    grid_self = tracing.per_thread_seconds(spans, "gridder.grid", self_time=True)
    _, kernel_s = tracing.busiest(tracing.per_thread_seconds(spans, "gridder.kernel"))
    _, row_fft_s = tracing.busiest(tracing.per_thread_seconds(spans, "transform.row_fft"))
    fft_s = tracing.total_seconds(spans, "transform.fft")
    cell_updates = result.ops["grid_updates"]
    grid_total = sum(grid.values())
    ok = completed(timed)
    image_s = median([s.seconds for s in ok])
    out = {
        "visdata.read_s": tracing.total_seconds(spans, "visdata.read"),
        "comms.prepare_s": tracing.total_seconds(spans, "comms.prepare"),
        "comms.exchange_s": tracing.total_seconds(spans, "comms.exchange"),
        "comms.halo_records": tracer.counters["batched_records"] - result.ops["records"],
        "comms.reduce_s": tracing.excluding(spans, "comms.reduce", tracing.ZERO_CHECK),
        "comms.reduce_zero_bytes": tracer.counters["reduce_zero_bytes"],
        "gridder.grid_s": grid_s,
        "gridder.grid_imbalance": grid_s / (grid_total / len(grid)) if grid_total else 0.0,
        "gridder.kernel_s": kernel_s,
        "gridder.accumulate_s": grid_self.get(grid_rank, 0.0),
        "gridder.cell_updates": cell_updates,
        "gridder.updates_per_s": cell_updates / grid_total if grid_total else 0.0,
        "transform.fft_s": fft_s,
        "transform.row_fft_s": row_fft_s,
        "transform.transpose_s": fft_s - row_fft_s,
        "transform.wcorrect_s": tracing.busiest(
            tracing.per_thread_seconds(spans, "transform.wcorrect"))[1],
        "transform.stack_s": tracing.busiest(
            tracing.per_thread_seconds(spans, "transform.stack"))[1],
        "transform.write_s": tracing.total_seconds(spans, "transform.write"),
        "trace.coverage": tracing.coverage(spans, traced.t0, traced.t1),
        "trace.overhead": traced.seconds / image_s - 1.0,
        "check.image_bit_identical": sum(s.bit_identical for s in samples),
    }
    for phase in MESSAGE_PHASES:
        layer = "transform" if phase == "fft" else "comms"
        out[f"{layer}.{phase}_bytes"] = traced.counts[f"{phase}_bytes"]
        out[f"{layer}.{phase}_messages"] = traced.counts[f"{phase}_messages"]
        out[f"comms.recv_wait_s.{phase}"] = tracing.total_seconds(
            spans, f"comms.recv_wait.{phase}")
    for phase in metrics.PHASES:
        out[f"pipeline.{phase}_s"] = median([s.phases.get(phase, 0.0) for s in ok])
    out["pipeline.reduce_fraction"] = median([s.reduce_fraction for s in ok])
    return out


def write_traces(tracer: tracing.Tracer, traced: Sample, samples: list[Sample],
                 workload: Workload, out_dir: Path) -> dict:
    """Spans as Chrome trace-event JSON and flat CSV, and every run's phase
    times as ``wstack`` trace rows (joules 0: no power counter is read)."""
    paths = {"chrome": out_dir / "trace.json", "spans": out_dir / "spans.csv",
             "phases": out_dir / "phases.csv"}
    tracing.write_chrome_trace(tracer.spans, paths["chrome"], traced.t0)
    tracing.write_span_csv(tracer.spans, paths["spans"], traced.t0)
    rows = [(f"{workload.name}/{s.label}", workload.topology.n_nodes, "default",
             phase, seconds, 0.0)
            for s in samples for phase, seconds in s.phases.items()]
    metrics.write_trace(paths["phases"], rows)
    return paths
