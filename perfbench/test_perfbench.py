"""Self-test of the benchmark harness at a tiny size."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from wstack import cli
from wstack.comms import Topology
from wstack.gridder import KernelSpec

from perfbench import measure, tracing
from perfbench.imagecheck import FIGURES, check_image, image_stats
from perfbench.tracing import Span
from perfbench.workloads import Workload

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = Workload(name="tiny", records=4000, n_chan=2, n_grid=64, n_w=2,
                kernel=KernelSpec.gaussian(3, 1.0), topology=Topology(1, 2),
                strategy="hybrid_ring")


def tiny_session(tmp_path, seed=3):
    """A session whose reference is the tiny workload's own first image."""
    session = measure.Session(TINY, seed, tmp_path, reference={})
    TINY.write_dataset(seed, session.dataset)
    stats = image_stats(TINY.image(session.dataset, tmp_path / "ref", seed))
    session.reference = {"peaks": stats.pop("peaks"), "seeds": {str(seed): stats},
                         "any_seed": {**stats, "rtol": dict.fromkeys(FIGURES, 0.05)}}
    return session


def test_union_self_time_and_coverage():
    assert tracing.union_seconds([(0, 2), (1, 3), (5, 6)]) == 4
    assert tracing.union_seconds([(0, 2), (1, 3), (5, 6)], lo=1.5, hi=5.5) == 2
    outer = Span("gridder.grid", "rank-0", 0.0, 10.0)
    spans = [outer,
             Span("gridder.kernel", "rank-0", 1.0, 3.0),
             Span("gridder.kernel", "rank-0", 2.0, 4.0),
             Span("gridder.kernel", "rank-1", 5.0, 6.0),    # other thread
             Span("gridder.kernel", "rank-0", 9.0, 11.0)]   # not inside
    assert tracing.self_seconds(outer, spans) == 7.0
    assert tracing.coverage(spans, 0.0, 20.0) == 11.0 / 20.0
    reduce_span = Span("comms.reduce", "MainThread", 0.0, 4.0)
    checks = [Span(tracing.ZERO_CHECK, "rank-0", 1.0, 2.0),
              Span(tracing.ZERO_CHECK, "rank-1", 1.5, 2.5)]
    assert tracing.excluding([reduce_span, *checks], "comms.reduce", tracing.ZERO_CHECK) == 2.5


def test_layer_metrics_arithmetic():
    spans = [
        Span("transform.fft", "MainThread", 0.0, 5.0),
        Span("transform.row_fft", "rank-0", 0.5, 1.5),
        Span("transform.row_fft", "rank-0", 2.0, 3.0),
        Span("transform.row_fft", "rank-1", 0.5, 1.0),
        Span("gridder.grid", "rank-0", 10.0, 14.0),
        Span("gridder.grid", "rank-1", 10.0, 12.0),
        Span("gridder.kernel", "rank-0", 10.0, 11.0),
        Span("gridder.kernel", "rank-1", 10.0, 11.5),
    ]
    tracer = SimpleNamespace(spans=spans, counters={"batched_records": 130,
                                                    "reduce_zero_bytes": 64})
    counts = {f"{p}_{k}": 1 for p in measure.MESSAGE_PHASES for k in ("bytes", "messages")}
    phases = {"total": 20.0, "reduce": 1.0}
    traced = measure.Sample("traced", 0.0, 20.0, 1.0, phases, counts)
    timed = [measure.Sample("run0", 0.0, 16.0, 1.0, phases, counts)]
    result = SimpleNamespace(ops={"records": 100, "grid_updates": 600})
    out = measure.per_layer(tracer, traced, result, timed, [traced])
    assert out["transform.fft_s"] == 5.0
    assert out["transform.row_fft_s"] == 2.0
    assert out["transform.transpose_s"] == 3.0
    assert out["gridder.grid_s"] == 4.0
    assert out["gridder.kernel_s"] == 1.5
    assert out["gridder.accumulate_s"] == 3.0       # rank-0: 4 s less its 1 s of kernel
    assert out["gridder.grid_imbalance"] == 4.0 / 3.0
    assert out["gridder.updates_per_s"] == 100.0
    assert out["comms.halo_records"] == 30
    assert out["trace.coverage"] == (5.0 + 4.0) / 20.0
    assert out["trace.overhead"] == 20.0 / 16.0 - 1.0
    assert set(out) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_tiny_harness_run(tmp_path):
    session = tiny_session(tmp_path)
    before = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in tracing.hook_targets()]
    setup_s = session.setup()
    timed = session.timed_runs(0.0)
    assert len(timed) == measure.MIN_RUNS
    e2e = measure.end_to_end(TINY, timed, setup_s)
    assert set(e2e) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v > 0 for v in e2e.values())

    tracer = tracing.Tracer()
    traced, result = session.run("traced", tracer)
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, f"{attr} still wrapped"
    n_spans = len(tracer.spans)
    session.run("after")
    assert len(tracer.spans) == n_spans
    assert all(traced.t0 <= s.t0 <= s.t1 <= traced.t1 for s in tracer.spans)

    layers = measure.per_layer(tracer, traced, result, timed, session.samples)
    assert set(layers) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert 0.5 < layers["trace.coverage"] <= 1.0
    assert layers["comms.halo_records"] > 0
    assert layers["comms.reduce_zero_bytes"] > 0
    assert layers["comms.recv_wait_s.fft"] > 0
    assert layers["gridder.cell_updates"] == result.ops["grid_updates"]
    assert layers["check.image_bit_identical"] == len(session.samples)
    assert all(s.failure is None for s in session.samples)

    again = tracing.Tracer()
    _, result2 = session.run("traced2", again)
    assert again.counters == tracer.counters
    assert measure.exact_counts(result2) == measure.exact_counts(result)

    paths = measure.write_traces(tracer, traced, session.samples, TINY, tmp_path)
    events = json.loads(paths["chrome"].read_text())["traceEvents"]
    assert sum(e["ph"] == "X" for e in events) == n_spans
    assert len(paths["spans"].read_text().splitlines()) == n_spans + 1
    assert cli.main(["report", "reduce_fraction", "--trace", str(paths["phases"])]) == 0


def test_missing_hook_stops_the_traced_run(tmp_path, monkeypatch):
    session = tiny_session(tmp_path)
    session.setup()
    before = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in tracing.hook_targets()]
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (
        ("gridder", "kernel_value_renamed", "gridder.kernel"),))
    sample, result = session.run("traced", tracing.Tracer())
    assert result is None
    assert "wstack.gridder.kernel_value_renamed" in sample.failure
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, f"{attr} still wrapped"


def test_uncalled_hook_and_low_coverage_fail_the_trace(tmp_path, monkeypatch):
    session = tiny_session(tmp_path)
    session.setup()
    # The program has hybrid_reduce, but the pipeline does not call it.
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (
        ("comms", "hybrid_reduce", "comms.reduce"),))
    tracer = tracing.Tracer()
    _, result = session.run("traced", tracer)
    assert result is not None
    assert tracing.trace_problems(tracer, 1.0, TINY.idle_hooks) == [
        "wstack.comms.Router.recv_any was never called",
        "wstack.comms.hybrid_reduce was never called"]
    assert tracing.trace_problems(tracer, 0.9, tuple(tracer.calls)) == [
        "spans cover 0.900 of the run, less than 0.95"]
    assert tracing.trace_problems(tracer, 0.95, tuple(tracer.calls)) == []


def test_count_change_fails_the_run(tmp_path):
    session = tiny_session(tmp_path)
    session.setup()
    session.expected_counts = {**session.expected_counts, "cell_updates": -1}
    sample, _ = session.run("run0")
    assert sample.failure.startswith("counts")


@pytest.mark.parametrize("change, passes", [
    (lambda s: s, True),
    (lambda s: {**s, "l2": s["l2"] * (1 + 1e-12)}, True),
    (lambda s: {**s, "peak_flux": [f * 0.9 for f in s["peak_flux"]]}, False),
    (lambda s: {**s, "peaks": [[i + 1, j] for i, j in s["peaks"]]}, False),
])
def test_image_check_tolerance(tmp_path, change, passes):
    session = tiny_session(tmp_path)
    stats = image_stats(TINY.image(session.dataset, tmp_path / "img", session.seed))
    reason, _ = check_image(change(stats), session.reference, session.seed)
    assert (reason is None) == passes
    other_seed, _ = check_image(change(stats), session.reference, session.seed + 1)
    assert (other_seed is None) == passes


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "wide_mesh_1x2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
