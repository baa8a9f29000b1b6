import csv

import pytest

from wstack import bench, metrics, visdata
from wstack.cli import EXIT_CHECK_FAILED, EXIT_OK, main
from wstack.comms import ReduceStrategy, Topology
from wstack.gridder import KernelSpec

STRATEGIES = [ReduceStrategy("direct"), ReduceStrategy("hybrid_ring")]


@pytest.fixture
def dataset(tmp_path):
    header, chunk = visdata.generate_synthetic(
        visdata.SkyModel(sources=((0.0, 0.0, 1.0),)), 300, n_freq=1, seed=2,
        n_time_slices=4)
    path = tmp_path / "d.rvis"
    visdata.write_dataset(chunk, header, path)
    return path


@pytest.fixture
def broken_2x1(monkeypatch):
    """Make every pipeline run on topology 2x1 raise; returns the topology
    label of each call made."""
    real = bench.run_pipeline
    calls = []

    def run_pipeline(*args, topo, **kwargs):
        calls.append(topo.label())
        if topo.label() == "2x1":
            raise RuntimeError("rank 1 broke")
        return real(*args, topo=topo, **kwargs)

    monkeypatch.setattr(bench, "run_pipeline", run_pipeline)
    return calls


def run(dataset, out_dir, topologies):
    return bench.run_plan(bench.BenchPlan(
        n_u=16, n_v=16, n_w=2, cell_size_lm=1e-3, kernel=KernelSpec.gaussian(),
        topologies=topologies, strategies=STRATEGIES, repeats=3, dataset=dataset,
        output_dir=out_dir))


def untimed(result):
    """Aggregate rows by label, without the config index and the columns
    that differ between identical runs."""
    timed = {f"{c}_{s}" for c in bench.TIMING_COLUMNS for s in ("mean", "std")} | {"config"}
    keep = [i for i, name in enumerate(result.aggregate_header) if name not in timed]
    label = result.aggregate_header.index("label")
    return {row[label]: [row[i] for i in keep] for row in result.aggregate_rows}


def test_failed_cell_is_recorded_and_spares_the_other_cells(tmp_path, dataset, broken_2x1):
    result = run(dataset, tmp_path / "mixed", [Topology(1, 1), Topology(2, 1), Topology(1, 2)])
    failed = [r for r in result.raw_rows if r["topology"] == "2x1"]
    # The first repeat fails and stops its cell's other repeats.
    assert [(r["strategy"], r["repeat"], r["status"], r["failure_reason"]) for r in failed] == [
        (s.kind, 0, "failed", "RuntimeError: rank 1 broke") for s in STRATEGIES]
    assert broken_2x1.count("2x1") == len(STRATEGIES)
    assert not result.all_ok

    header = result.aggregate_header
    rows = {row[header.index("label")]: dict(zip(header, row)) for row in result.aggregate_rows}
    for s in STRATEGIES:
        cell = rows[f"2x1_{s.kind}"]
        assert (cell["status"], cell["n_ok"], cell["failure_reason"]) == (
            "failed", 0, "RuntimeError: rank 1 broke")

    clean = run(dataset, tmp_path / "clean", [Topology(1, 1), Topology(1, 2)])
    assert clean.all_ok
    others = {label: row for label, row in untimed(result).items() if not label.startswith("2x1")}
    assert others == untimed(clean)
    for label, row in rows.items():
        if not label.startswith("2x1"):
            assert (row["status"], row["n_ok"], row["image_hashes_identical"]) == ("ok", 3, 1)


def test_bench_with_a_failed_cell_exits_1(tmp_path, dataset, broken_2x1):
    code = main(["bench", "--dataset", str(dataset), "--out-dir", str(tmp_path / "out"),
                 "--n-u", "16", "--n-v", "16", "--n-w", "2", "--topo", "1x1,2x1",
                 "--strategy", "direct", "--repeats", "2"])
    assert code == EXIT_CHECK_FAILED
    assert broken_2x1 == ["1x1", "1x1", "2x1"]


def test_report_reads_the_bench_trace_one_row_per_successful_run(tmp_path, dataset,
                                                                 broken_2x1, capsys):
    out_dir = tmp_path / "out"
    result = run(dataset, out_dir, [Topology(1, 1), Topology(2, 1), Topology(1, 2)])
    ok = [f"{r['label']}/r{r['repeat']}" for r in result.raw_rows if r["status"] == "ok"]
    assert len(ok) == 2 * len(STRATEGIES) * 3
    with open(out_dir / "trace.csv", newline="") as fh:
        trace = list(csv.DictReader(fh))
    assert len(trace) == len(ok) * (len(metrics.PHASES) + 1)
    assert {row["label"] for row in trace} == set(ok)  # the failed 2x1 cell writes none
    capsys.readouterr()
    gp_path = tmp_path / "gp.csv"
    assert main(["report", "gp", "--trace", str(out_dir / "trace.csv"),
                 "--ref", "1x1_direct/r0", "--out", str(gp_path)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert all(label in printed for label in ok) and "2x1" not in printed
    with open(gp_path, newline="") as fh:
        gp = {row["label"]: row for row in csv.DictReader(fh)}
    assert sorted(gp) == sorted(ok)
    assert float(gp["1x1_direct/r0"]["green_productivity"]) == 1.0
    assert all(float(row["green_productivity"]) > 0 for row in gp.values())
