import csv
import importlib.util
import shlex
import sys
import time
from pathlib import Path

import pytest

from wstack import metrics, visdata
from wstack.cli import EXIT_OK, main
from wstack.comms import REDUCE_KINDS, ReduceStrategy, Topology
from wstack.gridder import KernelSpec
from wstack.metrics import MeterError, RunRecord, read_counter
from wstack.pipeline import run_pipeline

ROOT = Path(__file__).resolve().parents[1]
TRACES = ROOT / "traces"


def test_counter_command_prints_the_reading():
    cmd = f"{shlex.quote(sys.executable)} -c 'print(12.5)'"
    assert read_counter(cmd) == 12.5


def test_counter_command_runs_without_a_shell(tmp_path):
    marker = tmp_path / "marker"
    cmd = f"echo 3; touch {shlex.quote(str(marker))}"
    # echo receives "3;", "touch" and the path as arguments and prints them.
    with pytest.raises(MeterError):
        read_counter(cmd)
    assert not marker.exists()


@pytest.mark.parametrize("cmd", ["", "   "])
def test_empty_counter_command_is_no_source(cmd):
    with pytest.raises(MeterError, match="no configured source"):
        read_counter(cmd)


def test_negative_seconds_are_rejected_beside_positive_joules():
    with pytest.raises(ValueError, match="negative seconds for reduce"):
        RunRecord("a", 1, "default", {"reduce": -5.0, "total": 10.0},
                  {"reduce": 1.0, "total": 2.0})
    with pytest.raises(ValueError, match="negative joules for total"):
        RunRecord("a", 1, "default", {"total": 10.0}, {"total": -2.0})


@pytest.fixture(scope="module")
def metered_run(tmp_path_factory):
    """A compute-bound 1x2 run and the process CPU-seconds it took, as
    measured around the call."""
    path = tmp_path_factory.mktemp("meter") / "d.rvis"
    header, chunk = visdata.generate_synthetic(
        visdata.SkyModel(sources=((0.0, 0.0, 1.0),)), 60_000, n_freq=1, seed=3)
    visdata.write_dataset(chunk, header, path)
    c0 = time.process_time()
    res = run_pipeline(path, 256, 256, 8, 1e-3, KernelSpec.kaiser_bessel(), Topology(1, 2))
    return res.run, time.process_time() - c0


def test_live_run_phase_joules_sum_to_the_total(metered_run):
    run, _ = metered_run
    assert run.freq_level == "default"
    assert set(run.energy_joules) == {*metrics.PHASES, "total"}
    assert min(run.energy_joules.values()) >= 0 and run.total_joules > 0
    phases = sum(run.energy_joules[p] for p in metrics.PHASES)
    assert phases == pytest.approx(run.total_joules, rel=0.01)


def test_live_run_total_is_watts_per_core_times_process_time(metered_run):
    run, cpu_s = metered_run
    assert metrics.WATTS_PER_CORE == 280.0 / 64
    assert run.total_joules == pytest.approx(metrics.WATTS_PER_CORE * cpu_s, rel=0.01)


@pytest.mark.parametrize("kind", REDUCE_KINDS)
@pytest.mark.parametrize("nodes, ranks", [(1, 1), (1, 2), (2, 2)])
def test_phase_joules_never_exceed_the_total(tmp_path, nodes, ranks, kind):
    # Every phase but write is the ranks' summed thread CPU and write is
    # the process CPU while the coordinator writes, each within the run's
    # process CPU, so no barrier is needed for the phases to stay within
    # the total.
    path = tmp_path / "d.rvis"
    header, chunk = visdata.generate_synthetic(
        visdata.SkyModel(sources=((0.0, 0.0, 1.0),)), 20_000, n_freq=2, seed=5)
    visdata.write_dataset(chunk, header, path)
    res = run_pipeline(path, 64, 64, 4, 1e-3, KernelSpec.gaussian(), Topology(nodes, ranks),
                       ReduceStrategy(kind), out_dir=tmp_path / "out")
    joules = res.run.energy_joules
    assert set(joules) == set(res.run.phase_times) == {*metrics.PHASES, "total"}
    assert sum(joules[p] for p in metrics.PHASES) <= joules["total"]


def report(tmp_path, kind, trace, *argv):
    """Rows of ``wstack report <kind>`` on a shipped trace, as written to --out."""
    out = tmp_path / f"{kind}.csv"
    assert main(["report", kind, "--trace", str(TRACES / trace), "--out", str(out),
                 *argv]) == EXIT_OK
    with open(out, newline="") as fh:
        return list(csv.DictReader(fh))


def test_multinode_frequency_savings(tmp_path):
    rows = report(tmp_path, "freq", "multinode.csv")
    by_level = {}
    for row in rows:
        by_level.setdefault(row["freq_level"], []).append(
            (float(row["energy_saving"]), float(row["perf_degradation"])))
    assert {len(v) for v in by_level.values()} == {5}  # 2, 4, 8, 16, 32 nodes
    for saving, slowdown in by_level["medium"]:
        assert saving == pytest.approx(0.25) and slowdown == pytest.approx(0.045)
    for saving, slowdown in by_level["low"]:
        assert saving == pytest.approx(0.30) and slowdown == pytest.approx(0.09)


def test_multinode_gpu_greener_and_faster(tmp_path):
    rows = report(tmp_path, "ratios", "multinode.csv")
    high = {int(r["n_nodes"]): r for r in rows if r["cpu_freq_level"] == "high"}
    assert sorted(high) == [4, 8, 16]
    for row in high.values():
        assert float(row["energy_ratio_cpu_over_gpu"]) == pytest.approx(6.5)
    times = [float(high[n]["time_ratio_cpu_over_gpu"]) for n in (4, 8, 16)]
    assert times == pytest.approx([10.0, 10.35, 10.51], abs=5e-3)


def test_scaling_gp_gives_each_label_its_own_series(tmp_path):
    # With no --label, b at 2 nodes is measured against b's own first run,
    # not against a at 1 node, and printed under b.
    trace = tmp_path / "trace.csv"
    trace.write_text("label,n_nodes,freq_level,phase,seconds,joules\n"
                     "a,1,default,total,10.0,100.0\nb,2,default,total,6.0,120.0\n")
    out = tmp_path / "gp.csv"
    assert main(["report", "scaling_gp", "--trace", str(trace), "--out", str(out)]) == EXIT_OK
    with open(out, newline="") as fh:
        rows = [(r["label"], int(r["n_nodes"]), float(r["green_productivity"]))
                for r in csv.DictReader(fh)]
    assert rows == [("a", 1, 1.0), ("b", 2, 1.0)]


def test_multinode_scaling_gp_against_two_nodes(tmp_path):
    rows = report(tmp_path, "scaling_gp", "multinode.csv", "--label", "cpu", "--freq", "high")
    assert [(r["label"], int(r["n_nodes"])) for r in rows] == [
        ("cpu", n) for n in (2, 4, 8, 16, 32)]
    assert float(rows[0]["green_productivity"]) == 1.0


@pytest.mark.parametrize("nodes", [(2, 1), (2, 2)], ids=["decreasing", "repeated"])
def test_scaling_gp_rejects_node_counts_that_do_not_increase(nodes):
    runs = [RunRecord("a", n, "default", {"total": 1.0}, {"total": 1.0}) for n in nodes]
    with pytest.raises(ValueError, match="strictly increasing"):
        metrics.scaling_gp_report(runs)


def test_table2_green_productivity_against_gpu(tmp_path):
    rows = report(tmp_path, "gp", "table2_single_node.csv", "--ref", "gpu")
    gp = {r["label"]: float(r["green_productivity"]) for r in rows}
    assert gp["gpu"] == 1.0
    assert gp["hybrid_best"] == pytest.approx(0.5303, abs=5e-5)
    assert gp["mpi"] == pytest.approx(0.0407, abs=5e-5)


def test_make_traces_reproduces_the_shipped_traces(tmp_path, monkeypatch):
    # The report figures above come from these files; they must be what
    # scripts/make_traces.py writes, byte for byte.
    spec = importlib.util.spec_from_file_location("make_traces",
                                                  ROOT / "scripts" / "make_traces.py")
    make_traces = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_traces)
    monkeypatch.setattr(make_traces, "OUT_DIR", tmp_path)
    make_traces.main()
    shipped = sorted(p.name for p in TRACES.glob("*.csv"))
    assert shipped == sorted(p.name for p in tmp_path.glob("*.csv"))
    assert shipped == ["multinode.csv", "table2_single_node.csv"]
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (TRACES / name).read_bytes(), name
