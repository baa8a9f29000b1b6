import csv
import importlib.util
import shlex
import sys
from pathlib import Path

import pytest

from wstack.cli import EXIT_OK, main
from wstack.metrics import MeterError, PlatformCounterMeter

ROOT = Path(__file__).resolve().parents[1]
TRACES = ROOT / "traces"


def test_counter_command_prints_the_reading():
    cmd = f"{shlex.quote(sys.executable)} -c 'print(12.5)'"
    assert PlatformCounterMeter(counter_command=cmd).read_counter() == 12.5


def test_counter_command_runs_without_a_shell(tmp_path):
    marker = tmp_path / "marker"
    meter = PlatformCounterMeter(counter_command=f"echo 3; touch {shlex.quote(str(marker))}")
    # echo receives "3;", "touch" and the path as arguments and prints them.
    with pytest.raises(MeterError):
        meter.read_counter()
    assert not marker.exists()


@pytest.mark.parametrize("cmd", ["", "   "])
def test_empty_counter_command_is_no_source(cmd):
    with pytest.raises(MeterError, match="no configured source"):
        PlatformCounterMeter(counter_command=cmd).read_counter()


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
    assert len(shipped) == 4
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (TRACES / name).read_bytes(), name
