import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Covered: 0.010-0.150 (two overlapping spans on two threads), 0.400-0.500
# and 0.520-0.900 s. Uncovered: 10 ms at the start, 250 ms and 20 ms.
SPANS = """name,thread,t0_s,t1_s,bytes
comms.send.fft,rank-1,0.050000000,0.150000000,1024
visdata.read,rank-0,0.010000000,0.100000000,0
gridder.grid,rank-0,0.520000000,0.900000000,0
comms.reduce,rank-0,0.400000000,0.500000000,0
"""


@pytest.fixture
def trace_gaps():
    spec = importlib.util.spec_from_file_location("trace_gaps",
                                                  ROOT / "scripts" / "trace_gaps.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(trace_gaps, capsys, out, *argv):
    assert trace_gaps.main(["wl", "--out", str(out), *argv]) == 0
    return capsys.readouterr().out.splitlines()


@pytest.fixture
def out(tmp_path):
    (tmp_path / "wl").mkdir()
    (tmp_path / "wl" / "spans.csv").write_text(SPANS)
    return tmp_path


def test_gaps_end_at_the_last_span_without_a_layers_file(trace_gaps, capsys, out):
    lines = run(trace_gaps, capsys, out)
    assert lines[0] == ("wl: 4 spans over 0.900 s (end from the last span); "
                        "coverage 0.689, 280.0 ms uncovered")
    assert lines[1:] == [
        "   250.0 ms at   0.150 s  after comms.send.fft (rank-1)  before comms.reduce (rank-0)",
        "    20.0 ms at   0.500 s  after comms.reduce (rank-0)  before gridder.grid (rank-0)",
        "    10.0 ms at   0.000 s  after start of run  before visdata.read (rank-0)",
    ]


def test_layers_file_adds_the_gap_after_the_last_span(trace_gaps, capsys, out):
    samples = [{"label": "warmup", "seconds": 9.0}, {"label": "traced", "seconds": 1.2}]
    (out / "BENCH_wl.layers.json").write_text(json.dumps({"samples": samples}))
    lines = run(trace_gaps, capsys, out, "--top", "2")
    assert lines[0] == ("wl: 4 spans over 1.200 s (end from the traced run); "
                        "coverage 0.517, 580.0 ms uncovered")
    assert lines[1:] == [
        "   300.0 ms at   0.900 s  after gridder.grid (rank-0)  before end of run",
        "   250.0 ms at   0.150 s  after comms.send.fft (rank-1)  before comms.reduce (rank-0)",
    ]


def test_missing_spans_file_exits_2(trace_gaps, capsys, tmp_path):
    assert trace_gaps.main(["wl", "--out", str(tmp_path)]) == 2
    assert "run perfbench/run.py --trace 1 first" in capsys.readouterr().err
