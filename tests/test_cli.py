import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wstack
from wstack import visdata
from wstack.cli import EXIT_CHECK_FAILED, EXIT_IO, EXIT_OK, EXIT_USAGE, main


def test_module_entry_point_verify_passes():
    src = str(Path(wstack.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "wstack", "verify", "small"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stdout + proc.stderr
    assert "OK: 14/14 checks passed" in proc.stdout


def test_verify_failure_exits_1():
    assert main(["verify", "small", "--force-fail"]) == EXIT_CHECK_FAILED


def test_malformed_topology_exits_2(tmp_path):
    dataset = tmp_path / "d.rvis"
    dataset.write_bytes(b"")
    code = main(["image", "--dataset", str(dataset), "--topo", "2by2",
                 "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["image", "--dataset", "{tmp}/missing.rvis"],
    ["bench", "--dataset", "{tmp}/missing.rvis"],
    ["report", "gp", "--trace", "{tmp}/missing.csv"],
], ids=["image", "bench", "report"])
def test_missing_input_exits_3(tmp_path, argv):
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main(argv) == EXIT_IO


TRACE_HEADER = "label,n_nodes,freq_level,phase,seconds,joules\n"


@pytest.mark.parametrize("kind, body, message", [
    ("gp", "label,n_nodes,phase,seconds,joules\na,1,total,1.0,2.0\n", "lacks columns"),
    ("gp", TRACE_HEADER + "a,1,default,total,fast,2.0\n", ":2: bad trace row"),
    ("gp", TRACE_HEADER + "a,one,default,total,1.0,2.0\n", ":2: bad trace row"),
    ("gp", TRACE_HEADER + "a,1,default,total,1.0\n", ":2: bad trace row"),
    ("reduce_fraction", TRACE_HEADER + "a,1,default,reduce,1.0,1.0\n"
     "a,1,default,total,2.0,2.0\na,1,default,reduce,5.0,5.0\n",
     ":4: repeats the row of line 2"),
    ("gp", TRACE_HEADER + "a,1,default,total,nan,2.0\n", ":2: non-finite"),
    ("gp", TRACE_HEADER + "a,1,default,total,1.0,inf\n", ":2: non-finite"),
    ("gp", TRACE_HEADER + "a,1,default,total,-inf,2.0\n", ":2: non-finite"),
    ("gp", TRACE_HEADER, "no runs found"),
], ids=["missing-column", "bad-seconds", "bad-nodes", "short-row", "duplicate",
        "nan-seconds", "inf-joules", "minus-inf-seconds", "no-rows"])
def test_malformed_trace_exits_3(tmp_path, capsys, kind, body, message):
    trace = tmp_path / "trace.csv"
    trace.write_text(body)
    assert main(["report", kind, "--trace", str(trace)]) == EXIT_IO
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("line", ["topo.threads_per_rank = 2", "reduce.deterministic = false",
                                  "run.alpha = 1.0"])
def test_threads_and_deterministic_config_keys_exit_2(tmp_path, capsys, line):
    dataset = tmp_path / "d.rvis"
    dataset.write_bytes(b"")
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    code = main(["image", "--dataset", str(dataset), "--config", str(config),
                 "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["image", "--dataset", "d.rvis", "--threads", "2"],
    ["image", "--dataset", "d.rvis", "--deterministic"],
    ["bench", "--threads", "2"],
    ["bench", "--deterministic"],
], ids=["image-threads", "image-deterministic", "bench-threads", "bench-deterministic"])
def test_threads_and_deterministic_flags_exit_2(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_USAGE


@pytest.mark.parametrize("argv, message", [
    (["--shape-param", "nan"], "shape_param"),
    (["--kernel", "kaiser_bessel", "--shape-param", "nan"], "shape_param"),
    (["--kernel", "kaiser_bessel", "--shape-param", "800"], "overflows"),
    (["--cell", "nan"], "cell_size_lm"),
], ids=["gaussian-nan", "kaiser-bessel-nan", "kaiser-bessel-overflow", "cell-nan"])
def test_non_finite_image_parameters_exit_2(tmp_path, capsys, argv, message):
    header, chunk = visdata.generate_synthetic(
        visdata.SkyModel(sources=((0.0, 0.0, 1.0),)), 50, n_freq=1, seed=1)
    dataset = tmp_path / "d.rvis"
    visdata.write_dataset(chunk, header, dataset)
    code = main(["image", "--dataset", str(dataset), "--out-dir", str(tmp_path / "out"),
                 "--n-u", "16", "--n-v", "16", "--n-w", "2", *argv])
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["image", "bench"])
def test_malformed_dataset_exits_3(tmp_path, capsys, command):
    dataset = tmp_path / "d.rvis"
    dataset.write_bytes(b"RVIS")
    code = main([command, "--dataset", str(dataset), "--out-dir", str(tmp_path / "out"),
                 "--n-u", "16", "--n-v", "16", "--n-w", "2"])
    assert code == EXIT_IO
    assert "truncated header" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_shape_param_exits_2(tmp_path, capsys, source):
    header, chunk = visdata.generate_synthetic(
        visdata.SkyModel(sources=((0.0, 0.0, 1.0),)), 50, n_freq=1, seed=1)
    dataset = tmp_path / "d.rvis"
    visdata.write_dataset(chunk, header, dataset)
    argv = ["image", "--dataset", str(dataset), "--out-dir", str(tmp_path / "out"),
            "--n-u", "16", "--n-v", "16", "--n-w", "2", "--kernel", "kaiser_bessel"]
    if source == "flag":
        argv += ["--shape-param", "-5"]
    else:
        config = tmp_path / "run.cfg"
        config.write_text("kernel.shape_param = -5\n")
        argv += ["--config", str(config)]
    assert main(argv) == EXIT_USAGE
    assert "shape_param" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["image", "bench"])
# Header fields: n_records is a u64 at byte 8, w_min_native an f64 at 28.
@pytest.mark.parametrize("offset, fmt, value, message", [
    (8, "<Q", 0, "n_records"),
    (28, "<d", math.nan, "finite"),
], ids=["zero-records", "nan-w-extent"])
def test_invalid_header_value_exits_3(tmp_path, capsys, command, offset, fmt, value, message):
    header, chunk = visdata.generate_synthetic(
        visdata.SkyModel(sources=((0.0, 0.0, 1.0),)), 50, n_freq=1, seed=1)
    dataset = tmp_path / "d.rvis"
    visdata.write_dataset(chunk, header, dataset)
    raw = bytearray(dataset.read_bytes())
    struct.pack_into(fmt, raw, offset, value)
    dataset.write_bytes(bytes(raw))
    code = main([command, "--dataset", str(dataset), "--out-dir", str(tmp_path / "out"),
                 "--n-u", "16", "--n-v", "16", "--n-w", "2"])
    err = capsys.readouterr().err
    assert code == EXIT_IO, err
    assert "i/o error" in err and message in err


# Each half of the 50 records is sorted by time; the time index falls
# exactly at the 1x2 share boundary (record 25), which 2x4's eight ranks
# find inside the share of records 20-25.
@pytest.mark.parametrize("command, topo", [
    ("image", "1x2"), ("image", "2x4"), ("bench", "1x2"),
], ids=["image-1x2", "image-2x4", "bench-1x2"])
def test_records_out_of_time_order_exit_3(tmp_path, capsys, command, topo):
    header, chunk = visdata.generate_synthetic(
        visdata.SkyModel(sources=((0.0, 0.0, 1.0),)), 50, n_freq=1, seed=1,
        n_time_slices=4)
    dataset = tmp_path / "d.rvis"
    visdata.write_dataset(chunk.rows(np.r_[25:50, 0:25]), header, dataset)
    code = main([command, "--dataset", str(dataset), "--out-dir", str(tmp_path / "out"),
                 "--n-u", "16", "--n-v", "16", "--n-w", "2",
                 "--topo" if command == "image" else "--topos", topo])
    err = capsys.readouterr().err
    assert code == EXIT_IO, err
    assert "i/o error: records must be sorted by time_index" in err
