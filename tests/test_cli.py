import argparse
import csv
import hashlib
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wstack
from wstack import bench, cli, metrics, visdata
from wstack.cli import EXIT_CHECK_FAILED, EXIT_IO, EXIT_OK, EXIT_USAGE, main


def test_module_entry_point_verify_passes():
    src = str(Path(wstack.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "wstack", "verify", "small"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stdout + proc.stderr
    assert "OK: 15/15 checks passed" in proc.stdout


def test_module_entry_point_gen_image_report(tmp_path):
    src = str(Path(wstack.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    dataset, out = tmp_path / "d.rvis", tmp_path / "out"
    for argv in (["gen", "--out", str(dataset), "--records", "500"],
                 ["image", "--dataset", str(dataset), "--out-dir", str(out),
                  "--n-u", "32", "--n-v", "32", "--n-w", "2", "--topo", "1x2"],
                 ["report", "gp", "--trace", str(out / "trace.csv")]):
        proc = subprocess.run([sys.executable, "-m", "wstack", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, argv[0] + ": " + proc.stdout + proc.stderr


def test_verify_failure_exits_1(monkeypatch, capsys):
    failing = bench.VerifyReport([bench.CheckResult("a check", "never", "failed", False)])
    monkeypatch.setattr(bench, "verify_pipeline", lambda scale: failing)
    assert main(["verify", "small"]) == EXIT_CHECK_FAILED
    assert "FAILED: 0/1 checks passed" in capsys.readouterr().out


# Each subcommand's flags and the config key each sets (None: not a key).
FLAGS = {
    "gen": {"--out": None, "--records": "gen.records", "--sources": "gen.sources",
            "--seed": "run.seed", "--n-freq": "gen.n_freq", "--cell": "grid.cell_size_lm",
            "--w-min": "gen.w_min_native", "--w-max": "gen.w_max_native",
            "--config": None},
    "image": {"--dataset": None, "--out-dir": None, "--n-u": "grid.n_u",
              "--n-v": "grid.n_v", "--n-w": "grid.n_w", "--cell": "grid.cell_size_lm",
              "--kernel": "kernel.kind", "--half-support": "kernel.half_support",
              "--shape-param": "kernel.shape_param", "--topo": "topo.layout",
              "--strategy": "reduce.kind", "--label": "run.label", "--pgm": None,
              "--config": None},
    "bench": {"--dataset": None, "--records": "gen.records", "--sources": "gen.sources",
              "--seed": "run.seed", "--n-u": "grid.n_u", "--n-v": "grid.n_v",
              "--n-w": "grid.n_w", "--cell": "grid.cell_size_lm",
              "--topo": "topo.layout", "--strategy": "reduce.kind",
              "--repeats": "bench.repeats", "--out-dir": "bench.output_dir",
              "--config": None},
    "report": {"--trace": None, "--ref": None, "--label": None, "--freq": None,
               "--cpu-label": None, "--gpu-label": None, "--alpha": None, "--out": None},
    "verify": {},
}


def subparser(command):
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[command]


@pytest.mark.parametrize("command", FLAGS)
def test_each_flag_sets_its_config_key(command):
    parser = subparser(command)
    flags = {opt for action in parser._actions for opt in action.option_strings}
    assert flags - {"-h", "--help"} == set(FLAGS[command])
    required = {"gen": ["--out", "d.rvis"], "image": ["--dataset", "d.rvis"],
                "report": ["gp", "--trace", "t.csv"], "verify": ["small"]}.get(command, [])
    for flag, key in FLAGS[command].items():
        if key is None:
            continue
        setting = cli.CONFIG_SCHEMA[key]
        text = setting.choices[-1] if setting.choices else "7"
        args = parser.parse_args([*required, flag, text])
        cfg = cli._config(args)
        assert cfg[key] == setting.conv(text)
        changed = {k for k, v in cfg.items() if v != cli.CONFIG_SCHEMA[k].default}
        assert changed == {key}


def test_gen_image_and_bench_read_every_config_key(tmp_path, monkeypatch):
    """A key that no command reads, or a flag whose command ignores its
    key, fails here."""
    read = {}

    class Recording(dict):
        def __getitem__(self, key):
            read.setdefault(command, set()).add(key)
            return super().__getitem__(key)

    real = cli.resolve_config
    monkeypatch.setattr(cli, "resolve_config", lambda *a: Recording(real(*a)))
    dataset = tmp_path / "d.rvis"
    small = ["--n-u", "16", "--n-v", "16", "--n-w", "2"]
    for command, argv in (
            ("gen", ["--out", str(dataset), "--records", "100"]),
            ("image", ["--dataset", str(dataset), "--out-dir", str(tmp_path / "i"), *small]),
            ("bench", ["--records", "100", "--repeats", "1", "--out-dir",
                       str(tmp_path / "b"), *small])):
        assert main([command, *argv]) == EXIT_OK
        flag_keys = {a.dest for a in subparser(command)._actions
                     if a.dest in cli.CONFIG_SCHEMA}
        assert flag_keys <= read[command], command
    assert set().union(*read.values()) == set(cli.CONFIG_SCHEMA)
    # image and bench reject exactly the keys they never read.
    assert set(cli.CONFIG_SCHEMA) - read["image"] == set(cli.IMAGE_UNREAD_KEYS)
    assert set(cli.CONFIG_SCHEMA) - read["bench"] == set(cli.BENCH_UNREAD_KEYS)


def test_bench_without_a_dataset_writes_what_gen_writes(tmp_path):
    gen_args = ["--records", "300", "--sources", "0.01,0.0,1;0,0.02,0.5", "--seed", "9",
                "--cell", "0.002"]
    assert main(["gen", "--out", str(tmp_path / "gen.rvis"), *gen_args]) == EXIT_OK
    out = tmp_path / "bench"
    assert main(["bench", "--out-dir", str(out), "--n-u", "16", "--n-v", "16", "--n-w", "2",
                 "--repeats", "1", *gen_args]) == EXIT_OK
    assert (out / "dataset.rvis").read_bytes() == (tmp_path / "gen.rvis").read_bytes()


@pytest.mark.parametrize("flags, config, named", [
    (["--records", "5"], "", "gen.records (--records)"),
    (["--seed", "3", "--sources", "0,0,2"], "", "gen.sources (--sources), run.seed (--seed)"),
    ([], "gen.n_freq = 2", "gen.n_freq (--n-freq)"),
    ([], "run.seed = 1", "run.seed (--seed)"),
], ids=["records-flag", "seed-and-sources-flags", "n_freq-key", "seed-key"])
def test_bench_rejects_synthetic_settings_beside_a_dataset(tmp_path, capsys, flags, config,
                                                           named):
    # With --dataset the file is imaged as it is; run.seed = 1 is the
    # default, and is rejected all the same.
    dataset, out, cfg = tmp_path / "d.rvis", tmp_path / "b", tmp_path / "c.cfg"
    assert main(["gen", "--out", str(dataset), "--records", "50"]) == EXIT_OK
    cfg.write_text(config + "\n")
    capsys.readouterr()
    assert main(["bench", "--dataset", str(dataset), "--out-dir", str(out),
                 "--config", str(cfg), *flags]) == EXIT_USAGE
    assert f"so {named} would change nothing" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("run.label", "x")])
def test_bench_rejects_config_keys_it_never_reads(tmp_path, capsys, key, value):
    cfg, out = tmp_path / "c.cfg", tmp_path / "b"
    cfg.write_text(f"{key} = {value}\nrun.seed = 4\n")
    assert main(["bench", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_USAGE
    assert f"bench does not use {key};" in capsys.readouterr().err
    assert not out.exists()


def test_one_config_file_runs_under_image_and_bench(tmp_path):
    # The file image runs is bench's one-cell sweep, with the same image.
    dataset, cfg = tmp_path / "d.rvis", tmp_path / "run.cfg"
    assert main(["gen", "--out", str(dataset), "--records", "500"]) == EXIT_OK
    cfg.write_text("topo.layout = 1x2\nreduce.kind = hybrid_ring\n"
                   "grid.n_u = 32\ngrid.n_v = 32\ngrid.n_w = 2\n")
    assert main(["image", "--dataset", str(dataset), "--config", str(cfg),
                 "--out-dir", str(tmp_path / "i")]) == EXIT_OK
    image_sha = hashlib.sha256((tmp_path / "i" / "image.f64").read_bytes()).hexdigest()
    assert main(["bench", "--dataset", str(dataset), "--config", str(cfg), "--repeats", "1",
                 "--out-dir", str(tmp_path / "b")]) == EXIT_OK
    with open(tmp_path / "b" / "runs_raw.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["label"], row["status"]) == ("1x2_hybrid_ring", "ok")
    assert row["image_sha256"] == image_sha


def test_bench_sweeps_the_listed_topologies_and_strategies(tmp_path):
    out = tmp_path / "b"
    assert main(["bench", "--records", "200", "--n-u", "16", "--n-v", "16", "--n-w", "2",
                 "--topo", "1x1,1x2", "--strategy", "direct,hybrid_ring", "--repeats", "1",
                 "--out-dir", str(out)]) == EXIT_OK
    with open(out / "runs_raw.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["label"] for row in rows] == [
        "1x1_direct", "1x1_hybrid_ring", "1x2_direct", "1x2_hybrid_ring"]
    assert len({row["image_sha256"] for row in rows}) == 1


KNOWN_KINDS = "reduce kind must be one of ('direct', 'hybrid_ring')"


@pytest.mark.parametrize("command, flags, config, message", [
    ("image", ["--topo", "1x1,1x2"], "", "image runs one topology and one reduce strategy"),
    ("image", ["--strategy", "direct,hybrid_ring"], "",
     "image runs one topology and one reduce strategy"),
    ("image", ["--strategy", "ring"], "", KNOWN_KINDS),
    ("image", ["--strategy", "ring_rdma_like"], "", KNOWN_KINDS),
    ("bench", ["--strategy", "direct,ring_rdma_like"], "", KNOWN_KINDS),
    ("image", [], "reduce.kind = ring_rdma_like\n", KNOWN_KINDS),
], ids=["two-topologies", "two-strategies", "unknown-strategy", "removed-strategy",
        "bench-removed-strategy", "config-removed-strategy"])
def test_image_takes_one_topology_and_one_known_strategy(tmp_path, capsys, command, flags,
                                                         config, message):
    dataset, out, cfg = tmp_path / "d.rvis", tmp_path / "i", tmp_path / "c.cfg"
    assert main(["gen", "--out", str(dataset), "--records", "50"]) == EXIT_OK
    if config:
        cfg.write_text(config)
        flags = [*flags, "--config", str(cfg)]
    assert main([command, "--dataset", str(dataset), "--out-dir", str(out),
                 *flags]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("run.seed", "4"), ("gen.records", "5"),
                                        ("bench.repeats", "2")])
def test_image_rejects_config_keys_it_never_reads(tmp_path, capsys, key, value):
    dataset, cfg, out = tmp_path / "d.rvis", tmp_path / "c.cfg", tmp_path / "i"
    assert main(["gen", "--out", str(dataset), "--records", "50"]) == EXIT_OK
    cfg.write_text(f"{key} = {value}\ngrid.n_u = 16\n")
    capsys.readouterr()
    assert main(["image", "--dataset", str(dataset), "--config", str(cfg),
                 "--out-dir", str(out)]) == EXIT_USAGE
    assert f"image does not use {key}\n" in capsys.readouterr().err
    assert not out.exists()


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
    ("reduce_fraction", TRACE_HEADER + "a,1,default,reduce,-5.0,1.0\n"
     "a,1,default,total,10.0,2.0\n", ":2: negative seconds or joules"),
    ("gp", TRACE_HEADER + "a,1,default,reduce,1.0,1.0\na,1,default,total,2.0,-2.0\n",
     ":3: negative seconds or joules"),
    ("gp", TRACE_HEADER + "a,1,default,total,1.0,2.0\na,1,turbo,total,1.0,2.0\n",
     ":3: unknown freq_level 'turbo'"),
    ("gp", TRACE_HEADER + "a,0,default,total,1.0,2.0\n", ":2: n_nodes must be >= 1"),
    ("gp", TRACE_HEADER + "a,1,default,total,1.0,2.0\nb,2,high,reduce,1.0,2.0\n",
     "run (b, 2, high): phase_times must include 'total'"),
    ("reduce_fraction", TRACE_HEADER + "a,1,default,reduce,3.0,1.0\n"
     "a,1,default,total,2.0,2.0\n", "run (a, 1, default): total time smaller"),
], ids=["missing-column", "bad-seconds", "bad-nodes", "short-row", "duplicate",
        "nan-seconds", "inf-joules", "minus-inf-seconds", "no-rows", "negative-seconds",
        "negative-joules", "unknown-freq-level", "zero-nodes", "no-total",
        "total-below-phases"])
def test_malformed_trace_exits_3(tmp_path, capsys, kind, body, message):
    trace = tmp_path / "trace.csv"
    trace.write_text(body)
    assert main(["report", kind, "--trace", str(trace)]) == EXIT_IO
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind, body, run", [
    ("gp", TRACE_HEADER + "a,1,default,total,1.0,2.0\nb,1,default,total,0.0,2.0\n",
     "('b', 1 nodes, default)"),
    ("gp", TRACE_HEADER + "a,1,default,total,1.0,0.0\nb,1,default,total,1.0,2.0\n",
     "('a', 1 nodes, default)"),
    ("ratios", TRACE_HEADER + "cpu,2,high,total,10.0,60.0\ngpu,2,default,total,1.0,0.0\n",
     "('gpu', 2 nodes, default)"),
    ("freq", TRACE_HEADER + "a,2,high,total,1.0,0.0\na,2,low,total,2.0,1.0\n",
     "('a', 2 nodes, high)"),
    ("reduce_fraction", TRACE_HEADER + "a,1,default,reduce,0.0,0.0\n"
     "a,1,default,total,0.0,0.0\n", "'a'"),
], ids=["gp-zero-seconds", "gp-zero-joules-ref", "ratios-zero-gpu-joules",
        "freq-zero-high-joules", "reduce-fraction-zero-seconds"])
def test_report_over_a_zero_total_exits_2(tmp_path, capsys, kind, body, run):
    trace = tmp_path / "trace.csv"
    trace.write_text(body)
    assert main(["report", kind, "--trace", str(trace)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: run {run} has total" in err and "must be positive" in err


def test_reduce_fraction_reads_a_trace_with_zero_joules(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text(TRACE_HEADER + "a,1,default,reduce,0.5,0.0\na,1,default,total,2.0,0.0\n")
    assert main(["report", "reduce_fraction", "--trace", str(trace)]) == EXIT_OK
    assert "0.2500" in capsys.readouterr().out


def live_trace(tmp_path, topo, label, *argv):
    """Image a small dataset with ``wstack image`` and return its
    ``trace.csv`` rows, keyed by phase."""
    dataset = tmp_path / "live.rvis"
    if not dataset.exists():
        header, chunk = visdata.generate_synthetic(
            visdata.SkyModel(sources=((0.0, 0.0, 1.0),)), 20_000, n_freq=1, seed=3)
        visdata.write_dataset(chunk, header, dataset)
    out = tmp_path / label
    assert main(["image", "--dataset", str(dataset), "--out-dir", str(out), "--topo", topo,
                 "--n-u", "128", "--n-v", "128", "--n-w", "4", "--label", label,
                 *argv]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == [
        "image.f64", "image.json", "messages.csv", "trace.csv"]
    with open(out / "trace.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == metrics.TRACE_COLUMNS
        return {row["phase"]: row for row in reader}


def test_image_writes_a_trace_that_report_reads(tmp_path, capsys):
    rows = live_trace(tmp_path, "1x2", "live")
    assert list(rows) == [*metrics.PHASES, "total"]
    assert {(r["label"], r["n_nodes"], r["freq_level"]) for r in rows.values()} == {
        ("live", "1", "default")}
    assert float(rows["total"]["joules"]) > 0
    capsys.readouterr()
    out = tmp_path / "gp.csv"
    assert main(["report", "gp", "--trace", str(tmp_path / "live" / "trace.csv"),
                 "--out", str(out)]) == EXIT_OK
    with open(out, newline="") as fh:
        (gp,) = csv.DictReader(fh)
    assert float(gp["green_productivity"]) == 1.0
    assert main(["report", "reduce_fraction",
                 "--trace", str(tmp_path / "live" / "trace.csv")]) == EXIT_OK


def test_gp_of_two_live_runs_from_one_trace(tmp_path):
    live_trace(tmp_path, "1x1", "one")
    live_trace(tmp_path, "1x2", "two")
    lines = (tmp_path / "one" / "trace.csv").read_text().splitlines(keepends=True)
    lines += (tmp_path / "two" / "trace.csv").read_text().splitlines(keepends=True)[1:]
    both = tmp_path / "both.csv"
    both.write_text("".join(lines))
    out = tmp_path / "gp.csv"
    assert main(["report", "gp", "--trace", str(both), "--ref", "one",
                 "--out", str(out)]) == EXIT_OK
    with open(out, newline="") as fh:
        gp = {row["label"]: row for row in csv.DictReader(fh)}
    assert sorted(gp) == ["one", "two"]
    two = gp["two"]
    assert float(two["green_productivity"]) == pytest.approx(
        float(two["speedup"]) * float(two["energy_ratio"]), rel=1e-6)
    assert float(two["green_productivity"]) > 0


def test_counter_command_total_replaces_the_cpu_total(tmp_path):
    # Each call prints the counter and then advances it by 7 joules.
    script = tmp_path / "counter.py"
    script.write_text("import pathlib, sys\n"
                      "p = pathlib.Path(sys.argv[1])\n"
                      "v = float(p.read_text()) if p.exists() else 100.0\n"
                      "p.write_text(str(v + 7.0))\n"
                      "print(v)\n")
    config = tmp_path / "run.cfg"
    config.write_text(f"meter.counter_command = {sys.executable} {script} "
                      f"{tmp_path / 'state'}\n")
    rows = live_trace(tmp_path, "1x2", "counted", "--config", str(config))
    assert float(rows["total"]["joules"]) == 7.0
    phases = sum(float(rows[p]["joules"]) for p in metrics.PHASES)
    assert 0 < phases != 7.0


@pytest.mark.parametrize("line", [
    "topo.threads_per_rank = 2", "reduce.deterministic = false", "run.alpha = 1.0",
    "meter.kind = synthetic_model", "meter.trace_path = t.csv", "meter.trace_label = a",
    "meter.watts_high = 500", "meter.watts_default = 500", "meter.watts_medium = 375",
    "meter.watts_low = 350", "run.freq_level = high", "bench.freq_levels = high,low",
    "topo.n_nodes = 2", "topo.ranks_per_node = 2", "bench.topologies = 1x1",
    "bench.strategies = direct", "gen.n_corr = 2", "gen.n_time_slices = 4",
])
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
    ["image", "--dataset", "d.rvis", "--freq", "high"],
    ["image", "--dataset", "d.rvis", "--meter", "synthetic_model"],
    ["image", "--dataset", "d.rvis", "--trace", "t.csv"],
    ["image", "--dataset", "d.rvis", "--trace-label", "a"],
    ["bench", "--freqs", "high,low"],
    ["bench", "--meter", "synthetic_model"],
    ["gen", "--out", "d.rvis", "--n-corr", "2"],
    ["gen", "--out", "d.rvis", "--time-slices", "4"],
    ["bench", "--topos", "1x1"],
    ["bench", "--strategies", "direct"],
], ids=["image-threads", "image-deterministic", "bench-threads", "bench-deterministic",
        "image-freq", "image-meter", "image-trace", "image-trace-label", "bench-freqs",
        "bench-meter", "gen-n-corr", "gen-time-slices", "bench-topos", "bench-strategies"])
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
                 "--topo", topo])
    err = capsys.readouterr().err
    assert code == EXIT_IO, err
    assert "i/o error: records must be sorted by time_index" in err
