"""Command-line entry point: gen, image, bench, report, verify.

Every setting is a key of :data:`CONFIG_SCHEMA`, declared once with its
type, default, help and, where it has one, its command-line flag;
:data:`COMMAND_KEYS` lists the keys each of ``gen``, ``image`` and
``bench`` takes as flags, and the parser is built from those two tables,
so ``wstack <command> --help`` shows each flag's key and default. A value
comes from the default, then the ``--config`` file (a flat key-value
file, one ``key = value`` per line, ``#`` comments, unknown keys
rejected), then the flag. ``gen`` and ``bench`` without ``--dataset``
write the same synthetic dataset from the ``gen.*`` keys.

The two choices a run is compared by are one key each: ``topo.layout``
(``--topo``), the virtual ``NODESxRANKS`` topology, and ``reduce.kind``
(``--strategy``), the reduce strategy. Both take a comma list: ``image``
runs exactly one value of each, and ``bench`` sweeps every pair, one
cell labelled ``<topo>_<kind>`` each. So a config file written for
``image`` runs under ``bench`` as a one-cell sweep. ``image`` and
``bench`` reject a setting they would ignore: ``image`` a ``gen.*``,
``run.seed`` or ``bench.*`` value, and ``bench`` ``run.label``, or a
``gen.*`` or ``run.seed`` value beside ``--dataset``. Exit codes: 0
success, 1 verification or acceptance failure, 2 usage/config error, 3
I/O error (a missing or malformed input file).

The topology is the only parallelism: each rank grids its sector on one
thread. The image is bit-identical for any topology and reduce strategy
because each sector is reduced with zero partials from every rank but its
owner, so both strategies deliver the owner's slab exactly; they differ
only in their messages until the ranks reduce real partials.

Every run meters itself: each phase's joules are its process CPU-seconds
times ``metrics.WATTS_PER_CORE``. Setting ``meter.counter_file`` or
``meter.counter_command`` reads an external energy counter around each
run, and its reading replaces the total joules. ``image --out-dir D``
writes the run's phases to ``D/trace.csv``, the trace format that
``report`` reads, so ``report gp --trace D/trace.csv`` works on live runs
as on the shipped ``traces/*.csv``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import NamedTuple

from . import bench, metrics, visdata
from .comms import REDUCE_KINDS, ReduceStrategy, Topology
from .gridder import KERNEL_KINDS, DEFAULT_KB_BETA_PER_SUPPORT, KernelSpec
from .metrics import FREQ_LEVELS, PlatformCounterMeter
from .pipeline import peak_pixel, run_pipeline

__all__ = ["CONFIG_SCHEMA", "COMMAND_KEYS", "ConfigError", "load_config_file",
           "resolve_config", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


class ConfigError(Exception):
    pass


class Setting(NamedTuple):
    """One configuration key: its type, default, help, and the flag that
    sets it (None: config file only)."""

    conv: type
    default: object
    help: str
    flag: str | None = None
    choices: tuple | None = None


CONFIG_SCHEMA = {
    "grid.n_u": Setting(int, 256, "mesh cells along u", "--n-u"),
    "grid.n_v": Setting(int, 256, "mesh cells along v", "--n-v"),
    "grid.n_w": Setting(int, 8, "number of w planes", "--n-w"),
    "grid.cell_size_lm": Setting(float, 1e-3, "image pixel size in direction cosines",
                                 "--cell"),
    "kernel.kind": Setting(str, "gaussian", "gridding kernel", "--kernel",
                           KERNEL_KINDS),
    "kernel.half_support": Setting(int, 3, "kernel half support in cells",
                                   "--half-support"),
    "kernel.shape_param": Setting(float, 0.0, "sigma (gaussian) or beta (kaiser_bessel); "
                                  "0 = default", "--shape-param"),
    "topo.layout": Setting(str, "1x1", "virtual NODESxRANKS topology, one gridding thread "
                           "per rank; bench sweeps a comma list, e.g. 1x1,2x2", "--topo"),
    "reduce.kind": Setting(str, "direct", f"reduce strategy, one of {', '.join(REDUCE_KINDS)}; "
                           "bench sweeps a comma list", "--strategy"),
    "meter.counter_file": Setting(str, "", "energy counter file holding joules; if set, its "
                                  "change over a run replaces the CPU-seconds total"),
    "meter.counter_command": Setting(str, "", "command printing an energy counter in joules "
                                     "(run without a shell); used like meter.counter_file"),
    "bench.repeats": Setting(int, 4, "repeats per configuration", "--repeats"),
    "bench.output_dir": Setting(str, "bench_out", "bench output directory", "--out-dir"),
    "run.seed": Setting(int, 1, "random seed", "--seed"),
    "run.label": Setting(str, "run", "label attached to run records", "--label"),
    "gen.records": Setting(int, 1000, "synthetic record count", "--records"),
    "gen.n_freq": Setting(int, 1, "frequency channels", "--n-freq"),
    "gen.sources": Setting(str, "0,0,1", "sky sources as l,m,flux;l,m,flux;...", "--sources"),
    "gen.w_min_native": Setting(float, 0.0, "native w lower bound", "--w-min"),
    "gen.w_max_native": Setting(float, 0.0, "native w upper bound", "--w-max"),
}

# The keys each command takes as flags, in --help order.
COMMAND_KEYS = {
    "gen": ("gen.records", "gen.sources", "run.seed", "gen.n_freq", "grid.cell_size_lm",
            "gen.w_min_native", "gen.w_max_native"),
    "image": ("grid.n_u", "grid.n_v", "grid.n_w", "grid.cell_size_lm", "kernel.kind",
              "kernel.half_support", "kernel.shape_param", "topo.layout", "reduce.kind",
              "run.label"),
    "bench": ("gen.records", "gen.sources", "run.seed", "grid.n_u", "grid.n_v", "grid.n_w",
              "grid.cell_size_lm", "topo.layout", "reduce.kind", "bench.repeats",
              "bench.output_dir"),
}

# The key ``bench`` never reads (it labels each run by its cell), and the
# keys of the synthetic dataset, which it ignores given ``--dataset``.
BENCH_UNREAD_KEYS = ("run.label",)
SYNTHETIC_KEYS = tuple(key for key in CONFIG_SCHEMA if key.startswith("gen.")) + ("run.seed",)
# Keys ``image`` never reads: the synthetic dataset's and the sweep's.
IMAGE_UNREAD_KEYS = SYNTHETIC_KEYS + tuple(key for key in CONFIG_SCHEMA
                                           if key.startswith("bench."))


def config_help() -> str:
    lines = ["configuration keys (file: one 'key = value' per line, # comments):"]
    for key, setting in CONFIG_SCHEMA.items():
        one_of = f", one of {setting.choices}" if setting.choices else ""
        lines.append(f"  {key:<24} {setting.help}{one_of} (default: {setting.default})")
    return "\n".join(lines)


def load_config_file(path) -> dict:
    """Parse a flat config file into typed values; unknown keys are errors."""
    out = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = CONFIG_SCHEMA[key].conv(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return out


def resolve_config(config_path=None, overrides: dict | None = None) -> dict:
    """Defaults, then the config file, then explicit overrides."""
    cfg = {key: setting.default for key, setting in CONFIG_SCHEMA.items()}
    if config_path:
        cfg.update(load_config_file(config_path))
    for key, value in (overrides or {}).items():
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        if value is not None:
            cfg[key] = CONFIG_SCHEMA[key].conv(value)
    return cfg


def _config(args) -> dict:
    """The command's configuration: its flags are stored under their keys."""
    return resolve_config(args.config, {key: value for key, value in vars(args).items()
                                        if key in CONFIG_SCHEMA})


def _given_keys(args) -> set:
    """The config keys that a flag or the ``--config`` file sets."""
    given = {key for key, value in vars(args).items()
             if key in CONFIG_SCHEMA and value is not None}
    if args.config:
        given.update(load_config_file(args.config))
    return given


def _parse_topology(text) -> Topology:
    try:
        nodes, ranks = text.lower().split("x")
        return Topology(int(nodes), int(ranks))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad topology {text!r}, expected NODESxRANKS") from exc


def _sweep(cfg) -> tuple[list, list]:
    """The topologies of ``topo.layout`` and the strategies of
    ``reduce.kind``, each a comma list, in the order given."""
    def items(key):
        return [item.strip() for item in cfg[key].split(",") if item.strip()]
    return ([_parse_topology(t) for t in items("topo.layout")],
            [ReduceStrategy(kind) for kind in items("reduce.kind")])


def _kernel_from(cfg) -> KernelSpec:
    kind = cfg["kernel.kind"]
    support = cfg["kernel.half_support"]
    shape = cfg["kernel.shape_param"]
    if shape == 0:
        shape = 1.0 if kind == "gaussian" else DEFAULT_KB_BETA_PER_SUPPORT * support
    return KernelSpec(kind=kind, half_support=support, shape_param=shape)


def _counter_from(cfg) -> PlatformCounterMeter | None:
    """The energy counter named by ``meter.counter_file`` or
    ``meter.counter_command``; None when neither is set."""
    counter_file, counter_command = cfg["meter.counter_file"], cfg["meter.counter_command"]
    if not counter_file and not counter_command:
        return None
    return PlatformCounterMeter(counter_file=counter_file or None,
                                counter_command=counter_command or None)


def _write_synthetic(cfg, path) -> visdata.DatasetHeader:
    """Write the seeded synthetic dataset that the ``gen.*`` keys,
    ``run.seed`` and ``grid.cell_size_lm`` describe to ``path``."""
    if cfg["gen.records"] < 1:
        raise ConfigError("gen.records must be >= 1")
    header, chunk = visdata.generate_synthetic(
        visdata.SkyModel.parse(cfg["gen.sources"]), cfg["gen.records"], cfg["gen.n_freq"],
        cfg["run.seed"], cell_size_lm=cfg["grid.cell_size_lm"],
        w_min_native=cfg["gen.w_min_native"], w_max_native=cfg["gen.w_max_native"])
    visdata.write_dataset(chunk, header, path)
    return header


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    header = _write_synthetic(_config(args), args.out)
    print(f"wrote {header.n_records} records ({header.n_freq} freq) to {args.out}")
    return EXIT_OK


def cmd_image(args) -> int:
    unread = [key for key in IMAGE_UNREAD_KEYS if key in _given_keys(args)]
    if unread:
        raise ConfigError(f"image does not use {', '.join(unread)}")
    cfg = _config(args)
    dataset = Path(args.dataset)
    if not dataset.exists():
        print(f"dataset not found: {dataset}", file=sys.stderr)
        return EXIT_IO
    topologies, strategies = _sweep(cfg)
    if len(topologies) != 1 or len(strategies) != 1:
        raise ConfigError("image runs one topology and one reduce strategy; "
                          "bench sweeps comma lists")
    (topo,), (strategy,) = topologies, strategies
    res = run_pipeline(
        dataset, cfg["grid.n_u"], cfg["grid.n_v"], cfg["grid.n_w"],
        cfg["grid.cell_size_lm"], kernel=_kernel_from(cfg), topo=topo,
        strategy=strategy, label=cfg["run.label"], out_dir=args.out_dir, pgm=args.pgm,
        counter=_counter_from(cfg))
    i, j = peak_pixel(res.image)
    print(f"image written to {args.out_dir} (sha256 {res.image_sha256[:16]}...)")
    print(f"peak pixel: ({i}, {j}); "
          f"imag residual {res.image.imag_residual_norm:.3e} "
          f"vs real norm {res.image.real_norm:.3e}")
    rows = metrics.trace_rows(res.run)
    print(metrics.render_table(metrics.TRACE_COLUMNS, rows))
    if args.out_dir:
        out = Path(args.out_dir) / "trace.csv"
        metrics.write_trace(out, rows)
        print(f"trace written to {out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    given = _given_keys(args)
    unread = [key for key in BENCH_UNREAD_KEYS if key in given]
    if unread:
        raise ConfigError(f"bench does not use {', '.join(unread)}; "
                          "it labels each run <topo>_<kind>/r<repeat>")
    synthetic = [f"{key} ({CONFIG_SCHEMA[key].flag})" for key in SYNTHETIC_KEYS if key in given]
    if args.dataset and synthetic:
        raise ConfigError(f"bench images --dataset as it is, so {', '.join(synthetic)} "
                          "would change nothing")
    cfg = _config(args)
    topologies, strategies = _sweep(cfg)
    output_dir = Path(cfg["bench.output_dir"])
    dataset = Path(args.dataset) if args.dataset else output_dir / "dataset.rvis"
    if args.dataset and not dataset.exists():
        print(f"dataset not found: {dataset}", file=sys.stderr)
        return EXIT_IO
    plan = bench.BenchPlan(
        n_u=cfg["grid.n_u"], n_v=cfg["grid.n_v"], n_w=cfg["grid.n_w"],
        cell_size_lm=cfg["grid.cell_size_lm"], kernel=_kernel_from(cfg),
        topologies=topologies, strategies=strategies, dataset=dataset,
        repeats=cfg["bench.repeats"], counter=_counter_from(cfg), output_dir=output_dir)
    if not args.dataset:
        output_dir.mkdir(parents=True, exist_ok=True)
        _write_synthetic(cfg, dataset)
    result = bench.run_plan(plan)
    print(f"raw runs: {result.raw_path}")
    print(f"aggregates: {result.aggregate_path}")
    shown = ["label", "status", "n_ok", "total_s_mean", "total_s_std",
             "image_hashes_identical"]
    idx = [result.aggregate_header.index(c) for c in shown]
    print(metrics.render_table(shown, [[row[i] for i in idx]
                                       for row in result.aggregate_rows]))
    return EXIT_OK if result.all_ok else EXIT_CHECK_FAILED


REPORT_KINDS = ("gp", "reduce_fraction", "freq", "ratios", "scaling_gp")


def cmd_report(args) -> int:
    alpha = args.alpha
    runs = metrics.load_trace_records(args.trace)
    if args.kind == "gp":
        ref_label = args.ref or runs[0].label
        candidates = [r for r in runs if r.label == ref_label]
        if not candidates:
            raise ConfigError(f"reference label {ref_label!r} not in trace")
        ref = candidates[0]
        header = ["label", "n_nodes", "freq_level", "total_s", "total_j",
                  "speedup", "energy_ratio", "green_productivity"]
        rows = []
        for r in runs:
            gp = metrics.green_productivity(ref, r, alpha)  # rejects zero totals
            rows.append((r.label, r.n_nodes, r.freq_level, r.total_seconds, r.total_joules,
                         ref.total_seconds / r.total_seconds,
                         ref.total_joules / r.total_joules, gp))
    elif args.kind == "reduce_fraction":
        header = ["label", "n_nodes", "freq_level", "reduce_s", "total_s",
                  "reduce_fraction"]
        rows = [(r.label, r.n_nodes, r.freq_level, r.phase_times.get("reduce", 0.0),
                 r.total_seconds, metrics.reduce_fraction(r))
                for r in runs if "reduce" in r.phase_times]
        if not rows:
            raise ConfigError("no runs with a reduce phase in the trace")
    elif args.kind == "freq":
        groups: dict = {}
        for r in runs:
            groups.setdefault((r.label, r.n_nodes), {})[r.freq_level] = r
        header = ["label", "n_nodes", "freq_level", "energy_saving",
                  "perf_degradation"]
        rows = []
        for (label, nodes), by_level in sorted(groups.items()):
            if "high" not in by_level:
                continue  # nothing to compare against for this group
            base = by_level["high"]
            for level in FREQ_LEVELS:
                if level == "high" or level not in by_level:
                    continue
                other = by_level[level]
                rows.append((label, nodes, level,
                             metrics.energy_saving(base, other),
                             metrics.perf_degradation(base, other)))
        if not rows:
            raise ConfigError("no label group carries a high-frequency baseline")
    elif args.kind == "ratios":
        cpu = [r for r in runs if r.label == args.cpu_label]
        gpu = [r for r in runs if r.label == args.gpu_label]
        if not cpu or not gpu:
            raise ConfigError(
                f"labels {args.cpu_label!r}/{args.gpu_label!r} not both present")
        shared = {r.n_nodes for r in cpu} & {r.n_nodes for r in gpu}
        if not shared:
            raise ConfigError("no common node counts between the two label sets")
        ratio_rows = metrics.ratio_report(
            [r for r in cpu if r.n_nodes in shared],
            [r for r in gpu if r.n_nodes in shared])
        header = ["n_nodes", "cpu_freq_level", "energy_ratio_cpu_over_gpu",
                  "time_ratio_cpu_over_gpu"]
        rows = ratio_rows
    else:  # scaling_gp
        sel = [r for r in runs
               if (args.label is None or r.label == args.label)
               and r.freq_level == args.freq]
        if not sel:
            raise ConfigError("no runs match the label/freq selection")
        header = ["label", "n_nodes", "green_productivity"]
        rows = metrics.scaling_gp_report(sel, alpha)

    print(metrics.render_table(header, rows))
    if args.out:
        metrics.write_report_csv(args.out, header, rows)
        print(f"report written to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    report = bench.verify_pipeline(scale=args.scale)
    print(report.render())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------

def _add_config_flags(parser, command, func):
    """Add the flags of ``COMMAND_KEYS[command]``, each stored under its
    key, and ``--config``."""
    for key in COMMAND_KEYS[command]:
        setting = CONFIG_SCHEMA[key]
        parser.add_argument(
            setting.flag, dest=key, type=setting.conv, choices=setting.choices,
            metavar=None if setting.choices else setting.flag[2:].replace("-", "_").upper(),
            help=f"{setting.help} ({key}, default: {setting.default})")
    parser.add_argument("--config", help="config file; its values override the defaults "
                                         "and flags override it")
    parser.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wstack",
        description="w-stacking imaging pipeline with message accounting "
                    "and energy/productivity reports",
        epilog=config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("--out", required=True, help="output dataset path")
    _add_config_flags(gen, "gen", cmd_gen)

    image = sub.add_parser("image", help="run the imaging pipeline")
    image.add_argument("--dataset", required=True)
    image.add_argument("--out-dir", default="image_out")
    image.add_argument("--pgm", action="store_true", help="also write a PGM preview")
    _add_config_flags(image, "image", cmd_image)

    bench_p = sub.add_parser("bench", help="run a benchmark sweep")
    bench_p.add_argument("--dataset", help="dataset path (default: synthesize "
                                           "<out-dir>/dataset.rvis as gen does)")
    _add_config_flags(bench_p, "bench", cmd_bench)

    report = sub.add_parser("report", help="compute a report from trace CSVs")
    report.add_argument("kind", choices=REPORT_KINDS)
    report.add_argument("--trace", required=True, help="trace CSV path")
    report.add_argument("--ref", help="reference label (gp)")
    report.add_argument("--label", help="label filter (scaling_gp)")
    report.add_argument("--freq", default="default",
                        help="frequency level filter (scaling_gp)")
    report.add_argument("--cpu-label", dest="cpu_label", default="cpu")
    report.add_argument("--gpu-label", dest="gpu_label", default="gpu")
    report.add_argument("--alpha", type=float, default=1.0)
    report.add_argument("--out", help="also write the report CSV here")
    report.set_defaults(func=cmd_report)

    verify = sub.add_parser("verify", help="run the self-verification suite")
    verify.add_argument("scale", choices=("small", "medium"))
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except visdata.FormatError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, metrics.MeterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
