"""Benchmark of the ``wstack`` imaging pipeline, one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Set-up imports the program, writes the workload's seeded dataset and makes
one warm-up run. With ``--trace 0`` it is done ``SETUP_REPEATS`` times,
all but the last in a fresh interpreter of its own, and ``setup_s`` is the
median. The timed runs then call ``run_pipeline`` back to back, tracing
off, for at least S seconds and three runs. With ``--trace 1`` one more run
follows with the layer hooks of ``tracing.py`` installed; its spans give
the per-layer metrics and are written under ``perfbench/out/<workload>/``.
The traced run fails when a hook is missing or never called, or when its
spans cover too little of it.

``reference.json`` holds each workload's images for seeds 0-19. On those
seeds every image is checked to 1e-6 and can count as bit-identical; other
seeds are checked only against the seed-to-seed spread, with a warning.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. ``--workload all`` runs every workload, each in its own
process, and prints each workload's metrics. Each call also writes
``perfbench/out/BENCH_<workload>[.layers].json`` with every sample and a
record of the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 3


def machine_record() -> dict:
    """Commit, processor, caches, memory and library versions."""
    import numpy

    record = {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "caches": {},
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
            suffix = "" if kind == "Unified" else kind[0].lower()
            record["caches"][f"L{level}{suffix}"] = size
    except OSError:
        pass
    return record


def git_commit() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the program's sources, which names the code measured
    also in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def declared(key: str):
    """One entry of BENCHMARK.json, such as ``workloads`` or ``run_seconds``."""
    return json.loads(BENCHMARK.read_text())[key]


def open_session(args):
    """Import the program and open the workload's session; returns the
    import time and the session."""
    t0 = perf_counter()
    from perfbench import measure  # imports the program
    from perfbench.workloads import WORKLOADS
    import_s = perf_counter() - t0
    workload = WORKLOADS[args.workload]
    return import_s, measure.Session(workload, args.seed, OUT / workload.name)


def setup_only(args) -> int:
    """One set-up, for a parent invocation: prints its seconds."""
    import_s, session = open_session(args)
    try:
        setup_s = import_s + session.setup()
    finally:
        session.cleanup()
    if session.samples[-1].failure is not None:
        return 1
    print(json.dumps(setup_s))
    return 0


def setup_in_child(args) -> float:
    """One set-up in a fresh interpreter, import included: its seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload}: set-up in a child process failed with "
                           f"exit code {proc.returncode}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_one(args) -> dict:
    setups = [] if args.trace else [setup_in_child(args)
                                    for _ in range(SETUP_REPEATS - 1)]
    import_s, session = open_session(args)
    from perfbench import measure
    workload = session.workload
    if str(args.seed) not in session.reference["seeds"]:
        print(f"perfbench: reference.json has no images for seed {args.seed}; images are "
              "checked against the spread over its seeds only", file=sys.stderr)
    try:
        setups.append(import_s + session.setup())
        timed = session.timed_runs(args.seconds)
        values = measure.end_to_end(workload, timed, measure.median(setups))
        traces = {}
        if args.trace:
            tracer = measure.tracing.Tracer()
            traced, result = session.run("traced", tracer)
            if result is None:
                raise RuntimeError(f"{workload.name}: the traced run raised: {traced.failure}")
            values = measure.per_layer(tracer, traced, result, timed, session.samples)
            problems = measure.tracing.trace_problems(tracer, values["trace.coverage"],
                                                      workload.idle_hooks)
            if problems and traced.failure is None:
                traced.failure = "; ".join(problems)
                print(f"perfbench: {workload.name} traced run failed: {traced.failure}",
                      file=sys.stderr)
            traces = measure.write_traces(tracer, traced, session.samples, workload,
                                          session.out_dir)
    finally:
        session.cleanup()

    units = {m["name"]: m["unit"] for m in declared("per_layer" if args.trace else "end_to_end")}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match "
                           f"{BENCHMARK.name}")
    failed = sum(s.failure is not None for s in session.samples)
    summary = {
        "correct": failed == 0,
        "attempted": len(session.samples),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    image_times = [s.seconds for s in measure.completed(timed)]
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(), "setup_s": setups,
        "result": summary,
        "image_s_tail": measure.tail_percentile(image_times),
        "traces": {k: str(v.relative_to(ROOT)) for k, v in traces.items()},
        "samples": [{"label": s.label, "seconds": s.seconds, "cpu_s": s.cpu_s,
                     "peak_rss_mb": s.peak_rss_mb, "phases": s.phases,
                     "reduce_fraction": s.reduce_fraction, "counts": s.counts,
                     "failure": s.failure, "bit_identical": s.bit_identical}
                    for s in session.samples],
    }
    suffix = ".layers" if args.trace else ""
    (OUT / f"BENCH_{workload.name}{suffix}.json").write_text(json.dumps(record, indent=1) + "\n")
    tail = record["image_s_tail"]
    print(f"{workload.name}: {len(image_times)} timed runs"
          + (f", p{tail[0]} image_s {tail[1]:.4f} s" if tail else ""))
    return summary


def run_all(args) -> dict:
    """Every workload, each in a child process of its own so that its peak
    memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (w["name"] for w in declared("workloads")):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{name}: exit code {proc.returncode}")
        print("\n".join(line for line in lines[:-1] if not line.startswith("  ")))
        child = json.loads(lines[-1])
        combined["correct"] &= child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in child["metrics"].items()})
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the wstack imaging pipeline.")
    parser.add_argument("--workload", required=True, help="workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wstack" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'wstack'}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = declared("run_seconds")
    names = [w["name"] for w in declared("workloads")]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    OUT.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        return setup_only(args)
    summary = run_all(args) if args.workload == "all" else run_one(args)
    for name, metric in summary["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
