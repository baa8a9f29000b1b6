#!/usr/bin/env python3
"""List the longest stretches of a traced benchmark run that no span covers.

    python3 scripts/trace_gaps.py WORKLOAD [--top N] [--out DIR]

Reads ``DIR/WORKLOAD/spans.csv``, which ``perfbench/run.py --trace 1``
writes (``DIR`` defaults to ``perfbench/out``). Span times in that file
count from the start of the traced run. The run ends at the traced run's
wall seconds, taken from ``DIR/BENCH_WORKLOAD.layers.json`` when that file
is there, else at the last span's end (a gap after it is then not seen).

Prints the share of the run the spans cover (the benchmark's
``trace.coverage``), then the ``N`` longest gaps, longest first, each with
the span that ends last before it and the span that starts first after it.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_spans(path: Path) -> list[tuple[float, float, str]]:
    """``(t0, t1, "name (thread)")`` per span, sorted by start."""
    with open(path, newline="") as fh:
        spans = [(float(row["t0_s"]), float(row["t1_s"]), f"{row['name']} ({row['thread']})")
                 for row in csv.DictReader(fh)]
    return sorted(spans)


def traced_seconds(layers_path: Path) -> float | None:
    """Wall seconds of the traced run recorded in a ``.layers.json`` file."""
    if not layers_path.exists():
        return None
    samples = json.loads(layers_path.read_text()).get("samples", [])
    traced = [s["seconds"] for s in samples if s.get("label") == "traced"]
    return traced[-1] if traced else None


def gaps(spans, end: float) -> list[tuple[float, float, str, str]]:
    """Uncovered intervals of ``[0, end]`` as ``(start, length, span before,
    span after)``."""
    out = []
    covered, before = 0.0, "start of run"
    for t0, t1, label in spans:
        if t0 > covered:
            out.append((covered, t0 - covered, before, label))
        if t1 > covered:
            covered, before = t1, label
    if end > covered:
        out.append((covered, end - covered, before, "end of run"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", help="workload name, e.g. wide_mesh_1x2")
    parser.add_argument("--top", type=int, default=10, help="gaps to print (default 10)")
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "out",
                        help="benchmark output directory (default perfbench/out)")
    args = parser.parse_args(argv)

    spans_path = args.out / args.workload / "spans.csv"
    if not spans_path.exists():
        print(f"trace_gaps: no {spans_path}; run perfbench/run.py --trace 1 first",
              file=sys.stderr)
        return 2
    spans = read_spans(spans_path)
    last = max((t1 for _, t1, _ in spans), default=0.0)
    recorded = traced_seconds(args.out / f"BENCH_{args.workload}.layers.json")
    end = max(last, recorded or 0.0)
    found = gaps(spans, end)
    uncovered = sum(length for _, length, _, _ in found)
    source = "traced run" if recorded else "last span"
    print(f"{args.workload}: {len(spans)} spans over {end:.3f} s (end from the {source}); "
          f"coverage {1.0 - uncovered / end:.3f}, {uncovered * 1e3:.1f} ms uncovered"
          if end > 0 else f"{args.workload}: no spans")
    for start, length, before, after in sorted(found, key=lambda g: -g[1])[:args.top]:
        print(f"{length * 1e3:8.1f} ms at {start:7.3f} s  after {before}  before {after}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
