#!/usr/bin/env python3
"""Regenerate the trace CSVs shipped under traces/.

These files are the declared inputs for the report tooling: published-scale
measurements are injected rather than re-measured, so the numbers below are
fixed by construction. Per-phase joules are distributed proportionally to
phase seconds (a constant-power assumption) wherever only the total energy
is known.

  table2_single_node.csv   single-node comparison of three configurations
                           (plain message-passing run, best hybrid, GPU)
  multinode.csv            strong-scaling CPU runs at four frequency levels
                           plus GPU runs, with the reduce fraction rising
                           toward 95-96% at the largest node count, medium
                           frequency saving 25% of the energy for a 4.5%
                           slowdown, low frequency saving 30% for 9%, and
                           the GPU rows 6.5x greener / 10-11x faster
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wstack.metrics import write_trace  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent.parent / "traces"

PHASE_SPLIT = {"read": 0.30, "gridding": 0.25, "fft": 0.25,
               "wcorrect": 0.10, "write": 0.10}


def phase_rows(label, nodes, level, total_s, total_j, reduce_fraction):
    """Expand one run into per-phase rows; the non-reduce remainder is
    split across the other phases with the fixed ratios above."""
    rows = []
    reduce_s = reduce_fraction * total_s
    remainder = total_s - reduce_s
    seconds = {"reduce": reduce_s}
    seconds.update({phase: remainder * frac for phase, frac in PHASE_SPLIT.items()})
    for phase, s in seconds.items():
        rows.append((label, nodes, level, phase, s, total_j * s / total_s))
    rows.append((label, nodes, level, "total", total_s, total_j))
    return rows


def table2_rows():
    # (label, total_s, total_j, gridding_s, reduce_s, fft_s, wcorrect_s)
    runs = [
        ("mpi", 95.9533, 60837.5, 0.6624, 84.3082, 1.1941, 0.4039),
        ("hybrid_best", 24.4133, 18332.5, 1.5677, 4.3494, 1.8458, 0.5201),
        ("gpu", 11.7309, 20232.5, 1.0925, 2.0065, 4.8540, 0.1112),
    ]
    rows = []
    for label, total_s, total_j, grid_s, red_s, fft_s, wcor_s in runs:
        for phase, s in (("gridding", grid_s), ("reduce", red_s),
                         ("fft", fft_s), ("wcorrect", wcor_s)):
            rows.append((label, 1, "default", phase, s, total_j * s / total_s))
        rows.append((label, 1, "default", "total", total_s, total_j))
    return rows


def multinode_rows():
    rows = []
    # CPU strong scaling: memory-bound, so runtime barely improves while
    # energy grows with the node count; the reduce fraction saturates.
    reduce_fraction = {2: 0.880, 4: 0.910, 8: 0.930, 16: 0.945, 32: 0.955}
    t_high = {2: 300.0, 4: 290.0, 8: 295.0, 16: 310.0, 32: 340.0}
    e_high = {2: 300000.0, 4: 585000.0, 8: 672750.0, 16: 1170000.0, 32: 2400000.0}
    time_mult = {"high": 1.0, "default": 1.03, "medium": 1.045, "low": 1.09}
    energy_mult = {"high": 1.0, "default": 1.01, "medium": 0.75, "low": 0.70}
    for nodes in sorted(t_high):
        for level in ("high", "default", "medium", "low"):
            rows += phase_rows("cpu", nodes, level,
                               t_high[nodes] * time_mult[level],
                               e_high[nodes] * energy_mult[level],
                               reduce_fraction[nodes])
    # GPU runs (OS-governed frequencies): about 6.5x greener and 10-11x
    # faster than the CPU runs at matching node counts; the reduce no
    # longer dominates.
    gpu = {4: (29.0, 90000.0), 8: (28.5, 103500.0), 16: (29.5, 180000.0)}
    for nodes, (total_s, total_j) in sorted(gpu.items()):
        rows += phase_rows("gpu", nodes, "default", total_s, total_j, 0.17)
    return rows


def main():
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    write_trace(OUT_DIR / "table2_single_node.csv", table2_rows())
    write_trace(OUT_DIR / "multinode.csv", multinode_rows())
    for name in ("table2_single_node.csv", "multinode.csv"):
        print(f"wrote {OUT_DIR / name}")


if __name__ == "__main__":
    main()
