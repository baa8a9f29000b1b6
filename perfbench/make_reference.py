"""Write ``reference.json``: the image figures of each workload, per seed.

Run from the root of the repository, at the commit whose images are the
reference (the figures committed were made by the unmodified seed code):

    python3 perfbench/make_reference.py

Each workload is imaged once per seed of ``SEEDS``. ``any_seed`` holds the
median of each figure over those seeds and, per figure, a relative
tolerance of ``SPREAD_FACTOR`` times the largest deviation from that median
among them.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.imagecheck import FIGURES, REFERENCE_PATH, image_stats  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPREAD_FACTOR = 4.0
SEEDS = range(20)


def any_seed(per_seed: dict) -> dict:
    out = {"rtol": {}}
    for name in FIGURES:
        values = np.array([np.atleast_1d(s[name]) for s in per_seed.values()])
        median = np.median(values, axis=0)
        worst = float(np.max(np.abs(values / median - 1.0)))
        out[name] = median.tolist() if name == "peak_flux" else float(median[0])
        out["rtol"][name] = float(f"{SPREAD_FACTOR * worst:.2g}")
    return out


def main() -> int:
    reference = {"workloads": {}}
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        tmp = Path(tmp)
        for name, wl in WORKLOADS.items():
            seeds, peaks = {}, None
            for seed in SEEDS:
                wl.write_dataset(seed, tmp / "dataset.rvis")
                stats = image_stats(wl.image(tmp / "dataset.rvis", tmp / "image", seed))
                if peaks is not None and stats["peaks"] != peaks:
                    raise SystemExit(f"{name}: peaks move with the seed: "
                                     f"{peaks} vs {stats['peaks']}")
                peaks = stats.pop("peaks")
                seeds[str(seed)] = stats
                print(name, seed, json.dumps(stats), flush=True)
            reference["workloads"][name] = {"peaks": peaks, "any_seed": any_seed(seeds),
                                            "seeds": seeds}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
