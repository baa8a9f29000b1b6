"""Check each benchmark image against a reference made by the seed code.

``reference.json`` holds, per workload, the pixel where each source peaks,
and per seed the image sha256, the flux at those pixels, the image L2 norm
and ``imag_residual_norm``. An image fails when a peak moves or a figure
drifts beyond the relative tolerance. For a seed the reference lists, the
tolerance is ``SAME_SEED_RTOL``: reordered float64 sums move these figures
by about 1e-12, while dropping one of 4 to 16 w planes moves them by 6% or
more. For any other seed each figure is compared with its median over the
listed seeds, at the wider tolerance ``any_seed.rtol`` stores for it, which
covers the seed-to-seed spread of that figure. A sha256 match with the
seed's reference counts as bit-identical, which is reported, not required.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from wstack import visdata

from .workloads import SKY

REFERENCE_PATH = Path(__file__).with_name("reference.json")
SAME_SEED_RTOL = 1e-6
PEAK_WINDOW = 3
FIGURES = ("peak_flux", "l2", "imag")


def image_stats(result) -> dict:
    """The figures the reference pins, for one ``PipelineResult``."""
    image = result.image
    spec = image.spec
    pixels = image.pixels
    peaks, flux = [], []
    for l, m, _ in visdata.SkyModel.parse(SKY).sources:
        i0 = spec.n_u // 2 + round(l / spec.cell_size_lm)
        j0 = spec.n_v // 2 + round(m / spec.cell_size_lm)
        window = pixels[j0 - PEAK_WINDOW:j0 + PEAK_WINDOW + 1,
                        i0 - PEAK_WINDOW:i0 + PEAK_WINDOW + 1]
        dj, di = np.unravel_index(np.argmax(window), window.shape)
        i, j = i0 - PEAK_WINDOW + int(di), j0 - PEAK_WINDOW + int(dj)
        peaks.append([i, j])
        flux.append(float(pixels[j, i]))
    return {
        "sha256": result.image_sha256,
        "peaks": peaks,
        "peak_flux": flux,
        "l2": float(np.linalg.norm(pixels)),
        "imag": float(image.imag_residual_norm),
    }


def load_reference(workload: str, path: Path = REFERENCE_PATH) -> dict:
    return json.loads(Path(path).read_text())["workloads"][workload]


def check_image(stats: dict, reference: dict, seed: int) -> tuple[str | None, bool]:
    """Compare one image's figures with the reference.

    Returns ``(reason, bit_identical)``; ``reason`` is None when the image
    passes.
    """
    if stats["peaks"] != reference["peaks"]:
        return f"peaks at {stats['peaks']}, expected {reference['peaks']}", False
    same_seed = reference["seeds"].get(str(seed))
    expected = same_seed if same_seed is not None else reference["any_seed"]
    for name in FIGURES:
        rtol = SAME_SEED_RTOL if same_seed is not None else expected["rtol"][name]
        got = np.atleast_1d(stats[name])
        want = np.atleast_1d(expected[name])
        drift = np.max(np.abs(got / want - 1.0))
        if not drift <= rtol:
            return (f"{name} {got.tolist()} drifts {drift:.3g} from {want.tolist()} "
                    f"(rtol {rtol:g})"), False
    return None, same_seed is not None and stats["sha256"] == same_seed["sha256"]
