"""Mesh geometry: grid dimensions, slab ownership, coordinate mapping.

The computational mesh has ``n_u x n_v x n_w`` cells. The v axis is split
into contiguous row blocks (slabs), one per rank, balanced to within one
row: rank r's slab is ``partition_1d(n_v, R, r)``, a ``(start, count)``
pair. Complex mesh data is stored ``(plane, v_row, u_col)``, row-major; a
slab is a plain ``(n_w, count, n_u)`` complex128 array, and its ``start``
travels beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "partition_1d",
    "plane_of_w",
    "pixel_to_lm",
    "pixel_n_block",
]


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def partition_1d(n: int, parts: int, index: int) -> tuple[int, int]:
    """Balanced contiguous split of ``range(n)`` into ``parts`` blocks.

    Block ``index`` gets ``ceil(n/parts)`` items when ``index < n % parts``,
    else ``floor(n/parts)``. Returns ``(start, count)``.
    """
    if parts < 1 or not (0 <= index < parts):
        raise ValueError(f"invalid partition index {index} of {parts}")
    q, r = divmod(n, parts)
    if index < r:
        return index * (q + 1), q + 1
    return r * (q + 1) + (index - r) * q, q


@dataclass(frozen=True)
class GridSpec:
    """Mesh geometry plus the native w extent the planes represent.

    ``n_u``/``n_v`` must be powers of two (the checkerboard phase shift
    needs even sizes, and only powers of two are tested) and the field of
    view implied by ``cell_size_lm`` must keep every image pixel inside
    the unit direction-cosine disc, corners included. Normalized w
    spans ``[0, 1]``; ``w_min_native``/``w_max_native`` carry the
    physical w extent that range stands for.
    """

    n_u: int
    n_v: int
    n_w: int
    cell_size_lm: float
    w_min_native: float = 0.0
    w_max_native: float = 0.0

    def __post_init__(self):
        if self.n_u < 2 or not _is_pow2(self.n_u):
            raise ValueError(f"n_u must be a power of two >= 2, got {self.n_u}")
        if self.n_v < 2 or not _is_pow2(self.n_v):
            raise ValueError(f"n_v must be a power of two >= 2, got {self.n_v}")
        if self.n_w < 1:
            raise ValueError(f"n_w must be >= 1, got {self.n_w}")
        # Checks are written as "all inside" so that NaN, which fails every
        # comparison, is rejected with the out-of-range values.
        if not self.cell_size_lm > 0.0:
            raise ValueError("cell_size_lm must be positive")
        half_l = self.n_u * self.cell_size_lm / 2.0
        half_m = self.n_v * self.cell_size_lm / 2.0
        # Per-axis bounds alone do not keep the image corners inside the
        # unit disc, which the w correction requires.
        if not (half_l < 1.0 and half_m < 1.0 and half_l * half_l + half_m * half_m < 1.0):
            raise ValueError("field of view too wide: corner pixels leave the unit disc")
        if not -math.inf < self.w_min_native <= self.w_max_native < math.inf:
            raise ValueError("w_min_native and w_max_native must be finite, "
                             "with w_min_native <= w_max_native")

    @property
    def w_range_native(self) -> float:
        return self.w_max_native - self.w_min_native

    @property
    def w_step_native(self) -> float:
        """Native w spacing of the planes; 0 for a single plane."""
        return self.w_range_native / (self.n_w - 1) if self.n_w > 1 else 0.0

    def plane_w_native(self, k: int) -> float:
        """Native w value sampled by plane ``k``.

        Planes sample normalized w at ``k / (n_w - 1)``; a single plane
        represents the midpoint of the native range.
        """
        if not (0 <= k < self.n_w):
            raise ValueError(f"plane {k} outside range(0, {self.n_w})")
        if self.n_w == 1:
            return 0.5 * (self.w_min_native + self.w_max_native)
        frac = k / (self.n_w - 1)
        return self.w_min_native + frac * self.w_range_native


def plane_of_w(spec: GridSpec, w):
    """Nearest w plane for normalized w in [0, 1] (half rounds up); ``w``
    may be an array, and the result has its shape."""
    w = np.asarray(w, dtype=np.float64)
    if spec.n_w == 1:
        return np.zeros(w.shape, dtype=np.int64)
    k = np.floor(w * (spec.n_w - 1) + 0.5).astype(np.int64)
    return np.clip(k, 0, spec.n_w - 1)


def pixel_to_lm(spec: GridSpec, i: int, j: int) -> tuple[float, float]:
    """Direction cosines of image pixel (column i, row j).

    The phase center sits at pixel ``(n_u/2, n_v/2)``.
    """
    if not (0 <= i < spec.n_u and 0 <= j < spec.n_v):
        raise ValueError(f"pixel ({i}, {j}) outside the image")
    l = (i - spec.n_u // 2) * spec.cell_size_lm
    m = (j - spec.n_v // 2) * spec.cell_size_lm
    return l, m


def pixel_n_block(spec: GridSpec, u_start: int, u_count: int) -> np.ndarray:
    """``n = sqrt((1 - l^2) - m^2)`` for a block of image columns in the
    transposed layout, on image rows ``0 ... n_v/2`` only: shaped
    ``(u_count, n_v/2 + 1)``, with (l, m) as in :func:`pixel_to_lm`. Row
    ``n_v - j`` has ``m`` negated exactly, so it holds row j's n bits."""
    cell = spec.cell_size_lm
    l = (np.arange(u_start, u_start + u_count, dtype=np.float64) - spec.n_u // 2) * cell
    m = (np.arange(spec.n_v // 2 + 1, dtype=np.float64) - spec.n_v // 2) * cell
    return np.sqrt((1.0 - l * l)[:, None] - m * m)
