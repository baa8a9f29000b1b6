"""Convolutional gridding of visibility records onto the mesh.

Each record's weighted value is spread over the cells within
``half_support`` of its fractional (gu, gv) position on its w plane,
using a Gaussian or Kaiser-Bessel kernel with unit peak. Footprints are
clipped at mesh edges and at slab boundaries; records whose footprint
crosses a slab boundary are present on both ranks (halo duplicates from
the exchange), so every rank computes exactly the rows it owns.

Both kernels are separable, so a record's weights are the outer product
of its weights along u and along v. The contribution to a cell is
``value * (w_u * w_v)``.

Footprint window. Along each axis a record at ``g`` reaches the cells
``floor(g) + a``, a in -S..S (S the half support), that pass the support
test ``|g - (floor(g) + a)| <= S``. Offsets -S+1..S always pass it; -S
passes only when g lies on a cell line (up to rounding of that same float
test). So each plane uses the 2S offsets -S+1..S per axis, and adds -S on
an axis only when some record of the plane passes the test there; the
weight of every entry beyond the support is then set to exactly 0.0 (the
Gaussian is not 0 there). Cells are indexed in a window of the plane's
rows, each row padded to the ``n_u + 2S + 1`` columns -S..n_u+S that a
record at ``0 <= gu <= n_u`` can reach, so every footprint entry lands in
range and no mask is built. Only the owned rows and
columns of the window reach the grid; the rest is dropped. Weight-0
entries add ``+-0.0`` to a block sum, which leaves it unchanged.

Accumulation order. Records are taken plane by plane, in the order they
are given (the exchange sorts them by time index, then global index); one
stable sort by plane keeps that order within each plane.
For each plane and each u offset ``a`` in order, the block's
contributions are summed per cell by an ordered ``np.bincount`` in record
order, and the block sum is added to the cell; blocks are added in order
of ``a``. So the sum at every cell has one fixed order, set by the
global record order alone: the grid is bit-identical for any rank count,
and to the masked per-offset form this gridder replaced.

The grid is not bit-identical to a scatter-add that keeps one running
sum per cell in record order, which associates the sums differently; the
two agree to rounding. With the Gaussian, ``exp(-du^2/2s^2) * exp(-dv^2/2s^2)`` also
differs from ``kernel_value(du, dv)`` by rounding; with Kaiser-Bessel the
factored weight is the same float as ``kernel_value(du, dv)``.

Kaiser-Bessel weights come from the power series of I0 in
``t = 1 - (x/S)^2``: ``I0(beta sqrt(t)) = sum_k c_k t^k`` with ``c_0 = 1``
and ``c_k = c_{k-1} (beta^2/4) / k^2``. Every term is positive and
``t <= 1``, so the series is cut at the first ``c_k`` below ``2^-53``
times the sum so far, where the dropped tail is below rounding. Horner's
rule evaluates it in place, with no square root or exponential, and the
result is divided by the same Horner sum at ``t = 1``, so the peak is
exactly 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import ComplexGrid, SlabRange

__all__ = [
    "KERNEL_KINDS",
    "KernelSpec",
    "SectorBatch",
    "kernel_value",
    "kernel_footprint_sum",
    "grid_sector",
]

KERNEL_KINDS = ("gaussian", "kaiser_bessel")

DEFAULT_KB_BETA_PER_SUPPORT = 2.34

# Records per kernel evaluation in ``grid_sector``.
KERNEL_BLOCK = 16384


@dataclass(frozen=True)
class KernelSpec:
    """Gridding kernel: kind, half support in cells, and shape parameter
    (Gaussian sigma in cells, or Kaiser-Bessel beta)."""

    kind: str = "gaussian"
    half_support: int = 3
    shape_param: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"kernel kind must be one of {KERNEL_KINDS}, got {self.kind!r}")
        if self.half_support < 1:
            raise ValueError("half_support must be >= 1")
        # Written as "inside" so that NaN, which fails every comparison,
        # is rejected too.
        if not 0.0 < self.shape_param < math.inf:
            raise ValueError("shape_param must be positive and finite")
        if self.kind == "kaiser_bessel" and not math.isfinite(_kb_series(self.shape_param)[1]):
            raise ValueError(f"Kaiser-Bessel beta {self.shape_param} too large: "
                             "I0(beta) overflows float64")

    @classmethod
    def gaussian(cls, half_support: int = 3, sigma: float = 1.0) -> "KernelSpec":
        return cls(kind="gaussian", half_support=half_support, shape_param=sigma)

    @classmethod
    def kaiser_bessel(cls, half_support: int = 3, beta: float | None = None) -> "KernelSpec":
        if beta is None:
            beta = DEFAULT_KB_BETA_PER_SUPPORT * half_support
        return cls(kind="kaiser_bessel", half_support=half_support, shape_param=beta)


def kernel_value(kern: KernelSpec, du, dv):
    """Kernel weight at cell offset (du, dv); 1.0 at the peak.

    Gaussian: ``exp(-(du^2 + dv^2) / (2 sigma^2))``.
    Kaiser-Bessel: separable ``I0(beta sqrt(1 - (du/S)^2)) *
    I0(beta sqrt(1 - (dv/S)^2)) / I0(beta)^2``, zero beyond S, with each
    I0 factor summed as the power series ``sum_k c_k t^k`` in
    ``t = 1 - (x/S)^2`` (see the module docstring); exact to rounding.
    """
    du = np.asarray(du, dtype=np.float64)
    dv = np.asarray(dv, dtype=np.float64)
    if kern.kind == "gaussian":
        s2 = 2.0 * kern.shape_param * kern.shape_param
        out = np.exp(-(du * du + dv * dv) / s2)
    else:
        out = _kb_axis(kern, du) * _kb_axis(kern, dv)
    return out if out.ndim else float(out)


@lru_cache
def _kb_series(beta: float) -> tuple[tuple[float, ...], float]:
    """Coefficients of ``I0(beta sqrt(t))`` in powers of t, highest first,
    and their Horner sum at ``t = 1`` (``I0(beta)``; inf on overflow)."""
    q = beta * beta / 4.0
    coeffs = [1.0]
    total = c = 1.0
    k = 0
    while math.isfinite(total):
        k += 1
        c *= q / (k * k)
        if c < 2.0 ** -53 * total:
            break
        coeffs.append(c)
        total += c
    coeffs.reverse()
    # The additions Horner's rule makes at t = 1, in its order, so that
    # ``_kb_axis`` at x = 0 divides this value by itself.
    norm = 0.0
    for ck in coeffs:
        norm += ck
    return tuple(coeffs), norm


def _kb_axis(kern: KernelSpec, x):
    coeffs, norm = _kb_series(kern.shape_param)
    t = np.array(x, dtype=np.float64)
    t /= kern.half_support
    t *= t
    np.subtract(1.0, t, out=t)
    beyond = t < 0.0  # |x| > S
    np.maximum(t, 0.0, out=t)
    acc = np.full(t.shape, coeffs[0])
    for ck in coeffs[1:]:
        acc *= t
        acc += ck
    acc /= norm
    acc[beyond] = 0.0
    return acc


def kernel_footprint_sum(kern: KernelSpec, gu: float, gv: float) -> float:
    """Sum of kernel weights over the unclipped footprint of one record."""
    S = kern.half_support
    a = np.arange(-S, S + 1)
    i = np.floor(gu).astype(np.int64) + a
    j = np.floor(gv).astype(np.int64) + a
    du = gu - i
    dv = gv - j
    du = du[np.abs(du) <= S]
    dv = dv[np.abs(dv) <= S]
    return float(kernel_value(kern, du[:, None], dv[None, :]).sum())


@dataclass
class SectorBatch:
    """Records prepared for one sector, in (time_index, global index) order.

    Records within ``halo_rows`` of the slab but owned by a neighbouring
    slab are included; they contribute only the rows this slab owns.
    """

    slab: SlabRange
    gu: np.ndarray
    gv: np.ndarray
    plane: np.ndarray
    value: np.ndarray
    halo_rows: int = 0

    def __post_init__(self):
        self.gu = np.ascontiguousarray(self.gu, dtype=np.float64)
        self.gv = np.ascontiguousarray(self.gv, dtype=np.float64)
        self.plane = np.ascontiguousarray(self.plane, dtype=np.uint32)
        self.value = np.ascontiguousarray(self.value, dtype=np.complex128)
        n = len(self.gu)
        for arr in (self.gv, self.plane, self.value):
            if len(arr) != n:
                raise ValueError("batch columns must share one length")
        rows = np.floor(self.gv).astype(np.int64)
        lo = self.slab.v_start - self.halo_rows - 1
        hi = self.slab.v_end + self.halo_rows
        if n and (rows.min() < lo or rows.max() > hi):
            raise ValueError("record outside slab+halo")

    def __len__(self) -> int:
        return len(self.gu)


def grid_sector(batch: SectorBatch, kern: KernelSpec, out: ComplexGrid) -> int:
    """Accumulate one sector's records into the rows its slab owns, in the
    order the module docstring states; returns the number of cell updates
    performed (a deterministic work surrogate)."""
    slab = out.slab
    if (slab.v_start, slab.v_count) != (batch.slab.v_start, batch.slab.v_count):
        raise ValueError("batch and output slab ranges differ")
    gu, gv, plane, value = batch.gu, batch.gv, batch.plane, batch.value
    S = kern.half_support
    n_u, n_w = out.spec.n_u, out.spec.n_w
    if np.any(gv + S < slab.v_start) or np.any(gv - S > slab.v_end - 1):
        raise ValueError("record outside slab+halo")
    # Written as "inside" so that NaN is rejected too.
    if len(gu) and not (gu.min() >= 0.0 and gu.max() <= n_u):
        raise ValueError("record outside the mesh columns")
    if len(plane) and plane.max() >= n_w:
        raise ValueError(f"plane {plane.max()} outside range(0, {n_w})")
    # Planes are below n_w, so the narrowest type that holds them sorts
    # them fastest (a radix sort for 8- and 16-bit keys).
    order = np.argsort(plane.astype(np.min_scalar_type(n_w - 1)), kind="stable")
    bounds = np.searchsorted(plane[order], np.arange(n_w + 1))
    gu, gv, value = gu[order], gv[order], value[order]
    count = 0
    for p in range(n_w):
        rec = slice(bounds[p], bounds[p + 1])
        if rec.start < rec.stop:
            count += _grid_plane(gu[rec], gv[rec], value[rec], kern, out, p)
    return count


def _axis_window(g, lo: int, hi: int, kern: KernelSpec):
    """Footprint of the records along one axis: cell floors, the first
    offset of the window (-S only when some record is on a cell line),
    kernel weights per (record, offset) with 0.0 beyond the support, and
    the number of offsets that land in cells ``lo..hi`` within the
    support."""
    S = kern.half_support
    flo = np.floor(g)
    # The support test of ``|g - cell| <= S`` at offset -S; every offset
    # -S+1..S passes it for any g.
    on_line = np.abs(g - (flo - S)) <= S
    first = -S if on_line.any() else 1 - S
    cells = flo[:, None] + np.arange(first, S + 1)
    weights = np.empty(cells.shape)
    # Weights depend on each record alone, so they are evaluated in
    # blocks of records to bound the kernel's temporaries.
    for r in range(0, len(g), KERNEL_BLOCK):
        rows = slice(r, r + KERNEL_BLOCK)
        # Both kernels factor: k(du, dv) = k(du, 0) * k(0, dv), k(0, 0) = 1.
        weights[rows] = kernel_value(kern, g[rows, None] - cells[rows], 0.0)
    if first == -S:
        # The Gaussian is not 0 beyond S, so such entries are zeroed here.
        weights[~on_line, 0] = 0.0
    flo = flo.astype(np.int64)
    n_in = np.minimum(flo + S, hi) + 1 - np.maximum(flo + np.where(on_line, -S, 1 - S), lo)
    return flo, first, weights, np.maximum(n_in, 0)


def _grid_plane(gu, gv, value, kern: KernelSpec, out: ComplexGrid, p: int) -> int:
    """Grid one plane's records (in record order) into ``out.data[p]``."""
    S = kern.half_support
    slab, n_u = out.slab, out.spec.n_u
    flo_u, first_u, wu, n_in_u = _axis_window(gu, 0, n_u - 1, kern)
    flo_v, first_v, wv, n_in_v = _axis_window(gv, slab.v_start, slab.v_end - 1, kern)
    # ``cells`` indexes the padded row window (see the module docstring)
    # at u offset 0, where mesh column c is window column c + S. Offset a
    # moves every entry a columns along, so its sums for column c are
    # read from window column c + S - a; the bincount itself is the same.
    width = n_u + 2 * S + 1
    row0 = int(flo_v.min()) + first_v
    n_rows = int(flo_v.max()) + S + 1 - row0
    cells = ((flo_v - row0) * width + flo_u + S)[:, None] + np.arange(first_v, S + 1) * width
    cells = cells.reshape(-1)
    # Owned rows the window reaches, as window rows and slab rows.
    r0, r1 = max(row0, slab.v_start), min(row0 + n_rows, slab.v_end)
    dst = slice(r0 - slab.v_start, r1 - slab.v_start)
    re, im = value.real[:, None], value.imag[:, None]
    w = np.empty(wv.shape)
    part = np.empty(wv.shape)
    for a in range(first_u, S + 1):
        np.multiply(wu[:, a - first_u, None], wv, out=w)
        for target, vals in ((out.data[p].real, re), (out.data[p].imag, im)):
            np.multiply(vals, w, out=part)
            sums = np.bincount(cells, part.reshape(-1), n_rows * width)
            sums = sums.reshape(n_rows, width)[r0 - row0:r1 - row0, S - a:S - a + n_u]
            target[dst] += sums
    return int(np.dot(n_in_u, n_in_v))
