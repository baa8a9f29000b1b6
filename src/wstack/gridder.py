"""Convolutional gridding of visibility records onto the mesh.

Each record's weighted value is spread over the cells within
``half_support`` of its fractional (gu, gv) position on its w plane,
using a Gaussian or Kaiser-Bessel kernel with unit peak. Footprints are
clipped at mesh edges and at slab boundaries; records whose footprint
crosses a slab boundary are present on both ranks (halo duplicates from
the exchange), so every rank computes exactly the rows it owns.

Both kernels are separable, so a record's weights are the outer product
of 2S+1 weights along u and 2S+1 along v (S the half support). The
contribution to a cell is ``value * (w_u * w_v)``.

Accumulation order. Records are taken plane by plane, in the order they
are given (the exchange sorts them by time index, then global index).
For each plane and each u offset ``a`` in -S..S, the block's
contributions are summed per cell by an ordered ``np.bincount`` in record
order, and the block sum is added to the cell; blocks are added in order
of ``a``. So the sum at every cell has one fixed order, set by the
global record order alone: the grid is bit-identical for any rank count.

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
    if np.any(gv + S < slab.v_start) or np.any(gv - S > slab.v_end - 1):
        raise ValueError("record outside slab+halo")
    offsets = np.arange(-S, S + 1)
    n_u = out.spec.n_u
    count = 0
    for p in np.unique(plane):
        sel = np.flatnonzero(plane == p)
        flo_u = np.floor(gu[sel]).astype(np.int64)
        flo_v = np.floor(gv[sel]).astype(np.int64)
        i = flo_u[:, None] + offsets
        j = flo_v[:, None] + offsets
        ok_u = (i >= 0) & (i < n_u)
        ok_v = (j >= slab.v_start) & (j < slab.v_end)
        wu, wv = np.empty(i.shape), np.empty(j.shape)
        # Weights depend on each record alone, so they are evaluated in
        # blocks of records to bound the kernel's temporaries.
        for r in range(0, len(sel), KERNEL_BLOCK):
            rows = slice(r, r + KERNEL_BLOCK)
            du = gu[sel[rows], None] - i[rows]
            dv = gv[sel[rows], None] - j[rows]
            ok_u[rows] &= np.abs(du) <= S
            ok_v[rows] &= np.abs(dv) <= S
            # Both kernels factor: k(du, dv) = k(du, 0) * k(0, dv), k(0, 0) = 1.
            wu[rows] = kernel_value(kern, du, 0.0)
            wv[rows] = kernel_value(kern, dv, 0.0)
        row_base = (j - slab.v_start) * n_u
        del i, j
        re, im = value.real[sel, None], value.imag[sel, None]
        # ComplexGrid data is C-contiguous, so this is a view.
        flat = out.data[p].reshape(-1)
        for a in range(len(offsets)):
            if not ok_u[:, a].any():
                continue
            ok = ok_u[:, a, None] & ok_v
            cells = (row_base + (flo_u + offsets[a])[:, None])[ok]
            if not len(cells):
                continue
            w = (wu[:, a, None] * wv)[ok]
            lo = int(cells.min())
            n_cells = int(cells.max()) + 1 - lo
            cells -= lo
            for part, vals in ((flat.real, re), (flat.imag, im)):
                part[lo:lo + n_cells] += np.bincount(
                    cells, np.broadcast_to(vals, ok.shape)[ok] * w, n_cells)
            count += len(cells)
    return count
