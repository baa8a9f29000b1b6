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
global record order alone.

Two accumulation modes:

deterministic
    threads own disjoint row blocks of the slab and each scans all
    records. A cell's contributing records, and their order, do not
    depend on which rank or thread owns its row, so the grid is
    bit-identical for any rank or thread count.
concurrent
    threads own record blocks, each grids its block into a private slab,
    and the private slabs are added into the shared one under a lock in
    scheduling order; the result differs from the deterministic one by
    reassociation only (~1e-15 relative).

The grid is not bit-identical to a scatter-add that keeps one running
sum per cell in record order, which associates the sums differently; the
two agree to rounding. With the Gaussian, ``exp(-du^2/2s^2) * exp(-dv^2/2s^2)`` also
differs from ``kernel_value(du, dv)`` by rounding; with Kaiser-Bessel the
factored weight is the same float as ``kernel_value(du, dv)``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .comms import MessageLog, ReduceStrategy, Topology, exchange_to_space_order, reduce_slabs
from .mesh import ComplexGrid, GridSpec, SlabRange, partition_1d, slab_of

__all__ = [
    "KERNEL_KINDS",
    "KernelSpec",
    "SectorBatch",
    "kernel_value",
    "kernel_footprint_sum",
    "grid_sector",
    "grid_all",
]

KERNEL_KINDS = ("gaussian", "kaiser_bessel")

DEFAULT_KB_BETA_PER_SUPPORT = 2.34

# Records per kernel evaluation in ``_accumulate``.
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
        if self.shape_param <= 0:
            raise ValueError("shape_param must be positive")

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
    I0(beta sqrt(1 - (dv/S)^2)) / I0(beta)^2``, zero beyond S.
    """
    du = np.asarray(du, dtype=np.float64)
    dv = np.asarray(dv, dtype=np.float64)
    if kern.kind == "gaussian":
        s2 = 2.0 * kern.shape_param * kern.shape_param
        out = np.exp(-(du * du + dv * dv) / s2)
    else:
        out = _kb_axis(kern, du) * _kb_axis(kern, dv)
    return out if out.ndim else float(out)


def _kb_axis(kern: KernelSpec, x):
    S = float(kern.half_support)
    beta = kern.shape_param
    inside = np.abs(x) <= S
    t = np.where(inside, 1.0 - (x / S) ** 2, 0.0)
    vals = np.i0(beta * np.sqrt(t)) / np.i0(beta)
    return np.where(inside, vals, 0.0)


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
    """Records prepared for one sector, in (time_index, gindex) order.

    ``is_halo`` marks duplicated boundary records whose owning row lies in
    a neighbouring slab; they contribute only the rows this slab owns.
    """

    slab: SlabRange
    gu: np.ndarray
    gv: np.ndarray
    plane: np.ndarray
    value: np.ndarray
    time_index: np.ndarray
    gindex: np.ndarray
    is_halo: np.ndarray = None
    halo_rows: int = 0

    def __post_init__(self):
        self.gu = np.ascontiguousarray(self.gu, dtype=np.float64)
        self.gv = np.ascontiguousarray(self.gv, dtype=np.float64)
        self.plane = np.ascontiguousarray(self.plane, dtype=np.uint32)
        self.value = np.ascontiguousarray(self.value, dtype=np.complex128)
        self.time_index = np.ascontiguousarray(self.time_index, dtype=np.uint32)
        self.gindex = np.ascontiguousarray(self.gindex, dtype=np.uint64)
        if self.is_halo is None:
            rows = np.floor(self.gv).astype(np.int64)
            self.is_halo = ~((rows >= self.slab.v_start) & (rows < self.slab.v_end))
        self.is_halo = np.ascontiguousarray(self.is_halo, dtype=bool)
        n = len(self.gu)
        for arr in (self.gv, self.plane, self.value, self.time_index, self.gindex, self.is_halo):
            if len(arr) != n:
                raise ValueError("batch columns must share one length")
        rows = np.floor(self.gv).astype(np.int64)
        lo = self.slab.v_start - self.halo_rows - 1
        hi = self.slab.v_end + self.halo_rows
        if n and (rows.min() < lo or rows.max() > hi):
            raise ValueError("record outside slab+halo")

    def __len__(self) -> int:
        return len(self.gu)


def _accumulate(kern, spec, gu, gv, plane, value, out, v_offset, row_lo, row_hi):
    """Add the contributions to rows [row_lo, row_hi) into ``out``, whose
    row 0 is mesh row ``v_offset``, in the order the module docstring
    states; returns the number of cell updates. ``out`` must be
    C-contiguous, since each plane is updated through a flat view."""
    S = kern.half_support
    offsets = np.arange(-S, S + 1)
    n_u = spec.n_u
    count = 0
    for p in np.unique(plane):
        sel = np.flatnonzero(plane == p)
        flo_u = np.floor(gu[sel]).astype(np.int64)
        flo_v = np.floor(gv[sel]).astype(np.int64)
        i = flo_u[:, None] + offsets
        j = flo_v[:, None] + offsets
        ok_u = (i >= 0) & (i < n_u)
        ok_v = (j >= row_lo) & (j < row_hi)
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
        row_base = (j - v_offset) * n_u
        del i, j
        re, im = value.real[sel, None], value.imag[sel, None]
        flat = out[p].reshape(-1)
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


def grid_sector(batch: SectorBatch, kern: KernelSpec, out: ComplexGrid,
                threads: int = 1, deterministic: bool = True) -> int:
    """Accumulate one sector's records into its slab; returns the number of
    cell updates performed (a deterministic work surrogate)."""
    slab = out.slab
    if (slab.v_start, slab.v_count) != (batch.slab.v_start, batch.slab.v_count):
        raise ValueError("batch and output slab ranges differ")
    spec = out.spec
    n = len(batch)
    if n == 0:
        return 0
    S = kern.half_support
    if np.any(batch.gv + S < slab.v_start) or np.any(batch.gv - S > slab.v_end - 1):
        raise ValueError("record outside slab+halo")
    threads = max(1, min(threads, n))

    if threads == 1:
        return _accumulate(kern, spec, batch.gu, batch.gv, batch.plane, batch.value,
                           out.data, slab.v_start, slab.v_start, slab.v_end)

    counts = [0] * threads
    if deterministic:
        # Row-partitioned: each thread owns a disjoint row block and scans
        # every record, so per-cell order never depends on thread count.
        blocks = [partition_1d(slab.v_count, threads, t) for t in range(threads)]

        def work(t):
            b0, bc = blocks[t]
            if bc == 0:
                return
            lo = slab.v_start + b0
            block = out.data[:, b0:b0 + bc, :].copy()
            counts[t] = _accumulate(kern, spec, batch.gu, batch.gv, batch.plane,
                                    batch.value, block, lo, lo, lo + bc)
            out.data[:, b0:b0 + bc, :] = block
    else:
        # Record-partitioned: each thread grids its record block into a
        # private slab and adds it to the shared one under a lock, so the
        # order of the adds depends on scheduling.
        lock = threading.Lock()
        parts = [partition_1d(n, threads, t) for t in range(threads)]

        def work(t):
            r0, rc = parts[t]
            if rc == 0:
                return
            sel = slice(r0, r0 + rc)
            block = np.zeros_like(out.data)
            counts[t] = _accumulate(kern, spec, batch.gu[sel], batch.gv[sel],
                                    batch.plane[sel], batch.value[sel], block,
                                    slab.v_start, slab.v_start, slab.v_end)
            with lock:
                out.data += block

    workers = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return sum(counts)


def grid_all(per_rank_records, spec: GridSpec, kern: KernelSpec, topo: Topology,
             strategy: ReduceStrategy | None = None, log: MessageLog | None = None):
    """Full gridding workflow: redistribute records to sector owners, grid
    each sector locally, then run the per-sector reduce collective.

    The result is independent of the topology: identical bit-for-bit in
    deterministic mode, within ~1e-15 relative otherwise. Returns
    ``(one reduced ComplexGrid slab per rank, MessageLog)``.
    """
    strategy = strategy or ReduceStrategy()
    log = log if log is not None else MessageLog()
    R = topo.n_ranks
    batches = exchange_to_space_order(per_rank_records, spec, topo,
                                      halo_rows=kern.half_support, log=log)

    from .comms import run_ranks

    def fn(ctx):
        out = ComplexGrid(spec, slab_of(spec, ctx.rank, R))
        grid_sector(batches[ctx.rank], kern, out,
                    threads=topo.threads_per_rank,
                    deterministic=strategy.deterministic)
        return out

    slabs = run_ranks(topo, fn, log=log)

    reduced = []
    for t in range(R):
        partials = [slabs[t] if r == t else ComplexGrid(spec, slabs[t].slab)
                    for r in range(R)]
        red, _ = reduce_slabs(strategy, partials, t, topo, log=log)
        reduced.append(red)
    return reduced, log
