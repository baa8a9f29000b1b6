"""Convolutional gridding of visibility records onto the mesh.

Each record's weighted value is spread over the cells within
``half_support`` of its fractional (gu, gv) position on its w plane,
using a Gaussian or Kaiser-Bessel kernel with unit peak. Footprints are
clipped at mesh edges and at slab boundaries, so every rank computes
exactly the rows it owns; which records a sector's batch holds, halo
copies from neighbouring slabs included, is the exchange's business.

Both kernels are separable, so a record's weights are the outer product
of its weights along u and along v. The contribution to a cell is
``(value * w_v) * w_u``: each plane forms value times its v weights once,
and each u offset scales that by its u weights.

Offset-major layout. Every array with one entry per (offset, record)
(cells, weights, value times w_v, contributions) is stored as
``(offsets, records)``, so each elementwise operation runs over
contiguous rows of one plane's records rather than rows of 2S+1 entries.

Phase-centred storage. Every cell (row j, column i) is stored times
``(-1)^(i+j)``, the factor that moves the image's phase centre to pixel
``(n_u/2, n_v/2)`` (see :mod:`wstack.transform`), so the grid goes to the
inverse FFT as it is. The factor is ``(-1)^i (-1)^j``, so it rides on the
per-axis weights: each u weight carries its cell's ``(-1)^i`` and each v
weight its ``(-1)^j``. Negation is exact and rounding is symmetric, so
every product, and every block sum below, is the unsigned one times its
cell's sign, bit for bit; an exactly-zero cell stays +0.0.

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

Accumulation space. Each plane picks where its block sums are formed from
its own size. When its footprint entries (records times v offsets) are at
least the cells of its row window, it bincounts over the whole window and
adds the owned rows and columns with one slice add per part. Otherwise it
bincounts over the distinct window cells its records touch, found once per
plane with one touched mask and one index map that serve every u offset
and both parts, and adds each block sum into the plane by fancy index.
Dense planes (many records per cell) thus pay no index work, and sparse
ones do not sweep a window that is nearly all zeros.

Accumulation order. Records are taken plane by plane, in the order they
are given (the exchange delivers them in global record order); one stable
sort by plane keeps that order within each plane.
For each plane and each u offset ``a`` in order, the block's
contributions are summed per cell by one ordered ``np.bincount``, which
takes them b-major: v offset b by v offset b, and within each b in record
order. The block sum is added to the cell; blocks are added in order of
``a``. In the touched space a block's cells are distinct (offset a
shifts distinct cells by the same a columns), so the fancy-index add makes
exactly one addition per cell, as the slice add does, and the two spaces
give the same bits. So the sum at every cell has one fixed order, set by
the global record order alone: the grid is bit-identical for any rank
count, and, times the cell sign, to a masked per-offset form that drops
the out-of-mesh, out-of-slab and beyond-support entries, takes the rest in
the same (b, record) order within each u offset, and forms the same
products ``(value * w_v) * w_u``.

The grid is not bit-identical to a scatter-add that keeps one running
sum per cell in record order, which associates the sums differently, nor
to a gridder that forms ``value * kernel_value(du, dv)``, which rounds
the product ``w_u * w_v`` before value multiplies it; each agrees with
this one to rounding. (With the Gaussian, ``kernel_value(du, dv)`` is one
``exp`` of the summed exponents, so it also differs from ``w_u * w_v`` by
rounding; with Kaiser-Bessel it is that product.)

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

__all__ = [
    "KERNEL_KINDS",
    "KernelSpec",
    "SectorBatch",
    "kernel_value",
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


@dataclass
class SectorBatch:
    """Records prepared for one sector, in global record order: one column
    per field, of one length."""

    gu: np.ndarray
    gv: np.ndarray
    plane: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        self.gu = np.ascontiguousarray(self.gu, dtype=np.float64)
        self.gv = np.ascontiguousarray(self.gv, dtype=np.float64)
        self.plane = np.ascontiguousarray(self.plane, dtype=np.uint32)
        self.value = np.ascontiguousarray(self.value, dtype=np.complex128)
        n = len(self.gu)
        for arr in (self.gv, self.plane, self.value):
            if len(arr) != n:
                raise ValueError("batch columns must share one length")

    def __len__(self) -> int:
        return len(self.gu)


def grid_sector(batch: SectorBatch, kern: KernelSpec, out: np.ndarray, v_start: int) -> int:
    """Accumulate one sector's records into ``out``, a ``(n_w, rows, n_u)``
    complex128 array holding mesh rows ``v_start ... v_start + rows - 1``,
    each cell times ``(-1)^(i+j)``, in the order the module docstring
    states; returns the number of cell updates performed (a deterministic
    work surrogate). ``out`` is summed into through flat views, so one that
    is not complex128, not 3-D, not C-contiguous or not writeable raises
    ValueError, as does a record whose footprint reaches no row of
    ``out``, or that lies off its columns or planes."""
    if not (isinstance(out, np.ndarray) and out.dtype == np.complex128 and out.ndim == 3
            and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError("out must be a writeable, C-contiguous 3-D complex128 array")
    n_w, rows, n_u = out.shape
    gu, gv, plane, value = batch.gu, batch.gv, batch.plane, batch.value
    S = kern.half_support
    # Written as "inside" so that NaN is rejected too.
    if len(gv) and not (gv.min() + S >= v_start and gv.max() - S <= v_start + rows - 1):
        raise ValueError("record outside slab+halo")
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
            count += _grid_plane(gu[rec], gv[rec], value[rec], kern, out[p], v_start)
    return count


def _axis_window(g, lo: int, hi: int, kern: KernelSpec):
    """Footprint of the records along one axis: cell floors, the first
    offset of the window (-S only when some record is on a cell line),
    signed kernel weights per (offset, record), and the number of offsets
    that land in cells ``lo..hi`` within the support.

    Each weight carries its cell's ``(-1)^cell`` and is 0.0 beyond the
    support."""
    S = kern.half_support
    flo = np.floor(g)
    # The support test of ``|g - cell| <= S`` at offset -S; every offset
    # -S+1..S passes it for any g.
    on_line = np.abs(g - (flo - S)) <= S
    first = -S if on_line.any() else 1 - S
    cells = np.arange(first, S + 1)[:, None] + flo
    weights = np.empty(cells.shape)
    # Weights depend on each record alone, so they are evaluated in
    # blocks of records to bound the kernel's temporaries.
    for r in range(0, len(g), KERNEL_BLOCK):
        cols = slice(r, r + KERNEL_BLOCK)
        # Both kernels factor: k(du, dv) = k(du, 0) * k(0, dv), k(0, 0) = 1.
        weights[:, cols] = kernel_value(kern, g[cols] - cells[:, cols], 0.0)
    if first == -S:
        # The Gaussian is not 0 beyond S, so such entries are zeroed here.
        weights[0, ~on_line] = 0.0
    flo = flo.astype(np.int64)
    # (-1)^cell = (-1)^(floor(g) + first) * (-1)^(offset - first).
    weights *= 1.0 - 2.0 * ((flo + first) & 1)
    weights[1::2] *= -1.0
    n_in = np.minimum(flo + S, hi) + 1 - np.maximum(flo + np.where(on_line, -S, 1 - S), lo)
    return flo, first, weights, np.maximum(n_in, 0)


def _grid_plane(gu, gv, value, kern: KernelSpec, plane, v_start: int) -> int:
    """Grid one plane's records (in record order) into ``plane``, the
    ``(rows, n_u)`` block of mesh rows from ``v_start``."""
    S = kern.half_support
    rows, n_u = plane.shape
    flo_u, first_u, wu, n_in_u = _axis_window(gu, 0, n_u - 1, kern)
    flo_v, first_v, wv, n_in_v = _axis_window(gv, v_start, v_start + rows - 1, kern)
    # ``cells`` indexes the padded row window (see the module docstring)
    # at u offset 0, where mesh column c is window column c + S. Offset a
    # moves every entry a columns along, so its sums for column c are
    # read from window column c + S - a; the bincount itself is the same.
    width = n_u + 2 * S + 1
    row0 = int(flo_v.min()) + first_v
    n_rows = int(flo_v.max()) + S + 1 - row0
    cells = (np.arange(first_v, S + 1) * width)[:, None] + ((flo_v - row0) * width + flo_u + S)
    cells = cells.reshape(-1)
    # The accumulation space (module docstring) follows the plane's size.
    space = _window_space if len(cells) >= n_rows * width else _touched_space
    index, n_bins, add = space(cells, row0, n_rows, width, S, plane, v_start)
    # value * w_v is formed once per plane, its imaginary part in wv's own
    # buffer; each u offset then scales both parts by w_u.
    re = wv * value.real
    im = np.multiply(wv, value.imag, out=wv)
    part = np.empty_like(re)
    for a in range(first_u, S + 1):
        sums = []
        for vw in (re, im):
            np.multiply(vw, wu[a - first_u], out=part)
            sums.append(np.bincount(index, part.reshape(-1), n_bins))
        add(a, *sums)
    return int(np.dot(n_in_u, n_in_v))


def _window_space(cells, row0: int, n_rows: int, width: int, S: int, plane, v_start: int):
    """Accumulation over the plane's whole row window: ``(bincount index,
    bin count, add)``, where ``add(a, re, im)`` adds the owned rows and
    columns of offset a's window sums into ``plane``."""
    rows, n_u = plane.shape
    r0, r1 = max(row0, v_start), min(row0 + n_rows, v_start + rows)
    dst = slice(r0 - v_start, r1 - v_start)
    src = slice(r0 - row0, r1 - row0)

    def add(a, re, im):
        for target, sums in ((plane.real, re), (plane.imag, im)):
            target[dst] += sums.reshape(n_rows, width)[src, S - a:S - a + n_u]

    return cells, n_rows * width, add


def _touched_space(cells, row0: int, n_rows: int, width: int, S: int, plane,
                   v_start: int):
    """Accumulation over the window cells the plane touches at u offset 0:
    ``(bincount index, bin count, add)``, where ``add(a, re, im)`` adds
    offset a's sums of the owned cells into ``plane`` by fancy index."""
    n_owned, n_u = plane.shape
    touched = np.zeros(n_rows * width, dtype=bool)
    touched[cells] = True
    keys = np.flatnonzero(touched)
    index = np.empty(n_rows * width, dtype=np.intp)
    index[keys] = np.arange(len(keys))
    rows, cols = np.divmod(keys, width)
    rows += row0 - v_start
    # Keys run row by row, so the owned rows' keys are one slice of them;
    # it is never empty, as every record reaches an owned row.
    own = slice(*np.searchsorted(rows, [0, n_owned]))
    cols = cols[own] - S
    dest = rows[own] * n_u + cols
    lo, hi = int(cols.min()), int(cols.max())
    flat = plane.reshape(-1)

    def add(a, re, im):
        d, re, im = dest + a, re[own], im[own]
        if lo + a < 0 or hi + a >= n_u:
            inside = (cols >= -a) & (cols < n_u - a)
            d, re, im = d[inside], re[inside], im[inside]
        # The cells in d are distinct, so each gets exactly one addition.
        cell = flat[d]
        cell.real += re
        cell.imag += im
        flat[d] = cell

    return index[cells], len(keys), add
