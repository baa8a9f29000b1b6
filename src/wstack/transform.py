"""Inverse 2D FFT of each w plane into transposed layout, w-term
correction, stacking, image output.

For each w plane, each rank runs :func:`fft2d_slab` on its row slab:
library inverse FFTs (``np.fft``) along the rows, in place through
``out=`` (numpy >= 2.0), one block transpose across ranks (logged), then
the columns it holds, ``COL_BLOCK`` at a time. Each column block is formed
in one ``(COL_BLOCK, n_v)`` buffer the rank reuses: the block's columns of
its own row-FFT output and of each peer's received block are copied in
transposed, the block is inverse FFT'd in place and handed to the caller's
``into(c0, block)`` before the next block overwrites the buffer. The
pipeline adds each block into its rows of the w sum there, while it is
still in cache, so no rank holds a full ``(columns, n_v)`` plane beside
its sum. There is no transpose back: a rank keeps ``(columns, n_v)``
blocks, FFTW's transposed-out MPI layout (Frigo & Johnson 2005, Proc. IEEE
93:216), and each rank transposes only its block's real pixels, once, in
:func:`stack_planes`; :func:`assemble_image` then joins the blocks side by
side, in rank order. The inverse kernel is ``exp(+2 pi i)`` and carries
``1/(n_u n_v)``.

Every transposed copy goes through :func:`transpose_into`, in bands of
``TRANSPOSE_BAND`` source rows. A plain ``dst[:] = src.T`` reads one
source column per destination row, so it touches one page per source row
(16 KB apart at n_u = 1024) for every row it writes; a band keeps its
source rows and the destination columns they fill in cache and TLB (the
blocking of Frigo, Leiserson, Prokop & Ramachandran 1999, "Cache-oblivious
algorithms", at one fixed level). On a 2-core Xeon VM with numpy 2.4, a
512 x 512 complex block took 1.15 ms plain and 0.53 ms in bands of 64
rows, and stacking's 512 x 1024 real transpose 2.5 ms and 0.79 ms. The
per-plane column stage (row FFT, sends, transposes, column FFT, Horner
step) at 1024^2 on 1x2 took 14.7-15.1 ms per rank with a full column
plane and 11-13.5 ms with blocks of 32 to 256 columns in bands of 64 rows
(32-row bands were ~1.4 ms slower, 16-column blocks ~2.5 ms). Past 32
columns the block size barely moves that time, so ``COL_BLOCK`` is set
by memory, since a block must stay small beside the whole share on small
meshes too: at 256^2 the whole-run ``tracemalloc`` peak read 5.0-6.2
planes with 32-column blocks and 5.6-7.4 with 64 (tests/test_pipeline.py's
bound). Each column's FFT and
Horner step see the same values in the same order as on the full plane,
so the image is bit-identical to the unblocked form.

The gridded origin sits at cell (0, 0). The gridder stores every cell
times ``(-1)^(i+j)`` (see :mod:`wstack.gridder`), and on that grid the
inverse transform lands the phase center on pixel ``(n_u/2, n_v/2)``
exactly, with no extra pass or communication.

The w correction is one Horner step per column block and plane, the
stacking one pass over a rank's sum. The planes sample w uniformly, w_k =
w_0 + k dw, so the corrected sum ``sum_k plane_k exp(2 pi i w_k (n - 1))``
is ``exp(2 pi i w_0 (n - 1)) sum_k plane_k z^k`` with the step factor ``z
= exp(2 pi i dw (n - 1))``, n = sqrt(1 - l^2 - m^2). A rank builds n and z
once and transforms its planes in reverse order, k = n_w - 1 ... 0, each
column block added by Horner's rule, ``acc = acc * z + plane_k`` on the
block's rows of ``acc`` and ``z``, in place (:func:`apply_w_correction`);
:func:`stack_planes` then applies the w_0 phase
(skipped when w_0 = 0) and ``/ n_w * n`` once. One plane sits at the
midpoint w. Since ``m = (j - n_v/2) cell`` negates exactly under ``j ->
n_v - j``, rows ``j`` and ``n_v - j`` hold the same n bits, so n and each
phase factor are evaluated on rows ``0 ... n_v/2`` only (see
:func:`~wstack.mesh.pixel_n_block`) and multiplied into rows ``n_v/2 + 1
... n_v - 1`` through a reversed view.

The recurrence rounds differently from one ``exp`` per plane, so the image
is no longer bit-identical to that per-plane form; ``wstack verify`` gates
the difference at 1e-12 of the image maximum (1 to 64 planes, w ranges up
to 2000). Every pixel still sees the same operations on any topology, so
the image is bit-identical across topologies and reduce strategies.

Image files are raw little-endian float64 pixels, row-major ``(n_v, n_u)``,
next to a JSON sidecar and an optional 8-bit PGM preview with a linear
min-max stretch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mesh import GridSpec, partition_1d

# Columns per block of fft2d_slab's column stage, and source rows per band
# of transpose_into; see the module docs for how they were chosen.
COL_BLOCK = 32
TRANSPOSE_BAND = 64

__all__ = [
    "ImageBlock",
    "FinalImage",
    "fft1d",
    "fft2d_slab",
    "transpose_into",
    "w_phase_factor",
    "apply_w_correction",
    "stack_planes",
    "assemble_image",
    "write_image",
    "write_pgm",
]


@dataclass
class ImageBlock:
    """Stacked real pixels of the image columns one rank holds, in image
    orientation ``(n_v, columns)``, plus residual diagnostics."""

    pixels: np.ndarray
    imag_sq_sum: float
    real_sq_sum: float


@dataclass
class FinalImage:
    spec: GridSpec
    pixels: np.ndarray
    imag_residual_norm: float = 0.0
    real_norm: float = 0.0

    def __post_init__(self):
        self.pixels = np.ascontiguousarray(self.pixels, dtype=np.float64)
        if self.pixels.shape != (self.spec.n_v, self.spec.n_u):
            raise ValueError(f"image shape {self.pixels.shape} != "
                             f"{(self.spec.n_v, self.spec.n_u)}")


def fft1d(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Library inverse FFT along the last axis, into ``out`` when given
    (which may be ``a`` itself); it carries ``1/n``."""
    return np.fft.ifft(a, out=out)


def _check_buffer(a: np.ndarray, shape: tuple, name: str):
    if not (a.shape == shape and a.dtype == np.complex128 and a.flags.c_contiguous
            and a.flags.writeable):
        raise ValueError(f"{name} shape {a.shape}, {a.dtype}: must be a writeable, "
                         f"C-contiguous {shape} complex128 array")


def transpose_into(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst[:] = src.T``, in bands of ``TRANSPOSE_BAND`` rows of ``src``.

    See the module docs for why it goes in bands."""
    for r in range(0, src.shape[0], TRANSPOSE_BAND):
        dst[:, r:r + TRANSPOSE_BAND] = src[r:r + TRANSPOSE_BAND].T


def fft2d_slab(ctx, rows: np.ndarray, spec: GridSpec, into) -> None:
    """One rank's part of the inverse 2D transform of one plane, from its
    ``(v_count, n_u)`` row slab to its :func:`~wstack.mesh.partition_1d`
    share of the columns, ``(u_count, n_v)``: row transforms, each column
    block sent to its owner as an ``fft`` message, then column transforms,
    ``COL_BLOCK`` columns at a time.

    Each block of columns ``c0 ... c0 + len(block) - 1`` of the rank's
    share is handed, transformed, to ``into(c0, block)``, in column order,
    before the next one is formed; every block is a view of one buffer
    that the next block overwrites, so a consumer that needs a block
    afterwards copies it. The row transforms overwrite ``rows``, which must
    be a writeable, C-contiguous complex128 array, else ValueError."""
    R, r = ctx.topo.n_ranks, ctx.rank
    u0, uc = partition_1d(spec.n_u, R, r)
    _check_buffer(rows, (partition_1d(spec.n_v, R, r)[1], spec.n_u), "rows")
    a = fft1d(rows, out=rows)
    for d in range(R):
        if d != r:
            d0, dc = partition_1d(spec.n_u, R, d)
            ctx.send(d, ("fft",), a[:, d0:d0 + dc], "fft")
    # (first row of the image, rows x this rank's columns) for each rank's slab
    sources = [(partition_1d(spec.n_v, R, s)[0],
                a[:, u0:u0 + uc] if s == r else ctx.recv(s, ("fft",))) for s in range(R)]
    buffer = np.empty((min(COL_BLOCK, uc), spec.n_v), dtype=np.complex128)
    for c0 in range(0, uc, COL_BLOCK):
        block = buffer[:min(COL_BLOCK, uc - c0)]
        for s0, src in sources:
            transpose_into(block[:, s0:s0 + len(src)], src[:, c0:c0 + len(block)])
        into(c0, fft1d(block, out=block))


# ---------------------------------------------------------------------------
# w correction and stacking
# ---------------------------------------------------------------------------

def w_phase_factor(n: np.ndarray, w: float) -> np.ndarray:
    """``exp(2 pi i w (n - 1))`` for a column block's
    :func:`~wstack.mesh.pixel_n_block`, rows ``0 ... n_v/2`` (the last
    axis); rows ``n_v/2 + 1 ... n_v - 1`` mirror them."""
    return np.exp(2j * np.pi * w * (n - 1.0))


def _multiply_mirrored(acc: np.ndarray, factor: np.ndarray) -> None:
    """``acc *= factor`` in place, for a half over rows ``0 ... n_v/2``
    (a :func:`w_phase_factor` or n)."""
    h = acc.shape[1] // 2
    acc[:, :h + 1] *= factor
    acc[:, h + 1:] *= factor[:, h - 1:0:-1]


def apply_w_correction(acc: np.ndarray, plane: np.ndarray, z: np.ndarray,
                       first: bool = False) -> np.ndarray:
    """One Horner step, ``acc = acc * z + plane`` in place, and return
    ``acc``; ``z`` is the :func:`w_phase_factor` of the plane spacing dw.

    Planes come in reverse order k = n_w - 1 ... 0; plane n_w - 1 comes
    with ``first`` and starts the sum as a copy into ``acc``. ``|z| = 1``,
    so each plane's magnitudes are kept.
    """
    if not plane.shape == acc.shape == (z.shape[0], 2 * (z.shape[1] - 1)):
        raise ValueError(f"plane shape {plane.shape} and sum shape {acc.shape} do not "
                         f"match step factor shape {z.shape}")
    if first:
        acc[...] = plane
        return acc
    _multiply_mirrored(acc, z)
    return np.add(acc, plane, out=acc)


def stack_planes(acc: np.ndarray, n: np.ndarray, spec: GridSpec) -> ImageBlock:
    """Finish one column block from the :func:`apply_w_correction` sum of
    its n_w planes: times ``exp(2 pi i w_0 (n - 1))`` unless w_0 = 0, then
    ``/ n_w * n``, in place, then the real part, transposed into image
    orientation. ``n`` is the block's :func:`~wstack.mesh.pixel_n_block`.

    The w integral discretizes to ``n / w_range * sum_k (w_range / n_w) *
    plane_k``, i.e. the plane mean scaled by the direction-cosine factor
    (the w range cancels). The imaginary part is dropped and reported as a
    squared-norm diagnostic.
    """
    if acc.ndim != 2 or acc.shape[1] != spec.n_v:
        raise ValueError(f"sum shape {acc.shape} is not (columns, {spec.n_v})")
    if n.shape != (acc.shape[0], spec.n_v // 2 + 1):
        raise ValueError(f"n shape {n.shape} does not match sum shape {acc.shape}")
    w_0 = spec.plane_w_native(0)
    if w_0 != 0.0:
        _multiply_mirrored(acc, w_phase_factor(n, w_0))
    acc /= spec.n_w
    _multiply_mirrored(acc, n)
    pixels = np.empty((spec.n_v, acc.shape[0]))
    transpose_into(pixels, acc.real)
    return ImageBlock(
        pixels=pixels,
        imag_sq_sum=float((acc.imag ** 2).sum()),
        real_sq_sum=float((acc.real ** 2).sum()),
    )


def assemble_image(spec: GridSpec, blocks) -> FinalImage:
    """Join the column blocks side by side, in the order given: rank
    order, which is the order of their columns."""
    pixels = np.concatenate([b.pixels for b in blocks], axis=1)
    imag_sq = sum(b.imag_sq_sum for b in blocks)
    real_sq = sum(b.real_sq_sum for b in blocks)
    return FinalImage(spec=spec, pixels=pixels,
                      imag_residual_norm=float(np.sqrt(imag_sq)),
                      real_norm=float(np.sqrt(real_sq)))


# ---------------------------------------------------------------------------
# Image files
# ---------------------------------------------------------------------------

def write_image(img: FinalImage, base_path, provenance: dict | None = None,
                pgm: bool = False) -> dict:
    """Write ``<base>.f64`` raw pixels plus a ``<base>.json`` sidecar and an
    optional ``<base>.pgm`` preview. Returns the paths written."""
    base = Path(base_path)
    base.parent.mkdir(parents=True, exist_ok=True)
    raw_path = base.with_suffix(".f64")
    img.pixels.astype("<f8", copy=False).tofile(raw_path)
    spec = img.spec
    sidecar = {
        "layout": "row-major (n_v, n_u) little-endian float64",
        "n_u": spec.n_u,
        "n_v": spec.n_v,
        "n_w": spec.n_w,
        "cell_size_lm": spec.cell_size_lm,
        "w_min_native": spec.w_min_native,
        "w_max_native": spec.w_max_native,
        "imag_residual_norm": img.imag_residual_norm,
        "real_norm": img.real_norm,
        "provenance": provenance or {},
    }
    json_path = base.with_suffix(".json")
    json_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    paths = {"raw": raw_path, "sidecar": json_path}
    if pgm:
        paths["pgm"] = write_pgm(img.pixels, base.with_suffix(".pgm"))
    return paths


def write_pgm(pixels: np.ndarray, path) -> Path:
    """8-bit PGM with a linear min-max stretch; constant images map to 0."""
    path = Path(path)
    lo = float(pixels.min())
    hi = float(pixels.max())
    if hi > lo:
        scaled = np.round((pixels - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        scaled = np.zeros(pixels.shape, dtype=np.uint8)
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii")
    path.write_bytes(header + scaled.tobytes())
    return path
