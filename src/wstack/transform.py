"""Per-plane 2D FFT over slabs, w-term correction, stacking, image output.

A plane is transformed as library FFTs (``np.fft``) along its rows, a
block transpose across ranks, row FFTs again, and a transpose back, so the
message log captures the transform's traffic. The forward kernel is
``exp(-2 pi i)``; the inverse is ``exp(+2 pi i)`` and carries ``1/n`` on
each axis, ``1/(n_u n_v)`` in all.

The gridded origin sits at cell (0, 0). The gridder stores every cell
times ``(-1)^(i+j)`` (see :mod:`wstack.gridder`), and on that grid the
inverse transform lands the phase center on pixel ``(n_u/2, n_v/2)``
exactly, with no extra pass or communication.

The w correction and stacking are one pass per slab, with n = sqrt(1 -
l^2 - m^2) computed once: ``acc += plane_k * exp(2 pi i w_k (n - 1))`` for
k = 0 ... n_w - 1 in order, then ``acc / n_w * n``. Since ``l = (i - n_u/2)
cell`` negates exactly under ``i -> n_u - i``, columns ``i`` and ``n_u - i``
hold the same n bits, so the phase is evaluated on columns ``0 ... n_u/2``
and mirrored. Every step is the floating-point operation of the per-plane
form (each plane corrected into a copy, the copies summed), so the image
is bit-identical to it.

Image files are raw little-endian float64 pixels, row-major ``(n_v, n_u)``,
next to a JSON sidecar and an optional 8-bit PGM preview with a linear
min-max stretch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .comms import MessageLog, Topology, run_ranks
from .mesh import GridSpec, SlabRange, partition_1d

__all__ = [
    "ImageBlock",
    "FinalImage",
    "fft1d",
    "fft2d_slab",
    "w_phase_factor",
    "apply_w_correction",
    "stack_planes",
    "assemble_image",
    "write_image",
    "write_pgm",
]


@dataclass
class ImageBlock:
    """Stacked real image rows for one slab plus residual diagnostics."""

    spec: GridSpec
    slab: SlabRange
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


def fft1d(a: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Library FFT along the last axis; the inverse carries ``1/n``."""
    return np.fft.ifft(a) if inverse else np.fft.fft(a)


def fft2d_slab(slabs, spec: GridSpec, topo: Topology, direction: str = "forward",
               log: MessageLog | None = None, phase: str = "fft"):
    """Distributed 2D transform of one plane given as per-rank row slabs.

    Row transforms, an all-to-all block transpose (R^2 blocks, the
    off-diagonal ones as logged messages), row transforms of the transposed
    layout, and the transpose back. Returns the transformed slabs.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be forward or inverse, got {direction!r}")
    inverse = direction == "inverse"
    R = topo.n_ranks
    if len(slabs) != R:
        raise ValueError(f"expected {R} slabs, got {len(slabs)}")
    rows = [partition_1d(spec.n_v, R, r) for r in range(R)]
    cols = [partition_1d(spec.n_u, R, r) for r in range(R)]

    def fn(ctx):
        r = ctx.rank
        v0, vc = rows[r]
        c0, cc = cols[r]
        a = fft1d(slabs[r], inverse)
        for d in range(R):
            if d != r:
                d0, dc = cols[d]
                ctx.send(d, ("tp_fwd",), a[:, d0:d0 + dc], phase)
        b = np.empty((cc, spec.n_v), dtype=np.complex128)
        b[:, v0:v0 + vc] = a[:, c0:c0 + cc].T
        for s in range(R):
            if s != r:
                s0, sc = rows[s]
                b[:, s0:s0 + sc] = ctx.recv(s, ("tp_fwd",)).T
        b = fft1d(b, inverse)
        for d in range(R):
            if d != r:
                d0, dc = rows[d]
                ctx.send(d, ("tp_back",), b[:, d0:d0 + dc], phase)
        out = np.empty((vc, spec.n_u), dtype=np.complex128)
        out[:, c0:c0 + cc] = b[:, v0:v0 + vc].T
        for s in range(R):
            if s != r:
                s0, sc = cols[s]
                out[:, s0:s0 + sc] = ctx.recv(s, ("tp_back",)).T
        return out

    return run_ranks(topo, fn, log=log)


# ---------------------------------------------------------------------------
# w correction and stacking
# ---------------------------------------------------------------------------

def w_phase_factor(n: np.ndarray, w: float) -> np.ndarray:
    """``exp(2 pi i w (n - 1))`` over a slab's ``n``: ``np.exp`` on columns
    ``0 ... n_u/2``, mirrored onto columns ``n_u/2 + 1 ... n_u - 1``; equal
    bit for bit to the full-width ``np.exp``."""
    h = n.shape[1] // 2
    factor = np.empty(n.shape, dtype=np.complex128)
    np.exp(2j * np.pi * w * (n[:, :h + 1] - 1.0), out=factor[:, :h + 1])
    factor[:, h + 1:] = factor[:, h - 1:0:-1]
    return factor


def apply_w_correction(acc: np.ndarray | None, plane: np.ndarray, plane_index: int,
                       spec: GridSpec, n: np.ndarray) -> np.ndarray:
    """Add plane k times ``exp(2 pi i w_k (n - 1))`` into ``acc`` and return
    the sum; w_k is the plane's native w, ``n`` the slab's
    :func:`~wstack.mesh.pixel_n_block`.

    Planes come in order k = 0 ... n_w - 1; plane 0 gets ``acc=None`` and
    starts the sum, as a copy when w_0 = 0, else as the product. The factor
    is a pure phase, so each plane's magnitudes are kept.
    """
    if plane.shape != n.shape:
        raise ValueError(f"plane shape {plane.shape} != slab shape {n.shape}")
    w_k = spec.plane_w_native(plane_index)
    if w_k != 0.0:
        # Plane first, into the factor's buffer: numpy's complex multiply
        # uses FMA and is not commutative in the last bit, and ``plane *
        # temporary`` may run as ``temporary *= plane``.
        factor = w_phase_factor(n, w_k)
        plane = np.multiply(plane, factor, out=factor)
    elif acc is None:
        plane = np.array(plane, dtype=np.complex128)
    return plane if acc is None else np.add(acc, plane, out=acc)


def stack_planes(acc: np.ndarray, slab: SlabRange, spec: GridSpec,
                 n: np.ndarray) -> ImageBlock:
    """Finish one slab from the :func:`apply_w_correction` sum of its n_w
    planes: ``acc / n_w * n`` in place, then the real part.

    The w integral discretizes to ``n / w_range * sum_k (w_range / n_w) *
    plane_k``, i.e. the plane mean scaled by the direction-cosine factor
    (the w range cancels). The imaginary part is dropped and reported as a
    squared-norm diagnostic.
    """
    if acc.shape != (slab.v_count, spec.n_u):
        raise ValueError(f"sum shape {acc.shape} != {(slab.v_count, spec.n_u)}")
    acc /= spec.n_w
    acc *= n
    return ImageBlock(
        spec=spec, slab=slab, pixels=np.ascontiguousarray(acc.real),
        imag_sq_sum=float((acc.imag ** 2).sum()),
        real_sq_sum=float((acc.real ** 2).sum()),
    )


def assemble_image(spec: GridSpec, blocks) -> FinalImage:
    """Concatenate per-rank stacked blocks into the full image."""
    blocks = sorted(blocks, key=lambda b: b.slab.v_start)
    pixels = np.concatenate([b.pixels for b in blocks], axis=0)
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
    raw_path.write_bytes(img.pixels.astype("<f8").tobytes())
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
