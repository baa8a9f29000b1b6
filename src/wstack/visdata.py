"""Visibility records, the on-disk binary format, per-rank reads, synthesis.

File layout (all little-endian)::

    header, 64 bytes (44 bytes of fields padded to a 32-byte boundary):
        magic          4s   b"RVIS"
        version        u32
        n_records      u64
        n_freq         u32
        n_corr         u32
        n_time_slices  u32
        w_min_native   f64
        w_max_native   f64
        reserved       20 bytes (generator PRNG name + seed, else zero)
    per record, 28 + 12 * n_chan bytes with n_chan = n_freq * n_corr:
        u, v, w        f64 each (normalized: u, v in [0, 1), w in [0, 1])
        time_index     u32
        visibilities   (re f32, im f32) * n_chan, frequency-major
        weights        f32 * n_chan

Records must be sorted by time_index. Rank r of R reads the r-th
:func:`~wstack.mesh.partition_1d` share of the records, a contiguous run, so
the shares in rank order are the file in record order. Datasets are held in
memory column-wise (:class:`VisChunk`). A rank reads its share in blocks of
:data:`READ_BLOCK` records into one reused buffer and copies each block's
fields into the share's columns, so the read holds the columns and one
block. A read that yields fewer bytes than the header and the file's size
promised, as when the file shrinks while it is read, is a
:class:`FormatError`; a shorter share is never returned.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .mesh import partition_1d

__all__ = [
    "MAGIC",
    "VERSION",
    "HEADER_SIZE",
    "FormatError",
    "VisChunk",
    "DatasetHeader",
    "SkyModel",
    "record_nbytes",
    "write_dataset",
    "read_dataset",
    "split_records",
    "generate_synthetic",
]

MAGIC = b"RVIS"
VERSION = 1
HEADER_SIZE = 64
_HEADER_STRUCT = struct.Struct("<4sIQIIIdd20s")
assert _HEADER_STRUCT.size == HEADER_SIZE

# Records per block of ``read_dataset``.
READ_BLOCK = 16384


class FormatError(OSError, ValueError):
    """Raised for malformed dataset and trace files, for headers holding
    invalid values and for records out of time order; an I/O error, as
    ``gzip.BadGzipFile`` is, and also a ``ValueError``, as
    ``io.UnsupportedOperation`` is."""


@dataclass
class DatasetHeader:
    """Header fields; the format version is not one: :meth:`pack` writes
    :data:`VERSION` and :meth:`unpack` rejects any other."""

    n_records: int
    n_freq: int
    n_corr: int
    n_time_slices: int
    w_min_native: float
    w_max_native: float
    reserved: bytes = b"\x00" * 20

    def __post_init__(self):
        if self.n_records < 1:
            raise ValueError("n_records must be >= 1")
        if self.n_freq < 1 or self.n_corr < 1 or self.n_time_slices < 1:
            raise ValueError("n_freq, n_corr and n_time_slices must be >= 1")
        # Written as "inside" so that NaN, which fails every comparison,
        # is rejected too.
        if not -math.inf < self.w_min_native <= self.w_max_native < math.inf:
            raise ValueError("w_min_native and w_max_native must be finite, "
                             "with w_min_native <= w_max_native")
        if len(self.reserved) != 20:
            raise ValueError("reserved block must be exactly 20 bytes")

    @property
    def n_chan(self) -> int:
        return self.n_freq * self.n_corr

    def pack(self) -> bytes:
        return _HEADER_STRUCT.pack(
            MAGIC, VERSION, self.n_records, self.n_freq, self.n_corr,
            self.n_time_slices, self.w_min_native, self.w_max_native,
            self.reserved,
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "DatasetHeader":
        if len(raw) < HEADER_SIZE:
            raise FormatError("truncated header")
        magic, version, n_records, n_freq, n_corr, n_time, wmin, wmax, res = (
            _HEADER_STRUCT.unpack(raw[:HEADER_SIZE])
        )
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise FormatError(f"unsupported version {version}")
        try:
            return cls(
                n_records=n_records, n_freq=n_freq, n_corr=n_corr,
                n_time_slices=n_time, w_min_native=wmin, w_max_native=wmax,
                reserved=res,
            )
        except ValueError as exc:
            raise FormatError(f"bad header: {exc}") from exc


class VisChunk:
    """Column-wise block of visibility records.

    Arrays: ``u``, ``v``, ``w`` float64 (n,), ``time_index`` uint32 (n,),
    ``vis`` complex64 (n, n_chan), ``weight`` float32 (n, n_chan).
    """

    def __init__(self, u, v, w, time_index, vis, weight):
        self.u = np.ascontiguousarray(u, dtype=np.float64)
        self.v = np.ascontiguousarray(v, dtype=np.float64)
        self.w = np.ascontiguousarray(w, dtype=np.float64)
        self.time_index = np.ascontiguousarray(time_index, dtype=np.uint32)
        self.vis = np.ascontiguousarray(np.atleast_2d(vis), dtype=np.complex64)
        self.weight = np.ascontiguousarray(np.atleast_2d(weight), dtype=np.float32)
        n = len(self.u)
        if not (len(self.v) == len(self.w) == len(self.time_index) == n
                and self.vis.shape[0] == n and self.weight.shape == self.vis.shape):
            raise ValueError("inconsistent column lengths")

    def __len__(self) -> int:
        return len(self.u)

    @property
    def n_chan(self) -> int:
        return self.vis.shape[1]

    def rows(self, index) -> "VisChunk":
        return VisChunk(self.u[index], self.v[index], self.w[index],
                        self.time_index[index], self.vis[index], self.weight[index])

    def validate(self):
        # Written as "all inside" so that NaN, which fails every
        # comparison, is rejected with the out-of-range values.
        if not (np.all((self.u >= 0) & (self.u < 1)) and np.all((self.v >= 0) & (self.v < 1))):
            raise ValueError("u and v must lie in [0, 1)")
        if not np.all((self.w >= 0) & (self.w <= 1)):
            raise ValueError("w must lie in [0, 1]")
        if not np.all(np.isfinite(self.weight)) or np.any(self.weight < 0):
            raise ValueError("weights must be finite and >= 0")
        if not np.all(np.isfinite(self.vis)):
            raise ValueError("visibilities must be finite")

    @classmethod
    def concat(cls, chunks) -> "VisChunk":
        chunks = [c for c in chunks if len(c)]
        if not chunks:
            raise ValueError("nothing to concatenate")
        return cls(
            u=np.concatenate([c.u for c in chunks]),
            v=np.concatenate([c.v for c in chunks]),
            w=np.concatenate([c.w for c in chunks]),
            time_index=np.concatenate([c.time_index for c in chunks]),
            vis=np.concatenate([c.vis for c in chunks]),
            weight=np.concatenate([c.weight for c in chunks]),
        )


@dataclass(frozen=True)
class SkyModel:
    """Point sources as (l, m, flux) triples; every source inside the unit disc."""

    sources: tuple

    def __post_init__(self):
        src = tuple((float(l), float(m), float(f)) for l, m, f in self.sources)
        object.__setattr__(self, "sources", src)
        if not src:
            raise ValueError("sky model needs at least one source")
        for l, m, _ in src:
            if l * l + m * m >= 1.0:
                raise ValueError(f"source ({l}, {m}) outside the unit disc")

    @classmethod
    def parse(cls, text: str) -> "SkyModel":
        """Parse ``"l,m,flux;l,m,flux;..."``."""
        triples = []
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            bits = part.split(",")
            if len(bits) != 3:
                raise ValueError(f"bad source triple {part!r}")
            triples.append(tuple(float(b) for b in bits))
        return cls(sources=tuple(triples))


def record_nbytes(n_chan: int) -> int:
    return 28 + 12 * n_chan


def _record_dtype(n_chan: int) -> np.dtype:
    return np.dtype({
        "names": ["u", "v", "w", "time_index", "vis", "weight"],
        "formats": ["<f8", "<f8", "<f8", "<u4", ("<f4", (n_chan, 2)), ("<f4", (n_chan,))],
        "offsets": [0, 8, 16, 24, 28, 28 + 8 * n_chan],
        "itemsize": record_nbytes(n_chan),
    })


def write_dataset(chunk: VisChunk, header: DatasetHeader, path) -> None:
    """Write a dataset file; ``read_dataset`` of the result is bit-identical."""
    if len(chunk) != header.n_records:
        raise ValueError(
            f"header/record count mismatch: header says {header.n_records}, "
            f"got {len(chunk)} records")
    if chunk.n_chan != header.n_chan:
        raise ValueError(
            f"channel count mismatch: header says {header.n_chan}, "
            f"records carry {chunk.n_chan}")
    chunk.validate()
    packed = np.empty(len(chunk), dtype=_record_dtype(header.n_chan))
    packed["u"] = chunk.u
    packed["v"] = chunk.v
    packed["w"] = chunk.w
    packed["time_index"] = chunk.time_index
    packed["vis"][..., 0] = chunk.vis.real
    packed["vis"][..., 1] = chunk.vis.imag
    packed["weight"] = chunk.weight
    with open(path, "wb") as fh:
        fh.write(header.pack())
        fh.write(packed.tobytes())


def read_dataset(path, rank: int = 0, n_ranks: int = 1):
    """Read rank ``rank``'s share of a dataset file: the records
    :func:`~wstack.mesh.partition_1d` gives it of ``n_ranks``, in file
    order. A share may be empty.

    The share is read in blocks (see the module docs). A rank after the
    first also reads the record before its share, so that the time-order
    check covers the boundary with the previous rank's share. Raises
    :class:`FormatError` for a bad header, a file whose size does not match
    it, a read that ends short of that size, or records out of time order.
    Returns ``(header, VisChunk)``.
    """
    with open(path, "rb") as fh:
        header = DatasetHeader.unpack(fh.read(HEADER_SIZE))
        n_chan = header.n_chan
        rec, dtype = record_nbytes(n_chan), _record_dtype(n_chan)
        payload = os.fstat(fh.fileno()).st_size - HEADER_SIZE
        expected = header.n_records * rec
        if payload != expected:
            raise FormatError(
                f"truncated file: {payload} payload bytes, expected {expected}")
        lo, count = partition_1d(header.n_records, n_ranks, rank)
        chunk = VisChunk(np.empty(count), np.empty(count), np.empty(count),
                         np.empty(count, dtype=np.uint32),
                         np.empty((count, n_chan), dtype=np.complex64),
                         np.empty((count, n_chan), dtype=np.float32))
        # (re, im) float32 pairs, as the file stores them
        vis = chunk.vis.view(np.float32).reshape(count, n_chan, 2)
        columns = (("u", chunk.u), ("v", chunk.v), ("w", chunk.w),
                   ("time_index", chunk.time_index), ("vis", vis), ("weight", chunk.weight))
        raw = np.empty(min(count, READ_BLOCK) * rec, dtype=np.uint8)
        before = None
        if lo and count:
            fh.seek(HEADER_SIZE + (lo - 1) * rec)
            before = _read_into(fh, raw[:rec]).view(dtype)["time_index"][0]
        fh.seek(HEADER_SIZE + lo * rec)
        for a in range(0, count, READ_BLOCK):
            b = min(a + READ_BLOCK, count)
            block = _read_into(fh, raw[:(b - a) * rec]).view(dtype)
            for name, column in columns:
                column[a:b] = block[name]
    t = chunk.time_index
    if np.any(t[1:] < t[:-1]) or (before is not None and t[0] < before):
        raise FormatError("records must be sorted by time_index")
    return header, chunk


def _read_into(fh, buf: np.ndarray) -> np.ndarray:
    """``buf`` filled from ``fh``; a file that ends first raises
    :class:`FormatError`."""
    got = fh.readinto(buf)
    if got != buf.nbytes:
        raise FormatError(f"truncated file: read {got} of {buf.nbytes} bytes")
    return buf


def split_records(chunk: VisChunk, n_ranks: int) -> list[VisChunk]:
    """Split in-memory records across ranks as :func:`read_dataset` splits
    a file: rank r gets the r-th :func:`~wstack.mesh.partition_1d` share."""
    return [chunk.rows(slice(lo, lo + count))
            for lo, count in (partition_1d(len(chunk), n_ranks, r) for r in range(n_ranks))]


def point_source_visibility(sky: SkyModel, u_native, v_native, w_native):
    """Direct evaluation of the visibility integral for point sources.

    Each source contributes ``flux / n * exp(-2i pi (u l + v m + w (n - 1)))``
    with ``n = sqrt(1 - l^2 - m^2)`` and de-normalized baseline coordinates.
    """
    u_native = np.asarray(u_native, dtype=np.float64)
    out = np.zeros(u_native.shape, dtype=np.complex128)
    for l, m, flux in sky.sources:
        n = np.sqrt(1.0 - l * l - m * m)
        phase = -2.0 * np.pi * (u_native * l + v_native * m + w_native * (n - 1.0))
        out += (flux / n) * np.exp(1j * phase)
    return out


def generate_synthetic(
    sky: SkyModel,
    n_records: int,
    n_freq: int,
    seed: int,
    *,
    n_corr: int = 1,
    n_time_slices: int = 8,
    cell_size_lm: float = 1e-3,
    w_min_native: float = 0.0,
    w_max_native: float = 0.0,
):
    """Seeded synthetic dataset evaluating the visibility integral exactly.

    Coordinates are drawn uniformly (u, v in [0, 1), w in [0, 1]) from a
    PCG64 generator; the PRNG name and seed are recorded in the header's
    reserved bytes. De-normalization matches the imaging grid: a baseline
    at normalized u corresponds to ``u / cell_size_lm`` in natural units,
    and w maps affinely onto ``[w_min_native, w_max_native]``. All channels
    of one record share the record's value; weights are 1.

    Returns ``(DatasetHeader, VisChunk)``.
    """
    if n_records < 1:
        raise ValueError("n_records must be >= 1")
    if n_freq < 1 or n_corr < 1 or n_time_slices < 1:
        raise ValueError("n_freq, n_corr and n_time_slices must be >= 1")
    if not cell_size_lm > 0:
        raise ValueError("cell_size_lm must be positive")
    rng = np.random.default_rng(seed)
    u = rng.random(n_records)
    v = rng.random(n_records)
    w = rng.random(n_records)
    time_index = (np.arange(n_records, dtype=np.uint64) * n_time_slices
                  // n_records).astype(np.uint32)
    value = point_source_visibility(
        sky,
        u / cell_size_lm,
        v / cell_size_lm,
        w_min_native + w * (w_max_native - w_min_native),
    )
    n_chan = n_freq * n_corr
    vis = np.repeat(value.astype(np.complex64)[:, None], n_chan, axis=1)
    weight = np.ones((n_records, n_chan), dtype=np.float32)
    header = DatasetHeader(
        n_records=n_records, n_freq=n_freq, n_corr=n_corr,
        n_time_slices=n_time_slices,
        w_min_native=w_min_native, w_max_native=w_max_native,
        reserved=struct.pack("<12sQ", b"pcg64", seed & 0xFFFFFFFFFFFFFFFF),
    )
    return header, VisChunk(u, v, w, time_index, vis, weight)
