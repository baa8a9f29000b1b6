"""Visibility records, the on-disk binary format, chunked reads, synthesis.

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

Datasets are held in memory column-wise (:class:`VisChunk`); the
record-level :class:`VisRecord` view exists for single-sample work.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .mesh import partition_1d

__all__ = [
    "MAGIC",
    "VERSION",
    "HEADER_SIZE",
    "FormatError",
    "VisRecord",
    "VisChunk",
    "DatasetHeader",
    "ChunkSpec",
    "SkyModel",
    "record_nbytes",
    "write_dataset",
    "read_dataset",
    "chunk_channel_range",
    "chunk_slice_range",
    "partition_time_ordered",
    "generate_synthetic",
]

MAGIC = b"RVIS"
VERSION = 1
HEADER_SIZE = 64
_HEADER_STRUCT = struct.Struct("<4sIQIIIdd20s")
assert _HEADER_STRUCT.size == HEADER_SIZE


class FormatError(Exception):
    """Raised for malformed dataset or image files."""


@dataclass
class DatasetHeader:
    n_records: int
    n_freq: int
    n_corr: int
    n_time_slices: int
    w_min_native: float
    w_max_native: float
    version: int = VERSION
    reserved: bytes = b"\x00" * 20

    def __post_init__(self):
        if self.n_records < 1:
            raise ValueError("n_records must be >= 1")
        if self.n_freq < 1 or self.n_corr < 1 or self.n_time_slices < 1:
            raise ValueError("n_freq, n_corr and n_time_slices must be >= 1")
        if self.w_min_native > self.w_max_native:
            raise ValueError("w_min_native must be <= w_max_native")
        if len(self.reserved) != 20:
            raise ValueError("reserved block must be exactly 20 bytes")

    @property
    def n_chan(self) -> int:
        return self.n_freq * self.n_corr

    def pack(self) -> bytes:
        return _HEADER_STRUCT.pack(
            MAGIC, self.version, self.n_records, self.n_freq, self.n_corr,
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
        return cls(
            n_records=n_records, n_freq=n_freq, n_corr=n_corr,
            n_time_slices=n_time, w_min_native=wmin, w_max_native=wmax,
            version=version, reserved=res,
        )


@dataclass
class VisRecord:
    """One (u, v, w) sample with per-channel visibilities and weights."""

    u: float
    v: float
    w: float
    time_index: int
    vis: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        self.vis = np.asarray(self.vis, dtype=np.complex64)
        self.weight = np.asarray(self.weight, dtype=np.float32)
        if not (0.0 <= self.u < 1.0 and 0.0 <= self.v < 1.0):
            raise ValueError("u and v must lie in [0, 1)")
        if not (0.0 <= self.w <= 1.0):
            raise ValueError("w must lie in [0, 1]")
        if self.vis.shape != self.weight.shape or self.vis.ndim != 1:
            raise ValueError("vis and weight must be 1-d and the same length")
        if not np.all(np.isfinite(self.weight)) or np.any(self.weight < 0):
            raise ValueError("weights must be finite and >= 0")


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

    def record(self, i: int) -> VisRecord:
        return VisRecord(
            u=float(self.u[i]), v=float(self.v[i]), w=float(self.w[i]),
            time_index=int(self.time_index[i]),
            vis=self.vis[i].copy(), weight=self.weight[i].copy(),
        )

    def __iter__(self):
        return (self.record(i) for i in range(len(self)))

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
    def from_records(cls, records) -> "VisChunk":
        records = list(records)
        if not records:
            raise ValueError("cannot build a chunk from zero records")
        return cls(
            u=[r.u for r in records], v=[r.v for r in records],
            w=[r.w for r in records], time_index=[r.time_index for r in records],
            vis=np.stack([r.vis for r in records]),
            weight=np.stack([r.weight for r in records]),
        )

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


_AXES = ("frequency", "time")


@dataclass(frozen=True)
class ChunkSpec:
    """Which piece of a dataset to load: split by frequency or by time."""

    axis: str
    chunk_index: int
    n_chunks: int

    def __post_init__(self):
        if self.axis not in _AXES:
            raise ValueError(f"axis must be one of {_AXES}, got {self.axis!r}")
        if self.n_chunks < 1 or not (0 <= self.chunk_index < self.n_chunks):
            raise ValueError(
                f"chunk_index {self.chunk_index} outside range(0, {self.n_chunks})")


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


def write_dataset(records, header: DatasetHeader, path) -> None:
    """Write a dataset file; ``read_dataset`` of the result is bit-identical."""
    chunk = records if isinstance(records, VisChunk) else VisChunk.from_records(records)
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


def chunk_channel_range(header: DatasetHeader, chunk: ChunkSpec) -> tuple[int, int]:
    """Channel-column range [start, stop) selected by a frequency chunk."""
    f0, fc = partition_1d(header.n_freq, chunk.n_chunks, chunk.chunk_index)
    return f0 * header.n_corr, (f0 + fc) * header.n_corr


def chunk_slice_range(header: DatasetHeader, chunk: ChunkSpec) -> tuple[int, int]:
    """Time-slice range [start, stop) selected by a time chunk."""
    s0, sc = partition_1d(header.n_time_slices, chunk.n_chunks, chunk.chunk_index)
    return s0, s0 + sc


def read_dataset(path, chunk: ChunkSpec | None = None):
    """Read a dataset file, optionally restricted to one chunk.

    Frequency chunks keep every record but slice the channel columns; time
    chunks keep every channel but select the records whose time_index falls
    in the chunk's slice range. The union over all chunk indices rebuilds
    the full dataset exactly once. Returns ``(header, VisChunk)``.
    """
    with open(path, "rb") as fh:
        header = DatasetHeader.unpack(fh.read(HEADER_SIZE))
        body = fh.read()
    expected = header.n_records * record_nbytes(header.n_chan)
    if len(body) != expected:
        raise FormatError(
            f"truncated file: {len(body)} payload bytes, expected {expected}")
    packed = np.frombuffer(body, dtype=_record_dtype(header.n_chan))
    vis = (packed["vis"][..., 0] + 1j * packed["vis"][..., 1]).astype(np.complex64)
    data = VisChunk(packed["u"], packed["v"], packed["w"],
                    packed["time_index"], vis, packed["weight"])
    if chunk is None:
        return header, data
    if chunk.axis == "frequency":
        c0, c1 = chunk_channel_range(header, chunk)
        data = VisChunk(data.u, data.v, data.w, data.time_index,
                        data.vis[:, c0:c1], data.weight[:, c0:c1])
    else:
        s0, s1 = chunk_slice_range(header, chunk)
        mask = (data.time_index >= s0) & (data.time_index < s1)
        data = data.rows(mask)
    return header, data


def partition_time_ordered(records, n_ranks: int) -> list[VisChunk]:
    """Split time-sorted records into contiguous runs of time slices.

    Rank ``r`` gets the r-th balanced contiguous group of the distinct time
    slices present, so concatenating the outputs reproduces the input.
    """
    chunk = records if isinstance(records, VisChunk) else VisChunk.from_records(records)
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    t = chunk.time_index
    if len(t) > 1 and np.any(np.diff(t.astype(np.int64)) < 0):
        raise ValueError("records must be sorted by time_index")
    slices = np.unique(t)
    if n_ranks > len(slices):
        raise ValueError(
            f"n_ranks {n_ranks} exceeds the {len(slices)} time slices present")
    out = []
    for r in range(n_ranks):
        s0, sc = partition_1d(len(slices), n_ranks, r)
        lo = np.searchsorted(t, slices[s0], side="left")
        hi = np.searchsorted(t, slices[s0 + sc - 1], side="right")
        out.append(chunk.rows(slice(lo, hi)))
    return out


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
    if cell_size_lm <= 0:
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
