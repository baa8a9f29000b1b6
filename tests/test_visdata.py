import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wstack import visdata
from wstack.comms import prepare_chunk
from wstack.mesh import GridSpec
from wstack.visdata import (ChunkSpec, DatasetHeader, FormatError, SkyModel,
                            VisChunk, VisRecord)


def small_chunk(n=10, n_chan=2, seed=0, n_slices=4):
    rng = np.random.default_rng(seed)
    return VisChunk(
        u=rng.random(n), v=rng.random(n), w=rng.random(n),
        time_index=(np.arange(n) * n_slices // n).astype(np.uint32),
        vis=(rng.standard_normal((n, n_chan)) + 1j * rng.standard_normal((n, n_chan))
             ).astype(np.complex64),
        weight=rng.random((n, n_chan)).astype(np.float32),
    )


def header_for(chunk, n_freq, n_corr, n_slices, w0=0.0, w1=0.0):
    return DatasetHeader(n_records=len(chunk), n_freq=n_freq, n_corr=n_corr,
                         n_time_slices=n_slices, w_min_native=w0, w_max_native=w1)


# ---------------------------------------------------------------------------
# binary format
# ---------------------------------------------------------------------------

def test_minimal_file_size(tmp_path):
    rec = VisRecord(u=0.5, v=0.5, w=0.5, time_index=0,
                    vis=np.array([1 + 2j], dtype=np.complex64),
                    weight=np.array([1.0], dtype=np.float32))
    header = DatasetHeader(n_records=1, n_freq=1, n_corr=1, n_time_slices=1,
                           w_min_native=0.0, w_max_native=0.0)
    path = tmp_path / "one.rvis"
    visdata.write_dataset([rec], header, path)
    # 64-byte header block (44 bytes of fields, padded to a 32-byte
    # boundary) + 28 coordinate/time bytes + 8 vis bytes + 4 weight bytes
    assert path.stat().st_size == visdata.HEADER_SIZE + 28 + 8 + 4
    assert path.read_bytes()[:4] == b"RVIS"


def test_zero_records_is_invalid():
    with pytest.raises(ValueError):
        DatasetHeader(n_records=0, n_freq=1, n_corr=1, n_time_slices=1,
                      w_min_native=0.0, w_max_native=0.0)


def test_count_mismatch_rejected(tmp_path):
    chunk = small_chunk(5)
    header = header_for(chunk, 2, 1, 4)
    bad = DatasetHeader(n_records=7, n_freq=2, n_corr=1, n_time_slices=4,
                        w_min_native=0.0, w_max_native=0.0)
    with pytest.raises(ValueError, match="count mismatch"):
        visdata.write_dataset(chunk, bad, tmp_path / "x.rvis")
    del header


@pytest.mark.parametrize("column", ["u", "v", "w", "vis"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_values_rejected(tmp_path, column, bad):
    chunk = small_chunk(5)
    getattr(chunk, column)[2] = bad
    with pytest.raises(ValueError, match="must"):
        visdata.write_dataset(chunk, header_for(chunk, 2, 1, 4), tmp_path / "x.rvis")
    assert not (tmp_path / "x.rvis").exists()
    with pytest.raises(ValueError, match="must"):
        prepare_chunk(chunk, GridSpec(n_u=16, n_v=16, n_w=2, cell_size_lm=1e-3), 0)


def test_round_trip_rewrite_identical(tmp_path):
    chunk = small_chunk(1000, n_chan=3, seed=5)
    header = header_for(chunk, 3, 1, 4, w0=-5.0, w1=95.0)
    p1, p2 = tmp_path / "a.rvis", tmp_path / "b.rvis"
    visdata.write_dataset(chunk, header, p1)
    h2, c2 = visdata.read_dataset(p1)
    visdata.write_dataset(c2, h2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert h2.w_min_native == -5.0 and h2.w_max_native == 95.0


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 40), n_chan=st.integers(1, 4), seed=st.integers(0, 10**6))
def test_round_trip_property(tmp_path_factory, n, n_chan, seed):
    chunk = small_chunk(n, n_chan, seed)
    header = header_for(chunk, n_chan, 1, 4)
    path = tmp_path_factory.mktemp("rt") / "d.rvis"
    visdata.write_dataset(chunk, header, path)
    _, back = visdata.read_dataset(path)
    assert np.array_equal(back.u, chunk.u)
    assert np.array_equal(back.vis, chunk.vis)
    assert np.array_equal(back.weight, chunk.weight)


@pytest.mark.parametrize("w0, w1", [(math.nan, 0.0), (0.0, math.nan),
                                    (-math.inf, 0.0), (0.0, math.inf)])
def test_non_finite_header_w_extent_rejected(tmp_path, w0, w1):
    with pytest.raises(ValueError, match="finite"):
        DatasetHeader(n_records=1, n_freq=1, n_corr=1, n_time_slices=1,
                      w_min_native=w0, w_max_native=w1)
    # The same values read from a file's header fields.
    chunk = small_chunk(2)
    path = tmp_path / "w.rvis"
    visdata.write_dataset(chunk, header_for(chunk, 2, 1, 4), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<dd", raw, 28, w0, w1)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="finite"):
        visdata.read_dataset(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.rvis"
    path.write_bytes(b"JUNK" + b"\x00" * 100)
    with pytest.raises(FormatError, match="bad magic"):
        visdata.read_dataset(path)


def test_version_mismatch(tmp_path):
    chunk = small_chunk(2)
    path = tmp_path / "v.rvis"
    visdata.write_dataset(chunk, header_for(chunk, 2, 1, 4), path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        visdata.read_dataset(path)


def test_truncated_file(tmp_path):
    chunk = small_chunk(4)
    path = tmp_path / "t.rvis"
    visdata.write_dataset(chunk, header_for(chunk, 2, 1, 4), path)
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(FormatError, match="truncated"):
        visdata.read_dataset(path)


# ---------------------------------------------------------------------------
# chunked reads
# ---------------------------------------------------------------------------

def test_identity_chunk(tmp_path):
    chunk = small_chunk(20)
    path = tmp_path / "d.rvis"
    visdata.write_dataset(chunk, header_for(chunk, 2, 1, 4), path)
    _, whole = visdata.read_dataset(path, ChunkSpec("frequency", 0, 1))
    assert len(whole) == 20 and whole.n_chan == 2


def test_frequency_chunk_halves_channels(tmp_path):
    chunk = small_chunk(12, n_chan=2)
    path = tmp_path / "d.rvis"
    visdata.write_dataset(chunk, header_for(chunk, 2, 1, 4), path)
    _, c0 = visdata.read_dataset(path, ChunkSpec("frequency", 0, 2))
    _, c1 = visdata.read_dataset(path, ChunkSpec("frequency", 1, 2))
    assert c0.n_chan == c1.n_chan == 1
    assert np.array_equal(c0.vis[:, 0], chunk.vis[:, 0])
    assert np.array_equal(c1.vis[:, 0], chunk.vis[:, 1])
    assert len(c0) == len(c1) == 12


def test_time_chunks_partition_records(tmp_path):
    chunk = small_chunk(50, n_slices=8)
    path = tmp_path / "d.rvis"
    visdata.write_dataset(chunk, header_for(chunk, 2, 1, 8), path)
    pieces = [visdata.read_dataset(path, ChunkSpec("time", k, 8))[1] for k in range(8)]
    assert sum(len(p) for p in pieces) == 50
    reunion = VisChunk.concat(pieces)
    assert np.array_equal(reunion.u, chunk.u)
    assert np.array_equal(reunion.time_index, chunk.time_index)
    for k, piece in enumerate(pieces):
        assert np.all(piece.time_index == k)


def test_chunk_union_is_exact_for_any_count(tmp_path):
    chunk = small_chunk(37, n_chan=3, n_slices=5)
    path = tmp_path / "d.rvis"
    visdata.write_dataset(chunk, header_for(chunk, 3, 1, 5), path)
    for axis, n_chunks in (("time", 3), ("frequency", 2), ("time", 5)):
        pieces = [visdata.read_dataset(path, ChunkSpec(axis, k, n_chunks))[1]
                  for k in range(n_chunks)]
        if axis == "time":
            reunion = VisChunk.concat(pieces)
            assert np.array_equal(reunion.vis, chunk.vis)
        else:
            joined = np.concatenate([p.vis for p in pieces], axis=1)
            assert np.array_equal(joined, chunk.vis)


def test_chunk_spec_validation():
    with pytest.raises(ValueError):
        ChunkSpec("space", 0, 1)
    with pytest.raises(ValueError):
        ChunkSpec("time", 2, 2)


# ---------------------------------------------------------------------------
# time-ordered partitioning
# ---------------------------------------------------------------------------

def test_one_slice_per_rank():
    chunk = small_chunk(64, n_slices=8)
    parts = visdata.partition_time_ordered(chunk, 8)
    assert len(parts) == 8
    for k, part in enumerate(parts):
        assert np.all(part.time_index == k)
    assert sum(len(p) for p in parts) == 64


def test_single_rank_partition_is_identity():
    chunk = small_chunk(30, n_slices=6)
    (part,) = visdata.partition_time_ordered(chunk, 1)
    assert np.array_equal(part.u, chunk.u)
    assert np.array_equal(part.vis, chunk.vis)


def test_ten_slices_four_ranks():
    chunk = small_chunk(100, n_slices=10)
    parts = visdata.partition_time_ordered(chunk, 4)
    slice_counts = [len(np.unique(p.time_index)) for p in parts]
    assert slice_counts == [3, 3, 2, 2]
    reunion = VisChunk.concat(parts)
    assert np.array_equal(reunion.u, chunk.u)


@pytest.mark.parametrize("times, starts", [
    ([0, 0, 1, 1, 1, 3], [0, 2, 5]), ([7], [0]), ([], []), ([2, 2, 2], [0]),
])
def test_time_slice_starts(times, starts):
    n = len(times)
    chunk = VisChunk(u=np.zeros(n), v=np.zeros(n), w=np.zeros(n),
                     time_index=np.array(times, dtype=np.uint32),
                     vis=np.zeros((n, 1), np.complex64), weight=np.ones((n, 1), np.float32))
    assert visdata.time_slice_starts(chunk).tolist() == starts


def test_unsorted_input_rejected():
    chunk = small_chunk(10, n_slices=5)
    shuffled = chunk.rows(np.argsort(chunk.u))
    if np.all(np.diff(shuffled.time_index.astype(int)) >= 0):
        pytest.skip("shuffle landed sorted")
    with pytest.raises(visdata.FormatError, match="sorted"):
        visdata.partition_time_ordered(shuffled, 2)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def test_phase_center_source_gives_unit_visibilities():
    sky = SkyModel(sources=((0.0, 0.0, 3.0),))
    _, chunk = visdata.generate_synthetic(sky, 200, 2, seed=1)
    assert np.all(chunk.vis == np.complex64(3.0))
    assert np.all(chunk.weight == 1.0)


def test_mirrored_sources_give_real_visibilities():
    sky = SkyModel(sources=((0.01, 0.0, 1.0), (-0.01, 0.0, 1.0)))
    _, chunk = visdata.generate_synthetic(sky, 100, 1, seed=2,
                                          w_min_native=0.0, w_max_native=0.0)
    assert np.max(np.abs(chunk.vis.imag)) <= 1e-7


def test_visibility_matches_high_precision_evaluation():
    import mpmath

    mpmath.mp.dps = 50
    l, m, flux = 0.02, -0.013, 1.7
    u_n, v_n, w_n = 311.25, -42.5, 17.0
    got = visdata.point_source_visibility(
        SkyModel(sources=((l, m, flux),)), u_n, v_n, w_n)
    n = mpmath.sqrt(1 - mpmath.mpf(l) ** 2 - mpmath.mpf(m) ** 2)
    phase = -2 * mpmath.pi * (u_n * l + v_n * m + w_n * (n - 1))
    expected = flux / n * mpmath.exp(1j * phase)
    assert abs(got.real - float(expected.real)) < 1e-12
    assert abs(got.imag - float(expected.imag)) < 1e-12


def test_generator_is_deterministic(tmp_path):
    sky = SkyModel(sources=((0.01, 0.005, 2.0),))
    h1, c1 = visdata.generate_synthetic(sky, 500, 2, seed=77,
                                        w_min_native=1.0, w_max_native=9.0)
    h2, c2 = visdata.generate_synthetic(sky, 500, 2, seed=77,
                                        w_min_native=1.0, w_max_native=9.0)
    p1, p2 = tmp_path / "a.rvis", tmp_path / "b.rvis"
    visdata.write_dataset(c1, h1, p1)
    visdata.write_dataset(c2, h2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_generator_records_prng_in_header():
    sky = SkyModel(sources=((0.0, 0.0, 1.0),))
    header, _ = visdata.generate_synthetic(sky, 10, 1, seed=123)
    name, seed = struct.unpack("<12sQ", header.reserved)
    assert name.rstrip(b"\x00") == b"pcg64"
    assert seed == 123


def test_source_outside_unit_disc_rejected():
    with pytest.raises(ValueError, match="unit disc"):
        SkyModel(sources=((0.8, 0.8, 1.0),))


def test_sky_model_parsing():
    sky = SkyModel.parse("0.01,-0.02,1.5; 0,0,2")
    assert sky.sources == ((0.01, -0.02, 1.5), (0.0, 0.0, 2.0))
    with pytest.raises(ValueError):
        SkyModel.parse("1,2")
