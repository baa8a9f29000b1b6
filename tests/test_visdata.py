import math
import struct
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wstack import visdata
from wstack.comms import prepare_chunk
from wstack.mesh import GridSpec, partition_1d
from wstack.visdata import DatasetHeader, FormatError, SkyModel, VisChunk


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
    one = VisChunk(u=[0.5], v=[0.5], w=[0.5], time_index=[0], vis=[[1 + 2j]], weight=[[1.0]])
    header = DatasetHeader(n_records=1, n_freq=1, n_corr=1, n_time_slices=1,
                           w_min_native=0.0, w_max_native=0.0)
    path = tmp_path / "one.rvis"
    visdata.write_dataset(one, header, path)
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
        prepare_chunk(chunk, GridSpec(n_u=16, n_v=16, n_w=2, cell_size_lm=1e-3))


def test_round_trip_rewrite_identical(tmp_path):
    chunk = small_chunk(1000, n_chan=3, seed=5)
    # Signed zeros in either part survive the read.
    chunk.vis[:4, 0] = [complex(-0.0, 1.0), complex(-0.0, -0.0), complex(0.0, -0.0),
                        complex(-0.0, 0.0)]
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


def test_no_header_writes_an_unreadable_version(tmp_path):
    chunk = small_chunk(2)
    with pytest.raises(TypeError, match="version"):
        DatasetHeader(n_records=2, n_freq=2, n_corr=1, n_time_slices=4,
                      w_min_native=0.0, w_max_native=0.0, version=2)
    path = tmp_path / "v.rvis"
    visdata.write_dataset(chunk, header_for(chunk, 2, 1, 4), path)
    assert struct.unpack_from("<I", path.read_bytes(), 4) == (visdata.VERSION,)
    header, back = visdata.read_dataset(path)
    assert header == header_for(chunk, 2, 1, 4) and np.array_equal(back.vis, chunk.vis)


def test_truncated_file(tmp_path):
    chunk = small_chunk(4)
    path = tmp_path / "t.rvis"
    visdata.write_dataset(chunk, header_for(chunk, 2, 1, 4), path)
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(FormatError, match="truncated"):
        visdata.read_dataset(path)


# ---------------------------------------------------------------------------
# per-rank reads and the in-memory record split
# ---------------------------------------------------------------------------

def test_identity_chunk(tmp_path):
    chunk = small_chunk(20)
    path = tmp_path / "d.rvis"
    visdata.write_dataset(chunk, header_for(chunk, 2, 1, 4), path)
    _, whole = visdata.read_dataset(path, 0, 1)
    assert len(whole) == 20 and whole.n_chan == 2
    assert np.array_equal(whole.vis, chunk.vis)


def test_time_chunks_partition_records(tmp_path):
    # With equal time slices, one per rank, each rank's share of the
    # records is exactly one time slice.
    chunk = small_chunk(64, n_slices=8)
    path = tmp_path / "d.rvis"
    visdata.write_dataset(chunk, header_for(chunk, 2, 1, 8), path)
    pieces = [visdata.read_dataset(path, k, 8)[1] for k in range(8)]
    for k, piece in enumerate(pieces):
        assert len(piece) == 8 and np.all(piece.time_index == k)


def test_chunk_union_is_exact_for_any_count(tmp_path):
    # Shares read from the file reassemble it, and equal the in-memory
    # split; with more ranks than records, the last shares are empty.
    for n in (37, 3):
        chunk = small_chunk(n, n_chan=3, n_slices=5)
        path = tmp_path / f"d{n}.rvis"
        visdata.write_dataset(chunk, header_for(chunk, 3, 1, 5), path)
        for n_ranks in range(1, 6):
            pieces = [visdata.read_dataset(path, r, n_ranks)[1] for r in range(n_ranks)]
            assert [len(p) for p in pieces] == [partition_1d(n, n_ranks, r)[1]
                                                for r in range(n_ranks)]
            reunion = VisChunk.concat(pieces)
            assert np.array_equal(reunion.u, chunk.u)
            assert np.array_equal(reunion.time_index, chunk.time_index)
            assert np.array_equal(reunion.vis, chunk.vis)
            assert np.array_equal(reunion.weight, chunk.weight)
            for piece, part in zip(pieces, visdata.split_records(chunk, n_ranks)):
                assert piece.n_chan == 3
                for column in ("u", "v", "w", "time_index", "vis", "weight"):
                    assert np.array_equal(getattr(piece, column), getattr(part, column))
            with pytest.raises(ValueError, match="partition index"):
                visdata.read_dataset(path, n_ranks, n_ranks)


def test_one_slice_per_rank():
    chunk = small_chunk(64, n_slices=8)
    parts = visdata.split_records(chunk, 8)
    assert len(parts) == 8
    for k, part in enumerate(parts):
        assert np.all(part.time_index == k)
    assert sum(len(p) for p in parts) == 64


def test_single_rank_partition_is_identity():
    chunk = small_chunk(30, n_slices=6)
    (part,) = visdata.split_records(chunk, 1)
    assert np.array_equal(part.u, chunk.u)
    assert np.array_equal(part.vis, chunk.vis)


def test_ten_slices_four_ranks():
    chunk = small_chunk(10, n_slices=10)
    parts = visdata.split_records(chunk, 4)
    assert [p.time_index.tolist() for p in parts] == [[0, 1, 2], [3, 4, 5], [6, 7], [8, 9]]
    reunion = VisChunk.concat(parts)
    assert np.array_equal(reunion.u, chunk.u)


def test_unsorted_input_rejected(tmp_path):
    chunk = small_chunk(10, n_slices=5)
    shuffled = chunk.rows(np.argsort(chunk.u))
    if np.all(np.diff(shuffled.time_index.astype(int)) >= 0):
        pytest.skip("shuffle landed sorted")
    path = tmp_path / "d.rvis"
    visdata.write_dataset(shuffled, header_for(shuffled, 2, 1, 5), path)
    with pytest.raises(visdata.FormatError, match="sorted"):
        visdata.read_dataset(path)


def test_descent_at_a_share_boundary_is_caught_by_the_later_share(tmp_path):
    # Each half is sorted; the time index falls between record 19 and 20,
    # the boundary of two ranks' shares. Rank 1 reads record 19 as well.
    chunk = small_chunk(40, n_slices=4)
    swapped = chunk.rows(np.r_[20:40, 0:20])
    path = tmp_path / "d.rvis"
    visdata.write_dataset(swapped, header_for(swapped, 2, 1, 4), path)
    _, first = visdata.read_dataset(path, 0, 2)
    assert len(first) == 20
    for rank, n_ranks in ((1, 2), (0, 1)):
        with pytest.raises(FormatError, match="sorted"):
            visdata.read_dataset(path, rank, n_ranks)


def test_a_file_that_shrinks_after_the_size_check_is_rejected(tmp_path, monkeypatch):
    # The file loses a whole record, or part of one, after read_dataset
    # checked its size against the header: the read ends early, and no
    # share comes back shorter than the header promised.
    chunk = small_chunk(40)
    path = tmp_path / "d.rvis"
    visdata.write_dataset(chunk, header_for(chunk, 2, 1, 4), path)
    size = path.stat().st_size
    monkeypatch.setattr(visdata.os, "fstat", lambda fd: types.SimpleNamespace(st_size=size))
    for cut in (visdata.record_nbytes(2), 7):
        with open(path, "r+b") as fh:
            fh.truncate(size - cut)
        for rank, n_ranks in ((0, 1), (1, 2)):
            with pytest.raises(FormatError, match="truncated"):
                visdata.read_dataset(path, rank, n_ranks)
        # The first half of the records is all there.
        assert np.array_equal(visdata.read_dataset(path, 0, 2)[1].vis, chunk.vis[:20])


def one_shot_columns(path, n_chan, lo, count):
    """A share's columns from one read of the whole payload."""
    packed = np.frombuffer(path.read_bytes()[visdata.HEADER_SIZE:],
                           dtype=visdata._record_dtype(n_chan))[lo:lo + count]
    vis = np.ascontiguousarray(packed["vis"]).view(np.complex64)[..., 0]
    return {"u": packed["u"], "v": packed["v"], "w": packed["w"],
            "time_index": packed["time_index"], "vis": vis, "weight": packed["weight"]}


def test_block_reads_equal_the_one_shot_columns_bit_for_bit(tmp_path):
    # Every share spans several read blocks, and no block divides the
    # record count; signed zeros survive.
    n = 6 * visdata.READ_BLOCK + 7
    chunk = small_chunk(n, n_chan=3, seed=11)
    chunk.u[::5] = -0.0
    chunk.vis[::7] = complex(-0.0, -0.0)
    path = tmp_path / "d.rvis"
    visdata.write_dataset(chunk, header_for(chunk, 3, 1, 4), path)
    for n_ranks in (1, 2, 3):
        for r in range(n_ranks):
            lo, count = partition_1d(n, n_ranks, r)
            _, share = visdata.read_dataset(path, r, n_ranks)
            for column, want in one_shot_columns(path, 3, lo, count).items():
                got = getattr(share, column)
                assert got.dtype == want.dtype and got.shape == want.shape, column
                assert got.tobytes() == want.tobytes(), (n_ranks, r, column)


def test_an_empty_share_has_empty_columns(tmp_path):
    chunk = small_chunk(3, n_chan=2)
    path = tmp_path / "d.rvis"
    visdata.write_dataset(chunk, header_for(chunk, 2, 1, 4), path)
    _, share = visdata.read_dataset(path, 4, 5)
    assert len(share) == 0 and share.n_chan == 2
    assert share.vis.shape == share.weight.shape == (0, 2)
    assert (share.u.dtype, share.time_index.dtype, share.vis.dtype, share.weight.dtype) == (
        np.float64, np.uint32, np.complex64, np.float32)


@pytest.mark.parametrize("where", ["block", "share"])
def test_descent_at_a_block_or_share_boundary_is_caught(tmp_path, where):
    # The time index falls only between records p - 1 and p: the first
    # record of the second read block of a one-rank read, or the first
    # record of rank 1's share of two, whose record before is read alone.
    n = 2 * visdata.READ_BLOCK + 101
    p = visdata.READ_BLOCK if where == "block" else partition_1d(n, 2, 1)[0]
    chunk = small_chunk(n)
    chunk.time_index[:] = 2 * np.arange(n)
    chunk.time_index[p - 1] = chunk.time_index[p] + 1
    path = tmp_path / "d.rvis"
    visdata.write_dataset(chunk, header_for(chunk, 2, 1, 4), path)
    with pytest.raises(FormatError, match="sorted"):
        visdata.read_dataset(path)
    caught_by = 0 if where == "block" else 1
    with pytest.raises(FormatError, match="sorted"):
        visdata.read_dataset(path, caught_by, 2)
    assert len(visdata.read_dataset(path, 1 - caught_by, 2)[1]) == partition_1d(n, 2, 1 - caught_by)[1]


def test_read_peak_is_the_share_and_one_block(tmp_path):
    # Rank 1 of 2 over 200k records x 4 channels: 100k records, 7.6 MB of
    # columns. Filling them block by block peaked at 1.18 of their bytes:
    # the columns, the 1.2 MB block buffer and the time-order check's mask.
    # One read of the share and the column copies out of it took 2.00.
    n = 200_000
    chunk = small_chunk(n, n_chan=4, seed=2)
    path = tmp_path / "d.rvis"
    visdata.write_dataset(chunk, header_for(chunk, 4, 1, 4), path)
    del chunk
    tracemalloc.start()
    try:
        _, share = visdata.read_dataset(path, 1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(getattr(share, c).nbytes for c in ("u", "v", "w", "time_index", "vis", "weight"))
    assert columns == partition_1d(n, 2, 1)[1] * visdata.record_nbytes(4)
    assert peak <= 1.2 * columns, f"{peak / columns:.3f} of the share's columns"


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
