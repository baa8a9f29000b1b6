import math

import numpy as np
import pytest

from wstack.comms import MessageLog, Topology, run_ranks
from wstack.mesh import GridSpec, partition_1d, pixel_n_block, pixel_to_lm
from wstack.transform import (COL_BLOCK, TRANSPOSE_BAND, FinalImage, apply_w_correction,
                               fft2d_slab, stack_planes, transpose_into, w_phase_factor,
                               write_image, write_pgm)

N_V, N_U = 16, 32
SPEC = GridSpec(n_u=N_U, n_v=N_V, n_w=1, cell_size_lm=1e-3)
# R = 1 ... 4; three ranks split both axes unevenly, 2x2 crosses nodes.
TOPOLOGIES = [Topology(1, 1), Topology(1, 2), Topology(1, 3), Topology(2, 2)]


def collect(blocks):
    """An ``into`` for :func:`fft2d_slab` that keeps a copy of each block
    with its first column, in ``blocks``."""
    return lambda c0, block: blocks.append((c0, block.copy()))


def column_blocks(plane, topo, log=None, spec=SPEC):
    """Each rank's :func:`fft2d_slab` of a copy of its rows of ``plane``,
    which the row transforms overwrite, as the ``(first column, block)``
    pairs handed to its consumer."""
    def fn(ctx):
        v0, vc = partition_1d(spec.n_v, topo.n_ranks, ctx.rank)
        blocks = []
        fft2d_slab(ctx, plane[v0:v0 + vc].copy(), spec, collect(blocks))
        return blocks
    return run_ranks(topo, fn, log=log)


def column_share(blocks):
    """A rank's columns, joined from its ``(first column, block)`` pairs."""
    return np.concatenate([block for _, block in blocks], axis=0)


@pytest.fixture
def plane():
    rng = np.random.default_rng(11)
    return rng.standard_normal((N_V, N_U)) + 1j * rng.standard_normal((N_V, N_U))


# The transform has no forward path; these two tests keep a one-value
# ``direction`` parameter so their ids stay those of the inverse cases.
@pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: f"{t.n_nodes}x{t.ranks_per_node}")
@pytest.mark.parametrize("direction, oracle", [("inverse", np.fft.ifft2)])
def test_slab_transform_matches_numpy(plane, topo, direction, oracle):
    R = topo.n_ranks
    out = [column_share(blocks) for blocks in column_blocks(plane, topo)]
    assert [b.shape for b in out] == [(partition_1d(N_U, R, r)[1], N_V) for r in range(R)]
    assert np.max(np.abs(np.concatenate(out, axis=0) - oracle(plane).T)) <= 1e-12


@pytest.mark.parametrize("topo, n_u", [(Topology(1, 1), 2 * COL_BLOCK),
                                       (Topology(1, 1), COL_BLOCK // 2),
                                       (Topology(1, 3), 4 * COL_BLOCK)],
                         ids=["1x1-two-blocks", "1x1-short-block", "1x3-uneven-tail"])
def test_column_blocks_reach_the_consumer_in_order_once_each(topo, n_u):
    # One rank: two full blocks, or one block shorter than COL_BLOCK; three
    # ranks: uneven shares of 4 * COL_BLOCK columns, each ending in a short
    # block. The blocks cover each rank's columns exactly once, in column
    # order, and join to the one-rank transform bit for bit.
    spec = GridSpec(n_u=n_u, n_v=16, n_w=1, cell_size_lm=1e-3)
    rng = np.random.default_rng(12)
    plane = rng.standard_normal((spec.n_v, spec.n_u)) + 1j * rng.standard_normal((spec.n_v, spec.n_u))
    R = topo.n_ranks
    got = column_blocks(plane, topo, spec=spec)
    for r, blocks in enumerate(got):
        uc = partition_1d(spec.n_u, R, r)[1]
        starts = list(range(0, uc, COL_BLOCK))
        assert [c0 for c0, _ in blocks] == starts
        assert [len(b) for _, b in blocks] == [min(COL_BLOCK, uc - c0) for c0 in starts]
        assert all(b.shape[1] == spec.n_v for _, b in blocks)
        if R == 3:
            assert 0 < uc % COL_BLOCK
    shares = [column_share(blocks) for blocks in got]
    whole = [column_share(blocks) for blocks in column_blocks(plane, Topology(1, 1), spec=spec)]
    assert np.concatenate(shares).tobytes() == whole[0].tobytes()
    assert np.max(np.abs(whole[0] - np.fft.ifft2(plane).T)) <= 1e-12


def test_column_block_buffer_is_reused():
    # Every block is a view of one buffer: a consumer that keeps a block
    # without copying it sees it overwritten by the next.
    spec = GridSpec(n_u=2 * COL_BLOCK, n_v=8, n_w=1, cell_size_lm=1e-3)
    rng = np.random.default_rng(13)
    rows = rng.standard_normal((spec.n_v, spec.n_u)) + 1j * rng.standard_normal((spec.n_v, spec.n_u))
    kept, copies = [], []

    def keep(c0, block):
        kept.append(block)
        copies.append(block.copy())

    run_ranks(Topology(1, 1), lambda ctx: fft2d_slab(ctx, rows, spec, keep))
    assert len(kept) == 2 and np.shares_memory(kept[0], kept[1])
    assert kept[0].tobytes() == copies[1].tobytes() != copies[0].tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (3, 200), (TRANSPOSE_BAND + 7, 5),
                                   (2 * TRANSPOSE_BAND + 1, 3 * TRANSPOSE_BAND - 2)])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_transpose_into_equals_transpose(shape, dtype):
    # Shapes that are not a multiple of the band, on both sides; a real
    # view of a complex array, as the stacking passes it.
    rng = np.random.default_rng(14)
    src = rng.standard_normal(shape).astype(dtype) + (1j * rng.standard_normal(shape)
                                                      if dtype is np.complex128 else 0)
    for s in (src, src.view(np.float64)[:, ::2] if dtype is np.complex128 else src[:, ::-1]):
        dst = np.empty(s.shape[::-1], dtype=s.dtype)
        transpose_into(dst, s)
        assert dst.tobytes() == np.ascontiguousarray(s.T).tobytes()


@pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: f"{t.n_nodes}x{t.ranks_per_node}")
def test_transpose_messages_and_bytes(plane, topo):
    # One block transpose per plane: R(R-1) messages, and every
    # off-diagonal (rows x columns) block once, at 16 bytes a value.
    R = topo.n_ranks
    log = MessageLog()
    n_planes = 2
    for _ in range(n_planes):
        column_blocks(plane, topo, log)
    diagonal = sum(partition_1d(N_V, R, r)[1] * partition_1d(N_U, R, r)[1]
                   for r in range(R))
    assert log.count(phase="fft") == R * (R - 1) * n_planes
    assert log.total_bytes(phase="fft") == n_planes * 16 * (N_U * N_V - diagonal)
    assert log.count() == log.count(phase="fft")


@pytest.mark.parametrize("topo", [Topology(1, 2), Topology(1, 3)],
                         ids=lambda t: f"{t.n_nodes}x{t.ranks_per_node}")
@pytest.mark.parametrize("direction", ["inverse"])
def test_transform_overwrites_only_its_own_rows(plane, topo, direction):
    # The row transforms go into each rank's rows in place, the column
    # transforms into its own block buffer, handed to its consumer; the
    # transpose sends column blocks as views, which Router.send copies, so
    # no rank writes into another's rows, and each returns nothing.
    R = topo.n_ranks
    slabs = []
    for r in range(R):
        v0, vc = partition_1d(N_V, R, r)
        slabs.append(plane[v0:v0 + vc].copy())
    blocks = [[] for _ in range(R)]
    got = run_ranks(topo, lambda ctx: fft2d_slab(ctx, slabs[ctx.rank], SPEC,
                                                  collect(blocks[ctx.rank])))
    assert got == [None] * R
    assert all(not np.shares_memory(b, slab) for slab, rank_blocks in zip(slabs, blocks)
               for _, b in rank_blocks)
    assert np.concatenate(slabs).tobytes() == np.fft.ifft(plane).tobytes()


def ignore(c0, block):
    pass


def test_rows_of_wrong_shape_rejected(plane):
    with pytest.raises(ValueError, match="rows shape"):
        run_ranks(Topology(1, 2), lambda ctx: fft2d_slab(ctx, plane, SPEC, ignore))


def test_rows_it_cannot_write_in_place_rejected(plane):
    read_only = plane.copy()
    read_only.flags.writeable = False
    for rows in (read_only, plane.astype(np.complex64), np.asfortranarray(plane)):
        with pytest.raises(ValueError, match="rows shape .* must be"):
            run_ranks(Topology(1, 1), lambda ctx: fft2d_slab(ctx, rows, SPEC, ignore))


def mirrored(half):
    """A half over rows ``0 ... n_v/2`` (n or a phase factor) extended to
    all n_v rows, as a multiply by it through a reversed view sees it."""
    h = half.shape[1] - 1
    return np.concatenate([half, half[:, h - 1:0:-1]], axis=1)


# A column block's rows are image columns, its last axis the n_v image rows.
@pytest.mark.parametrize("n_v", [2, 4, 64, 1024])
@pytest.mark.parametrize("cell", [1e-3, 7.3e-4])
@pytest.mark.parametrize("w", [13.7, -4.25])
@pytest.mark.parametrize("u_start", [2, 3], ids=["even-row", "odd-row"])
def test_mirrored_phase_factor_equals_full_width_exp(n_v, cell, w, u_start):
    spec = GridSpec(n_u=8, n_v=n_v, n_w=1, cell_size_lm=cell)
    # n and the factor hold rows 0 ... n_v/2; a multiply by them mirrors them.
    n = pixel_n_block(spec, u_start, 3)
    per_pixel = np.array([[math.sqrt(1.0 - l * l - m * m)
                           for l, m in (pixel_to_lm(spec, i, j) for j in range(n_v))]
                          for i in range(u_start, u_start + 3)])
    assert mirrored(n).tobytes() == per_pixel.tobytes()
    half = w_phase_factor(n, w)
    assert mirrored(half).tobytes() == np.exp(2j * np.pi * w * (per_pixel - 1.0)).tobytes()


def per_plane_stack(planes, spec, n):
    """The per-plane form: each plane corrected into its own copy, then the
    copies summed in plane order, divided by n_w and scaled by n."""
    corrected = []
    for k, plane in enumerate(planes):
        w_k = spec.plane_w_native(k)
        if w_k == 0.0:
            corrected.append(plane.copy())
        else:
            factor = np.exp(2j * np.pi * w_k * (n - 1.0))
            corrected.append(plane * factor)
    acc = corrected[0].copy()
    for c in corrected[1:]:
        acc = acc + c
    acc /= spec.n_w
    acc *= n
    return acc


def horner_stack(planes, spec, u_start):
    """The pipeline's order: planes k = n_w - 1 ... 0 by Horner's rule with
    the step factor of the plane spacing, then the stacking."""
    n = pixel_n_block(spec, u_start, planes[0].shape[0])
    z = w_phase_factor(n, spec.w_step_native)
    acc = np.empty(planes[0].shape, dtype=np.complex128)
    for k in reversed(range(len(planes))):
        assert apply_w_correction(acc, planes[k], z, first=k == len(planes) - 1) is acc
    return stack_planes(acc, n, spec)


@pytest.mark.parametrize("n_w, w_range", [(4, (0.0, 20.0)), (3, (-10.0, 10.0)), (1, (0.0, 20.0))],
                         ids=["w-min-0", "w-min-negative", "one-plane"])
def test_accumulated_stack_matches_per_plane_form(n_w, w_range):
    # Horner's rule rounds differently from one exp per plane.
    spec = GridSpec(n_u=256, n_v=256, n_w=n_w, cell_size_lm=1e-3,
                    w_min_native=w_range[0], w_max_native=w_range[1])
    u_start, u_count = partition_1d(spec.n_u, 3, 1)
    n = mirrored(pixel_n_block(spec, u_start, u_count))
    rng = np.random.default_rng(5)
    planes = [rng.standard_normal(n.shape) + 1j * rng.standard_normal(n.shape)
              for _ in range(n_w)]
    inputs = [p.copy() for p in planes]
    block = horner_stack(planes, spec, u_start)
    ref = per_plane_stack(inputs, spec, n)
    # the block comes in image orientation, (rows, its columns)
    assert block.pixels.shape == (spec.n_v, u_count)
    assert np.max(np.abs(block.pixels - ref.real.T)) <= 1e-12 * np.max(np.abs(ref))
    assert block.imag_sq_sum == pytest.approx(float((ref.imag ** 2).sum()), rel=1e-12)
    assert all(p.tobytes() == q.tobytes() for p, q in zip(planes, inputs))


def test_w_correction_rejects_plane_of_wrong_shape():
    spec = GridSpec(n_u=16, n_v=16, n_w=2, cell_size_lm=1e-3, w_max_native=5.0)
    z = w_phase_factor(pixel_n_block(spec, 0, 8), 5.0)
    acc = np.zeros((8, 16), dtype=np.complex128)
    for first in (True, False):
        with pytest.raises(ValueError, match="plane shape"):
            apply_w_correction(acc, np.zeros((8, 8), dtype=np.complex128), z, first)
        with pytest.raises(ValueError, match="sum shape"):
            apply_w_correction(acc[:4], np.zeros((8, 16), dtype=np.complex128), z, first)


def test_stack_rejects_n_of_wrong_shape():
    spec = GridSpec(n_u=16, n_v=16, n_w=2, cell_size_lm=1e-3, w_max_native=5.0)
    acc = np.zeros((8, 16), dtype=np.complex128)
    with pytest.raises(ValueError, match="n shape"):
        stack_planes(acc, np.ones((8, 16)), spec)


def test_write_image_raw_file_holds_the_little_endian_pixels(tmp_path):
    # The pixels are written from the array itself, with no copy; the file
    # must still be the row-major little-endian float64 image.
    rng = np.random.default_rng(5)
    img = FinalImage(SPEC, rng.standard_normal((N_V, N_U)))
    paths = write_image(img, tmp_path / "image")
    assert paths["raw"].read_bytes() == img.pixels.astype("<f8").tobytes()


def pgm_pixels(path, n_u, n_v):
    """The 8-bit pixels of a PGM preview, after checking its ``P5`` header
    (width n_u, height n_v, maxval 255) and its size."""
    data = path.read_bytes()
    header = f"P5\n{n_u} {n_v}\n255\n".encode("ascii")
    assert data[:len(header)] == header
    assert len(data) == len(header) + n_u * n_v
    return np.frombuffer(data[len(header):], dtype=np.uint8).reshape(n_v, n_u)


def test_write_pgm_stretches_min_to_0_and_max_to_255(tmp_path):
    rng = np.random.default_rng(6)
    pixels = rng.standard_normal((N_V, N_U))
    preview = pgm_pixels(write_pgm(pixels, tmp_path / "p.pgm"), N_U, N_V)
    assert preview.flat[pixels.argmin()] == 0 and preview.flat[pixels.argmax()] == 255
    # A linear stretch keeps the order of the pixels.
    order = np.argsort(pixels, axis=None, kind="stable")
    assert np.all(np.diff(preview.flat[order].astype(int)) >= 0)


def test_write_pgm_writes_a_constant_image_as_zeros(tmp_path):
    preview = pgm_pixels(write_pgm(np.full((N_V, N_U), 3.5), tmp_path / "p.pgm"), N_U, N_V)
    assert not preview.any()
