import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wstack import gridder, visdata
from wstack.comms import ReduceStrategy, Topology
from wstack.gridder import KernelSpec, SectorBatch, grid_all, grid_sector, kernel_value
from wstack.mesh import ComplexGrid, GridSpec, slab_of


def bessel_i0_series(x, tol=1e-12):
    """Power-series modified Bessel function, the reference for the
    Kaiser-Bessel normalization."""
    term = 1.0
    total = 1.0
    k = 0
    q = x * x / 4.0
    while term > tol * total:
        k += 1
        term *= q / (k * k)
        total += term
    return total


def brute_force_grid(chunk, spec, kern):
    """Independent reference: triple loop, records x footprint cells.
    Returns the grid and the number of cell updates."""
    grid = np.zeros((spec.n_w, spec.n_v, spec.n_u), dtype=np.complex128)
    S = kern.half_support
    updates = 0
    for rec in chunk:
        gu = rec.u * spec.n_u
        gv = rec.v * spec.n_v
        if spec.n_w == 1:
            plane = 0
        else:
            plane = min(max(int(math.floor(rec.w * (spec.n_w - 1) + 0.5)), 0),
                        spec.n_w - 1)
        value = complex(np.sum(rec.vis.astype(np.complex128) * rec.weight))
        for j in range(int(math.ceil(gv - S)), int(math.floor(gv + S)) + 1):
            if not 0 <= j < spec.n_v:
                continue
            for i in range(int(math.ceil(gu - S)), int(math.floor(gu + S)) + 1):
                if not 0 <= i < spec.n_u:
                    continue
                grid[plane, j, i] += value * kernel_value(kern, gu - i, gv - j)
                updates += 1
    return grid, updates


def batch_for(spec, slab, gu, gv, plane, value, halo=3):
    n = len(gu)
    return SectorBatch(
        slab=slab, gu=np.asarray(gu, float), gv=np.asarray(gv, float),
        plane=np.asarray(plane, np.uint32), value=np.asarray(value, np.complex128),
        time_index=np.zeros(n, np.uint32), gindex=np.arange(n, dtype=np.uint64),
        halo_rows=halo)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_unit_peak_for_both_kinds():
    assert kernel_value(KernelSpec.gaussian(3, 1.0), 0, 0) == 1.0
    assert kernel_value(KernelSpec.kaiser_bessel(3, 6.0), 0, 0) == pytest.approx(1.0, abs=1e-14)


def test_gaussian_closed_form():
    k = KernelSpec.gaussian(3, 1.0)
    assert kernel_value(k, 1, 0) == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert kernel_value(k, 1, 1) == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_kaiser_bessel_edge_value_against_series():
    k = KernelSpec.kaiser_bessel(3, 6.0)
    got = kernel_value(k, 3.0, 0.0)
    assert got == pytest.approx(1.0 / bessel_i0_series(6.0), rel=1e-10)


def test_kaiser_bessel_interior_against_series():
    k = KernelSpec.kaiser_bessel(3, 6.0)
    for du in (0.5, 1.5, 2.5):
        axis = bessel_i0_series(6.0 * math.sqrt(1 - (du / 3.0) ** 2)) / bessel_i0_series(6.0)
        assert kernel_value(k, du, 0.0) == pytest.approx(axis, rel=1e-10)


def test_kaiser_bessel_zero_outside_support():
    k = KernelSpec.kaiser_bessel(3, 6.0)
    assert kernel_value(k, 3.2, 0.0) == 0.0
    assert kernel_value(k, 0.0, -3.01) == 0.0


@settings(max_examples=60)
@given(du=st.floats(-3, 3), dv=st.floats(-3, 3),
       kind=st.sampled_from(["gaussian", "kaiser_bessel"]))
def test_kernel_symmetry(du, dv, kind):
    k = (KernelSpec.gaussian(3, 1.0) if kind == "gaussian"
         else KernelSpec.kaiser_bessel(3, 7.0))
    v = kernel_value(k, du, dv)
    assert kernel_value(k, -du, -dv) == pytest.approx(v, rel=1e-13, abs=1e-300)
    assert kernel_value(k, dv, du) == pytest.approx(v, rel=1e-13, abs=1e-300)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(kind="boxcar", half_support=1, shape_param=1.0)
    with pytest.raises(ValueError):
        KernelSpec(kind="gaussian", half_support=0, shape_param=1.0)
    with pytest.raises(ValueError):
        KernelSpec(kind="gaussian", half_support=2, shape_param=0.0)


# ---------------------------------------------------------------------------
# sector gridding
# ---------------------------------------------------------------------------

def test_near_delta_kernel_hits_single_cell():
    spec = GridSpec(n_u=16, n_v=16, n_w=1, cell_size_lm=1e-3)
    slab = slab_of(spec, 0, 1)
    out = ComplexGrid(spec, slab)
    batch = batch_for(spec, slab, [8.0], [8.0], [0], [1.0 + 0j], halo=1)
    grid_sector(batch, KernelSpec.gaussian(1, 1e-3), out)
    assert out.data[0, 8, 8] == pytest.approx(1.0)
    masked = out.data.copy()
    masked[0, 8, 8] = 0.0
    assert np.max(np.abs(masked)) < 1e-10


def test_on_center_record_closed_form_neighbourhood():
    spec = GridSpec(n_u=16, n_v=16, n_w=1, cell_size_lm=1e-3)
    slab = slab_of(spec, 0, 1)
    out = ComplexGrid(spec, slab)
    # value 2+0j with weight 0.5 folded in -> unit effective value
    batch = batch_for(spec, slab, [8.0], [8.0], [0], [(2 + 0j) * 0.5])
    grid_sector(batch, KernelSpec.gaussian(3, 1.0), out)
    assert out.data[0, 8, 8] == pytest.approx(1.0, abs=1e-14)
    for j, i in ((7, 8), (9, 8), (8, 7), (8, 9)):
        assert out.data[0, j, i].real == pytest.approx(math.exp(-0.5), abs=1e-12)
    for j, i in ((7, 7), (9, 9), (7, 9), (9, 7)):
        assert out.data[0, j, i].real == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_two_identical_records_double_the_grid():
    spec = GridSpec(n_u=16, n_v=16, n_w=2, cell_size_lm=1e-3)
    slab = slab_of(spec, 0, 1)
    one = ComplexGrid(spec, slab)
    two = ComplexGrid(spec, slab)
    grid_sector(batch_for(spec, slab, [5.3], [7.8], [1], [1.5 - 0.5j]),
                KernelSpec.gaussian(3, 1.0), one)
    grid_sector(batch_for(spec, slab, [5.3, 5.3], [7.8, 7.8], [1, 1],
                          [1.5 - 0.5j, 1.5 - 0.5j]),
                KernelSpec.gaussian(3, 1.0), two)
    assert np.allclose(two.data, 2.0 * one.data, rtol=0, atol=1e-15)


def test_record_outside_slab_halo_rejected():
    spec = GridSpec(n_u=16, n_v=16, n_w=1, cell_size_lm=1e-3)
    slab = slab_of(spec, 0, 2)  # rows 0..7
    with pytest.raises(ValueError, match="outside slab"):
        batch_for(spec, slab, [3.0], [14.0], [0], [1.0], halo=3)


def test_gridded_mass_matches_kernel_sums():
    spec = GridSpec(n_u=64, n_v=64, n_w=2, cell_size_lm=1e-3)
    slab = slab_of(spec, 0, 1)
    out = ComplexGrid(spec, slab)
    rng = np.random.default_rng(3)
    n = 50
    gu = rng.uniform(10, 54, n)  # clear of the mesh edges
    gv = rng.uniform(10, 54, n)
    value = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    kern = KernelSpec.gaussian(3, 1.0)
    grid_sector(batch_for(spec, slab, gu, gv, rng.integers(0, 2, n), value), kern, out)
    expected = sum(v * gridder.kernel_footprint_sum(kern, u, w)
                   for u, w, v in zip(gu, gv, value))
    assert abs(out.data.sum() - expected) < 1e-10


def edge_chunk(n=120, seed=5):
    """Records spread over all four planes of an n_w=4 mesh, half of them
    within the half support of a u or v mesh edge, some exactly on a cell
    or an edge."""
    rng = np.random.default_rng(seed)
    u, v = rng.random(n), rng.random(n)
    near = rng.random(n) * 3.0 / 32.0
    u[0::4] = near[0::4]
    u[1::4] = 1.0 - near[1::4] - 1e-9
    v[2::4] = near[2::4]
    v[3::4] = 1.0 - near[3::4] - 1e-9
    u[:8] = [0.0, 0.0, 3 / 32, 0.5, 31 / 32, 16.5 / 32, 0.25, 29 / 32]
    v[:8] = [0.0, 0.5, 0.0, 3 / 32, 0.25, 0.0, 31 / 32, 29 / 32]
    return visdata.VisChunk(
        u=u, v=v, w=(np.arange(n) % 4) / 3.0, time_index=np.arange(n, dtype=np.uint32),
        vis=(rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
             ).astype(np.complex64),
        weight=rng.random((n, 1)).astype(np.float32))


@pytest.mark.parametrize("kern", [KernelSpec.gaussian(3, 1.0), KernelSpec.kaiser_bessel(3)],
                         ids=["gaussian", "kaiser_bessel"])
def test_matches_brute_force_with_edge_clipping_on_every_plane(kern):
    spec = GridSpec(n_u=32, n_v=32, n_w=4, cell_size_lm=1e-3,
                    w_min_native=0.0, w_max_native=12.0)
    chunk = edge_chunk()
    ref, ref_updates = brute_force_grid(chunk, spec, kern)
    assert all(np.any(ref[p]) for p in range(spec.n_w))
    # one rank, then two ranks with a slab boundary at row 16
    for n_ranks in (1, 2):
        parts = visdata.partition_time_ordered(chunk, n_ranks)
        slabs, _ = grid_all(parts, spec, kern, Topology(1, n_ranks))
        assert np.max(np.abs(gather(slabs) - ref)) <= 1e-12
    batch = batch_for(spec, slab_of(spec, 0, 1), chunk.u * 32, chunk.v * 32,
                      np.clip(np.floor(chunk.w * 3 + 0.5), 0, 3),
                      (chunk.vis.astype(np.complex128) * chunk.weight).sum(axis=1))
    out = ComplexGrid(spec, slab_of(spec, 0, 1))
    assert grid_sector(batch, kern, out) == ref_updates
    assert np.max(np.abs(out.data - ref)) <= 1e-12


def test_thread_count_independence_deterministic():
    spec = GridSpec(n_u=32, n_v=32, n_w=2, cell_size_lm=1e-3)
    slab = slab_of(spec, 0, 1)
    rng = np.random.default_rng(9)
    n = 200
    batch = batch_for(spec, slab, rng.uniform(0, 32, n), rng.uniform(0, 32, n),
                      rng.integers(0, 2, n),
                      rng.standard_normal(n) + 1j * rng.standard_normal(n))
    kern = KernelSpec.kaiser_bessel(3)
    outs = []
    for threads in (1, 2, 8):
        out = ComplexGrid(spec, slab)
        grid_sector(batch, kern, out, threads=threads, deterministic=True)
        outs.append(out.data.tobytes())
    assert outs[0] == outs[1] == outs[2]


def test_concurrent_mode_close_to_deterministic():
    spec = GridSpec(n_u=32, n_v=32, n_w=2, cell_size_lm=1e-3)
    slab = slab_of(spec, 0, 1)
    rng = np.random.default_rng(10)
    n = 300
    batch = batch_for(spec, slab, rng.uniform(0, 32, n), rng.uniform(0, 32, n),
                      rng.integers(0, 2, n),
                      rng.standard_normal(n) + 1j * rng.standard_normal(n))
    kern = KernelSpec.gaussian(3, 1.0)
    ref = ComplexGrid(spec, slab)
    grid_sector(batch, kern, ref, threads=1)
    conc = ComplexGrid(spec, slab)
    grid_sector(batch, kern, conc, threads=4, deterministic=False)
    assert np.max(np.abs(ref.data - conc.data)) <= 1e-12


# ---------------------------------------------------------------------------
# full workflow
# ---------------------------------------------------------------------------

def make_dataset(n=1000, seed=11):
    sky = visdata.SkyModel(sources=((0.01, -0.008, 2.0), (0.0, 0.0, 1.0)))
    _, chunk = visdata.generate_synthetic(
        sky, n, 2, seed=seed, n_time_slices=8, cell_size_lm=1e-3,
        w_min_native=0.0, w_max_native=12.0)
    return chunk


def gather(slabs):
    return np.concatenate([s.data for s in slabs], axis=1)


def test_single_rank_equals_sequential_gridding():
    spec = GridSpec(n_u=64, n_v=64, n_w=4, cell_size_lm=1e-3,
                    w_min_native=0.0, w_max_native=12.0)
    chunk = make_dataset()
    kern = KernelSpec.gaussian(3, 1.0)
    slabs, _ = grid_all([chunk], spec, kern, Topology(1, 1))
    ref, _ = brute_force_grid(chunk, spec, kern)
    assert np.max(np.abs(gather(slabs) - ref)) <= 1e-12


def test_rank_counts_agree_bitwise_in_deterministic_mode():
    # 3000 records on a 32x32x2 mesh: every cell is reached by many
    # records, several of them through the same (u, v) offset.
    spec = GridSpec(n_u=32, n_v=32, n_w=2, cell_size_lm=1e-3,
                    w_min_native=0.0, w_max_native=12.0)
    chunk = make_dataset(n=3000)
    for kern in (KernelSpec.gaussian(3, 1.0), KernelSpec.kaiser_bessel(3)):
        images = {}
        for n_ranks in (1, 2, 4):
            parts = visdata.partition_time_ordered(chunk, n_ranks)
            for threads in (1, 2):
                slabs, _ = grid_all(parts, spec, kern,
                                    Topology(1, n_ranks, threads_per_rank=threads))
                images[n_ranks, threads] = gather(slabs).tobytes()
        assert len(set(images.values())) == 1, kern.kind


def test_halo_records_counted_once_across_boundary():
    # A record close to the slab boundary must contribute the same totals
    # with and without the boundary.
    spec = GridSpec(n_u=32, n_v=32, n_w=1, cell_size_lm=1e-3)
    kern = KernelSpec.gaussian(3, 1.0)
    rng = np.random.default_rng(4)
    n = 40
    chunk = visdata.VisChunk(
        u=rng.random(n),
        v=(15.7 + rng.random(n)) / 32.0,  # footprints straddle row 16
        w=np.zeros(n), time_index=np.arange(n, dtype=np.uint32),
        vis=(rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
             ).astype(np.complex64),
        weight=np.ones((n, 1), dtype=np.float32))
    one, _ = grid_all([chunk], spec, kern, Topology(1, 1))
    parts = visdata.partition_time_ordered(chunk, 2)
    two, _ = grid_all(parts, spec, kern, Topology(1, 2))
    assert gather(one).tobytes() == gather(two).tobytes()


def test_concurrent_grid_all_within_tolerance():
    spec = GridSpec(n_u=64, n_v=64, n_w=4, cell_size_lm=1e-3,
                    w_min_native=0.0, w_max_native=12.0)
    chunk = make_dataset()
    kern = KernelSpec.gaussian(3, 1.0)
    det, _ = grid_all([chunk], spec, kern, Topology(1, 1))
    parts = visdata.partition_time_ordered(chunk, 4)
    conc, _ = grid_all(parts, spec, kern, Topology(2, 2, threads_per_rank=2),
                       ReduceStrategy("hybrid_ring", deterministic=False))
    assert np.max(np.abs(gather(det) - gather(conc))) <= 1e-12
