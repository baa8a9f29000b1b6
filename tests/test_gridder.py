import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wstack import gridder, visdata
from wstack.bench import edge_chunk, gridded_mesh
from wstack.comms import Topology
from wstack.gridder import KernelSpec, SectorBatch, grid_sector, kernel_value
from wstack.mesh import GridSpec, partition_1d


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
    for u, v, w, vis, weight in zip(chunk.u, chunk.v, chunk.w, chunk.vis, chunk.weight):
        gu = u * spec.n_u
        gv = v * spec.n_v
        if spec.n_w == 1:
            plane = 0
        else:
            plane = min(max(int(math.floor(w * (spec.n_w - 1) + 0.5)), 0),
                        spec.n_w - 1)
        value = complex(np.sum(vis.astype(np.complex128) * weight))
        for j in range(int(math.ceil(gv - S)), int(math.floor(gv + S)) + 1):
            if not 0 <= j < spec.n_v:
                continue
            for i in range(int(math.ceil(gu - S)), int(math.floor(gu + S)) + 1):
                if not 0 <= i < spec.n_u:
                    continue
                grid[plane, j, i] += value * kernel_value(kern, gu - i, gv - j)
                updates += 1
    return grid, updates


@dataclass
class PlanedBatch(SectorBatch):
    """A batch of records of several planes, each record's plane beside it:
    the records before the exchange cuts them by plane."""

    plane: np.ndarray = None


def batch_for(gu, gv, plane, value):
    return PlanedBatch(gu=np.asarray(gu, float), gv=np.asarray(gv, float),
                       value=np.asarray(value, np.complex128),
                       plane=np.asarray(plane, np.uint32))


def slab_grid(spec, slab):
    """A zeroed ``(n_w, rows, n_u)`` complex128 array for ``slab``, a
    ``partition_1d`` pair ``(start, rows)``: ``grid_sector`` writes one of
    its planes per call."""
    return np.zeros((spec.n_w, slab[1], spec.n_u), dtype=np.complex128)


def grid_planes(batch, kern, out, v_start):
    """Grid a :class:`PlanedBatch` into ``out``, a :func:`slab_grid`, one
    ``grid_sector`` call per plane on that plane's records in batch order,
    as the exchange hands them; returns the cell updates."""
    assert np.all(batch.plane < len(out))
    updates = 0
    for p in range(len(out)):
        on = batch.plane == p
        updates += grid_sector(SectorBatch(gu=batch.gu[on], gv=batch.gv[on],
                                           value=batch.value[on]), kern, out[p], v_start)
    return updates


def checker_sign(spec, slab):
    """(-1)^(i + j) over a slab ``(start, rows)``: the factor ``grid_sector``
    stores each cell (row j, column i) with. Multiplying k-space by it
    shifts the image by half the grid along both axes."""
    i = np.arange(spec.n_u, dtype=np.int64)
    j = np.arange(slab[0], slab[0] + slab[1], dtype=np.int64)
    return (1.0 - 2.0 * ((i[None, :] + j[:, None]) & 1)).astype(np.float64)


def signed(grid, spec, slab):
    """A reference grid times the cell sign, exactly (x -1 negates). The
    gridder adds every sum into a +0.0 cell, so its zero cells are +0.0,
    where the product has -0.0 at odd i + j; adding +0.0 maps -0.0 to +0.0
    and leaves every other value as it is."""
    return grid * checker_sign(spec, slab) + 0.0


def signed_footprint_sum(kern, gu, gv):
    """Sum of ``(-1)^(i+j)`` times the kernel weight over the unclipped
    footprint cells (i, j) of one record."""
    S = kern.half_support
    a = np.arange(-S, S + 1)
    i = np.floor(gu).astype(np.int64) + a
    j = np.floor(gv).astype(np.int64) + a
    ok_u, ok_v = np.abs(gu - i) <= S, np.abs(gv - j) <= S
    i, j = i[ok_u], j[ok_v]
    sign = (-1.0) ** (i[:, None] + j[None, :])
    return float((sign * kernel_value(kern, gu - i[:, None], gv - j[None, :])).sum())


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


@pytest.mark.parametrize("S", [1, 3, 8])
@pytest.mark.parametrize("beta, tol", [(1.0, 1e-14), (None, 1e-14), (7.02, 1e-14),
                                       (40.0, 1e-14), (200.0, 1e-13)])
def test_kaiser_bessel_against_numpy_i0(S, beta, tol):
    # Independent oracle: numpy's Chebyshev-based I0 in the closed form.
    k = KernelSpec.kaiser_bessel(S, beta)
    beta = k.shape_param
    x = np.linspace(0.0, S, 4001)
    x = np.concatenate([-x[::-1], x])
    ref = np.i0(beta * np.sqrt(1.0 - (x / S) ** 2)) / np.i0(beta)
    got = kernel_value(k, x, 0.0)
    assert np.max(np.abs(got - ref) / ref) <= tol
    assert kernel_value(k, 0, 0) == 1.0
    assert np.array_equal(kernel_value(k, -x, 0.0), got)
    assert np.array_equal(kernel_value(k, 0.0, x), got)
    beyond = np.array([np.nextafter(S, np.inf), S + 1e-9, S + 0.5, 2.0 * S, 1e6])
    assert not np.any(kernel_value(k, beyond, 0.0))
    assert not np.any(kernel_value(k, 0.0, -beyond))


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


@pytest.mark.parametrize("kind", ["gaussian", "kaiser_bessel"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_shape_param_rejected(kind, bad):
    with pytest.raises(ValueError, match="finite"):
        KernelSpec(kind=kind, half_support=3, shape_param=bad)


def test_kaiser_bessel_beta_that_overflows_i0_rejected():
    # I0(beta) passes the largest float64 just above beta = 713.
    with pytest.raises(ValueError, match="overflows"):
        KernelSpec.kaiser_bessel(3, 800.0)
    k = KernelSpec.kaiser_bessel(3, 700.0)
    w = kernel_value(k, np.linspace(-3.0, 3.0, 61), 0.0)
    assert np.all(np.isfinite(w)) and w.max() == 1.0


# ---------------------------------------------------------------------------
# sector gridding
# ---------------------------------------------------------------------------

def test_near_delta_kernel_hits_single_cell():
    spec = GridSpec(n_u=16, n_v=16, n_w=1, cell_size_lm=1e-3)
    out = slab_grid(spec, (0, 16))
    batch = batch_for([8.0], [8.0], [0], [1.0 + 0j])
    grid_planes(batch, KernelSpec.gaussian(1, 1e-3), out, 0)
    assert out[0, 8, 8] == pytest.approx(1.0)
    masked = out.copy()
    masked[0, 8, 8] = 0.0
    assert np.max(np.abs(masked)) < 1e-10


def test_on_center_record_closed_form_neighbourhood():
    spec = GridSpec(n_u=16, n_v=16, n_w=1, cell_size_lm=1e-3)
    slab = partition_1d(spec.n_v, 1, 0)
    out = slab_grid(spec, slab)
    # value 2+0j with weight 0.5 folded in -> unit effective value
    batch = batch_for([8.0], [8.0], [0], [(2 + 0j) * 0.5])
    grid_planes(batch, KernelSpec.gaussian(3, 1.0), out, 0)
    sign = checker_sign(spec, slab)
    assert out[0, 8, 8] == pytest.approx(sign[8, 8] * 1.0, abs=1e-14)
    for j, i in ((7, 8), (9, 8), (8, 7), (8, 9)):
        assert out[0, j, i].real == pytest.approx(sign[j, i] * math.exp(-0.5), abs=1e-12)
    for j, i in ((7, 7), (9, 9), (7, 9), (9, 7)):
        assert out[0, j, i].real == pytest.approx(sign[j, i] * math.exp(-1.0), abs=1e-12)


def test_two_identical_records_double_the_grid():
    spec = GridSpec(n_u=16, n_v=16, n_w=2, cell_size_lm=1e-3)
    one = slab_grid(spec, (0, 16))
    two = slab_grid(spec, (0, 16))
    grid_planes(batch_for([5.3], [7.8], [1], [1.5 - 0.5j]),
                KernelSpec.gaussian(3, 1.0), one, 0)
    grid_planes(batch_for([5.3, 5.3], [7.8, 7.8], [1, 1],
                          [1.5 - 0.5j, 1.5 - 0.5j]),
                KernelSpec.gaussian(3, 1.0), two, 0)
    assert np.allclose(two, 2.0 * one, rtol=0, atol=1e-15)


def test_record_outside_slab_halo_rejected():
    spec = GridSpec(n_u=16, n_v=16, n_w=1, cell_size_lm=1e-3)
    slab = partition_1d(spec.n_v, 2, 0)  # rows 0..7
    kern = KernelSpec.gaussian(3, 1.0)
    # Row 11 lies within the exchange's halo of 3 rows, but its footprint
    # reaches no owned row; NaN and +-inf reach none either.
    for gv in (14.0, 11.0, math.nan, math.inf, -math.inf):
        batch = batch_for([3.0, 4.0], [2.5, gv], [0, 0], [1.0, 1.0])
        with pytest.raises(ValueError, match="outside slab"):
            grid_sector(batch, kern, slab_grid(spec, slab)[0], slab[0])


def test_grid_sector_rejects_out_it_cannot_sum_into_in_place():
    # The gridder adds into a flat view of out, one plane; a flat view of a
    # strided or read-only array would not write into it.
    kern = KernelSpec.gaussian(3, 1.0)
    batch = batch_for([3.5], [3.5], [0], [1.0])
    read_only = np.zeros((16, 16), dtype=np.complex128)
    read_only.flags.writeable = False
    cases = {
        "complex64": np.zeros((16, 16), dtype=np.complex64),
        "3-D": np.zeros((1, 16, 16), dtype=np.complex128),
        "strided": np.zeros((16, 32), dtype=np.complex128)[:, ::2],
        "read-only": read_only,
    }
    for name, out in cases.items():
        with pytest.raises(ValueError, match="out must be"):
            grid_sector(batch, kern, out, 0)
        assert not np.any(out), name


def test_gridded_mass_matches_kernel_sums():
    spec = GridSpec(n_u=64, n_v=64, n_w=2, cell_size_lm=1e-3)
    out = slab_grid(spec, (0, 64))
    rng = np.random.default_rng(3)
    n = 50
    gu = rng.uniform(10, 54, n)  # clear of the mesh edges
    gv = rng.uniform(10, 54, n)
    value = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    kern = KernelSpec.gaussian(3, 1.0)
    grid_planes(batch_for(gu, gv, rng.integers(0, 2, n), value), kern, out, 0)
    expected = sum(v * signed_footprint_sum(kern, u, w) for u, w, v in zip(gu, gv, value))
    assert abs(out.sum() - expected) < 1e-10


@pytest.mark.parametrize("kern", [KernelSpec.gaussian(3, 1.0), KernelSpec.kaiser_bessel(3)],
                         ids=["gaussian", "kaiser_bessel"])
def test_matches_brute_force_with_edge_clipping_on_every_plane(kern):
    spec = GridSpec(n_u=32, n_v=32, n_w=4, cell_size_lm=1e-3,
                    w_min_native=0.0, w_max_native=12.0)
    chunk = edge_chunk()
    ref, ref_updates = brute_force_grid(chunk, spec, kern)
    assert all(np.any(ref[p]) for p in range(spec.n_w))
    ref *= checker_sign(spec, partition_1d(spec.n_v, 1, 0))
    # one rank, then two ranks with a slab boundary at row 16
    for n_ranks in (1, 2):
        parts = visdata.split_records(chunk, n_ranks)
        grid = grid_and_reduce(parts, spec, kern, Topology(1, n_ranks))
        assert np.max(np.abs(grid - ref)) <= 1e-12
    batch = batch_for(chunk.u * 32, chunk.v * 32,
                      np.clip(np.floor(chunk.w * 3 + 0.5), 0, 3),
                      (chunk.vis.astype(np.complex128) * chunk.weight).sum(axis=1))
    out = slab_grid(spec, partition_1d(spec.n_v, 1, 0))
    assert grid_planes(batch, kern, out, 0) == ref_updates
    assert np.max(np.abs(out - ref)) <= 1e-12


def masked_grid_sector(batch, kern, out, v_start):
    """The masked per-offset gridder, kept as the reference for bit
    identity: a (2S+1) x (2S+1) footprint per record, with out-of-mesh,
    out-of-slab and beyond-support entries masked away, one ``plane == p``
    scan per plane and one bincount per (plane, u offset) over the span of
    the cells it touches. Each bincount takes its entries in (v offset,
    record) order, and each entry is ``(value * w_v) * w_u``."""
    gu, gv, plane, value = batch.gu, batch.gv, batch.plane, batch.value
    S = kern.half_support
    offsets = np.arange(-S, S + 1)
    _, rows, n_u = out.shape
    count = 0
    for p in np.unique(plane):
        sel = np.flatnonzero(plane == p)
        flo_u = np.floor(gu[sel]).astype(np.int64)
        flo_v = np.floor(gv[sel]).astype(np.int64)
        i = flo_u[:, None] + offsets
        j = flo_v[:, None] + offsets
        du = gu[sel, None] - i
        dv = gv[sel, None] - j
        ok_u = (i >= 0) & (i < n_u) & (np.abs(du) <= S)
        ok_v = (j >= v_start) & (j < v_start + rows) & (np.abs(dv) <= S)
        wu = kernel_value(kern, du, 0.0)
        wv = kernel_value(kern, dv, 0.0)
        row_base = (j - v_start) * n_u
        # Transposed to (v offset, record), so that masking takes entries
        # in that order.
        re, im = (value.real[sel, None] * wv).T, (value.imag[sel, None] * wv).T
        flat = out[p].reshape(-1)
        for a in range(len(offsets)):
            ok = (ok_u[:, a, None] & ok_v).T
            cells = (row_base + (flo_u + offsets[a])[:, None]).T[ok]
            if not len(cells):
                continue
            w = np.broadcast_to(wu[:, a], ok.shape)[ok]
            lo = int(cells.min())
            n_cells = int(cells.max()) + 1 - lo
            cells -= lo
            for part, vals in ((flat.real, re), (flat.imag, im)):
                part[lo:lo + n_cells] += np.bincount(cells, vals[ok] * w, n_cells)
            count += len(cells)
    return count


def on_line_case(name, rng):
    """``(spec, slab, gu, gv, plane, value)`` of one bit-identity case, the
    slab a ``partition_1d`` pair ``(start, rows)``.

    Records pile up on few cells, so that the per-cell sums have many
    terms and a change of summation order would show. The ``sparse_``
    cases instead spread a few records per plane over a wide mesh."""
    if name.startswith("sparse_"):
        return sparse_case(name, rng)
    spec = GridSpec(n_u=32, n_v=32, n_w=4, cell_size_lm=1e-3)
    slab = partition_1d(spec.n_v, 1, 0)
    n = 600
    gu = rng.integers(4, 28, n) + rng.choice([0.25, 0.5, 0.8125], n)
    gv = rng.integers(4, 28, n) + rng.choice([0.125, 0.5, 0.75], n)
    plane = rng.integers(0, spec.n_w, n)
    if name == "u_line":  # on a u cell line in planes 0 and 2 only
        hit = (plane % 2 == 0) & (rng.random(n) < 0.2)
        gu[hit] = np.floor(gu[hit])
    elif name == "v_line":  # on a v cell line in plane 1 only
        hit = (plane == 1) & (rng.random(n) < 0.2)
        gv[hit] = np.floor(gv[hit])
    elif name == "both_lines":  # on a cell corner, on a u line or on a v line
        kind = rng.integers(0, 4, n)
        gu[kind & 1 == 1] = np.floor(gu[kind & 1 == 1])
        gv[kind & 2 == 2] = np.floor(gv[kind & 2 == 2])
    elif name == "mesh_edges":  # u = 0 and u -> 1, v = 0 and v -> 1
        edge = np.array([0.0, 0.5, 1e-12, 32.0 - 1e-9, np.nextafter(32.0, 0.0), 32.0,
                         31.0, 2.0, 29.5])
        gu[:len(edge)] = edge
        gv[len(edge):2 * len(edge)] = np.minimum(edge, np.nextafter(32.0, 0.0))
        gu[2 * len(edge):3 * len(edge)] = edge
        gv[2 * len(edge):3 * len(edge)] = edge[::-1] % 32.0
    elif name == "halo_1x3":  # middle slab of three, halo records on both sides
        slab = partition_1d(spec.n_v, 3, 1)
        start, end, S = slab[0], slab[0] + slab[1], 3
        gv = rng.uniform(start - S, end - 1 + S, n)
        gv[:40] = rng.integers(start - S, start, 40) + rng.choice([0.0, 0.5], 40)
        gv[40:80] = rng.integers(end, end + S - 1, 40) + rng.choice([0.0, 0.5], 40)
        gv[80:84] = [start - S, end - 1 + S, start - 1, end]
    elif name == "empty_plane":
        plane[plane == 2] = 3
    elif name == "one_plane":
        spec = GridSpec(n_u=32, n_v=32, n_w=1, cell_size_lm=1e-3)
        plane[:] = 0
        gu[7] = np.floor(gu[7])
    elif name == "one_on_line":  # one record forces the -S offset on both axes
        plane[:] = 1
        gu[300], gv[300] = 13.0, 17.0
    elif name == "both_spaces":  # plane 0 dense, planes 1-3 a few records each
        plane[:] = 0
        plane[:24] = np.arange(24) % 3 + 1
    value = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return spec, slab, gu, gv, plane, value


def sparse_case(name, rng):
    """A few records per plane on a 256-column mesh, so that every plane
    bincounts into the cells it touches."""
    spec = GridSpec(n_u=256, n_v=128, n_w=4, cell_size_lm=1e-3)
    slab = partition_1d(spec.n_v, 1, 0)
    n = 40
    gu = rng.uniform(8, 248, n)
    gv = rng.uniform(8, 120, n)
    plane = rng.integers(0, spec.n_w, n)
    if name == "sparse_halo":  # middle slab of three, records in its halo rows only
        slab = partition_1d(spec.n_v, 3, 1)
        start, end, S = slab[0], slab[0] + slab[1], 3
        gv = np.where(rng.random(n) < 0.5, rng.uniform(start - S, start, n),
                      rng.uniform(end, end - 1 + S, n))
        gv[:4] = [start - S, end - 1 + S, start - 1, end]
        plane[:4] = [0, 1, 2, 3]
    elif name == "sparse_edges":  # gu == 0 and gu == n_u, on every plane
        gu[:8] = [0.0, 256.0] * 4
        gu[8:12] = [np.nextafter(256.0, 0.0), 1e-12, 2.0, 254.5]
        plane[:8] = np.arange(8) // 2
    elif name == "sparse_on_line":  # on u lines, v lines and corners
        kind = rng.integers(0, 4, n)
        gu[kind & 1 == 1] = np.floor(gu[kind & 1 == 1])
        gv[kind & 2 == 2] = np.floor(gv[kind & 2 == 2])
    value = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return spec, slab, gu, gv, plane, value


# The accumulation space each plane with records takes, in plane order: a
# plane with at least as many footprint entries as window cells sums over
# its window ("w"), any other over the cells it touches ("t").
ON_LINE_CASES = {
    "neither": "tttt", "u_line": "tttt", "v_line": "tttt", "both_lines": "tttt",
    "mesh_edges": "tttt", "halo_1x3": "wwww", "empty_plane": "ttw", "one_plane": "w",
    "one_on_line": "w", "both_spaces": "wttt", "sparse_plain": "tttt",
    "sparse_halo": "tttt", "sparse_edges": "tttt", "sparse_on_line": "tttt",
}


@pytest.mark.parametrize("case", list(ON_LINE_CASES))
@pytest.mark.parametrize("kern", [KernelSpec.gaussian(3, 1.0), KernelSpec.kaiser_bessel(3)],
                         ids=["gaussian", "kaiser_bessel"])
def test_grid_sector_bit_identical_to_masked_reference(case, kern, monkeypatch):
    spec, slab, gu, gv, plane, value = on_line_case(case, np.random.default_rng(17))
    batch = batch_for(gu, gv, plane, value)
    ref, got = slab_grid(spec, slab), slab_grid(spec, slab)
    ref_count = masked_grid_sector(batch, kern, ref, slab[0])
    spaces = []
    for name, tag in (("_window_space", "w"), ("_touched_space", "t")):
        def record(*args, _space=getattr(gridder, name), _tag=tag):
            spaces.append(_tag)
            return _space(*args)
        monkeypatch.setattr(gridder, name, record)
    assert grid_planes(batch, kern, got, slab[0]) == ref_count
    assert "".join(spaces) == ON_LINE_CASES[case]
    assert got.tobytes() == signed(ref, spec, slab).tobytes()
    assert np.any(got)
    if case == "empty_plane":
        assert not np.any(got[2])


def test_beyond_support_weight_is_zeroed_for_the_gaussian():
    # Where one on-line record brings in the -S offset, the Gaussian is
    # exp(-(S + frac)^2 / 2) > 0 at every other record's -S entry; those
    # entries must add nothing.
    spec = GridSpec(n_u=32, n_v=32, n_w=1, cell_size_lm=1e-3)
    kern = KernelSpec.gaussian(3, 1.0)
    alone, with_line = slab_grid(spec, (0, 32)), slab_grid(spec, (0, 32))
    assert grid_planes(batch_for([10.5], [20.5], [0], [1.0]), kern, alone, 0) == 36
    assert grid_planes(batch_for([10.5, 3.0], [20.5, 8.0], [0, 0], [1.0, 0.0]),
                       kern, with_line, 0) == 36 + 49
    assert with_line.tobytes() == alone.tobytes()
    assert not np.any(alone[0, :, 7]) and not np.any(alone[0, 17, :])


def test_grid_sector_temporaries_on_a_dense_plane():
    # 50k records on one 64 x 64 plane, one of them on a cell corner, so
    # both axes use all 2S + 1 offsets. The unit is one float64 per (offset,
    # record). The peak measured 6.33 units; a gridder that holds one more
    # such array reads 7.3, and one that builds a (u offset, v offset,
    # record) product 13.3.
    spec = GridSpec(n_u=64, n_v=64, n_w=1, cell_size_lm=1e-3)
    kern = KernelSpec.kaiser_bessel(3)
    rng = np.random.default_rng(5)
    n = 50_000
    gu, gv = rng.uniform(4, 60, n), rng.uniform(4, 60, n)
    gu[0], gv[0] = 30.0, 30.0
    batch = batch_for(gu, gv, np.zeros(n), rng.standard_normal(n) + 1j)
    out = slab_grid(spec, (0, 64))[0]
    unit = n * (2 * kern.half_support + 1) * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        grid_sector(batch, kern, out, 0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 6.8 * unit, f"{peak / unit:.2f} units"


@pytest.mark.parametrize("gu", [-0.5, 16.0 + 1e-9, math.nan])
def test_record_outside_mesh_columns_rejected(gu):
    spec = GridSpec(n_u=16, n_v=16, n_w=1, cell_size_lm=1e-3)
    batch = batch_for([3.5, gu], [3.5, 4.5], [0, 0], [1.0, 1.0])
    with pytest.raises(ValueError, match="mesh columns"):
        grid_sector(batch, KernelSpec.gaussian(3, 1.0), slab_grid(spec, (0, 16))[0], 0)


# ---------------------------------------------------------------------------
# full workflow
# ---------------------------------------------------------------------------

def make_dataset(n=1000, seed=11):
    sky = visdata.SkyModel(sources=((0.01, -0.008, 2.0), (0.0, 0.0, 1.0)))
    _, chunk = visdata.generate_synthetic(
        sky, n, 2, seed=seed, n_time_slices=8, cell_size_lm=1e-3,
        w_min_native=0.0, w_max_native=12.0)
    return chunk


def grid_and_reduce(parts, spec, kern, topo):
    """The pipeline's exchange and gridding, one plane at a time on every
    rank; its reduce leaves each plane as gridded. The full mesh."""
    return gridded_mesh(parts, spec, kern, topo)[0]


def test_single_rank_equals_sequential_gridding():
    spec = GridSpec(n_u=64, n_v=64, n_w=4, cell_size_lm=1e-3,
                    w_min_native=0.0, w_max_native=12.0)
    chunk = make_dataset()
    kern = KernelSpec.gaussian(3, 1.0)
    grid = grid_and_reduce([chunk], spec, kern, Topology(1, 1))
    ref, _ = brute_force_grid(chunk, spec, kern)
    assert np.max(np.abs(grid - ref * checker_sign(spec, partition_1d(spec.n_v, 1, 0)))) <= 1e-12


def test_rank_counts_agree_bitwise_in_deterministic_mode():
    # 3000 records on a 32x32x2 mesh: every cell is reached by many
    # records, several of them through the same (u, v) offset.
    spec = GridSpec(n_u=32, n_v=32, n_w=2, cell_size_lm=1e-3,
                    w_min_native=0.0, w_max_native=12.0)
    chunk = make_dataset(n=3000)
    for kern in (KernelSpec.gaussian(3, 1.0), KernelSpec.kaiser_bessel(3)):
        images = {}
        for n_ranks in (1, 2, 4):
            parts = visdata.split_records(chunk, n_ranks)
            images[n_ranks] = grid_and_reduce(parts, spec, kern, Topology(1, n_ranks)).tobytes()
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
    one = grid_and_reduce([chunk], spec, kern, Topology(1, 1))
    parts = visdata.split_records(chunk, 2)
    two = grid_and_reduce(parts, spec, kern, Topology(1, 2))
    assert one.tobytes() == two.tobytes()
