import math

import numpy as np
import pytest

from wstack.comms import MessageLog, Topology
from wstack.mesh import GridSpec, partition_1d, pixel_n_block, pixel_to_lm, slab_of
from wstack.transform import apply_w_correction, fft2d_slab, stack_planes, w_phase_factor

N_V, N_U = 16, 32
SPEC = GridSpec(n_u=N_U, n_v=N_V, n_w=1, cell_size_lm=1e-3)
# R = 1 ... 4; three ranks split both axes unevenly, 2x2 crosses nodes.
TOPOLOGIES = [Topology(1, 1), Topology(1, 2), Topology(1, 3), Topology(2, 2)]


def split_rows(plane, n_ranks):
    return [plane[v0:v0 + vc] for v0, vc in
            (partition_1d(N_V, n_ranks, r) for r in range(n_ranks))]


@pytest.fixture
def plane():
    rng = np.random.default_rng(11)
    return rng.standard_normal((N_V, N_U)) + 1j * rng.standard_normal((N_V, N_U))


@pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: f"{t.n_nodes}x{t.ranks_per_node}")
@pytest.mark.parametrize("direction, oracle", [("forward", np.fft.fft2),
                                               ("inverse", np.fft.ifft2)])
def test_slab_transform_matches_numpy(plane, topo, direction, oracle):
    R = topo.n_ranks
    out = fft2d_slab(split_rows(plane, R), SPEC, topo, direction)
    assert [s.shape for s in out] == [s.shape for s in split_rows(plane, R)]
    assert np.max(np.abs(np.concatenate(out, axis=0) - oracle(plane))) <= 1e-12


@pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: f"{t.n_nodes}x{t.ranks_per_node}")
def test_transpose_messages_and_bytes(plane, topo):
    R = topo.n_ranks
    log = MessageLog()
    n_planes = 2
    for _ in range(n_planes):
        fft2d_slab(split_rows(plane, R), SPEC, topo, "inverse", log=log)
    diagonal = sum(partition_1d(N_V, R, r)[1] * partition_1d(N_U, R, r)[1]
                   for r in range(R))
    assert log.count(phase="fft") == n_planes * 2 * R * (R - 1)
    assert log.total_bytes(phase="fft") == n_planes * 32 * (N_U * N_V - diagonal)
    assert log.count() == log.count(phase="fft")


@pytest.mark.parametrize("topo", [Topology(1, 2), Topology(1, 3)],
                         ids=lambda t: f"{t.n_nodes}x{t.ranks_per_node}")
@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_transform_leaves_input_slabs_untouched(plane, topo, direction):
    # The transposes send column blocks as views; Router.send copies them.
    before = plane.tobytes()
    fft2d_slab(split_rows(plane, topo.n_ranks), SPEC, topo, direction)
    assert plane.tobytes() == before


def test_bad_direction_and_slab_count_rejected(plane):
    with pytest.raises(ValueError, match="direction"):
        fft2d_slab([plane], SPEC, Topology(1, 1), "sideways")
    with pytest.raises(ValueError, match="expected 2 slabs"):
        fft2d_slab([plane], SPEC, Topology(1, 2))


@pytest.mark.parametrize("n_u", [2, 4, 64, 1024])
@pytest.mark.parametrize("cell", [1e-3, 7.3e-4])
@pytest.mark.parametrize("w", [13.7, -4.25])
@pytest.mark.parametrize("v_start", [2, 3], ids=["even-row", "odd-row"])
def test_mirrored_phase_factor_equals_full_width_exp(n_u, cell, w, v_start):
    spec = GridSpec(n_u=n_u, n_v=8, n_w=1, cell_size_lm=cell)
    n = pixel_n_block(spec, v_start, 3)
    per_pixel = [[math.sqrt(1.0 - l * l - m * m)
                  for l, m in (pixel_to_lm(spec, i, j) for i in range(n_u))]
                 for j in range(v_start, v_start + 3)]
    assert n.tobytes() == np.array(per_pixel).tobytes()
    assert w_phase_factor(n, w).tobytes() == np.exp(2j * np.pi * w * (n - 1.0)).tobytes()


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


@pytest.mark.parametrize("n_w, w_range", [(4, (0.0, 20.0)), (3, (-10.0, 10.0)), (1, (0.0, 20.0))],
                         ids=["w-min-0", "w-min-negative", "one-plane"])
def test_accumulated_stack_is_bit_identical_to_per_plane_form(n_w, w_range):
    # Slabs of 85 x 256 complex (348 KB) are above numpy's 256 KB threshold
    # for reusing temporaries, where operand order can change.
    spec = GridSpec(n_u=256, n_v=256, n_w=n_w, cell_size_lm=1e-3,
                    w_min_native=w_range[0], w_max_native=w_range[1])
    slab = slab_of(spec, 1, 3)
    n = pixel_n_block(spec, slab.v_start, slab.v_count)
    rng = np.random.default_rng(5)
    planes = [rng.standard_normal(n.shape) + 1j * rng.standard_normal(n.shape)
              for _ in range(n_w)]
    inputs = [p.copy() for p in planes]
    acc = None
    for k, plane in enumerate(planes):
        acc = apply_w_correction(acc, plane, k, spec, n)
    block = stack_planes(acc, slab, spec, n)
    ref = per_plane_stack(inputs, spec, n)
    assert block.pixels.tobytes() == np.ascontiguousarray(ref.real).tobytes()
    assert block.imag_sq_sum == float((ref.imag ** 2).sum())
    assert all(p.tobytes() == q.tobytes() for p, q in zip(planes, inputs))


def test_w_correction_rejects_plane_of_wrong_shape():
    spec = GridSpec(n_u=16, n_v=16, n_w=2, cell_size_lm=1e-3, w_max_native=5.0)
    n = pixel_n_block(spec, 0, 8)
    with pytest.raises(ValueError, match="plane shape"):
        apply_w_correction(None, np.zeros((8, 8), dtype=np.complex128), 1, spec, n)
