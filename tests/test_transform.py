import numpy as np
import pytest

from wstack.comms import MessageLog, Topology
from wstack.mesh import GridSpec, partition_1d
from wstack.transform import fft2d_slab

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


def test_bad_direction_and_slab_count_rejected(plane):
    with pytest.raises(ValueError, match="direction"):
        fft2d_slab([plane], SPEC, Topology(1, 1), "sideways")
    with pytest.raises(ValueError, match="expected 2 slabs"):
        fft2d_slab([plane], SPEC, Topology(1, 2))
