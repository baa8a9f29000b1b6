import pytest

from wstack import visdata
from wstack.comms import REDUCE_KINDS, ReduceStrategy, Topology
from wstack.gridder import KernelSpec
from wstack.pipeline import peak_pixel, run_pipeline

N, N_W, CELL = 64, 4, 1e-3
KERNELS = [KernelSpec.gaussian(), KernelSpec.kaiser_bessel()]
TOPOLOGIES = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2)]
# End-to-end image sha256 of the 5k-record case below, computed with
# numpy 2.4.6; another numpy may round the FFT differently.
GOLDEN_SHA256 = {
    "gaussian": "3d2eb59264a8784d7703f253e5dce5ddaf11a63f1085cec2f9cdff918d0521cf",
    "kaiser_bessel": "64276651ec4d0b0424297dbb10aaf7466daca0961f63a3bdf22ee9e28319329d",
}


def write(tmp_path, sources, n_records, seed):
    header, chunk = visdata.generate_synthetic(
        visdata.SkyModel(sources=sources), n_records, n_freq=1, seed=seed,
        n_time_slices=8, cell_size_lm=CELL, w_min_native=0.0, w_max_native=20.0)
    path = tmp_path / "d.rvis"
    visdata.write_dataset(chunk, header, path)
    return path


@pytest.mark.parametrize("kern", KERNELS, ids=lambda k: k.kind)
def test_image_identical_across_topologies_and_strategies(tmp_path, kern):
    path = write(tmp_path, ((0.008, -0.006, 1.0), (0.0, 0.0, 0.5)), 5000, seed=5)
    hashes = {}
    for nodes, ranks in TOPOLOGIES:
        for kind in REDUCE_KINDS:
            res = run_pipeline(path, N, N, N_W, CELL, kernel=kern,
                               topo=Topology(nodes, ranks), strategy=ReduceStrategy(kind))
            hashes[(nodes, ranks, kind)] = res.image_sha256
    assert set(hashes.values()) == {GOLDEN_SHA256[kern.kind]}, hashes


@pytest.mark.parametrize("kern", KERNELS, ids=lambda k: k.kind)
def test_point_source_peaks_at_its_position(tmp_path, kern):
    # Inside the kernel's image-plane taper, so the taper cannot move the peak.
    l, m = 0.008, -0.006
    path = write(tmp_path, ((l, m, 1.0),), 2000, seed=43)
    res = run_pipeline(path, N, N, N_W, CELL, kernel=kern, topo=Topology(1, 2))
    i, j = peak_pixel(res.image)
    assert abs(i - (N // 2 + round(l / CELL))) <= 1
    assert abs(j - (N // 2 + round(m / CELL))) <= 1
