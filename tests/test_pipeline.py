import dataclasses
import sys
import threading
import time
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from wstack import bench, comms, pipeline, transform, visdata
from wstack.comms import REDUCE_KINDS, ReduceStrategy, Topology
from wstack.gridder import KernelSpec
from wstack.mesh import GridSpec
from wstack.pipeline import peak_pixel, run_pipeline

from perfbench import tracing
from perfbench.workloads import WORKLOADS

from numpy._core._multiarray_umath import __cpu_features__

N, N_W, CELL = 64, 4, 1e-3
KERNELS = [KernelSpec.gaussian(), KernelSpec.kaiser_bessel()]
TOPOLOGIES = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2)]
# numpy's float64 exp, which gives the Gaussian weights, rounds its last
# bits differently in its AVX-512 kernel, so the Gaussian pin is keyed on
# the dispatch family numpy reports. NPY_DISABLE_CPU_FEATURES="X86_V4
# AVX512_ICL AVX512_SPR" takes the AVX2 path on an AVX-512 machine.
AVX512 = bool(__cpu_features__.get("AVX512_SKX"))
# End-to-end image sha256 of the 5k-record case below, computed with
# numpy 2.4.6; another numpy may round the FFT differently.
GOLDEN_SHA256 = {
    "gaussian": ("a7d14c96a814fcd25d9602590f88efc5fa0eada702e1655a3618a1c9fbb17725"
                 if AVX512 else
                 "9dc0f7363af78b5bc1ee06c215d0de23f9ebc3ce45b8aff4675afae7b6b69571"),
    "kaiser_bessel": "6575c74e3521e2fa24465c369964a240bfe0920b6609c96385a4ef08ab758124",
}


def write(tmp_path, sources, n_records, seed, w_min=0.0, w_max=20.0):
    header, chunk = visdata.generate_synthetic(
        visdata.SkyModel(sources=sources), n_records, n_freq=1, seed=seed,
        n_time_slices=8, cell_size_lm=CELL, w_min_native=w_min, w_max_native=w_max)
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


@pytest.mark.parametrize("n_u, n_v", [(2, 8), (16, 8), (8, 16), (32, 4)],
                         ids=lambda n: str(n))
def test_non_square_meshes_image_identically_on_every_topology(tmp_path, n_u, n_v):
    # Ranks hold row slabs, then column blocks; on 2 x 8 the third and
    # fourth ranks hold no image columns.
    path = write(tmp_path, ((0.0, 0.0, 1.0), (0.001, -0.001, 0.5)), 500, seed=7)
    images = {}
    for nodes, ranks in [(1, 1), (1, 2), (1, 3), (2, 2)]:
        img = run_pipeline(path, n_u, n_v, N_W, CELL, kernel=KERNELS[0],
                           topo=Topology(nodes, ranks)).image
        assert img.pixels.shape == (n_v, n_u)
        images[f"{nodes}x{ranks}"] = img.pixels.tobytes()
    assert np.any(img.pixels)
    assert len(set(images.values())) == 1, sorted(images)


def test_more_ranks_than_records_images_as_one_rank(tmp_path):
    # Three records over five ranks: the last two ranks read empty shares.
    path = write(tmp_path, ((0.008, -0.006, 1.0),), 3, seed=11)
    one, five = (run_pipeline(path, N, N, N_W, CELL, kernel=KERNELS[0], topo=Topology(1, r))
                 for r in (1, 5))
    assert five.ops["records"] == one.ops["records"] == 3
    assert five.image_sha256 == one.image_sha256


@pytest.mark.parametrize("kern", KERNELS, ids=lambda k: k.kind)
def test_point_source_peaks_at_its_position(tmp_path, kern):
    # Inside the kernel's image-plane taper, so the taper cannot move the peak.
    l, m = 0.008, -0.006
    path = write(tmp_path, ((l, m, 1.0),), 2000, seed=43)
    res = run_pipeline(path, N, N, N_W, CELL, kernel=kern, topo=Topology(1, 2))
    i, j = peak_pixel(res.image)
    assert abs(i - (N // 2 + round(l / CELL))) <= 1
    assert abs(j - (N // 2 + round(m / CELL))) <= 1


def oracle_image(path, n_w, kern):
    """The image from the direct gridder, a direct inverse DFT per plane and a
    per-plane full-width phase, sharing no code with the pipeline's image
    stage."""
    header, chunk = visdata.read_dataset(path)
    w_lo, w_hi = header.w_min_native, header.w_max_native
    spec = GridSpec(N, N, n_w, CELL, w_min_native=w_lo, w_max_native=w_hi)
    grid, _ = bench.direct_convolution_grid(chunk, spec, kern)
    idx = np.arange(N)
    sign = (-1.0) ** (idx[:, None] + idx[None, :])
    lm = (idx - N // 2) * CELL
    n = np.sqrt(1.0 - lm[None, :] ** 2 - lm[:, None] ** 2)
    ws = [0.5 * (w_lo + w_hi)] if n_w == 1 else np.linspace(w_lo, w_hi, n_w)
    planes = [bench.reference_dft2d(grid[k] * sign, inverse=True)
              * np.exp(2j * np.pi * w * (n - 1.0)) for k, w in enumerate(ws)]
    return (np.mean(planes, axis=0) * n).real


@pytest.mark.parametrize("kern, n_w, w_range", [
    (KERNELS[0], N_W, (0.0, 20.0)),
    (KERNELS[1], N_W, (0.0, 20.0)),
    # plane 0 at w = -10 takes the product path; plane 1 sits at w = 0
    (KERNELS[0], 3, (-10.0, 10.0)),
    # one plane, at the midpoint w = 10
    (KERNELS[0], 1, (0.0, 20.0)),
    # sixteen planes 6.67 apart: the Horner step factor to its 15th power
    (KERNELS[0], 16, (-50.0, 50.0)),
], ids=["gaussian", "kaiser_bessel", "negative-w-min", "one-plane", "sixteen-planes"])
def test_image_matches_independent_oracle(tmp_path, kern, n_w, w_range):
    path = write(tmp_path, ((0.008, -0.006, 1.0), (-0.01, 0.004, 0.5)), 300, seed=17,
                 w_min=w_range[0], w_max=w_range[1])
    ref = oracle_image(path, n_w, kern)
    for topo in (Topology(1, 1), Topology(1, 3)):
        img = run_pipeline(path, N, N, n_w, CELL, kernel=kern, topo=topo).image.pixels
        assert np.linalg.norm(img - ref) <= 1e-12 * np.linalg.norm(ref), topo.label()


def test_hybrid_ring_reduce_traffic_on_one_node(tmp_path):
    # 1x2: per plane, one ring step, each rank sending its partial of the
    # other's slab whole; nothing is gathered or delivered after it.
    path = write(tmp_path, ((0.0, 0.0, 1.0),), 200, seed=3)
    topo = Topology(1, 2)
    res = run_pipeline(path, N, N, N_W, CELL, kernel=KERNELS[0], topo=topo,
                       strategy=ReduceStrategy("hybrid_ring"))
    R = topo.n_ranks
    slab = (N // R) * N * 16
    assert res.ops["reduce_messages"] == N_W * R * (R - 1)
    assert res.ops["reduce_bytes"] == N_W * R * (R - 1) * slab
    assert {m.nbytes for m in res.log.entries(phase="reduce")} == {slab}


def reduce_traffic(kind, topo, n_u, n_v):
    """``{intra_node: (messages, bytes)}`` of one plane's reduce-scatter, in
    closed form (see ``wstack.comms``), S being the plane's bytes. Each slab
    moves R - 1 times: in ``direct`` from the P - 1 other ranks of its
    owner's node and the R - P of the others; in ``hybrid_ring`` P - 1 hops
    on each of the N nodes, then N - 1 hops between them."""
    N, P, R = topo.n_nodes, topo.ranks_per_node, topo.n_ranks
    S = 16 * n_u * n_v
    hops = {True: P - 1, False: R - P} if kind == "direct" else {True: N * (P - 1),
                                                                 False: N - 1}
    return {intra: (R * h, h * S) for intra, h in hops.items()}


# (nodes, ranks, kind, the function rank 1 is slow in)
SLOW_RANK_CASES = [(nodes, ranks, kind, slow)
                   for slow in ("grid_sector", "read_dataset")
                   for kind in REDUCE_KINDS for nodes, ranks in [(1, 3), (2, 2)]]


@pytest.mark.parametrize(
    "nodes, ranks, kind, slow", SLOW_RANK_CASES,
    ids=[f"{n}-{r}-{kind}" + ("" if slow == "grid_sector" else "-slow_read")
         for n, r, kind, slow in SLOW_RANK_CASES])
def test_slow_rank_leaves_the_image_and_the_reduce_traffic_as_they_are(
        tmp_path, monkeypatch, nodes, ranks, kind, slow):
    # Consecutive reduces share one Router, and direct's target takes its
    # payloads in arrival order. Rank 1 grids each plane late, so its
    # peers reach each plane's reduce first, or it reads late, so its
    # peers wait for it inside the exchange, with no barrier between read
    # and exchange; a thread switch every 10 microseconds varies the rest.
    # A payload of the next plane taken in place of one of this plane
    # would change the image.
    path = write(tmp_path, ((0.008, -0.006, 1.0), (0.0, 0.0, 0.5)), 5000, seed=5)
    owner = pipeline if slow == "grid_sector" else visdata
    original = getattr(owner, slow)

    def slow_on_rank_1(*args):
        if threading.current_thread().name == "rank-1":
            time.sleep(0.02)
        return original(*args)

    monkeypatch.setattr(owner, slow, slow_on_rank_1)
    topo = Topology(nodes, ranks)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        res = run_pipeline(path, N, N, N_W, CELL, kernel=KERNELS[0], topo=topo,
                           strategy=ReduceStrategy(kind))
    finally:
        sys.setswitchinterval(interval)
    assert res.image_sha256 == GOLDEN_SHA256["gaussian"]
    got = {intra: (res.log.count("reduce", intra), res.log.total_bytes("reduce", intra))
           for intra in (True, False)}
    assert got == {intra: (N_W * m, N_W * b)
                   for intra, (m, b) in reduce_traffic(kind, topo, N, N).items()}


def test_rank_program_holds_no_read_records_in_the_exchange(tmp_path, monkeypatch):
    # Each rank prepares its records and drops them before the exchange,
    # so they do not outlive it into the gridding.
    path = write(tmp_path, ((0.0, 0.0, 1.0),), 200, seed=3)
    read, exchange = visdata.read_dataset, comms.exchange_to_space_order
    chunks, alive, lock = {}, {}, threading.Lock()

    def read_dataset(*args):
        header, chunk = read(*args)
        with lock:
            chunks[threading.current_thread().name] = weakref.ref(chunk)
        return header, chunk

    def exchange_to_space_order(*args):
        name = threading.current_thread().name
        with lock:
            alive[name] = chunks[name]() is not None
        return exchange(*args)

    monkeypatch.setattr(visdata, "read_dataset", read_dataset)
    monkeypatch.setattr(comms, "exchange_to_space_order", exchange_to_space_order)
    run_pipeline(path, N, N, N_W, CELL, kernel=KERNELS[0], topo=Topology(1, 3))
    assert alive == {"rank-0": False, "rank-1": False, "rank-2": False}


# Whole-run tracemalloc peak, in planes of the mesh, at 256^2 with 2000
# records (tracemalloc counts each rank's untouched zero plane in full).
# Streaming each plane's columns through one block of COL_BLOCK columns
# peaked at 5.02-6.22 planes over 25 runs of each cell below (2x2 highest,
# 1x2 lowest), the same under the AVX2 dispatch; the bound leaves half a
# plane above that. A full column plane per rank peaked at 5.8-7.2,
# holding every plane of every slab from gridding to the image pass at
# 11.8-12.6 (n_w = 8) and 36.0-36.6 (n_w = 32).
RUN_PEAK_PLANES = 6.75


@pytest.mark.parametrize("n_w", [8, 32])
@pytest.mark.parametrize("kind", REDUCE_KINDS)
@pytest.mark.parametrize("nodes, ranks", [(1, 2), (1, 3), (2, 2)])
def test_run_holds_a_few_planes(tmp_path, nodes, ranks, kind, n_w):
    path = write(tmp_path, ((0.008, -0.006, 1.0),), 2000, seed=19)
    plane_bytes = 256 * 256 * 16
    tracemalloc.start()
    try:
        run_pipeline(path, 256, 256, n_w, CELL, kernel=KERNELS[0],
                     topo=Topology(nodes, ranks), strategy=ReduceStrategy(kind))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= RUN_PEAK_PLANES * plane_bytes, f"{peak / plane_bytes:.2f} planes"


def test_image_stage_hooks_are_each_called(tmp_path, monkeypatch):
    # The benchmark's traced run times these as module attributes of
    # ``transform``; a call that bypasses one would read as 0 s there.
    path = write(tmp_path, ((0.0, 0.0, 1.0),), 200, seed=3)
    calls, lock = Counter(), threading.Lock()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            with lock:
                calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("apply_w_correction", "stack_planes", "fft2d_slab"):
        monkeypatch.setattr(transform, name, counted(name, getattr(transform, name)))
    # A mesh wide enough for four column blocks per rank: the Horner step
    # runs once per block and plane.
    R, n = 2, 8 * transform.COL_BLOCK
    run_pipeline(path, n, n, N_W, CELL, kernel=KERNELS[0], topo=Topology(1, R))
    assert calls == {"apply_w_correction": N_W * R * 4, "stack_planes": R,
                     "fft2d_slab": N_W * R}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_benchmark_hooks_are_each_called(tmp_path, name):
    # The benchmark's traced run times the layers at the hooks of
    # ``perfbench.tracing``, and fails when one is never called: a kernel
    # evaluation or gridding call that bypasses its hook would read as a
    # layer taking 0 s. Each workload's kernel, topology and strategy, at a
    # tiny size.
    workload = WORKLOADS[name]
    tiny = dataclasses.replace(workload, records=2000, n_chan=1, n_grid=N, n_w=N_W)
    dataset = tmp_path / "d.rvis"
    tiny.write_dataset(3, dataset)
    with tracing.Tracer() as tracer:
        tiny.image(dataset, tmp_path / "out", seed=3)
    assert tracing.trace_problems(tracer, 1.0, workload.idle_hooks) == []
