"""Five-phase imaging pipeline: read, grid, reduce, transform, write.

One call runs the whole chain on the virtual topology and returns the
image, the per-phase wall times (collective wall clock, i.e. the max over
ranks), deterministic operation-count surrogates, and the message log.
Each phase is also metered: its joules are the process CPU-seconds spent
in it times :data:`~wstack.metrics.WATTS_PER_CORE`, and the total is the
whole run's. Both land in a :class:`~wstack.metrics.RunRecord` at the
``default`` frequency level. Given a platform counter, its reading over
the run replaces the total joules.

The image stage is one pass per rank in the transposed layout of
:mod:`wstack.transform`: the planes go through ``fft2d_slab`` in reverse
order and into the block's sum by Horner's rule, with n and the step
factor built once per rank over half the block's rows. Its ``fft``
seconds are the busiest rank's time in ``fft2d_slab`` and its ``fft`` CPU
the ranks' summed thread time there; ``wcorrect`` gets the rest of the
stage's wall time and CPU.

Stages hand on plain complex128 arrays, with no mesh geometry: each
rank grids its slab, its :func:`~wstack.mesh.partition_1d` share of the
rows, into one ``(n_w, rows, n_u)`` array. The reduce sums each sector
one w plane at a time into its owner's own gridded slab, handing
:func:`~wstack.comms.reduce_slabs` plane buffers, so its scratch is a few
planes of one slab, not whole slabs; each slab is freed once its rank has
transformed it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import comms, metrics, transform, visdata
from .comms import MessageLog, ReduceStrategy, Topology, run_ranks
from .gridder import KernelSpec, grid_sector
from .mesh import GridSpec, partition_1d, pixel_n_block
from .transform import FinalImage

__all__ = ["PipelineResult", "run_pipeline", "grid_sectors", "reduce_sectors",
           "image_sectors", "peak_pixel"]


@dataclass
class PipelineResult:
    run: metrics.RunRecord
    image: FinalImage
    log: MessageLog
    ops: dict
    paths: dict = field(default_factory=dict)

    @property
    def image_sha256(self) -> str:
        return hashlib.sha256(np.ascontiguousarray(self.image.pixels, dtype="<f8")).hexdigest()


def peak_pixel(image: FinalImage) -> tuple[int, int]:
    """(column i, row j) of the brightest pixel."""
    j, i = np.unravel_index(np.argmax(image.pixels), image.pixels.shape)
    return int(i), int(j)


def grid_sectors(parts, spec: GridSpec, kernel: KernelSpec, topo: Topology,
                 log: MessageLog):
    """Move each rank's records (``parts[r]``, a contiguous run of the
    records in rank order) to their sector owners, then grid every sector
    on its rank into a plain ``(n_w, count, n_u)`` complex128 array, where
    ``(start, count)`` is the rank's :func:`~wstack.mesh.partition_1d`
    share of the rows. The exchange takes the records out of the ``parts``
    list. Returns ``(one slab array per rank, total cell updates)``."""
    R = topo.n_ranks
    batches = comms.exchange_to_space_order(parts, spec, topo,
                                            halo_rows=kernel.half_support, log=log)
    updates = [0] * R

    def grid_fn(ctx):
        start, count = partition_1d(spec.n_v, R, ctx.rank)
        out = np.zeros((spec.n_w, count, spec.n_u), dtype=np.complex128)
        updates[ctx.rank] = grid_sector(batches[ctx.rank], kernel, out, start)
        return out

    slabs = run_ranks(topo, grid_fn, log=log)
    return slabs, sum(updates)


def reduce_sectors(slabs, topo: Topology, strategy: ReduceStrategy, log: MessageLog):
    """Per-sector reduce onto each slab's owner, one w plane at a time:
    the owner's plane ``slab[k]``, a view, is the receive buffer of the
    sum, and every other rank contributes one zero plane, made once per
    sector and shared. Each gridded slab array moves from ``slabs`` into
    the returned list, which holds the owners' own arrays, reduced in
    place."""
    reduced = []
    for target in range(len(slabs)):
        own, slabs[target] = slabs[target], None
        # np.zeros leaves the pages untouched until read; zeros_like writes them
        zero = np.zeros(own.shape[1:], dtype=np.complex128)
        for plane in own:
            partials = [plane if r == target else zero for r in range(topo.n_ranks)]
            comms.reduce_slabs(strategy, partials, target, topo, log=log)
        reduced.append(own)
    return reduced


def image_sectors(reduced, spec: GridSpec, topo: Topology, log: MessageLog):
    """The image stage: per rank, for each w plane in reverse order, the
    inverse transform of its reduced slab into its column block and the
    Horner step of the w correction into the block's sum, then the
    stacking. A rank drops its ``reduced`` entry once it has transformed
    it. Returns ``(ImageBlocks in rank order, the busiest rank's seconds in
    fft2d_slab, the ranks' summed thread CPU-seconds in it)``."""
    R = topo.n_ranks
    fft_s, fft_cpu = [0.0] * R, [0.0] * R

    def image_fn(ctx):
        r = ctx.rank
        planes, reduced[r] = reduced[r], None
        u0, uc = partition_1d(spec.n_u, R, r)
        n = pixel_n_block(spec, u0, uc)
        z = transform.w_phase_factor(n, spec.w_step_native)
        acc = None
        for k in reversed(range(spec.n_w)):
            t0, c0 = time.perf_counter(), time.thread_time()
            plane = transform.fft2d_slab(ctx, planes[k], spec)
            fft_s[r] += time.perf_counter() - t0
            fft_cpu[r] += time.thread_time() - c0
            acc = transform.apply_w_correction(acc, plane, z)
            # freed before the next plane's transform, not after it
            del plane
        del planes, z
        return transform.stack_planes(acc, n, spec)

    return run_ranks(topo, image_fn, log=log), max(fft_s), sum(fft_cpu)


def run_pipeline(
    dataset_path,
    n_u: int,
    n_v: int,
    n_w: int,
    cell_size_lm: float,
    kernel: KernelSpec,
    topo: Topology,
    strategy: ReduceStrategy | None = None,
    label: str = "run",
    out_dir=None,
    pgm: bool = False,
    seed: int | None = None,
    counter: metrics.PlatformCounterMeter | None = None,
) -> PipelineResult:
    strategy = strategy or ReduceStrategy()
    log = MessageLog()
    if counter is not None:
        counter.start()
    t_begin, c_begin = time.perf_counter(), time.process_time()
    times: dict[str, float] = {}
    cpu: dict[str, float] = {}

    # 1. read: each rank reads its own contiguous share of the records
    t0, c0 = time.perf_counter(), time.process_time()
    shares = run_ranks(topo, lambda ctx: visdata.read_dataset(dataset_path, ctx.rank,
                                                              topo.n_ranks))
    header = shares[0][0]
    parts = [chunk for _, chunk in shares]
    del shares
    n_records = sum(len(chunk) for chunk in parts)
    spec = GridSpec(
        n_u=n_u, n_v=n_v, n_w=n_w, cell_size_lm=cell_size_lm,
        w_min_native=header.w_min_native, w_max_native=header.w_max_native,
    )
    times["read"], cpu["read"] = time.perf_counter() - t0, time.process_time() - c0

    # 2. gridding: records move to their sector owners, sectors convolve;
    #    the exchange frees each rank's records once it has prepared them
    t0, c0 = time.perf_counter(), time.process_time()
    slabs, grid_updates = grid_sectors(parts, spec, kernel, topo, log)
    times["gridding"], cpu["gridding"] = time.perf_counter() - t0, time.process_time() - c0

    # 3. reduce: per-sector collective summation, plane by plane, into the
    #    owner's own gridded slab
    t0, c0 = time.perf_counter(), time.process_time()
    reduced = reduce_sectors(slabs, topo, strategy, log)
    times["reduce"], cpu["reduce"] = time.perf_counter() - t0, time.process_time() - c0

    # 4-5a. image: per rank, each w plane's inverse transform into the
    #    rank's image columns and its w correction, then the stacking; the
    #    gridder stored each cell times (-1)^(i+j), which centres the phase
    t0, c0 = time.perf_counter(), time.process_time()
    blocks, times["fft"], cpu["fft"] = image_sectors(reduced, spec, topo, log)
    times["wcorrect"] = time.perf_counter() - t0 - times["fft"]
    cpu["wcorrect"] = time.process_time() - c0 - cpu["fft"]

    # 5b. write
    t0, c0 = time.perf_counter(), time.process_time()
    image = transform.assemble_image(spec, blocks)
    paths = {}
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        provenance = {
            "dataset": str(dataset_path),
            "kernel": {"kind": kernel.kind, "half_support": kernel.half_support,
                       "shape_param": kernel.shape_param},
            "topology": {"n_nodes": topo.n_nodes, "ranks_per_node": topo.ranks_per_node},
            "strategy": {"kind": strategy.kind},
            "seed": seed,
        }
        paths = transform.write_image(image, out_dir / "image", provenance, pgm=pgm)
        log_path = out_dir / "messages.csv"
        log.to_csv(log_path)
        paths["messages"] = log_path
    times["write"], cpu["write"] = time.perf_counter() - t0, time.process_time() - c0
    times["total"] = time.perf_counter() - t_begin
    cpu["total"] = time.process_time() - c_begin

    energy = {phase: seconds * metrics.WATTS_PER_CORE for phase, seconds in cpu.items()}
    if counter is not None:
        energy["total"] = counter.joules()

    ops = {
        "records": n_records,
        "grid_updates": int(grid_updates),
        "exchange_bytes": log.total_bytes(phase="exchange"),
        "reduce_bytes": log.total_bytes(phase="reduce"),
        "fft_bytes": log.total_bytes(phase="fft"),
        "reduce_messages": log.count(phase="reduce"),
    }
    run = metrics.RunRecord(
        label=label, n_nodes=topo.n_nodes, freq_level="default",
        phase_times=times, energy_joules=energy,
    )
    return PipelineResult(run=run, image=image, log=log, ops=ops, paths=paths)
