"""Five-phase imaging pipeline: read, grid, reduce, transform, write.

One call runs the whole chain on the virtual topology and returns the
image, the per-phase wall times, deterministic operation-count
surrogates, and the message log. Each phase is also metered: its joules
are its CPU-seconds times :data:`~wstack.metrics.WATTS_PER_CORE`, and the
total is the whole run's process CPU. Both land in a
:class:`~wstack.metrics.RunRecord` at the ``default`` frequency level.
Given an energy counter command, it is read with
:func:`~wstack.metrics.read_counter` before the run's clocks start and
after they stop, and the difference replaces the total joules; the
command's own time is outside the run's seconds and CPU.

One rank program runs from the read to the stacked image, one
:func:`~wstack.comms.run_ranks` call. Each rank reads its share of the
records into columns, builds the mesh geometry from its own header,
prepares its records and drops the read columns, so that between the read
and the exchange it holds only the prepared columns
(:class:`~wstack.comms.PreparedRecords`), 33 bytes per record for up to
256 planes. The exchange hands it the records that reach its row slab
(its :func:`~wstack.mesh.partition_1d` share of the rows), one batch per
w plane. It then streams the planes: for k = n_w - 1 ... 0, it grids plane
k into one ``(rows, n_u)`` buffer it reuses, reduces the plane with one
reduce-scatter (its buffer as its partial of its own slab, a read-only
zero plane as its partial of every other) and transforms it in place with
:func:`~wstack.transform.fft2d_slab`, whose column blocks it adds into its
``(columns, n_v)`` sum by Horner's rule as each one is formed; it then
stacks the sum. A rank holds its grid buffer, its sum, n, the step factor
and one column block, not n_w planes nor a full column plane. The
coordinator only assembles the blocks, writes the image and builds the
run record.

Phase accounting, one rule: each rank charges its wall time and thread
CPU to read (the thread's start and the geometry included), gridding
(prepare and exchange included), reduce, fft or wcorrect (n, the step
factor, the stacking and the frees of the rank's buffers included) as it
goes. A phase's seconds are those of the rank whose charges sum highest,
so the phases never sum to more than the run; its CPU is the ranks'
summed thread CPU. Write, which the coordinator runs alone, is its
process CPU.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import comms, metrics, transform, visdata
from .comms import MessageLog, ReduceStrategy, Topology, run_ranks
from .gridder import KernelSpec, grid_sector
from .mesh import GridSpec, partition_1d, pixel_n_block
from .transform import FinalImage

__all__ = ["PipelineResult", "run_pipeline", "peak_pixel"]


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


def _rank_program(ctx, dataset_path, geometry: tuple, kernel: KernelSpec,
                  strategy: ReduceStrategy):
    """One rank's program (see the module docs); ``geometry`` is ``(n_u,
    n_v, n_w, cell_size_lm)``. Returns ``(GridSpec, records read, ImageBlock,
    cell updates, wall seconds and thread CPU per phase)``."""
    R, r = ctx.topo.n_ranks, ctx.rank
    # run_ranks starts a thread for each rank, so its CPU clock starts at 0
    # and the first charge includes the thread's start.
    wall, cpu, last = Counter(), Counter(), [time.perf_counter(), 0.0]

    def charge(phase):
        now = time.perf_counter(), time.thread_time()
        wall[phase] += now[0] - last[0]
        cpu[phase] += now[1] - last[1]
        last[:] = now

    header, chunk = visdata.read_dataset(dataset_path, r, R)
    n_records = len(chunk)
    spec = GridSpec(*geometry, w_min_native=header.w_min_native,
                    w_max_native=header.w_max_native)
    charge("read")
    prepared = comms.prepare_chunk(chunk, spec)
    del chunk
    planes = comms.exchange_to_space_order(ctx, prepared, spec, kernel.half_support)
    del prepared
    charge("gridding")

    v0, rows = partition_1d(spec.n_v, R, r)
    u0, uc = partition_1d(spec.n_u, R, r)
    grid = np.empty((rows, spec.n_u), dtype=np.complex128)
    acc = np.empty((uc, spec.n_v), dtype=np.complex128)
    # The partials of the other ranks' slabs: leading rows of one zero
    # plane as tall as rank 0's slab, the tallest; np.zeros maps no pages,
    # nor does reading. Read-only, so that it passes by reference within a
    # node.
    zero = np.zeros((partition_1d(spec.n_v, R, 0)[1], spec.n_u), dtype=np.complex128)
    zero.flags.writeable = False
    parts = [grid if t == r else zero[:partition_1d(spec.n_v, R, t)[1]] for t in range(R)]
    n = pixel_n_block(spec, u0, uc)
    z = transform.w_phase_factor(n, spec.w_step_native)
    charge("wcorrect")

    def into(c0, block):
        # Each column block is added into its rows of the sum while it is
        # still in cache.
        charge("fft")
        cols = slice(c0, c0 + len(block))
        transform.apply_w_correction(acc[cols], block, z[cols], first=k == spec.n_w - 1)
        charge("wcorrect")

    updates = 0
    for k in reversed(range(spec.n_w)):
        updates += grid_sector(planes[k], kernel, grid, v0)
        charge("gridding")
        comms.reduce_slabs(ctx, strategy, parts)
        charge("reduce")
        transform.fft2d_slab(ctx, grid, spec, into)
        charge("fft")
    # Free the buffers inside the phase, so that their frees are charged,
    # and those of the plane loop before the stacking allocates its pixels.
    del planes, grid, zero, parts
    block = transform.stack_planes(acc, n, spec)
    del acc, n, z
    charge("wcorrect")
    return spec, n_records, block, updates, wall, cpu


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
    counter: str | None = None,
) -> PipelineResult:
    strategy = strategy or ReduceStrategy()
    log = MessageLog()
    counter_begin = metrics.read_counter(counter) if counter is not None else None
    t_begin, c_begin = time.perf_counter(), time.process_time()

    # read ... wcorrect: one rank program (see the module docs)
    specs, records, blocks, updates, walls, cpus = zip(*run_ranks(
        topo, lambda ctx: _rank_program(ctx, dataset_path, (n_u, n_v, n_w, cell_size_lm),
                                        kernel, strategy), log=log))
    spec = specs[0]
    busiest = max(walls, key=lambda wall: sum(wall.values()))
    times = {phase: busiest[phase] for phase in metrics.PHASES if phase != "write"}
    cpu = {phase: sum(rank_cpu[phase] for rank_cpu in cpus) for phase in times}

    # write
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
        energy["total"] = metrics.read_counter(counter) - counter_begin

    ops = {
        "records": sum(records),
        "grid_updates": sum(updates),
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
