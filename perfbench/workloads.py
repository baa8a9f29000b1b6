"""The benchmark's workloads: seeded datasets and the pipeline settings.

Every workload images the same two-source sky, generated by
``visdata.generate_synthetic`` from the benchmark's seed and written once
per invocation with ``visdata.write_dataset``. Workloads differ in record
count, channels, mesh size, kernel, topology and reduce strategy, chosen so
that each stresses a different layer. Ranks are in-process threads, so no
workload runs more ranks than the two cores of the machine the sizes were
chosen on; a 2x2 topology would time the scheduler more than the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from wstack import visdata
from wstack.comms import ReduceStrategy, Topology
from wstack.gridder import KernelSpec
from wstack.pipeline import PipelineResult, run_pipeline

SKY = "0.02,-0.015,2.0;0,0,1"
N_TIME_SLICES = 8
W_MIN_NATIVE = 0.0
W_MAX_NATIVE = 20.0
CELL_SIZE_LM = 1e-3


@dataclass(frozen=True)
class Workload:
    """One benchmark input: dataset size plus the imaging configuration."""

    name: str
    records: int
    n_chan: int
    n_grid: int
    n_w: int
    kernel: KernelSpec
    topology: Topology
    strategy: str
    # Hooks of ``tracing.HOOKS`` this configuration never calls.
    idle_hooks: tuple[str, ...] = ()

    def write_dataset(self, seed: int, path: Path) -> None:
        header, chunk = visdata.generate_synthetic(
            visdata.SkyModel.parse(SKY), self.records, self.n_chan, seed,
            n_time_slices=N_TIME_SLICES, cell_size_lm=CELL_SIZE_LM,
            w_min_native=W_MIN_NATIVE, w_max_native=W_MAX_NATIVE,
        )
        visdata.write_dataset(chunk, header, path)

    def image(self, dataset: Path, out_dir: Path, seed: int) -> PipelineResult:
        """One ``run_pipeline`` call: dataset on disk to image and
        ``messages.csv`` written under ``out_dir``."""
        return run_pipeline(
            dataset, self.n_grid, self.n_grid, self.n_w, CELL_SIZE_LM,
            self.kernel, self.topology, ReduceStrategy(self.strategy),
            label=self.name, out_dir=out_dir, seed=seed,
        )


# Why each workload is here is stated in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    # Row FFT, transpose, w-correction and the reduce dominate.
    Workload(name="wide_mesh_1x2", records=100_000, n_chan=1, n_grid=1024, n_w=16,
             kernel=KernelSpec.gaussian(3, 1.0), topology=Topology(1, 2),
             strategy="hybrid_ring",
             # The ring reduce receives from named ranks only.
             idle_hooks=("wstack.comms.Router.recv_any",)),
    # Kaiser-Bessel evaluation dominates; heaviest read and exchange.
    Workload(name="kb_exchange_1x2", records=1_000_000, n_chan=4, n_grid=256, n_w=4,
             kernel=KernelSpec.kaiser_bessel(3), topology=Topology(1, 2),
             strategy="direct"),
)}
