"""Benchmark orchestration and the self-verification suite.

A :class:`BenchPlan` sweeps topologies x strategies, runs each cell
``repeats`` times, and writes a raw CSV (one row per run), an aggregate
CSV (mean and sample standard deviation per cell) and ``trace.csv``, the
phases of each successful run labelled ``<cell>/r<repeat>`` in the trace
format ``wstack report`` reads. A failed run aborts its cell, is recorded
with a reason, and never poisons the aggregates or the trace.

:func:`verify_pipeline` checks the production paths against independent
references: a direct triple-loop convolution (also on records placed on
cell lines and at mesh edges), a direct O(N^4) DFT, the cross-strategy
reduce equivalence, and end-to-end point-source recovery.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import comms, metrics, transform, visdata
from .comms import REDUCE_KINDS, ReduceStrategy, Topology, reduce_slabs, run_ranks
from .gridder import KernelSpec, grid_sector, kernel_value
from .mesh import GridSpec, partition_1d, pixel_n_block
from .pipeline import peak_pixel, run_pipeline

__all__ = [
    "BenchPlan",
    "PlanResult",
    "run_plan",
    "RAW_COLUMNS",
    "TIMING_COLUMNS",
    "CheckResult",
    "VerifyReport",
    "verify_pipeline",
    "direct_convolution_grid",
    "gridded_mesh",
    "edge_chunk",
    "reference_dft2d",
]


@dataclass
class BenchPlan:
    """One benchmark campaign over a dataset file."""

    n_u: int
    n_v: int
    n_w: int
    cell_size_lm: float
    kernel: KernelSpec
    topologies: list
    strategies: list
    dataset: Path
    repeats: int = 4
    counter: str | None = None
    output_dir: Path = Path("bench_out")

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not self.topologies or not self.strategies:
            raise ValueError("sweep lists must be non-empty")


PHASE_COLUMNS = [f"{p}_s" for p in metrics.PHASES] + ["total_s"]
OPS_COLUMNS = ["records", "grid_updates", "exchange_bytes", "reduce_bytes",
               "fft_bytes", "reduce_messages"]
RAW_COLUMNS = (
    ["config", "label", "topology", "strategy", "repeat",
     "status", "failure_reason", "image_sha256"]
    + PHASE_COLUMNS + ["total_j"] + OPS_COLUMNS
)
# Columns that legitimately differ between identical runs:
# wall-clock measurements and anything derived from them.
TIMING_COLUMNS = PHASE_COLUMNS + ["total_j"]


@dataclass
class PlanResult:
    raw_rows: list
    aggregate_rows: list
    aggregate_header: list
    raw_path: Path
    aggregate_path: Path
    all_ok: bool


def _cell_label(topo: Topology, strategy: ReduceStrategy) -> str:
    return f"{topo.label()}_{strategy.kind}"


def run_plan(plan: BenchPlan) -> PlanResult:
    out_dir = Path(plan.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    raw_rows, trace = [], []
    cells = list(itertools.product(plan.topologies, plan.strategies))
    for ci, (topo, strategy) in enumerate(cells):
        label = _cell_label(topo, strategy)
        for rep in range(plan.repeats):
            base = {
                "config": ci, "label": label, "topology": topo.label(),
                "strategy": strategy.kind, "repeat": rep,
            }
            try:
                res = run_pipeline(
                    plan.dataset, plan.n_u, plan.n_v, plan.n_w, plan.cell_size_lm,
                    kernel=plan.kernel, topo=topo, strategy=strategy,
                    label=f"{label}/r{rep}", counter=plan.counter,
                )
            except visdata.FormatError:
                raise  # every cell reads the same malformed dataset
            except Exception as exc:  # cell aborts, plan continues
                raw_rows.append({**base, "status": "failed",
                                 "failure_reason": f"{type(exc).__name__}: {exc}",
                                 "image_sha256": ""})
                break
            row = {**base, "status": "ok", "failure_reason": "",
                   "image_sha256": res.image_sha256}
            for p in metrics.PHASES:
                row[f"{p}_s"] = res.run.phase_times.get(p, 0.0)
            row["total_s"] = res.run.total_seconds
            row["total_j"] = res.run.total_joules
            row.update(res.ops)
            raw_rows.append(row)
            trace += metrics.trace_rows(res.run)

    raw_path = out_dir / "runs_raw.csv"
    metrics.write_report_csv(raw_path, RAW_COLUMNS,
                             [[row.get(k, "") for k in RAW_COLUMNS] for row in raw_rows])
    metrics.write_trace(out_dir / "trace.csv", trace)
    agg_header, agg_rows = aggregate_rows(raw_rows)
    agg_path = out_dir / "runs_aggregate.csv"
    metrics.write_report_csv(agg_path, agg_header, agg_rows)

    all_ok = all(r["status"] == "ok" for r in raw_rows)
    return PlanResult(raw_rows=raw_rows, aggregate_rows=agg_rows,
                      aggregate_header=agg_header, raw_path=raw_path,
                      aggregate_path=agg_path, all_ok=all_ok)


def mean_std(values) -> tuple[float, float]:
    """Mean and sample standard deviation (0 for a single value)."""
    values = list(values)
    m = statistics.fmean(values)
    s = statistics.stdev(values) if len(values) > 1 else 0.0
    return m, s


def aggregate_rows(raw_rows):
    """Per-configuration mean and stddev over the successful repeats."""
    stat_cols = PHASE_COLUMNS + ["total_j"] + OPS_COLUMNS
    header = ["config", "label", "status", "n_ok", "failure_reason"]
    for col in stat_cols:
        header += [f"{col}_mean", f"{col}_std"]
    header += ["image_hashes_identical"]
    by_config: dict[int, list] = {}
    for row in raw_rows:
        by_config.setdefault(row["config"], []).append(row)
    out = []
    for config in sorted(by_config):
        rows = by_config[config]
        ok = [r for r in rows if r["status"] == "ok"]
        failed = [r for r in rows if r["status"] != "ok"]
        line = [config, rows[0]["label"],
                "ok" if not failed else "failed", len(ok),
                failed[0]["failure_reason"] if failed else ""]
        for col in stat_cols:
            if ok:
                m, s = mean_std([float(r[col]) for r in ok])
            else:
                m, s = 0.0, 0.0
            line += [m, s]
        hashes = {r["image_sha256"] for r in ok}
        line += [int(len(hashes) <= 1)]
        out.append(line)
    return header, out


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------

def direct_convolution_grid(chunk, spec: GridSpec, kern: KernelSpec):
    """Reference gridder: plain triple loop over records x kernel footprint
    onto the full mesh. Slow by design; used only to check the fast path.
    Returns ``(grid, number of cell updates)``."""
    prep = comms.prepare_chunk(chunk, spec)
    grid = np.zeros((spec.n_w, spec.n_v, spec.n_u), dtype=np.complex128)
    S = kern.half_support
    updates = 0
    for gu, gv, plane, value in zip(prep.gu, prep.gv, prep.plane, prep.value):
        for j in range(int(np.ceil(gv - S)), int(np.floor(gv + S)) + 1):
            if not 0 <= j < spec.n_v:
                continue
            for i in range(int(np.ceil(gu - S)), int(np.floor(gu + S)) + 1):
                if not 0 <= i < spec.n_u:
                    continue
                grid[plane, j, i] += value * kernel_value(kern, gu - i, gv - j)
                updates += 1
    return grid, updates


def edge_chunk(n: int = 120, seed: int = 5) -> visdata.VisChunk:
    """Records spread over all four planes of an n_w=4 mesh, half of them
    within the half support of a u or v mesh edge of a 32-cell axis, some
    exactly on a cell line or an edge."""
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


def reference_dft2d(plane: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Direct O(N^4) discrete Fourier transform of a 2D array."""
    nr, nc = plane.shape
    sign = 2j * np.pi if inverse else -2j * np.pi
    fr = np.exp(sign * np.outer(np.arange(nr), np.arange(nr)) / nr)
    fc = np.exp(sign * np.outer(np.arange(nc), np.arange(nc)) / nc)
    out = fr @ plane @ fc
    if inverse:
        out = out / (nr * nc)
    return out


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    tolerance: str
    measured: str
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.measured} (tolerance {self.tolerance})"


@dataclass
class VerifyReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [c.line() for c in self.checks]
        lines.append(f"{'OK' if self.passed else 'FAILED'}: "
                     f"{sum(c.passed for c in self.checks)}/{len(self.checks)} checks passed")
        return "\n".join(lines)


def gridded_mesh(parts, spec: GridSpec, kern: KernelSpec, topo: Topology):
    """The pipeline's gridding as one ``(n_w, n_v, n_u)`` mesh: on ranks of
    its own, rank r prepares ``parts[r]``, takes part in the exchange and
    grids its planes into its rows; the pipeline's reduce adds only zero
    planes to them. Returns ``(mesh, cell updates)``."""
    mesh = np.zeros((spec.n_w, spec.n_v, spec.n_u), dtype=np.complex128)

    def fn(ctx):
        v0, rows = partition_1d(spec.n_v, topo.n_ranks, ctx.rank)
        prepared = comms.prepare_chunk(parts[ctx.rank], spec)
        planes = comms.exchange_to_space_order(ctx, prepared, spec, kern.half_support)
        return sum(grid_sector(batch, kern, mesh[k, v0:v0 + rows], v0)
                   for k, batch in enumerate(planes))

    return mesh, sum(run_ranks(topo, fn))


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if np.size(a) else 0.0


def _cell_sign(spec: GridSpec) -> np.ndarray:
    """(-1)^(i+j) over the mesh: the factor the gridder stores each cell
    (row j, column i) with, so a reference grid times it is compared."""
    return (-1.0) ** np.add.outer(np.arange(spec.n_v), np.arange(spec.n_u))


def verify_pipeline(scale: str = "small") -> VerifyReport:
    """Run the oracle suite; failures are reported, never raised."""
    if scale == "small":
        n_u = n_v = 64
        n_w = 4
        n_records = 1000
        brute = True
    elif scale == "medium":
        n_u = n_v = 256
        n_w = 8
        n_records = 100_000
        brute = False
    else:
        raise ValueError(f"scale must be small or medium, got {scale!r}")

    checks: list[CheckResult] = []
    cell = 1e-3
    kern = KernelSpec.gaussian(half_support=3, sigma=1.0)
    spec = GridSpec(n_u=n_u, n_v=n_v, n_w=n_w, cell_size_lm=cell,
                    w_min_native=0.0, w_max_native=20.0)
    sky = visdata.SkyModel(sources=((0.02, -0.015, 2.0), (0.0, 0.0, 1.0)))
    header, chunk = visdata.generate_synthetic(
        sky, n_records, n_freq=2, seed=90, n_time_slices=8,
        cell_size_lm=cell, w_min_native=0.0, w_max_native=20.0)

    # dataset round trip
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        p1 = Path(tmp) / "a.rvis"
        p2 = Path(tmp) / "b.rvis"
        visdata.write_dataset(chunk, header, p1)
        h2, c2 = visdata.read_dataset(p1)
        visdata.write_dataset(c2, h2, p2)
        identical = p1.read_bytes() == p2.read_bytes()
        reunions = [visdata.VisChunk.concat(visdata.read_dataset(p1, r, n_ranks)[1]
                                            for r in range(n_ranks))
                    for n_ranks in range(1, 5)]
        shares_ok = all(len(reunion) == len(chunk)
                        and np.array_equal(reunion.u, chunk.u)
                        and np.array_equal(reunion.vis, chunk.vis)
                        for reunion in reunions)
        checks.append(CheckResult(
            "dataset write/read/write round trip", "bit-identical",
            "identical" if identical else "files differ", identical))
        checks.append(CheckResult(
            "per-rank reads reassemble the file (1-4 ranks)", "exact reunion",
            ", ".join(str(len(reunion)) for reunion in reunions)
            + f" of {len(chunk)} records", shares_ok))

    # gridding vs the direct reference, and rank-count independence
    def run_grid(n_ranks):
        return gridded_mesh(visdata.split_records(chunk, n_ranks), spec, kern,
                            Topology(n_nodes=1, ranks_per_node=n_ranks))[0]

    g1 = run_grid(1)
    g2 = run_grid(2)
    g4 = run_grid(4)
    bitwise = g1.tobytes() == g2.tobytes() == g4.tobytes()
    checks.append(CheckResult(
        "gridding rank-count independence (1, 2, 4 ranks)", "bit-identical",
        "identical" if bitwise else f"max abs diff {max(_max_abs(g1, g2), _max_abs(g1, g4)):.3e}",
        bitwise))
    if brute:
        t0 = time.perf_counter()
        ref, _ = direct_convolution_grid(chunk, spec, kern)
        err = _max_abs(g1, ref * _cell_sign(spec))
        checks.append(CheckResult(
            "gridding vs direct convolution", "max abs <= 1e-12",
            f"max abs {err:.3e} ({time.perf_counter() - t0:.2f} s reference)",
            err <= 1e-12))
    else:
        # The Gaussian kernel and the cell sign (-1)^(i+j) are separable,
        # so each record's clipped, signed footprint weight is a product of
        # per-axis sums; that gives an independent, vectorized expectation
        # for the total gridded mass.
        prep = comms.prepare_chunk(chunk, spec)
        S = kern.half_support
        s2 = 2.0 * kern.shape_param ** 2
        su = np.zeros(len(prep))
        sv = np.zeros(len(prep))
        flo_u = np.floor(prep.gu).astype(np.int64)
        flo_v = np.floor(prep.gv).astype(np.int64)
        for a in range(-S, S + 1):
            i = flo_u + a
            du = prep.gu - i
            su += np.where((np.abs(du) <= S) & (i >= 0) & (i < n_u),
                           (-1.0) ** i * np.exp(-du * du / s2), 0.0)
            j = flo_v + a
            dv = prep.gv - j
            sv += np.where((np.abs(dv) <= S) & (j >= 0) & (j < n_v),
                           (-1.0) ** j * np.exp(-dv * dv / s2), 0.0)
        expected = np.sum(prep.value * su * sv)
        total = g1.sum()
        err = abs(total - expected) / max(abs(total), 1.0)
        checks.append(CheckResult(
            "gridded mass vs per-record kernel sums", "relative <= 1e-10",
            f"relative {err:.3e}", err <= 1e-10))

    # records on cell lines and at mesh edges, gridded on two slabs, against
    # the direct convolution, for both kernels
    espec = GridSpec(n_u=32, n_v=32, n_w=4, cell_size_lm=cell,
                     w_min_native=0.0, w_max_native=12.0)
    echunk = edge_chunk()
    etopo = Topology(n_nodes=1, ranks_per_node=2)
    err_edge, counts = 0.0, []
    for ekern in (kern, KernelSpec.kaiser_bessel(half_support=3)):
        eref, ref_updates = direct_convolution_grid(echunk, espec, ekern)
        eref *= _cell_sign(espec)
        egrid, updates = gridded_mesh(visdata.split_records(echunk, 2), espec, ekern, etopo)
        err_edge = max(err_edge, _max_abs(egrid, eref))
        counts.append((updates, ref_updates))
    edge_ok = err_edge <= 1e-12 and all(a == b for a, b in counts)
    checks.append(CheckResult(
        "gridding on cell lines and mesh edges vs direct convolution (both kernels)",
        "max abs <= 1e-12, equal cell updates",
        f"max abs {err_edge:.3e}, updates " + ", ".join(f"{a} vs {b}" for a, b in counts),
        edge_ok))

    # Kaiser-Bessel weights (power series of I0) against numpy's I0
    kb = KernelSpec.kaiser_bessel(half_support=3)
    x = np.linspace(-3.0, 3.0, 6001)
    ref = np.i0(kb.shape_param * np.sqrt(1.0 - (x / 3.0) ** 2)) / np.i0(kb.shape_param)
    err_kb = float(np.max(np.abs(kernel_value(kb, x, 0.0) - ref) / ref))
    checks.append(CheckResult(
        f"Kaiser-Bessel kernel vs np.i0 (beta {kb.shape_param:g})", "relative <= 1e-14",
        f"relative {err_kb:.3e}", err_kb <= 1e-14))

    # inverse fft against the direct inverse DFT, round trip, Parseval; each
    # through the distributed transform on one rank and on three (uneven)
    def slab_ifft(a, n_ranks):
        fspec = GridSpec(n_u=a.shape[1], n_v=a.shape[0], n_w=1, cell_size_lm=1e-3)

        def fn(ctx):
            v0, vc = partition_1d(fspec.n_v, n_ranks, ctx.rank)
            blocks = []
            transform.fft2d_slab(ctx, a[v0:v0 + vc].copy(), fspec,
                                 lambda c0, block: blocks.append(block.copy()))
            return np.concatenate(blocks, axis=0)
        return np.concatenate(run_ranks(Topology(1, n_ranks), fn), axis=0).T

    fft_ranks = (1, 3)
    rng = np.random.default_rng(7)
    small = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    err_dft = max(_max_abs(slab_ifft(small, R), reference_dft2d(small, inverse=True))
                  for R in fft_ranks)
    checks.append(CheckResult("inverse fft vs direct DFT (8x8, 1 and 3 ranks)",
                              "max abs <= 1e-12", f"max abs {err_dft:.3e}", err_dft <= 1e-12))
    plane = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    err_rt = max(_max_abs(slab_ifft(reference_dft2d(plane), R), plane) for R in fft_ranks)
    checks.append(CheckResult("inverse fft of direct DFT round trip (64x64, 1 and 3 ranks)",
                              "max abs <= 1e-12", f"max abs {err_rt:.3e}",
                              err_rt <= 1e-12))
    energy = np.sum(np.abs(plane) ** 2)
    parseval = max(abs(energy - np.sum(np.abs(slab_ifft(plane, R)) ** 2) * plane.size)
                   for R in fft_ranks) / energy
    checks.append(CheckResult("Parseval identity (1 and 3 ranks)", "relative <= 1e-10",
                              f"relative {parseval:.3e}", parseval <= 1e-10))

    # the reduce strategies deliver the rank-order sum into each owner's own
    # partial, leave every other partial as it was, and conserve the total,
    # onto one target (every other slab empty) and as the full
    # reduce-scatter; rows[r][t] is rank r's partial of rank t's slab. An
    # owner's partial receives the sum, so every call gets fresh copies.
    topo = Topology(n_nodes=2, ranks_per_node=2)
    R, target = topo.n_ranks, 1
    datas = [rng.standard_normal((2, 32, 32)) + 1j * rng.standard_normal((2, 32, 32))
             for _ in range(R)]
    srng = np.random.default_rng(8)
    empty = np.empty(0, dtype=np.complex128)
    cases = [[[d if t == target else empty for t in range(R)] for d in datas],
             [[srng.standard_normal((8, 32)) + 1j * srng.standard_normal((8, 32))
               for _ in range(R)] for _ in range(R)]]

    def reduce_case(kind, rows):
        parts = [[p.copy() for p in row] for row in rows]
        got = run_ranks(topo, lambda ctx: reduce_slabs(ctx, ReduceStrategy(kind),
                                                        parts[ctx.rank]))
        others = [(parts[r][t], rows[r][t]) for r in range(R) for t in range(R)
                  if t != r and rows[r][t].size]
        return got, others, all(got[r] is parts[r][r] for r in range(R))

    exact, errs, repeats, in_place, others = {}, {}, True, True, []
    for kind in REDUCE_KINDS:
        pairs = []
        for rows in cases:
            got, case_others, own = reduce_case(kind, rows)
            repeats &= ([g.tobytes() for g in got]
                        == [g.tobytes() for g in reduce_case(kind, rows)[0]])
            in_place &= own
            others += case_others
            pairs += [(got[t], functools.reduce(np.add, [row[t] for row in rows]))
                      for t in range(R) if got[t].size]
        exact[kind] = all(a.tobytes() == b.tobytes() for a, b in pairs)
        errs[kind] = max(np.linalg.norm(a - b) / np.linalg.norm(b) for a, b in pairs)
        if kind == "direct":
            target_sum = pairs[0][0]
    checks.append(CheckResult(
        "reduce strategies deliver the rank-order sum (2x2, one target and reduce-scatter)",
        "direct bit-identical, hybrid_ring relative <= 1e-15, each repeats bit for bit",
        f"direct {'identical' if exact['direct'] else 'differs'}, hybrid_ring relative "
        f"{errs['hybrid_ring']:.3e}, {'repeats' if repeats else 'does not repeat'}",
        exact["direct"] and errs["hybrid_ring"] <= 1e-15 and repeats))
    changed = sum(a.tobytes() != b.tobytes() for a, b in others)
    checks.append(CheckResult(
        "reduce leaves partials untouched",
        "other partials bit-identical, each sum in its owner's partial",
        f"{changed} of {len(others)} other partials changed, the sums "
        f"{'are' if in_place else 'are not'} the owners' partials",
        changed == 0 and in_place))
    conservation = abs(target_sum.sum() - sum(d.sum() for d in datas))
    conservation /= max(abs(target_sum.sum()), 1.0)
    checks.append(CheckResult("reduce conservation", "relative <= 1e-12",
                              f"relative {conservation:.3e}", conservation <= 1e-12))

    # end-to-end point source recovery; keep the source inside the kernel's
    # image-plane taper (sigma ~ n_u / (2 pi sigma_grid) pixels)
    src_l, src_m = (0.008, -0.006) if scale == "small" else (0.02, -0.015)
    point = visdata.SkyModel(sources=((src_l, src_m, 1.0),))
    ph, pchunk = visdata.generate_synthetic(
        point, n_records, n_freq=1, seed=43, n_time_slices=8,
        cell_size_lm=cell, w_min_native=0.0, w_max_native=20.0)
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        dpath = Path(tmp) / "point.rvis"
        visdata.write_dataset(pchunk, ph, dpath)
        res = run_pipeline(dpath, n_u, n_v, n_w, cell, kernel=kern,
                           topo=Topology(1, 2), label="verify")
    i, j = peak_pixel(res.image)
    want_i = n_u // 2 + round(src_l / cell)
    want_j = n_v // 2 + round(src_m / cell)
    hit = abs(i - want_i) <= 1 and abs(j - want_j) <= 1
    checks.append(CheckResult(
        "point-source recovery", "argmax within 1 pixel",
        f"peak at ({i}, {j}), expected ({want_i}, {want_j})", hit))

    # w stacking by Horner's rule against one full-width exp per plane, of
    # n computed on every row, on the 16 outermost image columns; every
    # phase factor is a pure phase
    n_pix = pixel_n_block(spec, 0, 16)
    l_pix = (np.arange(16) - n_u // 2) * cell
    m_pix = (np.arange(n_v) - n_v // 2) * cell
    n_full = np.sqrt(1.0 - l_pix[:, None] ** 2 - m_pix[None, :] ** 2)
    wplanes = (rng.standard_normal((64, *n_full.shape))
               + 1j * rng.standard_normal((64, *n_full.shape)))
    horner_err = phase_err = 0.0
    for w_lo, w_hi in ((0.0, 20.0), (-10.0, 10.0), (5.0, 5.0), (0.0, 2000.0)):
        for nw in (1, 2, 3, 16, 64):
            wspec = GridSpec(n_u=n_u, n_v=n_v, n_w=nw, cell_size_lm=cell,
                             w_min_native=w_lo, w_max_native=w_hi)
            ref = sum(wplanes[k] * np.exp(2j * np.pi * wspec.plane_w_native(k) * (n_full - 1.0))
                      for k in range(nw)) / nw * n_full
            z = transform.w_phase_factor(n_pix, wspec.w_step_native)
            acc = np.empty(n_full.shape, dtype=np.complex128)
            for k in reversed(range(nw)):
                transform.apply_w_correction(acc, wplanes[k], z, first=k == nw - 1)
            got = transform.stack_planes(acc, n_pix, wspec).pixels
            horner_err = max(horner_err, _max_abs(got, ref.real.T) / np.max(np.abs(ref.real)))
            w0_factor = transform.w_phase_factor(n_pix, wspec.plane_w_native(0))
            phase_err = max(phase_err, float(np.max(np.abs(np.abs(z) - 1.0))),
                            float(np.max(np.abs(np.abs(w0_factor) - 1.0))))
    checks.append(CheckResult(
        "w stacking by Horner's rule vs per-plane exp (1-64 planes, 4 w ranges)",
        "relative max abs <= 1e-12", f"relative {horner_err:.3e}", horner_err <= 1e-12))
    checks.append(CheckResult("w correction preserves magnitudes (step and w_0 factors)",
                              "||factor| - 1| <= 1e-14", f"max {phase_err:.3e}",
                              phase_err <= 1e-14))
    return VerifyReport(checks=checks)
