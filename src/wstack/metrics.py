"""Phase timing records, energy meters, green productivity, and reports.

Green productivity relates a test configuration to a reference one:

    GP = (T_ref / T_test) / (alpha * E_test / E_ref)

i.e. speedup divided by the alpha-weighted relative energy consumption.
``alpha`` defaults to 1: runtime and energy weigh the same.

Published-scale measurements enter through trace CSV files with columns
``label, n_nodes, freq_level, phase, seconds, joules``; one
(label, n_nodes, freq_level) group forms a :class:`RunRecord`. Meters
produce per-phase joules for live runs: injected from a trace, modelled
as watts x seconds per frequency level, or read (total only) from an
external counter file or command.
"""

from __future__ import annotations

import csv
import shlex
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

from .comms import Topology

__all__ = [
    "PHASES",
    "FREQ_LEVELS",
    "FREQ_GHZ",
    "DEFAULT_WATTS",
    "MeterError",
    "RunRecord",
    "TraceInjectionMeter",
    "SyntheticPowerMeter",
    "PlatformCounterMeter",
    "measure",
    "green_productivity",
    "reduce_fraction",
    "energy_saving",
    "perf_degradation",
    "ratio_report",
    "scaling_gp_report",
    "TRACE_COLUMNS",
    "write_trace",
    "load_trace_records",
    "render_table",
    "write_report_csv",
]

PHASES = ("read", "gridding", "reduce", "fft", "wcorrect", "write")

FREQ_LEVELS = ("default", "high", "medium", "low")

# Fixed CPU frequency levels in GHz; "default" is governed by the OS.
FREQ_GHZ = {"high": 2.60, "medium": 2.00, "low": 1.50}

# Synthetic power model defaults, chosen so that medium and low consume
# 75% and 70% of the high-frequency power.
DEFAULT_WATTS = {"high": 500.0, "default": 500.0, "medium": 375.0, "low": 350.0}


class MeterError(Exception):
    """Raised when an energy meter cannot produce a measurement."""


@dataclass
class RunRecord:
    """Per-phase wall times and joules for one pipeline execution."""

    label: str
    topology: Topology | None
    freq_level: str
    phase_times: dict
    energy_joules: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.freq_level not in FREQ_LEVELS:
            raise ValueError(f"freq_level must be one of {FREQ_LEVELS}")
        if "total" not in self.phase_times:
            raise ValueError("phase_times must include 'total'")
        for name, value in {**self.phase_times, **self.energy_joules}.items():
            if value < 0:
                raise ValueError(f"negative value for {name}: {value}")
        listed = sum(v for k, v in self.phase_times.items() if k != "total")
        if self.phase_times["total"] < listed - 1e-9:
            raise ValueError("total time smaller than the sum of its phases")

    @property
    def n_nodes(self) -> int:
        return self.topology.n_nodes if self.topology else 1

    @property
    def total_seconds(self) -> float:
        return self.phase_times["total"]

    @property
    def total_joules(self) -> float:
        if "total" not in self.energy_joules:
            raise MeterError(f"run {self.label!r} carries no total energy")
        return self.energy_joules["total"]


# ---------------------------------------------------------------------------
# Meters
# ---------------------------------------------------------------------------

@dataclass
class TraceInjectionMeter:
    """Joules injected from a trace file for a fixed (label, n_nodes)."""

    path: Path
    label: str
    n_nodes: int = 1

    def joules(self, durations: dict, freq_level: str) -> dict:
        table = _read_trace_rows(self.path)
        out = {}
        for (label, nodes, level, phase), (_, joules) in table.items():
            if label == self.label and nodes == self.n_nodes and level == freq_level:
                out[phase] = joules
        if "total" not in out:
            raise MeterError(
                f"trace {self.path} has no total joules for "
                f"({self.label}, {self.n_nodes}, {freq_level})")
        return out


@dataclass
class SyntheticPowerMeter:
    """Constant power per frequency level: joules = watts * seconds."""

    watts: dict = field(default_factory=lambda: dict(DEFAULT_WATTS))

    def __post_init__(self):
        for level, w in self.watts.items():
            if w <= 0:
                raise ValueError(f"watts must be positive, got {w} for {level}")

    def joules(self, durations: dict, freq_level: str) -> dict:
        if freq_level not in self.watts:
            raise MeterError(f"no power defined for frequency level {freq_level!r}")
        w = self.watts[freq_level]
        return {phase: w * seconds for phase, seconds in durations.items()}


@dataclass
class PlatformCounterMeter:
    """Total joules read from an external counter before and after a run.

    The counter is either a file holding one number or a command printing
    one, split into an argument list and run without a shell; only the
    total is available.
    """

    counter_file: Path | None = None
    counter_command: str | None = None
    _start: float | None = None

    def read_counter(self) -> float:
        try:
            if self.counter_file is not None:
                return float(Path(self.counter_file).read_text().strip())
            argv = shlex.split(self.counter_command or "")
            if argv:
                res = subprocess.run(argv, check=True, capture_output=True, text=True)
                return float(res.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError) as exc:
            raise MeterError(f"counter source unavailable: {exc}") from exc
        raise MeterError("platform counter has no configured source")

    def start(self):
        self._start = self.read_counter()

    def joules(self, durations: dict, freq_level: str) -> dict:
        if self._start is None:
            self.start()
        total = self.read_counter() - self._start
        self._start = None
        return {"total": total}


def measure(meter, durations: dict, freq_level: str = "default") -> dict:
    """Per-phase joules for the given phase durations; adds a total when
    the meter reports phases but no total itself."""
    for phase, seconds in durations.items():
        if seconds < 0:
            raise ValueError(f"negative duration for {phase}")
    joules = meter.joules(durations, freq_level)
    if "total" not in joules:
        joules = dict(joules)
        joules["total"] = sum(joules.values())
    return joules


# ---------------------------------------------------------------------------
# Report math
# ---------------------------------------------------------------------------

def green_productivity(ref: RunRecord, test: RunRecord, alpha: float = 1.0) -> float:
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    t0, e0 = ref.total_seconds, ref.total_joules
    tn, en = test.total_seconds, test.total_joules
    if min(t0, e0, tn, en) <= 0:
        raise ValueError("times and energies must be positive")
    return (t0 / tn) / (alpha * en / e0)


def reduce_fraction(run: RunRecord) -> float:
    if "reduce" not in run.phase_times:
        raise ValueError(f"run {run.label!r} has no reduce phase")
    total = run.total_seconds
    if total <= 0:
        raise ValueError("total time must be positive")
    return run.phase_times["reduce"] / total


def _check_comparable(base: RunRecord, other: RunRecord):
    if base.freq_level != "high":
        raise ValueError(f"base run must be at the high frequency, got {base.freq_level!r}")
    if base.label != other.label or base.n_nodes != other.n_nodes:
        raise ValueError(
            f"runs are not comparable: ({base.label!r}, {base.n_nodes} nodes) vs "
            f"({other.label!r}, {other.n_nodes} nodes)")


def energy_saving(base: RunRecord, other: RunRecord) -> float:
    """Fractional energy saved relative to the high-frequency run."""
    _check_comparable(base, other)
    return 1.0 - other.total_joules / base.total_joules


def perf_degradation(base: RunRecord, other: RunRecord) -> float:
    """Fractional slowdown relative to the high-frequency run."""
    _check_comparable(base, other)
    return other.total_seconds / base.total_seconds - 1.0


def ratio_report(cpu_runs, gpu_runs):
    """Per node count: (E_cpu / E_gpu, T_cpu / T_gpu).

    GPU runs are matched by node count alone (one per count); CPU runs may
    carry several frequency levels per count, each producing a row
    ``(n_nodes, cpu_freq_level, energy_ratio, time_ratio)``.
    """
    gpu_by_nodes = {}
    for run in gpu_runs:
        if run.n_nodes in gpu_by_nodes:
            raise ValueError(f"duplicate GPU run for {run.n_nodes} nodes")
        gpu_by_nodes[run.n_nodes] = run
    cpu_nodes = {run.n_nodes for run in cpu_runs}
    if cpu_nodes != set(gpu_by_nodes):
        raise ValueError(
            f"unmatched node counts: cpu {sorted(cpu_nodes)} vs "
            f"gpu {sorted(gpu_by_nodes)}")
    rows = []
    for run in sorted(cpu_runs, key=lambda r: (r.n_nodes, FREQ_LEVELS.index(r.freq_level))):
        gpu = gpu_by_nodes[run.n_nodes]
        rows.append((run.n_nodes, run.freq_level,
                     run.total_joules / gpu.total_joules,
                     run.total_seconds / gpu.total_seconds))
    return rows


def scaling_gp_report(runs, alpha: float = 1.0):
    """GP per node count against the lowest-node entry (the first run)."""
    runs = list(runs)
    if not runs:
        raise ValueError("no runs given")
    nodes = [r.n_nodes for r in runs]
    if any(b <= a for a, b in zip(nodes, nodes[1:])):
        raise ValueError(f"node counts must be strictly increasing, got {nodes}")
    ref = runs[0]
    return [(r.n_nodes, green_productivity(ref, r, alpha)) for r in runs]


# ---------------------------------------------------------------------------
# Trace files and report rendering
# ---------------------------------------------------------------------------

TRACE_COLUMNS = ("label", "n_nodes", "freq_level", "phase", "seconds", "joules")


def write_trace(path, rows):
    """Write trace rows ``(label, n_nodes, freq_level, phase, seconds, joules)``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in rows:
            writer.writerow(row)


def _read_trace_rows(path):
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"trace file not found: {path}")
    table = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(TRACE_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"trace {path} lacks columns {sorted(missing)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                key = (row["label"], int(row["n_nodes"]), row["freq_level"], row["phase"])
                table[key] = (float(row["seconds"]), float(row["joules"]))
            except (KeyError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad trace row ({exc})") from exc
    if not table:
        raise ValueError(f"no runs found in {path}")
    return table


def load_trace_records(path, label: str | None = None):
    """Group a trace file into RunRecords, ordered by (label, nodes, level)."""
    table = _read_trace_rows(path)
    groups = {}
    for (lbl, nodes, level, phase), (seconds, joules) in table.items():
        if label is not None and lbl != label:
            continue
        groups.setdefault((lbl, nodes, level), {})[phase] = (seconds, joules)
    records = []
    for (lbl, nodes, level), phases in sorted(
            groups.items(), key=lambda kv: (kv[0][0], kv[0][1], FREQ_LEVELS.index(kv[0][2]))):
        records.append(RunRecord(
            label=lbl,
            topology=Topology(n_nodes=nodes, ranks_per_node=1),
            freq_level=level,
            phase_times={phase: s for phase, (s, _) in phases.items()},
            energy_joules={phase: j for phase, (_, j) in phases.items()},
        ))
    if not records:
        raise ValueError(f"no runs found in {path}"
                         + (f" for label {label!r}" if label else ""))
    return records


def render_table(header, rows) -> str:
    """Plain-text table with right-aligned numeric columns."""
    def fmt(value):
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def write_report_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.10g}" if isinstance(v, float) else v for v in row])
