"""Phase timing records, the energy meter, green productivity, and reports.

Green productivity relates a test configuration to a reference one:

    GP = (T_ref / T_test) / (alpha * E_test / E_ref)

i.e. speedup divided by the alpha-weighted relative energy consumption.
``alpha`` defaults to 1: runtime and energy weigh the same.

A live run meters itself: a phase's joules are the CPU-seconds the
process spent in it times :data:`WATTS_PER_CORE`. Where a machine has an
energy counter (a file or a command, :class:`PlatformCounterMeter`), its
reading over the run replaces the total. Runs are exchanged as trace CSV
files with columns ``label, n_nodes, freq_level, phase, seconds,
joules``; one (label, n_nodes, freq_level) group forms a
:class:`RunRecord`. Live runs carry the ``default`` frequency level; the
other levels come from published-scale traces such as
``traces/multinode.csv``.
"""

from __future__ import annotations

import csv
import math
import shlex
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

from .visdata import FormatError

__all__ = [
    "PHASES",
    "FREQ_LEVELS",
    "WATTS_PER_CORE",
    "MeterError",
    "RunRecord",
    "PlatformCounterMeter",
    "green_productivity",
    "reduce_fraction",
    "energy_saving",
    "perf_degradation",
    "ratio_report",
    "scaling_gp_report",
    "TRACE_COLUMNS",
    "trace_rows",
    "write_trace",
    "load_trace_records",
    "render_table",
    "write_report_csv",
]

PHASES = ("read", "gridding", "reduce", "fft", "wcorrect", "write")

FREQ_LEVELS = ("default", "high", "medium", "low")

# Watts per busy core: the 280 W TDP of an AMD EPYC 7763 over its 64
# cores, the CPU of Setonix's compute nodes. A phase's joules are its
# process CPU-seconds times this.
WATTS_PER_CORE = 280.0 / 64


class MeterError(Exception):
    """Raised when an energy meter cannot produce a measurement."""


@dataclass
class RunRecord:
    """Per-phase wall times and joules for one pipeline execution."""

    label: str
    n_nodes: int
    freq_level: str
    phase_times: dict
    energy_joules: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.freq_level not in FREQ_LEVELS:
            raise ValueError(f"freq_level must be one of {FREQ_LEVELS}")
        if "total" not in self.phase_times:
            raise ValueError("phase_times must include 'total'")
        for kind, values in (("seconds", self.phase_times), ("joules", self.energy_joules)):
            for name, value in values.items():
                if value < 0:
                    raise ValueError(f"negative {kind} for {name}: {value}")
        listed = sum(v for k, v in self.phase_times.items() if k != "total")
        if self.phase_times["total"] < listed - 1e-9:
            raise ValueError("total time smaller than the sum of its phases")

    @property
    def total_seconds(self) -> float:
        return self.phase_times["total"]

    @property
    def total_joules(self) -> float:
        if "total" not in self.energy_joules:
            raise MeterError(f"run {self.label!r} carries no total energy")
        return self.energy_joules["total"]


# ---------------------------------------------------------------------------
# The counter
# ---------------------------------------------------------------------------

@dataclass
class PlatformCounterMeter:
    """Total joules read from an external counter before and after a run.

    The counter is either a file holding one number or a command printing
    one, split into an argument list and run without a shell; only the
    total is available.
    """

    counter_file: Path | str | None = None
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

    def joules(self) -> float:
        """Joules counted since :meth:`start`."""
        if self._start is None:
            raise MeterError("platform counter read before it was started")
        total, self._start = self.read_counter() - self._start, None
        return total


# ---------------------------------------------------------------------------
# Report math
# ---------------------------------------------------------------------------

def _require_positive_totals(*runs: RunRecord):
    """Raise ValueError naming the first run whose total seconds or joules
    are not positive: a ratio over them would divide by zero."""
    for run in runs:
        if run.total_seconds <= 0 or run.total_joules <= 0:
            raise ValueError(
                f"run ({run.label!r}, {run.n_nodes} nodes, {run.freq_level}) has total "
                f"{run.total_seconds} s and {run.total_joules} J; both must be positive")


def green_productivity(ref: RunRecord, test: RunRecord, alpha: float = 1.0) -> float:
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    _require_positive_totals(ref, test)
    t0, e0 = ref.total_seconds, ref.total_joules
    tn, en = test.total_seconds, test.total_joules
    return (t0 / tn) / (alpha * en / e0)


def reduce_fraction(run: RunRecord) -> float:
    if "reduce" not in run.phase_times:
        raise ValueError(f"run {run.label!r} has no reduce phase")
    total = run.total_seconds
    if total <= 0:
        raise ValueError(f"run {run.label!r} has total time {total}; it must be positive")
    return run.phase_times["reduce"] / total


def _check_comparable(base: RunRecord, other: RunRecord):
    if base.freq_level != "high":
        raise ValueError(f"base run must be at the high frequency, got {base.freq_level!r}")
    if base.label != other.label or base.n_nodes != other.n_nodes:
        raise ValueError(
            f"runs are not comparable: ({base.label!r}, {base.n_nodes} nodes) vs "
            f"({other.label!r}, {other.n_nodes} nodes)")
    _require_positive_totals(base)


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
        _require_positive_totals(run, gpu)
        rows.append((run.n_nodes, run.freq_level,
                     run.total_joules / gpu.total_joules,
                     run.total_seconds / gpu.total_seconds))
    return rows


def scaling_gp_report(runs, alpha: float = 1.0):
    """``(label, n_nodes, GP)`` per run. The runs are grouped by label, in
    the order each label first appears, and each label's series is
    measured against its own first run, which must have the lowest node
    count: within a label, node counts must strictly increase."""
    series: dict = {}
    for r in runs:
        series.setdefault(r.label, []).append(r)
    if not series:
        raise ValueError("no runs given")
    rows = []
    for label, group in series.items():
        nodes = [r.n_nodes for r in group]
        if any(b <= a for a, b in zip(nodes, nodes[1:])):
            raise ValueError(f"node counts of {label!r} must be strictly increasing, "
                             f"got {nodes}")
        rows += [(label, r.n_nodes, green_productivity(group[0], r, alpha)) for r in group]
    return rows


# ---------------------------------------------------------------------------
# Trace files and report rendering
# ---------------------------------------------------------------------------

TRACE_COLUMNS = ("label", "n_nodes", "freq_level", "phase", "seconds", "joules")


def trace_rows(run: RunRecord) -> list:
    """One run's trace rows: each of :data:`PHASES`, then ``total``."""
    return [(run.label, run.n_nodes, run.freq_level, phase,
             run.phase_times[phase], run.energy_joules[phase])
            for phase in (*PHASES, "total")]


def write_trace(path, rows):
    """Write trace rows ``(label, n_nodes, freq_level, phase, seconds, joules)``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in rows:
            writer.writerow(row)


def _read_trace_rows(path):
    """``{(label, n_nodes, freq_level, phase): (seconds, joules)}``; a
    malformed, non-finite, negative or repeated row, an unknown frequency
    level or a node count below 1 raises ``FormatError`` naming the line."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"trace file not found: {path}")
    table, first_line = {}, {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(TRACE_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise FormatError(f"trace {path} lacks columns {sorted(missing)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                key = (row["label"], int(row["n_nodes"]), row["freq_level"], row["phase"])
                values = (float(row["seconds"]), float(row["joules"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"{path}:{lineno}: bad trace row ({exc})") from exc
            if not all(math.isfinite(v) for v in values):
                raise FormatError(f"{path}:{lineno}: non-finite seconds or joules {values}")
            if min(values) < 0:
                raise FormatError(f"{path}:{lineno}: negative seconds or joules {values}")
            if key[1] < 1:
                raise FormatError(f"{path}:{lineno}: n_nodes must be >= 1, got {key[1]}")
            if key[2] not in FREQ_LEVELS:
                raise FormatError(f"{path}:{lineno}: unknown freq_level {key[2]!r}, "
                                  f"expected one of {FREQ_LEVELS}")
            if key in table:
                raise FormatError(f"{path}:{lineno}: repeats the row of line "
                                  f"{first_line[key]} for {key}")
            table[key], first_line[key] = values, lineno
    if not table:
        raise FormatError(f"no runs found in {path}")
    return table


def load_trace_records(path):
    """Group a trace file into RunRecords, ordered by (label, nodes, level).
    A group without a ``total`` row, or whose total time is below the sum
    of its phases, raises ``FormatError`` naming the group."""
    table = _read_trace_rows(path)
    groups = {}
    for (lbl, nodes, level, phase), (seconds, joules) in table.items():
        groups.setdefault((lbl, nodes, level), {})[phase] = (seconds, joules)
    records = []
    for (lbl, nodes, level), phases in sorted(
            groups.items(), key=lambda kv: (kv[0][0], kv[0][1], FREQ_LEVELS.index(kv[0][2]))):
        try:
            records.append(RunRecord(
                label=lbl,
                n_nodes=nodes,
                freq_level=level,
                phase_times={phase: s for phase, (s, _) in phases.items()},
                energy_joules={phase: j for phase, (_, j) in phases.items()},
            ))
        except ValueError as exc:
            raise FormatError(f"{path}: run ({lbl}, {nodes}, {level}): {exc}") from exc
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
