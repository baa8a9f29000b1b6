"""Outside-in tracing of the pipeline's layers for the benchmark's traced run.

A :class:`Tracer` swaps public functions of ``wstack`` modules (and three
``Router`` methods) for timing wrappers and puts the originals back on
exit, so the program is not edited and untraced runs time the unpatched
code. Each wrapper records a :class:`Span` named ``<layer>.<what>`` on the
calling thread; rank threads are named ``rank-<r>`` by ``run_ranks``.

Where a wrapper goes follows how the pipeline looks functions up:
``pipeline`` binds ``grid_sector`` at import, so that hook sits on
``wstack.pipeline``; ``run_pipeline`` imports ``exchange_to_space_order``
and ``reduce_slabs`` inside its body, and ``comms`` calls ``prepare_chunk``
as a module global, so those hooks sit on ``wstack.comms``.

A traced run is only as good as its hooks: a hook the program no longer
has stops the run, and a hook the workload should reach but never called,
or spans that cover
less than ``MIN_COVERAGE`` of the run, make :func:`trace_problems` fail it,
so that a renamed or bypassed function cannot read as a layer taking 0 s.
"""

from __future__ import annotations

import csv
import functools
import importlib
import json
import threading
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# (module, attribute or Class.method, span name)
HOOKS = (
    ("visdata", "read_dataset", "visdata.read"),
    ("comms", "prepare_chunk", "comms.prepare"),
    ("comms", "exchange_to_space_order", "comms.exchange"),
    ("comms", "reduce_slabs", "comms.reduce"),
    ("comms", "Router.send", "comms.send"),
    ("comms", "Router.recv", "comms.recv_wait"),
    ("comms", "Router.recv_any", "comms.recv_wait"),
    ("pipeline", "grid_sector", "gridder.grid"),
    ("gridder", "kernel_value", "gridder.kernel"),
    ("transform", "fft2d_slab", "transform.fft"),
    ("transform", "fft1d", "transform.row_fft"),
    ("transform", "apply_w_correction", "transform.wcorrect"),
    ("transform", "stack_planes", "transform.stack"),
    ("transform", "write_image", "transform.write"),
)

# Share of the traced run's wall time its spans must cover.
MIN_COVERAGE = 0.95

# Time spent testing reduce payloads for all-zero data; it is tracing
# work, so it is taken out of the reduce span it sits in.
ZERO_CHECK = "trace.zero_check"


@dataclass(frozen=True)
class Span:
    name: str
    thread: str
    t0: float
    t1: float
    nbytes: int = 0

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


def hook_targets():
    """``(owner, attribute, span name, hook)`` for every hook, where ``hook``
    names it as ``wstack.<module>.<attribute>``.

    Raises LookupError naming every hook whose attribute the program no
    longer has.
    """
    targets, missing = [], []
    for module_name, path, span_name in HOOKS:
        hook = f"wstack.{module_name}.{path}"
        owner = importlib.import_module(f"wstack.{module_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, attr):
            missing.append(hook)
            continue
        targets.append((owner, attr, span_name, hook))
    if missing:
        raise LookupError(f"the program has no {', '.join(missing)}; "
                          "update perfbench.tracing.HOOKS")
    return targets


class Tracer:
    """Context manager recording spans while its wrappers are installed.

    ``counters`` gathers counts seen at the hooks: ``batched_records``
    (records in all ``SectorBatch``es the exchange returned) and
    ``reduce_zero_bytes`` (bytes of all-zero payloads sent in phase
    ``reduce``). ``calls`` counts the calls each hook saw.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters = {"batched_records": 0, "reduce_zero_bytes": 0}
        self.calls = {f"wstack.{module}.{path}": 0 for module, path, _ in HOOKS}
        self._tag_phase: dict = {}
        self._lock = threading.Lock()
        self._saved: list = []

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, span_name, hook in hook_targets():
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                wrapper = self._wrap(attr, span_name, original)
                setattr(owner, attr, functools.wraps(original)(self._counted(hook, wrapper)))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, attr: str, name: str, original):
        if attr == "exchange_to_space_order":
            return self._exchange(original, name)
        if attr == "send":
            return self._send(original, name)
        if attr in ("recv", "recv_any"):
            # recv(dst, src, tag) and recv_any(dst, tag)
            return self._recv(original, name, tag_index=2 if attr == "recv" else 1)
        return self._timed(original, name)

    def _record(self, name: str, t0: float, t1: float, nbytes: int = 0):
        span = Span(name, threading.current_thread().name, t0, t1, nbytes)
        with self._lock:
            self.spans.append(span)

    def _count(self, name: str, amount: int):
        with self._lock:
            self.counters[name] += amount

    def _counted(self, hook: str, wrapper):
        def counted(*args, **kwargs):
            with self._lock:
                self.calls[hook] += 1
            return wrapper(*args, **kwargs)
        return counted

    def _timed(self, original, name):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._record(name, t0, perf_counter())
        return wrapper

    def _exchange(self, original, name):
        timed = self._timed(original, name)

        def wrapper(*args, **kwargs):
            batches = timed(*args, **kwargs)
            self._count("batched_records", sum(len(b) for b in batches))
            return batches
        return wrapper

    def _send(self, original, name):
        def wrapper(router, src, dst, tag, payload, phase, nbytes=None):
            t0 = perf_counter()
            with self._lock:
                self._tag_phase[tag] = phase
            size = int(np.asarray(payload).nbytes if nbytes is None else nbytes)
            if phase == "reduce":
                c0 = perf_counter()
                if not np.any(payload):
                    self._count("reduce_zero_bytes", size)
                self._record(ZERO_CHECK, c0, perf_counter())
            try:
                return original(router, src, dst, tag, payload, phase, nbytes)
            finally:
                self._record(f"{name}.{phase}", t0, perf_counter(), size)
        return wrapper

    def _recv(self, original, name, tag_index):
        # The phase comes from the matching send, which is recorded before
        # the message is queued and so before this receive can return.
        def wrapper(router, *args, **kwargs):
            t0 = perf_counter()
            try:
                return original(router, *args, **kwargs)
            finally:
                tag = args[tag_index] if len(args) > tag_index else kwargs.get("tag")
                with self._lock:
                    phase = self._tag_phase.get(tag, "other")
                self._record(f"{name}.{phase}", t0, perf_counter())
        return wrapper


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def union_seconds(intervals, lo: float = -np.inf, hi: float = np.inf) -> float:
    """Length of the union of ``(t0, t1)`` intervals, clipped to [lo, hi]."""
    total, end = 0.0, -np.inf
    for t0, t1 in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if t1 <= t0:
            continue
        if t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def self_seconds(span: Span, spans) -> float:
    """A span's duration minus the part its child spans cover: children are
    the other spans on the same thread that lie within it."""
    children = [(s.t0, s.t1) for s in spans
                if s is not span and s.thread == span.thread
                and span.t0 <= s.t0 and s.t1 <= span.t1]
    return span.seconds - union_seconds(children, span.t0, span.t1)


def total_seconds(spans, name: str) -> float:
    return sum(s.seconds for s in spans if s.name == name)


def per_thread_seconds(spans, name: str, self_time: bool = False) -> dict:
    """Seconds in spans called ``name``, summed per thread."""
    out: dict = {}
    for s in spans:
        if s.name == name:
            out[s.thread] = out.get(s.thread, 0.0) + (self_seconds(s, spans) if self_time
                                                       else s.seconds)
    return out


def busiest(per_thread: dict) -> tuple[str | None, float]:
    """The thread with the most seconds, and those seconds."""
    if not per_thread:
        return None, 0.0
    thread = max(per_thread, key=per_thread.get)
    return thread, per_thread[thread]


def excluding(spans, name: str, excluded: str) -> float:
    """Seconds in spans called ``name`` minus the time, on any thread,
    covered by spans called ``excluded`` inside them."""
    inner = [(s.t0, s.t1) for s in spans if s.name == excluded]
    return sum(s.seconds - union_seconds(inner, s.t0, s.t1)
               for s in spans if s.name == name)


def coverage(spans, t0: float, t1: float) -> float:
    """Share of the wall interval [t0, t1] covered by at least one span."""
    return union_seconds(((s.t0, s.t1) for s in spans), t0, t1) / (t1 - t0)


def trace_problems(tracer: Tracer, coverage_share: float, idle_hooks=()) -> list[str]:
    """Why a traced run's per-layer figures cannot be trusted: hooks that
    were never called, other than the ``idle_hooks`` the workload does not
    reach, and span coverage below ``MIN_COVERAGE``."""
    problems = [f"{hook} was never called" for hook, n in tracer.calls.items()
                if n == 0 and hook not in idle_hooks]
    if not coverage_share >= MIN_COVERAGE:
        problems.append(f"spans cover {coverage_share:.3f} of the run, "
                        f"less than {MIN_COVERAGE}")
    return problems


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def write_chrome_trace(spans, path, origin: float):
    """Chrome trace-event JSON: one complete ("X") event per span, times in
    microseconds from ``origin``, one tid per thread."""
    tids = {name: i for i, name in enumerate(sorted({s.thread for s in spans}))}
    events = [{"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
               "args": {"name": name}} for name, tid in tids.items()]
    events += [{"name": s.name, "cat": s.name.split(".")[0], "ph": "X", "pid": 0,
                "tid": tids[s.thread], "ts": (s.t0 - origin) * 1e6,
                "dur": s.seconds * 1e6, "args": {"bytes": s.nbytes}}
               for s in sorted(spans, key=lambda s: s.t0)]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def write_span_csv(spans, path, origin: float):
    """Flat CSV of spans: name, thread, t0_s, t1_s (from ``origin``), bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "thread", "t0_s", "t1_s", "bytes"])
        for s in sorted(spans, key=lambda s: s.t0):
            writer.writerow([s.name, s.thread, f"{s.t0 - origin:.9f}",
                             f"{s.t1 - origin:.9f}", s.nbytes])
