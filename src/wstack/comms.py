"""Virtual worker topology, message passing, and reduction strategies.

Ranks are in-process worker threads grouped into virtual nodes. All
inter-rank traffic flows through a :class:`Router` of queues and is
recorded in a :class:`MessageLog` with byte counts; "inter-node" transfers
are tagged rather than crossing a real network. Three reduction strategies
are provided:

``direct``
    every rank sends its full partial slab to the target, which sums them.
``hybrid_ring``
    per node, a ring reduce-scatter over the node's ranks followed by a
    gather to the node master; node masters then accumulate along a chain
    that ends at the target's master, which delivers to the target.
``ring_rdma_like``
    the same intra-node ring, but the per-rank segment owners forward
    their segments directly to peer ranks on other nodes, bypassing the
    node masters; only the message pattern differs from ``hybrid_ring``.

With ``deterministic=True`` every strategy returns the canonical
rank-ordered sum of the partials (rank 0, 1, ..., R-1), so results are
bit-identical across strategies; the strategy's message choreography still
runs and is logged. Without it, the delivered values come from the actual
accumulation order of the message flow.
"""

from __future__ import annotations

import csv
import math
import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .mesh import ComplexGrid, GridSpec, partition_1d, slab_of

__all__ = [
    "REDUCE_KINDS",
    "Topology",
    "ReduceStrategy",
    "Message",
    "MessageLog",
    "Router",
    "RankCtx",
    "run_ranks",
    "ring_segment_bounds",
    "ring_pass",
    "reduce_slabs",
    "hybrid_reduce",
    "exchange_to_space_order",
    "PREPARED_RECORD_BYTES",
    "prepared_dtype",
    "prepare_chunk",
]

REDUCE_KINDS = ("direct", "hybrid_ring", "ring_rdma_like")

RECV_TIMEOUT_S = 120.0

# How often a waiting receive checks whether another rank has failed.
FAILURE_POLL_S = 0.05

# Wire size of one prepared record: gu f64, gv f64, plane u32, time u32,
# global index u64, weighted complex value c128.
PREPARED_RECORD_BYTES = 48


@dataclass(frozen=True)
class Topology:
    """Virtual layout: n_nodes x ranks_per_node workers, threads inside each."""

    n_nodes: int
    ranks_per_node: int
    threads_per_rank: int = 1

    def __post_init__(self):
        if self.n_nodes < 1 or self.ranks_per_node < 1 or self.threads_per_rank < 1:
            raise ValueError("topology counts must all be >= 1")

    @property
    def n_ranks(self) -> int:
        return self.n_nodes * self.ranks_per_node

    def node_of(self, rank: int) -> int:
        return rank // self.ranks_per_node

    def intra_index(self, rank: int) -> int:
        return rank % self.ranks_per_node

    def master_of(self, node: int) -> int:
        return node * self.ranks_per_node

    def ranks_of_node(self, node: int) -> range:
        base = node * self.ranks_per_node
        return range(base, base + self.ranks_per_node)

    def label(self) -> str:
        return f"{self.n_nodes}x{self.ranks_per_node}"


@dataclass(frozen=True)
class ReduceStrategy:
    kind: str = "direct"
    deterministic: bool = True

    def __post_init__(self):
        if self.kind not in REDUCE_KINDS:
            raise ValueError(f"reduce kind must be one of {REDUCE_KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class Message:
    phase: str
    src_rank: int
    dst_rank: int
    intra_node: bool
    nbytes: int


class MessageLog:
    """Thread-safe record of every inter-rank transfer."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: list[Message] = []

    def append(self, msg: Message):
        with self._lock:
            self._entries.append(msg)

    def entries(self, phase=None, intra_node=None) -> list[Message]:
        with self._lock:
            out = list(self._entries)
        if phase is not None:
            out = [m for m in out if m.phase == phase]
        if intra_node is not None:
            out = [m for m in out if m.intra_node == intra_node]
        return out

    def count(self, phase=None, intra_node=None) -> int:
        return len(self.entries(phase, intra_node))

    def total_bytes(self, phase=None, intra_node=None) -> int:
        return sum(m.nbytes for m in self.entries(phase, intra_node))

    def to_csv(self, path):
        """Write entries sorted to a canonical order, so equal traffic
        always produces an identical file."""
        rows = sorted(
            ((m.phase, m.src_rank, m.dst_rank, int(m.intra_node), m.nbytes)
             for m in self.entries()),
        )
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["phase", "src_rank", "dst_rank", "intra_node", "bytes"])
            writer.writerows(rows)


class Router:
    """Point-to-point queues between ranks with byte accounting.

    Payloads are copied on send; no rank ever aliases another rank's
    arrays. ``recv`` is selective by source, ``recv_any`` pops messages in
    genuine arrival order.
    """

    def __init__(self, topo: Topology, log: MessageLog | None = None):
        self.topo = topo
        self.log = log
        self._lock = threading.Lock()
        self._boxes: dict = {}
        self._arrivals: dict = {}
        self.failure: BaseException | None = None

    def _box(self, key):
        with self._lock:
            q = self._boxes.get(key)
            if q is None:
                q = self._boxes[key] = queue.Queue()
            return q

    def _arrival(self, key):
        with self._lock:
            q = self._arrivals.get(key)
            if q is None:
                q = self._arrivals[key] = queue.Queue()
            return q

    def send(self, src, dst, tag, payload, phase, nbytes=None):
        payload = np.array(payload, copy=True)
        if nbytes is None:
            nbytes = payload.nbytes
        if self.log is not None:
            self.log.append(Message(
                phase=phase, src_rank=src, dst_rank=dst,
                intra_node=self.topo.node_of(src) == self.topo.node_of(dst),
                nbytes=int(nbytes),
            ))
        self._box((src, dst, tag)).put(payload)
        self._arrival((dst, tag)).put(src)

    def fail(self, exc: BaseException):
        """Mark the run as failed by ``exc``; receives waiting now or later
        raise instead of waiting for a message that will not come. The
        first failure is kept."""
        with self._lock:
            if self.failure is None:
                self.failure = exc

    def _get(self, q, timeout, waiting_for):
        deadline = time.monotonic() + timeout
        while self.failure is None:
            try:
                return q.get(timeout=min(FAILURE_POLL_S, max(0.0, deadline - time.monotonic())))
            except queue.Empty:
                if time.monotonic() >= deadline:
                    raise RuntimeError(f"{waiting_for}: timed out") from None
        raise RuntimeError(f"{waiting_for}: another rank failed") from self.failure

    def recv(self, dst, src, tag, timeout=RECV_TIMEOUT_S):
        return self._get(self._box((src, dst, tag)), timeout,
                         f"rank {dst} waiting for {tag!r} from rank {src}")

    def recv_any(self, dst, tag, timeout=RECV_TIMEOUT_S):
        waiting_for = f"rank {dst} waiting for any {tag!r}"
        src = self._get(self._arrival((dst, tag)), timeout, waiting_for)
        return src, self._get(self._box((src, dst, tag)), timeout, waiting_for)


@dataclass
class RankCtx:
    rank: int
    topo: Topology
    router: Router

    def send(self, dst, tag, payload, phase, nbytes=None):
        self.router.send(self.rank, dst, tag, payload, phase, nbytes)

    def recv(self, src, tag):
        return self.router.recv(self.rank, src, tag)

    def recv_any(self, tag):
        return self.router.recv_any(self.rank, tag)


def run_ranks(topo: Topology, fn, log: MessageLog | None = None, router: Router | None = None):
    """Run ``fn(ctx)`` on one worker thread per rank; return per-rank results.

    The first rank to raise marks the router as failed, so peers waiting
    on a receive stop at once; its exception is re-raised after all
    workers stop.
    """
    router = router or Router(topo, log)
    results = [None] * topo.n_ranks

    def work(rank):
        try:
            results[rank] = fn(RankCtx(rank=rank, topo=topo, router=router))
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            router.fail(exc)

    threads = [threading.Thread(target=work, args=(r,), name=f"rank-{r}")
               for r in range(topo.n_ranks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if router.failure is not None:
        raise router.failure
    return results


# ---------------------------------------------------------------------------
# Ring reduce-scatter
# ---------------------------------------------------------------------------

def ring_segment_bounds(length: int, parts: int):
    """Segment boundaries used by the ring: equal ceil-sized segments, the
    trailing ones possibly short or empty (the padded tail is dropped)."""
    seg = math.ceil(length / parts) if parts > 1 else length
    return [(min(j * seg, length), min((j + 1) * seg, length)) for j in range(parts)]


def ring_pass(group, arrays, log: MessageLog | None = None, topo: Topology | None = None,
              phase: str = "reduce"):
    """Reduce-scatter ring over ``group``: after P-1 steps, member j holds
    the full sum of segment j.

    ``arrays`` holds one equal-length 1-d array per group member. At step s
    member i sends its accumulated segment ``(i - 1 - s) mod P`` to member
    i+1, so every segment visits every member once and finishes on the
    member with the matching index; P(P-1) segment messages in total.
    Arrays whose length does not divide by P are zero-padded; the padding
    never reaches the results. Returns the list of summed segments.
    """
    P = len(group)
    if P < 1 or len(arrays) != P:
        raise ValueError("group and arrays must be non-empty and the same length")
    length = len(arrays[0])
    if any(len(a) != length for a in arrays):
        raise ValueError("all arrays must have the same length")
    if P == 1:
        return [np.asarray(arrays[0]).copy()]
    seg = math.ceil(length / P)
    state = []
    for a in arrays:
        padded = np.zeros(seg * P, dtype=np.result_type(a, np.complex128))
        padded[:length] = a
        state.append([padded[j * seg:(j + 1) * seg].copy() for j in range(P)])
    for s in range(P - 1):
        moves = []
        for idx in range(P):
            j = (idx - 1 - s) % P
            moves.append((idx, (idx + 1) % P, j, state[idx][j].copy()))
        for idx, dst_idx, j, payload in moves:
            state[dst_idx][j] += payload
            if log is not None:
                src, dst = group[idx], group[dst_idx]
                intra = (topo.node_of(src) == topo.node_of(dst)) if topo else True
                log.append(Message(phase=phase, src_rank=src, dst_rank=dst,
                                   intra_node=intra, nbytes=payload.nbytes))
    bounds = ring_segment_bounds(length, P)
    return [state[j][j][: hi - lo] for j, (lo, hi) in enumerate(bounds)]


# ---------------------------------------------------------------------------
# Reduce strategies (collective choreographies)
# ---------------------------------------------------------------------------

def _ring_reduce_scatter_ctx(ctx, group, my_flat, phase):
    """Message-passing counterpart of :func:`ring_pass`, run by one rank.

    Returns (per-segment accumulated buffers, segment length); this rank's
    own-index segment is the fully summed one afterwards.
    """
    P = len(group)
    pos = group.index(ctx.rank)
    length = len(my_flat)
    if P == 1:
        return [my_flat.copy()], length
    seg = math.ceil(length / P)
    padded = np.zeros(seg * P, dtype=np.complex128)
    padded[:length] = my_flat
    segs = [padded[j * seg:(j + 1) * seg].copy() for j in range(P)]
    nxt = group[(pos + 1) % P]
    prv = group[(pos - 1) % P]
    for s in range(P - 1):
        ctx.send(nxt, ("ring", s), segs[(pos - 1 - s) % P], phase)
        j = (pos - 2 - s) % P
        segs[j] = segs[j] + ctx.recv(prv, ("ring", s))
    return segs, seg


def _reduce_collective(ctx, strategy, my_flat, target, phase):
    """One rank's part of the reduce; returns the summed flat array at the
    target rank and None elsewhere."""
    topo = ctx.topo
    R = topo.n_ranks
    length = len(my_flat)

    if strategy.kind == "direct":
        if ctx.rank != target:
            ctx.send(target, ("direct",), my_flat, phase)
            return None
        acc = my_flat.astype(np.complex128, copy=True)
        for _ in range(R - 1):
            _, payload = ctx.recv_any(("direct",))
            acc += payload
        return acc

    node = topo.node_of(ctx.rank)
    group = list(topo.ranks_of_node(node))
    P = len(group)
    pos = group.index(ctx.rank)
    t_node = topo.node_of(target)
    nodes = list(range(topo.n_nodes))
    node_chain = [n for n in nodes if n != t_node] + [t_node]

    segs, seg = _ring_reduce_scatter_ctx(ctx, group, my_flat, phase)

    if strategy.kind == "hybrid_ring":
        master = group[0]
        if pos != 0:
            ctx.send(master, ("gather",), segs[pos], phase)
            if ctx.rank == target:
                return ctx.recv(topo.master_of(t_node), ("deliver",))
            return None
        # node master: reassemble this node's partial sum
        buf = np.zeros(seg * P if P > 1 else length, dtype=np.complex128)
        buf[0:len(segs[0])] = segs[0]
        for p in range(1, P):
            buf[p * seg:(p + 1) * seg] = ctx.recv(group[p], ("gather",))
        node_flat = buf[:length]
        if topo.n_nodes > 1:
            k = node_chain.index(node)
            if k > 0:
                node_flat = ctx.recv(topo.master_of(node_chain[k - 1]), ("chain",)) + node_flat
            if k < len(node_chain) - 1:
                ctx.send(topo.master_of(node_chain[k + 1]), ("chain",), node_flat, phase)
        if node == t_node:
            if target == ctx.rank:
                return node_flat
            ctx.send(target, ("deliver",), node_flat, phase)
        if ctx.rank == target:
            return ctx.recv(topo.master_of(t_node), ("deliver",))
        return None

    # ring_rdma_like: segment owners forward straight to peer ranks on the
    # next node, no master involvement.
    my_seg = segs[pos]
    if topo.n_nodes > 1:
        k = node_chain.index(node)
        if k > 0:
            prev_peer = topo.ranks_of_node(node_chain[k - 1])[pos]
            my_seg = ctx.recv(prev_peer, ("rchain", pos)) + my_seg
        if k < len(node_chain) - 1:
            next_peer = topo.ranks_of_node(node_chain[k + 1])[pos]
            ctx.send(next_peer, ("rchain", pos), my_seg, phase)
    if node == t_node:
        if ctx.rank != target:
            ctx.send(target, ("rdeliver", pos), my_seg, phase)
            return None
        buf = np.zeros(seg * P if P > 1 else length, dtype=np.complex128)
        buf[pos * seg:pos * seg + len(my_seg)] = my_seg
        for p in range(P):
            if p == pos:
                continue
            part = ctx.recv(group[p], ("rdeliver", p))
            buf[p * seg:p * seg + len(part)] = part
        return buf[:length]
    if ctx.rank == target:
        raise AssertionError("target must live on the target node")
    return None


def reduce_slabs(strategy: ReduceStrategy, partials, target: int, topo: Topology,
                 log: MessageLog | None = None, phase: str = "reduce"):
    """Sum per-rank partial slabs onto the target rank.

    All partials must share the grid spec and slab range. The message
    choreography of the chosen strategy always runs (and is logged); in
    deterministic mode the delivered values are the canonical sum over
    partials in rank order 0..R-1, so every strategy returns bit-identical
    data. Returns ``(reduced ComplexGrid, MessageLog)``.
    """
    R = topo.n_ranks
    if len(partials) != R:
        raise ValueError(f"expected {R} partials, got {len(partials)}")
    if not (0 <= target < R):
        raise ValueError(f"target {target} outside range(0, {R})")
    spec = partials[0].spec
    slab = partials[0].slab
    for p in partials[1:]:
        if p.spec != spec or (p.slab.v_start, p.slab.v_count) != (slab.v_start, slab.v_count):
            raise ValueError("partials must share spec and slab range")
    log = log if log is not None else MessageLog()
    flats = [p.data.reshape(-1) for p in partials]

    results = run_ranks(
        topo,
        lambda ctx: _reduce_collective(ctx, strategy, flats[ctx.rank], target, phase),
        log=log,
    )
    reduced = results[target]
    if strategy.deterministic:
        reduced = flats[0].astype(np.complex128, copy=True)
        for r in range(1, R):
            reduced = reduced + flats[r]
    out = ComplexGrid(spec, slab, reduced.reshape(partials[0].data.shape))
    return out, log


def hybrid_reduce(partials, target: int, topo: Topology,
                  log: MessageLog | None = None, deterministic: bool = True):
    """Intra-node ring reduce plus inter-node master chain (see module docs)."""
    strategy = ReduceStrategy("hybrid_ring", deterministic=deterministic)
    return reduce_slabs(strategy, partials, target, topo, log=log)


# ---------------------------------------------------------------------------
# Time-order to space-order redistribution
# ---------------------------------------------------------------------------

def prepared_dtype() -> np.dtype:
    return np.dtype({
        "names": ["gu", "gv", "plane", "time_index", "gindex", "value"],
        "formats": ["<f8", "<f8", "<u4", "<u4", "<u8", "<c16"],
        "offsets": [0, 8, 16, 20, 24, 32],
        "itemsize": PREPARED_RECORD_BYTES,
    })


def prepare_chunk(chunk, spec: GridSpec, gindex_offset: int) -> np.ndarray:
    """Turn records into gridding-ready rows: fractional cell coordinates,
    nearest w plane, and the weighted channel-summed complex value."""
    chunk.validate()
    out = np.zeros(len(chunk), dtype=prepared_dtype())
    out["gu"] = chunk.u * spec.n_u
    out["gv"] = chunk.v * spec.n_v
    if spec.n_w == 1:
        out["plane"] = 0
    else:
        planes = np.floor(chunk.w * (spec.n_w - 1) + 0.5).astype(np.int64)
        out["plane"] = np.clip(planes, 0, spec.n_w - 1)
    out["time_index"] = chunk.time_index
    out["gindex"] = gindex_offset + np.arange(len(chunk), dtype=np.uint64)
    out["value"] = (chunk.vis.astype(np.complex128) * chunk.weight).sum(axis=1)
    return out


def exchange_to_space_order(per_rank_records, spec: GridSpec, topo: Topology,
                            halo_rows: int, log: MessageLog | None = None):
    """Redistribute time-partitioned records to the ranks owning their rows.

    Every record lands on the rank whose slab contains ``floor(gv)``; a
    copy also goes to any neighbouring rank whose slab lies within
    ``halo_rows`` of gv, so each rank can grid its sector without further
    communication. Each rank sends exactly one (possibly empty) message to
    every other rank. Records arrive sorted by (time_index, global index).
    Returns one :class:`~wstack.gridder.SectorBatch` per rank.
    """
    from .gridder import SectorBatch

    R = topo.n_ranks
    if len(per_rank_records) != R:
        raise ValueError(f"expected {R} record partitions, got {len(per_rank_records)}")
    if halo_rows < 0:
        raise ValueError("halo_rows must be >= 0")
    offsets = np.concatenate([[0], np.cumsum([len(c) for c in per_rank_records])])
    slabs = [slab_of(spec, r, R) for r in range(R)]

    def fn(ctx):
        r = ctx.rank
        prep = prepare_chunk(per_rank_records[r], spec, int(offsets[r]))
        own = None
        for d in range(R):
            sl = slabs[d]
            mask = ((prep["gv"] + halo_rows >= sl.v_start)
                    & (prep["gv"] - halo_rows <= sl.v_end - 1))
            if d == r:
                own = prep[mask]
            else:
                ctx.send(d, ("exchange",), prep[mask], phase="exchange",
                         nbytes=int(mask.sum()) * PREPARED_RECORD_BYTES)
        parts = [own]
        for s in range(R):
            if s != r:
                parts.append(ctx.recv(s, ("exchange",)))
        allp = np.concatenate(parts)
        order = np.lexsort((allp["gindex"], allp["time_index"]))
        allp = allp[order]
        sl = slabs[r]
        rows = np.floor(allp["gv"]).astype(np.int64)
        return SectorBatch(
            slab=sl,
            gu=allp["gu"].copy(), gv=allp["gv"].copy(),
            plane=allp["plane"].copy(), value=allp["value"].copy(),
            time_index=allp["time_index"].copy(), gindex=allp["gindex"].copy(),
            is_halo=~((rows >= sl.v_start) & (rows < sl.v_end)),
            halo_rows=halo_rows,
        )

    return run_ranks(topo, fn, log=log)
