"""Virtual worker topology, message passing, and reduction strategies.

Ranks are in-process worker threads grouped into virtual nodes. All
inter-rank traffic flows through a :class:`Router` of queues and is
recorded in a :class:`MessageLog` with byte counts; "inter-node" transfers
are tagged rather than crossing a real network. The two reduction
strategies are the paper's:

``direct``
    every rank sends its full partial slab to the target, which sums them
    (plain MPI).
``hybrid_ring``
    per node, a ring reduce-scatter over the node's ranks followed by a
    gather of the segments: to the target on the target's node, to the
    node master on every other node. The masters then accumulate the node
    sums along a chain whose last hop goes to the target itself, which
    adds it to its own node's sum (the SMP-aware reduce of Thakur,
    Rabenseifner & Gropp 2005, IJHPCA 19:49, with no delivery hop).

Both strategies write what their messages deliver into the target's own
partial, which is thus the result (the root's ``MPI_IN_PLACE`` buffer of
an MPI reduce). ``direct`` adds the payloads in rank order 0, 1, ..., R-1
whatever order they arrive in, so it is bit-identical to that rank-order
sum on every topology. The ring adds in the order its segments and chain
travel, which differs from rank order in the last bits once a segment
sums three or more partials; each call repeats its result bit for bit.
The pipeline's image is nonetheless one hash for every topology and
strategy, because :func:`~wstack.pipeline.reduce_sectors` reduces each
slab with zero partials from every rank but its owner, and x + 0 = x in
any order. That holds until the ranks grid real partials of each other's
sectors.

Buffers and copies: the partials are complex128 buffers of one shape, as
at an MPI reduce, with no mesh geometry; :func:`reduce_slabs` rejects any
others, and a target whose flat view would be a copy. A message costs the
one copy :meth:`Router.send` makes, so that no rank aliases another's
arrays; a payload may be a view. The non-target partials are read-only:
ring segments are views of them, the P :func:`~wstack.mesh.partition_1d`
shares of the flat buffer, so each message carries exactly its share. The
target's partial is read until its own values have been added, then
written: ``direct`` writes each add from the target's own rank-order step
onward into it (the earlier adds go into a received buffer); in
``hybrid_ring`` the target gathers its node's segments into it and adds
the chain there, and the master of every other node gathers into one new
full-length buffer. Every other sum is written into a buffer that arrived.
"""

from __future__ import annotations

import csv
import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from .gridder import SectorBatch
from .mesh import GridSpec, partition_1d, plane_of_w

__all__ = [
    "REDUCE_KINDS",
    "Topology",
    "ReduceStrategy",
    "Message",
    "MessageLog",
    "Router",
    "RankCtx",
    "run_ranks",
    "reduce_slabs",
    "hybrid_reduce",
    "exchange_to_space_order",
    "PREPARED_RECORD_BYTES",
    "prepared_dtype",
    "prepare_chunk",
]

REDUCE_KINDS = ("direct", "hybrid_ring")

RECV_TIMEOUT_S = 120.0

# How often a waiting receive checks whether another rank has failed.
FAILURE_POLL_S = 0.05

# Wire size of one prepared record: gu f64, gv f64, weighted complex value
# c128, plane u32, padded to 40 so that gu, gv and value stay 8-byte aligned
# in every record of an array.
PREPARED_RECORD_BYTES = 40

# Records per block of ``prepare_chunk``'s weighted channel sum, which
# bounds its (records, channels) complex128 temporaries.
PREPARE_BLOCK = 16384


@dataclass(frozen=True)
class Topology:
    """Virtual layout: n_nodes x ranks_per_node single-threaded workers."""

    n_nodes: int
    ranks_per_node: int

    def __post_init__(self):
        if self.n_nodes < 1 or self.ranks_per_node < 1:
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
        # The receiver owns the copy now; holding it here would keep it
        # alive after the receiver has freed it.
        del payload
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


def run_ranks(topo: Topology, fn, log: MessageLog | None = None):
    """Run ``fn(ctx)`` on one worker thread per rank; return per-rank results.

    The first rank to raise marks the router as failed, so peers waiting
    on a receive stop at once; its exception is re-raised after all
    workers stop.
    """
    router = Router(topo, log)
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
# Reduce strategies (collective choreographies)
# ---------------------------------------------------------------------------

def _ring_reduce_scatter_ctx(ctx, group, my_flat):
    """One rank's part of a ring reduce-scatter over ``group``.

    The flat array is cut into its P :func:`~wstack.mesh.partition_1d`
    shares, views of ``my_flat``, which is only read. At step s the rank
    sends its accumulated segment ``(pos - 1 - s) mod P`` to the next group
    member, receives segment ``(pos - 2 - s) mod P`` from the previous one
    and adds its own into that received buffer, so after P-1 steps segment
    ``pos`` holds the group's full sum. Returns the per-segment buffers.
    """
    P = len(group)
    pos = group.index(ctx.rank)
    if P == 1:
        return [my_flat]
    length = len(my_flat)
    segs = [my_flat[start:start + count]
            for start, count in (partition_1d(length, P, j) for j in range(P))]
    nxt = group[(pos + 1) % P]
    prv = group[(pos - 1) % P]
    for s in range(P - 1):
        ctx.send(nxt, ("ring", s), segs[(pos - 1 - s) % P], "reduce")
        j = (pos - 2 - s) % P
        incoming = ctx.recv(prv, ("ring", s))
        segs[j] = np.add(segs[j], incoming, out=incoming)
    return segs


def _gather_segments(ctx, group, segs, length, out=None):
    """Assemble the node's P segments into one flat array of ``length``,
    each at its :func:`~wstack.mesh.partition_1d` offset: the rank's own
    from ``segs``, the others received from their owners under
    ``("gather", p)``. They are written into ``out`` when given, else into
    a new array; on one rank with no ``out``, the segment itself is
    returned."""
    P = len(group)
    pos = group.index(ctx.rank)
    if P == 1 and (out is None or segs[0] is out):
        return segs[0]
    if out is None:
        out = np.empty(length, dtype=np.complex128)
    for p in range(P):
        start, count = partition_1d(length, P, p)
        out[start:start + count] = segs[p] if p == pos else ctx.recv(group[p], ("gather", p))
    return out


def _reduce_collective(ctx, strategy, my_flat, target):
    """One rank's part of the reduce. The target writes the sum into its
    own ``my_flat``; every other rank only reads its ``my_flat``, and each
    sum there is written into a buffer this rank received, or, at a
    ``hybrid_ring`` master of another node, into the buffer it gathers its
    node's segments into. In ``hybrid_ring`` the target, not its master,
    gathers its node's segments and receives the chain's last hop."""
    topo = ctx.topo
    R = topo.n_ranks
    is_target = ctx.rank == target

    if strategy.kind == "direct":
        if not is_target:
            ctx.send(target, ("direct",), my_flat, "reduce")
            return
        # Kept by source and added in rank order, so the sum does not
        # depend on the order in which the payloads arrive. The adds before
        # the target's own step go into a received buffer, the rest into
        # the target's partial.
        parts = [my_flat] * R
        for _ in range(R - 1):
            src, parts[src] = ctx.recv_any(("direct",))
        acc = parts[0]
        for r in range(1, R):
            acc = np.add(acc, parts[r], out=my_flat if r >= target else acc)
        return

    # hybrid_ring: the target gathers its own node's sum; every other node
    # gathers at its master.
    node = topo.node_of(ctx.rank)
    group = list(topo.ranks_of_node(node))
    pos = group.index(ctx.rank)
    t_node = topo.node_of(target)
    segs = _ring_reduce_scatter_ctx(ctx, group, my_flat)
    head = target if node == t_node else group[0]
    if ctx.rank != head:
        ctx.send(head, ("gather", pos), segs[pos], "reduce")
        return
    node_flat = _gather_segments(ctx, group, segs, len(my_flat),
                                 out=my_flat if is_target else None)
    if topo.n_nodes > 1:
        # masters chain the node sums; the last hop goes to the target
        node_chain = [n for n in range(topo.n_nodes) if n != t_node] + [t_node]
        heads = [topo.master_of(n) for n in node_chain[:-1]] + [target]
        k = node_chain.index(node)
        if k > 0:
            incoming = ctx.recv(heads[k - 1], ("chain",))
            node_flat = np.add(incoming, node_flat,
                               out=node_flat if is_target else incoming)
        if k < len(node_chain) - 1:
            ctx.send(heads[k + 1], ("chain",), node_flat, "reduce")


def reduce_slabs(strategy: ReduceStrategy, partials, target: int, topo: Topology,
                 log: MessageLog | None = None):
    """Sum R complex128 buffers of one shape into the target rank's.

    ``partials[r]`` is rank r's buffer. The target's is the receive buffer:
    it is overwritten with the sum and returned, as ``MPI_IN_PLACE`` does
    at an MPI reduce's root, so it must be C-contiguous and writeable; the
    others are only read, so one array may stand for several non-target
    ranks. Anything else raises ValueError. The chosen strategy's messages
    run in phase ``reduce`` (logged in ``log`` when given), each costing
    the one copy :meth:`Router.send` makes. The sum is what they deliver
    to the target: for ``direct``, the partials summed in rank order
    0..R-1; for ``hybrid_ring``, in the order its segments travel (see the
    module docs).
    """
    R = topo.n_ranks
    if len(partials) != R:
        raise ValueError(f"expected {R} partials, got {len(partials)}")
    if not (0 <= target < R):
        raise ValueError(f"target {target} outside range(0, {R})")
    out = partials[target]
    for p in partials:
        if not (isinstance(p, np.ndarray) and p.dtype == np.complex128
                and p.shape == out.shape):
            raise ValueError("partials must be complex128 arrays of one shape")
    if not (out.flags.c_contiguous and out.flags.writeable):
        raise ValueError("the target's partial must be C-contiguous and writeable")
    flats = [p.reshape(-1) for p in partials]
    run_ranks(topo, lambda ctx: _reduce_collective(ctx, strategy, flats[ctx.rank], target),
              log=log)
    return out


def hybrid_reduce(partials, target: int, topo: Topology, log: MessageLog | None = None):
    """Intra-node ring reduce plus inter-node master chain (see module docs)."""
    return reduce_slabs(ReduceStrategy("hybrid_ring"), partials, target, topo, log=log)


# ---------------------------------------------------------------------------
# Record-order to space-order redistribution
# ---------------------------------------------------------------------------

def prepared_dtype() -> np.dtype:
    return np.dtype({
        "names": ["gu", "gv", "value", "plane"],
        "formats": ["<f8", "<f8", "<c16", "<u4"],
        "offsets": [0, 8, 16, 32],
        "itemsize": PREPARED_RECORD_BYTES,
    })


def prepare_chunk(chunk, spec: GridSpec) -> np.ndarray:
    """Turn records into gridding-ready rows: fractional cell coordinates,
    nearest w plane, and the weighted channel-summed complex value."""
    chunk.validate()
    out = np.zeros(len(chunk), dtype=prepared_dtype())
    out["gu"] = chunk.u * spec.n_u
    out["gv"] = chunk.v * spec.n_v
    out["plane"] = plane_of_w(spec, chunk.w)
    # Each record's sum depends on its own row alone, so the blocks give
    # the bits of the one-shot expression.
    for r in range(0, len(out), PREPARE_BLOCK):
        rows = slice(r, r + PREPARE_BLOCK)
        out["value"][rows] = (chunk.vis[rows].astype(np.complex128)
                              * chunk.weight[rows]).sum(axis=1)
    return out


def exchange_to_space_order(per_rank_records, spec: GridSpec, topo: Topology,
                            halo_rows: int, log: MessageLog | None = None):
    """Redistribute each rank's records to the ranks owning their rows.

    ``per_rank_records`` is a list of rank r's records at index r; each rank
    sets its entry to None once it has prepared them, so the records are
    freed before the sectors are gridded. Rank r's slab is its
    :func:`~wstack.mesh.partition_1d` share of the ``n_v`` rows, so more
    ranks than rows raise ValueError. Every record lands on the rank
    whose slab contains ``floor(gv)``; a copy also goes to any neighbouring
    rank whose slab lies within ``halo_rows`` of gv, so each rank can grid
    its sector without further communication. Each rank sends exactly one
    (possibly empty) message to every other rank, and joins what it holds
    in source-rank order, its own part in its own slot. Shares that are
    contiguous runs of the records in rank order (see
    :func:`~wstack.visdata.read_dataset`) thus arrive in global record
    order, which no rank count changes; the gridder's summation order
    (see :mod:`wstack.gridder`) is set by that order alone.
    Returns one :class:`~wstack.gridder.SectorBatch` per rank.
    """
    R = topo.n_ranks
    if len(per_rank_records) != R:
        raise ValueError(f"expected {R} record partitions, got {len(per_rank_records)}")
    if halo_rows < 0:
        raise ValueError("halo_rows must be >= 0")
    # A rank with no rows would have no sector to grid
    if R > spec.n_v:
        raise ValueError(f"{R} ranks exceed the mesh's {spec.n_v} rows")
    slabs = [partition_1d(spec.n_v, R, r) for r in range(R)]

    def fn(ctx):
        r = ctx.rank
        prep = prepare_chunk(per_rank_records[r], spec)
        per_rank_records[r] = None
        parts = [None] * R
        for d, (start, count) in enumerate(slabs):
            mask = ((prep["gv"] + halo_rows >= start)
                    & (prep["gv"] - halo_rows <= start + count - 1))
            if d == r:
                parts[r] = prep[mask]
            else:
                ctx.send(d, ("exchange",), prep[mask], phase="exchange",
                         nbytes=int(mask.sum()) * PREPARED_RECORD_BYTES)
        for s in range(R):
            if s != r:
                parts[s] = ctx.recv(s, ("exchange",))
        allp = np.concatenate(parts)
        return SectorBatch(gu=allp["gu"].copy(), gv=allp["gv"].copy(),
                           plane=allp["plane"].copy(), value=allp["value"].copy())

    return run_ranks(topo, fn, log=log)
