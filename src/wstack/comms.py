"""Virtual worker topology, message passing, and reduction strategies.

Ranks are in-process worker threads grouped into virtual nodes. All
inter-rank traffic flows through a :class:`Router` of queues and is
recorded in a :class:`MessageLog` with byte counts; "inter-node" transfers
are tagged rather than crossing a real network.

The reduce is a reduce-scatter, as at an ``MPI_Reduce_scatter``: each rank
calls :func:`reduce_slabs` with its complex128 partial of every rank's
slab, and ends with the sum over all ranks of its own slab, written into
its own partial (the ``MPI_IN_PLACE`` buffer). Every message carries one
slab's partial. The two strategies are the paper's; on N nodes of P ranks,
with S the bytes of all the slabs together, they move:

``direct``
    every rank sends its partial of each other rank's slab to that rank,
    which sums them (plain MPI): (P-1)S bytes within nodes and (R-P)S
    between them, in R(R-1) messages.
``hybrid_ring``
    a ring reduce-scatter over each node's P ranks, whose segment j holds
    the node's partials of every slab with local index j, then a ring
    reduce-scatter over the N nodes among the ranks that share a local
    index, one slab per segment: P-1 + N-1 steps, N(P-1)S bytes within
    nodes and (N-1)S between them (the bandwidth-optimal ring of Thakur,
    Rabenseifner & Gropp 2005, IJHPCA 19:49, made SMP-aware).

A part of size 0 is neither sent nor received, so :func:`reduce_partials`
runs the single-target reduce, every part but the target's empty, on ranks
of its own. ``direct`` adds the payloads in rank order 0, 1, ..., R-1
whatever order they arrive in, so it is bit-identical to that rank-order
sum on every topology. The ring adds in the order its segments travel,
which differs from rank order in the last bits once a slab sums three or
more partials; each call repeats its result bit for bit. The pipeline's
image is nonetheless one hash for every topology and strategy, because
every rank but a plane's owner contributes a zero plane, and x + 0 = x in
any order. That holds until the ranks grid real partials of each other's
sectors.

The exchange is a collective too: each rank calls
:func:`exchange_to_space_order` with the records it prepared, plain
columns (:class:`PreparedRecords`), and gets back the records of its own
row slab, one batch per w plane. There is no wire record: a rank sends
another the ``gu``, ``gv`` and ``value`` columns of the records bound
there, 32 bytes per record, and their count per plane, four arrays.

Ordering. A rank program's collectives share one :class:`Router`, with
no tag per call. The ``("exchange",)`` messages are received by source,
one from each rank, so they cannot be taken for any other. Messages from
one rank under one tag arrive in the order sent, and the ring receives by
source, so only ``direct``'s ``recv_any`` could take a payload of a later
reduce. In the pipeline it cannot: every rank's plane-k ``fft`` all-to-all
comes between its plane-k and plane-(k+1) reduces. A rank sends its plane
k + 1 payloads only after it has received every rank's plane-k ``fft``
block, and a rank sends that block only after it has taken all of its own
plane-k payloads.

Buffers and copies. :meth:`Router.send` copies a payload, so that no rank
aliases another's arrays, unless sender and receiver share a node and the
payload is a read-only array. That one is passed by reference, as a peer's
buffer is read in place through an MPI-3 shared-memory window (Hoefler et
al. 2013, "MPI+MPI", Computing 95:1121): its owner never writes it again,
and the receiver cannot. The exchange makes every payload read-only: the
receiver only copies slices of it into its per-plane columns, so within a
node the records travel with no copy. The reduce only reads a rank's
partials of other slabs; the pipeline's zero plane is read-only, so within
a node it too travels with no copy. Each add of a rank's own slab goes
into its own partial (``direct``: from its own rank-order step on). Every
other sum goes into the buffer that arrived, or a new one when that is
read-only.
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
    "reduce_partials",
    "hybrid_reduce",
    "exchange_to_space_order",
    "PreparedRecords",
    "prepare_chunk",
]

REDUCE_KINDS = ("direct", "hybrid_ring")

RECV_TIMEOUT_S = 120.0

# How often a waiting receive checks whether another rank has failed.
FAILURE_POLL_S = 0.05

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

    ``recv`` is selective by source, ``recv_any`` pops messages in genuine
    arrival order.
    """

    def __init__(self, topo: Topology, log: MessageLog | None = None):
        self.topo = topo
        self.log = log
        self._lock = threading.Lock()
        # (src, dst, tag): that sender's payloads; (dst, tag): the senders
        # in arrival order
        self._queues: dict = {}
        self.failure: BaseException | None = None

    def _queue(self, key):
        with self._lock:
            q = self._queues.get(key)
            if q is None:
                q = self._queues[key] = queue.Queue()
            return q

    def send(self, src, dst, tag, payload, phase, nbytes=None):
        """Queue ``payload`` for ``dst`` and log its bytes.

        The payload is copied, so that the receiver does not alias the
        sender's array, unless ``src`` and ``dst`` share a node and it is an
        ndarray whose ``flags.writeable`` is False. That array is queued
        itself, with no copy: the receiver cannot write it, and its owner
        must never write it again."""
        intra = self.topo.node_of(src) == self.topo.node_of(dst)
        if not (intra and isinstance(payload, np.ndarray) and not payload.flags.writeable):
            payload = np.array(payload, copy=True)
        if nbytes is None:
            nbytes = payload.nbytes
        if self.log is not None:
            self.log.append(Message(
                phase=phase, src_rank=src, dst_rank=dst,
                intra_node=intra,
                nbytes=int(nbytes),
            ))
        self._queue((src, dst, tag)).put(payload)
        # The receiver holds the payload now; holding it here would keep it
        # alive after the receiver has dropped it.
        del payload
        self._queue((dst, tag)).put(src)

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
        return self._get(self._queue((src, dst, tag)), timeout,
                         f"rank {dst} waiting for {tag!r} from rank {src}")

    def recv_any(self, dst, tag, timeout=RECV_TIMEOUT_S):
        waiting_for = f"rank {dst} waiting for any {tag!r}"
        src = self._get(self._queue((dst, tag)), timeout, waiting_for)
        return src, self._get(self._queue((src, dst, tag)), timeout, waiting_for)


@dataclass
class RankCtx:
    rank: int
    topo: Topology
    router: Router

    def send(self, dst, tag, payload, phase):
        self.router.send(self.rank, dst, tag, payload, phase)

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

def _checked(payload, length: int, ctx, src: int):
    """A received payload, which must hold ``length`` elements."""
    if payload.size != length:
        raise ValueError(f"rank {ctx.rank} received a partial of {payload.size} elements "
                         f"from rank {src}, expected {length}")
    return payload


def _ring_reduce_scatter(ctx, group, segments, sums):
    """One rank's part of a ring reduce-scatter over the ranks ``group``,
    in ring order: ``segments[i]`` lists the slabs whose sum over the group
    lands on ``group[i]``, and ``sums[t]`` is this rank's flat partial of
    slab t.

    At step s the rank sends segment ``(i - 1 - s) mod P`` to the next
    member, one message per slab, receives segment ``(i - 2 - s) mod P``
    from the previous one and adds its own partials into it, so after P - 1
    steps ``sums`` holds the group's sum of every slab of its own segment
    ``i``. The sum of the rank's own slab goes into its own partial, every
    other into the received buffer, or a new one when that is read-only.
    """
    P, i = len(group), group.index(ctx.rank)
    nxt, prv = group[(i + 1) % P], group[(i - 1) % P]
    for s in range(P - 1):
        for t in segments[(i - 1 - s) % P]:
            if sums[t].size:
                ctx.send(nxt, ("ring",), sums[t], "reduce")
        for t in segments[(i - 2 - s) % P]:
            if sums[t].size:
                got = _checked(ctx.recv(prv, ("ring",)), sums[t].size, ctx, prv)
                sums[t] = np.add(sums[t], got, out=sums[t] if t == ctx.rank else
                                 got if got.flags.writeable else None)


def reduce_slabs(ctx, strategy: ReduceStrategy, parts):
    """This rank's part of one reduce-scatter of complex128 partials (see
    the module docs): ``parts[t]`` is its partial of rank t's slab.

    The sum over all ranks of their ``parts[ctx.rank]`` is written into
    this rank's own, which is returned, so it must be C-contiguous and
    writeable; the other parts are only read. A list of another length
    than the ranks, a part that is not complex128, or an own part that is
    not a receive buffer raises ValueError on its rank, as does a received
    payload of another length than this rank's part of that slab;
    :meth:`Router.fail` then stops the peers. The messages run in phase
    ``reduce``.
    """
    topo, R, r = ctx.topo, ctx.topo.n_ranks, ctx.rank
    if len(parts) != R:
        raise ValueError(f"rank {r} passed {len(parts)} partials for {R} ranks")
    if not all(isinstance(p, np.ndarray) and p.dtype == np.complex128 for p in parts):
        raise ValueError(f"rank {r}'s partials must be complex128 arrays")
    own = parts[r]
    if not (own.flags.c_contiguous and own.flags.writeable):
        raise ValueError("a rank's own partial must be C-contiguous and writeable")
    sums = [p.reshape(-1) for p in parts]

    if strategy.kind == "direct":
        for t in range(R):
            if t != r and sums[t].size:
                ctx.send(t, ("direct",), sums[t], "reduce")
        if not own.size:
            return own
        # Kept by source and added in rank order, so the sum does not
        # depend on the order in which the payloads arrive.
        got = [sums[r]] * R
        for _ in range(R - 1):
            src, payload = ctx.recv_any(("direct",))
            got[src] = _checked(payload, own.size, ctx, src)
        acc = got[0]
        for s in range(1, R):
            acc = np.add(acc, got[s], out=sums[r] if s >= r else
                         acc if acc.flags.writeable else None)
        return own

    # hybrid_ring: within the node, segment j holds the slabs of local
    # index j; then across the nodes, among the ranks of this local index.
    by_index = [[t for t in range(R) if topo.intra_index(t) == j]
                for j in range(topo.ranks_per_node)]
    _ring_reduce_scatter(ctx, list(topo.ranks_of_node(topo.node_of(r))), by_index, sums)
    peers = by_index[topo.intra_index(r)]
    _ring_reduce_scatter(ctx, peers, [[t] for t in peers], sums)
    return own


def reduce_partials(strategy: ReduceStrategy, partials, target: int, topo: Topology,
                    log: MessageLog | None = None):
    """One single-target reduce on ranks of its own: rank r's part of
    ``target``'s slab is ``partials[r]`` and its parts of every other slab
    are empty (see :func:`reduce_slabs`). Returns ``partials[target]``,
    the sum."""
    R = topo.n_ranks
    if len(partials) != R:
        raise ValueError(f"expected {R} partials, got {len(partials)}")
    if not (0 <= target < R):
        raise ValueError(f"target {target} outside range(0, {R})")
    empty = np.empty(0, dtype=np.complex128)
    run_ranks(topo, lambda ctx: reduce_slabs(
        ctx, strategy, [partials[ctx.rank] if t == target else empty for t in range(R)]),
        log=log)
    return partials[target]


def hybrid_reduce(partials, target: int, topo: Topology, log: MessageLog | None = None):
    """:func:`reduce_partials` by the two rings of ``hybrid_ring`` (see the
    module docs)."""
    return reduce_partials(ReduceStrategy("hybrid_ring"), partials, target, topo, log=log)


# ---------------------------------------------------------------------------
# Record-order to space-order redistribution
# ---------------------------------------------------------------------------

@dataclass
class PreparedRecords:
    """Gridding-ready records, one column per field, of one length:
    fractional cell coordinates ``gu`` and ``gv`` (float64), the weighted
    channel-summed ``value`` (complex128) and the nearest w ``plane``, in
    the narrowest unsigned type that holds the mesh's planes."""

    gu: np.ndarray
    gv: np.ndarray
    value: np.ndarray
    plane: np.ndarray

    def __len__(self) -> int:
        return len(self.gu)


def prepare_chunk(chunk, spec: GridSpec) -> PreparedRecords:
    """Turn records into gridding-ready columns (see
    :class:`PreparedRecords`)."""
    chunk.validate()
    value = np.empty(len(chunk), dtype=np.complex128)
    # Each record's sum depends on its own row alone, so the blocks give
    # the bits of the one-shot expression.
    for r in range(0, len(chunk), PREPARE_BLOCK):
        rows = slice(r, r + PREPARE_BLOCK)
        value[rows] = (chunk.vis[rows].astype(np.complex128) * chunk.weight[rows]).sum(axis=1)
    # The narrow type sorts fastest in the exchange (a radix sort for 8-
    # and 16-bit keys).
    plane = plane_of_w(spec, chunk.w).astype(np.min_scalar_type(spec.n_w - 1))
    return PreparedRecords(gu=chunk.u * spec.n_u, gv=chunk.v * spec.n_v, value=value,
                           plane=plane)


def exchange_to_space_order(ctx, prepared: PreparedRecords, spec: GridSpec, halo_rows: int):
    """This rank's part of moving the prepared records (see
    :func:`prepare_chunk`) to the ranks owning their rows, as each rank
    calls it with its own share.

    Rank r's slab is its :func:`~wstack.mesh.partition_1d` share of the
    ``n_v`` rows, so more ranks than rows raise ValueError. Every record
    lands on the rank whose slab contains ``floor(gv)``; a copy also goes
    to any neighbouring rank whose slab lies within ``halo_rows`` of gv.
    For each destination the rank takes the records bound there once,
    sorted by plane, stably, and sends them to every other rank as four
    read-only messages: the ``gu``, ``gv`` and ``value`` columns and the
    records per plane (int64, ``n_w`` of them), so ``32 n + 8 n_w`` bytes
    for n records. Within a node they pass by reference (see
    :meth:`Router.send`). It receives the same from each rank by source
    and joins each plane's records in source-rank order. Shares that are
    contiguous runs of the records in rank order (see
    :func:`~wstack.visdata.read_dataset`) thus stay in global record order
    within each plane, which sets the gridder's summation order (see
    :mod:`wstack.gridder`) for any rank count. Returns this rank's records
    as a list of n_w :class:`~wstack.gridder.SectorBatch`, plane k's at
    index k.
    """
    R, r = ctx.topo.n_ranks, ctx.rank
    if halo_rows < 0:
        raise ValueError("halo_rows must be >= 0")
    # A rank with no rows would have no sector to grid
    if R > spec.n_v:
        raise ValueError(f"{R} ranks exceed the mesh's {spec.n_v} rows")
    lo, hi = prepared.gv - halo_rows, prepared.gv + halo_rows
    for d in range(R):
        start, count = partition_1d(spec.n_v, R, d)
        index = np.flatnonzero((hi >= start) & (lo <= start + count - 1))
        plane = prepared.plane[index]
        index = index[np.argsort(plane, kind="stable")]
        columns = [prepared.gu[index], prepared.gv[index], prepared.value[index],
                   np.bincount(plane, minlength=spec.n_w)]
        if d == r:
            own = columns
            continue
        for column in columns:
            column.flags.writeable = False
            ctx.send(d, ("exchange",), column, phase="exchange")
    held = [own if s == r else [ctx.recv(s, ("exchange",)) for _ in range(4)]
            for s in range(R)]
    bounds = [np.concatenate(([0], np.cumsum(per_plane))) for *_, per_plane in held]
    return [SectorBatch(*(np.concatenate([got[f][b[k]:b[k + 1]] for got, b in zip(held, bounds)])
                          for f in range(3)))
            for k in range(spec.n_w)]
