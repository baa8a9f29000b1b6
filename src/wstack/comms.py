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

Each rank takes part in a reduce by calling :func:`reduce_slabs` with its
own complex128 buffer, as at an ``MPI_Reduce``; :func:`reduce_partials`
runs one reduce on ranks of its own, for callers outside a rank program.
Both strategies write what their messages deliver into the target's own
buffer, which is thus the result (the root's ``MPI_IN_PLACE`` buffer).
``direct`` adds the payloads in rank order 0, 1, ..., R-1 whatever order
they arrive in, so it is bit-identical to that rank-order sum on every
topology. The ring adds in the order its segments and chain travel,
which differs from rank order in the last bits once a segment sums three
or more partials; each call repeats its result bit for bit. The
pipeline's image is nonetheless one hash for every topology and
strategy, because every rank but a plane's owner contributes a zero
plane, and x + 0 = x in any order. That holds until the ranks grid real
partials of each other's sectors.

The exchange is a collective too: each rank calls
:func:`exchange_to_space_order` with the records it prepared and gets
back the records of its own row slab, one batch per w plane.

Ordering. A rank program's collectives share one :class:`Router`, with
no tag per call. The ``("exchange",)`` messages are received by source,
one from each rank, so they cannot be taken for any other. Messages from
one rank under one tag arrive in the order sent, so only ``direct``'s
``recv_any`` could take a payload of a later reduce onto the same target.
In the pipeline it cannot: a rank sends its block of plane k's ``fft``
all-to-all only after it has sent its payloads of plane k and, as a
target, taken all of its own, so no rank sends a payload of plane k - 1
before every target has taken those of plane k.

Buffers and copies: a message costs the one copy :meth:`Router.send`
makes, so that no rank aliases another's arrays. The non-target buffers
are only read: ring segments are views of them, the P
:func:`~wstack.mesh.partition_1d` shares of the flat buffer. The
target's buffer is read until its own values have been added, then
written: ``direct`` writes each add from the target's own rank-order
step onward into it (the earlier adds go into a received buffer); in
``hybrid_ring`` the target gathers its node's segments into it and adds
the chain there, and the master of every other node gathers into one
new full-length buffer. Every other sum goes into a buffer that arrived.
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
        payload = np.array(payload, copy=True)
        if nbytes is None:
            nbytes = payload.nbytes
        if self.log is not None:
            self.log.append(Message(
                phase=phase, src_rank=src, dst_rank=dst,
                intra_node=self.topo.node_of(src) == self.topo.node_of(dst),
                nbytes=int(nbytes),
            ))
        self._queue((src, dst, tag)).put(payload)
        # The receiver owns the copy now; holding it here would keep it
        # alive after the receiver has freed it.
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
    """A received segment or payload, which must hold ``length`` elements."""
    if payload.size != length:
        raise ValueError(f"rank {ctx.rank} received a partial of {payload.size} elements "
                         f"from rank {src}, expected {length}")
    return payload


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
        incoming = _checked(ctx.recv(prv, ("ring", s)), len(segs[j]), ctx, prv)
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
        out[start:start + count] = (segs[p] if p == pos else
                                    _checked(ctx.recv(group[p], ("gather", p)), count, ctx,
                                             group[p]))
    return out


def reduce_slabs(ctx, strategy: ReduceStrategy, buf: np.ndarray, target: int):
    """This rank's part of one reduce of the ranks' complex128 buffers, of
    one shape, onto ``target``'s (see the module docs).

    The target's buffer receives the sum and is returned, so it must be
    C-contiguous and writeable; every other rank's is only read, and the
    call returns None there. A buffer that is not complex128, or a target's
    that is not a receive buffer, raises ValueError on its rank, as does a
    received segment or payload of another length than this rank's own;
    :meth:`Router.fail` then stops the peers. The messages run in phase
    ``reduce``.
    """
    topo, R = ctx.topo, ctx.topo.n_ranks
    if not (0 <= target < R):
        raise ValueError(f"target {target} outside range(0, {R})")
    is_target = ctx.rank == target
    if not (isinstance(buf, np.ndarray) and buf.dtype == np.complex128):
        raise ValueError(f"rank {ctx.rank}'s partial must be a complex128 array")
    if is_target and not (buf.flags.c_contiguous and buf.flags.writeable):
        raise ValueError("the target's partial must be C-contiguous and writeable")
    my_flat = buf.reshape(-1)
    length = len(my_flat)

    if strategy.kind == "direct":
        if not is_target:
            ctx.send(target, ("direct",), my_flat, "reduce")
            return None
        # Kept by source and added in rank order, so the sum does not
        # depend on the order in which the payloads arrive. The adds before
        # the target's own step go into a received buffer, the rest into
        # the target's partial.
        parts = [my_flat] * R
        for _ in range(R - 1):
            src, payload = ctx.recv_any(("direct",))
            parts[src] = _checked(payload, length, ctx, src)
        acc = parts[0]
        for r in range(1, R):
            acc = np.add(acc, parts[r], out=my_flat if r >= target else acc)
        return buf

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
        return None
    node_flat = _gather_segments(ctx, group, segs, length,
                                 out=my_flat if is_target else None)
    if topo.n_nodes > 1:
        # masters chain the node sums; the last hop goes to the target
        node_chain = [n for n in range(topo.n_nodes) if n != t_node] + [t_node]
        heads = [topo.master_of(n) for n in node_chain[:-1]] + [target]
        k = node_chain.index(node)
        if k > 0:
            incoming = _checked(ctx.recv(heads[k - 1], ("chain",)), length, ctx, heads[k - 1])
            node_flat = np.add(incoming, node_flat,
                               out=node_flat if is_target else incoming)
        if k < len(node_chain) - 1:
            ctx.send(heads[k + 1], ("chain",), node_flat, "reduce")
    return buf if is_target else None


def reduce_partials(strategy: ReduceStrategy, partials, target: int, topo: Topology,
                    log: MessageLog | None = None):
    """One reduce on ranks of its own, rank r calling :func:`reduce_slabs`
    with ``partials[r]``; returns ``partials[target]``, the sum."""
    if len(partials) != topo.n_ranks:
        raise ValueError(f"expected {topo.n_ranks} partials, got {len(partials)}")
    run_ranks(topo, lambda ctx: reduce_slabs(ctx, strategy, partials[ctx.rank], target),
              log=log)
    return partials[target]


def hybrid_reduce(partials, target: int, topo: Topology, log: MessageLog | None = None):
    """Intra-node ring reduce plus inter-node master chain (see module docs)."""
    return reduce_partials(ReduceStrategy("hybrid_ring"), partials, target, topo, log=log)


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


def exchange_to_space_order(ctx, prepared: np.ndarray, spec: GridSpec, halo_rows: int):
    """This rank's part of moving the prepared records (see
    :func:`prepare_chunk`) to the ranks owning their rows, as each rank
    calls it with its own share.

    Rank r's slab is its :func:`~wstack.mesh.partition_1d` share of the
    ``n_v`` rows, so more ranks than rows raise ValueError. Every record
    lands on the rank whose slab contains ``floor(gv)``; a copy also goes
    to any neighbouring rank whose slab lies within ``halo_rows`` of gv.
    The rank sends one (possibly empty) message to every other rank,
    receives one from each by source, joins what it holds in source-rank
    order, sorts it by plane, stably, and cuts it at the plane boundaries.
    Shares that are contiguous runs of the records in rank order (see
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
    gv = prepared["gv"]
    for d in range(R):
        start, count = partition_1d(spec.n_v, R, d)
        mask = (gv + halo_rows >= start) & (gv - halo_rows <= start + count - 1)
        if d == r:
            own = prepared[mask]
        else:
            ctx.send(d, ("exchange",), prepared[mask], phase="exchange")
    held = np.concatenate([own if s == r else ctx.recv(s, ("exchange",)) for s in range(R)])
    # Planes are below n_w, so the narrowest type that holds them sorts
    # them fastest (a radix sort for 8- and 16-bit keys).
    order = np.argsort(held["plane"].astype(np.min_scalar_type(spec.n_w - 1)), kind="stable")
    bounds = np.searchsorted(held["plane"][order], np.arange(spec.n_w + 1))
    gu, gv, value = (held[name][order] for name in ("gu", "gv", "value"))
    return [SectorBatch(gu=gu[a:b], gv=gv[a:b], value=value[a:b])
            for a, b in zip(bounds[:-1], bounds[1:])]
