import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wstack import comms, visdata
from wstack.comms import (PREPARE_BLOCK, REDUCE_KINDS, MessageLog, ReduceStrategy, Router,
                          Topology, exchange_to_space_order, prepare_chunk, reduce_partials,
                          reduce_slabs, run_ranks)
from wstack.mesh import GridSpec, partition_1d, plane_of_w


def test_failing_rank_stops_waiting_peers_at_once():
    def fn(ctx):
        if ctx.rank == 1:
            time.sleep(0.1)
            raise ValueError("rank 1 broke")
        return ctx.recv(1, ("never",))

    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="rank 1 broke"):
        run_ranks(Topology(1, 2), fn)
    assert time.perf_counter() - t0 < 5.0


def test_recv_any_stops_when_the_router_fails():
    router = Router(Topology(1, 2))
    router.fail(ValueError("peer broke"))
    with pytest.raises(RuntimeError, match="another rank failed") as info:
        router.recv_any(0, ("never",))
    assert isinstance(info.value.__cause__, ValueError)


def test_recv_still_times_out():
    router = Router(Topology(1, 2))
    with pytest.raises(RuntimeError, match="timed out"):
        router.recv(0, 1, ("never",), timeout=0.1)


# ---------------------------------------------------------------------------
# reduce message accounting
# ---------------------------------------------------------------------------

TOPOLOGIES = [(1, 1), (1, 2), (2, 1), (2, 2), (4, 2), (1, 3)]


def slab_hops(kind, topo):
    """``{intra_node: messages}`` that carry one slab's partials in a
    reduce, no part of it empty: in ``direct`` one from each of the P - 1
    other ranks of its owner's node and of the R - P others; in
    ``hybrid_ring`` P - 1 hops around each of the N nodes' rings, then
    N - 1 around the ring of the nodes' ranks of its local index."""
    N, P, R = topo.n_nodes, topo.ranks_per_node, topo.n_ranks
    if kind == "direct":
        return {True: P - 1, False: R - P}
    return {True: N * (P - 1), False: N - 1}


def expected_reduce_traffic(kind, topo, length):
    """``{intra_node: (messages, bytes)}`` of one single-target reduce of
    complex partials of ``length`` elements, as ``reduce_partials`` runs it:
    every other slab is empty, so every message carries a whole partial of
    the target's slab."""
    return {intra: (h, h * 16 * length) for intra, h in slab_hops(kind, topo).items()}


def expected_scatter_traffic(kind, topo, nbytes):
    """``{intra_node: (messages, bytes)}`` of one full reduce-scatter of R
    slabs of ``nbytes`` together, no part empty."""
    return {intra: (topo.n_ranks * h, h * nbytes)
            for intra, h in slab_hops(kind, topo).items()}


def rank_order_sum(partials):
    """The partials summed left to right in rank order 0, 1, ..., R-1."""
    total = partials[0].copy()
    for p in partials[1:]:
        total += p
    return total


def random_partials(topo, shape, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(topo.n_ranks)]


def small_partials(topo):
    # 2 x 4 x 4: 32 elements
    return random_partials(topo, (2, 4, 4), topo.n_nodes * 10 + topo.ranks_per_node)


def scatter_parts(topo, seed, read_only=False):
    """``parts[r][t]``, rank r's partial of rank t's slab: slab t is rank
    t's ``partition_1d`` share of 13 rows of 3, so the slabs differ in
    length. With ``read_only``, every part but a rank's own is read-only."""
    rng = np.random.default_rng(seed)
    R = topo.n_ranks
    parts = [[rng.standard_normal((partition_1d(13, R, t)[1], 3))
              + 1j * rng.standard_normal((partition_1d(13, R, t)[1], 3)) for t in range(R)]
             for _ in range(R)]
    for r in range(R):
        for t in range(R):
            parts[r][t].flags.writeable = not read_only or t == r
    return parts


def scatter(kind, topo, parts, log=None):
    """One reduce-scatter on ranks of its own, rank r passing ``parts[r]``;
    returns what each rank's call returned."""
    return run_ranks(topo, lambda ctx: reduce_slabs(ctx, ReduceStrategy(kind), parts[ctx.rank]),
                     log=log)


@pytest.mark.parametrize("kind", REDUCE_KINDS)
@pytest.mark.parametrize("nodes,ranks", TOPOLOGIES)
def test_reduce_message_counts_and_bytes_match_closed_form(kind, nodes, ranks):
    # The target's partial receives the sum, so every call gets fresh ones.
    topo = Topology(nodes, ranks)
    length = small_partials(topo)[0].size
    total = rank_order_sum(small_partials(topo))
    # direct adds in rank order; with two partials any order is rank order
    exact = kind == "direct" or topo.n_ranks <= 2
    for target in range(topo.n_ranks):
        log = MessageLog()
        partials = small_partials(topo)
        red = reduce_partials(ReduceStrategy(kind), partials, target, topo, log=log)
        assert red is partials[target], target
        if exact:
            assert red.tobytes() == total.tobytes(), target
        else:
            err = np.linalg.norm(red - total) / np.linalg.norm(total)
            assert err <= 1e-15, (target, err)
            again = reduce_partials(ReduceStrategy(kind), small_partials(topo), target, topo)
            assert again.tobytes() == red.tobytes(), target
        got = {intra: (log.count("reduce", intra), log.total_bytes("reduce", intra))
               for intra in (True, False)}
        assert got == expected_reduce_traffic(kind, topo, length), target


@pytest.mark.parametrize("nodes,ranks", [(1, 3), (2, 2)])
def test_direct_sums_in_rank_order_whatever_the_arrival_order(nodes, ranks):
    # A switch every microsecond varies the order in which the payloads
    # reach the target; the sum must not follow it.
    topo = Topology(nodes, ranks)
    total = rank_order_sum(small_partials(topo)).tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for target in range(1, topo.n_ranks):
            for _ in range(10):
                red = reduce_partials(ReduceStrategy("direct"), small_partials(topo),
                                   target, topo)
                assert red.tobytes() == total, target
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("read_only", [False, True], ids=["writeable", "read_only"])
@pytest.mark.parametrize("kind", REDUCE_KINDS)
@pytest.mark.parametrize("nodes,ranks", TOPOLOGIES)
def test_reduce_scatter_sums_each_slab_onto_its_owner(kind, nodes, ranks, read_only):
    # Every part non-empty, as in the pipeline. Each rank's own part
    # receives its slab's sum; every other part is only read, whether it
    # is copied on send or, read-only, passed by reference within a node.
    # A switch every microsecond varies the order in which direct's
    # payloads arrive; its sums must not follow it.
    topo = Topology(nodes, ranks)
    R = topo.n_ranks
    before = scatter_parts(topo, R)
    totals = [rank_order_sum([before[r][t] for r in range(R)]) for t in range(R)]
    exact = kind == "direct" or R <= 2
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            log = MessageLog()
            parts = scatter_parts(topo, R, read_only)
            got = scatter(kind, topo, parts, log)
            assert all(got[r] is parts[r][r] for r in range(R))
            assert all(parts[r][t].tobytes() == before[r][t].tobytes()
                       for r in range(R) for t in range(R) if t != r)
            traffic = {intra: (log.count("reduce", intra), log.total_bytes("reduce", intra))
                       for intra in (True, False)}
            nbytes = sum(p.nbytes for p in before[0])
            assert traffic == expected_scatter_traffic(kind, topo, nbytes)
            results.append(b"".join(g.tobytes() for g in got))
    finally:
        sys.setswitchinterval(interval)
    assert len(set(results)) == 1
    for t in range(R):
        if exact:
            assert got[t].tobytes() == totals[t].tobytes(), t
        else:
            err = np.linalg.norm(got[t] - totals[t]) / np.linalg.norm(totals[t])
            assert err <= 1e-15, (t, err)


def test_reduce_rejects_partials_it_cannot_sum_in_place():
    # Each rank checks its own buffer: complex128, and the target's a
    # receive buffer, which a flat view of a strided or read-only one would
    # not write the sum into. A partial of another size shows as a payload
    # of another length at the target.
    topo = Topology(1, 2)
    a, b = small_partials(topo)
    read_only = b.copy()
    read_only.flags.writeable = False
    cases = {
        "shapes": [a, b[:1]],
        "complex64": [a, b.astype(np.complex64)],
        "strided target": [a, np.zeros((2, 4, 8), dtype=np.complex128)[:, :, ::2]],
        "read-only target": [a, read_only],
    }
    for name, partials in cases.items():
        with pytest.raises(ValueError, match="partial"):
            reduce_partials(ReduceStrategy("direct"), partials, 1, topo)
        assert partials[0].tobytes() == a.tobytes(), name
    with pytest.raises(ValueError, match="complex128"):
        run_ranks(Topology(1, 1), lambda ctx: reduce_slabs(
            ctx, ReduceStrategy("direct"), [a.astype(np.complex64)]))
    with pytest.raises(ValueError, match="1 partials for 2 ranks"):
        run_ranks(topo, lambda ctx: reduce_slabs(ctx, ReduceStrategy("direct"), [a.copy()]))


@pytest.mark.parametrize("kind", REDUCE_KINDS)
@pytest.mark.parametrize("nodes,ranks", [(1, 3), (2, 2)])
def test_a_shorter_partial_fails_every_rank_at_once(kind, nodes, ranks):
    # Every rank runs two reduce-scatters, as the pipeline runs one per
    # plane; the last rank passes parts of half the length. The rank that
    # receives a payload of the wrong length raises, and Router.fail stops
    # the ranks waiting on it, long before RECV_TIMEOUT_S (120 s).
    topo = Topology(nodes, ranks)
    R = topo.n_ranks
    outcome = [None] * R

    def fn(ctx):
        try:
            for _ in range(2):
                parts = scatter_parts(topo, 0)[ctx.rank]
                if ctx.rank == R - 1:
                    parts = [p.reshape(-1)[:p.size // 2] for p in parts]
                reduce_slabs(ctx, ReduceStrategy(kind), parts)
        except BaseException as exc:
            outcome[ctx.rank] = exc
            raise

    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="partial of"):
        run_ranks(topo, fn)
    assert time.perf_counter() - t0 < 5.0
    assert all(isinstance(exc, (ValueError, RuntimeError)) for exc in outcome), outcome


# ---------------------------------------------------------------------------
# record preparation
# ---------------------------------------------------------------------------

def random_chunk(n, n_chan, seed):
    rng = np.random.default_rng(seed)
    vis = rng.standard_normal((n, n_chan)) + 1j * rng.standard_normal((n, n_chan))
    return visdata.VisChunk(u=rng.random(n), v=rng.random(n), w=rng.random(n),
                            time_index=np.zeros(n), vis=vis,
                            weight=rng.random((n, n_chan)))


@pytest.mark.parametrize("n_chan", [1, 3, 4, 8])
def test_prepared_value_is_the_one_shot_weighted_channel_sum(n_chan):
    # A record count that no block divides, so the last block is short.
    chunk = random_chunk(2 * PREPARE_BLOCK + 5, n_chan, n_chan)
    spec = GridSpec(n_u=16, n_v=16, n_w=4, cell_size_lm=1e-3)
    want = (chunk.vis.astype(np.complex128) * chunk.weight).sum(axis=1)
    assert prepare_chunk(chunk, spec).value.tobytes() == want.tobytes()


def column_bytes(prepared):
    return sum(getattr(prepared, f).nbytes for f in ("gu", "gv", "value", "plane"))


def test_prepare_chunk_temporaries_stay_within_a_block():
    # 100k records x 4 channels; the unit is the prepared columns' bytes,
    # 33 per record. The blocked channel sum peaked at 1.001 units: no
    # temporary outlives its block. Without numpy's elision of the
    # product's temporary a block would hold one more megabyte, 1.09 units;
    # the one-shot expression's two (records, channels) complex128
    # temporaries would take 3.9.
    chunk = random_chunk(100_003, 4, 1)
    spec = GridSpec(n_u=256, n_v=256, n_w=4, cell_size_lm=1e-3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = prepare_chunk(chunk, spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * column_bytes(out), f"{peak / column_bytes(out):.3f} units"


# ---------------------------------------------------------------------------
# exchange ownership
# ---------------------------------------------------------------------------

def exchanged(parts, spec, topo, halo_rows):
    """Each rank's planes from the exchange, rank r preparing ``parts[r]``."""
    return run_ranks(topo, lambda ctx: exchange_to_space_order(
        ctx, prepare_chunk(parts[ctx.rank], spec), spec, halo_rows))


# v on and next to slab boundaries as well as anywhere in [0, 1)
V_VALUES = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                     st.integers(0, 63).map(lambda k: k / 64))


@settings(max_examples=60, deadline=None)
@given(records=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), V_VALUES,
                                  st.integers(0, 7)), max_size=60),
       n_ranks=st.integers(1, 4), half_support=st.integers(1, 4))
def test_exchange_owns_each_record_once_and_copies_only_within_halo(
        records, n_ranks, half_support):
    spec = GridSpec(n_u=16, n_v=16, n_w=4, cell_size_lm=1e-3)
    n = len(records)
    u, v, t = (np.array([r[k] for r in records], dtype=float) for k in range(3))
    # The visibility carries the record's global index, to find it again;
    # w follows the time index, which spreads the records over the planes.
    chunk = visdata.VisChunk(u=u, v=v, w=t / 7.0, time_index=t,
                             vis=np.arange(n).reshape(n, 1), weight=np.ones((n, 1)))
    cuts = np.linspace(0, n, n_ranks + 1).astype(int)
    parts = [chunk.rows(slice(cuts[r], cuts[r + 1])) for r in range(n_ranks)]
    per_rank = exchanged(parts, spec, Topology(1, n_ranks), half_support)

    gv = v * spec.n_v
    owners = np.zeros(n, dtype=int)
    for d, planes in enumerate(per_rank):
        assert len(planes) == spec.n_w
        start, count = partition_1d(spec.n_v, n_ranks, d)
        # the rank's records in (plane, global index) order, rebuilt from
        # its per-plane lists
        plane = np.concatenate([np.full(len(b), k) for k, b in enumerate(planes)])
        ids = np.concatenate([b.value.real for b in planes]).astype(int)
        assert np.array_equal(np.concatenate([b.gv for b in planes]), gv[ids])
        # sorted by plane, and within each plane in ascending global index:
        # the shares joined in source-rank order, then sorted stably
        key = plane * n + ids
        assert np.all(np.diff(key) > 0)
        assert np.array_equal(plane, plane_of_w(spec, t[ids] / 7.0))
        owned = (np.floor(gv[ids]) >= start) & (np.floor(gv[ids]) < start + count)
        owners[ids[owned]] += 1
        # a copy sits here exactly when the record is within the halo
        near = (gv + half_support >= start) & (gv - half_support <= start + count - 1)
        assert set(ids) == set(np.flatnonzero(near))
    assert np.all(owners == 1)


def halo_counts(parts, spec, topo, halo_rows):
    """``{(s, d): records of rank s's share bound for rank d}``, the halo
    copies included, by the rule the exchange documents."""
    R = topo.n_ranks
    out = {}
    for s, part in enumerate(parts):
        gv = part.v * spec.n_v
        for d in range(R):
            start, count = partition_1d(spec.n_v, R, d)
            out[s, d] = int(np.sum((gv + halo_rows >= start)
                                   & (gv - halo_rows <= start + count - 1)))
    return out


@pytest.mark.parametrize("nodes,ranks", [(1, 2), (1, 3), (2, 2)])
def test_exchange_traffic_in_closed_form(nodes, ranks):
    # Every rank sends every other rank four messages: the gu, gv and value
    # columns of the records bound there, 8 + 8 + 16 bytes per record, and
    # its records per plane, n_w int64 counts. The 40-byte wire record took
    # one message of 40 bytes per record.
    topo = Topology(nodes, ranks)
    spec = GridSpec(n_u=32, n_v=32, n_w=4, cell_size_lm=1e-3)
    parts = visdata.split_records(random_chunk(3001, 2, nodes * ranks), topo.n_ranks)
    log = MessageLog()
    run_ranks(topo, lambda ctx: exchange_to_space_order(
        ctx, prepare_chunk(parts[ctx.rank], spec), spec, 3), log=log)
    counts = halo_counts(parts, spec, topo, 3)
    for intra in (True, False):
        pairs = [(s, d) for s in range(topo.n_ranks) for d in range(topo.n_ranks)
                 if s != d and (topo.node_of(s) == topo.node_of(d)) == intra]
        assert log.count("exchange", intra) == 4 * len(pairs)
        assert log.total_bytes("exchange", intra) == sum(
            32 * counts[pair] + 8 * spec.n_w for pair in pairs)


def test_exchange_payloads_pass_by_reference_within_a_node(monkeypatch):
    # 2x2: every payload the exchange sends is read-only, so within a node
    # the receiver gets the sender's own array, and across nodes a copy.
    topo = Topology(2, 2)
    spec = GridSpec(n_u=32, n_v=32, n_w=4, cell_size_lm=1e-3)
    parts = visdata.split_records(random_chunk(2000, 1, 4), topo.n_ranks)
    send, recv = Router.send, Router.recv
    sent, got, lock = {}, {}, threading.Lock()

    def recording_send(router, src, dst, tag, payload, phase, nbytes=None):
        with lock:
            sent.setdefault((src, dst), []).append(payload)
        return send(router, src, dst, tag, payload, phase, nbytes)

    def recording_recv(router, dst, src, tag, timeout=comms.RECV_TIMEOUT_S):
        payload = recv(router, dst, src, tag, timeout)
        with lock:
            got.setdefault((src, dst), []).append(payload)
        return payload

    monkeypatch.setattr(Router, "send", recording_send)
    monkeypatch.setattr(Router, "recv", recording_recv)
    run_ranks(topo, lambda ctx: exchange_to_space_order(
        ctx, prepare_chunk(parts[ctx.rank], spec), spec, 3))
    assert sorted(sent) == sorted(got) and len(sent) == 12
    for (src, dst), payloads in sent.items():
        assert len(payloads) == len(got[src, dst]) == 4
        for mine, theirs in zip(payloads, got[src, dst]):
            assert not mine.flags.writeable
            if topo.node_of(src) == topo.node_of(dst):
                assert theirs is mine
            else:
                assert not np.shares_memory(theirs, mine)
                assert theirs.tobytes() == mine.tobytes()


def test_more_ranks_than_rows_rejected():
    # Five ranks over four rows: the fifth would own no row to grid.
    spec = GridSpec(n_u=4, n_v=4, n_w=1, cell_size_lm=1e-3)
    chunk = random_chunk(10, 1, 0)
    with pytest.raises(ValueError, match="5 ranks exceed the mesh's 4 rows"):
        exchanged(visdata.split_records(chunk, 5), spec, Topology(1, 5), 1)


# ---------------------------------------------------------------------------
# reduce copies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", REDUCE_KINDS)
@pytest.mark.parametrize("nodes,ranks", TOPOLOGIES)
def test_reduce_leaves_partials_untouched(kind, nodes, ranks):
    # The target's partial is the receive buffer of the sum; every other
    # sum goes into a received buffer, and every other partial must stay as
    # it was. Within a node, read-only partials arrive by reference, so no
    # add may go into one: direct adds the payloads before the target's own
    # step, and the ring adds its own part to the one it receives.
    topo = Topology(nodes, ranks)
    for target in range(topo.n_ranks):
        for read_only in (False, True):
            partials = small_partials(topo)
            before = [p.tobytes() for p in partials]
            for r, p in enumerate(partials):
                p.flags.writeable = not read_only or r == target
            total = rank_order_sum(partials)
            red = reduce_partials(ReduceStrategy(kind), partials, target, topo)
            assert red is partials[target], target
            assert ([p.tobytes() for r, p in enumerate(partials) if r != target]
                    == [b for r, b in enumerate(before) if r != target]), target
            err = np.linalg.norm(red - total) / np.linalg.norm(total)
            assert err <= 1e-15, (target, err)


def test_router_passes_read_only_intra_node_payloads_by_reference():
    # 2x2: ranks 0 and 1 share a node, rank 2 is on the other. A read-only
    # payload to a rank of the same node arrives as the sender's array
    # itself; one to another node, and any writeable payload, as a copy.
    # Every message's bytes are logged alike.
    log = MessageLog()
    router = Router(Topology(2, 2), log)
    frozen = np.arange(6, dtype=np.complex128)
    frozen.flags.writeable = False
    live = np.arange(6, dtype=np.complex128)
    for dst, payload in [(1, frozen), (2, frozen), (1, live)]:
        router.send(0, dst, ("t",), payload, "reduce")
    shared = router.recv(1, 0, ("t",))
    assert np.shares_memory(shared, frozen) and not shared.flags.writeable
    for dst, sent in [(2, frozen), (1, live)]:
        got = router.recv(dst, 0, ("t",))
        assert not np.shares_memory(got, sent) and got.flags.writeable
        assert got.tobytes() == sent.tobytes()
    assert [(m.dst_rank, m.intra_node, m.nbytes) for m in log.entries()] == [
        (1, True, 96), (2, False, 96), (1, True, 96)]


# Peak allocation of one single-target reduce on 256^2 x 4 partials, in
# partial sizes. Every message is one copy made by Router.send, as these
# partials are writeable; the target sums into its own partial and every
# other sum goes into a received buffer, so nothing is allocated after the
# messages. On 1x2 both strategies hold only the message the target
# receives: 1.004. Which ring buffers are alive at once depends on how the
# rank threads interleave, so each target's least of three calls is
# bounded. On 2x2, direct peaked at 3.007; hybrid_ring's least of three
# read 2.008-3.008 over 30 repeats, single calls up to 3.009: the other
# node's received message, its copy sent on and the target's own message.
# With the master gather and chain, 2x2 hybrid_ring read 3.52-4.02.
# (The pipeline's image is one hash on every topology for another reason:
# its non-owner partials are zero, see wstack.comms.)
ALLOCATION_BOUNDS = {
    ((1, 2), "direct"): 1.25,
    ((1, 2), "hybrid_ring"): 1.25,
    ((2, 2), "direct"): 3.25,
    ((2, 2), "hybrid_ring"): 3.25,
}


@pytest.mark.parametrize("topo_shape, kind", list(ALLOCATION_BOUNDS),
                         ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else v)
def test_reduce_peak_allocation_within_budget(topo_shape, kind):
    topo = Topology(*topo_shape)
    shape = (4, 256, 256)
    nbytes = np.prod(shape) * 16
    worst = 0.0
    for target in range(topo.n_ranks):
        peaks = []
        for _ in range(3):
            partials = random_partials(topo, shape, 3)
            tracemalloc.start()
            try:
                reduce_partials(ReduceStrategy(kind), partials, target, topo)
                peaks.append(tracemalloc.get_traced_memory()[1] / nbytes)
            finally:
                tracemalloc.stop()
        worst = max(worst, min(peaks))
    assert worst <= ALLOCATION_BOUNDS[(topo_shape, kind)], worst


def test_hybrid_ring_target_peak_under_fine_thread_switching():
    # With a switch every microsecond, the rank threads interleave in ways
    # the least-of-three bound above absorbs. Router.send drops its copy
    # once queued, and the target adds the one message it receives into its
    # own partial, so 120 calls peaked at 1.003-1.004 partial sizes. The
    # ring of half-partial segments and their gather at the target took
    # 1.51, a delivery of the whole sum to the target 2.51-3.01.
    topo = Topology(1, 2)
    shape = (4, 256, 256)
    nbytes = np.prod(shape) * 16
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    peaks = []
    try:
        for _ in range(12):
            partials = random_partials(topo, shape, 3)
            tracemalloc.start()
            try:
                reduce_partials(ReduceStrategy("hybrid_ring"), partials, 1, topo)
                peaks.append(tracemalloc.get_traced_memory()[1] / nbytes)
            finally:
                tracemalloc.stop()
    finally:
        sys.setswitchinterval(interval)
    assert max(peaks) <= 1.25, peaks
