import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wstack import visdata
from wstack.comms import (PREPARE_BLOCK, REDUCE_KINDS, MessageLog, ReduceStrategy, Router,
                          Topology, exchange_to_space_order, prepare_chunk, reduce_slabs,
                          run_ranks)
from wstack.mesh import GridSpec, partition_1d


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

def expected_reduce_traffic(kind, topo, target, length):
    """``{intra_node: (messages, bytes)}`` of one ``reduce_slabs`` call on
    complex partials of ``length`` elements, as ``_reduce_collective``
    sends them. The ring cuts the slab into its P ``partition_1d`` shares,
    so a message carries exactly its share: 32 elements on 1x3 make
    segments of 11, 11 and 10."""
    N, P, R = topo.n_nodes, topo.ranks_per_node, topo.n_ranks
    full = 16 * length

    def all_but(pos):
        """Bytes of every segment but ``pos``: what the others send it."""
        return full - 16 * partition_1d(length, P, pos)[1]

    if kind == "direct":
        # every other rank sends its whole partial to the target
        return {True: (P - 1, (P - 1) * full), False: (R - P, (R - P) * full)}
    # reduce-scatter: P - 1 steps per rank, every node; each rank sends
    # every segment but its own once
    ring_msgs, ring_bytes = N * P * (P - 1), N * (P - 1) * full
    # hybrid_ring: segments to the target on its node, to the master on
    # every other; masters chain the whole node sum across the N nodes, the
    # last hop to the target
    return {True: (ring_msgs + N * (P - 1),
                   ring_bytes + all_but(topo.intra_index(target)) + (N - 1) * all_but(0)),
            False: (N - 1, (N - 1) * full)}


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
    # 2 x 4 x 4: 32 elements, not a multiple of 3
    return random_partials(topo, (2, 4, 4), topo.n_nodes * 10 + topo.ranks_per_node)


@pytest.mark.parametrize("kind", REDUCE_KINDS)
@pytest.mark.parametrize("nodes,ranks", [(1, 1), (1, 2), (2, 1), (2, 2), (4, 2), (1, 3)])
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
        red = reduce_slabs(ReduceStrategy(kind), partials, target, topo, log=log)
        assert red is partials[target], target
        if exact:
            assert red.tobytes() == total.tobytes(), target
        else:
            err = np.linalg.norm(red - total) / np.linalg.norm(total)
            assert err <= 1e-15, (target, err)
            again = reduce_slabs(ReduceStrategy(kind), small_partials(topo), target, topo)
            assert again.tobytes() == red.tobytes(), target
        got = {intra: (log.count("reduce", intra), log.total_bytes("reduce", intra))
               for intra in (True, False)}
        assert got == expected_reduce_traffic(kind, topo, target, length), target


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
                red = reduce_slabs(ReduceStrategy("direct"), small_partials(topo),
                                   target, topo)
                assert red.tobytes() == total, target
    finally:
        sys.setswitchinterval(interval)


def test_reduce_rejects_partials_it_cannot_sum_in_place():
    # The partials are buffers of one shape and dtype; the target's is the
    # receive buffer, and a flat view of a strided or read-only one would
    # not write the sum into it.
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
            reduce_slabs(ReduceStrategy("direct"), partials, 1, topo)
        assert partials[0].tobytes() == a.tobytes(), name


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
    assert prepare_chunk(chunk, spec)["value"].tobytes() == want.tobytes()


def test_prepare_chunk_temporaries_stay_within_a_block():
    # 100k records x 4 channels; the unit is the prepared array itself. The
    # blocked channel sum peaked at 1.40 units, the one-shot expression's
    # two (records, channels) complex128 temporaries at 3.00.
    chunk = random_chunk(100_003, 4, 1)
    spec = GridSpec(n_u=256, n_v=256, n_w=4, cell_size_lm=1e-3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = prepare_chunk(chunk, spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * out.nbytes, f"{peak / out.nbytes:.2f} units"


# ---------------------------------------------------------------------------
# exchange ownership
# ---------------------------------------------------------------------------

# v on and next to slab boundaries as well as anywhere in [0, 1)
V_VALUES = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                     st.integers(0, 63).map(lambda k: k / 64))


@settings(max_examples=60, deadline=None)
@given(records=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), V_VALUES,
                                  st.integers(0, 7)), max_size=60),
       n_ranks=st.integers(1, 4), half_support=st.integers(1, 4))
def test_exchange_owns_each_record_once_and_copies_only_within_halo(
        records, n_ranks, half_support):
    spec = GridSpec(n_u=16, n_v=16, n_w=1, cell_size_lm=1e-3)
    n = len(records)
    u, v, t = (np.array([r[k] for r in records], dtype=float) for k in range(3))
    # The visibility carries the record's global index, to find it again.
    chunk = visdata.VisChunk(u=u, v=v, w=np.zeros(n), time_index=t,
                             vis=np.arange(n).reshape(n, 1), weight=np.ones((n, 1)))
    cuts = np.linspace(0, n, n_ranks + 1).astype(int)
    parts = [chunk.rows(slice(cuts[r], cuts[r + 1])) for r in range(n_ranks)]
    batches = exchange_to_space_order(parts, spec, Topology(1, n_ranks), half_support)

    gv = v * spec.n_v
    owners = np.zeros(n, dtype=int)
    for d, batch in enumerate(batches):
        start, count = partition_1d(spec.n_v, n_ranks, d)
        ids = batch.value.real.astype(int)
        assert np.array_equal(batch.gv, gv[ids])
        # in ascending global index: the shares joined in source-rank
        # order, whatever the (unsorted) time indices
        assert np.all(np.diff(ids) > 0)
        owned = (np.floor(gv[ids]) >= start) & (np.floor(gv[ids]) < start + count)
        owners[ids[owned]] += 1
        # a copy sits here exactly when the record is within the halo
        near = (gv + half_support >= start) & (gv - half_support <= start + count - 1)
        assert set(ids) == set(np.flatnonzero(near))
    assert np.all(owners == 1)


def test_more_ranks_than_rows_rejected():
    # Five ranks over four rows: the fifth would own no row to grid.
    spec = GridSpec(n_u=4, n_v=4, n_w=1, cell_size_lm=1e-3)
    chunk = random_chunk(10, 1, 0)
    with pytest.raises(ValueError, match="5 ranks exceed the mesh's 4 rows"):
        exchange_to_space_order(visdata.split_records(chunk, 5), spec, Topology(1, 5), 1)


def test_exchange_frees_the_records_it_prepared():
    # The pipeline grids after the exchange; the read records must not
    # outlive it.
    spec = GridSpec(n_u=16, n_v=16, n_w=1, cell_size_lm=1e-3)
    n = 20
    rng = np.random.default_rng(2)
    chunk = visdata.VisChunk(u=rng.random(n), v=rng.random(n), w=np.zeros(n),
                             time_index=np.zeros(n), vis=np.ones((n, 1)),
                             weight=np.ones((n, 1)))
    parts = visdata.split_records(chunk, 2)
    refs = [weakref.ref(p) for p in parts]
    batches = exchange_to_space_order(parts, spec, Topology(1, 2), 1)
    assert parts == [None, None]
    assert [r() for r in refs] == [None, None]
    assert sum(len(b) for b in batches) >= n


# ---------------------------------------------------------------------------
# reduce copies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", REDUCE_KINDS)
@pytest.mark.parametrize("nodes,ranks", [(1, 1), (1, 2), (2, 1), (2, 2), (4, 2), (1, 3)])
def test_reduce_leaves_partials_untouched(kind, nodes, ranks):
    # The target's partial is the receive buffer of the sum; the ring adds
    # every other sum into received buffers and slices segments as views of
    # the partials, which must stay as they were. 32 elements on 1x3 make
    # segments of 11, 11 and 10.
    topo = Topology(nodes, ranks)
    for target in range(topo.n_ranks):
        partials = small_partials(topo)
        before = [p.tobytes() for p in partials]
        total = rank_order_sum(partials)
        red = reduce_slabs(ReduceStrategy(kind), partials, target, topo)
        assert red is partials[target], target
        assert ([p.tobytes() for r, p in enumerate(partials) if r != target]
                == [b for r, b in enumerate(before) if r != target]), target
        err = np.linalg.norm(red - total) / np.linalg.norm(total)
        assert err <= 1e-15, (target, err)


# Peak allocation of one reduce_slabs call on 256^2 x 4 partials, in
# partial sizes. Every message is one copy made by Router.send; the target
# sums, or gathers, into its own partial and every other sum goes into a
# received buffer, so nothing is allocated after the messages. direct on
# 1x2 holds only the message it receives. Which ring buffers are alive at
# once depends on how the rank threads interleave, so each target's least
# of three calls is bounded. hybrid_ring on 2x2: the least of three stayed at or below 3.52 in 200
# repeats, but single calls peaked at 4.02 in up to 17 of 100 on one
# target, so 4.02 stays reachable as the least of three.
# (The pipeline's image is one hash on every topology for another reason:
# its non-owner partials are zero, see wstack.comms.)
ALLOCATION_BOUNDS = {
    ((1, 2), "direct"): 1.25,
    ((1, 2), "hybrid_ring"): 1.75,
    ((2, 2), "direct"): 3.25,
    ((2, 2), "hybrid_ring"): 4.25,
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
                reduce_slabs(ReduceStrategy(kind), partials, target, topo)
                peaks.append(tracemalloc.get_traced_memory()[1] / nbytes)
            finally:
                tracemalloc.stop()
        worst = max(worst, min(peaks))
    assert worst <= ALLOCATION_BOUNDS[(topo_shape, kind)], worst


def test_hybrid_ring_target_peak_under_fine_thread_switching():
    # With a switch every microsecond, the rank threads interleave in ways
    # the least-of-three bound above absorbs. Router.send drops its copy
    # once queued, and the target gathers its node's segments into its own
    # partial, with no delivered full-length sum, so every call peaked at
    # 1.51 partial sizes: the two ring messages and the gathered segment,
    # half a partial each. A delivery to the target took 2.51-3.01.
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
                reduce_slabs(ReduceStrategy("hybrid_ring"), partials, 1, topo)
                peaks.append(tracemalloc.get_traced_memory()[1] / nbytes)
            finally:
                tracemalloc.stop()
    finally:
        sys.setswitchinterval(interval)
    assert max(peaks) <= 1.75, peaks
