import time

import pytest

from wstack.comms import Router, Topology, run_ranks


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
