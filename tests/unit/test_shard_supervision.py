"""Unit tests for the shard supervisor's pure machinery (ISSUE 10).

Everything here runs without worker processes: the backoff schedule is
plain math, the re-placement plan is a pure function, and the supervisor
loop is driven with a scripted ``_run_worker`` plus a fake clock (the
injectable ``gateway._sleep``) — so the respawn/replace decisions and
the queue-drain guarantees are pinned deterministically. The matching
real-process matrix (actual SIGKILLs over real sockets) lives in
``tests/integration/test_sharded_serving.py``.
"""

import asyncio
import multiprocessing

import pytest

from repro.core.config import ScoopConfig, ValueDomain
from repro.experiments.runner import ExperimentSpec
from repro.service.api import (
    ServiceUnavailableError,
    ShardRestartingError,
)
from repro.service.shard import (
    BOOTING,
    FAILED,
    READY,
    RESTARTING,
    BackoffPolicy,
    ShardedGateway,
    _Shard,
    plan_placement,
    plan_replacement,
)


def tiny_spec(seed: int = 3) -> ExperimentSpec:
    config = ScoopConfig(
        domain=ValueDomain(0, 100),
        n_nodes=8,
        sample_interval=10.0,
        summary_interval=60.0,
        remap_interval=180.0,
        query_interval=12.0,
        query_reply_window=8.0,
        duration=120.0,
        stabilization=40.0,
    )
    return ExperimentSpec(
        policy="scoop",
        workload="gaussian",
        scoop=config,
        seed=seed,
        topology_kind="grid",
    )


class FakeProcess:
    """Stands in for a dead multiprocessing.Process."""

    def __init__(self, exitcode: int = -9):
        self.exitcode = exitcode
        self.killed = 0

    def is_alive(self) -> bool:
        return False

    def join(self, timeout=None) -> None:
        pass

    def kill(self) -> None:
        self.killed += 1


class TestBackoffPolicy:
    def test_delay_schedule_doubles_up_to_cap(self):
        policy = BackoffPolicy(base_s=0.25, cap_s=5.0, budget=6)
        assert policy.delays() == [0.25, 0.5, 1.0, 2.0, 4.0, 5.0]

    def test_cap_binds_immediately_when_base_exceeds_it(self):
        policy = BackoffPolicy(base_s=10.0, cap_s=3.0, budget=2)
        assert policy.delays() == [3.0, 3.0]

    def test_zero_budget_means_no_respawns(self):
        assert BackoffPolicy(budget=0).delays() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base_s=-1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(budget=-1)
        with pytest.raises(ValueError):
            BackoffPolicy().delay(-1)


class TestPlacementPlans:
    def test_round_robin_placement(self):
        assert plan_placement(["t0", "t1", "t2"], 2) == [["t0", "t2"], ["t1"]]

    def test_replacement_round_robins_over_survivors(self):
        plan = plan_replacement(["t0", "t1", "t2"], ["shard1", "shard2"])
        assert plan == {"shard1": ["t0", "t2"], "shard2": ["t1"]}

    def test_replacement_is_deterministic(self):
        args = (["a", "b", "c", "d"], ["s2", "s5"])
        assert plan_replacement(*args) == plan_replacement(*args)

    def test_no_survivors_raises(self):
        with pytest.raises(ValueError, match="no surviving"):
            plan_replacement(["t0"], [])


def _bare_gateway(**kwargs) -> ShardedGateway:
    return ShardedGateway(tiny_spec(), tenants=2, workers=2, **kwargs)


class TestSupervisorLoop:
    """The respawn state machine, driven by a scripted worker and a
    recording fake clock — no processes, no wall time."""

    def test_respawns_with_backoff_then_serves(self):
        """Two deaths then a clean run: the supervisor sleeps the
        backoff ladder's first two delays, respawns twice, and counts
        both restarts."""

        async def program():
            gateway = _bare_gateway(
                backoff=BackoffPolicy(base_s=0.25, cap_s=5.0, budget=3)
            )
            shard = _Shard("shard0", ["tenant0"])
            shard.process = FakeProcess(exitcode=-9)
            gateway._shards["shard0"] = shard

            outcomes = [("died", "kill 1"), ("died", "kill 2"), None]
            spawns = []
            sleeps = []

            async def scripted_run(s):
                return outcomes.pop(0)

            async def fake_sleep(delay):
                sleeps.append(delay)

            gateway._run_worker = scripted_run
            gateway._spawn = lambda s: spawns.append(s.name)
            gateway._sleep = fake_sleep

            await gateway._supervise(shard)

            assert spawns == ["shard0", "shard0"]
            assert sleeps == [0.25, 0.5]
            assert shard.restarts == 2
            assert shard.respawns_used == 2
            assert shard.last_exit == -9

        asyncio.run(program())

    def test_budget_exhausted_hands_off_to_replacement(self):
        """Once respawns_used hits the budget, the next death goes to
        _replace() instead of another spawn."""

        async def program():
            gateway = _bare_gateway(
                backoff=BackoffPolicy(base_s=0.01, cap_s=0.01, budget=1)
            )
            shard = _Shard("shard0", ["tenant0"])
            shard.process = FakeProcess()
            gateway._shards["shard0"] = shard

            outcomes = [("died", "kill 1"), ("died", "kill 2")]
            replaced = []

            async def scripted_run(s):
                return outcomes.pop(0)

            async def fake_replace(s):
                replaced.append(s.name)
                s.state = FAILED  # terminal: ends the drain loop fast
                s.failed = "replaced in test"

            async def fake_sleep(delay):
                pass

            gateway._run_worker = scripted_run
            gateway._replace = fake_replace
            gateway._sleep = fake_sleep
            gateway._spawn = lambda s: None
            gateway._closed = False

            supervise = asyncio.create_task(gateway._supervise(shard))
            # The terminal drain loop parks on the queue; closing
            # releases it.
            await asyncio.sleep(0)
            while not replaced:
                await asyncio.sleep(0.001)
            shard.queue.put_nowait(None)
            await asyncio.wait_for(supervise, timeout=5.0)

            assert replaced == ["shard0"]
            assert shard.restarts == 1  # only the budgeted respawn

        asyncio.run(program())

    def test_boot_error_is_terminal_not_respawned(self):
        """A worker-reported boot exception is deterministic: the shard
        fails permanently instead of burning the respawn budget."""

        async def program():
            gateway = _bare_gateway()
            shard = _Shard("shard0", ["tenant0"])
            shard.process = FakeProcess(exitcode=1)
            gateway._shards["shard0"] = shard

            async def scripted_run(s):
                return ("boot_error", "ValueError: bad spec")

            gateway._run_worker = scripted_run
            gateway._spawn = lambda s: pytest.fail("must not respawn")

            supervise = asyncio.create_task(gateway._supervise(shard))
            while shard.state != FAILED:
                await asyncio.sleep(0.001)
            shard.queue.put_nowait(None)
            await asyncio.wait_for(supervise, timeout=5.0)

            assert shard.restarts == 0
            assert "bad spec" in gateway._boot_error
            assert gateway.ready.is_set()
            assert shard.ready.is_set()  # waiters wake to see the failure

        asyncio.run(program())


class TestQueueDraining:
    """The satellite bug: nothing queued on a dead shard may hang."""

    def test_drain_fails_queued_futures_retryable(self):
        async def program():
            gateway = _bare_gateway()
            shard = _Shard("shard0", ["tenant0"])
            shard.state = RESTARTING
            shard.failed = "worker died"
            loop = asyncio.get_running_loop()
            futures = [loop.create_future() for _ in range(3)]
            for future in futures:
                shard.queue.put_nowait(("req", future, None))
            # A liveness sentinel mixed in must be skipped, not failed.
            shard.queue.put_nowait(("dead", "exitcode -9"))

            gateway._drain_queue(shard)

            assert shard.queue.empty()
            for future in futures:
                with pytest.raises(ShardRestartingError, match="restarting"):
                    future.result()

        asyncio.run(program())

    def test_drain_on_terminal_shard_fails_unavailable(self):
        async def program():
            gateway = _bare_gateway()
            shard = _Shard("shard0", ["tenant0"])
            shard.state = FAILED
            shard.failed = "no survivors"
            loop = asyncio.get_running_loop()
            future = loop.create_future()
            shard.queue.put_nowait(("req", future, None))

            gateway._drain_queue(shard)

            with pytest.raises(ServiceUnavailableError, match="no survivors"):
                future.result()

        asyncio.run(program())

    def test_fail_inflight_clears_the_live_batch(self):
        async def program():
            gateway = _bare_gateway()
            shard = _Shard("shard0", ["tenant0"])
            shard.state = RESTARTING
            loop = asyncio.get_running_loop()
            futures = [loop.create_future() for _ in range(2)]
            shard.inflight = [("req", f, None) for f in futures]

            gateway._fail_inflight(shard)

            assert shard.inflight == []
            for future in futures:
                assert isinstance(future.exception(), ShardRestartingError)
            # Each future gets its OWN exception instance: seq stamping
            # in answer() mutates it, so sharing would cross-talk.
            assert futures[0].exception() is not futures[1].exception()

        asyncio.run(program())


@pytest.fixture
def piped_shard():
    """A shard handle over a real pipe whose far (worker) end the test
    holds; both ends are closed afterwards."""
    parent, child = multiprocessing.Pipe()
    shard = _Shard("shard0", ["tenant0"])
    shard.conn = parent
    try:
        yield shard, child
    finally:
        child.close()
        parent.close()


class TestPipeReads:
    """``_recv`` reads worker replies on the event loop: these drive it
    over a real pipe with no worker process behind it."""

    def test_waits_for_a_reply_then_reads_it(self, piped_shard):
        shard, child = piped_shard

        async def program():
            gateway = _bare_gateway()
            pending = asyncio.create_task(gateway._recv(shard))
            await asyncio.sleep(0.01)
            assert not pending.done()
            child.send(("answers", [], {}))
            assert await asyncio.wait_for(pending, 5.0) == ("answers", [], {})
            # A reply already waiting is read without watching the fd.
            child.send(("stats", {}, {}))
            assert await gateway._recv(shard) == ("stats", {}, {})

        asyncio.run(program())

    def test_cancelled_read_leaves_no_reader_behind(self, piped_shard):
        shard, child = piped_shard

        async def program():
            gateway = _bare_gateway()
            loop = asyncio.get_running_loop()
            pending = asyncio.create_task(gateway._recv(shard))
            await asyncio.sleep(0.01)
            pending.cancel()
            with pytest.raises(asyncio.CancelledError):
                await pending
            # remove_reader reports whether a reader was still registered.
            assert not loop.remove_reader(shard.conn.fileno())
            # The next read on the same shard gets the next reply (a read
            # left blocked elsewhere would steal it).
            child.send("next")
            try:
                next_read = gateway._recv(shard)
                assert await asyncio.wait_for(next_read, 5.0) == "next"
            finally:
                # Unblocks a read left behind, so a failure cannot hang.
                child.close()

        asyncio.run(program())

    def test_worker_death_reads_as_eof(self, piped_shard):
        shard, child = piped_shard

        async def program():
            gateway = _bare_gateway()
            pending = asyncio.create_task(gateway._recv(shard))
            await asyncio.sleep(0.01)
            child.close()  # what the kernel does when a worker dies
            with pytest.raises(EOFError):
                await asyncio.wait_for(pending, 5.0)
            shard.conn.close()  # the supervisor retires the pipe
            with pytest.raises(OSError):
                await gateway._recv(shard)

        asyncio.run(program())


class TestStateBookkeeping:
    def test_initial_state_and_counters(self):
        async def program():
            shard = _Shard("shard3", ["tenant0", "tenant2"])
            assert shard.state == BOOTING
            assert shard.restarts == 0
            assert shard.replacements == 0
            assert shard.last_exit is None
            assert shard.tenants == ["tenant0", "tenant2"]

        asyncio.run(program())

    def test_supervision_stats_overlay(self):
        async def program():
            gateway = _bare_gateway()
            shard = _Shard("shard0", ["tenant0"])
            shard.restarts = 2
            shard.replacements = 1
            shard.last_exit = -9
            overlay = gateway._supervision_stats(shard)
            assert overlay == {
                "restarts": 2.0,
                "replacements": 1.0,
                "last_exit": -9.0,
            }

        asyncio.run(program())

    def test_maybe_ready_counts_terminal_states(self):
        """A shard that dies terminally before ever being ready must not
        park wait_ready forever — terminal counts as concluded."""

        async def program():
            gateway = _bare_gateway()
            ready = _Shard("shard0", ["tenant0"])
            ready.state = READY
            dead = _Shard("shard1", ["tenant1"])
            dead.state = FAILED
            gateway._shards = {"shard0": ready, "shard1": dead}
            gateway._maybe_ready()
            assert gateway.ready.is_set()

        asyncio.run(program())
