"""End-to-end tests for the sharded serving stack over real sockets.

The contract under test, from ISSUE 8:

* the hello/WELCOME handshake doubles as the readiness barrier — a
  client that connects while shards are still booting blocks, never
  errors;
* answers are a function of each tenant's ordered request stream, so a
  fixed client program gets bit-identical transcripts from ``workers=1``
  and ``workers=4``;
* overload and misuse surface as typed faults over the wire (socket
  credit shed → :class:`ShedError`, version skew →
  :class:`ProtocolVersionError`, unknown tenant →
  :class:`MalformedRequestError`);
* metrics subscribers receive per-shard scorecard pushes.

ISSUE 10 adds the supervision contract (:class:`TestShardSupervision`):
a worker killed at any point — before ready, mid-batch, mid-stats-probe
— is respawned and the service keeps answering; with the respawn budget
exhausted its tenants are re-placed onto survivors; in every case no
request hangs (they fail typed and retryable) and no worker process
outlives its gateway.

The protocol-behavior tests run against the in-process
:class:`QueryGateway` (same server, same frames, no process spawn); the
determinism test boots real :class:`ShardedGateway` worker processes.
"""

import asyncio
import os
import signal

import pytest

from repro.core.config import ScoopConfig, ValueDomain
from repro.experiments.runner import ExperimentSpec
from repro.service.api import (
    PROTOCOL_VERSION,
    MalformedRequestError,
    ProtocolVersionError,
    ServiceUnavailableError,
    ShardRestartingError,
    ShedError,
)
from repro.service.client import AsyncScoopClient
from repro.service.gateway import QueryGateway
from repro.service.loadtest import drive_socket_load
from repro.service.server import serve_framed
from repro.service.shard import BackoffPolicy, ShardedGateway


def assert_no_zombies(gateway: ShardedGateway) -> None:
    """After close(), no worker may survive (the kill-fallback bug):
    every process is dead *and* reaped (exitcode set = waited on)."""
    for shard in gateway._shards.values():
        process = shard.process
        if process is None:
            continue
        assert not process.is_alive(), f"{shard.name} worker outlived close()"
        assert process.exitcode is not None, f"{shard.name} worker not reaped"


async def poll_until(predicate, timeout: float = 30.0, interval: float = 0.05):
    """Await ``predicate()`` turning truthy; fail loudly on timeout."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert (
            asyncio.get_running_loop().time() < deadline
        ), f"condition not reached within {timeout}s"
        await asyncio.sleep(interval)


def tiny_spec(seed: int = 3) -> ExperimentSpec:
    """The smallest spec that still serves queries: 8 motes, short
    warm-up, one attribute over [0, 100]. Worker boot stays well under a
    second, which is what makes multi-process tests affordable."""
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


def in_process_gateway(tenants: int = 1) -> QueryGateway:
    return QueryGateway.from_spec(tiny_spec(), tenants=tenants, batch_delay=0.0)


class TestFramedServer:
    """Protocol behavior over a real socket, in-process gateway."""

    def test_query_stats_ping_round_trip(self):
        async def program():
            gateway = in_process_gateway()
            await gateway.start()
            server = await serve_framed(gateway)
            try:
                async with AsyncScoopClient(port=server.port) as client:
                    assert client.tenants == ["tenant0"]
                    assert client.workers == 1
                    answer = await client.query(tenant="tenant0", lo=10, hi=60)
                    assert answer.ok and answer.shard == "shard0"
                    assert answer.seq == 1
                    assert await client.ping() == ["tenant0"]
                    stats = await client.stats()
                    assert "tenant0" in stats.tenants
                    assert "shard0" in stats.shards
                    assert stats.protocol["requests"] >= 1
            finally:
                await server.close()
                await gateway.close()

        asyncio.run(program())

    def test_socket_credit_shed(self):
        """With a zero-credit window every request sheds at the socket:
        the client sees ShedError, the server counts it, and the
        connection stays usable for control frames."""

        async def program():
            gateway = in_process_gateway()
            await gateway.start()
            server = await serve_framed(gateway, credits=0)
            try:
                async with AsyncScoopClient(port=server.port) as client:
                    assert client.credits == 0
                    with pytest.raises(ShedError):
                        await client.query(tenant="tenant0")
                    assert server.counters["sheds_socket"] == 1
                    # Sheds don't poison the stream — PING still works.
                    assert await client.ping() == ["tenant0"]
            finally:
                await server.close()
                await gateway.close()

        asyncio.run(program())

    def test_version_skew_is_typed_and_fatal(self):
        async def program():
            gateway = in_process_gateway()
            await gateway.start()
            server = await serve_framed(gateway)
            try:
                client = AsyncScoopClient(
                    port=server.port, version=PROTOCOL_VERSION + 1
                )
                with pytest.raises(ProtocolVersionError):
                    await client.connect()
                await client.aclose()
            finally:
                await server.close()
                await gateway.close()

        asyncio.run(program())

    def test_unknown_tenant_is_malformed(self):
        async def program():
            gateway = in_process_gateway()
            await gateway.start()
            server = await serve_framed(gateway)
            try:
                async with AsyncScoopClient(port=server.port) as client:
                    with pytest.raises(MalformedRequestError, match="martian"):
                        await client.query(tenant="martian")
                    # The fault is per-request: the connection survives.
                    answer = await client.query(tenant="tenant0")
                    assert answer.ok
            finally:
                await server.close()
                await gateway.close()

        asyncio.run(program())

    def test_metrics_subscription_pushes_shard_scorecards(self):
        async def program():
            gateway = in_process_gateway()
            await gateway.start()
            server = await serve_framed(gateway, metrics_interval=0.02)
            try:
                async with AsyncScoopClient(
                    port=server.port, metrics=True
                ) as client:
                    await client.query(tenant="tenant0")
                    deadline = asyncio.get_running_loop().time() + 5.0
                    while not client.metrics:
                        assert (
                            asyncio.get_running_loop().time() < deadline
                        ), "no METRICS frame within 5s"
                        await asyncio.sleep(0.02)
                    push = client.metrics[0]
                    assert push["shard"] == "shard0"
                    assert "tick" in push
                    assert "requests_offered" in push["stats"]
                assert server.counters["metrics_pushed"] >= 1
            finally:
                await server.close()
                await gateway.close()

        asyncio.run(program())


class TestShardedGateway:
    """Real worker processes behind the framed server."""

    def test_readiness_gates_welcome(self):
        """The server accepts connections the moment it binds — before
        any shard has booted — and parks the WELCOME behind the
        readiness barrier, so connect() blocking is the handshake."""

        async def program():
            gateway = ShardedGateway(tiny_spec(), tenants=2, workers=2)
            await gateway.start()
            server = await serve_framed(gateway)
            try:
                # Spawned workers take ≥100ms to even import; the bind
                # happened synchronously above, so this races nothing.
                assert not gateway.ready.is_set()
                async with AsyncScoopClient(port=server.port) as client:
                    assert gateway.ready.is_set()
                    assert client.tenants == ["tenant0", "tenant1"]
                    assert client.workers == 2
                    answer = await client.query(tenant="tenant1", lo=0, hi=50)
                    assert answer.ok and answer.shard == "shard1"
            finally:
                await server.close()
                await gateway.close()
                assert_no_zombies(gateway)

        asyncio.run(program())

    def test_workers_1_and_4_answer_identically(self):
        """The shard-determinism gate: one sequential client per tenant
        replaying a fixed program gets byte-identical per-tenant
        transcripts whatever the worker count."""

        async def serve_and_drive(workers: int):
            gateway = ShardedGateway(tiny_spec(), tenants=4, workers=workers)
            await gateway.start()
            server = await serve_framed(gateway)
            try:
                await gateway.wait_ready()
                report = await asyncio.get_running_loop().run_in_executor(
                    None,
                    lambda: drive_socket_load(
                        "127.0.0.1",
                        server.port,
                        clients=4,
                        requests=6,
                        seed=11,
                    ),
                )
            finally:
                await server.close()
                await gateway.close()
                assert_no_zombies(gateway)
            return report

        report1 = asyncio.run(serve_and_drive(1))
        report4 = asyncio.run(serve_and_drive(4))

        for report, workers in ((report1, 1), (report4, 4)):
            assert report["workers"] == workers
            assert report["counts"]["failed"] == 0, report["errors"]
            assert report["counts"]["ok"] == 4 * 6
            assert report["stats"]["protocol"]["protocol_errors"] == 0
        # 1 worker hosts every tenant on shard0; 4 spread one per shard.
        assert set(report1["stats"]["shards"]) == {"shard0"}
        assert set(report4["stats"]["shards"]) == {
            "shard0",
            "shard1",
            "shard2",
            "shard3",
        }
        # The tentpole invariant: identical transcripts, hence digests.
        assert report1["answers"] == report4["answers"]
        assert report1["answers_digest"] == report4["answers_digest"]


class TestShardSupervision:
    """The death/recovery matrix: real workers, really killed."""

    def test_kill_before_ready_respawns(self):
        """A worker killed while still booting is respawned: the
        readiness barrier eventually opens and the shard serves."""

        async def program():
            gateway = ShardedGateway(
                tiny_spec(),
                tenants=2,
                workers=2,
                backoff=BackoffPolicy(base_s=0.05, cap_s=0.2, budget=3),
            )
            await gateway.start()
            try:
                assert not gateway.ready.is_set()
                gateway._shards["shard0"].process.kill()
                await gateway.wait_ready(timeout=60.0)
                answer = await gateway.answer(
                    _request(gateway, "tenant0", seq=1)
                )
                assert answer.ok and answer.shard == "shard0"
                stats = await gateway.service_stats()
                assert stats.shards["shard0"]["restarts"] >= 1
                assert stats.shards["shard0"]["last_exit"] == -9
                assert stats.shards["shard1"]["restarts"] == 0
            finally:
                await gateway.close()
                assert_no_zombies(gateway)

        asyncio.run(program())

    def test_kill_mid_batch_clients_retry_to_success(self):
        """Kill a worker while concurrent client queries are on the
        wire, over a real socket: every in-flight and queued request is
        failed retryable (nothing hangs), the clients' retry policy
        resends, and all of them ultimately succeed."""

        async def program():
            gateway = ShardedGateway(
                tiny_spec(),
                tenants=2,
                workers=2,
                # batch_delay holds the lockstep batch open long enough
                # that the kill below reliably lands mid-batch.
                batch_delay=0.3,
                backoff=BackoffPolicy(base_s=0.05, cap_s=0.5, budget=3),
            )
            await gateway.start()
            server = await serve_framed(gateway)
            try:
                async with AsyncScoopClient(
                    port=server.port, retries=30
                ) as client:
                    half = asyncio.gather(
                        *(client.query(tenant="tenant0", lo=0, hi=80)
                          for _ in range(8))
                    )
                    # Kill while the batch is still being assembled:
                    # those 8 requests are in flight, none answered.
                    await asyncio.sleep(0.1)
                    killed = gateway.chaos_kill_worker("shard0")
                    assert killed == "shard0"
                    answers = await asyncio.wait_for(half, timeout=120.0)
                    assert len(answers) == 8
                    assert all(a.tenant == "tenant0" for a in answers)
                    assert client.retries_used >= 1
                    stats = await client.stats()
                    assert stats.shards["shard0"]["restarts"] >= 1
                    assert stats.protocol["retries_signalled"] >= 1
            finally:
                await server.close()
                await gateway.close()
                assert_no_zombies(gateway)

        asyncio.run(program())

    def test_kill_with_batch_on_the_pipe_fails_retryable(self):
        """SIGKILL a worker while the pump awaits its batch reply: the
        request fails with the retryable ``retry`` code (no client retry
        in between), and the respawned shard serves again."""

        async def program():
            gateway = ShardedGateway(
                tiny_spec(),
                tenants=1,
                workers=1,
                backoff=BackoffPolicy(base_s=0.05, cap_s=0.2, budget=3),
            )
            await gateway.start()
            try:
                await gateway.wait_ready(timeout=60.0)
                shard = gateway._shards["shard0"]
                # A stopped worker cannot answer: the batch stays on the
                # pipe until the kill, whatever the scheduling.
                os.kill(shard.process.pid, signal.SIGSTOP)
                pending = asyncio.create_task(
                    gateway.answer(_request(gateway, "tenant0", seq=7))
                )
                await poll_until(lambda: shard.inflight, interval=0.01)
                await asyncio.sleep(0.05)
                assert not pending.done()
                assert gateway.chaos_kill_worker("shard0") == "shard0"
                with pytest.raises(ShardRestartingError) as info:
                    await asyncio.wait_for(pending, 30.0)
                assert info.value.code == "retry"
                assert info.value.seq == 7
                await poll_until(
                    lambda: gateway.shard_states()["shard0"] == "ready"
                )
                answer = await gateway.answer(
                    _request(gateway, "tenant0", seq=8)
                )
                assert answer.ok and answer.seq == 8
            finally:
                await gateway.close()
                assert_no_zombies(gateway)

        asyncio.run(program())

    def test_kill_during_stats_probe_does_not_raise(self):
        """A stats probe racing a worker death falls back to the cached
        scorecard (with supervision counters) instead of raising."""

        async def program():
            gateway = ShardedGateway(
                tiny_spec(),
                tenants=2,
                workers=2,
                backoff=BackoffPolicy(base_s=0.05, cap_s=0.2, budget=3),
            )
            await gateway.start()
            try:
                await gateway.wait_ready(timeout=60.0)
                # Prime the cached scorecards, then race kills against
                # probes: none may raise, every report covers the fleet.
                await gateway.service_stats()
                gateway.chaos_kill_worker("shard0")
                for _ in range(5):
                    stats = await gateway.service_stats()
                    assert set(stats.shards) == {"shard0", "shard1"}
                    assert "restarts" in stats.shards["shard0"]
                    await asyncio.sleep(0.05)
                await poll_until(
                    lambda: gateway.shard_states()["shard0"] == "ready"
                )
                stats = await gateway.service_stats()
                assert stats.shards["shard0"]["restarts"] >= 1
            finally:
                await gateway.close()
                assert_no_zombies(gateway)

        asyncio.run(program())

    def test_budget_exhausted_replaces_tenants_onto_survivor(self):
        """With a zero respawn budget, a worker death re-places the dead
        shard's tenants onto the survivor: the routing table flips, the
        tenant keeps answering (from the other shard), and the
        supervision counters record the whole story."""

        async def program():
            gateway = ShardedGateway(
                tiny_spec(),
                tenants=2,
                workers=2,
                backoff=BackoffPolicy(base_s=0.05, cap_s=0.2, budget=0),
            )
            await gateway.start()
            try:
                await gateway.wait_ready(timeout=60.0)
                before = await gateway.answer(
                    _request(gateway, "tenant0", seq=1)
                )
                assert before.shard == "shard0"
                assert gateway.chaos_kill_worker("shard0") == "shard0"
                await poll_until(
                    lambda: gateway.shard_states()["shard0"] == "replaced"
                )
                assert gateway.shard_of("tenant0") == "shard1"
                # The adoption reply refreshed the adopter's live
                # telemetry: it already lists the adopted tenant.
                live = gateway.metrics_snapshots()["shard1"]["tenants"]
                assert set(live) == {"tenant0", "tenant1"}
                after = await gateway.answer(
                    _request(gateway, "tenant0", seq=2)
                )
                assert after.ok and after.shard == "shard1"
                # The survivor still serves its own tenant too.
                own = await gateway.answer(_request(gateway, "tenant1", seq=3))
                assert own.ok and own.shard == "shard1"
                stats = await gateway.service_stats()
                assert stats.shards["shard0"]["restarts"] == 0
                assert stats.shards["shard0"]["last_exit"] == -9
                assert stats.shards["shard1"]["replacements"] == 1
                # Both tenants report through the adopting shard now.
                assert set(stats.tenants) == {"tenant0", "tenant1"}
            finally:
                await gateway.close()
                assert_no_zombies(gateway)

        asyncio.run(program())

    def test_wait_ready_timeout_is_typed(self):
        """The readiness timeout surfaces as ServiceUnavailableError,
        not a bare asyncio.TimeoutError leaking through the ladder."""

        async def program():
            gateway = ShardedGateway(tiny_spec(), tenants=1, workers=1)
            await gateway.start()
            try:
                with pytest.raises(ServiceUnavailableError, match="not ready"):
                    await gateway.wait_ready(timeout=0.001)
                # The boot itself is unharmed: it completes afterwards.
                await gateway.wait_ready(timeout=60.0)
            finally:
                await gateway.close()
                assert_no_zombies(gateway)

        asyncio.run(program())


def _request(gateway: ShardedGateway, tenant: str, seq: int):
    from repro.service.api import QueryRequest

    return QueryRequest(tenant=tenant, attr=0, lo=0, hi=100, seq=seq)
