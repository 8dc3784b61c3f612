"""The serving layer in isolation: cache, admission control, batching,
and the asyncio gateway — all against a fake deployment, so every
behavior (bucket math, epoch invalidation, shedding, coalescing,
concurrent-client determinism) is pinned without running a simulation.
"""

import asyncio
import json
import random

from repro.core.config import ScoopConfig, ValueDomain
from repro.service.gateway import (
    AnswerCache,
    QueryGateway,
    SampleTally,
    ServiceLimits,
    TenantService,
    percentile,
    serve_gateway,
)

DOMAIN = ValueDomain(0, 100)


class FakeResult:
    def __init__(self, readings):
        self.readings = readings
        self.closed = True


class FakeDeployment:
    """Duck-typed stand-in: answers every query with one reading per
    value in the requested range, advances a fake clock, and lets tests
    bump the index epoch by hand."""

    def __init__(self, reply_window=8.0):
        self.config = ScoopConfig(domain=DOMAIN, query_reply_window=reply_window)
        self.now = 0.0
        self.index_epoch = 0
        self.queries = []

    def query(self, attr=0, lo=None, hi=None, wait=True, **_kw):
        self.queries.append((attr, lo, hi))
        return FakeResult([(value, self.now, 1) for value in range(lo, hi + 1, 5)])

    def advance(self, dt):
        self.now += dt


def make_service(name: str = "t", **limit_kw) -> TenantService:
    limits = ServiceLimits(**limit_kw) if limit_kw else ServiceLimits()
    return TenantService(name, FakeDeployment(), limits=limits)


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.95) == 95.0
        assert percentile(values, 0.99) == 99.0
        assert percentile([], 0.5) == 0.0
        assert percentile([3.0], 0.99) == 3.0


class TestSampleTally:
    def test_empty_tally_reads_zero(self):
        tally = SampleTally()
        assert tally.count == 0 and tally.distinct == 0
        assert tally.mean() == 0.0
        assert tally.percentile(0.99) == 0.0


def list_scorecard(service: TenantService, latencies, staleness):
    """The scorecard as it was computed from per-request sample lists —
    the oracle the exact tallies must reproduce."""
    snap = service.snapshot()
    snap.update(
        latency_mean_s=sum(latencies) / len(latencies) if latencies else 0.0,
        latency_p50_s=percentile(latencies, 0.50),
        latency_p95_s=percentile(latencies, 0.95),
        latency_p99_s=percentile(latencies, 0.99),
        staleness_mean_s=sum(staleness) / len(staleness) if staleness else 0.0,
        staleness_p95_s=percentile(staleness, 0.95),
    )
    return snap


class TestTelemetryIsBounded:
    def test_cache_hits_do_not_grow_the_telemetry(self):
        """20k cache hits over 6 hot ranges: the tallies hold one entry
        per distinct simulated latency/staleness (misses advanced the
        clock 6 times), and the scorecard equals the list-based one."""
        service = make_service()
        hot = [(lo, lo + 3) for lo in range(0, 90, 15)]
        latencies, staleness = [], []

        def serve(lo, hi):
            ticket = service.submit(attr=0, lo=lo, hi=hi)
            while service.backlog:
                service.process_batch()
            assert ticket.status == "ok"
            latencies.append(ticket.latency_s)
            staleness.append(ticket.staleness_s)
            return ticket

        for lo, hi in hot:
            assert not serve(lo, hi).cache_hit
        rng = random.Random(7)
        for _ in range(20_000):
            assert serve(*hot[rng.randrange(len(hot))]).cache_hit
        assert service.served == len(latencies) == 20_006
        # hits: latency 0; misses: one reply window
        assert service.latencies.distinct == 2
        # one staleness per hot bucket (each cached at its own clock tick)
        assert service.staleness.distinct == len(hot)
        assert service.snapshot() == list_scorecard(service, latencies, staleness)


class TestAnswerCache:
    def test_bucket_range_alignment(self):
        cache = AnswerCache(buckets=16)
        # width = ceil(101 / 16) = 7: buckets [0,6], [7,13], ...
        assert cache.bucket_range(DOMAIN, 0, 0) == (0, 6)
        assert cache.bucket_range(DOMAIN, 10, 12) == (7, 13)
        assert cache.bucket_range(DOMAIN, 5, 10) == (0, 13)
        assert cache.bucket_range(DOMAIN, 98, 100) == (98, 100)

    def test_no_quantization_means_whole_domain(self):
        for buckets in (0, 1):
            cache = AnswerCache(buckets=buckets)
            assert cache.bucket_range(DOMAIN, 40, 42) == (0, 100)

    def test_epoch_keys_miss_across_epochs(self):
        cache = AnswerCache()
        cache.put(0, 0, 6, epoch=1, readings=[(3, 1.0, 2)], stored_at=1.0)
        assert cache.get(0, 0, 6, epoch=1) is not None
        assert cache.get(0, 0, 6, epoch=2) is None

    def test_lru_eviction(self):
        cache = AnswerCache(capacity=2)
        for i in range(3):
            cache.put(0, i, i, epoch=0, readings=[], stored_at=0.0)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(0, 0, 0, epoch=0) is None  # the oldest went


class TestAdmission:
    def test_miss_then_batch_then_hit(self):
        service = make_service()
        dep = service.deployment
        first = service.submit(attr=0, lo=10, hi=12)
        assert first.status == "pending"
        answered = service.process_batch()
        assert [t.seq for t in answered] == [first.seq]
        assert first.status == "ok" and not first.cache_hit
        assert first.latency_s == dep.config.query_reply_window
        assert all(10 <= value <= 12 for value, _ts, _n in first.readings)
        # Same bucket again: answered from cache, no new network query.
        dep.advance(4.0)
        hit = service.submit(attr=0, lo=11, hi=13)
        assert hit.status == "ok" and hit.cache_hit
        assert hit.staleness_s == 4.0
        assert len(dep.queries) == 1

    def test_forced_epoch_bump_invalidates_cache(self):
        service = make_service()
        dep = service.deployment
        service.submit(attr=0, lo=10, hi=12)
        service.process_batch()
        dep.index_epoch += 1  # a remap disseminated new indexes
        again = service.submit(attr=0, lo=10, hi=12)
        assert again.status == "pending"  # stale answer was not served
        service.process_batch()
        assert again.status == "ok"
        assert len(dep.queries) == 2

    def test_shed_beyond_queue_depth(self):
        service = make_service(queue_depth=2, cache_buckets=16)
        admitted = [service.submit(attr=0, lo=i * 20, hi=i * 20) for i in range(2)]
        shed = service.submit(attr=0, lo=90, hi=90)
        assert [t.status for t in admitted] == ["pending", "pending"]
        assert shed.status == "shed"
        snap = service.snapshot()
        assert snap["requests_shed"] == 1.0
        assert 0 < snap["shed_rate"] < 1

    def test_same_bucket_requests_coalesce_into_one_query(self):
        service = make_service()
        dep = service.deployment
        a = service.submit(attr=0, lo=10, hi=11)
        b = service.submit(attr=0, lo=12, hi=13)  # same [7, 13] bucket
        service.process_batch()
        assert a.status == b.status == "ok"
        assert len(dep.queries) == 1
        assert service.coalesced == 1

    def test_batch_capacity_leaves_remainder_queued(self):
        service = make_service(batch_capacity=1, queue_depth=8)
        a = service.submit(attr=0, lo=0, hi=0)
        b = service.submit(attr=0, lo=50, hi=50)  # different bucket
        service.process_batch()
        assert a.status == "ok"
        assert b.status == "pending"
        assert service.backlog == 1
        service.process_batch()
        assert b.status == "ok"

    def test_malformed_requests_raise_not_shed(self):
        service = make_service()
        for lo, hi in ((-1, 5), (5, 101), (30, 10)):
            try:
                service.submit(attr=0, lo=lo, hi=hi)
                raise AssertionError("expected ValueError")
            except ValueError as exc:
                assert "malformed request" in str(exc)
        try:
            service.submit(attr=9)
            raise AssertionError("expected ValueError")
        except ValueError as exc:
            assert "attribute id 9" in str(exc)
        assert service.offered == 0  # rejections are not load

    def test_backdated_arrival_gives_positive_hit_latency(self):
        service = make_service()
        dep = service.deployment
        service.submit(attr=0, lo=10, hi=12)
        service.process_batch()
        dep.advance(2.0)
        hit = service.submit(attr=0, lo=10, hi=12, arrival=dep.now - 3.0)
        assert hit.cache_hit
        assert hit.latency_s == 3.0


def run_gateway_program(n_clients=4, per_client=5):
    """One fixed concurrent-client program against a two-tenant gateway;
    returns the ordered list of (client, status, cache_hit) outcomes."""

    async def program():
        services = {
            "tenant0": make_service("tenant0"),
            "tenant1": make_service("tenant1"),
        }
        gateway = QueryGateway(services, batch_delay=0)
        await gateway.start()
        outcomes = []

        async def client(idx):
            tenant = f"tenant{idx % 2}"
            for i in range(per_client):
                lo = (idx * 17 + i * 11) % 90
                ticket = await gateway.query(tenant, 0, lo, lo + 5)
                outcomes.append((idx, ticket.status, ticket.cache_hit))

        await asyncio.gather(*(client(i) for i in range(n_clients)))
        stats = gateway.stats()
        await gateway.close()
        return outcomes, stats

    return asyncio.run(program())


class TestGateway:
    def test_concurrent_clients_deterministic(self):
        first_outcomes, first_stats = run_gateway_program()
        second_outcomes, second_stats = run_gateway_program()
        assert first_outcomes == second_outcomes
        assert first_stats == second_stats
        assert all(status == "ok" for _i, status, _hit in first_outcomes)
        served = sum(s["requests_served"] for s in first_stats.values())
        assert served == 20

    def test_unknown_tenant_rejected(self):
        async def program():
            gateway = QueryGateway({"tenant0": make_service("tenant0")}, batch_delay=0)
            await gateway.start()
            try:
                await gateway.query("nope", 0, 1, 2)
                raise AssertionError("expected ValueError")
            except ValueError as exc:
                assert "unknown tenant" in str(exc)
            finally:
                await gateway.close()

        asyncio.run(program())

    def test_closed_gateway_refuses_queries(self):
        async def program():
            gateway = QueryGateway({"tenant0": make_service("tenant0")}, batch_delay=0)
            await gateway.start()
            await gateway.close()
            try:
                await gateway.query("tenant0", 0, 1, 2)
                raise AssertionError("expected RuntimeError")
            except RuntimeError as exc:
                assert "closed" in str(exc)

        asyncio.run(program())


class TestServeGateway:
    def test_json_lines_protocol(self):
        async def program():
            gateway = QueryGateway({"tenant0": make_service("tenant0")}, batch_delay=0)
            await gateway.start()
            server = await serve_gateway(gateway, host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def roundtrip(payload):
                writer.write((json.dumps(payload) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            pong = await roundtrip({"op": "ping"})
            assert pong == {"status": "ok", "op": "ping", "tenants": ["tenant0"]}

            answer = await roundtrip({"op": "query", "lo": 10, "hi": 14})
            assert answer["status"] == "ok"
            assert answer["tenant"] == "tenant0"
            assert answer["n_readings"] == len(answer["readings"])
            assert all(10 <= r[0] <= 14 for r in answer["readings"])

            bad = await roundtrip({"op": "query", "lo": -4, "hi": 5})
            assert bad["status"] == "error"
            assert "malformed request" in bad["error"]

            unknown = await roundtrip({"op": "frobnicate"})
            assert unknown["status"] == "error"
            assert "unknown op" in unknown["error"]

            stats = await roundtrip({"op": "stats"})
            assert stats["status"] == "ok"
            assert stats["stats"]["tenant0"]["requests_served"] == 1.0

            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await gateway.close()

        asyncio.run(program())


class TestSnapshot:
    def test_snapshot_shape(self):
        service = make_service()
        service.submit(attr=0, lo=10, hi=12)
        service.process_batch()
        service.submit(attr=0, lo=10, hi=12)
        snap = service.snapshot()
        assert all(isinstance(v, float) for v in snap.values())
        assert snap["requests_offered"] == 2.0
        assert snap["requests_served"] == 2.0
        assert snap["cache_hits"] == 1.0
        assert snap["cache_hit_rate"] == 0.5
        assert snap["queries_issued"] == 1.0
        assert snap["latency_p99_s"] >= snap["latency_p95_s"] >= snap["latency_p50_s"]
