"""The query gateway: admission control, batching, epoch-keyed caching.

Three layers, separable so the serving logic stays testable without an
event loop:

* :class:`AnswerCache` — an LRU of recent query answers keyed on
  ``(attr, range bucket, index epoch)``. Requested ranges are quantized
  to bucket-aligned ranges (the underlying query is issued at bucket
  granularity and per-request answers are filtered back down, so
  answers stay exact), which lets nearby requests share one radio
  query. The epoch in the key is the basestation's remap epoch: the
  moment a remap disseminates new indexes every cached answer
  self-invalidates — the same trick as the source-salted result cache.
* :class:`TenantService` — the synchronous serving core around one
  resident :class:`~repro.service.deployment.Deployment`: per-tenant
  admission control (a bounded queue; requests beyond it are shed with
  an explicit status, never silently dropped), per-window batching
  (queued misses coalesce by cache bucket and at most
  ``batch_capacity`` basestation queries go out per batch), and the
  latency/staleness/shed accounting exported as service metrics. The
  latency and staleness telemetry is held as exact value → count
  tallies (:class:`SampleTally`), never as per-request lists: its size
  follows how often the simulated clock advances, not the request
  count, so a resident server's scorecard costs the same to build on
  every request.
* :class:`QueryGateway` — the asyncio front: one ``TenantService`` per
  tenant, a worker task per tenant draining its queue, and a JSON-lines
  TCP protocol (:func:`serve_gateway`) for external clients.

All serving metrics are *simulated-time* quantities (arrival-to-answer
latency on the deployment clock, answer staleness, shed counts), so a
load test's metrics are a pure function of the spec — they ride the
campaign pipeline's determinism checks like every other metric.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.config import ValueDomain
from repro.core.messages import WireReading
from repro.experiments.runner import ExperimentSpec
from repro.service.api import (
    MalformedRequestError,
    QueryAnswer,
    QueryRequest,
    ServiceStats,
    ServiceUnavailableError,
    aggregate_shard_stats,
    decode_jsonl_request,
    encode_jsonl_answer,
    encode_jsonl_error,
)


def nearest_rank(q: float, n: int) -> int:
    """The 1-based nearest rank of quantile ``q`` among ``n`` samples —
    the one rank rule :func:`percentile` and :class:`SampleTally` share."""
    return max(1, math.ceil(q * n))


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    return sorted(values)[nearest_rank(q, len(values)) - 1]


class SampleTally:
    """An exact multiset of float samples: value -> count, plus the
    sample count and a running sum.

    Serving samples are simulated-clock quantities, so they repeat: every
    cache hit answered at one clock reading has the same latency and the
    same staleness. The tally therefore grows with the number of distinct
    values — with how often the simulated clock advances — not with the
    number of requests, and it is exact: :meth:`percentile` walks the
    sorted distinct values by cumulative count with the same nearest-rank
    rule as :func:`percentile`, and :meth:`mean` divides a sum accumulated
    in arrival order, so both equal the list-based figures bit for bit
    (``sum(list) / len(list)`` on Python < 3.12, whose float ``sum`` adds
    left to right).
    """

    __slots__ = ("_counts", "count", "total")

    def __init__(self) -> None:
        self._counts: Dict[float, int] = {}
        self.count = 0
        self.total = 0.0

    @property
    def distinct(self) -> int:
        """Number of distinct values held (the tally's size)."""
        return len(self._counts)

    def add(self, value: float) -> None:
        self._counts[value] = self._counts.get(value, 0) + 1
        self.count += 1
        self.total += value

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        if not self.count:
            return 0.0
        rank = nearest_rank(q, self.count)
        seen = 0
        for value in sorted(self._counts):
            seen += self._counts[value]
            if seen >= rank:
                return value
        raise AssertionError("rank beyond the sample count")


@dataclass
class ServiceLimits:
    """Per-tenant serving knobs (defaults mirror the spec fields)."""

    #: admission-control bound: queued (unanswered) requests beyond this
    #: are shed with an explicit status.
    queue_depth: int = 8
    #: basestation queries issued per batch window at most; queued
    #: requests beyond it wait for the next window.
    batch_capacity: int = 4
    #: buckets the value domain is quantized into for cache keys and
    #: query coalescing (0 or 1 disables quantization).
    cache_buckets: int = 16
    #: answer-cache entry bound (LRU beyond it).
    cache_capacity: int = 256

    @classmethod
    def from_spec(cls, spec: ExperimentSpec) -> "ServiceLimits":
        return cls(
            queue_depth=spec.service_queue_depth,
            batch_capacity=spec.service_batch_capacity,
            cache_buckets=spec.service_cache_buckets,
        )


@dataclass
class CacheEntry:
    """One cached bucket answer."""

    readings: List[WireReading]
    #: simulated time the answer was assembled (staleness baseline).
    stored_at: float
    #: remap epoch the answer was computed under.
    epoch: int


class AnswerCache:
    """LRU answer cache keyed ``(attr, bucket_lo, bucket_hi, epoch)``."""

    def __init__(self, buckets: int = 16, capacity: int = 256):
        self.buckets = buckets
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[int, int, int, int], CacheEntry]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def bucket_range(
        self, domain: ValueDomain, lo: int, hi: int
    ) -> Tuple[int, int]:
        """Quantize ``[lo, hi]`` outward to bucket-aligned bounds.

        The widened range is what actually gets queried (and cached);
        answers are filtered back to the requested sub-range, so caching
        never changes what a client receives.
        """
        if self.buckets <= 1:
            return domain.lo, domain.hi
        width = max(1, -(-domain.size // self.buckets))
        blo = domain.lo + ((lo - domain.lo) // width) * width
        bhi = domain.lo + ((hi - domain.lo) // width) * width + width - 1
        return blo, min(domain.hi, bhi)

    def get(
        self, attr: int, blo: int, bhi: int, epoch: int
    ) -> Optional[CacheEntry]:
        entry = self._entries.get((attr, blo, bhi, epoch))
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end((attr, blo, bhi, epoch))
        self.hits += 1
        return entry

    def put(
        self,
        attr: int,
        blo: int,
        bhi: int,
        epoch: int,
        readings: List[WireReading],
        stored_at: float,
    ) -> CacheEntry:
        entry = CacheEntry(list(readings), stored_at, epoch)
        self._entries[(attr, blo, bhi, epoch)] = entry
        self._entries.move_to_end((attr, blo, bhi, epoch))
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return entry


@dataclass
class ServiceTicket:
    """One client request's fate, in the clients' own terms."""

    seq: int
    tenant: str
    attr: int
    lo: int
    hi: int
    #: simulated arrival time (latency baseline).
    arrival: float
    status: str = "pending"  # pending -> ok, or shed
    readings: List[WireReading] = field(default_factory=list)
    latency_s: float = 0.0
    cache_hit: bool = False
    #: age of the served answer at serving time (0 for fresh answers).
    staleness_s: float = 0.0
    #: remap epoch the answer was computed under (-1 until answered).
    epoch: int = -1
    #: bucket-aligned range actually queried (set once admitted).
    bucket: Optional[Tuple[int, int]] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready wire form (the TCP protocol's response body)."""
        return {
            "status": self.status,
            "tenant": self.tenant,
            "seq": self.seq,
            "attr": self.attr,
            "lo": self.lo,
            "hi": self.hi,
            "latency_s": round(self.latency_s, 6),
            "cache_hit": self.cache_hit,
            "staleness_s": round(self.staleness_s, 6),
            "epoch": self.epoch,
            "n_readings": len(self.readings),
            "readings": [list(r) for r in self.readings[:50]],
        }


class TenantService:
    """The synchronous serving core around one resident deployment.

    ``submit`` admits (or sheds, or answers from cache) one request;
    ``process_batch`` drains up to ``batch_capacity`` coalesced bucket
    queries through the deployment and advances the kernel through one
    reply window. Single-threaded by design: the asyncio gateway calls
    both from one event loop, the batch load driver from a plain loop.
    """

    def __init__(
        self,
        name: str,
        deployment,
        limits: Optional[ServiceLimits] = None,
    ):
        self.name = name
        self.deployment = deployment
        self.limits = limits or ServiceLimits.from_spec(deployment.spec)
        self.cache = AnswerCache(
            buckets=self.limits.cache_buckets,
            capacity=self.limits.cache_capacity,
        )
        self._queue: List[ServiceTicket] = []
        self._seq = 0
        self.offered = 0
        self.served = 0
        self.shed = 0
        self.cache_hits = 0
        self.queries_issued = 0
        self.coalesced = 0
        self.batches = 0
        self.latencies = SampleTally()
        self.staleness = SampleTally()
        self.epochs_seen: Set[int] = set()

    @property
    def backlog(self) -> int:
        """Admitted requests still waiting for a batch window."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(
        self,
        attr: int = 0,
        lo: Optional[int] = None,
        hi: Optional[int] = None,
        arrival: Optional[float] = None,
    ) -> ServiceTicket:
        """Admit one request: answer it from cache, queue it for the
        next batch, or shed it.

        Malformed requests (unregistered attribute, out-of-domain or
        empty range) raise ``ValueError`` — rejection is an error the
        client hears about, shedding is an overload signal; the two are
        never conflated. ``arrival`` backdates the request (the load
        driver stamps precomputed arrival times that may fall inside a
        reply-window advance); it is clamped to the deployment clock.
        """
        dep = self.deployment
        domain = dep.config.domain_of(attr)  # unknown attr raises here
        lo = domain.lo if lo is None else int(lo)
        hi = domain.hi if hi is None else int(hi)
        if hi < lo or lo not in domain or hi not in domain:
            raise ValueError(
                f"malformed request: value range [{lo}, {hi}] outside "
                f"attribute {attr}'s domain [{domain.lo}, {domain.hi}]"
            )
        now = dep.now
        if arrival is None or arrival > now:
            arrival = now
        self._seq += 1
        self.offered += 1
        ticket = ServiceTicket(
            seq=self._seq,
            tenant=self.name,
            attr=attr,
            lo=lo,
            hi=hi,
            arrival=arrival,
        )
        blo, bhi = self.cache.bucket_range(domain, lo, hi)
        ticket.bucket = (blo, bhi)
        entry = self.cache.get(attr, blo, bhi, dep.index_epoch)
        if entry is not None:
            self._answer(ticket, entry, cache_hit=True)
            return ticket
        if len(self._queue) >= self.limits.queue_depth:
            ticket.status = "shed"
            self.shed += 1
            return ticket
        self._queue.append(ticket)
        return ticket

    # ------------------------------------------------------------------
    # Batch processing
    # ------------------------------------------------------------------
    def process_batch(self) -> List[ServiceTicket]:
        """Serve queued requests: coalesce by bucket, issue up to
        ``batch_capacity`` basestation queries, advance the kernel one
        reply window, answer everything those queries cover."""
        if not self._queue:
            return []
        dep = self.deployment
        groups: "OrderedDict[Tuple[int, Tuple[int, int]], List[ServiceTicket]]" = (
            OrderedDict()
        )
        for ticket in self._queue:
            groups.setdefault((ticket.attr, ticket.bucket), []).append(ticket)
        taken = list(groups.items())[: self.limits.batch_capacity]
        epoch = dep.index_epoch
        issued = []
        for (attr, (blo, bhi)), tickets in taken:
            result = dep.query(attr=attr, lo=blo, hi=bhi, wait=False)
            issued.append(((attr, blo, bhi), result, tickets))
        self.batches += 1
        self.queries_issued += len(issued)
        dep.advance(dep.config.query_reply_window)
        answered: List[ServiceTicket] = []
        for (attr, blo, bhi), result, tickets in issued:
            entry = self.cache.put(
                attr, blo, bhi, epoch, result.readings, stored_at=dep.now
            )
            self.coalesced += len(tickets) - 1
            for ticket in tickets:
                self._answer(ticket, entry, cache_hit=False)
                answered.append(ticket)
        served = {id(t) for t in answered}
        self._queue = [t for t in self._queue if id(t) not in served]
        return answered

    def _answer(
        self, ticket: ServiceTicket, entry: CacheEntry, cache_hit: bool
    ) -> None:
        now = self.deployment.now
        ticket.readings = [
            r for r in entry.readings if ticket.lo <= r[0] <= ticket.hi
        ]
        ticket.status = "ok"
        ticket.cache_hit = cache_hit
        ticket.latency_s = max(0.0, now - ticket.arrival)
        ticket.staleness_s = max(0.0, now - entry.stored_at)
        ticket.epoch = entry.epoch
        self.served += 1
        if cache_hit:
            self.cache_hits += 1
        self.latencies.add(ticket.latency_s)
        self.staleness.add(ticket.staleness_s)
        self.epochs_seen.add(entry.epoch)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """The serving scorecard, JSON-ready (string keys, float values)
        — what ``TrialMetrics.service`` carries for E16 trials."""
        served = self.served
        return {
            "requests_offered": float(self.offered),
            "requests_served": float(served),
            "requests_shed": float(self.shed),
            "shed_rate": self.shed / self.offered if self.offered else 0.0,
            "cache_hits": float(self.cache_hits),
            "cache_hit_rate": self.cache_hits / served if served else 0.0,
            "queries_issued": float(self.queries_issued),
            "coalesced": float(self.coalesced),
            "batches": float(self.batches),
            "backlog": float(len(self._queue)),
            "latency_mean_s": self.latencies.mean(),
            "latency_p50_s": self.latencies.percentile(0.50),
            "latency_p95_s": self.latencies.percentile(0.95),
            "latency_p99_s": self.latencies.percentile(0.99),
            "staleness_mean_s": self.staleness.mean(),
            "staleness_p95_s": self.staleness.percentile(0.95),
            "epochs_seen": float(len(self.epochs_seen)),
        }


class QueryGateway:
    """Asyncio front: one resident deployment per tenant, one worker
    task per tenant batching its queue, futures bridging client
    coroutines to batch completions."""

    def __init__(
        self,
        services: Dict[str, TenantService],
        batch_delay: float = 0.02,
    ):
        if not services:
            raise ValueError("gateway needs at least one tenant service")
        self._services = dict(services)
        #: wall-clock coalescing delay before a worker drains its queue
        #: (0 = process as soon as woken; tests use 0 for determinism).
        self.batch_delay = batch_delay
        self._events: Dict[str, asyncio.Event] = {}
        self._futures: Dict[str, Dict[int, asyncio.Future]] = {
            name: {} for name in self._services
        }
        self._workers: List[asyncio.Task] = []
        self._closed = False
        #: readiness barrier (shares the ShardedGateway duck type). The
        #: in-process gateway boots its deployments in ``from_spec``, so
        #: ``start()`` flips it immediately.
        self.ready = asyncio.Event()
        self._metrics_tick = 0

    @classmethod
    def from_spec(
        cls,
        spec: ExperimentSpec,
        tenants: int = 1,
        base_seed: Optional[int] = None,
        batch_delay: float = 0.02,
        progress=None,
    ) -> "QueryGateway":
        """Boot ``tenants`` resident deployments of ``spec`` (seeds
        ``base_seed, base_seed+1, ...``) and wrap each in a tenant
        service. Booting runs each deployment's warm-up to completion,
        so construction takes real time — ``progress`` (a callable
        taking the tenant name) reports each one coming up."""
        from repro.service.deployment import Deployment

        if tenants < 1:
            raise ValueError(f"need at least one tenant, got {tenants}")
        seed0 = spec.seed if base_seed is None else base_seed
        services: Dict[str, TenantService] = {}
        for i in range(tenants):
            name = f"tenant{i}"
            dep = Deployment.create(dataclasses.replace(spec, seed=seed0 + i))
            dep.boot()
            dep.stabilize()
            services[name] = TenantService(name, dep)
            if progress is not None:
                progress(name)
        return cls(services, batch_delay=batch_delay)

    @property
    def tenants(self) -> List[str]:
        return sorted(self._services)

    @property
    def workers(self) -> int:
        """Worker-process count — 1 by definition for in-process mode."""
        return 1

    def service(self, tenant: str) -> TenantService:
        try:
            return self._services[tenant]
        except KeyError:
            raise ValueError(
                f"unknown tenant {tenant!r}; one of {self.tenants}"
            ) from None

    async def start(self) -> None:
        """Spawn one worker task per tenant."""
        for name in self._services:
            self._events[name] = asyncio.Event()
            self._workers.append(
                asyncio.create_task(self._worker(name), name=f"gateway-{name}")
            )
        self.ready.set()

    async def _worker(self, name: str) -> None:
        service = self._services[name]
        event = self._events[name]
        futures = self._futures[name]
        while not self._closed:
            await event.wait()
            event.clear()
            if self._closed:
                return
            if self.batch_delay > 0:
                # Let concurrently arriving requests join this batch.
                await asyncio.sleep(self.batch_delay)
            for ticket in service.process_batch():
                future = futures.pop(ticket.seq, None)
                if future is not None and not future.done():
                    future.set_result(ticket)
            if service.backlog:
                # More queued than one batch's capacity: keep draining.
                event.set()

    async def query(
        self,
        tenant: str,
        attr: int = 0,
        lo: Optional[int] = None,
        hi: Optional[int] = None,
    ) -> ServiceTicket:
        """Submit one request and await its ticket (immediately for
        cache hits and sheds, after a batch window otherwise)."""
        if self._closed:
            raise RuntimeError("gateway is closed")
        service = self.service(tenant)
        ticket = service.submit(attr, lo, hi)
        if ticket.status != "pending":
            return ticket
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._futures[tenant][ticket.seq] = future
        self._events[tenant].set()
        return await future

    async def answer(self, request: QueryRequest) -> QueryAnswer:
        """The public typed entry point (shares the ShardedGateway duck
        type): one :class:`~repro.service.api.QueryRequest` in, one
        :class:`~repro.service.api.QueryAnswer` out, typed faults for
        everything that is not an answer."""
        try:
            ticket = await self.query(
                request.tenant, request.attr, request.lo, request.hi
            )
        except RuntimeError as exc:
            raise ServiceUnavailableError(str(exc), seq=request.seq) from None
        except ValueError as exc:
            raise MalformedRequestError(str(exc), seq=request.seq) from None
        answer = QueryAnswer.from_ticket(ticket, shard="shard0")
        if answer.seq != request.seq:
            # The connection-scoped seq is what clients correlate on.
            answer = dataclasses.replace(answer, seq=request.seq)
        return answer

    def stats(self) -> Dict[str, Dict[str, float]]:
        return {name: svc.snapshot() for name, svc in self._services.items()}

    async def service_stats(self) -> ServiceStats:
        """Typed stats: every tenant scorecard plus the single-shard
        aggregate (in-process mode is the one-shard special case)."""
        tenants = self.stats()
        return ServiceStats(
            tenants=tenants,
            shards={
                "shard0": aggregate_shard_stats(tenants, worker_pid=os.getpid())
            },
        )

    def metrics_snapshots(self) -> Dict[str, Dict[str, object]]:
        """Live telemetry in the per-shard shape the metrics stream
        pushes (one synthetic ``shard0`` for in-process mode)."""
        self._metrics_tick += 1
        tenants = self.stats()
        return {
            "shard0": {
                "tick": self._metrics_tick,
                "stats": aggregate_shard_stats(tenants, worker_pid=os.getpid()),
                "tenants": tenants,
            }
        }

    async def close(self) -> None:
        self._closed = True
        for event in self._events.values():
            event.set()
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        for futures in self._futures.values():
            for future in futures.values():
                if not future.done():
                    future.cancel()
            futures.clear()


async def serve_gateway(
    gateway: QueryGateway, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Expose a gateway over TCP as the *deprecated* JSON-lines protocol.

    One request object per line; responses are one JSON object per line,
    byte-identical to the PR-7 wire format (pinned by a golden-bytes
    test). The transport is now just a codec
    (:func:`repro.service.api.encode_jsonl_answer` et al.) over the same
    typed :class:`~repro.service.api.QueryRequest` /
    :class:`~repro.service.api.QueryAnswer` the framed protocol speaks —
    new clients should use :class:`~repro.service.client.ScoopClient`
    against :class:`~repro.service.server.ScoopServer` instead.

    Ops: ``{"op": "query", "tenant": ..., "attr": 0, "lo": ..., "hi": ...}``
    (tenant defaults to ``tenant0``), ``{"op": "stats"}``,
    ``{"op": "ping"}``. Malformed requests get ``{"status": "error"}``
    with a message — the connection stays open.
    """

    async def handle(reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            try:
                op, request = decode_jsonl_request(line)
                if op == "ping":
                    payload = (
                        json.dumps(
                            {
                                "status": "ok",
                                "op": "ping",
                                "tenants": gateway.tenants,
                            }
                        )
                        + "\n"
                    ).encode("utf-8")
                elif op == "stats":
                    payload = (
                        json.dumps({"status": "ok", "stats": gateway.stats()})
                        + "\n"
                    ).encode("utf-8")
                else:
                    # The legacy protocol reports the tenant-scoped seq,
                    # so answers go through the ticket, not answer().
                    ticket = await gateway.query(
                        request.tenant, request.attr, request.lo, request.hi
                    )
                    payload = encode_jsonl_answer(
                        QueryAnswer.from_ticket(ticket, shard="shard0")
                    )
            except (
                MalformedRequestError,
                ValueError,
                TypeError,
                KeyError,
            ) as exc:
                payload = encode_jsonl_error(str(exc))
            writer.write(payload)
            await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, host, port)
