"""Soak: a resident tenant's serving telemetry stays bounded.

Replays 200k hot requests through one :class:`TenantService` on the E16
deployment that ``serve query_service`` boots: each request picks one of
6 fixed hot ranges in a seeded order, and is served the way a shard
worker serves it (``submit``, then ``process_batch`` until the backlog
drains). After warm-up nearly every answer is a cache hit.

Two structural checks, no timing thresholds (the verdict is the same on
any machine):

* the latency and staleness tallies hold exactly as many distinct
  entries after 100% of the run as after 10% of it — the telemetry
  grows with how often the simulated clock advances, not with the
  request count;
* the final scorecard equals one computed from per-request sample
  lists, the representation the tallies replaced (kept here only as
  the oracle, with its own nearest-rank percentile). Its means add the
  samples in arrival order, as Python's float ``sum`` did before 3.12.
"""

import math
import random
from typing import Dict, List, Tuple

from repro.experiments.scenarios import query_service
from repro.service.deployment import Deployment
from repro.service.gateway import TenantService

REQUESTS = 200_000
SEED = 1
HOT_RANGES = 6
HOT_WIDTH_PCT = 6


def hot_ranges(lo: int, hi: int) -> List[Tuple[int, int]]:
    """6 fixed ranges, each 6% of the domain, spread evenly across it."""
    width = max(1, (hi - lo + 1) * HOT_WIDTH_PCT // 100)
    step = (hi - lo - width) // (HOT_RANGES - 1)
    return [(lo + k * step, lo + k * step + width) for k in range(HOT_RANGES)]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile over the raw samples."""
    if not values:
        return 0.0
    return sorted(values)[max(1, math.ceil(q * len(values))) - 1]


def arrival_order_mean(values: List[float]) -> float:
    total = 0.0
    for value in values:
        total += value
    return total / len(values) if values else 0.0


def list_scorecard(
    service: TenantService, latencies: List[float], staleness: List[float]
) -> Dict[str, float]:
    snap = service.snapshot()
    snap.update(
        latency_mean_s=arrival_order_mean(latencies),
        latency_p50_s=percentile(latencies, 0.50),
        latency_p95_s=percentile(latencies, 0.95),
        latency_p99_s=percentile(latencies, 0.99),
        staleness_mean_s=arrival_order_mean(staleness),
        staleness_p95_s=percentile(staleness, 0.95),
    )
    return snap


def distinct(service: TenantService) -> Tuple[int, int]:
    return service.latencies.distinct, service.staleness.distinct


def test_hot_soak_telemetry_stays_flat_and_exact():
    spec = query_service(seed=1)[0][1][0]
    dep = Deployment.create(spec)
    dep.boot()
    dep.stabilize()
    service = TenantService("tenant0", dep)
    domain = spec.scoop.domain
    hot = hot_ranges(domain.lo, domain.hi)
    rng = random.Random(f"service-soak/{SEED}")
    latencies: List[float] = []
    staleness: List[float] = []
    tenth = REQUESTS // 10
    at_tenth = (0, 0)
    for i in range(1, REQUESTS + 1):
        lo, hi = hot[rng.randrange(HOT_RANGES)]
        ticket = service.submit(0, lo, hi)
        while service.backlog:
            service.process_batch()
        assert ticket.status == "ok", (i, ticket.status)
        latencies.append(ticket.latency_s)
        staleness.append(ticket.staleness_s)
        if i == tenth:
            at_tenth = distinct(service)

    assert distinct(service) == at_tenth, "telemetry grew after 10% of the run"
    assert service.snapshot() == list_scorecard(service, latencies, staleness)
