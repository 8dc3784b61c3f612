"""Workload ``serve-hot``: cached range queries served over the framed
socket protocol, in a closed loop.

The system under test (``sut.py``: :class:`~repro.service.ShardedGateway`
with 2 tenants on 2 shard workers behind :func:`~repro.service.serve_framed`)
runs in its own process. This process is the single load generator: one
:class:`~repro.service.AsyncScoopClient` connection per tenant (never
more connections than CPUs), all on one event loop. Each tenant's
connection sends its next request when the previous answer arrives,
picking one of 6 hot ranges in a seeded order, so after warm-up nearly
every answer is a cache hit and the simulator barely moves: the run
isolates the serving stack.

Each run launches the server several times: the median time from launch
to the readiness-gated WELCOME is ``setup_s``, every launch first replays
the same program prefix, whose per-tenant answer digests must agree, and
the last launch carries on into the measured phase.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from util import median, metric, peak_rss_mb, percentile, tenth

TENANTS = 2
WORKERS = 2
#: Server launches per untraced run; the last one is measured.
LAUNCHES = 3
#: Requests per tenant replayed on every launch and digest-compared; on
#: the measured launch they are the warm-up.
PREFIX = 200
HOT_RANGES = 6
HOT_WIDTH_PCT = 6

Request = Tuple[int, int, int]  # (attr, lo, hi)


def service_spec():
    """The E16 serving deployment (24 nodes, SCOOP) that ``serve
    query_service`` boots by default; tenant ``i`` runs it at seed
    ``1 + i``. The deployment is fixed, so runs of different workload
    seeds serve the same networks and differ in their requests."""
    from repro.experiments.scenarios import query_service

    return query_service(seed=1)[0][1][0]


def hot_program(seed: int, tenant: int, domain: Tuple[int, int]) -> Iterator[Request]:
    """Endless requests, each picking one of 6 hot ranges at random. The
    ranges are fixed (each 6% of the domain, spread evenly across it) so
    every seed asks for the same answer sizes; the seed draws the order."""
    rng = random.Random(f"serve-hot/{seed}/{tenant}")
    dlo, dhi = domain
    width = max(1, (dhi - dlo + 1) * HOT_WIDTH_PCT // 100)
    step = (dhi - dlo - width) // (HOT_RANGES - 1)
    hot = [(0, dlo + k * step, dlo + k * step + width) for k in range(HOT_RANGES)]
    while True:
        yield hot[rng.randrange(HOT_RANGES)]


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """One launch of ``sut.py``; reaped (with its workers) on close."""

    def __init__(self, spec_dict: dict):
        self.spec_dict = spec_dict
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.launched = 0.0

    def launch(self) -> None:
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "sut.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        config = {"spec": self.spec_dict, "tenants": TENANTS, "workers": WORKERS}
        self.proc.stdin.write(json.dumps(config) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited during launch ({self.proc.wait()})")
        self.port = int(json.loads(line)["port"])

    def close(self, worker_pids: List[int]) -> List[str]:
        """Stop the server; returns problems with the teardown."""
        problems = []
        proc = self.proc
        if proc is None:
            return problems
        try:
            proc.stdin.close()
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            problems.append("server did not stop when asked")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0:
            problems.append(f"server exited with {proc.returncode}")
        for pid in worker_pids:
            if Path(f"/proc/{pid}").exists():
                problems.append(f"shard worker {pid} outlived the server")
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        return problems


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What the load generator saw, per request and per tenant."""

    #: (sent, done, cache_hit) of every answered request.
    answered: List[Tuple[float, float, bool]] = field(default_factory=list)
    sent: int = 0
    shed: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: the requests each tenant was sent, in order (for the replay).
    history: List[List[Request]] = field(default_factory=lambda: [[] for _ in range(TENANTS)])
    digests: List["hashlib._Hash"] = field(
        default_factory=lambda: [hashlib.sha256() for _ in range(TENANTS)]
    )

    def record(self, tenant: int, request: Request, answer) -> None:
        """Check one answer and fold it into its tenant's digest."""
        attr, lo, hi = request
        if (answer.attr, answer.lo, answer.hi) != (attr, lo, hi):
            self.errors.append(f"answer for {answer.lo}..{answer.hi} to {request}")
        for value, _t, _node in answer.readings:
            if not lo <= value <= hi:
                self.errors.append(f"reading {value} outside [{lo}, {hi}]")
                break
        fold(self.digests[tenant], len(self.history[tenant]) - 1, answer)


def fold(digest, index: int, answer) -> None:
    """Add one answer to a transcript digest. The connection-scoped seq
    is replaced by the answer's index in its tenant's stream, and the
    placement-dependent ``shard`` is left out."""
    body = dict(answer.to_jsonl_dict(), seq=index)
    digest.update(json.dumps(body, sort_keys=True, separators=(",", ":")).encode())
    digest.update(b"\n")


async def sequential(client, outcome: Outcome, tenant: int, program, count=None, deadline=None):
    """Closed loop for one tenant: ``count`` requests or until ``deadline``."""
    from repro.service import ServiceFault, ShedError

    n = 0
    while (count is None or n < count) and (
        deadline is None or time.perf_counter() < deadline
    ):
        attr, lo, hi = request = next(program)
        n += 1
        outcome.sent += 1
        outcome.history[tenant].append(request)
        sent = time.perf_counter()
        try:
            answer = await client.query(tenant=f"tenant{tenant}", attr=attr, lo=lo, hi=hi)
        except ShedError:
            outcome.shed += 1
            continue
        except ServiceFault as exc:
            outcome.failed += 1
            outcome.errors.append(f"tenant{tenant}: {exc.code}: {exc}")
            continue
        outcome.answered.append((sent, time.perf_counter(), answer.cache_hit))
        outcome.record(tenant, request, answer)


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
@dataclass
class Run:
    """What one run measured: set-up of every launch, the rest on the
    last (measured) launch."""

    spec: object
    setups: List[float] = field(default_factory=list)
    outcome: Optional[Outcome] = None
    window: float = 0.0
    #: peak RSS of the server plus its workers, and of each worker
    peak_rss: float = 0.0
    worker_rss: List[float] = field(default_factory=list)
    stats: object = None
    errors: List[str] = field(default_factory=list)


async def drive(seed: int, seconds: float, launches: int) -> Run:
    from repro.service import AsyncScoopClient

    run = Run(spec=service_spec())
    domain = (run.spec.scoop.domain.lo, run.spec.scoop.domain.hi)
    loop = asyncio.get_running_loop()
    n_conn = min(TENANTS, os.cpu_count() or 1)
    prefix_digests = []
    for launch in range(launches):
        measured = launch == launches - 1
        server = Server(run.spec.to_dict())
        clients = []
        worker_pids: List[int] = []
        try:
            await loop.run_in_executor(None, server.launch)
            for i in range(n_conn):
                client = AsyncScoopClient("127.0.0.1", server.port, name=f"bench-{i}")
                clients.append(client)
                await client.connect()
                if i == 0:
                    run.setups.append(time.perf_counter() - server.launched)
            conn = [clients[t % n_conn] for t in range(TENANTS)]
            progs = [hot_program(seed, t, domain) for t in range(TENANTS)]
            outcome = Outcome()
            await asyncio.gather(
                *(sequential(conn[t], outcome, t, progs[t], count=PREFIX) for t in range(TENANTS))
            )
            prefix_digests.append([d.hexdigest() for d in outcome.digests])
            run.errors.extend(outcome.errors)
            if measured:
                # The prefix was warm-up: the measured outcome keeps its
                # history and digests but none of its counts.
                outcome = Outcome(history=outcome.history, digests=outcome.digests)
                started = time.perf_counter()
                deadline = started + seconds
                await asyncio.gather(
                    *(
                        sequential(conn[t], outcome, t, progs[t], deadline=deadline)
                        for t in range(TENANTS)
                    )
                )
                run.window = time.perf_counter() - started
                run.outcome = outcome
                run.errors.extend(outcome.errors)
                if len(outcome.answered) + outcome.shed + outcome.failed != outcome.sent:
                    run.errors.append("ok + shed + failed != sent")
            stats = await clients[0].stats()
            if stats.protocol.get("protocol_errors", 0.0):
                run.errors.append(f"{stats.protocol['protocol_errors']:.0f} protocol errors")
            worker_pids = [int(s["worker_pid"]) for s in stats.shards.values()]
            if measured:
                run.stats = stats
                run.worker_rss = [peak_rss_mb(pid) for pid in worker_pids]
                run.peak_rss = peak_rss_mb(server.proc.pid) + sum(run.worker_rss)
        finally:
            for client in clients:
                await client.aclose()
            run.errors.extend(await loop.run_in_executor(None, server.close, worker_pids))
    if any(d != prefix_digests[0] for d in prefix_digests):
        run.errors.append("answer digests differ between launches of one seed")
    return run


def run(seed: int, seconds: float):
    result = asyncio.run(drive(seed, seconds, LAUNCHES))
    outcome = result.outcome
    lat_ms = [1000.0 * (done - sent) for sent, done, _hit in outcome.answered]
    metrics = {
        "setup_s": metric(median(result.setups), "s"),
        "peak_rss_mb": metric(result.peak_rss, "MB"),
        "ops_per_s": metric(len(lat_ms) / result.window, "1/s"),
        "lat_p50_ms": metric(median(lat_ms), "ms"),
        "lat_p99_ms": metric(percentile(lat_ms, 0.99), "ms"),
        "ok_frac": metric(len(lat_ms) / outcome.sent, "frac"),
    }
    failed = outcome.shed + outcome.failed
    return not result.errors, outcome.sent, failed, metrics, result.errors


# ----------------------------------------------------------------------
# The traced run: the live run's client-side split, then an in-process
# replay of the same per-tenant streams through the worker's serving core
# ----------------------------------------------------------------------
def replay(spec, histories: List[List[Request]], tracer=None) -> dict:
    """Replay each tenant's request stream in this process, on a fresh
    deployment, doing per request what a shard worker does:
    ``TenantService.submit``, drain the backlog with ``process_batch``,
    build the answer, and fold the tenant's scorecard with ``snapshot``
    (timed on a sample of replies: its cost grows with every answer
    served). The protocol codec — the client encoding the request, the
    server decoding it, and back for the answer — is timed around each
    request as well."""
    import contextlib
    import dataclasses

    from repro.experiments.runner import build_topology
    from repro.service.api import QueryAnswer, QueryRequest, aggregate_shard_stats
    from repro.service.deployment import Deployment
    from repro.service.gateway import TenantService
    from repro.service.protocol import FrameDecoder, request_frame, response_frame
    from tracing import add_sim_counts

    span = tracer.span if tracer is not None else (lambda _n: contextlib.nullcontext())
    perf = time.perf_counter
    out = {
        "digests": [],
        "counts": {},
        "violations": 0,
        "messages": 0,
        "events": 0,
        "submit_hit": [],
        "submit": [],
        "batch": [],
        "codec": [],
        "snapshot": [],
    }
    started = perf()
    for index, history in enumerate(histories):
        tenant = f"tenant{index}"
        tspec = dataclasses.replace(spec, seed=spec.seed + index)
        digest = hashlib.sha256()
        snapshots: List[float] = []
        every = max(1, len(history) // 400)
        with span("topology.build"):
            topology = build_topology(tspec)
        with span("deployment.create"):
            dep = Deployment.create(tspec, topology=topology)
        with span("deployment.boot_stabilize"):
            dep.boot()
            dep.stabilize()
        service = TenantService(tenant, dep)
        with span("deployment.measure"):
            for seq, (attr, lo, hi) in enumerate(history, start=1):
                t0 = perf()
                wire = request_frame(QueryRequest(tenant, attr, lo, hi, seq=seq))
                request = QueryRequest.from_wire(FrameDecoder().feed(wire)[0].payload)
                t1 = perf()
                with span("gateway.submit"):
                    ticket = service.submit(request.attr, request.lo, request.hi)
                t2 = perf()
                out["submit"].append(t2 - t1)
                if ticket.cache_hit:
                    out["submit_hit"].append(t2 - t1)
                while service.backlog:
                    t3 = perf()
                    with span("gateway.process_batch"):
                        service.process_batch()
                    out["batch"].append(perf() - t3)
                t4 = perf()
                answer = QueryAnswer.from_ticket(ticket, shard=f"shard{index}")
                wire = response_frame(answer)
                answer = QueryAnswer.from_wire(FrameDecoder().feed(wire)[0].payload)
                out["codec"].append(t1 - t0 + perf() - t4)
                fold(digest, seq - 1, answer)
                if seq % every == 0:
                    t5 = perf()
                    with span("gateway.snapshot"):
                        aggregate_shard_stats({tenant: service.snapshot()})
                    snapshots.append(perf() - t5)
        with span("deployment.drain"):
            dep.drain()
        with span("deployment.collect"):
            result = dep.collect()
        out["violations"] += int(result.metrics.oracle.get("precision_violations", 0))
        out["messages"] += result.total_messages
        out["events"] += result.metrics.timing["events_processed"]
        out["digests"].append(digest.hexdigest())
        add_sim_counts(out["counts"], dep)
        out["snapshot"].append(snapshots)
    out["wall_s"] = perf() - started
    return out


def _median_or_zero(values: List[float], scale: float) -> float:
    return scale * median(values) if values else 0.0


def run_traced(seed: int, seconds: float):
    from tracing import layer_metrics, layer_tracer, phase_metrics

    live = asyncio.run(drive(seed, seconds, 1))
    outcome = live.outcome
    errors = list(live.errors)
    plain = replay(live.spec, outcome.history)
    tracer = layer_tracer()
    tracer.sample("deployment.advance")
    with tracer:
        traced = replay(live.spec, outcome.history, tracer)
    if traced["violations"]:
        errors.append("replayed deployments returned readings the oracle never produced")
    if plain["digests"] != traced["digests"]:
        errors.append("tracing changed the replayed answers")
    if traced["digests"] != [d.hexdigest() for d in outcome.digests]:
        # One sequential stream per tenant and one tenant per shard: the
        # worker answered the requests one by one, exactly as replayed.
        errors.append("in-process replay answers differ from the served answers")

    tenants = live.stats.tenants.values()
    protocol = live.stats.protocol
    served = sum(t["requests_served"] for t in tenants)
    hits = [1000.0 * (done - sent) for sent, done, hit in outcome.answered if hit]
    misses = [1000.0 * (done - sent) for sent, done, hit in outcome.answered if not hit]
    snaps = traced["snapshot"]
    first = [x for s in snaps for x in tenth(s, last=False)]
    last = [x for s in snaps for x in tenth(s, last=True)]
    worker_hit_ms = _median_or_zero(traced["submit_hit"], 1000.0) + _median_or_zero(
        [x for s in snaps for x in s], 1000.0
    )
    values = dict(layer_metrics(tracer, traced["counts"], per=1.0))
    values.update(phase_metrics(tracer, per=1.0))
    values.update(
        {
            "deployment.advance_ms": (
                _median_or_zero(tracer.samples["deployment.advance"], 1000.0),
                "ms",
            ),
            "gateway.submit_us": (_median_or_zero(traced["submit"], 1e6), "us"),
            "gateway.process_batch_ms": (_median_or_zero(traced["batch"], 1000.0), "ms"),
            "gateway.snapshot_ms_first": (_median_or_zero(first, 1000.0), "ms"),
            "gateway.snapshot_ms_last": (_median_or_zero(last, 1000.0), "ms"),
            "gateway.cache_hit_rate": (
                sum(t["cache_hits"] for t in tenants) / served if served else 0.0,
                "frac",
            ),
            "gateway.batches": (sum(t["batches"] for t in tenants), "count"),
            "gateway.coalesced": (sum(t["coalesced"] for t in tenants), "count"),
            "gateway.shed": (sum(t["requests_shed"] for t in tenants), "count"),
            "protocol.codec_us": (_median_or_zero(traced["codec"], 1e6), "us"),
            "client.hit_p50_ms_first": (_median_or_zero(tenth(hits, last=False), 1.0), "ms"),
            "client.hit_p50_ms_last": (_median_or_zero(tenth(hits, last=True), 1.0), "ms"),
            "client.miss_p50_ms": (_median_or_zero(misses, 1.0), "ms"),
            "transport.hit_ms": (
                _median_or_zero(hits, 1.0) - worker_hit_ms if hits else 0.0,
                "ms",
            ),
            "server.frames_in": (protocol.get("frames_in", 0.0), "count"),
            "server.sheds_socket": (protocol.get("sheds_socket", 0.0), "count"),
            "shard.worker_rss_mb": (sum(live.worker_rss) / len(live.worker_rss), "MB"),
            "trace.wall_s": (traced["wall_s"], "s"),
            "trace.overhead_frac": (traced["wall_s"] / plain["wall_s"] - 1.0, "frac"),
            "trajectory.messages": (float(traced["messages"]), "count"),
            "trajectory.events": (float(traced["events"]), "count"),
        }
    )
    metrics = {name: metric(v, unit) for name, (v, unit) in values.items()}
    failed = outcome.shed + outcome.failed
    return not errors, outcome.sent, failed, metrics, errors
