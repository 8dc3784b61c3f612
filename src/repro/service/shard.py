"""Sharded serving: tenants placed across a supervised pool of workers.

PR 7's gateway kept every tenant in one Python process; one busy tenant
starved the rest of the interpreter. :class:`ShardedGateway` places
tenants round-robin onto ``workers`` long-lived worker processes — the
same deterministic-seed and spec-serialization machinery the campaign
pool uses (specs cross the process boundary as
:meth:`ExperimentSpec.to_dict` payloads, plug-in policies re-register in
each worker) — so tenant deployments boot and serve concurrently.

Each worker owns its tenants outright: their resident deployments and
:class:`~repro.service.gateway.TenantService` state never leave the
process, and a tenant's trajectory depends only on its own ordered
request stream. That is the sharding invariant the determinism tests
pin: for a fixed client program, per-tenant answers are identical at
``--workers 1`` and ``--workers 4`` (when no faults are injected).

The parent ↔ worker protocol is deliberately lockstep (one command in
flight per shard, over one :func:`multiprocessing.Pipe`): the parent
pump task batches concurrently arriving requests per shard, ships one
``batch`` command, and awaits the answers — so worker replies can never
interleave and the pipe needs no framing of its own. Shards are
independent; concurrency comes from running one pump per shard. Replies
are read on the event loop itself (the pipe's fd is watched with
``loop.add_reader``), so a served request costs no executor-thread hop.
Every reply carries the shard scorecard, folded from per-tenant
snapshots whose telemetry is exact value → count tallies (see
:class:`~repro.service.gateway.SampleTally`): refreshing it costs the
same on the millionth request as on the first.

Workers announce ``ready`` after their deployments finish boot +
stabilization; :attr:`ShardedGateway.ready` gates the server's HELLO
handshake so first queries can never race warmup.

Supervision
-----------

Each shard is driven by a supervisor task walking this state machine::

    booting ──► ready ──► restarting ──► ready        (respawn succeeded)
       │          │            │
       │          │            └──► replaced          (budget exhausted,
       │          │                                    tenants adopted by
       │          │                                    surviving shards)
       └──────────┴───────────────► failed            (deterministic boot
                                                       error, or nowhere
                                                       left to re-place)

Worker death is detected three ways: pipe EOF mid-exchange, a ``fatal``
reply, and a periodic liveness probe on ``process.is_alive()`` (which
catches a worker dying while its pump is idle). On death the supervisor
fails every in-flight and queued request with the *retryable*
:class:`~repro.service.api.ShardRestartingError` (wire code ``retry``,
honored by the clients' capped retry policy), respawns the worker with
bounded exponential backoff (:class:`BackoffPolicy`), and re-creates its
tenants from the stored spec payloads via the same deterministic seed
ladder. When the respawn budget runs out, the dead shard's tenants are
*re-placed*: surviving workers ``adopt`` them (booting fresh deployments
from the same specs) and the routing table flips — the service degrades
instead of dying. Per-shard ``restarts`` / ``replacements`` /
``last_exit`` counters surface in ``ServiceStats.shards`` and the
METRICS push.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.service.api import (
    MalformedRequestError,
    QueryAnswer,
    QueryRequest,
    ServiceError,
    ServiceFault,
    ServiceStats,
    ServiceUnavailableError,
    ShardRestartingError,
    aggregate_shard_stats,
    error_to_exception,
)

#: Start method for shard workers. ``spawn`` everywhere: identical
#: behavior across platforms and safe regardless of parent threads
#: (the asyncio server runs executor threads; forking those is UB).
_START_METHOD = "spawn"

#: How often (seconds) the liveness watcher polls ``process.is_alive()``
#: — the detector for workers that die while their pump is idle.
LIVENESS_INTERVAL = 0.25

# Shard lifecycle states (see the module docstring's state machine).
BOOTING = "booting"
READY = "ready"
RESTARTING = "restarting"
REPLACING = "replacing"
REPLACED = "replaced"
FAILED = "failed"

#: States in which a shard accepts new requests onto its queue.
_SERVING_STATES = (READY,)
#: Transient states: requests fail with the retryable ``retry`` code.
_RETRYABLE_STATES = (RESTARTING, REPLACING)
#: Terminal states: the shard will never serve again.
_TERMINAL_STATES = (REPLACED, FAILED)


@dataclass(frozen=True)
class BackoffPolicy:
    """Bounded exponential backoff for worker respawns.

    ``delay(attempt)`` is ``min(cap_s, base_s * 2**attempt)`` for the
    0-based respawn attempt; ``budget`` is how many respawns a shard is
    granted before its tenants are re-placed. Pure math — the fake-clock
    unit tests drive it directly.
    """

    base_s: float = 0.25
    cap_s: float = 5.0
    budget: int = 3

    def __post_init__(self) -> None:
        if self.base_s < 0 or self.cap_s < 0:
            raise ValueError(f"backoff delays must be >= 0, got {self}")
        if self.budget < 0:
            raise ValueError(f"respawn budget must be >= 0, got {self.budget}")

    def delay(self, attempt: int) -> float:
        """Seconds to wait before 0-based respawn ``attempt``."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        return min(self.cap_s, self.base_s * (2.0**attempt))

    def delays(self) -> List[float]:
        """The full delay schedule, one entry per budgeted respawn."""
        return [self.delay(i) for i in range(self.budget)]


def shard_name(index: int) -> str:
    return f"shard{index}"


def plan_placement(
    tenants: Sequence[str], workers: int
) -> List[List[str]]:
    """Round-robin tenant → shard placement (shard i hosts tenants
    i, i+W, i+2W, ...). Deterministic in the tenant order alone, so a
    fixed tenant list always yields the same placement."""
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    assignments: List[List[str]] = [[] for _ in range(min(workers, len(tenants)))]
    for i, tenant in enumerate(tenants):
        assignments[i % len(assignments)].append(tenant)
    return assignments


def plan_replacement(
    tenants: Sequence[str], survivors: Sequence[str]
) -> Dict[str, List[str]]:
    """Round-robin a dead shard's tenants over the surviving shards.

    Deterministic in the (ordered) tenant and survivor lists, mirroring
    :func:`plan_placement`. Returns ``{survivor: [tenant, ...]}`` with
    only non-empty assignments.
    """
    if not survivors:
        raise ValueError("no surviving shards to re-place onto")
    plan: Dict[str, List[str]] = {}
    for i, tenant in enumerate(tenants):
        plan.setdefault(survivors[i % len(survivors)], []).append(tenant)
    return plan


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _boot_tenants(
    tenant_payloads: Sequence[Tuple[str, Dict[str, object]]],
):
    """Boot + stabilize one deployment per payload; returns the
    ``{tenant: TenantService}`` dict (shared by initial boot and
    re-placement adoption)."""
    from repro.experiments.runner import ExperimentSpec
    from repro.service.deployment import Deployment
    from repro.service.gateway import TenantService

    services = {}
    for tenant, spec_dict in tenant_payloads:
        spec = ExperimentSpec.from_dict(spec_dict)
        deployment = Deployment.create(spec)
        deployment.boot()
        deployment.stabilize()
        services[tenant] = TenantService(tenant, deployment)
    return services


def _shard_worker_main(
    conn,
    shard: str,
    tenant_payloads: List[Tuple[str, Dict[str, object]]],
    plugins: Dict[str, object],
) -> None:
    """One shard worker: boot the assigned tenants, announce readiness,
    then serve lockstep commands until ``close``.

    Commands (parent → worker):
      ``("batch", [(req_id, tenant, attr, lo, hi), ...])`` →
      ``("answers", [(req_id, kind, payload)], shard_stats)`` with
      ``kind`` of ``ok``/``shed`` (payload = answer wire dict) or
      ``error`` (payload = (code, message));
      ``("stats",)`` → ``("stats", {tenant: scorecard}, shard_stats)``;
      ``("adopt", [(tenant, spec_dict), ...])`` → boot the re-placed
      tenants and reply
      ``("adopted", [tenant, ...], {tenant: scorecard}, shard_stats)``
      (``("adopt_error", message)`` on a boot failure — the worker
      survives, only the adoption fails);
      ``("close",)`` → worker exits.

    Any exception outside per-request handling is reported as
    ``("fatal", repr)`` before the worker dies — the parent converts
    in-flight requests into the retryable
    :class:`~repro.service.api.ShardRestartingError` and respawns.
    """
    try:
        from repro.experiments import registry

        # Same plug-in re-registration as the campaign pool's workers:
        # under spawn the child registry holds only the built-ins.
        for name, factory in plugins.items():
            if not registry.is_registered(name):
                registry.register_policy(name, factory)

        services = _boot_tenants(tenant_payloads)
    except BaseException as exc:  # noqa: BLE001 — reported to the parent
        try:
            conn.send(("boot_error", shard, f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return

    conn.send(("ready", shard, sorted(services), os.getpid()))

    def scorecards() -> Tuple[Dict[str, Dict[str, float]], Dict[str, float]]:
        """Every tenant's scorecard, and the shard scorecard folded from
        those same snapshots (each tenant is snapshotted once)."""
        tenant_stats = {name: svc.snapshot() for name, svc in services.items()}
        return tenant_stats, aggregate_shard_stats(
            tenant_stats, worker_pid=os.getpid()
        )

    try:
        while True:
            command = conn.recv()
            op = command[0]
            if op == "close":
                conn.send(("closed", shard))
                return
            if op == "stats":
                conn.send(("stats", *scorecards()))
                continue
            if op == "adopt":
                try:
                    adopted = _boot_tenants(command[1])
                except Exception as exc:  # noqa: BLE001 — adoption-scoped
                    conn.send(
                        ("adopt_error", f"{type(exc).__name__}: {exc}")
                    )
                    continue
                services.update(adopted)
                conn.send(("adopted", sorted(adopted), *scorecards()))
                continue
            if op != "batch":
                conn.send(("fatal", f"unknown shard command {op!r}"))
                return
            requests = command[1]
            tickets: List[Tuple[int, object]] = []  # (req_id, ticket|fault)
            touched = {}
            for req_id, tenant, attr, lo, hi in requests:
                service = services.get(tenant)
                if service is None:
                    tickets.append(
                        (req_id, ("malformed", f"unknown tenant {tenant!r}"))
                    )
                    continue
                try:
                    ticket = service.submit(attr, lo, hi)
                except ValueError as exc:
                    tickets.append((req_id, ("malformed", str(exc))))
                    continue
                tickets.append((req_id, ticket))
                touched[tenant] = service
            # Drain every touched tenant's backlog: batch capacity may
            # need several windows for a burst.
            for service in touched.values():
                while service.backlog:
                    service.process_batch()
            answers = []
            for req_id, outcome in tickets:
                if isinstance(outcome, tuple):
                    answers.append((req_id, "error", outcome))
                else:
                    answer = QueryAnswer.from_ticket(outcome, shard=shard)
                    answers.append((req_id, answer.status, answer.to_wire()))
            conn.send(("answers", answers, scorecards()[1]))
    except (EOFError, KeyboardInterrupt):
        return
    except BaseException as exc:  # noqa: BLE001 — reported to the parent
        try:
            conn.send(("fatal", f"{type(exc).__name__}: {exc}"))
        except (OSError, ValueError):
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Parent-side gateway
# ----------------------------------------------------------------------
def _wake(future: "asyncio.Future") -> None:
    """``add_reader`` callback: the watched pipe turned readable."""
    if not future.done():
        future.set_result(None)


class _Shard:
    """Parent-side handle of one worker: process, pipe, request queue,
    and the supervision bookkeeping (state, restart counters)."""

    def __init__(self, name: str, tenants: List[str]):
        self.name = name
        self.process = None
        self.conn = None
        self.tenants = list(tenants)
        self.queue: "asyncio.Queue" = asyncio.Queue()
        #: set once the *first* boot concludes (ready or terminal) —
        #: waiters wake and read :attr:`state` for the outcome.
        self.ready = asyncio.Event()
        self.state = BOOTING
        self.failed: Optional[str] = None
        self.supervisor: Optional[asyncio.Task] = None
        #: entries shipped to (or being assembled for) the worker; the
        #: supervisor fails these typed when the worker dies mid-batch.
        self.inflight: List[tuple] = []
        #: latest scorecards off the worker (refreshed by every reply).
        self.stats: Dict[str, float] = {}
        self.tenant_stats: Dict[str, Dict[str, float]] = {}
        self.metrics_tick = 0
        # -- supervision counters (surfaced in ServiceStats.shards) ----
        self.restarts = 0
        self.replacements = 0
        self.last_exit: Optional[int] = None
        self.respawns_used = 0


class ShardedGateway:
    """Tenants sharded across supervised worker processes, one asyncio
    front.

    The duck-type contract shared with the in-process
    :class:`~repro.service.gateway.QueryGateway` (what
    :class:`~repro.service.server.ScoopServer` serves):
    ``tenants`` / ``workers``, ``ready`` (asyncio event),
    ``await answer(request) -> QueryAnswer`` (raising
    :class:`~repro.service.api.ServiceFault` subclasses),
    ``await service_stats() -> ServiceStats``, ``metrics_snapshots()``,
    ``await close()``.
    """

    def __init__(
        self,
        spec,
        tenants: int = 1,
        workers: int = 1,
        base_seed: Optional[int] = None,
        batch_delay: float = 0.0,
        backoff: Optional[BackoffPolicy] = None,
        liveness_interval: float = LIVENESS_INTERVAL,
    ):
        if tenants < 1:
            raise ValueError(f"need at least one tenant, got {tenants}")
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.spec = spec
        self.batch_delay = batch_delay
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.liveness_interval = liveness_interval
        seed0 = spec.seed if base_seed is None else base_seed
        names = [f"tenant{i}" for i in range(tenants)]
        #: tenant -> spec payload (the campaign pool's serialization).
        #: Retained for the worker's whole life: respawn and re-placement
        #: both re-create tenants from these via the same seed ladder.
        self._payloads = {
            name: dataclasses.replace(spec, seed=seed0 + i).to_dict()
            for i, name in enumerate(names)
        }
        self._assignments = plan_placement(names, workers)
        self._shards: Dict[str, _Shard] = {}
        self._shard_of: Dict[str, str] = {}
        self.ready = asyncio.Event()
        self._closed = False
        self._boot_error: Optional[str] = None
        self._plugins: Dict[str, object] = {}
        #: injectable for the fake-clock supervisor tests.
        self._sleep = asyncio.sleep

    # -- lifecycle -----------------------------------------------------
    @property
    def tenants(self) -> List[str]:
        return sorted(self._shard_of)

    @property
    def workers(self) -> int:
        return len(self._assignments)

    def shard_of(self, tenant: str) -> str:
        return self._shard_of[tenant]

    def shard_states(self) -> Dict[str, str]:
        """Current supervision state per shard (diagnostics, tests)."""
        return {name: shard.state for name, shard in self._shards.items()}

    async def start(self) -> None:
        """Spawn the worker pool and the per-shard supervisor tasks.

        Returns immediately — workers boot their deployments in the
        background and report ``ready`` over their pipes;
        :meth:`wait_ready` (or the HELLO handshake) blocks on that.
        """
        from repro.experiments import registry

        self._plugins = registry.plugin_policies()
        for i, tenant_names in enumerate(self._assignments):
            shard = _Shard(shard_name(i), tenant_names)
            self._spawn(shard)
            self._shards[shard.name] = shard
            for tenant in tenant_names:
                self._shard_of[tenant] = shard.name
        for shard in self._shards.values():
            shard.supervisor = asyncio.create_task(
                self._supervise(shard), name=f"supervise-{shard.name}"
            )

    def _spawn(self, shard: _Shard) -> None:
        """(Re)spawn one shard's worker process over a fresh pipe; its
        tenants are re-created from the stored spec payloads."""
        ctx = multiprocessing.get_context(_START_METHOD)
        parent_conn, child_conn = ctx.Pipe()
        payload = [(t, self._payloads[t]) for t in shard.tenants]
        process = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, shard.name, payload, self._plugins),
            name=f"scoop-{shard.name}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        shard.process = process
        shard.conn = parent_conn

    async def wait_ready(self, timeout: Optional[float] = None) -> None:
        """Block until every shard's boot concludes (or one fails).

        Every failure mode surfaces as
        :class:`~repro.service.api.ServiceUnavailableError` — including
        the timeout itself, so callers handle one exception family.
        """
        try:
            await asyncio.wait_for(self.ready.wait(), timeout)
        except asyncio.TimeoutError:
            raise ServiceUnavailableError(
                f"shards not ready within {timeout}s"
            ) from None
        if self._boot_error is not None:
            raise ServiceUnavailableError(self._boot_error)

    async def _recv(self, shard: _Shard):
        """Read one worker reply on the event loop, without a thread hop.

        A reply already waiting is read at once; otherwise the pipe's fd
        is watched with ``add_reader`` until it turns readable. The
        reader is always removed again, cancellation included, so the
        next read on this shard starts clean. Worker death reads as EOF:
        ``recv`` raises ``EOFError`` (``OSError`` once the pipe is
        retired), which the pump turns into a ``died`` outcome.
        """
        conn = shard.conn
        if not conn.poll():
            loop = asyncio.get_running_loop()
            readable = loop.create_future()
            fd = conn.fileno()
            loop.add_reader(fd, _wake, readable)
            try:
                await readable
            finally:
                loop.remove_reader(fd)
        return conn.recv()

    # -- supervision ---------------------------------------------------
    def _maybe_ready(self) -> None:
        """Flip the gateway-level ready event once every shard's boot
        has concluded — successfully or terminally."""
        if all(
            s.state == READY or s.state in _TERMINAL_STATES
            for s in self._shards.values()
        ):
            self.ready.set()

    def _death_exception(self, shard: _Shard) -> ServiceFault:
        """The typed fault a request on ``shard`` fails with right now:
        retryable while the shard is coming back, terminal otherwise."""
        if shard.state in _RETRYABLE_STATES:
            return ShardRestartingError(
                f"{shard.name} is {shard.state}: "
                f"{shard.failed or 'worker died'}; retry shortly"
            )
        return ServiceUnavailableError(
            shard.failed or f"{shard.name} is {shard.state}"
        )

    def _fail_entry(self, entry, exc: ServiceFault) -> None:
        """Settle one queue/in-flight entry with ``exc`` (typed)."""
        if entry is None or entry[0] == "dead":
            return
        future = entry[1]
        if not future.done():
            future.set_exception(exc)

    def _fail_inflight(self, shard: _Shard) -> None:
        for entry in shard.inflight:
            self._fail_entry(entry, self._death_exception(shard))
        shard.inflight = []

    def _drain_queue(self, shard: _Shard) -> None:
        """Fail-fast every request sitting in the shard's queue — a
        queued future must never be left to hang until client timeout."""
        while not shard.queue.empty():
            entry = shard.queue.get_nowait()
            if entry is None:
                self._closed = True
                continue
            self._fail_entry(entry, self._death_exception(shard))

    async def _watch(self, shard: _Shard) -> None:
        """Liveness probe: catches a worker dying while the pump is idle
        (no exchange in flight means no EOF to observe) by waking the
        pump with a ``dead`` sentinel."""
        process = shard.process
        while True:
            await self._sleep(self.liveness_interval)
            if not process.is_alive():
                shard.queue.put_nowait(
                    ("dead", f"worker exited (exitcode {process.exitcode})")
                )
                return

    async def _run_worker(self, shard: _Shard):
        """Drive one worker incarnation: pump plus liveness watcher.

        Returns ``None`` on clean close, ``("boot_error", msg)`` when
        the worker *reported* a boot exception (deterministic — not
        respawned), or ``("died", msg)`` on process death.
        """
        watcher = asyncio.create_task(
            self._watch(shard), name=f"watch-{shard.name}"
        )
        try:
            return await self._pump(shard)
        finally:
            watcher.cancel()
            try:
                await watcher
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass

    async def _supervise(self, shard: _Shard) -> None:
        """One shard's supervisor: run the worker, and on death respawn
        with bounded backoff or re-place the tenants when the respawn
        budget is spent (see the module docstring's state machine)."""
        while True:
            outcome = await self._run_worker(shard)
            if outcome is None or self._closed:
                return
            kind, reason = outcome
            shard.failed = reason
            if kind == "boot_error":
                # The worker itself reported the exception: the spec is
                # broken, every respawn would fail identically.
                self._mark_failed(shard, reason)
                self._boot_error = f"{shard.name} failed to boot: {reason}"
                self.ready.set()  # wake waiters so they can see the failure
                await self._reap(shard)
                return await self._drain_until_closed(shard)
            if shard.respawns_used >= self.backoff.budget:
                await self._replace(shard)
                return await self._drain_until_closed(shard)
            shard.state = RESTARTING
            self._fail_inflight(shard)
            self._drain_queue(shard)
            delay = self.backoff.delay(shard.respawns_used)
            shard.respawns_used += 1
            shard.restarts += 1
            await self._reap(shard)
            await self._sleep(delay)
            if self._closed:
                return
            self._spawn(shard)

    async def _reap(self, shard: _Shard) -> None:
        """Collect the dead worker (no zombies), record its exit code,
        and retire its pipe."""
        loop = asyncio.get_running_loop()
        process = shard.process
        if process is None:
            return
        await loop.run_in_executor(None, process.join, 2.0)
        if process.is_alive():
            process.kill()
            await loop.run_in_executor(None, process.join, 2.0)
        # Only trustworthy after the join: reading it at EOF time races
        # the kernel actually retiring the child (and reads 0/None).
        shard.last_exit = process.exitcode
        if shard.conn is not None:
            try:
                shard.conn.close()
            except OSError:
                pass

    def _mark_failed(self, shard: _Shard, reason: str) -> None:
        shard.state = FAILED
        shard.failed = reason
        shard.ready.set()  # waiters wake and observe the terminal state
        self._maybe_ready()

    async def _replace(self, shard: _Shard) -> None:
        """Respawn budget exhausted: re-place the shard's tenants across
        the surviving shards so the service degrades instead of dying."""
        shard.state = REPLACING
        self._fail_inflight(shard)
        self._drain_queue(shard)
        await self._reap(shard)
        survivors = [
            s.name
            for s in self._shards.values()
            if s is not shard and s.state not in _TERMINAL_STATES
        ]
        if not survivors:
            self._mark_failed(
                shard,
                f"{shard.name} worker died {shard.respawns_used + 1} times "
                "and no shard survives to adopt its tenants",
            )
            return
        plan = plan_replacement(shard.tenants, sorted(survivors))
        for survivor_name in sorted(plan):
            survivor = self._shards[survivor_name]
            tenants = plan[survivor_name]
            payload = [(t, self._payloads[t]) for t in tenants]
            future = asyncio.get_running_loop().create_future()
            survivor.queue.put_nowait(("adopt", future, payload))
            try:
                await future
            except ServiceFault:
                # The adopting shard failed too; its own supervisor owns
                # that. These tenants stay on the dead shard and fail
                # unavailable — the rest still re-place.
                continue
            survivor.tenants.extend(tenants)
            survivor.replacements += len(tenants)
            for tenant in tenants:
                self._shard_of[tenant] = survivor_name
        shard.state = REPLACED
        shard.failed = (
            f"{shard.name} exhausted its respawn budget "
            f"({self.backoff.budget}); tenants re-placed onto "
            f"{sorted(plan)}"
        )
        shard.ready.set()
        self._maybe_ready()
        # Requests that raced the re-placement still fail retryable —
        # on retry the routing table sends them to the adopter.
        self._drain_queue(shard)

    async def _drain_until_closed(self, shard: _Shard) -> None:
        """Terminal-state drainer: anything that still lands on this
        shard's queue (an enqueue racing the state flip) fails typed
        instead of hanging."""
        while not self._closed:
            entry = await shard.queue.get()
            if entry is None:
                return
            self._fail_entry(entry, self._death_exception(shard))

    def chaos_kill_worker(self, shard: Optional[str] = None) -> Optional[str]:
        """Fault injection: SIGKILL one live worker process.

        Kills the named shard's worker, or the first ready one in shard
        order. Returns the shard name killed (``None`` if no worker was
        live). Thread-safe — the loadtest driver calls this from a
        client thread mid-load.
        """
        names = [shard] if shard is not None else sorted(self._shards)
        for name in names:
            candidate = self._shards.get(name)
            if candidate is None or candidate.process is None:
                continue
            if candidate.state == READY and candidate.process.is_alive():
                candidate.process.kill()
                return name
        return None

    # -- pump ----------------------------------------------------------
    async def _pump(self, shard: _Shard):
        """One worker incarnation's lockstep driver: readiness first,
        then batches. Returns ``None`` on clean close or a
        ``(kind, reason)`` death outcome for the supervisor."""
        try:
            message = await self._recv(shard)
        except (EOFError, OSError):
            return ("died", "worker pipe closed during boot")
        if message[0] != "ready":
            return ("boot_error", str(message[-1]))
        shard.state = READY
        shard.failed = None
        shard.ready.set()
        self._maybe_ready()
        while not self._closed:
            item = await shard.queue.get()
            if item is None:
                return None
            if item[0] == "dead":
                return ("died", item[1])
            batch = [item]
            # The live list doubles as the in-flight record: whatever is
            # in it when the worker dies gets failed by the supervisor.
            shard.inflight = batch
            if self.batch_delay > 0:
                # Let concurrently arriving requests join this batch.
                await asyncio.sleep(self.batch_delay)
            while not shard.queue.empty():
                extra = shard.queue.get_nowait()
                if extra is None:
                    self._closed = True
                    break
                if extra[0] == "dead":
                    return ("died", extra[1])
                batch.append(extra)
            queries = [entry for entry in batch if entry[0] == "req"]
            probes = [entry for entry in batch if entry[0] == "stats"]
            adoptions = [entry for entry in batch if entry[0] == "adopt"]
            try:
                if queries:
                    requests = [
                        (i, r.tenant, r.attr, r.lo, r.hi)
                        for i, (_kind, _future, r) in enumerate(queries)
                    ]
                    shard.conn.send(("batch", requests))
                    reply = await self._recv(shard)
                    if reply[0] == "fatal":
                        return ("died", f"worker fatal: {reply[1]}")
                    self._settle_batch(shard, queries, reply)
                if probes:
                    shard.conn.send(("stats",))
                    reply = await self._recv(shard)
                    if reply[0] == "fatal":
                        return ("died", f"worker fatal: {reply[1]}")
                    _op, tenant_stats, shard_stats = reply
                    shard.tenant_stats = tenant_stats
                    shard.stats = shard_stats
                    shard.metrics_tick += 1
                    for _kind, future in probes:
                        if not future.done():
                            future.set_result((tenant_stats, shard_stats))
                for _kind, future, payload in adoptions:
                    shard.conn.send(("adopt", payload))
                    reply = await self._recv(shard)
                    if reply[0] == "fatal":
                        return ("died", f"worker fatal: {reply[1]}")
                    if reply[0] == "adopt_error":
                        if not future.done():
                            future.set_exception(
                                ServiceUnavailableError(
                                    f"adoption failed on {shard.name}: "
                                    f"{reply[1]}"
                                )
                            )
                        continue
                    _op, adopted, tenant_stats, shard_stats = reply
                    shard.tenant_stats = tenant_stats
                    shard.stats = shard_stats
                    if not future.done():
                        future.set_result(list(adopted))
                shard.inflight = []
            except (EOFError, OSError, BrokenPipeError) as exc:
                return ("died", f"worker pipe failed: {exc}")
        return None

    def _settle_batch(self, shard: _Shard, queries, reply) -> None:
        """Resolve one lockstep batch's futures from the worker reply."""
        _op, answers, shard_stats = reply
        shard.stats = shard_stats
        shard.metrics_tick += 1
        by_id = {req_id: (kind, payload) for req_id, kind, payload in answers}
        for i, (_kind, future, request) in enumerate(queries):
            if future.done():
                continue
            kind, payload = by_id.get(
                i, ("error", ("unavailable", "no answer from shard"))
            )
            if kind == "error":
                code, message = payload
                future.set_exception(
                    error_to_exception(
                        ServiceError(code=code, message=message, seq=request.seq)
                    )
                )
            else:
                future.set_result(QueryAnswer.from_wire(payload))

    # -- serving -------------------------------------------------------
    async def answer(self, request: QueryRequest) -> QueryAnswer:
        """Route one request to its tenant's shard and await the answer.

        Raises the typed faults: :class:`MalformedRequestError` for
        unknown tenants / invalid ranges, :class:`ShedError` via the
        shard's admission control,
        :class:`~repro.service.api.ShardRestartingError` (retryable)
        while the shard's worker is being respawned or its tenants
        re-placed, and :class:`ServiceUnavailableError` when the shard
        is terminally gone. Called before the shard is ready, it waits —
        the HELLO handshake normally makes that impossible.
        """
        if self._closed:
            raise ServiceUnavailableError("gateway is closed", seq=request.seq)
        shard: Optional[_Shard] = None
        shard_id: Optional[str] = None
        # Re-resolve after the ready wait: a re-placement may have moved
        # the tenant to an adopting shard while we were parked.
        for _ in range(len(self._shards) + 1):
            shard_id = self._shard_of.get(request.tenant)
            if shard_id is None:
                raise MalformedRequestError(
                    f"unknown tenant {request.tenant!r}; one of {self.tenants}",
                    seq=request.seq,
                )
            shard = self._shards[shard_id]
            await shard.ready.wait()
            if self._shard_of.get(request.tenant) == shard_id:
                break
        assert shard is not None
        if shard.state in _RETRYABLE_STATES:
            raise ShardRestartingError(
                f"{shard_id} is {shard.state}: "
                f"{shard.failed or 'worker died'}; retry shortly",
                seq=request.seq,
            )
        if shard.state != READY:
            raise ServiceUnavailableError(
                shard.failed or f"{shard_id} is {shard.state}",
                seq=request.seq,
            )
        future = asyncio.get_running_loop().create_future()
        shard.queue.put_nowait(("req", future, request))
        try:
            answer = await future
        except ServiceFault as fault:
            if fault.seq == 0:
                fault.seq = request.seq
            raise
        if answer.seq != request.seq:
            answer = dataclasses.replace(answer, seq=request.seq)
        return answer

    # -- telemetry -----------------------------------------------------
    def _supervision_stats(self, shard: _Shard) -> Dict[str, float]:
        """The parent-side supervision counters overlaid onto every
        shard scorecard (workers report them as 0 — they cannot know)."""
        return {
            "restarts": float(shard.restarts),
            "replacements": float(shard.replacements),
            "last_exit": float(
                shard.last_exit if shard.last_exit is not None else 0
            ),
        }

    async def service_stats(self) -> ServiceStats:
        """Poll every ready shard for fresh scorecards (rides the same
        lockstep pump as queries, so it can never interleave a batch);
        shards mid-restart or retired contribute their last known
        scorecard plus the supervision counters."""
        loop = asyncio.get_running_loop()
        futures: Dict[str, "asyncio.Future"] = {}
        for shard in self._shards.values():
            if shard.state != READY:
                continue
            future = loop.create_future()
            shard.queue.put_nowait(("stats", future))
            futures[shard.name] = future
        tenants: Dict[str, Dict[str, float]] = {}
        shards: Dict[str, Dict[str, float]] = {}
        for name, future in futures.items():
            shard = self._shards[name]
            try:
                tenant_stats, shard_stats = await future
            except ServiceFault:
                # Died mid-probe: fall back to the cached scorecard.
                tenant_stats, shard_stats = shard.tenant_stats, shard.stats
            tenants.update(tenant_stats)
            shards[name] = {**shard_stats, **self._supervision_stats(shard)}
        for name, shard in self._shards.items():
            if name not in shards:
                # Not probed (restarting / replaced / failed): cached
                # scorecard + supervision counters, no tenant overlay
                # (their tenants may live on an adopting shard now).
                shards[name] = {
                    **shard.stats,
                    **self._supervision_stats(shard),
                }
        return ServiceStats(tenants=tenants, shards=shards)

    def metrics_snapshots(self) -> Dict[str, Dict[str, object]]:
        """Latest per-shard scorecards (refreshed by every batch reply),
        with the supervision counters overlaid."""
        return {
            name: {
                "tick": shard.metrics_tick,
                "stats": {
                    **dict(shard.stats),
                    **self._supervision_stats(shard),
                },
                "tenants": {k: dict(v) for k, v in shard.tenant_stats.items()},
            }
            for name, shard in self._shards.items()
        }

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard in self._shards.values():
            shard.queue.put_nowait(None)
        supervisors = [
            s.supervisor for s in self._shards.values() if s.supervisor is not None
        ]
        for task in supervisors:
            task.cancel()
        await asyncio.gather(*supervisors, return_exceptions=True)
        loop = asyncio.get_running_loop()
        for shard in self._shards.values():
            try:
                shard.conn.send(("close",))
            except (OSError, BrokenPipeError, ValueError):
                pass
        for shard in self._shards.values():
            process = shard.process
            if process is None:
                continue
            await loop.run_in_executor(None, process.join, 5.0)
            if process.is_alive():
                process.terminate()
                await loop.run_in_executor(None, process.join, 5.0)
            if process.is_alive():
                # A worker wedged in uninterruptible boot work can
                # survive terminate(); SIGKILL is the last word — a
                # closed gateway must never leave a live child behind.
                process.kill()
                await loop.run_in_executor(None, process.join, 5.0)
            try:
                shard.conn.close()
            except OSError:
                pass
            # Nothing may be left hanging on a closed gateway.
            closed_exc: Callable[[], ServiceFault] = lambda: (
                ServiceUnavailableError("gateway is closed")
            )
            for entry in shard.inflight:
                self._fail_entry(entry, closed_exc())
            shard.inflight = []
            while not shard.queue.empty():
                entry = shard.queue.get_nowait()
                if entry is not None:
                    self._fail_entry(entry, closed_exc())
