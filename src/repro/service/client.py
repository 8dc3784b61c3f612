"""The supported client entry points: ``ScoopClient`` / ``AsyncScoopClient``.

These two classes are the *only* supported ways to talk to a Scoop
query server — everything else (raw sockets, gateway dicts) is
service-internal. Both speak the framed protocol of
:mod:`repro.service.protocol` and surface failures as the typed
exceptions of :mod:`repro.service.api`:

* :class:`~repro.service.api.ShedError` — overload (admission-queue or
  socket-level credit shed); back off and retry.
* :class:`~repro.service.api.ShardRestartingError` — the tenant's shard
  lost its worker and is coming back; **handled internally**: both
  clients retry the query with capped exponential backoff (``retries``
  attempts) before surfacing the fault.
* :class:`~repro.service.api.MalformedRequestError` — the request was
  wrong (unknown tenant, out-of-domain range); fix it, don't retry.
* :class:`~repro.service.api.ProtocolVersionError` — client and server
  disagree on :data:`~repro.service.api.PROTOCOL_VERSION`.
* :class:`~repro.service.api.ProtocolError` — the stream broke framing.

Both clients are context-managed::

    with ScoopClient("127.0.0.1", 4217) as client:
        answer = client.query(tenant="tenant0", attr=0, lo=10, hi=40)
        print(answer.n_readings, answer.latency_s)

    async with AsyncScoopClient("127.0.0.1", 4217) as client:
        answer = await client.query(tenant="tenant0")

Connecting performs the hello/WELCOME handshake, which doubles as the
readiness barrier: the server holds the WELCOME until every shard has
finished booting, so a connected client can query immediately.
Connections that subscribed with ``metrics=True`` accumulate server-push
telemetry in :attr:`metrics` (a bounded deque of per-shard scorecards).
"""

from __future__ import annotations

import asyncio
import socket
import time
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.service.api import (
    PROTOCOL_VERSION,
    ProtocolError,
    QueryAnswer,
    QueryRequest,
    ServiceError,
    ServiceStats,
    ShardRestartingError,
    ShedError,
    error_to_exception,
)
from repro.service.protocol import (
    FrameDecoder,
    FrameType,
    encode_frame,
    hello_frame,
    request_frame,
    stats_request_frame,
)

#: Server-push METRICS frames kept per connection (older ones roll off).
METRICS_BUFFER = 256

#: Default retry policy against the ``retry`` wire code: attempts and
#: the capped exponential backoff between them. Defaults cover one
#: worker-respawn cycle (~sum of the gateway's backoff ladder); chaos
#: load drivers raise ``retries`` to ride out slower reboots.
DEFAULT_RETRIES = 8
RETRY_BASE_S = 0.25
RETRY_CAP_S = 2.0


def _retry_delay(attempt: int, base_s: float, cap_s: float) -> float:
    """Capped exponential backoff before 0-based retry ``attempt`` —
    the client-side mirror of the supervisor's respawn schedule."""
    return min(cap_s, base_s * (2.0**attempt))


def _answer_or_raise(payload: Dict[str, object]) -> QueryAnswer:
    """Decode a RESPONSE payload; shed answers surface as ShedError."""
    answer = QueryAnswer.from_wire(payload)
    if answer.status == "shed":
        raise ShedError(
            f"tenant {answer.tenant!r} shed request seq={answer.seq} "
            f"(admission queue full)",
            seq=answer.seq,
        )
    return answer


class ScoopClient:
    """Synchronous client over one blocking TCP connection.

    Strictly request/response from the caller's view: ``query`` blocks
    until its answer frame arrives, absorbing any interleaved METRICS
    pushes into :attr:`metrics` along the way.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 4217,
        name: str = "scoop-client",
        metrics: bool = False,
        timeout: Optional[float] = 60.0,
        version: int = PROTOCOL_VERSION,
        retries: int = DEFAULT_RETRIES,
        retry_base_s: float = RETRY_BASE_S,
        retry_cap_s: float = RETRY_CAP_S,
    ):
        self.host = host
        self.port = port
        self.name = name
        self.subscribe_metrics = metrics
        self.timeout = timeout
        self.version = version
        self.retries = retries
        self.retry_base_s = retry_base_s
        self.retry_cap_s = retry_cap_s
        #: total ``retry``-code resends this client performed (telemetry
        #: for the chaos loadtest report).
        self.retries_used = 0
        self.tenants: List[str] = []
        self.credits = 0
        self.workers = 0
        self.metrics: Deque[Dict[str, object]] = deque(maxlen=METRICS_BUFFER)
        self._sock: Optional[socket.socket] = None
        self._decoder = FrameDecoder()
        self._frames: Deque = deque()
        self._seq = 0

    # -- lifecycle -----------------------------------------------------
    def connect(self) -> "ScoopClient":
        """Dial, send HELLO, block until the server's readiness-gated
        WELCOME. Raises :class:`ProtocolVersionError` on version skew."""
        if self._sock is not None:
            return self
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._send(
            hello_frame(
                client=self.name,
                subscribe_metrics=self.subscribe_metrics,
                version=self.version,
            )
        )
        frame = self._wait(FrameType.WELCOME, seq=None)
        self.tenants = [str(t) for t in frame.payload.get("tenants", [])]
        self.credits = int(frame.payload.get("credits", 0))
        self.workers = int(frame.payload.get("workers", 0))
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ScoopClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- wire plumbing -------------------------------------------------
    def _send(self, data: bytes) -> None:
        if self._sock is None:
            raise ProtocolError("client is not connected")
        self._sock.sendall(data)

    def _wait(self, ftype: FrameType, seq: Optional[int]):
        """Read frames until one matches ``(type, seq)``; buffer or
        absorb everything else (METRICS → :attr:`metrics`; ERROR frames
        for our seq raise their typed exception)."""
        while True:
            for _ in range(len(self._frames)):
                frame = self._frames.popleft()
                matched = self._dispatch(frame, ftype, seq)
                if matched is not None:
                    return matched
            data = self._sock.recv(65536)
            if not data:
                raise ProtocolError("server closed the connection")
            self._frames.extend(self._decoder.feed(data))

    def _dispatch(self, frame, ftype: FrameType, seq: Optional[int]):
        if frame.type == FrameType.METRICS:
            self.metrics.append(dict(frame.payload))
            return None
        if frame.type == FrameType.ERROR and (seq is None or frame.seq == seq):
            raise error_to_exception(ServiceError.from_wire(frame.payload))
        if frame.type == ftype and (seq is None or frame.seq == seq):
            return frame
        # A frame for a different outstanding exchange: keep it queued.
        self._frames.append(frame)
        return None

    # -- operations ----------------------------------------------------
    def query(
        self,
        tenant: str = "tenant0",
        attr: int = 0,
        lo: Optional[int] = None,
        hi: Optional[int] = None,
    ) -> QueryAnswer:
        """One range query; blocks for the answer. Raises the typed
        faults (:class:`ShedError`, :class:`MalformedRequestError`, ...)
        instead of returning error strings. The retryable ``retry`` code
        (shard mid-respawn) is absorbed: the query is resent, with
        capped backoff, up to ``retries`` times before the fault
        surfaces."""
        for attempt in range(self.retries + 1):
            self._seq += 1
            request = QueryRequest(
                tenant=tenant, attr=attr, lo=lo, hi=hi, seq=self._seq
            )
            try:
                self._send(request_frame(request))
                frame = self._wait(FrameType.RESPONSE, seq=request.seq)
            except ShardRestartingError:
                if attempt >= self.retries:
                    raise
                self.retries_used += 1
                time.sleep(
                    _retry_delay(attempt, self.retry_base_s, self.retry_cap_s)
                )
                continue
            return _answer_or_raise(frame.payload)
        raise AssertionError("unreachable: retry loop always returns/raises")

    def stats(self) -> ServiceStats:
        self._seq += 1
        self._send(stats_request_frame(self._seq))
        frame = self._wait(FrameType.STATS, seq=self._seq)
        return ServiceStats.from_wire(frame.payload)

    def ping(self) -> List[str]:
        self._seq += 1
        self._send(encode_frame(FrameType.PING, {}, seq=self._seq))
        frame = self._wait(FrameType.PONG, seq=self._seq)
        return [str(t) for t in frame.payload.get("tenants", [])]


class AsyncScoopClient:
    """Asyncio client over one connection; safe for concurrent queries.

    A background reader task demultiplexes the stream: responses resolve
    their request's future by seq, METRICS pushes land in
    :attr:`metrics`. Many coroutines may await :meth:`query`
    concurrently on one connection — that is the supported way to keep a
    server's credit window full.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 4217,
        name: str = "scoop-client",
        metrics: bool = False,
        version: int = PROTOCOL_VERSION,
        retries: int = DEFAULT_RETRIES,
        retry_base_s: float = RETRY_BASE_S,
        retry_cap_s: float = RETRY_CAP_S,
    ):
        self.host = host
        self.port = port
        self.name = name
        self.subscribe_metrics = metrics
        self.version = version
        self.retries = retries
        self.retry_base_s = retry_base_s
        self.retry_cap_s = retry_cap_s
        #: total ``retry``-code resends this client performed.
        self.retries_used = 0
        self.tenants: List[str] = []
        self.credits = 0
        self.workers = 0
        self.metrics: Deque[Dict[str, object]] = deque(maxlen=METRICS_BUFFER)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._decoder = FrameDecoder()
        self._seq = 0
        self._closed = False
        self._welcome: Optional[asyncio.Future] = None

    # -- lifecycle -----------------------------------------------------
    async def connect(self) -> "AsyncScoopClient":
        if self._writer is not None:
            return self
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        loop = asyncio.get_running_loop()
        self._welcome = loop.create_future()
        self._reader_task = asyncio.create_task(
            self._read_loop(), name="scoop-client-reader"
        )
        self._writer.write(
            hello_frame(
                client=self.name,
                subscribe_metrics=self.subscribe_metrics,
                version=self.version,
            )
        )
        await self._writer.drain()
        welcome = await self._welcome
        self.tenants = [str(t) for t in welcome.get("tenants", [])]
        self.credits = int(welcome.get("credits", 0))
        self.workers = int(welcome.get("workers", 0))
        return self

    async def aclose(self) -> None:
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._writer = None
        self._fail_pending(ProtocolError("client closed"))

    async def __aenter__(self) -> "AsyncScoopClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # -- reader --------------------------------------------------------
    def _fail_pending(self, exc: Exception) -> None:
        if self._welcome is not None and not self._welcome.done():
            self._welcome.set_exception(exc)
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    async def _read_loop(self) -> None:
        try:
            while True:
                data = await self._reader.read(65536)
                if not data:
                    self._fail_pending(
                        ProtocolError("server closed the connection")
                    )
                    return
                for frame in self._decoder.feed(data):
                    self._on_frame(frame)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — surfaced via futures
            self._fail_pending(
                exc
                if isinstance(exc, ProtocolError)
                else ProtocolError(f"client reader failed: {exc}")
            )

    def _on_frame(self, frame) -> None:
        if frame.type == FrameType.METRICS:
            self.metrics.append(dict(frame.payload))
            return
        if frame.type == FrameType.WELCOME:
            if self._welcome is not None and not self._welcome.done():
                self._welcome.set_result(dict(frame.payload))
            return
        if frame.type == FrameType.ERROR:
            exc = error_to_exception(ServiceError.from_wire(frame.payload))
            future = self._pending.pop(frame.seq, None)
            if future is not None and not future.done():
                future.set_exception(exc)
            elif self._welcome is not None and not self._welcome.done():
                # Pre-WELCOME failure (version skew, bad hello).
                self._welcome.set_exception(exc)
            return
        future = self._pending.pop(frame.seq, None)
        if future is not None and not future.done():
            future.set_result(frame)

    # -- operations ----------------------------------------------------
    async def _exchange(self, data: bytes, seq: int):
        if self._writer is None or self._closed:
            raise ProtocolError("client is not connected")
        future = asyncio.get_running_loop().create_future()
        self._pending[seq] = future
        self._writer.write(data)
        await self._writer.drain()
        return await future

    async def query(
        self,
        tenant: str = "tenant0",
        attr: int = 0,
        lo: Optional[int] = None,
        hi: Optional[int] = None,
    ) -> QueryAnswer:
        """One range query. Like the sync client, the retryable
        ``retry`` code is absorbed with capped backoff before the fault
        surfaces; other typed faults raise immediately."""
        for attempt in range(self.retries + 1):
            self._seq += 1
            request = QueryRequest(
                tenant=tenant, attr=attr, lo=lo, hi=hi, seq=self._seq
            )
            try:
                frame = await self._exchange(request_frame(request), request.seq)
            except ShardRestartingError:
                if attempt >= self.retries:
                    raise
                self.retries_used += 1
                await asyncio.sleep(
                    _retry_delay(attempt, self.retry_base_s, self.retry_cap_s)
                )
                continue
            return _answer_or_raise(frame.payload)
        raise AssertionError("unreachable: retry loop always returns/raises")

    async def stats(self) -> ServiceStats:
        self._seq += 1
        frame = await self._exchange(stats_request_frame(self._seq), self._seq)
        return ServiceStats.from_wire(frame.payload)

    async def ping(self) -> List[str]:
        self._seq += 1
        frame = await self._exchange(
            encode_frame(FrameType.PING, {}, seq=self._seq), self._seq
        )
        return [str(t) for t in frame.payload.get("tenants", [])]
