"""``repro.serve.service`` — supervised asyncio multi-worker serving.

The one wire front end of the serving layer: it turns the batched
:class:`~repro.serve.engine.InferenceEngine` into a *service* — many
concurrent TCP connections (or one stdin/stdout session), N supervised
engine-worker processes, and explicit operational semantics under
load.  The shape follows the long-lived supervisor/worker/watchdog
pattern (async actor supervision with monitored links): the asyncio
process owns no model — it parses, routes, queues and delivers, while
every expensive byte of work happens in :mod:`repro.serve.supervisor`
worker processes.

Semantics, in the order they matter operationally:

* **Backpressure** — bounded global and per-connection queues.  A
  predict that would overflow either is answered immediately with
  ``{"ok": false, "status": "overloaded"}`` instead of being buffered
  without bound; the client decides whether to back off or shed.
* **Two-lane routing** — :class:`~repro.serve.router.Router` sends
  first-seen designs to per-worker *cold* queues (they will pay
  place-and-route) and repeat designs to their home worker's *warm*
  queue.  Warm queues drain with strict priority and cold jobs dispatch
  one request at a time, so a warm request is never queued behind the
  cold preparation backlog — it waits at most one in-flight job.
* **Work-conserving batching** — a free worker dispatches what its warm
  queue holds at once, up to the engine's ``ServeConfig.max_batch`` in
  one block-diagonal forward pass; it never idles waiting for a batch
  to fill.  Warm requests that arrive while the worker is busy form its
  next batch.  A ``flush`` op is a barrier: it is answered once the
  connection's requests are.
* **Crash containment** — a worker killed or hung mid-batch is detected
  by the supervisor's watchdog and restarted; the affected requests are
  retried once on the fresh worker and, failing that, answered with an
  explicit error.  Requests are never silently dropped and never hang.
* **Graceful drain/reload** — ``reload`` barriers in-flight jobs, swaps
  the checkpoint in every worker, then resumes: requests queued behind
  the reload are answered by the *new* model and none are dropped.
  ``shutdown`` drains every queued request before the server stops
  accepting; both ops are admin-scoped when ``admin_token`` is set.

Wire protocol: JSON lines, v2 (helpers in :mod:`repro.serve.server`) —
see ``docs/serving.md`` for the op table.  Entry point: ``repro.cli
serve [--workers N] [--port P]``; without ``--port`` the same session
code serves stdin/stdout (:meth:`ServeService.run_stdio`).
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import sys
import threading
from collections import deque
from dataclasses import dataclass, field

from .engine import ServeConfig
from .router import Router
from .server import (MAX_LINE_BYTES, protocol_version_error,
                     server_identity)
from .supervisor import Supervisor, WorkerCrashed, WorkerError, WorkerSpec

__all__ = ["ServiceConfig", "ServeService"]


@dataclass
class ServiceConfig:
    """Operational knobs of the multi-worker serving service.

    ``workers`` sizes the engine-worker pool (warm batches are bounded
    by the engine's :attr:`~repro.serve.engine.ServeConfig.max_batch`,
    the one batch size of the service and its workers); ``max_queue`` /
    ``max_queue_per_conn`` bound the admitted-but-unanswered requests
    globally and per connection (overflow gets an immediate
    backpressure reply); ``job_timeout_s`` is the hung-worker
    watchdog; ``max_retries`` caps re-dispatches of a batch whose worker
    crashed; ``admin_token``, when set, gates ``reload``/``shutdown``.
    """

    workers: int = 2
    max_queue: int = 256
    max_queue_per_conn: int = 64
    job_timeout_s: float = 120.0
    max_retries: int = 1
    admin_token: str | None = None
    start_method: str = "spawn"
    max_line_bytes: int = MAX_LINE_BYTES


@dataclass(eq=False)  # identity semantics: items live in per-conn sets
class _Item:
    """One admitted predict request travelling through the service."""

    payload: dict
    key: str
    lane: str
    conn: "_Connection"
    future: asyncio.Future
    retries: int = 0

    @property
    def request_id(self):
        return self.payload.get("id")


@dataclass
class _Connection:
    """Per-connection delivery state (outbox keeps writes serialised).

    The outbox holds ``(reply, is_result)`` pairs, so the writer can
    count a predict result as delivered only once it is written.
    """

    writer: "asyncio.StreamWriter | _StreamWriter"
    outbox: asyncio.Queue = field(default_factory=asyncio.Queue)
    outstanding: set = field(default_factory=set)
    alive: bool = True
    queued: int = 0

    def send(self, reply: dict, result: bool = False) -> None:
        self.outbox.put_nowait((reply, result))


class ServeService:
    """Asyncio front end over a :class:`~repro.serve.supervisor.Supervisor`.

    Construct, then either ``await run(host, port)`` (TCP; blocks until
    a drained shutdown), ``await run_stdio()`` (one session on
    stdin/stdout; ends at shutdown or EOF) or drive :meth:`start` /
    :meth:`stop` directly around a custom server.  ``supervisor`` is
    injectable for tests — it must provide
    ``start/stop/dispatch/reload/stats/restarts``.
    """

    def __init__(self, checkpoint: str | None,
                 serve: ServeConfig | None = None,
                 config: ServiceConfig | None = None,
                 default_suite: str = "superblue",
                 dtype: str | None = None,
                 supervisor=None):
        self.config = config or ServiceConfig()
        self.serve = serve or ServeConfig()
        self.checkpoint = checkpoint
        self.router = Router(self.config.workers,
                             default_suite=default_suite)
        if supervisor is None:
            if checkpoint is None:
                raise ValueError("a checkpoint path is required unless a "
                                 "supervisor is injected")
            supervisor = Supervisor(
                WorkerSpec(checkpoint=checkpoint,
                           serve=self.serve,
                           default_suite=default_suite, dtype=dtype),
                num_workers=self.config.workers,
                job_timeout_s=self.config.job_timeout_s,
                start_method=self.config.start_method)
        self.supervisor = supervisor
        workers = self.config.workers
        self._warm: list[deque[_Item]] = [deque() for _ in range(workers)]
        self._cold: list[deque[_Item]] = [deque() for _ in range(workers)]
        self._wake = [asyncio.Event() for _ in range(workers)]
        self._gate = asyncio.Event()
        self._gate.set()
        self._idle = asyncio.Event()
        self._idle.set()
        self._drained = asyncio.Event()
        self._drained.set()
        self._stopped = asyncio.Event()
        self._admin_lock = asyncio.Lock()
        self._loops: list[asyncio.Task] = []
        self._inflight = 0
        self._queued = 0
        self._next_conn_id = 0
        self._draining = False
        self._counters = {"admitted": 0, "delivered": 0, "discarded": 0,
                          "rejected": 0, "retried": 0, "failed": 0,
                          "reloads": 0}

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Start the worker pool and the per-worker dispatch loops."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.supervisor.start)
        self._loops = [asyncio.create_task(self._worker_loop(w),
                                           name=f"serve-worker-{w}")
                       for w in range(self.config.workers)]

    async def stop(self) -> None:
        """Cancel dispatch loops and stop the worker pool."""
        for task in self._loops:
            task.cancel()
        for task in self._loops:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._loops = []
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.supervisor.stop)

    async def run(self, host: str = "127.0.0.1", port: int = 0,
                  ready_callback=None) -> None:
        """Serve TCP until a drained ``shutdown``; the CLI entry point."""
        await self.start()
        server = await asyncio.start_server(
            self._handle_connection, host, port,
            limit=self.config.max_line_bytes)
        bound_port = server.sockets[0].getsockname()[1]
        if ready_callback is not None:
            ready_callback(bound_port)
        try:
            async with server:
                await self._stopped.wait()
        finally:
            await self.stop()

    async def run_stdio(self, stdin=None, stdout=None) -> None:
        """Serve one session on ``stdin``/``stdout`` (default: the sys ones).

        The session runs the same code path as a TCP connection.  Lines
        are read by a daemon thread, so real pipes and in-memory
        streams such as :class:`io.StringIO` both work.  ``shutdown``
        drains and ends it; EOF ends it like a TCP disconnect: requests
        still queued are dropped once any in-flight batch finishes.
        An error reading ``stdin`` ends the session and is raised here.
        """
        stdin = sys.stdin if stdin is None else stdin
        if stdin is None:  # the process was started with fd 0 closed
            raise OSError("no stdin to serve")
        await self.start()
        reader = asyncio.StreamReader(limit=self.config.max_line_bytes)
        flow = _PumpFlow()
        reader.set_transport(flow)
        threading.Thread(target=_pump_lines,
                         args=(stdin, reader, asyncio.get_running_loop(),
                               flow),
                         name="serve-stdin", daemon=True).start()
        writer = _StreamWriter(sys.stdout if stdout is None else stdout)
        try:
            await self._handle_connection(reader, writer)
        finally:
            self._gate.clear()  # no new batch after the session ends
            await self._idle.wait()
            await self.stop()

    # -- intake ----------------------------------------------------------
    def _reject(self, request_id, status: str, error: str) -> dict:
        self._counters["rejected"] += 1
        return {"ok": False, "id": request_id, "status": status,
                "error": error}

    def _admit_predict(self, conn: _Connection, payload: dict) -> dict:
        """Queue one predict or explain why not; returns the ack reply."""
        request_id = payload.get("id")
        if self._draining:
            return self._reject(request_id, "draining",
                                "server is draining; retry elsewhere")
        if self._queued >= self.config.max_queue:
            return self._reject(
                request_id, "overloaded",
                f"backpressure: global queue full "
                f"({self._queued}/{self.config.max_queue}); retry later")
        if conn.queued >= self.config.max_queue_per_conn:
            return self._reject(
                request_id, "overloaded",
                f"backpressure: connection queue full "
                f"({conn.queued}/{self.config.max_queue_per_conn}); "
                f"flush or slow down")
        channel = payload.get("channel", "h")
        if channel not in ("h", "v", "both"):
            return self._reject(request_id, "failed",
                                f"unknown channel {channel!r}; expected "
                                f"'h', 'v' or 'both'")
        try:
            route = self.router.route(payload)
        except ValueError as exc:
            return self._reject(request_id, "failed", str(exc))
        item = _Item(payload=payload, key=route.key, lane=route.lane,
                     conn=conn,
                     future=asyncio.get_running_loop().create_future())
        lane = self._warm if route.lane == "warm" else self._cold
        lane[route.worker].append(item)
        conn.outstanding.add(item)
        conn.queued += 1
        self._queued += 1
        self._drained.clear()
        self._counters["admitted"] += 1
        self._wake[route.worker].set()
        return {"ok": True, "id": request_id, "status": "queued",
                "worker": route.worker, "lane": route.lane,
                "pending": self._queued}

    # -- per-worker dispatch ---------------------------------------------
    def _take_batch(self, w: int) -> list[_Item] | None:
        """The next batch worker ``w`` should run, or None to sleep.

        Work-conserving: queued warm items go at once, up to
        ``serve.max_batch`` of them, and first.  Cold items dispatch one
        at a time so a warm arrival waits at most one preparation, never
        a backlog.
        """
        warm = self._warm[w]
        if warm:
            return [warm.popleft()
                    for _ in range(min(len(warm), self.serve.max_batch))]
        if self._cold[w]:
            return [self._cold[w].popleft()]
        return None

    async def _worker_loop(self, w: int) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._gate.wait()
            batch = self._take_batch(w)
            if batch is None:
                # No await separates _take_batch from clear(), so no
                # admit can slip between them; sleep until one wakes us.
                self._wake[w].clear()
                await self._wake[w].wait()
                continue
            self._inflight += 1
            self._idle.clear()
            try:
                payloads = [item.payload for item in batch]
                try:
                    replies = await loop.run_in_executor(
                        None, self.supervisor.dispatch, w,
                        "predict_batch", payloads)
                except WorkerCrashed as exc:
                    self._handle_crash(w, batch, exc)
                    continue
                except WorkerError as exc:
                    replies = [{"ok": False, "id": item.request_id,
                                "status": "failed", "error": str(exc)}
                               for item in batch]
                self._deliver(batch, replies)
            finally:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.set()

    def _handle_crash(self, w: int, batch: list[_Item],
                      exc: WorkerCrashed) -> None:
        """Retry a crashed batch on the restarted worker, or fail it."""
        retry: list[_Item] = []
        failed: list[_Item] = []
        for item in batch:
            (retry if item.retries < self.config.max_retries
             else failed).append(item)
        for item in reversed(retry):
            item.retries += 1
            lane = self._warm if item.lane == "warm" else self._cold
            lane[w].appendleft(item)
        if retry:
            self._counters["retried"] += len(retry)
            self._wake[w].set()
        if failed:
            self._counters["failed"] += len(failed)
            self._deliver(failed, [
                {"ok": False, "id": item.request_id, "status": "failed",
                 "error": f"{exc} while serving this request "
                          f"(after {item.retries} retr"
                          f"{'y' if item.retries == 1 else 'ies'})"}
                for item in failed])

    def _deliver(self, batch: list[_Item], replies: list[dict]) -> None:
        """Hand each item its reply: outbox, future, and accounting.

        ``delivered`` is counted by the writer once a result is written;
        a result whose client is gone, or whose write fails, counts as
        ``discarded``.
        """
        for item, reply in zip(batch, replies):
            conn = item.conn
            conn.outstanding.discard(item)
            conn.queued -= 1
            self._queued -= 1
            if conn.alive:
                conn.send(reply, result=True)
            else:
                self._counters["discarded"] += 1
            if not item.future.done():
                item.future.set_result(reply)
        if self._queued == 0:
            self._drained.set()

    # -- admin ops -------------------------------------------------------
    def _admin_error(self, payload: dict) -> str | None:
        token = self.config.admin_token
        if token is not None and payload.get("token") != token:
            return "admin op requires a valid 'token'"
        return None

    async def _reload(self, checkpoint: str) -> dict:
        """Swap checkpoints without dropping a single queued request.

        Barrier order is the whole semantics: close the dispatch gate,
        wait for in-flight jobs only (queued items stay queued), reload
        every worker, reopen.  Everything still queued is then answered
        by the new model.
        """
        async with self._admin_lock:
            self._gate.clear()
            loop = asyncio.get_running_loop()
            try:
                await self._idle.wait()
                acks = await loop.run_in_executor(
                    None, self.supervisor.reload, checkpoint)
                self.checkpoint = checkpoint
                self.router.forget()
                self._counters["reloads"] += 1
            finally:
                self._gate.set()
                for w in range(self.config.workers):
                    self._wake[w].set()
        return {"ok": True, "status": "reloaded",
                "checkpoint": checkpoint, "workers": acks}

    async def _drain(self) -> int:
        """Stop admitting and wait out every queued item."""
        self._draining = True
        remaining = self._queued
        await self._drained.wait()
        return remaining

    def _stats(self) -> dict:
        queues = [{"warm": len(self._warm[w]), "cold": len(self._cold[w])}
                  for w in range(self.config.workers)]
        return {
            "service": {**self._counters,
                        "workers": self.config.workers,
                        "queued": self._queued,
                        "inflight": self._inflight,
                        "worker_restarts": self.supervisor.restarts,
                        "degraded": bool(getattr(self.supervisor,
                                                 "degraded", False)),
                        "draining": self._draining,
                        "checkpoint": self.checkpoint},
            "router": self.router.stats(),
            "queues": queues,
        }

    # -- connection handling ---------------------------------------------
    async def _writer_loop(self, conn: _Connection) -> None:
        while True:
            entry = await conn.outbox.get()
            if entry is None:
                return
            reply, result = entry
            try:
                conn.writer.write((json.dumps(reply) + "\n").encode())
                await conn.writer.drain()
            except (ConnectionError, OSError):
                conn.alive = False
                if result:
                    self._counters["discarded"] += 1
                return
            if result:
                self._counters["delivered"] += 1

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer=writer)
        writer_task = asyncio.create_task(self._writer_loop(conn))
        try:
            await self._session(conn, reader)
        finally:
            conn.alive = False
            conn.outbox.put_nowait(None)
            # Let the writer drain what it already has (acks for the
            # session's last ops), then close.
            try:
                await asyncio.wait_for(writer_task, timeout=5.0)
            except (TimeoutError, asyncio.CancelledError):
                writer_task.cancel()
            while not conn.outbox.empty():  # results the writer never wrote
                entry = conn.outbox.get_nowait()
                if entry is not None and entry[1]:
                    self._counters["discarded"] += 1
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _session(self, conn: _Connection,
                       reader: asyncio.StreamReader) -> None:
        """One connection's read loop; a malformed line costs only itself."""
        while True:
            try:
                line = await _read_line(reader)
            except ConnectionError:
                return  # the client's socket broke: a disconnect
            if line is None:
                conn.send({"ok": False,
                           "error": f"request line exceeds "
                                    f"{self.config.max_line_bytes} bytes"})
                continue
            if not line:
                return
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except ValueError as exc:  # bad JSON, or bytes that are not text
                conn.send({"ok": False, "error": f"invalid JSON: {exc}"})
                continue
            if not isinstance(payload, dict):
                conn.send({"ok": False,
                           "error": "request must be a JSON object"})
                continue
            if not await self._handle_op(conn, payload):
                return

    async def _handle_op(self, conn: _Connection, payload: dict) -> bool:
        """Answer one request; False ends the session (shutdown)."""
        op = payload.get("op", "predict")
        request_id = payload.get("id")
        version_error = protocol_version_error(payload)
        if version_error is not None:
            conn.send({"ok": False, "id": request_id,
                       "error": version_error})
            return True
        if op == "predict":
            conn.send(self._admit_predict(conn, payload))
        elif op == "flush":
            pending = [item.future for item in list(conn.outstanding)]
            if pending:
                await asyncio.wait(pending)
            conn.send({"ok": True, "status": "flushed",
                       "count": len(pending)})
        elif op == "stats":
            stats = self._stats()
            if payload.get("workers"):
                loop = asyncio.get_running_loop()
                stats["workers"] = await loop.run_in_executor(
                    None, self.supervisor.stats)
            conn.send({"ok": True, "stats": stats,
                       "server": server_identity()})
        elif op == "ping":
            conn.send({"ok": True, "status": "pong",
                       "server": server_identity()})
        elif op == "reload":
            error = self._admin_error(payload)
            checkpoint = payload.get("checkpoint")
            if error is None and not checkpoint:
                error = "reload needs a 'checkpoint' path"
            if error is not None:
                conn.send({"ok": False, "id": request_id, "error": error})
            else:
                conn.send(await self._reload(checkpoint))
        elif op == "shutdown":
            error = self._admin_error(payload)
            if error is not None:
                conn.send({"ok": False, "id": request_id, "error": error})
                return True
            drained = await self._drain()
            conn.send({"ok": True, "status": "shutting down",
                       "drained": drained})
            self._stopped.set()
            return False
        else:
            conn.send({"ok": False, "id": request_id,
                       "error": f"unknown op {op!r}"})
        return True


class _StreamWriter:
    """The slice of :class:`asyncio.StreamWriter` a session writes
    through, over a blocking text stream (stdout)."""

    def __init__(self, stream):
        self._stream = stream

    def write(self, data: bytes) -> None:
        self._stream.write(data.decode())
        self._stream.flush()

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass  # the stream belongs to the caller

    async def wait_closed(self) -> None:
        pass


async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next line (``b""`` at EOF), or None for a line over the limit.

    An over-long line is consumed through its newline, so the next read
    starts on the next request and the session keeps its framing.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial  # EOF, possibly after an unterminated line
    except asyncio.LimitOverrunError as exc:
        consumed = exc.consumed
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed


class _PumpFlow:
    """The transport half a :class:`asyncio.StreamReader` pauses and
    resumes; here it holds the stdin pump thread, so a session busy in
    ``flush`` buffers about twice its line limit, not all of stdin."""

    def __init__(self):
        self.open = threading.Event()
        self.open.set()

    def pause_reading(self) -> None:
        self.open.clear()

    def resume_reading(self) -> None:
        self.open.set()


def _stream_chunks(stream):
    """``stream``'s bytes, chunk by chunk, until EOF.

    A stream with a file descriptor is read with ``os.read``, which
    holds no lock of the stream object, so a thread still blocked on
    an open pipe cannot wedge interpreter exit after ``shutdown``.
    """
    try:
        fd = stream.fileno()
    except (OSError, ValueError):  # io.StringIO and other fd-less streams
        for line in stream:
            yield line.encode()
    else:
        yield from iter(functools.partial(os.read, fd, 1 << 16), b"")


def _pump_lines(stream, reader: asyncio.StreamReader, loop,
                flow: _PumpFlow) -> None:
    """Thread body: copy ``stream`` into ``reader`` until EOF.

    A read error (a closed or missing stdin, say) is handed to the
    session, which raises it.
    """
    try:
        try:
            for chunk in _stream_chunks(stream):
                loop.call_soon_threadsafe(reader.feed_data, chunk)
                flow.open.wait()
        except Exception as exc:  # the session raises it from its read
            loop.call_soon_threadsafe(reader.set_exception, exc)
        else:
            loop.call_soon_threadsafe(reader.feed_eof)
    except RuntimeError:
        pass  # the loop closed first: the session ended on shutdown
