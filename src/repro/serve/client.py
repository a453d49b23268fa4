"""Python clients for the serving service.

Two clients for the JSON-lines protocol of
:class:`~repro.serve.service.ServeService`:

* :class:`ServeClient` is blocking and speaks the protocol over a TCP
  socket (or any reader/writer pair) — use against a long-lived
  ``repro.cli serve --port`` process; results the service pushes
  before the flush are stashed and returned by the next flush;
* :class:`AsyncServeClient` is asyncio-native — many in-flight
  predictions over one connection, results awaited per request; the
  sustained-load benches drive the service with it.

Both follow the queue-then-flush model::

    client.predict(design="superblue5")        # queued
    client.predict(design="superblue7")        # queued
    results = client.flush()                   # one batched forward pass
"""

from __future__ import annotations

import asyncio
import json
import socket
import time

__all__ = ["AsyncServeClient", "ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """A request the server answered with ``ok: false`` — or never
    answered at all (dead server, connect/read timeout)."""


def _is_push(reply: dict) -> bool:
    """Whether a reply line is an async per-request answer.

    The service delivers results (and per-request failures) whenever
    they are ready, interleaved with op acks; both shapes are
    recognisable without tracking ids: results carry ``result``,
    failures ``status: "failed"``.
    """
    return "result" in reply or reply.get("status") == "failed"


class ServeClient:
    """Blocking JSON-lines protocol client.

    Construct with a connected ``reader``/``writer`` pair, or use
    :meth:`connect` for TCP — which retries with exponential backoff
    and arms a read timeout, so a dead or wedged server produces a
    :class:`ServeError` instead of blocking the caller forever.  Result
    lines the service pushes asynchronously are stashed and returned by
    the next :meth:`flush`.  Not thread-safe (one in-flight exchange at
    a time).
    """

    def __init__(self, reader, writer, *, close=None):
        self._reader = reader
        self._writer = writer
        self._close = close
        self._next_id = 0
        self._pushed: list[dict] = []
        self._timeout: float | None = None

    @classmethod
    def connect(cls, port: int, host: str = "127.0.0.1",
                timeout: float = 30.0, retries: int = 2,
                backoff: float = 0.25) -> "ServeClient":
        """Open a TCP connection to a ``repro.cli serve`` server.

        Tries ``1 + retries`` times with exponentially growing pauses
        (``backoff``, ``2*backoff``, ...); ``timeout`` bounds both each
        connect attempt and every subsequent reply read.
        """
        delay = backoff
        last_error: Exception | None = None
        for attempt in range(1 + max(0, retries)):
            if attempt:
                time.sleep(delay)
                delay *= 2
            try:
                sock = socket.create_connection((host, port),
                                                timeout=timeout)
                break
            except OSError as exc:
                last_error = exc
        else:
            raise ServeError(
                f"cannot connect to {host}:{port} after "
                f"{1 + max(0, retries)} attempt(s): {last_error}")
        sock.settimeout(timeout)
        reader = sock.makefile("r", encoding="utf-8")
        writer = sock.makefile("w", encoding="utf-8")

        def close():
            reader.close()
            writer.close()
            sock.close()
        client = cls(reader, writer, close=close)
        client._timeout = timeout
        return client

    # -- plumbing --------------------------------------------------------
    def _send(self, payload: dict) -> None:
        self._writer.write(json.dumps(payload) + "\n")
        self._writer.flush()

    def _read_line(self) -> dict:
        try:
            line = self._reader.readline()
        except TimeoutError:
            raise ServeError(
                f"timed out after {self._timeout}s waiting for a reply; "
                f"the server may be dead or overloaded") from None
        if not line:
            raise ServeError("server closed the connection")
        return json.loads(line)

    def _recv(self) -> dict:
        """The next *op* reply, stashing any interleaved result pushes."""
        while True:
            reply = self._read_line()
            if _is_push(reply):
                self._pushed.append(reply)
                continue
            if not reply.get("ok", False):
                raise ServeError(reply.get("error",
                                           "unknown server error"))
            return reply

    def _rpc(self, payload: dict) -> dict:
        self._send(payload)
        return self._recv()

    # -- protocol surface -------------------------------------------------
    def predict(self, design: str | None = None, suite: str | None = None,
                spec: dict | None = None, channel: str = "h",
                request_id=None) -> dict:
        """Queue one prediction; returns the server's ack.

        Reference a suite design (``design=``, optional ``suite=``) or
        pass an inline generator ``spec``.  The actual result arrives
        with the next :meth:`flush`.
        """
        if request_id is None:
            self._next_id += 1
            request_id = self._next_id
        payload = {"op": "predict", "id": request_id, "channel": channel}
        if spec is not None:
            payload["spec"] = spec
        if design is not None:
            payload["design"] = design
        if suite is not None:
            payload["suite"] = suite
        return self._rpc(payload)

    def flush(self) -> list[dict]:
        """Answer every queued request; returns results as they arrived.

        Results stream back before the flush summary; some may already
        have been pushed (auto-flush deadline) and stashed — both end up
        here.  Failed per-request replies (``status: "failed"``) are
        returned alongside successes, not raised: one bad request must
        not hide the other results.
        """
        self._send({"op": "flush"})
        results, self._pushed = self._pushed, []
        while True:
            reply = self._read_line()
            if _is_push(reply):
                results.append(reply)
                continue
            if not reply.get("ok", False):
                raise ServeError(reply.get("error",
                                           "unknown server error"))
            if reply.get("status") == "flushed":
                return results

    def stats(self, workers: bool = False) -> dict:
        """Service counters (``workers=True`` adds per-worker engines)."""
        payload = {"op": "stats"}
        if workers:
            payload["workers"] = True
        return self._rpc(payload)["stats"]

    def ping(self) -> bool:
        return self._rpc({"op": "ping"}).get("status") == "pong"

    def server_info(self) -> dict:
        """The server identity block: name, version, protocol, mode."""
        return self._rpc({"op": "ping"}).get("server", {})

    def reload(self, checkpoint: str, token: str | None = None) -> dict:
        """Swap the served checkpoint without dropping queued requests."""
        payload = {"op": "reload", "checkpoint": checkpoint}
        if token is not None:
            payload["token"] = token
        return self._rpc(payload)

    def shutdown(self, token: str | None = None) -> None:
        """Stop the server once its queued requests are drained."""
        payload = {"op": "shutdown"}
        if token is not None:
            payload["token"] = token
        try:
            self._rpc(payload)
        finally:
            self.close()

    def close(self) -> None:
        if self._close is not None:
            self._close()
            self._close = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class AsyncServeClient:
    """Asyncio client for the service protocol.

    A background reader task demultiplexes the connection: op acks are
    answered in send order (predict/flush/stats/... each await their
    ack under a send lock), while asynchronously pushed per-request
    results resolve futures keyed by request id — so many coroutines
    can have predictions in flight over one connection::

        client = await AsyncServeClient.connect(port)
        reply = await client.predict(spec={...})      # ack + result
        await client.close()

    Ids are assigned by the client and must stay unique per connection;
    callers passing their own ``request_id`` own that guarantee.
    """

    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer
        self._pending: dict[object, asyncio.Future] = {}
        self._next_id = 0
        self._acks: asyncio.Queue = asyncio.Queue()
        self._send_lock = asyncio.Lock()
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect(cls, port: int,
                      host: str = "127.0.0.1") -> "AsyncServeClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        while True:
            line = await self._reader.readline()
            if not line:
                break
            try:
                reply = json.loads(line)
            except json.JSONDecodeError:
                continue
            if _is_push(reply):
                future = self._pending.pop(reply.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(reply)
            else:
                await self._acks.put(reply)
        # EOF: fail everything still waiting, loudly.
        error = ServeError("server closed the connection")
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()
        await self._acks.put(None)

    async def _request(self, payload: dict) -> dict:
        """Send one op and await its ack (send order == ack order)."""
        async with self._send_lock:
            self._writer.write((json.dumps(payload) + "\n").encode())
            await self._writer.drain()
            ack = await self._acks.get()
        if ack is None:
            raise ServeError("server closed the connection")
        return ack

    async def predict(self, design: str | None = None,
                      suite: str | None = None, spec: dict | None = None,
                      channel: str = "h", request_id=None,
                      wait: bool = True):
        """Queue one prediction; with ``wait`` also await its result.

        Returns the result reply dict (``wait=True``), or the tuple
        ``(ack, future)`` so the caller can fan out (``wait=False``).
        A rejected request (backpressure, bad reference) returns the
        rejecting ack either way — check ``reply["ok"]``.
        """
        if request_id is None:
            self._next_id += 1
            request_id = self._next_id
        payload = {"op": "predict", "id": request_id, "channel": channel}
        if spec is not None:
            payload["spec"] = spec
        if design is not None:
            payload["design"] = design
        if suite is not None:
            payload["suite"] = suite
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        ack = await self._request(payload)
        if not ack.get("ok", False):
            self._pending.pop(request_id, None)
            future.cancel()
            return ack
        if not wait:
            return ack, future
        return await future

    async def flush(self) -> dict:
        """Force buffered batches and barrier this connection's requests."""
        return await self._request({"op": "flush"})

    async def stats(self, workers: bool = False) -> dict:
        payload = {"op": "stats"}
        if workers:
            payload["workers"] = True
        return (await self._request(payload))["stats"]

    async def ping(self) -> dict:
        return await self._request({"op": "ping"})

    async def reload(self, checkpoint: str,
                     token: str | None = None) -> dict:
        payload = {"op": "reload", "checkpoint": checkpoint}
        if token is not None:
            payload["token"] = token
        return await self._request(payload)

    async def shutdown(self, token: str | None = None) -> dict:
        payload = {"op": "shutdown"}
        if token is not None:
            payload["token"] = token
        return await self._request(payload)

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncServeClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
