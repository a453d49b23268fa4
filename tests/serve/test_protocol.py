"""Tests for the JSON-lines protocol as :class:`ServeService` speaks it.

Sessions run through the service's stdio front end
(:meth:`~repro.serve.ServeService.run_stdio`) or its TCP front end
(``run``, driven with :class:`~repro.serve.ServeClient`).  Both sit on
an in-process supervisor that answers batches with the workers' own
code (``_predict_batch`` over a real engine and resolver), so real
predictions cross the wire without spawning worker processes.
"""

import asyncio
import contextlib
import io
import json
import queue
import socket
import threading
import time

import numpy as np
import pytest

from repro.models.mlp_baseline import MLPBaseline
from repro.pipeline import PipelineConfig
from repro.serve import (DesignResolver, InferenceEngine, ServeClient,
                         ServeConfig, ServeError, ServeService, ServiceConfig,
                         WorkerError)
from repro.serve.server import PROTOCOL_VERSION
from repro.serve.supervisor import _predict_batch

TINY_SPEC = {"name": "wire-a", "seed": 5, "num_movable": 90,
             "die_size": 32.0}
TINY_SPEC_B = {"name": "wire-b", "seed": 6, "num_movable": 90,
               "die_size": 32.0}
TINY_SPEC_C = {"name": "wire-c", "seed": 7, "num_movable": 90,
               "die_size": 32.0}


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


@pytest.fixture
def engine():
    model = MLPBaseline(hidden=8, rng=np.random.default_rng(0))
    return InferenceEngine(model, ServeConfig())


@pytest.fixture
def resolver():
    return DesignResolver(PipelineConfig())


class InProcessSupervisor:
    """The supervisor contract, answered in-process by the worker code.

    ``hold``, when set to an unset :class:`threading.Event`, parks every
    predict batch until the event fires.
    """

    def __init__(self, engine, resolver):
        self.engine = engine
        self.resolver = resolver
        self.restarts = 0
        self.hold = None

    def start(self):
        pass

    def stop(self):
        pass

    def dispatch(self, worker_id, op, payload=None):
        if op == "predict_batch":
            if self.hold is not None:
                self.hold.wait(30)
            return _predict_batch(self.engine, self.resolver, payload)
        raise WorkerError(f"unknown worker op {op!r}")

    def stats(self):
        return [self.engine.stats()]


def make_service(engine, resolver, **config) -> ServeService:
    """A one-worker service over the in-process supervisor."""
    return ServeService(
        None, config=ServiceConfig(workers=1, **config),
        supervisor=InProcessSupervisor(engine, resolver))


@pytest.fixture
def service(engine, resolver):
    return make_service(engine, resolver)


def run_session(service, payloads):
    """Feed payload dicts (or raw strings) through one stdio session."""
    lines = "".join((p if isinstance(p, str) else json.dumps(p)) + "\n"
                    for p in payloads)
    out = io.StringIO()
    asyncio.run(service.run_stdio(io.StringIO(lines), out))
    return [json.loads(line) for line in out.getvalue().splitlines()]


@contextlib.contextmanager
def serving(service):
    """``service.run`` on an ephemeral TCP port in a background thread."""
    ports = queue.Queue()
    thread = threading.Thread(
        target=asyncio.run,
        args=(service.run("127.0.0.1", 0, ready_callback=ports.put),),
        daemon=True)
    thread.start()
    port = ports.get(timeout=30)
    try:
        yield port
    finally:
        if thread.is_alive() and not service._stopped.is_set():
            with contextlib.suppress(ServeError):
                with ServeClient.connect(port=port, retries=0) as client:
                    client.shutdown()
        thread.join(30)
        assert not thread.is_alive()


def track_sessions(service) -> threading.Semaphore:
    """A semaphore released each time one of ``service``'s sessions has
    ended, its writer finished and its results accounted for."""
    ended = threading.Semaphore(0)
    handle = service._handle_connection

    async def tracked(reader, writer):
        try:
            await handle(reader, writer)
        finally:
            ended.release()

    service._handle_connection = tracked
    return ended


def wait_for_stats(port, done, timeout=30.0) -> dict:
    """Poll service stats until ``done(stats)`` holds; returns them."""
    deadline = time.monotonic() + timeout
    with ServeClient.connect(port=port) as client:
        while True:
            stats = client.stats()["service"]
            if done(stats) or time.monotonic() > deadline:
                return stats
            time.sleep(0.02)


class TestLineProtocol:
    def test_ping(self, service):
        replies = run_session(service, [{"op": "ping"}])
        assert replies[0]["ok"] and replies[0]["status"] == "pong"
        assert not service._stopped.is_set()  # EOF, not shutdown

    def test_queue_then_flush(self, service):
        replies = run_session(service, [
            {"op": "predict", "id": 1, "spec": TINY_SPEC},
            {"op": "predict", "id": 2, "spec": TINY_SPEC_B},
            {"op": "flush"},
            {"op": "predict", "id": 3, "spec": TINY_SPEC},
            {"op": "predict", "id": 4, "spec": TINY_SPEC_B},
            {"op": "flush"},
        ])
        acks = [r for r in replies if r.get("status") == "queued"]
        results = [r for r in replies if "result" in r]
        summaries = [r for r in replies if r.get("status") == "flushed"]
        assert [a["id"] for a in acks] == [1, 2, 3, 4]
        # First-seen designs are cold and dispatch one at a time; the
        # repeats are warm and share one micro-batched forward pass.
        assert [a["lane"] for a in acks] == ["cold", "cold", "warm", "warm"]
        assert [r["id"] for r in results] == [1, 2, 3, 4]
        assert [r["result"]["batch_members"] for r in results] == \
            [1, 1, 2, 2]
        assert [r["result"]["cached"] for r in results] == \
            [False, False, True, True]
        grid = np.array(results[0]["result"]["grids"]["h"])
        assert grid.shape == (32, 32)
        assert summaries == [{"ok": True, "status": "flushed",
                              "count": 2}] * 2

    def test_flush_without_queue(self, service):
        replies = run_session(service, [{"op": "flush"}])
        assert replies == [{"ok": True, "status": "flushed", "count": 0}]

    def test_stats(self, service):
        replies = run_session(service, [{"op": "stats", "workers": True}])
        assert replies[0]["ok"]
        assert replies[0]["stats"]["service"]["workers"] == 1
        assert replies[0]["stats"]["workers"][0]["model_family"] == "mlp"

    def test_unknown_design_is_per_request_error(self, service):
        replies = run_session(service, [
            {"op": "predict", "id": 9, "design": "nope"},
            {"op": "flush"},
            {"op": "ping"},
        ])
        assert replies[0]["status"] == "queued"
        assert not replies[1]["ok"] and replies[1]["id"] == 9
        assert replies[1]["status"] == "failed"
        assert "unknown design" in replies[1]["error"]
        assert replies[-1]["status"] == "pong"  # session survived

    def test_bad_spec_is_per_request_error(self, service):
        bad_specs = [{"bogus": 1},
                     {"name": "z", "seed": 1, "num_movable": 0},
                     {"name": "z", "seed": 1, "num_movable": -5}]
        replies = run_session(service, [
            *({"op": "predict", "id": i, "spec": spec}
              for i, spec in enumerate(bad_specs)),
            {"op": "predict", "id": 3, "spec": TINY_SPEC},
            {"op": "flush"},
        ])
        answers = {r["id"]: r for r in replies
                   if "result" in r or r.get("status") == "failed"}
        for i in range(len(bad_specs)):
            assert not answers[i]["ok"]
            assert "bad design spec" in answers[i]["error"]
        # A valid batchmate is answered with its own result.
        assert answers[3]["result"]["name"] == "wire-a"

    def test_invalid_json_and_non_object(self, service):
        replies = run_session(service, ["not json", "[1, 2]"])
        assert not replies[0]["ok"] and "invalid JSON" in replies[0]["error"]
        assert not replies[1]["ok"] and "JSON object" in replies[1]["error"]

    def test_unknown_op(self, service):
        replies = run_session(service, [{"op": "dance"}])
        assert not replies[0]["ok"] and "unknown op" in replies[0]["error"]

    def test_shutdown_ends_loop(self, service):
        replies = run_session(service, [{"op": "shutdown"}, {"op": "ping"}])
        assert service._stopped.is_set()
        assert replies == [{"ok": True, "status": "shutting down",
                            "drained": 0}]  # nothing after shutdown


class TestProtocolVersion:
    def test_ping_and_stats_carry_server_identity(self, service):
        import repro
        replies = run_session(service, [{"op": "ping"}, {"op": "stats"}])
        for reply in replies:
            server = reply["server"]
            assert server["name"] == "repro-serve"
            assert server["version"] == repro.__version__
            assert server["protocol_version"] == PROTOCOL_VERSION
            assert server["mode"] == "service"

    def test_current_and_older_versions_accepted(self, service):
        replies = run_session(service, [
            {"op": "ping", "protocol_version": PROTOCOL_VERSION},
            {"op": "ping", "protocol_version": 1},
        ])
        assert all(r["status"] == "pong" for r in replies)

    def test_newer_version_rejected_per_request(self, service):
        replies = run_session(service, [
            {"op": "predict", "id": 4, "spec": TINY_SPEC,
             "protocol_version": PROTOCOL_VERSION + 1},
            {"op": "ping"},
        ])
        assert not replies[0]["ok"] and replies[0]["id"] == 4
        assert "newer than this server's" in replies[0]["error"]
        assert replies[1]["status"] == "pong"  # session survived

    def test_non_integer_version_rejected(self, service):
        replies = run_session(service, [
            {"op": "ping", "protocol_version": bad}
            for bad in ("2", 2.5, True)])
        assert len(replies) == 3
        for reply in replies:
            assert not reply["ok"]
            assert "must be an integer" in reply["error"]


class ChunkedStream(io.StringIO):
    """An fd-less stdin whose reads yield ``chunks`` as given, so a line
    can arrive in pieces; an exception in ``chunks`` is raised by the
    read that reaches it."""

    def __init__(self, chunks):
        super().__init__()
        self.chunks = chunks

    def __iter__(self):
        for chunk in self.chunks:
            if isinstance(chunk, Exception):
                raise chunk
            yield chunk


class TestOversizedLines:
    def test_oversized_line_is_rejected_not_buffered(self, engine,
                                                     resolver):
        service = make_service(engine, resolver, max_line_bytes=1024)
        replies = run_session(service, [
            json.dumps({"op": "ping", "pad": "x" * 4096}),
            {"op": "ping"}])
        assert not replies[0]["ok"]
        assert "exceeds 1024 bytes" in replies[0]["error"]
        # Only the oversized line is dropped; the session carries on.
        assert replies[1]["status"] == "pong"
        assert len(replies) == 2

    def test_oversized_line_in_pieces_is_skipped_whole(self, engine,
                                                       resolver):
        # The newline arrives long after the limit is passed, so the
        # reader must drop the line's head and then its tail.
        service = make_service(engine, resolver, max_line_bytes=1024)
        ping = json.dumps({"op": "ping"}) + "\n"
        chunks = [ping, '{"op": "ping", "pad": "', *["x" * 700] * 6,
                  '"}\n', ping]
        out = io.StringIO()
        asyncio.run(service.run_stdio(ChunkedStream(chunks), out))
        replies = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r.get("status") for r in replies] == ["pong", None, "pong"]
        assert "exceeds 1024 bytes" in replies[1]["error"]


class TestStdinErrors:
    def test_read_error_ends_session_and_is_raised(self, service):
        ping = json.dumps({"op": "ping"}) + "\n"
        out = io.StringIO()
        with pytest.raises(OSError, match="stdin went away"):
            asyncio.run(service.run_stdio(
                ChunkedStream([ping, OSError("stdin went away"), ping]),
                out))
        # The line before the error was answered; nothing after it.
        assert [json.loads(line)["status"]
                for line in out.getvalue().splitlines()] == ["pong"]


class TestFlushDelivery:
    """A client that dies before its results are written leaves exact
    accounting and nothing behind for the next client."""

    def queue_two_and_die(self, port, flush: bool) -> None:
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=30) as conn:
            lines = [{"op": "predict", "id": i, "spec": spec}
                     for i, spec in ((1, TINY_SPEC), (2, TINY_SPEC_B))]
            if flush:
                lines.append({"op": "flush"})
            conn.sendall("".join(json.dumps(p) + "\n"
                                 for p in lines).encode())
            reader = conn.makefile("r", encoding="utf-8")
            assert [json.loads(reader.readline())["status"]
                    for _ in range(2)] == ["queued", "queued"]
            reader.close()

    def test_mid_flush_death_accounts_for_results(self, engine, resolver,
                                                  caplog):
        service = make_service(engine, resolver)
        ended = track_sessions(service)
        service.supervisor.hold = threading.Event()
        with serving(service) as port:
            self.queue_two_and_die(port, flush=True)
            service.supervisor.hold.set()
            assert ended.acquire(timeout=30)
            stats = wait_for_stats(port, lambda s: s["queued"] == 0)
            # The session waits in flush, so it learns of the death
            # only when a write fails.  A write the dead peer's kernel
            # still took counts as delivered; the failed write and
            # everything after it count as discarded, none uncounted.
            assert stats["admitted"] == 2
            assert stats["discarded"] >= 1
            assert stats["delivered"] + stats["discarded"] == 2
            assert engine.pending == 0
        # The broken socket ended the session quietly, not as an
        # unhandled exception in the connection task.
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_partial_delivery_counts_delivered(self, engine, resolver):
        service = make_service(engine, resolver)
        ended = track_sessions(service)
        with serving(service) as port:
            with ServeClient.connect(port=port) as client:
                client.predict(spec=TINY_SPEC)
                [first] = client.flush()
                assert first["result"]["name"] == "wire-a"
                service.supervisor.hold = threading.Event()
                client.predict(spec=TINY_SPEC_B)
            assert ended.acquire(timeout=30)  # the service saw it leave
            service.supervisor.hold.set()
            stats = wait_for_stats(port, lambda s: s["queued"] == 0)
            assert stats["delivered"] == 1
            assert stats["discarded"] == 1

    def test_engine_queue_is_clean_after_delivery_failure(self, engine,
                                                          resolver):
        service = make_service(engine, resolver)
        service.supervisor.hold = threading.Event()
        with serving(service) as port:
            self.queue_two_and_die(port, flush=False)
            service.supervisor.hold.set()
            wait_for_stats(port, lambda s: s["queued"] == 0)
            # The dead client's requests must not leak into a later
            # session's flush.
            with ServeClient.connect(port=port) as client:
                assert client.flush() == []
                client.predict(spec=TINY_SPEC_C, request_id="c")
                [reply] = client.flush()
                assert reply["id"] == "c"
                assert reply["result"]["name"] == "wire-c"
            assert engine.pending == 0


class TestFuzzSessions:
    """Malformed traffic has session-only blast radius."""

    GARBAGE = ["not json", "[1, 2]", '"just a string"', "42", "null",
               "{}", '{"op": []}', '{"op": "predict", "spec": 7}',
               '{"op": "predict", "channel": {"a": 1}}',
               '{"op": "dance"}', '{"op": ""}',
               '{"op": "predict", "spec": {"bogus": true}}',
               '{"id": 1}', "\x00\x01\x02", "{" * 200]

    def test_garbage_lines_never_kill_the_loop(self, service):
        replies = run_session(
            service, self.GARBAGE + [{"op": "flush"}, {"op": "ping"}])
        assert not service._stopped.is_set()
        assert replies[-1]["status"] == "pong"
        # One error per garbage line (the bogus spec is admitted, then
        # fails in the worker); nothing else went wrong.
        errors = [r for r in replies if not r["ok"]]
        assert len(errors) == len(self.GARBAGE)
        assert all(r["error"] for r in errors)

    def test_non_utf8_line_is_a_per_line_error(self, service):
        with serving(service) as port:
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=30) as conn:
                conn.sendall(b'\xff\xfe\n\x80abc\n{"op": "ping"}\n')
                reader = conn.makefile("r", encoding="utf-8")
                replies = [json.loads(reader.readline()) for _ in range(3)]
                reader.close()
        assert [r["ok"] for r in replies] == [False, False, True]
        assert all("invalid JSON" in r["error"] for r in replies[:2])
        assert replies[2]["status"] == "pong"

    def test_mid_line_disconnect_only_kills_its_session(self, service):
        with serving(service) as port:
            # A client that dies mid-line (no newline, no valid JSON
            # prefix).
            for fragment in (b'{"op": "pred', b'{"op": "ping"}\n{"x'):
                rude = socket.create_connection(("127.0.0.1", port),
                                                timeout=10)
                rude.sendall(fragment)
                rude.close()
            with ServeClient.connect(port=port) as client:
                assert client.ping()
                client.shutdown()


class TestResolver:
    def test_suite_design_resolution(self, resolver):
        design = resolver.resolve({"design": "superblue5"})
        assert design.name == "superblue5"
        # Suites are instantiated once and indexed.
        assert resolver.resolve({"design": "superblue5"}) is design

    def test_missing_reference(self, resolver):
        with pytest.raises(ValueError, match="needs 'design'"):
            resolver.resolve({})

    def test_unknown_suite(self, resolver):
        with pytest.raises(ValueError, match="unknown workload"):
            resolver.resolve({"suite": "nope", "design": "x"})

    @pytest.mark.parametrize("num_movable", [0, -5])
    def test_bad_spec_values(self, resolver, num_movable):
        with pytest.raises(ValueError, match="bad design spec: "
                                             "num_movable must be >= 1"):
            resolver.resolve({"spec": {"name": "z", "seed": 1,
                                       "num_movable": num_movable}})


class TestSocketRoundTrip:
    def test_client_server_session(self, service):
        with serving(service) as port:
            with ServeClient.connect(port=port) as client:
                assert client.ping()
                ack = client.predict(spec=TINY_SPEC)
                assert ack["status"] == "queued"
                results = client.flush()
                assert len(results) == 1
                assert results[0]["result"]["name"] == "wire-a"
                assert client.stats(workers=True)["workers"][0][
                    "requests"] == 1
                client.predict(design="nope")
                [failed] = client.flush()
                assert failed["status"] == "failed"
                assert "unknown design" in failed["error"]
                # Queue a request and disconnect without flushing: it
                # must not leak into the next connection's flush.
                client.predict(spec=TINY_SPEC_B)
            # A client that fires requests and vanishes without reading
            # its replies must not take the server down.
            rude = socket.create_connection(("127.0.0.1", port),
                                            timeout=10)
            rude.sendall((json.dumps({"op": "predict", "spec": TINY_SPEC})
                          + "\n" + json.dumps({"op": "flush"})
                          + "\n").encode())
            rude.close()
            with ServeClient.connect(port=port) as client:
                assert client.ping()
                assert client.flush() == []
                client.shutdown()
