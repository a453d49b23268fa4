"""Worker-process supervision for the serving service.

:class:`Supervisor` owns N engine worker *processes*.  Each worker
restores its own model replica from the checkpoint registry
(:func:`repro.serve.registry.restore_model`), builds a private
:class:`~repro.serve.engine.InferenceEngine` +
:class:`~repro.serve.server.DesignResolver`, and answers jobs over a
duplex pipe — so N workers really are N independent pythons doing
place-and-route and forward passes in parallel, not N threads fighting
over one GIL.

The supervisor's contract to the service layer:

* :meth:`dispatch` is a blocking, per-worker-serialised RPC.  A worker
  that *handled* an error (bad payload, engine exception) returns it as
  a :class:`WorkerError` — the job is answered, nothing restarts.  A
  worker that *died* (killed, segfault, hung past ``job_timeout_s``) is
  detected, restarted with the current checkpoint, and the in-flight
  job raises :class:`WorkerCrashed` so the caller can retry or fail the
  affected requests explicitly — never hang them.
* :meth:`reload` swaps the checkpoint in every worker (and in the spec
  used for future restarts); the caller is responsible for barriering
  in-flight jobs first.

Worker job protocol (pickled tuples over the pipe)::

    ("predict_batch", [payload, ...]) -> ("ok", [reply, ...])
    ("reload", checkpoint_path)       -> ("ok", {"status": "reloaded"})
    ("stats", None)                   -> ("ok", engine.stats())
    ("ping", None)                    -> ("ok", "pong")
    ("shutdown", None)                -> ("ok", "bye"), then exit

plus ``("_sleep", seconds)``, a test hook for exercising the hung-worker
watchdog without a real wedge.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from .engine import InferenceEngine, PredictRequest, ServeConfig

__all__ = ["Supervisor", "WorkerCrashed", "WorkerError", "WorkerSpec"]


class WorkerCrashed(RuntimeError):
    """A worker process died or hung while serving a job.

    By the time this is raised the worker has already been restarted
    (when possible), so the caller may retry the job immediately; the
    affected requests must be retried or failed explicitly.
    """

    def __init__(self, worker_id: int, reason: str):
        super().__init__(f"worker {worker_id} {reason}")
        self.worker_id = worker_id
        self.reason = reason


class WorkerError(RuntimeError):
    """A worker handled a job and reported an error (process is fine)."""


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to build its serving stack.

    Must stay picklable: it crosses the process boundary at spawn.
    ``dtype`` overrides the checkpoint's recorded compute dtype, exactly
    like ``repro.cli serve --dtype``.
    """

    checkpoint: str
    serve: ServeConfig = field(default_factory=ServeConfig)
    default_suite: str = "superblue"
    dtype: str | None = None


def _build_stack(spec: WorkerSpec):
    """(engine, resolver) for one worker, fresh from the checkpoint."""
    from .registry import restore_model
    from .server import DesignResolver
    model, _ = restore_model(spec.checkpoint, dtype=spec.dtype)
    engine = InferenceEngine(model, spec.serve)
    resolver = DesignResolver(spec.serve.pipeline,
                              default_suite=spec.default_suite)
    return engine, resolver


def _predict_batch(engine: InferenceEngine, resolver, payloads) -> list:
    """Answer one batch of predict payloads with per-request replies.

    A payload that fails to resolve or submit — for any reason — becomes
    its own error reply without polluting the batch; the valid remainder
    shares the engine's micro-batched flush.  Reply order matches payload
    order, and the engine queue is empty whenever this returns or
    raises, so no request can outlive its batch and be answered with a
    later batch's slot.
    """
    replies: list = [None] * len(payloads)
    queued: list[int] = []
    try:
        for i, payload in enumerate(payloads):
            request_id = payload.get("id")
            try:
                design = resolver.resolve(payload)
                engine.submit(PredictRequest(
                    design=design, channel=payload.get("channel", "h"),
                    request_id=request_id))
                queued.append(i)
            except Exception as exc:
                error = (str(exc) if isinstance(exc, (ValueError, TypeError))
                         else f"{type(exc).__name__}: {exc}")
                replies[i] = {"ok": False, "id": request_id,
                              "status": "failed", "error": error}
        for i, result in zip(queued, engine.flush()):
            replies[i] = {"ok": True, "id": result.request_id,
                          "result": result.to_json()}
    finally:
        engine.discard_pending()
    return replies


def _worker_main(conn, spec: WorkerSpec) -> None:
    """Worker process entry: serve pipe jobs until shutdown or EOF."""
    engine, resolver = _build_stack(spec)
    while True:
        try:
            op, payload = conn.recv()
        except (EOFError, OSError):
            return  # supervisor vanished; nothing to answer
        try:
            if op == "predict_batch":
                reply = _predict_batch(engine, resolver, payload)
            elif op == "reload":
                spec = dataclasses.replace(spec, checkpoint=payload)
                engine, resolver = _build_stack(spec)
                reply = {"status": "reloaded", "checkpoint": payload}
            elif op == "stats":
                reply = engine.stats()
            elif op == "ping":
                reply = "pong"
            elif op == "_sleep":  # watchdog test hook
                time.sleep(float(payload))
                reply = "slept"
            elif op == "shutdown":
                conn.send(("ok", "bye"))
                return
            else:
                conn.send(("error", f"unknown worker op {op!r}"))
                continue
            conn.send(("ok", reply))
        except Exception as exc:  # handled: the process stays up
            try:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            except (OSError, ValueError):
                return


@dataclass
class _WorkerHandle:
    process: multiprocessing.process.BaseProcess
    conn: object
    lock: threading.Lock = field(default_factory=threading.Lock)


class Supervisor:
    """Owns N engine worker processes; detects crashes and restarts.

    Thread-safe: each worker serialises its jobs behind a lock (one
    in-flight job per worker, many workers in parallel), so the asyncio
    service can dispatch from executor threads without coordination.
    """

    def __init__(self, spec: WorkerSpec, num_workers: int = 1,
                 job_timeout_s: float = 120.0,
                 start_method: str = "spawn", *,
                 restart_backoff_s: float = 0.1,
                 restart_backoff_cap_s: float = 5.0,
                 max_restarts: int = 5,
                 restart_window_s: float = 60.0):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.spec = spec
        self.num_workers = num_workers
        self.job_timeout_s = job_timeout_s
        self.restart_backoff_s = restart_backoff_s
        self.restart_backoff_cap_s = restart_backoff_cap_s
        self.max_restarts = max_restarts
        self.restart_window_s = restart_window_s
        self._ctx = multiprocessing.get_context(start_method)
        self._workers: list[_WorkerHandle | None] = [None] * num_workers
        self._spec_lock = threading.Lock()
        self.restarts = 0
        self._started = False
        # Per-worker crash-loop circuit breaker: recent restart times
        # within the window, and the open-breaker reason (None = closed).
        self._restart_times: list[deque] = [deque() for _ in
                                            range(num_workers)]
        self._broken: list[str | None] = [None] * num_workers

    # -- lifecycle -------------------------------------------------------
    def _spawn(self) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(target=_worker_main,
                                    args=(child_conn, self.spec),
                                    daemon=True)
        process.start()
        child_conn.close()  # the child holds its own copy
        return _WorkerHandle(process=process, conn=parent_conn)

    def start(self) -> None:
        """Spawn every worker (blocking until the processes exist).

        Workers finish restoring their model replicas asynchronously;
        the first dispatch to each simply waits on the pipe.
        """
        if self._started:
            return
        for i in range(self.num_workers):
            self._workers[i] = self._spawn()
        self._started = True

    def stop(self, timeout: float = 5.0) -> None:
        """Shut every worker down, escalating politely: op, then kill."""
        if not self._started:
            return
        for handle in self._workers:
            if handle is None:
                continue
            try:
                handle.conn.send(("shutdown", None))
            except (OSError, ValueError, BrokenPipeError):
                pass
        deadline = time.monotonic() + timeout
        for handle in self._workers:
            if handle is None:
                continue
            handle.process.join(max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout)
            handle.conn.close()
        self._workers = [None] * self.num_workers
        self._started = False
        self._restart_times = [deque() for _ in range(self.num_workers)]
        self._broken = [None] * self.num_workers

    def __enter__(self) -> "Supervisor":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _reap(self, worker_id: int) -> "_WorkerHandle | None":
        """Kill/join a worker's process and close its pipe; keep handle."""
        handle = self._workers[worker_id]
        if handle is not None:
            if handle.process.is_alive():
                handle.process.kill()
            handle.process.join(5.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        return handle

    def _respawn(self, worker_id: int,
                 old: "_WorkerHandle | None") -> None:
        fresh = self._spawn()
        # Keep the (held) per-worker lock object so queued dispatchers
        # proceed against the fresh pipe once the current one releases.
        fresh.lock = old.lock if old is not None else fresh.lock
        self._workers[worker_id] = fresh

    def _restart(self, worker_id: int) -> None:
        """Replace a dead/hung worker with a fresh one (current spec).

        Restarts back off exponentially (capped) and trip a per-worker
        circuit breaker after ``max_restarts`` within
        ``restart_window_s`` — a worker that can never come up (e.g. a
        corrupt checkpoint) must fail its jobs explicitly instead of
        burning CPU in a fork bomb.  ``reload`` closes the breaker.
        """
        handle = self._reap(worker_id)
        times = self._restart_times[worker_id]
        now = time.monotonic()
        while times and now - times[0] > self.restart_window_s:
            times.popleft()
        if len(times) >= self.max_restarts:
            self._broken[worker_id] = (
                f"circuit breaker open: {len(times)} restarts within "
                f"{self.restart_window_s:.0f}s; reload a good checkpoint "
                f"to recover")
            return
        if times:  # first restart in a quiet window is immediate
            time.sleep(min(self.restart_backoff_cap_s,
                           self.restart_backoff_s * (2 ** (len(times) - 1))))
        times.append(time.monotonic())
        self._respawn(worker_id, handle)
        self.restarts += 1

    @property
    def degraded(self) -> bool:
        """True while any worker's crash-loop circuit breaker is open."""
        return any(reason is not None for reason in self._broken)

    def broken_workers(self) -> dict[int, str]:
        """``{worker_id: reason}`` for every open circuit breaker."""
        return {i: reason for i, reason in enumerate(self._broken)
                if reason is not None}

    # -- job dispatch ----------------------------------------------------
    def dispatch(self, worker_id: int, op: str, payload=None,
                 timeout: float | None = None):
        """Blocking RPC to one worker; crash-detected and watchdogged.

        ``timeout`` overrides ``job_timeout_s`` for this one job.
        Raises :class:`WorkerError` for errors the worker reported
        (process healthy, job answered) and :class:`WorkerCrashed` when
        the process died or hung — in which case it has already been
        restarted before the exception propagates.  A worker whose
        crash-loop circuit breaker is open fails jobs immediately (the
        reason mentions the breaker) until :meth:`reload` revives it.
        """
        if not self._started:
            raise RuntimeError("Supervisor.dispatch before start()")
        timeout = self.job_timeout_s if timeout is None else timeout
        # _restart preserves the lock object across worker replacement,
        # so take the lock first and only then re-fetch the handle — a
        # dispatcher queued behind a crash must not talk to the dead pipe.
        lock = self._workers[worker_id].lock
        with lock:
            broken = self._broken[worker_id]
            if broken is not None:
                raise WorkerCrashed(worker_id, broken)
            handle = self._workers[worker_id]
            crash_reason = None
            try:
                handle.conn.send((op, payload))
                if not handle.conn.poll(timeout):
                    crash_reason = (f"hung past the {timeout}s "
                                    f"watchdog on op {op!r}")
                else:
                    status, value = handle.conn.recv()
            except (EOFError, OSError, BrokenPipeError) as exc:
                crash_reason = (f"died serving op {op!r} "
                                f"({type(exc).__name__})")
            if crash_reason is not None:
                self._restart(worker_id)
                raise WorkerCrashed(worker_id, crash_reason)
        if status == "error":
            raise WorkerError(value)
        return value

    # -- service-level operations ----------------------------------------
    def reload(self, checkpoint: str) -> list[dict]:
        """Swap the checkpoint in the spec and in every live worker.

        The caller (the service) barriers in-flight jobs first; a worker
        that crashes while reloading is restarted, and restarts always
        use the *new* spec, so every worker ends up on the new
        checkpoint either way.  Reload is also the recovery path for a
        worker whose circuit breaker opened: its breaker state is
        cleared and a fresh process comes up on the new checkpoint.
        """
        with self._spec_lock:
            self.spec = dataclasses.replace(self.spec, checkpoint=checkpoint)
        acks = []
        for worker_id in range(self.num_workers):
            if self._broken[worker_id] is not None:
                with self._workers[worker_id].lock:
                    self._restart_times[worker_id].clear()
                    self._broken[worker_id] = None
                    self._respawn(worker_id, self._workers[worker_id])
                acks.append({"status": "revived", "checkpoint": checkpoint})
                continue
            try:
                acks.append(self.dispatch(worker_id, "reload", checkpoint))
            except WorkerCrashed:
                # _restart already brought it back on the new spec.
                acks.append({"status": "restarted", "checkpoint": checkpoint})
        return acks

    def stats(self) -> list[dict]:
        """Per-worker engine stats (one blocking RPC per worker)."""
        out = []
        for worker_id in range(self.num_workers):
            if self._broken[worker_id] is not None:
                out.append({"error": self._broken[worker_id],
                            "broken": True})
                continue
            try:
                out.append(self.dispatch(worker_id, "stats"))
            except (WorkerCrashed, WorkerError) as exc:
                out.append({"error": str(exc)})
        return out

    def alive(self) -> list[bool]:
        """Liveness of each worker process (no RPC; process state only)."""
        return [h is not None and h.process.is_alive()
                for h in self._workers]
