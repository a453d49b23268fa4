"""``repro.serve`` — the batched congestion-inference serving layer.

Everything the paper's end use (fast congestion prediction inside a
placement loop) needs as a *service* rather than a one-shot script:

* :mod:`~repro.serve.registry` — typed architecture metadata in
  checkpoints; any model family restores deterministically from file,
* :mod:`~repro.serve.engine` — request queueing, on-demand pipeline
  preparation with a content-addressed warm cache, and dynamic
  micro-batching into block-diagonal supergraph forward passes,
* :mod:`~repro.serve.service` / :mod:`~repro.serve.supervisor` — the
  one wire front end: an asyncio JSON-lines service (TCP or
  stdin/stdout) over N supervised engine-worker processes,
* :mod:`~repro.serve.server` / :mod:`~repro.serve.client` — the
  protocol helpers and the matching Python clients.

Entry points: ``repro.cli serve`` (the long-lived service),
``repro.cli predict`` (one-shot through the same engine), or in
Python::

    from repro.serve import InferenceEngine, PredictRequest, restore_model
    model, meta = restore_model("artifacts/lhnn.npz")
    engine = InferenceEngine(model)
    engine.submit(PredictRequest(design=design_a))
    engine.submit(PredictRequest(design=design_b))
    results = engine.flush()          # one batched forward pass
"""

from .cache import SampleCache
from .client import AsyncServeClient, ServeClient, ServeError
from .engine import InferenceEngine, PredictRequest, PredictResult, ServeConfig
from .registry import (attach_runtime, family_of, get_family, get_runtime,
                       list_families, output_channels, restore_model,
                       save_model)
from .router import Router
from .server import DesignResolver, protocol_version_error, server_identity
from .service import ServeService, ServiceConfig
from .supervisor import Supervisor, WorkerCrashed, WorkerError, WorkerSpec

__all__ = [
    "SampleCache",
    "AsyncServeClient", "ServeClient", "ServeError",
    "InferenceEngine", "PredictRequest", "PredictResult", "ServeConfig",
    "attach_runtime", "family_of", "get_family", "get_runtime",
    "list_families", "output_channels", "restore_model", "save_model",
    "DesignResolver", "protocol_version_error", "server_identity",
    "Router",
    "ServeService", "ServiceConfig",
    "Supervisor", "WorkerCrashed", "WorkerError", "WorkerSpec",
]
