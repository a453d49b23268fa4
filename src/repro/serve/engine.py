"""The batched congestion-inference engine.

:class:`InferenceEngine` is the serving core behind each
``repro.cli serve`` worker (and ``repro.cli predict``): it accepts
prediction requests — a raw :class:`~repro.circuit.design.Design` that
still needs the place → route → graph pipeline, or an already-prepared
:class:`~repro.graph.lhgraph.LHGraph` — queues them, and answers a whole
queue with as few forward passes as possible:

* **preparation on demand** — raw designs run through the PR 2 staged
  pipeline (:func:`repro.pipeline.prepare_design`), honouring its
  per-stage on-disk cache; the finished, standardised
  :class:`~repro.data.dataset.GraphSample` is kept in an in-memory
  :class:`~repro.serve.cache.SampleCache` keyed by the content-addressed
  graph stage key, so a warm request does **zero** placement/routing work
  (tests assert this via :data:`repro.pipeline.stages.STAGE_CALLS`);
* **dynamic micro-batching** — at :meth:`~InferenceEngine.flush`, queued
  requests are grouped by :func:`repro.graph.batch.plan_batches`
  (compatible grid height, bounded batch size) and each group is one
  block-diagonal supergraph forward pass via
  :func:`repro.data.dataset.collate_samples`; per-request predictions are
  split back with :func:`repro.graph.batch.unbatch_values`;
* **model-family agnosticism** — any registry family (LHNN, GridSAGE,
  MLP, U-Net, Pix2Pix) serves through the shared
  :func:`repro.train.trainer.predict_probs` forward helper.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from time import perf_counter as _perf_counter

import numpy as np

from ..circuit.design import Design
from ..perf import PERF
from ..data.dataset import GraphSample, collate_samples, sample_of
from ..graph.batch import plan_batches, unbatch_values
from ..graph.lhgraph import LHGraph
from ..nn import no_grad
from ..nn.layers import Module
from ..pipeline import PipelineConfig, prepare_design
from ..pipeline.cache import StageCache, default_cache_dir
from ..pipeline.runner import stage_keys_for
from ..train.trainer import predict_probs
from .cache import SampleCache
from .registry import family_of, model_dtype, output_channels

__all__ = ["ServeConfig", "PredictRequest", "PredictResult",
           "InferenceEngine"]

#: Channel selector → label/output column. ``both`` expands to all
#: columns the checkpoint provides.
_CHANNEL_COLUMNS = {"h": 0, "v": 1}


@dataclass
class ServeConfig:
    """Knobs of the serving engine.

    ``pipeline`` configures on-demand preparation of raw designs (and
    its fingerprints key both cache tiers); ``max_batch`` bounds how many
    designs share one block-diagonal forward pass; ``sample_cache``
    sizes the in-memory prepared-sample LRU; ``threshold`` binarises
    probabilities for the predicted congestion rate in results;
    ``cache_dir`` overrides the on-disk stage-cache root (default:
    ``REPRO_CACHE_DIR`` / ``~/.cache/repro-lhnn``, or none at all when
    ``pipeline.use_cache`` is off).
    """

    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    max_batch: int = 8
    sample_cache: int = 64
    threshold: float = 0.5
    cache_dir: str | None = None


@dataclass
class PredictRequest:
    """One queued prediction: a design *or* a prepared graph.

    ``channel`` selects the congestion direction(s) to report: ``"h"``,
    ``"v"`` (rejected unless the checkpoint is duo-channel), or
    ``"both"`` — every channel the checkpoint provides, i.e. H and V
    for duo-channel models, H alone for uni-channel ones.
    ``request_id`` is an opaque caller tag echoed in the result (the
    JSON protocol uses it to correlate replies).
    """

    design: Design | None = None
    graph: LHGraph | None = None
    channel: str = "h"
    request_id: object = None

    @property
    def name(self) -> str:
        if self.design is not None:
            return self.design.name
        return self.graph.name if self.graph is not None else "<empty>"


@dataclass
class PredictResult:
    """Per-request serving answer.

    ``grids`` maps channel name → predicted probability grid (nx, ny);
    ``truth`` carries the matching label grids when the pipeline
    extracted them (absent for unlabelled graphs); ``cached`` is True
    when the prepared sample came from the warm in-memory cache;
    ``batch_members`` counts the designs that shared this request's
    forward pass.
    """

    name: str
    request_id: object
    channel: str
    grids: dict[str, np.ndarray]
    predicted_rate: dict[str, float]
    truth: dict[str, np.ndarray] | None
    cached: bool
    batch_members: int

    def to_json(self) -> dict:
        """JSON-serialisable payload for the line protocol."""
        payload = {
            "name": self.name,
            "channel": self.channel,
            "grids": {ch: np.round(g, 6).tolist()
                      for ch, g in self.grids.items()},
            "predicted_rate": self.predicted_rate,
            "cached": self.cached,
            "batch_members": self.batch_members,
        }
        if self.truth is not None:
            payload["truth"] = {ch: np.asarray(g).tolist()
                                for ch, g in self.truth.items()}
        return payload


@dataclass
class _Pending:
    request: PredictRequest
    sample: GraphSample
    cached: bool
    key: str | None  # content-addressed graph stage key; None for graph=


class InferenceEngine:
    """Micro-batching congestion-inference engine over one model.

    Thread-unsafe by design (one engine per serving loop); the
    interesting concurrency — many requests per forward pass — happens
    through :meth:`submit` + :meth:`flush`, not threads.
    """

    def __init__(self, model: Module, config: ServeConfig | None = None):
        self.model = model
        self.model.eval()
        self.config = config or ServeConfig()
        self.family = family_of(model).name
        self.channels = output_channels(model)
        # Samples are materialised in the model's compute dtype, so a
        # float32 checkpoint serves float32 end to end (the graph
        # operators cast lazily and memoised inside spmm).
        self.dtype = model_dtype(model)
        # Block-diagonal batching keeps *graph* families independent by
        # construction (operators never couple dies) and the MLP is
        # row-local, but the CNN families see the collated side-by-side
        # image: a 3×3 conv would read across the die seam and
        # contaminate predictions near the boundary.  Serve those one
        # forward pass per request.
        self._batchable = self.family in ("lhnn", "gridsage", "mlp")
        pipeline = self.config.pipeline
        root = self.config.cache_dir or (
            default_cache_dir() if pipeline.use_cache else None)
        self.stage_cache = StageCache(root)
        self.samples = SampleCache(self.config.sample_cache)
        # Steady-state serving answers the same warm designs over and
        # over (e.g. a placement loop polling its candidates); memoising
        # the block-diagonal compositions by batch membership makes a
        # repeat flush pure forward-pass work.  Serving samples are
        # transient — LRU-evicted, or never cached at all for graph=
        # requests — so compositions are keyed by the members'
        # *content-addressed* graph stage keys: same key tuple ⇒ same
        # content ⇒ the memoised collation is valid even after the
        # original sample objects are gone.
        self._collated: OrderedDict[tuple, GraphSample] = OrderedDict()
        self._collated_hits = 0
        self._collated_misses = 0
        # Content-addressing a design (SHA-256 over its arrays and the
        # canonical JSON of its names/metadata) costs more than a warm
        # forward pass on small designs, so the graph stage key is
        # memoised per design *object*.  Entries hold a strong reference
        # to the design, so an id() can never be recycled while its key
        # is alive; the engine assumes callers do not mutate a design
        # between requests (the pipeline itself never mutates it —
        # preparation places a copy).
        self._key_memo: OrderedDict[int, tuple[Design, str]] = OrderedDict()
        self._pending: list[_Pending] = []
        self._counters = {"requests": 0, "flushes": 0, "forward_passes": 0,
                          "designs_prepared": 0}

    # -- request intake -------------------------------------------------
    def _columns_for(self, channel: str) -> list[tuple[str, int]]:
        """(name, column) pairs a channel selector expands to."""
        if channel == "both":
            names = ["h", "v"] if self.channels >= 2 else ["h"]
            return [(n, _CHANNEL_COLUMNS[n]) for n in names]
        if channel not in _CHANNEL_COLUMNS:
            raise ValueError(f"unknown channel {channel!r}; "
                             f"expected 'h', 'v' or 'both'")
        column = _CHANNEL_COLUMNS[channel]
        if column >= self.channels:
            raise ValueError(
                f"channel {channel!r} needs a duo-channel checkpoint, but "
                f"this {self.family} model predicts "
                f"{self.channels} channel(s); retrain with --duo")
        return [(channel, column)]

    def _graph_key(self, design: Design) -> str:
        """The design's content-addressed graph stage key, memoised."""
        entry = self._key_memo.get(id(design))
        if entry is not None and entry[0] is design:
            self._key_memo.move_to_end(id(design))
            return entry[1]
        key = stage_keys_for(design, self.config.pipeline)["graph"]
        self._key_memo[id(design)] = (design, key)
        while len(self._key_memo) > 4 * self.config.sample_cache:
            self._key_memo.popitem(last=False)
        return key

    def _prepare(self, request: PredictRequest
                 ) -> tuple[GraphSample, bool, str | None]:
        """Resolve a request to ``(sample, warm_hit, content_key)``."""
        if request.graph is not None:
            # Caller-prepared graphs bypass the pipeline and both caches
            # (no trusted content address for an arbitrary in-memory graph).
            return sample_of(request.graph, channels=self.channels,
                             dtype=self.dtype), False, None
        graph_key = self._graph_key(request.design)
        sample = self.samples.get(graph_key)
        if sample is not None:
            return sample, True, graph_key
        graph = prepare_design(request.design, self.config.pipeline,
                               cache=self.stage_cache)
        sample = sample_of(graph, channels=self.channels, dtype=self.dtype)
        self.samples.put(graph_key, sample)
        self._counters["designs_prepared"] += 1
        return sample, False, graph_key

    def submit(self, request: PredictRequest) -> int:
        """Validate and queue one request; returns the queue length.

        Preparation (pipeline or cache) happens here, so ``flush`` is
        pure batched inference; invalid requests raise ``ValueError``
        without polluting the queue.
        """
        if (request.design is None) == (request.graph is None):
            raise ValueError("a request needs exactly one of design= "
                             "or graph=")
        self._columns_for(request.channel)  # validate against the model
        sample, cached, key = self._prepare(request)
        self._pending.append(_Pending(request, sample, cached, key))
        self._counters["requests"] += 1
        return len(self._pending)

    @property
    def pending(self) -> int:
        """Number of queued, not-yet-flushed requests."""
        return len(self._pending)

    def discard_pending(self) -> int:
        """Drop queued requests unanswered; returns how many.

        A serving worker calls this after every batch, so a request a
        failed batch left queued cannot leak into the next batch's
        flush.
        """
        dropped = len(self._pending)
        self._pending = []
        return dropped

    # -- batched inference ----------------------------------------------
    def _result_for(self, item: _Pending, probs: np.ndarray,
                    batch_members: int) -> PredictResult:
        graph = item.sample.graph
        columns = self._columns_for(item.request.channel)
        grids = {name: graph.map_to_grid(probs[:, col])
                 for name, col in columns}
        rate = {name: float((probs[:, col] >= self.config.threshold).mean())
                for name, col in columns}
        truth = None
        if item.sample.cls_target is not None:
            truth = {name: graph.map_to_grid(item.sample.cls_target[:, col])
                     for name, col in columns}
        return PredictResult(
            name=item.request.name, request_id=item.request.request_id,
            channel=item.request.channel, grids=grids, predicted_rate=rate,
            truth=truth, cached=item.cached, batch_members=batch_members)

    def _collate_group(self, members: list[_Pending]) -> GraphSample:
        """Collate one batch group, memoised on content keys when possible."""
        samples = [it.sample for it in members]
        keys = [it.key for it in members]
        if len(samples) == 1 or any(k is None for k in keys):
            self._collated_misses += len(samples) > 1
            return collate_samples(samples)
        cache_key = tuple(keys)
        batch = self._collated.get(cache_key)
        if batch is not None:
            self._collated_hits += 1
            self._collated.move_to_end(cache_key)
            return batch
        self._collated_misses += 1
        batch = collate_samples(samples)
        self._collated[cache_key] = batch
        while len(self._collated) > self.config.sample_cache:
            self._collated.popitem(last=False)
        return batch

    def flush(self) -> list[PredictResult]:
        """Answer every queued request, micro-batched; submission order."""
        items, self._pending = self._pending, []
        if not items:
            return []
        t0 = _perf_counter() if PERF.enabled else 0.0
        self._counters["flushes"] += 1
        results: list[PredictResult | None] = [None] * len(items)
        groups = plan_batches(
            [it.sample.graph for it in items],
            max_batch=self.config.max_batch if self._batchable else 1)
        with no_grad():
            for group in groups:
                members = [items[i] for i in group]
                batch = self._collate_group(members)
                probs = predict_probs(self.model, batch)
                self._counters["forward_passes"] += 1
                parts = unbatch_values(batch.graph, probs)
                for i, member, part in zip(group, members, parts):
                    results[i] = self._result_for(member, part, len(group))
        if PERF.enabled:
            PERF.record("serve.flush", _perf_counter() - t0)
        return results

    # -- conveniences ----------------------------------------------------
    def predict(self, request: PredictRequest | Design) -> PredictResult:
        """Serve one request immediately (submit + flush of one)."""
        if isinstance(request, Design):
            request = PredictRequest(design=request)
        if self._pending:
            raise RuntimeError("predict() with a non-empty queue would "
                               "flush other callers' requests; use "
                               "submit()/flush()")
        self.submit(request)
        return self.flush()[0]

    def predict_many(self, requests: list) -> list[PredictResult]:
        """Queue every request, then answer them in one batched flush.

        All-or-nothing intake: if any request fails validation, the ones
        this call already queued are rolled back before the error
        propagates, so a retry never flushes stale duplicates.
        """
        queued_before = len(self._pending)
        try:
            for request in requests:
                if isinstance(request, Design):
                    request = PredictRequest(design=request)
                self.submit(request)
        except Exception:
            del self._pending[queued_before:]
            raise
        return self.flush()

    # -- introspection ----------------------------------------------------
    def stats(self) -> dict:
        """Serving counters plus both cache tiers' hit/miss accounting."""
        return {
            **self._counters,
            "pending": len(self._pending),
            "model_family": self.family,
            "channels": self.channels,
            "sample_cache": self.samples.stats(),
            "batch_cache": {"entries": len(self._collated),
                            "hits": self._collated_hits,
                            "misses": self._collated_misses},
            "stage_cache": {"hits": self.stage_cache.hits,
                            "misses": self.stage_cache.misses,
                            "stores": self.stage_cache.stores},
        }
