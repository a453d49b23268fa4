"""Dataset views over prepared LH-graphs.

:class:`CongestionDataset` wraps the list of labelled LH-graphs produced
by :mod:`repro.pipeline` and provides the views each model family
consumes:

* **graph view** — the LH-graph itself (LHNN),
* **tabular view** — flat per-G-cell feature rows (MLP baseline),
* **image view** — NCHW feature images and label maps (U-Net, Pix2Pix),

plus channel selection (uni = horizontal only, duo = H and V), the
balanced 10:5 split of :mod:`repro.data.splits`, and the "zero G-cell
features" ablation transform of Table 3.

:func:`collate_samples` is the batched-training collate: it composes
several :class:`GraphSample` views into one sample over the block-diagonal
supergraph of :func:`repro.graph.batch.batch_graphs`, so a single forward
pass covers the whole mini-batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.batch import batch_graphs
from ..graph.lhgraph import LHGraph
from ..nn.tensor import get_default_dtype
from .splits import SplitResult, select_balanced_split

__all__ = ["CongestionDataset", "GraphSample", "collate_samples",
           "sample_of"]


def standardize(features: np.ndarray) -> np.ndarray:
    """Per-channel z-score; all-constant channels map to zero."""
    mean = features.mean(axis=0, keepdims=True)
    std = features.std(axis=0, keepdims=True)
    return (features - mean) / np.where(std > 1e-12, std, 1.0)


@dataclass
class GraphSample:
    """One design's training example in every view.

    ``features``/``net_features`` are per-design standardised model inputs
    of shape (Nc, 4) / (Nn, 4); ``image`` is (1, 4, nx, ny) standardised;
    label arrays are (Nc, channels) / (1, channels, nx, ny), channels ∈
    {1, 2}.
    """

    name: str
    graph: LHGraph
    features: np.ndarray
    net_features: np.ndarray
    image: np.ndarray
    cls_target: np.ndarray | None
    reg_target: np.ndarray | None
    cls_image: np.ndarray | None
    reg_image: np.ndarray | None


def _as_image(values: np.ndarray | None, nx: int, ny: int):
    """Flat (Nc, C) per-G-cell rows → NCHW (1, C, nx, ny) image view."""
    if values is None:
        return None
    return values.reshape(nx, ny, -1).transpose(2, 0, 1)[None]


def sample_of(graph: LHGraph, channels: int = 1,
              zero_gcell_features: bool = False,
              dtype=None) -> GraphSample:
    """Materialise every model-family view of one prepared LH-graph.

    Features are standardised per design *after* the optional
    zero-G-cell-feature ablation, so zeroed channels stay zero.  Label
    views are ``None`` for unlabelled graphs (e.g. a serving request
    whose pipeline skipped label extraction); the training dataset
    rejects those up front, the serving engine simply omits truth maps.

    Every array view is cast to ``dtype`` (default: the engine's default
    compute dtype) — this is where the pipeline's float64 graph products
    enter the numerical engine, so it is the single place the float32
    compute policy takes effect for model inputs and targets.
    Standardisation itself runs in float64 first, so a float32 sample is
    the rounded image of its float64 twin.
    """
    dtype = np.dtype(dtype) if dtype is not None else get_default_dtype()
    features = graph.vc.copy()
    if zero_gcell_features:
        # Keep only the terminal mask (channel 3); zero densities.
        features[:, 0:3] = 0.0
    features = standardize(features).astype(dtype, copy=False)
    net_features = standardize(graph.vn).astype(dtype, copy=False)
    cls_target = reg_target = None
    if graph.congestion is not None:
        cls_target = graph.congestion[:, :channels].astype(dtype, copy=False)
    if graph.demand is not None:
        reg_target = graph.demand[:, :channels].astype(dtype, copy=False)
    nx, ny = graph.nx, graph.ny
    return GraphSample(
        name=graph.name, graph=graph,
        features=features, net_features=net_features,
        image=_as_image(features, nx, ny),
        cls_target=cls_target, reg_target=reg_target,
        cls_image=_as_image(cls_target, nx, ny),
        reg_image=_as_image(reg_target, nx, ny),
    )


def _cat(arrays: list) -> np.ndarray | None:
    """Row-concatenate, propagating None when any member lacks the view."""
    if any(a is None for a in arrays):
        return None
    return np.concatenate(arrays, axis=0)


def collate_samples(samples: list[GraphSample]) -> GraphSample:
    """Compose several samples into one over their block-diagonal graph.

    Per-design standardised features, net features and labels are stacked
    in design order — exactly the node order of
    :func:`repro.graph.batch.batch_graphs` — so the result trains/evaluates
    with one forward pass; split predictions back per design with
    :func:`repro.graph.batch.unbatch_values`.  A single sample passes
    through untouched.
    """
    if not samples:
        raise ValueError("cannot collate zero samples")
    if len(samples) == 1:
        return samples[0]
    batched = batch_graphs([s.graph for s in samples])
    features = np.concatenate([s.features for s in samples], axis=0)
    net_features = np.concatenate([s.net_features for s in samples], axis=0)
    cls_target = _cat([s.cls_target for s in samples])
    reg_target = _cat([s.reg_target for s in samples])
    # Flat per-G-cell order is gx * ny + gy; concatenation therefore *is*
    # the side-by-side-dies layout of the batched graph, and the image
    # views reshape directly to its (Σ nx_i) × ny grid.
    nx, ny = batched.nx, batched.ny
    return GraphSample(
        name=batched.name, graph=batched,
        features=features, net_features=net_features,
        image=_as_image(features, nx, ny),
        cls_target=cls_target, reg_target=reg_target,
        cls_image=_as_image(cls_target, nx, ny),
        reg_image=_as_image(reg_target, nx, ny),
    )


class CongestionDataset:
    """The 15-design congestion-prediction dataset.

    Parameters
    ----------
    graphs:
        Labelled LH-graphs from :func:`repro.pipeline.prepare_workload`,
        or any lazy sequence of them — e.g. the
        :class:`~repro.pipeline.cache.ManifestGraphs` view returned by
        ``prepare_workload(..., lazy=True)``.  Lists are validated
        eagerly; lazy sequences are validated per graph on first access,
        so constructing the dataset deserialises nothing.
    channels:
        1 → uni-channel task (horizontal congestion only);
        2 → duo-channel (horizontal and vertical).
    zero_gcell_features:
        Table-3 ablation: zero the net-density and pin-density channels,
        keeping only the terminal mask.
    """

    def __init__(self, graphs, channels: int = 1,
                 zero_gcell_features: bool = False):
        if channels not in (1, 2):
            raise ValueError("channels must be 1 (uni) or 2 (duo)")
        if isinstance(graphs, (list, tuple)):
            graphs = list(graphs)
            for g in graphs:
                self._check_labelled(g)
        self.graphs = graphs
        self.channels = channels
        self.zero_gcell_features = zero_gcell_features
        self._split: SplitResult | None = None

    @staticmethod
    def _check_labelled(g: LHGraph) -> LHGraph:
        if g.congestion is None or g.demand is None:
            raise ValueError(f"graph {g.name} is unlabelled")
        return g

    def graph(self, index: int) -> LHGraph:
        """Graph ``index``, materialised and label-checked."""
        return self._check_labelled(self.graphs[index])

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.graphs)

    def congestion_rates(self, channel: int = 0) -> np.ndarray:
        """Per-design congestion rate for the given label channel.

        Manifest-backed sequences answer this from their metadata without
        loading any graph blob.
        """
        rates = getattr(self.graphs, "congestion_rates", None)
        if callable(rates):
            return np.asarray(rates(channel))
        return np.array([g.congestion_rate(channel) for g in self.graphs])

    @property
    def split(self) -> SplitResult:
        """The balanced 10:5 split (computed lazily, then cached)."""
        if self._split is None:
            test_size = max(1, round(len(self.graphs) / 3))
            self._split = select_balanced_split(self.congestion_rates(0),
                                                test_size=test_size)
        return self._split

    def train_samples(self) -> list[GraphSample]:
        """Samples of the training designs."""
        return [self.sample(i) for i in self.split.train_indices]

    def test_samples(self) -> list[GraphSample]:
        """Samples of the held-out designs."""
        return [self.sample(i) for i in self.split.test_indices]

    # ------------------------------------------------------------------
    def sample(self, index: int) -> GraphSample:
        """Materialise every view of design ``index``.

        Delegates to :func:`sample_of` after the label check (training
        and evaluation always need targets).
        """
        return sample_of(self.graph(index), channels=self.channels,
                         zero_gcell_features=self.zero_gcell_features)

    # ------------------------------------------------------------------
    def table1_rows(self) -> list[dict]:
        """Rows of the paper's Table 1 for the current split."""
        rows = []
        split = self.split
        for label, idx, rate in (
                ("Training", split.train_indices, split.train_rate),
                ("Testing", split.test_indices, split.test_rate)):
            metas = [self.graphs[i].metadata for i in idx]
            rows.append({
                "split": label,
                "designs": ", ".join(self.graphs[i].name.replace("superblue", "")
                                     for i in idx),
                "#cells": int(np.mean([m.get("num_cells", 0) for m in metas])),
                "#nets": int(np.mean([m.get("num_nets", 0) for m in metas])),
                "#gcells": int(np.mean([self.graphs[i].num_gcells for i in idx])),
                "congestion_rate_%": round(100.0 * rate, 2),
            })
        all_idx = list(range(len(self.graphs)))
        rows.append({
            "split": "Total",
            "designs": "All designs",
            "#cells": int(np.mean([self.graphs[i].metadata.get("num_cells", 0)
                                   for i in all_idx])),
            "#nets": int(np.mean([self.graphs[i].metadata.get("num_nets", 0)
                                  for i in all_idx])),
            "#gcells": int(np.mean([self.graphs[i].num_gcells for i in all_idx])),
            "congestion_rate_%": round(100.0 * float(self.congestion_rates(0).mean()), 2),
        })
        return rows
