"""Artifact-store micro-bench: checksummed vs raw warm stage-cache loads.

The durable store (:mod:`repro.store`) frames every blob with a sha-256
footer and verifies it on read.  The verification budget is ≤10%
overhead on *warm* loads: the store checks each blob's digest once per
process and then skips the re-hash while the file's stat signature
(size, mtime_ns, inode) is unchanged, so steady-state warm reads cost
the same as unverified reads while on-disk corruption is still caught
on first contact.

The raw baseline reads the *same* framed file with the same
:func:`repro.store.read_bytes` primitive, drops the footer and
unpickles the payload with no check — the measured gap is exactly the
``StageCache.load`` / ``BlobStore.get`` verification machinery.
Timings are batch-amortised best-of-N, so microsecond-scale jitter does
not decide the gate.

Records into ``BENCH_store.json`` (the one bench schema of
:mod:`repro.perf.report`) next to ``BENCH_nn.json`` /
``BENCH_serve.json``; the nightly CI job validates and uploads it.
``slow``-marked:

```bash
PYTHONPATH=src python -m pytest benchmarks/test_store_overhead.py -q -m slow
```
"""

import os
import pickle
import time

import numpy as np
import pytest

from repro.circuit import superblue_suite
from repro.pipeline import (PipelineConfig, StageCache, prepare_design,
                            stage_keys_for)
from repro.placement import PlacementConfig
from repro.routing import RouterConfig
from repro.store import FOOTER_BYTES, read_bytes

pytestmark = pytest.mark.slow

#: The acceptance budget: warm checksummed loads within 10% of raw.
MAX_OVERHEAD = 1.10

#: Loads per timing sample (amortises the perf_counter granularity) and
#: best-of samples per measurement.
BATCH = 20
ROUNDS = 15

BENCH_REPORT = ("BENCH_store.json",
                {"source": "benchmarks/test_store_overhead.py",
                 "batch": BATCH, "rounds": ROUNDS,
                 "raw_baseline": "same framed file, footer dropped and "
                                 "payload unpickled unverified"})


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return StageCache(str(tmp_path_factory.mktemp("store-bench")))


def _raw_load(path: str):
    """The unverified baseline: read the framed file, unpickle its payload."""
    return pickle.loads(read_bytes(path)[:-FOOTER_BYTES])


def _best_per_load(*loads) -> list[float]:
    """Best-of-``ROUNDS`` time per load for each callable.

    The callables take turns within every round, so drift on a shared
    host hits the verified and the raw side alike.
    """
    for load in loads:
        assert load() is not None  # warm-up (and first-contact verify)
    best = [float("inf")] * len(loads)
    for _ in range(ROUNDS):
        for i, load in enumerate(loads):
            start = time.perf_counter()
            for _ in range(BATCH):
                load()
            best[i] = min(best[i], time.perf_counter() - start)
    return [b / BATCH for b in best]


def _bench_entry(cache: StageCache, key: str) -> dict:
    path = cache._path(key)
    verified, raw = _best_per_load(lambda: cache.load(key),
                                   lambda: _raw_load(path))
    return {
        "raw_read_s": raw,
        "verified_read_s": verified,
        "overhead_ratio": verified / raw,
        "payload_bytes": os.path.getsize(path) - FOOTER_BYTES,
    }


class TestWarmLoadOverhead:
    def test_stage_product_loads_within_budget(self, cache, bench_report):
        """The real thing: a prepared LH-graph stage product."""
        config = PipelineConfig(
            scale=0.15, use_cache=True,
            placement=PlacementConfig(outer_iterations=1),
            router=RouterConfig(nx=8, ny=8, rrr_iterations=1))
        design = superblue_suite(scale=0.15)[0]
        prepare_design(design, config, cache=cache)
        key = stage_keys_for(design, config)["graph"]
        entry = _bench_entry(cache, key)
        bench_report.entries["stage_graph_load"] = entry
        print(f"\n[store] graph product ({entry['payload_bytes']} B): "
              f"raw {entry['raw_read_s'] * 1e6:.0f}us, verified "
              f"{entry['verified_read_s'] * 1e6:.0f}us "
              f"({entry['overhead_ratio']:.3f}x)")
        assert entry["overhead_ratio"] <= MAX_OVERHEAD, (
            f"checksummed warm loads cost "
            f"{entry['overhead_ratio']:.3f}x raw loads "
            f"(budget {MAX_OVERHEAD}x)")

    def test_large_array_payload_within_budget(self, cache,
                                                bench_report):
        """Worst case for hashing: a 4 MB ndarray that unpickles as a
        near-memcpy — without the per-process digest cache the sha-256
        would dominate this load several times over."""
        key = "ab" * 16
        payload = np.random.default_rng(0).random((1024, 512))
        cache.store(key, payload)

        entry = _bench_entry(cache, key)
        bench_report.entries["large_array_load"] = entry
        print(f"\n[store] 4MB ndarray: raw "
              f"{entry['raw_read_s'] * 1e6:.0f}us, verified "
              f"{entry['verified_read_s'] * 1e6:.0f}us "
              f"({entry['overhead_ratio']:.3f}x)")
        assert entry["overhead_ratio"] <= MAX_OVERHEAD, (
            f"checksummed warm loads cost "
            f"{entry['overhead_ratio']:.3f}x raw loads "
            f"(budget {MAX_OVERHEAD}x)")
