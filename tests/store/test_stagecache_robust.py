"""StageCache on the blob store: corrupt accounting, leases, degradation."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.pipeline import PipelineConfig, StageCache, prepare_design
from repro.pipeline.runner import _locked_compute
from repro.placement import PlacementConfig
from repro.routing import RouterConfig
from repro.store import Lease, StoreDegradedWarning, frame_blob
from repro.circuit import superblue_suite

KEY = "cafef00d" * 4


def tiny_config(**overrides) -> PipelineConfig:
    base = dict(scale=0.15, use_cache=True,
                placement=PlacementConfig(outer_iterations=1),
                router=RouterConfig(nx=8, ny=8, rrr_iterations=1))
    base.update(overrides)
    return PipelineConfig(**base)


class TestCorruptAccounting:
    def test_checksum_corruption_counts_corrupt_not_miss(self, tmp_path):
        cache = StageCache(str(tmp_path))
        cache.store(KEY, {"stage": "product"})
        data = bytearray(open(cache._path(KEY), "rb").read())
        data[1] ^= 0xFF
        open(cache._path(KEY), "wb").write(bytes(data))

        assert cache.load(KEY) is None
        assert cache.corrupt == 1
        assert cache.misses == 0
        assert cache.hits == 0
        assert not os.path.exists(cache._path(KEY))  # quarantined
        # Recompute lands in a clean slot and hits normally.
        cache.store(KEY, {"stage": "recomputed"})
        assert cache.load(KEY) == {"stage": "recomputed"}
        assert cache.hits == 1

    def test_unpicklable_legacy_blob_is_quarantined(self, tmp_path):
        cache = StageCache(str(tmp_path))
        path = cache._path(KEY)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            # A valid footer, so the bytes reach the unpickle step.
            fh.write(frame_blob(b"not a pickle"))
        assert cache.load(KEY) is None
        assert cache.corrupt == 1
        assert cache.misses == 0
        assert not os.path.exists(path)
        assert cache.blobs.quarantine_records()[0]["reason"].startswith(
            "unpicklable payload")

    def test_load_if_present_skips_the_miss_counter(self, tmp_path):
        cache = StageCache(str(tmp_path))
        assert cache.load_if_present(KEY) is None
        assert cache.misses == 0
        cache.store(KEY, 42)
        assert cache.load_if_present(KEY) == 42
        assert cache.hits == 1


class TestDegradedCache:
    def test_unwritable_root_completes_uncached_with_warning(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("x")
        cache = StageCache(str(blocker / "cache"))
        design = superblue_suite(scale=0.15)[0]
        with pytest.warns(StoreDegradedWarning):
            graph = prepare_design(design, tiny_config(), cache=cache)
        assert graph.num_gcells > 0
        assert cache.degraded
        assert cache.stores == 0

    def test_rootless_cache_counts_misses_only(self, tmp_path):
        cache = StageCache(None)
        assert cache.load(KEY) is None
        assert cache.misses == 1
        cache.store(KEY, 1)  # no-op
        assert cache.stores == 0
        assert not cache.contains(KEY)


class TestLockedCompute:
    def test_computes_and_stores_under_a_lease(self, tmp_path):
        cache = StageCache(str(tmp_path))
        value = _locked_compute(cache, KEY, "route", "tiny", lambda: 41)
        assert value == 41
        assert cache.load(KEY) == 41
        assert not os.path.exists(cache.blobs.lease_path(KEY))  # released

    def test_waits_for_a_live_holder_and_loads_their_result(self, tmp_path):
        cache = StageCache(str(tmp_path))
        holder = cache.try_lease(KEY)
        assert isinstance(holder, Lease)

        def finish_elsewhere():
            time.sleep(0.4)
            cache.store(KEY, "their result")
            holder.release()

        thread = threading.Thread(target=finish_elsewhere)
        thread.start()
        computed = []
        value = _locked_compute(cache, KEY, "route", "tiny",
                                lambda: computed.append(1) or "my result")
        thread.join()
        assert value == "their result"
        assert computed == []  # no duplicate stage work

    def test_steals_a_dead_holders_lease(self, tmp_path):
        cache = StageCache(str(tmp_path))
        crashed = cache.try_lease(KEY)
        old = time.time() - 1000
        os.utime(crashed.path, (old, old))  # heartbeat long gone
        value = _locked_compute(cache, KEY, "route", "tiny", lambda: 7)
        assert value == 7
        assert cache.load(KEY) == 7

    def test_acquirer_rechecks_cache_before_computing(self, tmp_path):
        cache = StageCache(str(tmp_path))
        cache.store(KEY, "already done")
        value = _locked_compute(cache, KEY, "route", "tiny",
                                lambda: pytest.fail("must not recompute"))
        assert value == "already done"
