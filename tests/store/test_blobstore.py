"""Tests for the checksummed, crash-safe blob store primitives."""

from __future__ import annotations

import glob
import os
import pickle
import time

import pytest

from repro.store import (BlobCorruptError, BlobStore, Lease, NullLease,
                         StoreDegradedWarning, atomic_write_bytes,
                         frame_blob, read_bytes, sweep, unframe_blob)
from repro.testing import FaultInjector, FaultRule, install_faults

KEY = "deadbeef" * 4


def tmp_files(root: str) -> list[str]:
    return glob.glob(os.path.join(root, "**", "*.tmp"), recursive=True)


class TestFraming:
    def test_round_trip_is_verified(self):
        assert unframe_blob(frame_blob(b"payload")) == b"payload"

    def test_footerless_bytes_are_rejected(self):
        with pytest.raises(BlobCorruptError, match="missing checksum footer"):
            unframe_blob(b"an old, unframed blob")
        with pytest.raises(BlobCorruptError, match="missing checksum footer"):
            unframe_blob(b"an old, unframed blob", verify=False)

    def test_flipped_payload_byte_is_corrupt(self):
        framed = bytearray(frame_blob(b"payload"))
        framed[2] ^= 0xFF
        with pytest.raises(BlobCorruptError, match="checksum mismatch"):
            unframe_blob(bytes(framed))


class TestAtomicWrite:
    def test_writes_bytes_and_leaves_no_tmp(self, tmp_path):
        path = str(tmp_path / "sub" / "file.bin")
        atomic_write_bytes(path, b"hello")
        assert read_bytes(path) == b"hello"
        assert tmp_files(str(tmp_path)) == []

    def test_single_injected_eio_is_retried_and_survived(self, tmp_path):
        install_faults(FaultInjector(
            [FaultRule(point="store.write", action="eio", nth=1, count=1)]))
        path = str(tmp_path / "file.bin")
        atomic_write_bytes(path, b"survived")
        assert read_bytes(path) == b"survived"

    def test_persistent_eio_exhausts_retries(self, tmp_path):
        install_faults(FaultInjector(
            [FaultRule(point="store.write", action="eio", count=-1)]))
        path = str(tmp_path / "file.bin")
        with pytest.raises(OSError):
            atomic_write_bytes(path, b"never lands")
        assert not os.path.exists(path)
        assert tmp_files(str(tmp_path)) == []

    def test_single_transient_read_eio_is_retried(self, tmp_path):
        path = str(tmp_path / "file.bin")
        atomic_write_bytes(path, b"data")
        install_faults(FaultInjector(
            [FaultRule(point="store.read", action="eio", nth=1, count=1)]))
        assert read_bytes(path) == b"data"


class TestBlobStore:
    def test_put_get_round_trip(self, tmp_path):
        store = BlobStore(str(tmp_path))
        assert store.put(KEY, b"stage product")
        assert store.contains(KEY)
        assert store.get(KEY) == b"stage product"
        assert store.writes == 1 and store.reads == 1
        # On disk the blob is framed, not raw.
        with open(store.object_path(KEY), "rb") as fh:
            assert len(fh.read()) > len(b"stage product")

    def test_absent_key_is_a_plain_miss(self, tmp_path):
        store = BlobStore(str(tmp_path))
        assert store.get(KEY) is None
        assert not store.contains(KEY)
        assert store.corrupt == 0

    def test_corrupt_blob_is_quarantined_with_reason(self, tmp_path):
        store = BlobStore(str(tmp_path))
        store.put(KEY, b"stage product")
        path = store.object_path(KEY)
        data = bytearray(open(path, "rb").read())
        data[1] ^= 0xFF  # flip a payload byte, keep the footer
        open(path, "wb").write(bytes(data))

        assert store.get(KEY) is None
        assert store.corrupt == 1
        assert not os.path.exists(path)  # moved off the fast path
        records = store.quarantine_records()
        assert len(records) == 1
        assert "checksum mismatch" in records[0]["reason"]
        assert records[0]["key"] == KEY
        # The slot is clean: a recompute stores and reads normally.
        assert store.put(KEY, b"recomputed")
        assert store.get(KEY) == b"recomputed"

    def test_footerless_blob_is_quarantined(self, tmp_path):
        store = BlobStore(str(tmp_path))
        path = store.object_path(KEY)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(pickle.dumps({"old": True}))  # no footer
        assert store.get(KEY) is None
        assert store.corrupt == 1 and store.reads == 0
        assert not os.path.exists(path)
        [record] = store.quarantine_records()
        assert record["reason"] == "missing checksum footer"
        assert record["key"] == KEY

    def test_unwritable_root_degrades_with_structured_warning(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("a file where the store root wants a directory")
        root = str(blocker / "cache")
        store = BlobStore(root)
        with pytest.warns(StoreDegradedWarning) as caught:
            assert not store.put(KEY, b"payload")
        assert store.degraded
        assert caught[0].message.root == root
        assert "blob" in caught[0].message.reason
        # Degradation warns once; later writes are silent no-ops.
        assert not store.put(KEY, b"payload")
        assert len([w for w in caught
                    if isinstance(w.message, StoreDegradedWarning)]) == 1

    def test_degraded_store_hands_out_null_leases(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("x")
        store = BlobStore(str(blocker / "cache"))
        with pytest.warns(StoreDegradedWarning):
            store.put(KEY, b"payload")
        assert isinstance(store.try_lease(KEY), NullLease)

    def test_rootless_store_is_inert(self):
        store = BlobStore(None)
        assert not store.put(KEY, b"payload")
        assert store.get(KEY) is None
        assert isinstance(store.try_lease(KEY), NullLease)
        assert store.gc() == {"tmp_removed": [], "leases_removed": []}

    def test_try_lease_contends_and_steals_stale(self, tmp_path):
        store = BlobStore(str(tmp_path))
        lease = store.try_lease(KEY)
        assert isinstance(lease, Lease) and lease.held
        assert store.try_lease(KEY) is None  # held by a live local pid
        old = time.time() - 1000
        os.utime(store.lease_path(KEY), (old, old))
        stolen = store.try_lease(KEY)  # stale heartbeat: stolen
        assert isinstance(stolen, Lease) and stolen.held
        stolen.release()

    def test_stats_census(self, tmp_path):
        store = BlobStore(str(tmp_path))
        store.put(KEY, b"one")
        store.put(KEY[::-1], b"two")
        lease = store.try_lease(KEY)
        stats = store.stats()
        assert stats["objects"] == 2
        assert stats["object_bytes"] > 0
        assert stats["leases"] == 1
        assert stats["quarantined"] == 0
        assert not stats["degraded"]
        lease.release()


class TestSweep:
    def test_removes_old_tmp_keeps_fresh_and_objects(self, tmp_path):
        store = BlobStore(str(tmp_path))
        store.put(KEY, b"keep me")
        obj_dir = os.path.dirname(store.object_path(KEY))
        stale = os.path.join(obj_dir, "orphan.tmp")
        fresh = os.path.join(obj_dir, "inflight.tmp")
        for path in (stale, fresh):
            with open(path, "wb") as fh:
                fh.write(b"debris")
        old = time.time() - 1000
        os.utime(stale, (old, old))

        report = sweep(str(tmp_path), max_tmp_age_s=600.0)
        assert report["tmp_removed"] == [stale]
        assert os.path.exists(fresh)
        assert store.get(KEY) == b"keep me"

    def test_removes_only_stale_leases(self, tmp_path):
        store = BlobStore(str(tmp_path))
        held = store.try_lease(KEY)
        dead = store.lease_path("dead" * 8)
        os.makedirs(os.path.dirname(dead), exist_ok=True)
        with open(dead, "w") as fh:
            fh.write("{}")
        old = time.time() - 1000
        os.utime(dead, (old, old))

        report = store.gc()
        assert report["leases_removed"] == [dead]
        assert os.path.exists(store.lease_path(KEY))
        held.release()

    def test_sweep_skips_quarantine(self, tmp_path):
        store = BlobStore(str(tmp_path))
        qdir = store.quarantine_dir
        os.makedirs(qdir, exist_ok=True)
        evidence = os.path.join(qdir, "evidence.tmp")
        with open(evidence, "wb") as fh:
            fh.write(b"keep for inspection")
        old = time.time() - 1000
        os.utime(evidence, (old, old))
        sweep(str(tmp_path), max_tmp_age_s=600.0)
        assert os.path.exists(evidence)
