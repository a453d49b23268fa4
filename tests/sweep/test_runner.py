"""Runner layer: exactly-once execution, resume, quarantine, status."""

import json
import os
import threading
import time

import pytest
from sweep_utils import tiny_sweep_payload, write_stub_manifest

from repro.store import BlobStore
from repro.sweep import (JOURNAL_NAME, SweepError, expand_grid,
                         point_lease_name, point_state, run_sweep,
                         sweep_from_dict, sweep_status)


def make_sweep(tmp_path, **kwargs):
    return sweep_from_dict(tiny_sweep_payload(str(tmp_path), **kwargs))


def journal_events(artifacts_dir):
    path = os.path.join(artifacts_dir, "experiments", JOURNAL_NAME)
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestRunResume:
    def test_runs_every_point_once(self, tmp_path, stub_executor):
        sweep = make_sweep(tmp_path)
        report = run_sweep(sweep, execute=stub_executor)
        assert (report.total, report.executed, report.skipped) == (4, 4, 0)
        for point in expand_grid(sweep):
            assert os.path.exists(point.spec.manifest_path())
        events = journal_events(str(tmp_path))
        assert sorted(e["fingerprint"] for e in events) == \
            sorted(p.fingerprint for p in expand_grid(sweep))

    def test_rerun_skips_done_points(self, tmp_path, stub_executor):
        sweep = make_sweep(tmp_path)
        run_sweep(sweep, execute=stub_executor)
        mtimes = {p.fingerprint: os.stat(p.spec.manifest_path()).st_mtime_ns
                  for p in expand_grid(sweep)}
        report = run_sweep(sweep, execute=stub_executor)
        assert (report.executed, report.skipped) == (0, 4)
        # Resume never rewrites a completed point's manifest.
        for point in expand_grid(sweep):
            assert os.stat(point.spec.manifest_path()).st_mtime_ns == \
                mtimes[point.fingerprint]

    def test_partial_resume_fills_only_the_hole(self, tmp_path,
                                                stub_executor):
        sweep = make_sweep(tmp_path)
        points = expand_grid(sweep)
        for point in points[:3]:  # simulate a crash after three points
            write_stub_manifest(point.spec)
        report = run_sweep(sweep, execute=stub_executor)
        assert (report.executed, report.skipped) == (1, 3)
        assert journal_events(str(tmp_path))[0]["fingerprint"] == \
            points[3].fingerprint

    def test_stale_lease_is_stolen(self, tmp_path, stub_executor):
        sweep = make_sweep(tmp_path)
        point = expand_grid(sweep)[0]
        lease_dir = tmp_path / "leases"
        lease_dir.mkdir()
        stale = lease_dir / f"{point_lease_name(point.fingerprint)}.json"
        stale.write_text(json.dumps({
            "host": __import__("socket").gethostname(),
            "pid": 2 ** 22 + 1,  # beyond any real pid: provably dead
            "token": "dead", "acquired_unix": time.time()}))
        report = run_sweep(sweep, execute=stub_executor)
        assert report.executed == 4
        assert not stale.exists()

    def test_failed_point_reported_others_complete(self, tmp_path,
                                                   flaky_stub_executor):
        sweep = make_sweep(tmp_path)
        with pytest.raises(SweepError, match="2 of 4.*gridsage failure"):
            run_sweep(sweep, execute=flaky_stub_executor)
        done = [p for p in expand_grid(sweep)
                if os.path.exists(p.spec.manifest_path())]
        assert {p.axes["model.family"] for p in done} == {"mlp"}

    def test_multiprocess_pool_runs_all_points(self, tmp_path,
                                               stub_executor):
        sweep = make_sweep(tmp_path)
        report = run_sweep(sweep, workers=2, execute=stub_executor)
        assert report.executed == 4
        assert len(journal_events(str(tmp_path))) == 4


class TestExactlyOnce:
    def test_busy_lease_is_waited_out(self, tmp_path, stub_executor):
        """A point leased by a live contender is polled, not re-executed."""
        sweep = make_sweep(tmp_path)
        point = expand_grid(sweep)[0]
        store = BlobStore(str(tmp_path))
        lease = store.try_lease(point_lease_name(point.fingerprint))
        assert lease is not None and not hasattr(lease, "root")

        result = {}

        def drive():
            result["report"] = run_sweep(sweep, poll_s=0.02,
                                         execute=stub_executor)

        thread = threading.Thread(target=drive)
        thread.start()
        time.sleep(0.15)  # let the runner finish everything else
        # The "other process" completes its point, then drops the lease.
        write_stub_manifest(point.spec)
        lease.release()
        thread.join(timeout=10)
        assert not thread.is_alive()
        report = result["report"]
        assert report.executed == 3
        assert report.skipped == 1
        assert report.waited_on >= 1
        assert all(e["fingerprint"] != point.fingerprint
                   for e in journal_events(str(tmp_path)))

    def test_concurrent_runs_execute_each_point_once(self, tmp_path,
                                                     slow_stub_executor):
        sweep = make_sweep(tmp_path)
        reports = [None, None]

        def drive(slot):
            reports[slot] = run_sweep(sweep, poll_s=0.02,
                                      execute=slow_stub_executor)

        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert all(r is not None for r in reports)
        assert reports[0].executed + reports[1].executed == 4
        assert reports[0].skipped + reports[1].skipped == 4
        events = journal_events(str(tmp_path))
        assert len(events) == 4
        assert len({e["fingerprint"] for e in events}) == 4


class TestQuarantine:
    def test_corrupt_manifest_quarantined_and_reexecuted(self, tmp_path,
                                                         stub_executor):
        sweep = make_sweep(tmp_path)
        point = expand_grid(sweep)[0]
        path = write_stub_manifest(point.spec)
        with open(path, "w") as fh:
            fh.write("{ not json")
        report = run_sweep(sweep, execute=stub_executor)
        assert report.executed == 4  # the corrupt point ran again
        quarantine = tmp_path / "quarantine"
        names = os.listdir(quarantine)
        # quarantine_file keeps the basename and stamps it; the reason
        # record rides alongside as <stamped>.reason.json.
        base = os.path.basename(path)
        assert any(n.startswith(base) and not n.endswith(".reason.json")
                   for n in names)
        (reason_path,) = [quarantine / n for n in names
                          if n.endswith(".reason.json")]
        reason = json.loads(reason_path.read_text())
        assert reason["fingerprint"] == point.fingerprint

    def test_wrong_fingerprint_manifest_is_not_done(self, tmp_path,
                                                    stub_executor):
        """A manifest embedding another spec's fingerprint never
        satisfies a point (a copied file cannot fake completion).

        Point a must re-execute, and the moved file does not count for
        point b either: a manifest is found only at its own
        fingerprint-derived path.
        """
        sweep = make_sweep(tmp_path)
        a, b = expand_grid(sweep)[:2]
        write_stub_manifest(b.spec)
        # Plant b's manifest at a's canonical path.
        os.replace(b.spec.manifest_path(), a.spec.manifest_path())
        report = run_sweep(sweep, execute=stub_executor)
        assert (report.executed, report.skipped) == (4, 0)
        manifest = json.load(open(a.spec.manifest_path()))
        assert manifest["fingerprint"] == a.fingerprint


class TestStatus:
    def test_status_reports_all_states_and_takes_nothing(self, tmp_path,
                                                         stub_executor):
        sweep = make_sweep(tmp_path)
        points = expand_grid(sweep)
        # point 0: done; point 1: leased (live — held by this process);
        # point 2: corrupt manifest -> quarantined; point 3: pending.
        write_stub_manifest(points[0].spec)
        store = BlobStore(str(tmp_path))
        lease = store.try_lease(point_lease_name(points[1].fingerprint))
        path = write_stub_manifest(points[2].spec)
        with open(path, "w") as fh:
            fh.write("garbage")
        try:
            lease_dir = tmp_path / "leases"
            before = set(os.listdir(lease_dir))
            statuses = sweep_status(sweep)
            assert [s.state for s in statuses] == \
                ["done", "leased", "quarantined", "pending"]
            assert statuses[0].manifest_path == \
                points[0].spec.manifest_path()
            assert statuses[1].holder["pid"] == os.getpid()
            assert "parse" in statuses[2].detail or \
                "unreadable" in statuses[2].detail
            # Read-only: no lease created, renewed or stolen; the
            # corrupt manifest stays in place for `run` to quarantine.
            assert set(os.listdir(lease_dir)) == before
            assert os.path.exists(path)
            assert not os.path.exists(tmp_path / "quarantine")
        finally:
            lease.release()

    def test_stale_lease_reads_as_pending(self, tmp_path):
        sweep = make_sweep(tmp_path)
        point = expand_grid(sweep)[0]
        lease_dir = tmp_path / "leases"
        lease_dir.mkdir()
        stale = lease_dir / f"{point_lease_name(point.fingerprint)}.json"
        stale.write_text(json.dumps({
            "host": __import__("socket").gethostname(),
            "pid": 2 ** 22 + 1, "token": "dead",
            "acquired_unix": time.time()}))
        assert point_state(str(tmp_path), point).state == "pending"

    def test_status_on_fresh_dir_is_all_pending(self, tmp_path):
        statuses = sweep_status(make_sweep(tmp_path))
        assert [s.state for s in statuses] == ["pending"] * 4
        assert not (tmp_path / "leases").exists()
