"""Service-grade battery for the mapping daemon.

Covers the wire protocol end to end (socket round trip, fragment
streaming), the result store's trust boundaries (corrupt and stale rows
must be rejected and recomputed, never spliced), concurrency
determinism, drain-on-signal semantics, and the warm-pool hygiene rule
that request N's faults and counters must not leak into request N+1.

Most tests run the daemon in a background thread of this process
(``graceful_shutdown`` is a deliberate no-op off the main thread, so
signal handling simply stays disabled); the signal-semantics tests use
a real subprocess, because exit codes and SIGTERM delivery are the
thing under test there.
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time

import pytest

from repro.circuits import build
from repro.mapping import hyde_map
from repro.network import parse_blif, to_blif
from repro.service import (
    MappingDaemon,
    MappingService,
    ResultStore,
    ServiceClient,
    ServiceError,
    WarmPool,
    schema_version,
)
from repro.service.store import _row_hash
from repro.testing import hold_store_lock

MISEX1 = to_blif(build("misex1"))
RD73 = to_blif(build("rd73"))


# --------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------- #


class _DaemonThread:
    """An in-process daemon on a background thread, torn down reliably."""

    def __init__(self, tmp_path, jobs: int = 1, **kwargs):
        self.daemon = MappingDaemon(
            str(tmp_path / "cache.db"), jobs=jobs, **kwargs
        )
        self.thread = threading.Thread(
            target=self.daemon.serve, kwargs={"quiet": True}, daemon=True
        )
        self.thread.start()
        self.client = ServiceClient(
            self.daemon.host, self.daemon.port, timeout=120.0
        )

    def stop(self) -> None:
        try:
            self.client.shutdown()
        except (ServiceError, OSError):
            pass  # already stopped by the test body
        self.thread.join(timeout=30)
        assert not self.thread.is_alive(), "daemon failed to stop"


@pytest.fixture
def serial_daemon(tmp_path):
    harness = _DaemonThread(tmp_path, jobs=1)
    yield harness
    harness.stop()


def _serve_argv(store, info, *extra):
    return [
        sys.executable, "-m", "repro.cli", "serve",
        "--store", str(store), "--info", str(info), "--quiet", *extra,
    ]


def _subprocess_env(**overrides):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.update(overrides)
    return env


def _wait_for_info(path, proc, timeout=30.0) -> ServiceClient:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"daemon exited early with {proc.returncode}"
            )
        if os.path.exists(path):
            return ServiceClient.from_info(str(path), timeout=120.0)
        time.sleep(0.05)
    raise AssertionError("daemon never published its endpoint")


# --------------------------------------------------------------------- #
# End-to-end round trip and cache semantics
# --------------------------------------------------------------------- #


def test_socket_round_trip_misex1(serial_daemon):
    pong = serial_daemon.client.ping()
    assert pong["type"] == "pong"
    assert pong["schema"] == schema_version()

    result = serial_daemon.client.submit_blif(MISEX1)
    local = hyde_map(parse_blif(MISEX1), 5, verify="bdd")
    assert result["ok"] is True
    assert result["luts"] == local.lut_count
    assert result["clbs"] == local.clb_count
    # The mapped network itself travels back and parses.
    assert parse_blif(result["blif"]).output_names == [
        out for out, _ in local.network.outputs
    ] or sorted(parse_blif(result["blif"]).output_names) == sorted(
        o for o, _ in local.network.outputs
    )
    # Fragment stream: one record per group, keys are real task keys.
    assert result["fragments"], "no fragment records streamed"
    for fragment in result["fragments"]:
        assert fragment["cached"] is False
        assert len(fragment["key"]) == 32
        int(fragment["key"], 16)
        parse_blif(fragment["blif"])
    assert result["cache"] == {
        "hits": 0, "misses": len(result["fragments"]), "rejected": 0,
    }


def test_repeat_submission_hits_cache_byte_identical(serial_daemon):
    first = serial_daemon.client.submit_blif(MISEX1)
    second = serial_daemon.client.submit_blif(MISEX1)
    groups = len(first["fragments"])
    assert second["cache"] == {"hits": groups, "misses": 0, "rejected": 0}
    assert all(f["cached"] is True for f in second["fragments"])
    # The cache-hit path must be indistinguishable from the miss path:
    # same fragment bytes, same keys, same final network bytes.
    assert [f["key"] for f in second["fragments"]] == [
        f["key"] for f in first["fragments"]
    ]
    assert [f["blif"] for f in second["fragments"]] == [
        f["blif"] for f in first["fragments"]
    ]
    assert second["blif"] == first["blif"]
    assert second["luts"] == first["luts"]

    stats = serial_daemon.client.stats()
    assert stats["cache"]["hits"] == groups
    assert stats["cache"]["misses"] == groups
    assert stats["latency"]["maps"] == 2
    assert stats["store"]["current_rows"] == groups


def test_unknown_ops_and_bad_requests_get_error_records(serial_daemon):
    records = list(serial_daemon.client.request({"op": "frobnicate"}))
    assert records[-1]["type"] == "error"
    with pytest.raises(ServiceError, match="blif"):
        serial_daemon.client.submit_blif("")
    with pytest.raises(ServiceError, match="flow"):
        serial_daemon.client.submit_blif(MISEX1, flow="nope")
    with pytest.raises(ServiceError, match="policy"):
        serial_daemon.client.submit_blif(
            MISEX1, policy={"not_a_field": 1}
        )
    # The daemon survives all of that.
    assert serial_daemon.client.ping()["type"] == "pong"


def test_retired_knobs_stay_wire_compatible(serial_daemon):
    """Old clients keep working: retired map knobs are ignored, retired
    policy fields are rejected by name."""
    client = serial_daemon.client
    legacy = client.submit_blif(
        MISEX1, use_oracle=False, oracle_min_support=0, fast_path_max_width=12
    )
    plain = client.submit_blif(MISEX1)
    # The ignored knobs do not even split the task key: all hits.
    assert plain["cache"]["misses"] == 0
    assert plain["blif"] == legacy["blif"]
    retired = {
        "budget_decay": 0.5,
        "verify_fragments": True,
        "per_output_fallback": True,
        "structural_fallback": True,
    }
    for name, value in retired.items():
        with pytest.raises(ServiceError, match=name) as err:
            client.submit_blif(MISEX1, policy={name: value})
        assert err.value.code == "bad_request"


# --------------------------------------------------------------------- #
# Store trust boundaries
# --------------------------------------------------------------------- #


def test_torn_row_is_rejected_and_recomputed(tmp_path):
    path = str(tmp_path / "store.db")
    with ResultStore(path) as store:
        before = hyde_map(parse_blif(MISEX1), 5, verify="none", cache=store)
        keys = [f["key"] for f in before.details["fragments"]]
        # Tear one row: flip its payload without fixing the row hash.
        store._conn.execute(
            "UPDATE results SET blif = blif || '\n' WHERE key = ?",
            (keys[0],),
        )
        store._conn.commit()

        after = hyde_map(parse_blif(MISEX1), 5, verify="none", cache=store)
        assert after.lut_count == before.lut_count
        # The torn row failed its integrity hash: deleted, recomputed.
        assert store.rejected_rows == 1
        assert after.details["cache"]["misses"] == 1
        assert after.details["cache"]["hits"] == len(keys) - 1
    # Third run: the recomputed row serves cleanly again.
    with ResultStore(path) as store:
        final = hyde_map(parse_blif(MISEX1), 5, verify="none", cache=store)
        assert final.details["cache"] == {
            "hits": len(keys), "misses": 0, "rejected": 0,
        }
        assert final.lut_count == before.lut_count


def test_wrong_content_row_is_rejected_by_revalidation(tmp_path):
    """A hash-consistent row with the *wrong fragment* must not splice.

    This models a buggy writer rather than bit rot: the integrity hash
    passes, so only the replay validation in the dispatch loop stands
    between the bad row and the output network.
    """
    path = str(tmp_path / "store.db")
    with ResultStore(path) as store:
        before = hyde_map(parse_blif(MISEX1), 5, verify="none", cache=store)
        frags = before.details["fragments"]
        assert len(frags) >= 2, "need two groups to cross-plant rows"
        # Plant group 1's fragment under group 0's key, with a valid
        # row hash and the verified flag cleared.
        row = store._conn.execute(
            "SELECT info, seconds FROM results WHERE key = ?",
            (frags[0]["key"],),
        ).fetchone()
        wrong_blif = frags[1]["blif"]
        h = _row_hash(
            frags[0]["key"], store.schema, wrong_blif, row[0], row[1]
        )
        store._conn.execute(
            "UPDATE results SET blif = ?, verified = 0, h = ? "
            "WHERE key = ?",
            (wrong_blif, h, frags[0]["key"]),
        )
        store._conn.commit()

        after = hyde_map(parse_blif(MISEX1), 5, verify="none", cache=store)
        assert after.lut_count == before.lut_count
        assert after.details["cache"]["rejected"] == 1
        assert after.details["cache"]["misses"] == 1
        assert to_blif(after.network) == to_blif(before.network)


def test_stale_schema_rows_miss_and_prune(tmp_path):
    path = str(tmp_path / "store.db")
    with ResultStore(path) as store:
        hyde_map(parse_blif(MISEX1), 5, verify="none", cache=store)
        rows = store.stats()["current_rows"]
        assert rows > 0
        # Pretend every row was written by an older key schema.
        store._conn.execute("UPDATE results SET schema = 'ancient'")
        store._conn.commit()

        stats = store.stats()
        assert stats["stale_rows"] == rows
        assert stats["current_rows"] == 0

        again = hyde_map(parse_blif(MISEX1), 5, verify="none", cache=store)
        assert again.details["cache"]["hits"] == 0
        assert again.details["cache"]["misses"] == rows
        # The recompute re-stamped every key with the current schema.
        stats = store.stats()
        assert stats["stale_rows"] == 0
        assert stats["current_rows"] == rows

        # prune_stale reclaims rows that nothing recomputes.
        store._conn.execute("UPDATE results SET schema = 'ancient'")
        store._conn.commit()
        assert store.prune_stale() == rows
        assert store.stats()["rows"] == 0


def test_store_validate_flags_corruption(tmp_path):
    path = str(tmp_path / "store.db")
    with ResultStore(path) as store:
        hyde_map(parse_blif(RD73), 5, verify="none", cache=store)
        assert store.validate() == []
        store._conn.execute(
            "UPDATE results SET blif = 'not blif at all' "
            "WHERE key = (SELECT key FROM results LIMIT 1)"
        )
        store._conn.commit()
        problems = store.validate()
        assert problems, "corruption went undetected"


def test_eviction_keeps_most_recent_rows(tmp_path):
    with ResultStore(str(tmp_path / "s.db"), max_rows=2) as store:
        store.put("a" * 32, ".model m\n.end\n")
        store.put("b" * 32, ".model m\n.end\n")
        assert store.get("a" * 32) is not None  # refresh a's recency
        store.put("c" * 32, ".model m\n.end\n")
        assert store.stats()["rows"] == 2
        assert store.get("b" * 32) is None  # LRU victim
        assert store.get("a" * 32) is not None
        assert store.get("c" * 32) is not None


def test_concurrent_writers_racing_same_key_under_lock_pressure(tmp_path):
    """Independent store connections hammering ``put`` on one key.

    This is the service-layer race: several daemon requests (or a
    daemon plus a CLI run) land the same content-addressed fragment at
    once while a third connection holds SQLite's write lock.  Every
    writer must come out clean — ``put`` either retries through the
    ``database is locked`` window or counts the failure — and the row
    that survives must be intact and servable.
    """
    path = str(tmp_path / "race.db")
    key = "d" * 32
    blif = ".model race\n.end\n"
    # Tiny busy_timeout so lock contention actually surfaces as
    # OperationalError instead of being absorbed by sqlite's own wait.
    stores = [
        ResultStore(path, busy_timeout=0.005, put_retries=8)
        for _ in range(3)
    ]
    acquired = threading.Event()
    locker = threading.Thread(
        target=hold_store_lock, args=(path, 0.6, acquired)
    )
    locker.start()
    assert acquired.wait(timeout=10.0), "lock holder never got the lock"

    failures = []

    def _hammer(store):
        for _ in range(20):
            try:
                store.put(key, blif)
            except sqlite3.OperationalError as exc:
                # Allowed only if the store *counted* it (budget spent);
                # a silent raw escape is the bug under test.
                failures.append(exc)

    threads = [
        threading.Thread(target=_hammer, args=(s,)) for s in stores
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    locker.join(timeout=10)

    assert not failures, f"put leaked raw lock errors: {failures}"
    retried = sum(s.lock_retries for s in stores)
    assert retried >= 1, "no writer ever saw the held write lock"
    # Whoever won, the row must be whole: correct bytes, clean hash.
    for store in stores:
        row = store.get(key)
        assert row is not None and row["blif"] == blif
    assert stores[0].validate() == []
    for store in stores:
        store.close()


# --------------------------------------------------------------------- #
# Concurrency
# --------------------------------------------------------------------- #


def test_concurrent_clients_get_deterministic_results(tmp_path):
    harness = _DaemonThread(tmp_path, jobs=1, max_concurrent=2)
    try:
        results = [None] * 6
        errors = []

        def _client(i, blif):
            try:
                client = ServiceClient(
                    harness.daemon.host, harness.daemon.port, timeout=120.0
                )
                results[i] = client.submit_blif(blif)
            except Exception as exc:  # noqa: BLE001 - collected for report
                errors.append((i, exc))

        # Six clients, two circuits, racing onto a 2-slot daemon: the
        # extra clients must queue, not fail, and every client of the
        # same circuit must get byte-identical output.
        threads = [
            threading.Thread(
                target=_client, args=(i, MISEX1 if i % 2 == 0 else RD73)
            )
            for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180)
        assert not errors, f"client failures: {errors}"
        assert all(r is not None for r in results)
        misex = [r for i, r in enumerate(results) if i % 2 == 0]
        rd73 = [r for i, r in enumerate(results) if i % 2 == 1]
        assert len({r["blif"] for r in misex}) == 1
        assert len({r["blif"] for r in rd73}) == 1
        assert len({r["luts"] for r in misex}) == 1
        assert len({r["luts"] for r in rd73}) == 1
        # And the daemon is still coherent afterwards.
        stats = harness.client.stats()
        assert stats["requests"] >= 6
        assert stats["errors"] == 0
    finally:
        harness.stop()


# --------------------------------------------------------------------- #
# Warm-pool hygiene: no fault or counter leakage between requests
# --------------------------------------------------------------------- #


def test_back_to_back_requests_do_not_leak_faults_or_counters(tmp_path):
    harness = _DaemonThread(tmp_path, jobs=2)
    try:
        # Request 1: sabotage group 0.  The ladder recovers it, but the
        # pool is now suspect and must be recycled before reuse.
        hurt = harness.client.submit_blif(MISEX1, faults="crash@0")
        assert hurt["degraded"], "injected crash left no degraded record"
        assert hurt["luts"] == hyde_map(parse_blif(MISEX1), 5).lut_count
        pool_stats = harness.client.stats()["pool"]
        assert pool_stats["recycles"] >= 1, (
            "fault-injected request did not recycle the warm pool"
        )

        # Request 2, different circuit: a leaked fault plan would crash
        # group 0 again; leaked counters would show cache hits from
        # request 1.  Both must read fresh.
        clean = harness.client.submit_blif(RD73)
        assert clean["degraded"] == []
        assert clean["cache"]["hits"] == 0
        assert clean["cache"]["rejected"] == 0
        assert clean["luts"] == hyde_map(parse_blif(RD73), 5).lut_count

        # Request 3, repeat: pure cache hits, zero executions, and the
        # per-request counters again start from zero rather than
        # accumulating across the warm pool's lifetime.
        repeat = harness.client.submit_blif(RD73)
        assert repeat["degraded"] == []
        assert repeat["cache"]["misses"] == 0
        assert repeat["cache"]["hits"] == len(repeat["fragments"])
        assert all(f["cached"] for f in repeat["fragments"])
        assert repeat["blif"] == clean["blif"]
    finally:
        harness.stop()


def test_warm_pool_recycles_only_when_idle():
    pool = WarmPool(workers=2)
    try:
        first = pool.acquire()
        second = pool.acquire()
        assert second is first or (first is None and second is None)
        pool.mark_dirty()
        assert pool.recycles == 0, "recycled under an in-flight request"
        pool.release()
        assert pool.recycles == 0
        pool.release()  # last checkout returns -> now it may recycle
        if first is not None:
            assert pool.recycles == 1
            third = pool.acquire()
            assert third is not first
            pool.release()
    finally:
        pool.close()
    with pytest.raises(RuntimeError):
        pool.acquire()


# --------------------------------------------------------------------- #
# Signal semantics (real subprocesses: exit codes are the contract)
# --------------------------------------------------------------------- #


def test_client_shutdown_op_exits_zero(tmp_path):
    info = tmp_path / "svc.json"
    proc = subprocess.Popen(
        _serve_argv(tmp_path / "cache.db", info, "--jobs", "1"),
        env=_subprocess_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        client = _wait_for_info(info, proc)
        result = client.submit_blif(RD73)
        assert result["ok"] is True
        client.shutdown()
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert not info.exists(), "endpoint file not cleaned up"


def test_sigterm_mid_request_drains_and_exits_75(tmp_path):
    info = tmp_path / "svc.json"
    proc = subprocess.Popen(
        _serve_argv(tmp_path / "cache.db", info, "--jobs", "1"),
        # The delay hook holds every map request open for one second —
        # a deterministic window to land the signal mid-request.
        env=_subprocess_env(REPRO_SERVICE_DELAY="1.0"),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        client = _wait_for_info(info, proc)
        outcome = {}

        def _submit():
            try:
                outcome["result"] = client.submit_blif(MISEX1)
            except Exception as exc:  # noqa: BLE001 - asserted below
                outcome["error"] = exc

        worker = threading.Thread(target=_submit)
        worker.start()
        time.sleep(0.4)  # request is admitted and sitting in the delay
        proc.send_signal(signal.SIGTERM)
        worker.join(timeout=60)
        assert proc.wait(timeout=60) == 75  # EX_TEMPFAIL after drain
        # The in-flight request ran to completion before exit: the
        # client holds a full result, not a torn connection.
        assert "error" not in outcome, outcome.get("error")
        result = outcome["result"]
        assert result["ok"] is True
        assert result["luts"] == hyde_map(parse_blif(MISEX1), 5).lut_count
        assert result["fragments"]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    # The drained request's work was persisted on the way out.
    with ResultStore(str(tmp_path / "cache.db")) as store:
        assert store.stats()["current_rows"] >= 1
        assert store.validate() == []
