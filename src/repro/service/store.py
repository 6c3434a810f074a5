"""Content-addressed SQLite result store for the mapping service.

One row per completed group task, keyed by the run journal's
content-addressed :func:`~repro.runstate.task_key` (SHA256 over the cone
BLIF, the output group, every :class:`~repro.decompose.DecompositionOptions`
field and the group-level policy knobs).  Identical cones — across
requests, circuits and users — therefore share one row, which is exactly
what turns a warm daemon into a cross-run cache instead of a per-process
memo.

Three safety properties, in decreasing order of paranoia:

* **Schema-version stamping.**  Every row is stamped with
  :func:`schema_version`, a digest of the store format, the journal's key
  schema and the *field names* of ``DecompositionOptions``.  Growing the
  options dataclass changes the digest, so every old row silently misses
  (and :meth:`ResultStore.prune_stale` reclaims it) instead of poisoning
  the cache with fragments computed under a different option universe.
  The task key itself already covers option *values*; the version stamp
  covers option *shape* — the drift a value hash cannot see.

* **Per-row integrity hashes.**  Each row carries a truncated SHA256
  over its canonical payload.  A row that fails the hash on read (torn
  write, bit rot, hand-editing) is deleted and reported as a miss, so
  corruption degrades to recomputation, never to splicing garbage.

* **Verified-on-first-reuse.**  Rows are written with a ``verified``
  flag (set when the producing reply already passed the task runner's
  reply validation).  The lookup stage in
  :mod:`repro.mapping.parallel` runs every row through
  :func:`~repro.mapping.parallel.check_fragment`: the structural check
  always, and for an unverified row also the equivalence engine live
  replies face, before its first reuse and stamp.

The store is safe for multi-threaded use (one connection guarded by a
lock, WAL journaling for concurrent readers from other processes).

Failure posture: the store is a *cache*, so storage-layer trouble must
degrade to recomputation, never to a failed request.  Cross-process
write contention (two daemons sharing one file) is bounded by
``busy_timeout`` plus a short retry loop on :meth:`put`; a read that
still hits ``database is locked`` is reported as a miss; best-effort
bookkeeping writes (:meth:`mark_verified`, :meth:`invalidate`) swallow
lock errors and count them.  ``REPRO_STORE_CHAOS`` (or the ``chaos``
ctor argument) injects ``sqlite3.OperationalError`` on a budget — e.g.
``put_error:3`` makes the next three writes fail as a full disk would —
which is how the chaos harness proves that posture.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sqlite3
import threading
import time
from typing import Dict, List, Optional

from ..decompose import DecompositionOptions
from ..exact import cache as _exact_cache
from ..runstate.journal import JOURNAL_VERSION, KEY_HEX_LEN

__all__ = ["ResultStore", "schema_version", "STORE_FORMAT"]

#: Bump when the table layout or row-hash recipe changes.
STORE_FORMAT = 1

#: Length of the per-row integrity hash (hex chars).
ROW_HASH_LEN = 16

#: Default LRU capacity; far above any single-circuit group count, so
#: eviction only ever trims long-lived multi-user stores.
DEFAULT_MAX_ROWS = 100_000

#: GroupTask attributes :func:`~repro.runstate.task_key` hashes besides
#: the options — listed here so renaming one of them changes
#: :func:`schema_version` and invalidates every stored row.
_TASK_KEY_FIELDS = (
    "blif",
    "group",
    "mode",
    "base_name",
    "ingredient_policy",
    "ppi_placement",
    "fallback_per_output",
    "options",
)


def schema_version() -> str:
    """Digest of everything that shapes a task key or a stored row.

    Covers the store format, the journal's key length/version, the task
    attributes the key hashes, and the *names* of every
    ``DecompositionOptions`` field.  Any growth or rename in that set
    silently changes the keys a fresh run derives — this digest makes
    the change loud: every row stamped with the old digest becomes
    stale, misses, and is reclaimed by :meth:`ResultStore.prune_stale`.
    """
    payload = {
        "store_format": STORE_FORMAT,
        "journal_version": JOURNAL_VERSION,
        "key_hex_len": KEY_HEX_LEN,
        "task_key_fields": list(_TASK_KEY_FIELDS),
        "option_fields": sorted(
            f.name for f in dataclasses.fields(DecompositionOptions)
        ),
        # The exact oracle's payload format: a bump there changes what
        # an "exact"-mode fragment means, so service rows computed under
        # the old semantics must stop matching too.  Attribute read at
        # call time so version-sensitivity probes see monkeypatches.
        "exact_cache_version": _exact_cache.EXACT_SCHEMA_VERSION,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _parse_chaos(spec: Optional[str]) -> Dict[str, int]:
    """Parse ``"put_error:2,get_error:1"`` into remaining-shot budgets."""
    budgets: Dict[str, int] = {}
    if not spec:
        return budgets
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        op, _, count = part.partition(":")
        try:
            budgets[op.strip()] = int(count) if count else 1
        except ValueError:
            raise ValueError(f"bad store chaos spec entry: {part!r}") from None
    return budgets


def _is_lock_error(exc: sqlite3.OperationalError) -> bool:
    text = str(exc).lower()
    return "locked" in text or "busy" in text


def _row_hash(key: str, schema: str, blif: str, info: str, seconds: float) -> str:
    body = json.dumps(
        [key, schema, blif, info, round(float(seconds), 6)],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode()).hexdigest()[:ROW_HASH_LEN]


class ResultStore:
    """SQLite-backed result cache keyed by content-addressed task keys.

    ``":memory:"`` is accepted for tests.  All methods are thread-safe.
    """

    def __init__(
        self,
        path: str,
        max_rows: int = DEFAULT_MAX_ROWS,
        busy_timeout: float = 2.0,
        put_retries: int = 2,
        chaos: Optional[str] = None,
    ):
        self.path = os.fspath(path)
        self.max_rows = max_rows
        self.busy_timeout = busy_timeout
        self.put_retries = max(0, int(put_retries))
        self.schema = schema_version()
        # Session-local traffic counters (process lifetime, not persisted).
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.rejected_rows = 0
        self.op_errors = 0
        self.lock_retries = 0
        self.injected_faults = 0
        self._chaos = _parse_chaos(
            chaos if chaos is not None else os.environ.get("REPRO_STORE_CHAOS")
        )
        self._lock = threading.Lock()
        directory = os.path.dirname(self.path)
        if directory and self.path != ":memory:":
            os.makedirs(directory, exist_ok=True)
        self._conn = sqlite3.connect(
            self.path, check_same_thread=False, timeout=busy_timeout
        )
        with self._lock:
            if self.path != ":memory:":
                # WAL keeps concurrent readers (repro cache --check on a
                # live store) off the writer's lock.
                self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(
                """
                CREATE TABLE IF NOT EXISTS results (
                    key TEXT PRIMARY KEY,
                    schema TEXT NOT NULL,
                    blif TEXT NOT NULL,
                    info TEXT NOT NULL,
                    seconds REAL NOT NULL,
                    verified INTEGER NOT NULL DEFAULT 0,
                    hits INTEGER NOT NULL DEFAULT 0,
                    created REAL NOT NULL,
                    last_used REAL NOT NULL,
                    h TEXT NOT NULL
                )
                """
            )
            self._conn.execute(
                "CREATE INDEX IF NOT EXISTS idx_results_last_used "
                "ON results(last_used)"
            )
            self._conn.commit()

    def _maybe_inject(self, op: str) -> None:
        """Burn one shot of the chaos budget for ``op``, if any remain.

        Caller must hold ``self._lock``.  Raises the same
        ``sqlite3.OperationalError`` a full disk or torn filesystem
        would, so the injected failure exercises the real handlers.
        """
        remaining = self._chaos.get(op, 0)
        if remaining > 0:
            self._chaos[op] = remaining - 1
            self.injected_faults += 1
            raise sqlite3.OperationalError(
                f"injected {op} failure (disk I/O error)"
            )

    # ----------------------------------------------------------------- #
    # Read path
    # ----------------------------------------------------------------- #

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored record for ``key``, or ``None`` on a miss.

        Only rows stamped with the *current* schema version are served;
        rows whose integrity hash does not check out are deleted on the
        spot and reported as misses.  A served row's ``hits`` /
        ``last_used`` bookkeeping is updated (LRU order).  A read that
        loses a cross-process lock fight (``database is locked``) is a
        miss, not an exception — the caller recomputes.
        """
        now = time.time()
        with self._lock:
            self.lookups += 1
            try:
                return self._get_locked(key, now)
            except sqlite3.OperationalError:
                self.op_errors += 1
                self.misses += 1
                return None

    def _get_locked(self, key: str, now: float) -> Optional[Dict[str, object]]:
        self._maybe_inject("get_error")
        row = self._conn.execute(
            "SELECT schema, blif, info, seconds, verified, h "
            "FROM results WHERE key = ?",
            (key,),
        ).fetchone()
        if row is None:
            self.misses += 1
            return None
        schema, blif, info_json, seconds, verified, h = row
        if schema != self.schema:
            # Stale key universe: miss (prune_stale reclaims later).
            self.misses += 1
            return None
        if _row_hash(key, schema, blif, info_json, seconds) != h:
            self._conn.execute("DELETE FROM results WHERE key = ?", (key,))
            self._conn.commit()
            self.rejected_rows += 1
            self.misses += 1
            return None
        try:
            info = json.loads(info_json)
        except json.JSONDecodeError:
            self._conn.execute("DELETE FROM results WHERE key = ?", (key,))
            self._conn.commit()
            self.rejected_rows += 1
            self.misses += 1
            return None
        self._conn.execute(
            "UPDATE results SET hits = hits + 1, last_used = ? "
            "WHERE key = ?",
            (now, key),
        )
        self._conn.commit()
        self.hits += 1
        return {
            "key": key,
            "blif": blif,
            "info": info,
            "seconds": seconds,
            "verified": bool(verified),
        }

    # ----------------------------------------------------------------- #
    # Write path
    # ----------------------------------------------------------------- #

    def put(
        self,
        key: str,
        blif_text: str,
        info: Optional[Dict[str, object]] = None,
        seconds: float = 0.0,
        verified: bool = False,
    ) -> None:
        """Insert or replace the fragment for ``key`` (current schema).

        Lock contention from a concurrent writer (another daemon on the
        same store file) is retried ``put_retries`` times on top of
        SQLite's own ``busy_timeout`` wait; a loss after that — or a
        genuine storage failure (disk full) — raises
        ``sqlite3.OperationalError`` for the caller to treat as a
        skipped cache write.
        """
        info_json = json.dumps(
            info or {}, sort_keys=True, separators=(",", ":"), default=repr
        )
        seconds = round(float(seconds), 6)
        now = time.time()
        h = _row_hash(key, self.schema, blif_text, info_json, seconds)
        with self._lock:
            for attempt in range(self.put_retries + 1):
                try:
                    self._maybe_inject("put_error")
                    self._conn.execute(
                        "INSERT OR REPLACE INTO results "
                        "(key, schema, blif, info, seconds, verified, hits, "
                        " created, last_used, h) "
                        "VALUES (?, ?, ?, ?, ?, ?, 0, ?, ?, ?)",
                        (
                            key, self.schema, blif_text, info_json, seconds,
                            1 if verified else 0, now, now, h,
                        ),
                    )
                    self._conn.commit()
                    self._evict_locked()
                    return
                except sqlite3.OperationalError as exc:
                    # Roll back a half-open transaction before retrying
                    # or handing the error up — never leave the
                    # connection wedged mid-transaction.
                    try:
                        self._conn.rollback()
                    except sqlite3.Error:
                        pass
                    if (
                        not _is_lock_error(exc)
                        or attempt >= self.put_retries
                    ):
                        self.op_errors += 1
                        raise
                    self.lock_retries += 1
                    time.sleep(0.05 * (attempt + 1))

    def mark_verified(self, key: str) -> None:
        """Stamp a row as having passed full reply validation.

        Best-effort: losing a lock fight here only means the row stays
        ``verified=0`` and pays one more revalidation on its next reuse.
        """
        with self._lock:
            try:
                self._conn.execute(
                    "UPDATE results SET verified = 1 WHERE key = ?", (key,)
                )
                self._conn.commit()
            except sqlite3.OperationalError:
                self.op_errors += 1

    def invalidate(self, key: str) -> None:
        """Delete one row (failed revalidation: recompute and overwrite).

        Best-effort under lock contention: a row that survives an
        invalidation attempt still fails revalidation on its next read.
        """
        with self._lock:
            try:
                cur = self._conn.execute(
                    "DELETE FROM results WHERE key = ?", (key,)
                )
                self._conn.commit()
                if cur.rowcount:
                    self.rejected_rows += cur.rowcount
            except sqlite3.OperationalError:
                self.op_errors += 1

    # ----------------------------------------------------------------- #
    # Maintenance
    # ----------------------------------------------------------------- #

    def _evict_locked(self) -> int:
        """LRU-evict past ``max_rows`` (caller holds the lock)."""
        (count,) = self._conn.execute(
            "SELECT COUNT(*) FROM results"
        ).fetchone()
        excess = count - self.max_rows
        if excess <= 0:
            return 0
        self._conn.execute(
            "DELETE FROM results WHERE key IN ("
            "SELECT key FROM results ORDER BY last_used ASC LIMIT ?)",
            (excess,),
        )
        self._conn.commit()
        return excess

    def prune_stale(self) -> int:
        """Delete every row written under a different schema version."""
        with self._lock:
            cur = self._conn.execute(
                "DELETE FROM results WHERE schema != ?", (self.schema,)
            )
            self._conn.commit()
            return cur.rowcount

    def validate(self, check_fragments: bool = True) -> List[str]:
        """Integrity-check every row; empty return means a clean store.

        Mirrors ``validate_journal``: key shape, integrity hash, info
        JSON, and (with ``check_fragments``) a full BLIF re-parse of the
        payload.  Stale-schema rows are reported as notes, not failures
        — they cannot be served and are one :meth:`prune_stale` away
        from reclamation.
        """
        problems: List[str] = []
        with self._lock:
            rows = self._conn.execute(
                "SELECT key, schema, blif, info, seconds, h FROM results"
            ).fetchall()
        for key, schema, blif, info_json, seconds, h in rows:
            if (
                not isinstance(key, str)
                or len(key) != KEY_HEX_LEN
                or any(c not in "0123456789abcdef" for c in key)
            ):
                problems.append(f"row {key!r}: malformed task key")
                continue
            if _row_hash(key, schema, blif, info_json, seconds) != h:
                problems.append(f"row {key}: integrity hash mismatch")
                continue
            try:
                json.loads(info_json)
            except json.JSONDecodeError:
                problems.append(f"row {key}: info is not valid JSON")
            if check_fragments:
                from ..network.blif import parse_blif  # lazy: cycle-free

                try:
                    parse_blif(blif)
                except ValueError as exc:
                    problems.append(f"row {key}: fragment rejected: {exc}")
        return problems

    def stats(self) -> Dict[str, object]:
        """Store-level metrics for ``repro cache`` / the daemon's stats."""
        with self._lock:
            (total,) = self._conn.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()
            (current,) = self._conn.execute(
                "SELECT COUNT(*) FROM results WHERE schema = ?",
                (self.schema,),
            ).fetchone()
            (verified,) = self._conn.execute(
                "SELECT COUNT(*) FROM results WHERE schema = ? "
                "AND verified = 1",
                (self.schema,),
            ).fetchone()
            (stored_hits,) = self._conn.execute(
                "SELECT COALESCE(SUM(hits), 0) FROM results"
            ).fetchone()
        return {
            "path": self.path,
            "schema": self.schema,
            "rows": total,
            "current_rows": current,
            "stale_rows": total - current,
            "verified_rows": verified,
            "stored_hits": stored_hits,
            "max_rows": self.max_rows,
            "session": {
                "lookups": self.lookups,
                "hits": self.hits,
                "misses": self.misses,
                "rejected_rows": self.rejected_rows,
                "op_errors": self.op_errors,
                "lock_retries": self.lock_retries,
                "injected_faults": self.injected_faults,
            },
        }

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
