"""A warm, reusable worker pool for the mapping service.

``jobs=2`` losing to serial on small circuits (BENCH_hyde.json: 0.197s
vs 0.164s) is pure pool-setup cost: every ``hyde_map`` call forked a
pool, paid interpreter copy-on-write and semaphore setup, and tore it
down again.  A daemon can pay that cost once.  :class:`WarmPool` owns
one fork pool across requests and hands it to the task runner as the
``pool`` of its :class:`~repro.mapping.parallel.RunContext` (the flows'
``pool=`` argument); the runner then skips both pool creation and the
auto-serial heuristic.

Reuse across requests needs hygiene that per-call pools got for free:

* **Poisoned workers must not leak into the next request.**  A
  wall-clock timeout leaves a worker grinding (or hung) inside its
  task; an injected fault may have wedged one deliberately.  Callers
  report that via :meth:`mark_dirty`, and the pool is recycled
  (terminate + fresh fork) as soon as the last in-flight request
  releases it — never under a live request, which may still have
  ``apply_async`` handles outstanding.

* **Requests must not observe each other.**  Every task runs
  :func:`~repro.mapping.parallel.decompose_group_task`, which builds a
  private manager (fresh perf counters, fresh BDDs) per task, so the
  only state that survives in a warm worker is the process-global
  fastpath memo — a deliberate cross-request win (keys are
  content-addressed packed bits, manager-independent).  Fault plans
  travel inside individual :class:`~repro.mapping.parallel.GroupTask`
  pickles and therefore cannot outlive their request either; the
  regression test for both lives in ``tests/test_service.py``.

The refcount dance (:meth:`acquire` / :meth:`release`) exists because
the daemon serves concurrent requests onto one pool:
``multiprocessing.Pool.apply_async`` is thread-safe, recycling under a
peer's feet is not.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Optional

from ..mapping.parallel import _make_pool

__all__ = ["WarmPool"]

logger = logging.getLogger("repro.service.pool")


class WarmPool:
    """One long-lived fork pool shared by every request of a daemon."""

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ValueError("WarmPool needs at least one worker")
        self.workers = workers
        self._pool = None
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._inflight = 0
        self._dirty = False
        self._closed = False
        #: Lifetime counters for the daemon's stats endpoint.
        self.recycles = 0
        self.forced_recycles = 0
        self.creation_failures = 0
        self.last_failure: Optional[str] = None

    # ----------------------------------------------------------------- #
    # Request-scoped checkout
    # ----------------------------------------------------------------- #

    def acquire(self):
        """Check the pool out for one request; returns the raw pool.

        Returns ``None`` when no pool can be created (restricted
        sandboxes without fork/semaphores) — the task runner then falls
        back to in-process execution exactly as it would for a failed
        per-call pool, so a request never fails on pool plumbing.
        A ``None`` checkout must still be :meth:`release`\\ d.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("WarmPool is closed")
            if self._pool is None:
                try:
                    self._pool = _make_pool(self.workers)
                except (OSError, PermissionError, RuntimeError) as exc:
                    self.creation_failures += 1
                    self.last_failure = f"{type(exc).__name__}: {exc}"
            self._inflight += 1
            return self._pool

    def release(self, dirty: bool = False) -> None:
        """Return a checkout; recycle once idle if anyone flagged dirt."""
        with self._lock:
            self._inflight = max(0, self._inflight - 1)
            self._dirty = self._dirty or dirty
            if self._inflight == 0:
                if self._dirty:
                    self._recycle_locked()
                self._idle.notify_all()

    def mark_dirty(self) -> None:
        """Flag the pool for recycling at the next idle moment."""
        with self._lock:
            self._dirty = True
            if self._inflight == 0:
                self._recycle_locked()

    # ----------------------------------------------------------------- #
    # Lifecycle
    # ----------------------------------------------------------------- #

    def _recycle_locked(self) -> None:
        if self._pool is not None:
            # terminate, not close: a hung worker is the usual reason
            # we are here, and close() would wait on it forever.
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self.recycles += 1
        self._dirty = False

    def recycle(self, timeout: Optional[float] = 10.0) -> bool:
        """Tear the pool down now.

        Waits up to ``timeout`` seconds for in-flight checkouts to
        drain; on expiry the recycle happens *anyway* — a leaked
        refcount (a caller that never released) must degrade to a noisy
        forced recycle, not wedge the daemon forever.  Returns True when
        the recycle had to be forced.  ``timeout=None`` waits without
        bound (the old behavior; only safe where leaks are impossible).
        """
        with self._lock:
            deadline = None if timeout is None else time.monotonic() + timeout
            forced = False
            while self._inflight > 0:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    forced = True
                    self.forced_recycles += 1
                    self.last_failure = (
                        f"forced recycle with {self._inflight} leaked "
                        "checkout(s)"
                    )
                    logger.warning(
                        "WarmPool.recycle: %d checkout(s) still in flight "
                        "after %.1fs — refcount leak; forcing recycle",
                        self._inflight,
                        timeout,
                    )
                    self._inflight = 0
                    break
                self._idle.wait(
                    timeout=1.0 if remaining is None else min(1.0, remaining)
                )
            self._recycle_locked()
            return forced

    def close(self) -> None:
        """Shut the pool down for good (daemon teardown)."""
        with self._lock:
            self._closed = True
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
                self._pool = None

    @property
    def alive(self) -> bool:
        with self._lock:
            return self._pool is not None

    def stats(self) -> dict:
        with self._lock:
            return {
                "workers": self.workers,
                "alive": self._pool is not None,
                "inflight": self._inflight,
                "recycles": self.recycles,
                "forced_recycles": self.forced_recycles,
                "creation_failures": self.creation_failures,
                "last_failure": self.last_failure,
            }

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
