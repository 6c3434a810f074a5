"""Mapping-as-a-service: a warm daemon over the governed task runner.

Why a daemon at all: one-shot ``repro map`` pays interpreter start,
circuit build *and* pool fork on every invocation — which is how
``--jobs 2`` ends up slower than serial on small circuits.  The daemon
pays those once, then serves every subsequent request from a warm
process (:class:`~repro.service.WarmPool`) with a content-addressed
result cache (:class:`~repro.service.ResultStore`) in front, so repeat
submissions of the same cones skip decomposition entirely.

Wire protocol (deliberately boring — newline-delimited JSON over
localhost TCP, one request line per connection):

* request: ``{"op": "ping" | "stats" | "shutdown" | "map", ...}``.
  A ``map`` request carries ``blif`` (the circuit text), ``flow``
  (``"hyde"`` or ``"per-output"``), and optional knob fields that
  mirror the flow signatures (``k``, ``encoding_policy``,
  ``max_bdd_nodes``, ...), plus ``policy`` (a
  :class:`~repro.mapping.parallel.TaskPolicy` field dict) and
  ``faults`` (a :meth:`~repro.testing.FaultPlan.parse` spec string).

* response: a stream of JSON lines.  For ``map``: one
  ``{"type": "fragment", ...}`` record per group task — carrying the
  content-addressed ``key``, whether it was ``cached``, the producing
  wall clock and the fragment BLIF — followed by a single
  ``{"type": "result", ...}`` record with the mapped network, LUT/CLB
  counts and the run report.  Errors are a single
  ``{"type": "error", "error": ...}`` record; the connection always
  gets *some* terminal record.

Operational contract:

* ``map`` requests pass a **bounded admission queue**: up to
  ``max_concurrent`` run, up to ``max_queue`` more wait (at most
  ``queue_timeout`` seconds, or the request's own deadline), and
  everyone past that is **shed** with a typed ``busy`` error carrying a
  ``retry_after`` hint — overload degrades to fast, honest refusals
  instead of unbounded queueing.
* Every error record carries a wire-level ``code`` (see
  ``repro.service.client.ERROR_CODES``); clients retry the retryable
  ones with deterministic backoff.
* A request ``deadline_seconds`` bounds the queue wait *and* is
  propagated into the task runner's :class:`TaskPolicy` wall clock, so
  one number bounds the request end to end.
* A **circuit breaker** watches the warm pool: ``breaker_threshold``
  consecutive dirty releases (recycles) trip it, after which pooled
  execution is refused and requests degrade to cache-only +
  in-process serial mapping — still correct, just slower — until a
  cooldown-gated probe request survives cleanly.
* The ``health`` op reports queue, pool, store and breaker state
  without touching the mapping path.
* SIGTERM/SIGINT drains: the listener stops accepting, every in-flight
  request runs to completion (its client gets a full response), then
  the daemon exits with code 75 (``EX_TEMPFAIL``, matching the CLI's
  interrupted-run convention).  A client ``shutdown`` op drains the
  same way but exits 0 — the distinction separates "operator/scheduler
  stopped us" from "work finished, daemon dismissed".
* A request that timed out or carried injected faults may leave a
  wedged worker behind; the pool is flagged dirty and recycled at the
  next idle moment so the damage cannot leak into later requests.
* A connection that never delivers its request line within
  ``request_timeout`` seconds (slow-loris, dead peer) is answered with
  a ``timeout`` error and closed — it cannot pin handler threads.

Test machinery: ``REPRO_SERVICE_DELAY`` (seconds, float) stalls each
``map`` request after admission — making "signal arrives mid-request"
reproducible instead of racy — and a request ``chaos`` field makes the
*wire layer* misbehave on purpose (``torn_result`` / ``torn_fragment``
write half a JSON line and hang up, ``drop_before_result`` /
``close_early`` close without the terminal record), which is how the
chaos harness proves clients see typed torn-stream errors, never
garbage.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
import time
from dataclasses import fields as dataclass_fields
from dataclasses import replace as dataclass_replace
from typing import Dict, Iterator, List, Optional

from .. import obs
from ..mapping import TaskPolicy, hyde_map, map_per_output
from ..network import parse_blif, to_blif
from ..runstate import ShutdownRequested, graceful_shutdown
from .breaker import CircuitBreaker
from .pool import WarmPool
from .store import ResultStore

__all__ = ["MappingService", "MappingDaemon", "EXIT_DRAINED"]

#: Wire-layer misbehavior a request may ask for (test machinery, like
#: the ``faults`` knob): tear the result/fragment line in half, drop
#: the terminal record, or hang up before answering at all.
_WIRE_CHAOS = (
    "torn_result",
    "torn_fragment",
    "drop_before_result",
    "close_early",
)

#: Exit code after a signal-initiated drain — EX_TEMPFAIL, the same
#: convention the CLI uses for interrupted (but resumable) runs.
EXIT_DRAINED = 75

#: Request knobs forwarded verbatim to the flow functions.  Everything
#: else in a request is ignored rather than rejected, so old clients
#: survive new server knobs and vice versa.
_COMMON_KNOBS = (
    "k",
    "encoding_policy",
    "use_dontcares",
    "verify",
    "pack_clbs",
    "max_bdd_nodes",
    "max_seconds",
    "cost_model",
)
_HYDE_KNOBS = _COMMON_KNOBS + (
    "max_group",
    "ingredient_policy",
    "ppi_placement",
    "fallback_per_output",
    "portfolio",
    "exact_budget_seconds",
)

_FLOWS = {"hyde": hyde_map, "per-output": map_per_output}

_POLICY_FIELDS = {f.name for f in dataclass_fields(TaskPolicy)}


def _request_delay() -> float:
    try:
        return float(os.environ.get("REPRO_SERVICE_DELAY", "") or 0.0)
    except ValueError:  # pragma: no cover - malformed env is operator error
        return 0.0


class MappingService:
    """Protocol-agnostic request handling (the daemon adds the socket).

    Split out so tests can drive ``map`` requests without a TCP server,
    and so the wire layer stays a dumb line pump.
    """

    def __init__(
        self,
        store: ResultStore,
        pool: Optional[WarmPool] = None,
        jobs: int = 2,
        max_concurrent: int = 4,
        max_queue: int = 16,
        queue_timeout: float = 30.0,
        breaker: Optional[CircuitBreaker] = None,
    ):
        self.store = store
        self.pool = pool
        self.jobs = max(1, jobs)
        self.max_concurrent = max(1, max_concurrent)
        self.max_queue = max(0, max_queue)
        self.queue_timeout = queue_timeout
        self.breaker = breaker
        self._slots = threading.Semaphore(self.max_concurrent)
        self._lock = threading.Lock()
        self._active = 0
        self._queued = 0
        self._idle = threading.Condition(self._lock)
        self.draining = False
        self.started = time.time()
        self._started_mono = time.monotonic()
        # Request-level telemetry for the stats op.
        self.requests = 0
        self.errors = 0
        self.map_count = 0
        self.map_seconds = 0.0
        self.last_map_seconds: Optional[float] = None
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_rejected = 0
        # Resilience telemetry.
        self.sheds = 0
        self.deadline_rejects = 0
        self.request_timeouts = 0
        self.cache_write_errors = 0
        self.breaker_serial = 0

    # ------------------------------------------------------------- #
    # Drain accounting
    # ------------------------------------------------------------- #

    def track(self):
        """Context manager counting one connection as in-flight."""
        service = self

        class _Track:
            def __enter__(self):
                with service._lock:
                    service._active += 1
                    service.requests += 1
                return self

            def __exit__(self, *exc):
                with service._lock:
                    service._active -= 1
                    if service._active == 0:
                        service._idle.notify_all()

        return _Track()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every in-flight request has fully responded."""
        deadline = None if timeout is None else time.time() + timeout
        with self._lock:
            self.draining = True
            while self._active > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.time()
                    if remaining <= 0:
                        return False
                self._idle.wait(timeout=remaining)
        return True

    # ------------------------------------------------------------- #
    # Ops
    # ------------------------------------------------------------- #

    def process(self, request: Dict[str, object]) -> Iterator[Dict[str, object]]:
        """Yield the response records for one request."""
        op = request.get("op")
        try:
            if op == "ping":
                yield {
                    "type": "pong",
                    "pid": os.getpid(),
                    "schema": self.store.schema,
                }
            elif op == "stats":
                yield {"type": "stats", **self.stats()}
            elif op == "health":
                yield {"type": "health", **self.health()}
            elif op == "shutdown":
                yield {"type": "bye"}
            elif op == "map":
                yield from self._process_map(request)
            else:
                self.errors += 1
                yield {
                    "type": "error",
                    "code": "bad_request",
                    "error": f"unknown op {op!r}",
                }
        except (ShutdownRequested, KeyboardInterrupt):  # pragma: no cover
            raise
        except Exception as exc:
            self.errors += 1
            yield {
                "type": "error",
                "code": "internal",
                "error": f"{type(exc).__name__}: {exc}",
            }

    def stats(self) -> Dict[str, object]:
        with self._lock:
            mean = self.map_seconds / self.map_count if self.map_count else None
            out: Dict[str, object] = {
                "pid": os.getpid(),
                "jobs": self.jobs,
                "active": self._active,
                "draining": self.draining,
                "requests": self.requests,
                "errors": self.errors,
                "latency": {
                    "maps": self.map_count,
                    "total_seconds": round(self.map_seconds, 6),
                    "mean_seconds": round(mean, 6) if mean else None,
                    "last_seconds": self.last_map_seconds,
                },
                "cache": {
                    "hits": self.cache_hits,
                    "misses": self.cache_misses,
                    "rejected": self.cache_rejected,
                },
                "uptime_seconds": round(
                    time.monotonic() - self._started_mono, 3
                ),
                "queue": {
                    "queued": self._queued,
                    "max_concurrent": self.max_concurrent,
                    "max_queue": self.max_queue,
                },
                "resilience": {
                    "sheds": self.sheds,
                    "deadline_rejects": self.deadline_rejects,
                    "request_timeouts": self.request_timeouts,
                    "cache_write_errors": self.cache_write_errors,
                    "breaker_serial": self.breaker_serial,
                },
            }
        if self.breaker is not None:
            out["breaker"] = self.breaker.snapshot()
        out["store"] = self.store.stats()
        if self.pool is not None:
            out["pool"] = self.pool.stats()
        return out

    def health(self) -> Dict[str, object]:
        """Cheap liveness + capacity snapshot (never touches mapping)."""
        with self._lock:
            active = self._active
            queued = self._queued
            draining = self.draining
            queue = {
                "active": active,
                "queued": queued,
                "max_concurrent": self.max_concurrent,
                "max_queue": self.max_queue,
                "sheds": self.sheds,
                "deadline_rejects": self.deadline_rejects,
            }
        breaker = self.breaker.snapshot() if self.breaker is not None else None
        if draining:
            status = "draining"
        elif breaker is not None and breaker["state"] != "closed":
            status = "degraded"
        else:
            status = "ok"
        return {
            "ok": status == "ok",
            "status": status,
            "pid": os.getpid(),
            "uptime_seconds": round(time.monotonic() - self._started_mono, 3),
            "queue": queue,
            "breaker": breaker,
            "pool": self.pool.stats() if self.pool is not None else None,
            "store": self.store.stats(),
        }

    # ------------------------------------------------------------- #
    # map
    # ------------------------------------------------------------- #

    def _retry_after_hint(self) -> float:
        """How long a shed client should wait: roughly one mean map."""
        with self._lock:
            mean = self.map_seconds / self.map_count if self.map_count else None
        return round(max(0.05, mean if mean is not None else 0.25), 3)

    def _shed(self, why: str) -> Dict[str, object]:
        hint = self._retry_after_hint()
        with self._lock:
            self.sheds += 1
            self.errors += 1
        obs.event("service_shed", reason=why, retry_after=hint)
        return {
            "type": "error",
            "code": "busy",
            "retry_after": hint,
            "error": f"daemon at capacity ({why}); retry in ~{hint:g}s",
        }

    def _process_map(
        self, request: Dict[str, object]
    ) -> Iterator[Dict[str, object]]:
        if self.draining:
            # Narrow race: connection accepted just before the listener
            # stopped.  Refuse honestly instead of starting work the
            # drain would then have to wait arbitrarily long for.
            self.errors += 1
            yield {
                "type": "error",
                "code": "draining",
                "error": "daemon is draining",
            }
            return
        flow_name = str(request.get("flow", "hyde"))
        flow = _FLOWS.get(flow_name)
        if flow is None:
            self.errors += 1
            yield {
                "type": "error",
                "code": "bad_request",
                "error": f"unknown flow {flow_name!r} "
                f"(serving: {sorted(_FLOWS)})",
            }
            return
        blif = request.get("blif")
        if not isinstance(blif, str) or not blif.strip():
            self.errors += 1
            yield {
                "type": "error",
                "code": "bad_request",
                "error": "map request needs 'blif' text",
            }
            return

        kwargs, problems = self._flow_kwargs(flow_name, request)
        if problems:
            self.errors += 1
            yield {
                "type": "error",
                "code": "bad_request",
                "error": "; ".join(problems),
            }
            return

        deadline = request.get("deadline_seconds")
        if deadline is not None:
            try:
                deadline = float(deadline)
                if deadline <= 0:
                    raise ValueError
            except (TypeError, ValueError):
                self.errors += 1
                yield {
                    "type": "error",
                    "code": "bad_request",
                    "error": "'deadline_seconds' must be a positive number",
                }
                return

        # Bounded admission: run now, wait briefly, or shed — never
        # queue without bound.  The wait is capped by queue_timeout and
        # by the request's own deadline.
        admit_start = time.perf_counter()
        acquired = self._slots.acquire(blocking=False)
        if not acquired:
            with self._lock:
                can_queue = self._queued < self.max_queue
                if can_queue:
                    self._queued += 1
            if not can_queue:
                yield self._shed("admission queue full")
                return
            try:
                wait = self.queue_timeout
                if deadline is not None:
                    wait = min(wait, deadline)
                acquired = self._slots.acquire(timeout=max(0.0, wait))
            finally:
                with self._lock:
                    self._queued -= 1
            if not acquired:
                yield self._shed("queue wait exhausted")
                return

        try:
            if self.draining:
                self.errors += 1
                yield {
                    "type": "error",
                    "code": "draining",
                    "error": "daemon is draining",
                }
                return
            delay = _request_delay()
            if delay > 0:
                time.sleep(delay)
            if deadline is not None:
                # Whatever the queue (and the test delay hook) consumed
                # comes out of the work budget: propagate the remainder
                # into the task runner's wall clock.
                remaining = deadline - (time.perf_counter() - admit_start)
                if remaining <= 0:
                    with self._lock:
                        self.deadline_rejects += 1
                        self.errors += 1
                    yield {
                        "type": "error",
                        "code": "deadline",
                        "error": f"deadline of {deadline:g}s expired "
                        "before mapping started",
                    }
                    return
                policy = kwargs.get("policy")
                if policy is None:
                    kwargs["policy"] = TaskPolicy(timeout_seconds=remaining)
                elif (
                    policy.timeout_seconds is None
                    or policy.timeout_seconds > remaining
                ):
                    kwargs["policy"] = dataclass_replace(
                        policy, timeout_seconds=remaining
                    )
            start = time.perf_counter()
            try:
                net = parse_blif(blif)
            except ValueError as exc:
                # Unparseable input is the client's fault, not ours.
                with self._lock:
                    self.errors += 1
                yield {
                    "type": "error",
                    "code": "bad_request",
                    "error": f"unparseable blif: {exc}",
                }
                return
            pooled = None
            dirty = False
            jobs = int(request.get("jobs", self.jobs) or 1)
            want_pool = self.pool is not None and jobs > 1
            breaker_engaged = False
            if want_pool and self.breaker is not None:
                if self.breaker.allow_pool():
                    breaker_engaged = True
                else:
                    # Breaker open: the pool is crash-looping.  Degrade
                    # to cache-only + in-process serial mapping — still
                    # correct, just slower — instead of fork-thrashing.
                    want_pool = False
                    jobs = 1
                    with self._lock:
                        self.breaker_serial += 1
                    obs.event("service_breaker_serial", circuit=net.name)
            if want_pool:
                pooled = self.pool.acquire()
            try:
                result = flow(
                    net,
                    jobs=jobs,
                    cache=self.store,
                    pool=pooled,
                    **kwargs,
                )
                dirty = self._poisons_pool(request, result.details)
            finally:
                if want_pool:
                    self.pool.release(dirty=dirty)
            if breaker_engaged:
                if dirty:
                    if self.breaker.record_failure():
                        obs.event(
                            "service_breaker_open",
                            failures=self.breaker.consecutive_failures,
                        )
                elif self.breaker.record_success():
                    obs.event("service_breaker_close")
            elapsed = time.perf_counter() - start
        finally:
            self._slots.release()

        cache = result.details.get("cache") or {}
        with self._lock:
            self.map_count += 1
            self.map_seconds += elapsed
            self.last_map_seconds = round(elapsed, 6)
            self.cache_hits += int(cache.get("hits", 0))
            self.cache_misses += int(cache.get("misses", 0))
            self.cache_rejected += int(cache.get("rejected", 0))
            self.cache_write_errors += int(
                result.details.get("cache_write_errors") or 0
            )

        for fragment in result.details.get("fragments") or []:
            yield {"type": "fragment", **fragment}
        yield {
            "type": "result",
            "ok": True,
            "flow": flow_name,
            "circuit": net.name,
            "luts": result.lut_count,
            "depth": result.depth,
            "clbs": result.clb_count,
            "seconds": round(result.seconds, 6),
            "service_seconds": round(elapsed, 6),
            "cache": cache,
            "degraded": [
                {k: v for k, v in entry.items() if k != "causes"}
                | {"causes": list(entry.get("causes") or [])}
                for entry in result.details.get("degraded") or []
            ],
            "jobs_used": result.details.get("perf", {}).get("jobs_used"),
            "portfolio": result.details.get("portfolio") or [],
            "blif": to_blif(result.network),
        }

    def _flow_kwargs(self, flow_name: str, request: Dict[str, object]):
        allowed = _HYDE_KNOBS if flow_name == "hyde" else _COMMON_KNOBS
        kwargs: Dict[str, object] = {
            k: request[k] for k in allowed if request.get(k) is not None
        }
        # Service default: skip the whole-network verify.  Every fragment
        # already passes the task runner's reply validation, and cached
        # rows are revalidated before first reuse — a second monolithic
        # check per request would erase most of the warm-cache win.
        kwargs.setdefault("verify", "none")
        problems: List[str] = []
        policy = request.get("policy")
        if policy is not None:
            if not isinstance(policy, dict):
                problems.append("'policy' must be a TaskPolicy field dict")
            else:
                unknown = sorted(set(policy) - _POLICY_FIELDS)
                if unknown:
                    problems.append(f"unknown policy field(s): {unknown}")
                else:
                    kwargs["policy"] = TaskPolicy(**policy)
        faults = request.get("faults")
        if faults:
            from ..testing import FaultPlan

            try:
                kwargs["faults"] = FaultPlan.parse(str(faults))
            except ValueError as exc:
                problems.append(f"bad fault spec: {exc}")
        return kwargs, problems

    @staticmethod
    def _poisons_pool(request: Dict[str, object], details: Dict[str, object]) -> bool:
        """Did this request possibly leave a worker wedged or tainted?

        Injected faults may park a worker in a busy loop (``hang``) and
        timeouts abandon a worker mid-task; either way the fork pool is
        no longer trustworthy for the *next* request, so it gets
        recycled once idle.  Clean requests keep the warm pool — that is
        the entire point of the daemon.
        """
        if request.get("faults"):
            return True
        for entry in details.get("degraded") or []:
            for cause in entry.get("causes") or []:
                text = str(cause).lower()
                if "timeout" in text or "timed out" in text or "hang" in text:
                    return True
        return False


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read a request line, stream response lines."""

    def handle(self) -> None:  # pragma: no cover - exercised via daemon
        daemon: "MappingDaemon" = self.server.daemon  # type: ignore[attr-defined]
        service = daemon.service
        with service.track():
            try:
                # Slow-loris defense: a client that dribbles (or never
                # sends) its request line gets a typed timeout and the
                # connection back, instead of pinning a handler thread
                # for the daemon's lifetime.
                line = self._read_request_line(daemon.request_timeout)
            except socket.timeout:
                service.request_timeouts += 1
                service.errors += 1
                self._emit(
                    {
                        "type": "error",
                        "code": "timeout",
                        "error": "no complete request line within "
                        f"{daemon.request_timeout:g}s",
                    }
                )
                return
            except OSError:
                return
            if not line:
                return
            try:
                request = json.loads(line.decode("utf-8"))
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except (ValueError, UnicodeDecodeError) as exc:
                service.errors += 1
                self._emit(
                    {
                        "type": "error",
                        "code": "bad_request",
                        "error": f"bad request: {exc}",
                    }
                )
                return
            chaos = request.get("chaos")
            if chaos is not None and chaos not in _WIRE_CHAOS:
                service.errors += 1
                self._emit(
                    {
                        "type": "error",
                        "code": "bad_request",
                        "error": f"unknown chaos {chaos!r} "
                        f"(supported: {list(_WIRE_CHAOS)})",
                    }
                )
                return
            shutdown = False
            for record in service.process(request):
                kind = record.get("type")
                shutdown = shutdown or kind == "bye"
                # Wire chaos (test machinery): misbehave on purpose so
                # clients can prove they normalize torn streams.  The
                # work itself already ran and is cached — a retry of the
                # same request is nearly free, exactly the real-crash
                # shape.
                if chaos == "close_early":
                    break
                if chaos == "drop_before_result" and kind == "result":
                    break
                if chaos == "torn_result" and kind == "result":
                    self._emit_torn(record)
                    break
                if chaos == "torn_fragment" and kind == "fragment":
                    self._emit_torn(record)
                    break
                if not self._emit(record):
                    break
        if shutdown:
            daemon.request_stop()

    def _read_request_line(self, timeout: Optional[float]) -> bytes:
        """Read the request line under a *total* deadline.

        A plain ``settimeout`` only bounds the idle gap between bytes —
        the exact hole a slow-loris client exploits by dribbling one
        byte per interval forever.  This loop recomputes the remaining
        budget before every ``recv``, so the whole line must arrive
        within ``timeout`` seconds no matter how it is paced.
        """
        if timeout is None:
            return self.rfile.readline()
        deadline = time.monotonic() + timeout
        buf = bytearray()
        conn = self.connection
        while b"\n" not in buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise socket.timeout()
            conn.settimeout(remaining)
            try:
                chunk = conn.recv(65536)
            finally:
                conn.settimeout(None)
            if not chunk:  # EOF: return what we have (maybe nothing)
                break
            buf += chunk
        return bytes(buf.split(b"\n", 1)[0] + b"\n") if buf else b""

    def _emit(self, record: Dict[str, object]) -> bool:
        try:
            self.wfile.write(
                (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
            )
            self.wfile.flush()
            return True
        except (BrokenPipeError, ConnectionResetError, OSError):
            # Client hung up mid-stream; the work is already cached, so
            # the next submission of the same circuit is nearly free.
            return False

    def _emit_torn(self, record: Dict[str, object]) -> None:
        """Write half a JSON line, then hang up (injected torn stream)."""
        data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        try:
            self.wfile.write(data[: max(1, len(data) // 2)])
            self.wfile.flush()
        except OSError:
            pass


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class MappingDaemon:
    """The socket front: bind, serve, drain, report an exit code."""

    def __init__(
        self,
        store_path: str,
        jobs: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        max_concurrent: int = 4,
        info_path: Optional[str] = None,
        max_rows: Optional[int] = None,
        max_queue: int = 16,
        queue_timeout: float = 30.0,
        request_timeout: Optional[float] = 30.0,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 5.0,
    ):
        store_kwargs = {} if max_rows is None else {"max_rows": max_rows}
        self.store = ResultStore(store_path, **store_kwargs)
        self.pool = WarmPool(jobs) if jobs > 1 else None
        breaker = (
            CircuitBreaker(threshold=breaker_threshold, cooldown=breaker_cooldown)
            if self.pool is not None
            else None
        )
        self.service = MappingService(
            self.store,
            self.pool,
            jobs=jobs,
            max_concurrent=max_concurrent,
            max_queue=max_queue,
            queue_timeout=queue_timeout,
            breaker=breaker,
        )
        self.info_path = info_path
        self.request_timeout = request_timeout
        self._server = _Server((host, port), _Handler)
        self._server.daemon = self  # type: ignore[attr-defined]
        self._stop = threading.Event()
        self.host, self.port = self._server.server_address[:2]

    def request_stop(self) -> None:
        """Client-initiated shutdown (the ``shutdown`` op)."""
        self._stop.set()

    def _write_info(self) -> None:
        """Publish the bound endpoint atomically for client discovery.

        Port 0 means the OS picked the port; tests and `repro submit`
        read it from this file instead of racing log output.
        """
        if not self.info_path:
            return
        payload = json.dumps(
            {
                "host": self.host,
                "port": self.port,
                "pid": os.getpid(),
                "started": round(self.service.started, 3),
                "schema": self.store.schema,
            },
            sort_keys=True,
        )
        tmp = f"{self.info_path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.info_path)

    def serve(self, quiet: bool = False) -> int:
        """Run until a shutdown op (exit 0) or a signal drain (exit 75)."""
        thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-service-accept",
            daemon=True,
        )
        thread.start()
        self._write_info()
        if not quiet:
            print(
                f"repro service on {self.host}:{self.port} "
                f"(pid {os.getpid()}, jobs {self.service.jobs}, "
                f"store {self.store.path}, schema {self.store.schema})",
                flush=True,
            )
        exit_code = 0
        try:
            with graceful_shutdown():
                while not self._stop.wait(0.1):
                    pass
        except ShutdownRequested as exc:
            exit_code = EXIT_DRAINED
            if not quiet:
                print(
                    f"shutdown requested ({exc.reason}); draining "
                    "in-flight requests",
                    flush=True,
                )
        finally:
            self._server.shutdown()  # stop accepting; handlers keep running
            self.service.drain()
            self._server.server_close()
            if self.pool is not None:
                self.pool.close()
            self.store.close()
            if self.info_path:
                try:
                    os.unlink(self.info_path)
                except OSError:
                    pass
        if not quiet:
            print(
                f"repro service stopped "
                f"({'drained after signal' if exit_code else 'client shutdown'}; "
                f"{self.service.map_count} map request(s) served)",
                flush=True,
            )
        return exit_code
