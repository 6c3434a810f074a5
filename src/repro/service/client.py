"""Client for the mapping daemon's line protocol, hardened for faults.

One connection per request (the server closes after the terminal
record), so a client object is an address plus encode/decode helpers —
no connection state, safe to share across threads.

What the hardening adds on top of the dumb line pump:

* **Typed errors.**  Every failure surfaces as a :class:`ServiceError`
  carrying a wire-level ``code`` (see :data:`ERROR_CODES`) and a
  ``retryable`` flag, never a bare ``OSError`` or
  ``json.JSONDecodeError``.  A daemon that dies mid-stream produces a
  half-written JSON line; that is a *torn stream* — retryable, because
  completed group tasks are already persisted in the content-addressed
  store, so the retry is nearly free.
* **Deterministic-jitter exponential backoff.**  :meth:`submit_with_retry`
  re-submits retryable failures with exponentially growing delays whose
  jitter is a hash of (request token, attempt) — decorrelated across
  concurrent clients yet bit-reproducible, so chaos tests and incident
  replays see the same schedule every run.  A server ``retry_after``
  hint (load shedding) takes precedence when larger.
* **Deadlines.**  ``deadline`` bounds the whole retry loop client-side
  and travels to the daemon as ``deadline_seconds``, where it caps both
  the admission-queue wait and the task runner's ``TaskPolicy`` wall
  clock — one number bounds the request end to end.
* **Endpoint refresh.**  A client built by :meth:`from_info` remembers
  the discovery file; when the daemon is restarted by the supervisor
  (new port, new pid) a retryable connect failure re-reads the file and
  follows the daemon to its new endpoint.
* **Pipelined batches.**  :meth:`submit_batch` keeps ``max_in_flight``
  requests going at once for sweep workloads — safe to resubmit on any
  failure because task keys are content-addressed, so a duplicate
  submission deduplicates in the store rather than double-computing.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["ServiceClient", "ServiceError", "ERROR_CODES", "RETRYABLE_CODES"]

#: Every error code the wire protocol can carry.  ``busy`` (admission
#: queue full — shed), ``draining`` (daemon is shutting down),
#: ``unavailable`` (nothing listening / connection refused),
#: ``torn_stream`` (connection died mid-response), ``deadline`` (the
#: per-op deadline expired), ``timeout`` (request line never arrived —
#: the daemon's slow-loris defense), ``bad_request`` and ``internal``.
ERROR_CODES = (
    "busy",
    "draining",
    "unavailable",
    "torn_stream",
    "deadline",
    "timeout",
    "bad_request",
    "internal",
)

#: Codes a client may retry: the request either never started or can be
#: resubmitted safely (content-addressed task keys make re-execution a
#: cache hit for everything that already landed).
RETRYABLE_CODES = frozenset({"busy", "draining", "unavailable", "torn_stream"})


class ServiceError(RuntimeError):
    """The daemon answered with an error record (or not usably at all).

    ``code`` is one of :data:`ERROR_CODES`; ``retryable`` says whether a
    resubmission can succeed; ``retry_after`` (seconds, optional) is the
    server's backoff hint on load-shed (``busy``) responses.
    """

    def __init__(
        self,
        message: str,
        code: str = "internal",
        retryable: Optional[bool] = None,
        retry_after: Optional[float] = None,
    ):
        super().__init__(message)
        self.code = code
        self.retryable = (
            retryable if retryable is not None else code in RETRYABLE_CODES
        )
        self.retry_after = retry_after


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # EPERM etc: the process exists, we just can't signal
        return True
    return True


def _error_from_record(record: Dict[str, object]) -> ServiceError:
    retry_after = record.get("retry_after")
    try:
        retry_after = float(retry_after) if retry_after is not None else None
    except (TypeError, ValueError):
        retry_after = None
    return ServiceError(
        str(record.get("error")),
        code=str(record.get("code") or "internal"),
        retry_after=retry_after,
    )


class ServiceClient:
    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 300.0,
        expected_pid: Optional[int] = None,
        info_path: Optional[str] = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.expected_pid = expected_pid
        self.info_path = info_path
        # Client-side resilience telemetry (per client object): how many
        # retries the backoff loop performed, split by the error code
        # that triggered them, plus batch totals.
        self.counters: Dict[str, int] = {
            "requests": 0,
            "retries": 0,
            "busy": 0,
            "torn_stream": 0,
            "unavailable": 0,
            "refreshes": 0,
            "batch_items": 0,
            "batch_failures": 0,
        }
        self._counter_lock = threading.Lock()

    @classmethod
    def from_info(
        cls, path: str, probe: bool = True, **kwargs
    ) -> "ServiceClient":
        """Connect to the endpoint a daemon published with ``--info``.

        With ``probe`` (the default) the endpoint is pinged once before
        the client is returned, so a stale discovery file — daemon dead,
        port reused by something else — fails *here*, as a typed
        ``unavailable`` :class:`ServiceError` naming the stale file and
        the dead pid, instead of as a raw ``OSError`` on first use.
        """
        with open(path, "r", encoding="utf-8") as fh:
            info = json.load(fh)
        if not isinstance(info, dict) or not {"host", "port"} <= info.keys():
            raise ValueError("not a daemon info file (needs host and port)")
        pid = info.get("pid")
        client = cls(
            info["host"],
            int(info["port"]),
            expected_pid=int(pid) if pid is not None else None,
            info_path=path,
            **kwargs,
        )
        if probe:
            client.ping(timeout=min(client.timeout or 10.0, 10.0))
        return client

    def _count(self, key: str, n: int = 1) -> None:
        with self._counter_lock:
            self.counters[key] = self.counters.get(key, 0) + n

    def _stale_diagnosis(self) -> str:
        """Why a connect likely failed, in operator-actionable terms."""
        parts = [f"nothing usable at {self.host}:{self.port}"]
        if self.expected_pid is not None:
            if _pid_alive(self.expected_pid):
                parts.append(
                    f"daemon pid {self.expected_pid} is alive — it may "
                    "still be binding, or the endpoint moved"
                )
            else:
                parts.append(
                    f"daemon pid {self.expected_pid} is gone"
                    + (
                        f"; discovery file {self.info_path} is stale"
                        if self.info_path
                        else ""
                    )
                )
        return "; ".join(parts)

    def refresh_endpoint(self) -> bool:
        """Re-read the ``--info`` discovery file (supervisor restarts
        re-publish a fresh endpoint there).  Returns True on a change."""
        if not self.info_path:
            return False
        try:
            with open(self.info_path, "r", encoding="utf-8") as fh:
                info = json.load(fh)
            host, port = info["host"], int(info["port"])
            pid = info.get("pid")
        except (OSError, ValueError, KeyError):
            return False
        changed = (host, port) != (self.host, self.port) or (
            pid is not None and pid != self.expected_pid
        )
        self.host, self.port = host, port
        if pid is not None:
            self.expected_pid = int(pid)
        if changed:
            self._count("refreshes")
        return changed

    # ------------------------------------------------------------- #
    # Wire
    # ------------------------------------------------------------- #

    def request(
        self, payload: Dict[str, object], timeout: Optional[float] = None
    ) -> Iterator[Dict[str, object]]:
        """Send one request, yield every response record.

        Every transport failure is normalized to a typed
        :class:`ServiceError`: refused/reset connects become
        ``unavailable``, and a connection that dies mid-response — EOF
        before any record, a half-written JSON line, a read timeout or
        reset — becomes ``torn_stream``.  Callers never see a raw
        ``OSError`` or ``json.JSONDecodeError`` from this layer.
        """
        op = payload.get("op")
        tmo = self.timeout if timeout is None else timeout
        self._count("requests")
        try:
            sock = socket.create_connection((self.host, self.port), timeout=tmo)
        except OSError as exc:
            raise ServiceError(
                f"cannot reach mapping daemon for op {op!r}: "
                f"{self._stale_diagnosis()} ({exc})",
                code="unavailable",
            ) from exc
        got_any = False
        with sock:
            try:
                sock.sendall(
                    (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
                )
            except OSError as exc:
                raise ServiceError(
                    f"connection to {self.host}:{self.port} died while "
                    f"sending op {op!r} ({exc})",
                    code="unavailable",
                ) from exc
            with sock.makefile("r", encoding="utf-8") as stream:
                while True:
                    try:
                        line = stream.readline()
                    except socket.timeout as exc:
                        raise ServiceError(
                            f"timed out after {tmo}s waiting for a "
                            f"response record to op {op!r}",
                            code="torn_stream",
                        ) from exc
                    except OSError as exc:
                        raise ServiceError(
                            f"connection died mid-stream during op {op!r} "
                            f"({exc})",
                            code="torn_stream",
                        ) from exc
                    if not line:
                        break
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError as exc:
                        # Half-written line: the daemon died (or tore the
                        # write) mid-record.  Typed and retryable — never
                        # a bare JSONDecodeError.
                        raise ServiceError(
                            f"torn response record during op {op!r} "
                            f"(daemon died mid-stream? {len(line)} bytes "
                            "of partial JSON)",
                            code="torn_stream",
                        ) from exc
                    got_any = True
                    yield record
        if not got_any:
            raise ServiceError(
                f"connection closed before any response record for op "
                f"{op!r} from {self.host}:{self.port}",
                code="torn_stream",
            )

    def _single(
        self, payload: Dict[str, object], timeout: Optional[float] = None
    ) -> Dict[str, object]:
        record: Optional[Dict[str, object]] = None
        for record in self.request(payload, timeout=timeout):
            if record.get("type") == "error":
                raise _error_from_record(record)
        assert record is not None  # request() raised on empty streams
        return record

    # ------------------------------------------------------------- #
    # Ops
    # ------------------------------------------------------------- #

    def ping(self, timeout: Optional[float] = None) -> Dict[str, object]:
        return self._single({"op": "ping"}, timeout=timeout)

    def stats(self) -> Dict[str, object]:
        return self._single({"op": "stats"})

    def health(self, timeout: Optional[float] = None) -> Dict[str, object]:
        """The daemon's health record (pool / store / queue / breaker)."""
        return self._single({"op": "health"}, timeout=timeout)

    def shutdown(self) -> Dict[str, object]:
        return self._single({"op": "shutdown"})

    def submit_blif(
        self,
        blif_text: str,
        flow: str = "hyde",
        on_fragment: Optional[Callable[[Dict[str, object]], None]] = None,
        timeout: Optional[float] = None,
        **knobs,
    ) -> Dict[str, object]:
        """Map one circuit; returns the terminal ``result`` record.

        ``knobs`` go into the request verbatim (``k=4``,
        ``policy={"timeout_seconds": 5}``, ``faults="crash@0"``,
        ``deadline_seconds=30``, ...).  Fragment records stream to
        ``on_fragment`` as they arrive and are also collected into the
        returned record's ``"fragments"`` list.
        """
        payload: Dict[str, object] = {
            "op": "map",
            "flow": flow,
            "blif": blif_text,
        }
        payload.update(knobs)
        fragments: List[Dict[str, object]] = []
        result: Optional[Dict[str, object]] = None
        for record in self.request(payload, timeout=timeout):
            kind = record.get("type")
            if kind == "fragment":
                fragments.append(record)
                if on_fragment is not None:
                    on_fragment(record)
            elif kind == "error":
                raise _error_from_record(record)
            elif kind == "result":
                result = record
        if result is None:
            raise ServiceError(
                "connection closed before a result record "
                f"({len(fragments)} fragment(s) received)",
                code="torn_stream",
            )
        result["fragments"] = fragments
        return result

    # ------------------------------------------------------------- #
    # Retry / backoff
    # ------------------------------------------------------------- #

    @staticmethod
    def backoff_delay(
        attempt: int,
        token: str = "",
        base: float = 0.05,
        cap: float = 2.0,
        retry_after: Optional[float] = None,
    ) -> float:
        """Exponential backoff with *deterministic* jitter.

        ``base * 2**attempt`` (capped) scaled into [0.5, 1.0] by a hash
        of ``(token, attempt)`` — no RNG, so two runs of the same chaos
        schedule sleep identically, while distinct tokens (distinct
        requests) decorrelate and avoid thundering-herd resubmission.
        A server ``retry_after`` hint wins when it is larger.
        """
        raw = min(cap, base * (2.0 ** attempt))
        digest = hashlib.sha256(f"{token}:{attempt}".encode()).digest()
        jitter = 0.5 + (digest[0] / 255.0) * 0.5
        delay = raw * jitter
        if retry_after is not None:
            delay = max(delay, float(retry_after))
        return delay

    def submit_with_retry(
        self,
        blif_text: str,
        flow: str = "hyde",
        retries: int = 4,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        deadline: Optional[float] = None,
        on_fragment: Optional[Callable[[Dict[str, object]], None]] = None,
        **knobs,
    ) -> Dict[str, object]:
        """``submit_blif`` with typed-error retries and a hard deadline.

        Retries only :class:`ServiceError`\\ s whose ``retryable`` flag
        is set (shed, draining, torn stream, unreachable endpoint) — a
        resubmission is safe because task keys are content-addressed, so
        work that landed before the failure is served from the store.
        ``deadline`` (seconds) bounds the whole loop *and* travels to
        the daemon as ``deadline_seconds``; the returned record carries
        ``client_attempts`` for observability.
        """
        start = time.monotonic()
        token = hashlib.sha256(blif_text.encode()).hexdigest()[:16]
        attempt = 0
        while True:
            remaining: Optional[float] = None
            if deadline is not None:
                remaining = deadline - (time.monotonic() - start)
                if remaining <= 0:
                    raise ServiceError(
                        f"client deadline of {deadline:g}s exhausted after "
                        f"{attempt} attempt(s)",
                        code="deadline",
                    )
                knobs["deadline_seconds"] = remaining
            try:
                result = self.submit_blif(
                    blif_text,
                    flow=flow,
                    on_fragment=on_fragment,
                    timeout=(
                        None
                        if remaining is None
                        else min(self.timeout or remaining, remaining + 5.0)
                    ),
                    **knobs,
                )
                result["client_attempts"] = attempt + 1
                return result
            except ServiceError as exc:
                if not exc.retryable or attempt >= retries:
                    raise
                if exc.code in self.counters:
                    self._count(exc.code)
                delay = self.backoff_delay(
                    attempt,
                    token=token,
                    base=backoff_base,
                    cap=backoff_cap,
                    retry_after=exc.retry_after,
                )
                if deadline is not None and (
                    time.monotonic() - start + delay >= deadline
                ):
                    raise
                self._count("retries")
                if exc.code == "unavailable":
                    # The supervisor may have restarted the daemon on a
                    # fresh port; follow it via the discovery file.
                    self.refresh_endpoint()
                time.sleep(delay)
                attempt += 1

    # ------------------------------------------------------------- #
    # Pipelined batch submission
    # ------------------------------------------------------------- #

    def submit_batch(
        self,
        blif_texts: Sequence[str],
        flow: str = "hyde",
        max_in_flight: int = 4,
        retries: int = 4,
        deadline: Optional[float] = None,
        on_result: Optional[Callable[[int, Dict[str, object]], None]] = None,
        **knobs,
    ) -> Tuple[List[Dict[str, object]], Dict[str, object]]:
        """Submit many circuits, keeping ``max_in_flight`` in flight.

        The sweep-workload client: each item goes through
        :meth:`submit_with_retry` (typed-error retries, per-item
        ``deadline``), results come back in input order, and failures
        are *collected*, not raised — one poisoned circuit must not
        abort a 50-circuit sweep.  Resubmission is always safe: task
        keys are content-addressed, so whatever a failed attempt
        completed is a cache hit for the retry.

        Returns ``(results, summary)``.  ``results[i]`` is
        ``{"index", "ok": True, "result": record}`` or ``{"index",
        "ok": False, "code", "error"}``; ``summary`` aggregates counts,
        cache traffic and retries across the batch.
        """
        items = list(blif_texts)
        results: List[Optional[Dict[str, object]]] = [None] * len(items)
        next_index = {"i": 0}
        index_lock = threading.Lock()
        start = time.monotonic()
        retries_before = self.counters["retries"]

        def _worker() -> None:
            while True:
                with index_lock:
                    i = next_index["i"]
                    if i >= len(items):
                        return
                    next_index["i"] = i + 1
                try:
                    record = self.submit_with_retry(
                        items[i],
                        flow=flow,
                        retries=retries,
                        deadline=deadline,
                        **knobs,
                    )
                    results[i] = {"index": i, "ok": True, "result": record}
                    if on_result is not None:
                        on_result(i, record)
                except ServiceError as exc:
                    self._count("batch_failures")
                    results[i] = {
                        "index": i,
                        "ok": False,
                        "code": exc.code,
                        "error": str(exc),
                    }

        workers = max(1, min(max_in_flight, len(items)))
        threads = [
            threading.Thread(target=_worker, name=f"repro-batch-{w}")
            for w in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self._count("batch_items", len(items))

        ok = [r for r in results if r and r["ok"]]
        hits = sum(
            int((r["result"].get("cache") or {}).get("hits", 0)) for r in ok
        )
        misses = sum(
            int((r["result"].get("cache") or {}).get("misses", 0)) for r in ok
        )
        summary = {
            "items": len(items),
            "ok": len(ok),
            "failed": len(items) - len(ok),
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": (
                round(hits / (hits + misses), 4) if hits + misses else None
            ),
            "retries": self.counters["retries"] - retries_before,
            "max_in_flight": workers,
            "seconds": round(time.monotonic() - start, 6),
        }
        return [r for r in results if r is not None], summary
