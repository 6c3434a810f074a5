"""Mapping-as-a-service: warm daemon, result store, warm pool, client.

The package splits along trust boundaries:

* :mod:`~repro.service.store` — the content-addressed SQLite result
  store (schema-version stamping, per-row integrity hashes,
  verified-on-first-reuse); usable on its own via the ``cache=``
  argument of the mapping flows, no daemon required.
* :mod:`~repro.service.pool` — the warm fork pool reused across
  requests, with poisoned-worker recycling.
* :mod:`~repro.service.daemon` — the localhost line-protocol server
  gluing both to the governed task runner, with bounded admission +
  load shedding, per-request deadlines and drain-on-signal.
* :mod:`~repro.service.breaker` — the circuit breaker that degrades a
  crash-looping pool to cache-only serial mapping until a probe heals.
* :mod:`~repro.service.supervise` — the ``--supervise`` watchdog that
  restarts crashed daemons with crash-loop backoff.
* :mod:`~repro.service.client` — the matching client: typed wire
  errors, deterministic-jitter retries, deadlines, pipelined batches.

See ``docs/SERVICE.md`` for the protocol, the cache-key contract and
the failure-modes runbook.
"""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, globals(), {
    "breaker": ("CircuitBreaker",),
    "client": ("ERROR_CODES", "RETRYABLE_CODES", "ServiceClient", "ServiceError"),
    "daemon": ("EXIT_DRAINED", "MappingDaemon", "MappingService"),
    "pool": ("WarmPool",),
    "store": ("STORE_FORMAT", "ResultStore", "schema_version"),
    "supervise": ("build_child_argv", "run_supervised"),
})

__all__ = [
    "CircuitBreaker",
    "ERROR_CODES",
    "EXIT_DRAINED",
    "MappingDaemon",
    "MappingService",
    "RETRYABLE_CODES",
    "ResultStore",
    "STORE_FORMAT",
    "ServiceClient",
    "ServiceError",
    "WarmPool",
    "build_child_argv",
    "run_supervised",
    "schema_version",
]
