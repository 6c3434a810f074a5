"""WAL-style run journal: durable checkpoint/resume for mapping runs.

A journal is a JSONL file the parent process appends to as a run makes
progress — one record per completed ingredient group, plus run metadata,
interruption events and the final verification verdict.  Appends are
flushed and fsynced record by record (write-ahead-log discipline), so a
crash at any instant loses at most the record being written; the loader
tolerates exactly that one torn trailing line.

Record schema (version 1, one JSON object per line, every record carries
a truncated-SHA256 integrity hash ``h`` over its own canonical body):

* ``meta`` — first line; binds the journal to a run identity::

      {"type": "meta", "version": 1, "circuit": "misex1",
       "flow": "hyde", "k": 5, "ts": ..., "h": "..."}

* ``group`` — one completed group task::

      {"type": "group", "key": "<task key>", "gi": 0,
       "group": ["f0", "f1"], "mode": "hyper", "resolution": null,
       "seconds": 0.41, "blif": ".model ...", "info": {...},
       "ts": ..., "h": "..."}

  ``key`` is the **content-addressed task key**: SHA256 over the cone's
  BLIF text, every :class:`~repro.decompose.DecompositionOptions` field
  and the task's policy-relevant attributes (mode, ingredient policy,
  PPI placement, per-output fallback).  A re-run only replays a record
  whose key it re-derives identically — change the options, the cone or
  the policy and the key changes, forcing re-execution instead of a
  stale splice.

* ``event`` — one-shot facts, notably ``{"kind": "interrupted",
  "reason": "SIGTERM", "completed": N, "total": M}``.

* ``event`` ``failing_cone`` — where a ``finegrain`` check localized a
  failure (a rejected fragment, with its ``gi`` and ``group``, or the
  whole network): output, cone root and nodes, counterexample.

* ``verdict`` — the whole-network check of the network the flow
  returns, naming the engine that ran; ``equivalent`` is ``null`` with
  engine ``"none"`` when no check ran (an unchecked run)::

      {"type": "verdict", "equivalent": true, "replayed": 2,
       "executed": 1, "engine": "bdd", ...}

* ``done`` — the run finished end to end; carries the headline metrics
  so sweeps (harness runner) can skip the circuit entirely on resume,
  provided the verdict before it came from a passing check.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "JOURNAL_VERSION",
    "JournalError",
    "RunJournal",
    "task_key",
    "journal_path",
    "open_journal",
    "load_journal",
    "validate_journal",
]

JOURNAL_VERSION = 1

#: Length of the hex task key (SHA256 truncated; 128 bits is plenty).
KEY_HEX_LEN = 32

#: Length of the per-record integrity hash.
RECORD_HASH_LEN = 16

#: Test/CI hook: seconds to sleep after journaling each group, so an
#: external SIGTERM can deterministically land mid-run (resume smoke).
DELAY_ENV = "REPRO_JOURNAL_DELAY"


class JournalError(ValueError):
    """A journal could not be opened or does not match the run."""


def _canonical(payload: Dict[str, object]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _record_hash(record: Dict[str, object]) -> str:
    body = {k: v for k, v in record.items() if k != "h"}
    return hashlib.sha256(_canonical(body).encode()).hexdigest()[
        :RECORD_HASH_LEN
    ]


def task_key(task) -> str:
    """Content-addressed identity of one group task.

    ``task`` is anything shaped like a
    :class:`~repro.mapping.parallel.GroupTask` (duck-typed to avoid a
    package cycle).  The key covers everything that determines the
    fragment a deterministic worker would produce: the cone BLIF, the
    ordered output group, the full ``DecompositionOptions`` and the
    group-level policy knobs.  Deliberately *excluded*: ``gi`` (a
    position, not content), ``attempt``/``inject``/``trace`` (run-time
    machinery that must not split the cache).
    """
    payload = {
        "blif": task.blif_text,
        "group": list(task.group),
        "mode": task.mode,
        "base_name": task.base_name,
        "ingredient_policy": task.ingredient_policy,
        "ppi_placement": task.ppi_placement,
        "fallback_per_output": task.fallback_per_output,
        "options": dataclasses.asdict(task.options),
    }
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()[
        :KEY_HEX_LEN
    ]


def journal_path(
    directory: Union[str, "os.PathLike[str]"], circuit: str, flow: str, k: int
) -> str:
    """The canonical journal file for one (circuit, flow, k) run."""

    def safe(text: str) -> str:
        return "".join(c if c.isalnum() or c in "-_." else "_" for c in text)

    return os.path.join(
        os.fspath(directory), f"{safe(circuit)}.{safe(flow)}.k{k}.journal.jsonl"
    )


def load_journal(path: str) -> Tuple[List[Dict[str, object]], List[str]]:
    """Read a journal, tolerating a torn trailing line.

    Returns ``(records, problems)``.  A JSON-undecodable *last* line is
    the expected signature of a crash mid-append and is dropped with a
    note; garbage anywhere else, or a record whose integrity hash does
    not match, is reported and skipped — a skipped group record simply
    re-executes on resume, so corruption degrades to recomputation,
    never to a wrong splice.
    """
    records: List[Dict[str, object]] = []
    problems: List[str] = []
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    last_content = None
    for number, line in enumerate(lines, 1):
        if line.strip():
            last_content = number
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if number == last_content:
                problems.append(
                    f"line {number}: torn trailing record dropped "
                    "(crash mid-append)"
                )
            else:
                problems.append(f"line {number}: not valid JSON, skipped")
            continue
        if not isinstance(record, dict):
            problems.append(f"line {number}: record is not an object")
            continue
        if record.get("h") != _record_hash(record):
            problems.append(
                f"line {number}: integrity hash mismatch, record skipped"
            )
            continue
        records.append(record)
    return records, problems


def validate_journal(
    records: Sequence[Dict[str, object]], check_fragments: bool = True
) -> List[str]:
    """Schema-check a journal's records; empty return means valid.

    With ``check_fragments`` every group record's BLIF payload is also
    parsed — a journal whose fragments cannot be spliced is flagged here
    rather than at resume time.
    """
    problems: List[str] = []
    metas = [r for r in records if r.get("type") == "meta"]
    if len(metas) != 1:
        problems.append(f"expected exactly one meta record, found {len(metas)}")
    else:
        if records and records[0].get("type") != "meta":
            problems.append("meta record is not the first record")
        version = metas[0].get("version")
        if version != JOURNAL_VERSION:
            problems.append(
                f"unsupported journal version {version!r} "
                f"(expected {JOURNAL_VERSION})"
            )
    for index, record in enumerate(records):
        kind = record.get("type")
        if kind == "meta":
            continue
        if kind == "group":
            missing = [
                field
                for field in ("key", "gi", "group", "mode", "blif", "seconds")
                if field not in record
            ]
            if missing:
                problems.append(f"record {index}: missing keys {missing}")
                continue
            key = record["key"]
            if (
                not isinstance(key, str)
                or len(key) != KEY_HEX_LEN
                or any(c not in "0123456789abcdef" for c in key)
            ):
                problems.append(f"record {index}: malformed task key {key!r}")
            group = record["group"]
            if not isinstance(group, list) or not all(
                isinstance(out, str) for out in group
            ):
                problems.append(f"record {index}: group must be a name list")
                continue
            if check_fragments:
                from ..network.blif import parse_blif  # lazy: package cycle

                try:
                    fragment = parse_blif(record["blif"])
                except ValueError as exc:
                    problems.append(
                        f"record {index}: fragment BLIF rejected: {exc}"
                    )
                    continue
                if sorted(fragment.output_names) != sorted(group):
                    problems.append(
                        f"record {index}: fragment outputs "
                        f"{sorted(fragment.output_names)} do not match "
                        f"journaled group {sorted(group)}"
                    )
        elif kind == "event":
            if "kind" not in record:
                problems.append(f"record {index}: event without kind")
        elif kind == "verdict":
            if not isinstance(record.get("equivalent"), (bool, type(None))):
                problems.append(
                    f"record {index}: verdict.equivalent must be a bool "
                    "or null"
                )
        elif kind == "done":
            if "seconds" not in record:
                problems.append(f"record {index}: done without seconds")
        else:
            problems.append(f"record {index}: unknown type {kind!r}")
    return problems


class RunJournal:
    """Append-only run journal bound to one (circuit, flow, k) identity.

    ``resume=True`` loads an existing file (if any) and serves completed
    group records by task key; ``resume=False`` starts fresh,
    atomically replacing whatever was there.  A resumed journal whose
    ``meta`` disagrees with the requested identity raises
    :class:`JournalError` — stale checkpoints are rejected loudly, never
    silently reused (the per-record task keys enforce the same contract
    one level deeper).
    """

    def __init__(
        self,
        path: str,
        circuit: str,
        flow: str,
        k: int,
        resume: bool = False,
    ):
        self.path = path
        self.circuit = circuit
        self.flow = flow
        self.k = k
        self.load_problems: List[str] = []
        self._groups: Dict[str, Dict[str, object]] = {}
        self._records: List[Dict[str, object]] = []
        identity = {"circuit": circuit, "flow": flow, "k": k}
        if resume and os.path.exists(path):
            records, self.load_problems = load_journal(path)
            metas = [r for r in records if r.get("type") == "meta"]
            if not metas:
                raise JournalError(
                    f"{path}: no usable meta record; refusing to resume"
                )
            meta = metas[0]
            mismatched = {
                field: (meta.get(field), value)
                for field, value in identity.items()
                if meta.get(field) != value
            }
            if mismatched:
                raise JournalError(
                    f"{path}: journal belongs to a different run: "
                    + ", ".join(
                        f"{field}={have!r} (want {want!r})"
                        for field, (have, want) in sorted(mismatched.items())
                    )
                )
            self._records = records
            for record in records:
                if record.get("type") == "group":
                    self._groups[str(record["key"])] = record
        else:
            from .atomic import atomic_write

            meta: Dict[str, object] = {
                "type": "meta",
                "version": JOURNAL_VERSION,
                "ts": round(time.time(), 3),
                **identity,
            }
            meta["h"] = _record_hash(meta)
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            with atomic_write(path) as handle:
                handle.write(_canonical(meta) + "\n")
            self._records = [meta]

    # ----------------------------------------------------------------- #
    # Reading
    # ----------------------------------------------------------------- #

    @property
    def records(self) -> List[Dict[str, object]]:
        return list(self._records)

    def lookup(self, key: str) -> Optional[Dict[str, object]]:
        """The completed group record for a task key, if journaled."""
        return self._groups.get(key)

    @property
    def num_groups(self) -> int:
        return len(self._groups)

    def completed_run(self) -> Optional[Dict[str, object]]:
        """The final ``done`` record when the run finished end to end.

        Only honored behind a passing check: a journal whose last
        verdict failed, or came from no check at all (``--verify
        none``; older journals wrote those as ``true`` with engine
        ``"none"``), must re-run, and the re-run's replayed groups are
        then checked.
        """
        done = None
        checked = False
        for record in self._records:
            if record.get("type") == "done":
                done = record
            elif record.get("type") == "verdict":
                checked = (
                    record.get("equivalent") is True
                    and record.get("engine") != "none"
                )
        return done if (done is not None and checked) else None

    # ----------------------------------------------------------------- #
    # Appending (WAL discipline: one fsynced line per fact)
    # ----------------------------------------------------------------- #

    def _append(self, record: Dict[str, object]) -> Dict[str, object]:
        record = dict(record)
        record.setdefault("ts", round(time.time(), 3))
        record["h"] = _record_hash(record)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(_canonical(record) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._records.append(record)
        return record

    def record_group(
        self,
        key: str,
        task,
        result,
        seconds: float,
        resolution: Optional[str] = None,
    ) -> None:
        """Journal one landed group fragment (called as results arrive)."""
        record = self._append(
            {
                "type": "group",
                "key": key,
                "gi": task.gi,
                "group": list(task.group),
                "mode": str(result.info.get("mode", task.mode)),
                "resolution": resolution,
                "seconds": round(seconds, 6),
                "blif": result.blif_text,
                "info": _jsonable(result.info),
            }
        )
        self._groups[key] = record
        delay = float(os.environ.get(DELAY_ENV, 0) or 0)
        if delay > 0:  # deterministic window for the resume smoke's SIGTERM
            time.sleep(delay)

    def record_interrupted(
        self, reason: str, completed: int, total: int
    ) -> None:
        self._append(
            {
                "type": "event",
                "kind": "interrupted",
                "reason": reason,
                "completed": completed,
                "total": total,
            }
        )

    def record_event(self, kind: str, **payload) -> None:
        """Journal a free-form diagnostic event (e.g. a failing cone).

        Events are informational: :func:`validate_journal` accepts any
        record with a ``kind``, and replay ignores them — they exist so
        a post-mortem can see *why* a fragment was rejected, not just
        that the ladder recovered from it.
        """
        self._append({"type": "event", "kind": kind, **_jsonable(payload)})

    def record_failing_cone(self, cone, **context) -> None:
        """Journal a :class:`~repro.verify.FailingCone` as a
        ``failing_cone`` event; ``context`` says what was checked."""
        self.record_event(
            "failing_cone",
            **context,
            output=cone.output,
            root=cone.root,
            cone_nodes=list(cone.cone_nodes),
            counterexample=dict(cone.counterexample),
            confirmed=cone.confirmed,
        )

    def record_verdict(
        self,
        equivalent: Optional[bool],
        replayed: int,
        executed: int,
        engine: str = "bdd",
        detail: Optional[str] = None,
    ) -> None:
        """Journal the whole-network verdict (``equivalent=None``: no
        check ran)."""
        record: Dict[str, object] = {
            "type": "verdict",
            "equivalent": None if equivalent is None else bool(equivalent),
            "replayed": replayed,
            "executed": executed,
            "engine": engine,
        }
        if detail:
            record["detail"] = detail
        self._append(record)

    def record_done(self, **metrics) -> None:
        self._append({"type": "done", **_jsonable(metrics)})


def _jsonable(value):
    """Best-effort conversion of info/metric payloads to JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def open_journal(
    directory: Union[str, "os.PathLike[str]"],
    circuit: str,
    flow: str,
    k: int,
    resume: bool = False,
) -> RunJournal:
    """Open (creating the directory if needed) the run's journal."""
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    return RunJournal(
        journal_path(directory, circuit, flow, k),
        circuit=circuit,
        flow=flow,
        k=k,
        resume=resume,
    )
