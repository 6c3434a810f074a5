"""Deterministic fault injection for the parallel mapping flow.

The fault-tolerance layer (budgets, timeouts, retries, the degradation
ladder of the task runner in :mod:`repro.mapping.parallel`) is only worth
having if every recovery path can be exercised on demand.  This module
provides seeded fault points that a :class:`~repro.mapping.parallel.GroupTask`
carries across the process boundary:

``crash``
    The worker raises :class:`InjectedFault` before doing any work —
    models a worker dying mid-decomposition.
``hang``
    The worker sleeps in small increments until either the parent's
    wall-clock timeout kills it (pool mode) or the manager's cooperative
    time budget expires (in-process mode) — models a BDD blow-up that
    allocates nothing but never terminates.
``oversized_bdd``
    The worker's manager is armed with an implausibly small node budget,
    so the *real* decomposition path raises
    :class:`~repro.bdd.BddBudgetExceeded` — models a genuine BDD
    explosion caught by the resource governor.
``corrupt_blif``
    The worker completes but its BLIF reply is sabotaged (seed-dependent:
    either a truth-table bit flip, caught by fragment verification, or a
    truncation, caught by the parse step) — models a torn or garbled
    result crossing the serialization boundary.

Faults fire on the first ``times`` attempts of a task and then stop, so
bounded retries deterministically recover from transient kinds while
persistent kinds (``times`` large) push the ladder all the way down.

These are *worker*-level faults.  Their service-layer siblings — daemon
kills, torn socket writes, slow-loris clients, SQLite lock contention,
injected disk failures — live in :mod:`repro.testing.service_chaos`
(plus the daemon's request-level ``chaos`` field and the store's
``REPRO_STORE_CHAOS`` budgets), and are scripted end to end by
``tools/chaos_smoke.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan", "InjectedFault"]

#: Every fault point the injector knows how to trigger.
FAULT_KINDS = ("crash", "hang", "oversized_bdd", "corrupt_blif")

#: Node budget armed by ``oversized_bdd`` — small enough that any real
#: decomposition trips it immediately, large enough for the terminals
#: and a literal or two so the failure comes from *growth*, not setup.
OVERSIZED_BDD_NODE_BUDGET = 16


class InjectedFault(RuntimeError):
    """Raised by a triggered ``crash`` (or an unkilled ``hang``)."""


@dataclass(frozen=True)
class FaultSpec:
    """One seeded fault point attached to one group task.

    ``times`` is the number of *attempts* to sabotage: with ``times=1``
    the first try fails and the first retry succeeds; a large ``times``
    makes the fault persistent so the flow must fall further down the
    degradation ladder.

    ``strategy`` narrows the fault to one portfolio rung: a group task
    racing under the portfolio expands into per-strategy variants, and
    a spec with ``strategy="exact"`` rides only on the matching variant
    (others run clean).  ``None`` sabotages every variant — and is the
    only sensible value outside portfolio mode.
    """

    kind: str
    times: int = 1
    seed: int = 0
    hang_seconds: float = 300.0
    strategy: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.times < 1:
            raise ValueError("times must be >= 1")

    def fires(self, attempt: int) -> bool:
        """True when this spec sabotages the given (0-based) attempt."""
        return attempt < self.times


@dataclass
class FaultPlan:
    """Fault specs keyed by group index (``GroupTask.gi``).

    ``parent_kill_after`` is a *parent-side* fault: the task runner's
    land stage (:mod:`repro.mapping.parallel`) raises
    :class:`~repro.runstate.ShutdownRequested` after that many tasks
    have landed (and been journaled), exercising the exact graceful-
    shutdown path a real SIGTERM takes — deterministically, with no
    signal-delivery race.  Interrupted-then-resumed tests are built on
    it.
    """

    specs: Dict[int, FaultSpec] = field(default_factory=dict)
    parent_kill_after: Optional[int] = None

    def spec_for(self, gi: int) -> Optional[FaultSpec]:
        return self.specs.get(gi)

    def __bool__(self) -> bool:
        return bool(self.specs) or self.parent_kill_after is not None

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a CLI spec like ``crash@0,hang@1,corrupt_blif@2:3``.

        Each comma-separated entry is ``kind@group_index`` with an
        optional ``.strategy`` portfolio-rung target (e.g.
        ``hang@0.exact``) and an optional ``:times`` suffix (default 1).
        The special entry ``parent_kill@N`` stops the parent-side loop
        after N completed groups instead of sabotaging a worker.
        """
        specs: Dict[int, FaultSpec] = {}
        parent_kill_after: Optional[int] = None
        for entry in text.split(","):
            entry = entry.strip()
            if not entry:
                continue
            try:
                kind, _, target = entry.partition("@")
                times = 1
                strategy: Optional[str] = None
                if ":" in target:
                    target, _, times_text = target.partition(":")
                    times = int(times_text)
                if "." in target:
                    target, _, strategy = target.partition(".")
                    strategy = strategy or None
                gi = int(target)
            except ValueError as exc:
                raise ValueError(
                    f"bad fault entry {entry!r} "
                    "(want kind@group[.strategy][:times])"
                ) from exc
            if kind == "parent_kill":
                if gi < 1:
                    raise ValueError("parent_kill@N needs N >= 1")
                parent_kill_after = gi
                continue
            specs[gi] = FaultSpec(
                kind=kind, times=times, seed=gi, strategy=strategy
            )
        return cls(specs, parent_kill_after=parent_kill_after)


# --------------------------------------------------------------------- #
# Trigger hooks (called from repro.mapping.parallel's worker body)
# --------------------------------------------------------------------- #


def before_decompose(spec: Optional[FaultSpec], manager, attempt: int) -> None:
    """Fire pre-compute fault points (crash / hang / oversized_bdd)."""
    if spec is None or not spec.fires(attempt):
        return
    if spec.kind == "crash":
        raise InjectedFault(
            f"injected worker crash (attempt {attempt}, seed {spec.seed})"
        )
    if spec.kind == "hang":
        _hang(manager, spec.hang_seconds)
    elif spec.kind == "oversized_bdd":
        # Arm a tiny node budget so the genuine decomposition path blows
        # it — this exercises the real BddBudgetExceeded machinery.
        manager.set_budget(max_nodes=OVERSIZED_BDD_NODE_BUDGET)


def _hang(manager, seconds: float) -> None:
    """Sleep until killed (pool timeout) or budget-cancelled (in-process).

    The loop polls the manager's cooperative budget so an in-process
    retry with a decayed time budget escapes deterministically; in pool
    mode the parent's per-task timeout gives up on us and the pool exit
    terminates the process.
    """
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        manager.check_budget()
        time.sleep(0.02)
    raise InjectedFault(f"injected hang survived {seconds}s without being killed")


def after_decompose(
    spec: Optional[FaultSpec], blif_text: str, attempt: int
) -> str:
    """Fire the post-compute fault point (corrupt_blif)."""
    if spec is None or spec.kind != "corrupt_blif" or not spec.fires(attempt):
        return blif_text
    return corrupt_blif_text(blif_text, spec.seed)


def corrupt_blif_text(text: str, seed: int) -> str:
    """Deterministically sabotage a BLIF reply.

    Even seeds flip the output bit of the first truth-table cube — for a
    single-cube cover the reply stays parseable but computes the wrong
    function (only fragment *verification* catches it), for a multi-cube
    cover the mixed polarity fails the parse.  Odd seeds truncate the
    file and splice in an unsupported construct so the parse itself
    always fails.  Every variant is caught by the parent's reply
    validation, just at different depths.
    """
    lines = text.splitlines()
    if seed % 2 == 0:
        for i, line in enumerate(lines):
            stripped = line.strip()
            if not stripped or stripped.startswith("."):
                continue
            # A cube line "in-pattern out-bit": flip the output bit.
            head, _, out_bit = stripped.rpartition(" ")
            if out_bit in ("0", "1") and head:
                lines[i] = f"{head} {'0' if out_bit == '1' else '1'}"
                return "\n".join(lines) + "\n"
        # No cube line found (e.g. all-constant fragment): fall through
        # to the syntactic corruption so the fault still fires.
    keep = max(1, (2 * len(lines)) // 3)
    return "\n".join(lines[:keep]) + "\n.latch torn_reply q 0\n.end\n"
