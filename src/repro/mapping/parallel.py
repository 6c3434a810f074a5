"""Process-parallel decomposition of independent ingredient groups.

The HYDE flow's groups (and the per-output baselines' outputs) are
independent cones: nothing a group's decomposition produces is read by
another group until the final splice.  That makes them the natural unit of
coarse-grained parallelism — exactly the lever modern mappers use to
scale, since pure-Python decomposition is CPU bound and the GIL rules out
threads.

The serialization boundary is BLIF text (:mod:`repro.network.blif`): a
:class:`GroupTask` carries the standalone fan-in cone of one group's
outputs; the worker parses it, builds the group's global BDDs in its *own*
:class:`~repro.bdd.BddManager`, decomposes (with its own class-count
memo), and ships the mapped fragment back as BLIF for the parent to
splice.  BDD node ids are only canonical within one manager, so nothing
manager-specific ever crosses the process boundary.

Crossing a process boundary also means trusting what comes back.  With a
:class:`TaskPolicy` the parent stops trusting: each pooled task gets a
wall-clock timeout, each reply is parsed, checked against the group's
output set and equivalence-checked against its cone, and any failure
walks a degradation ladder — in-process retries under budgets halved per
attempt (:data:`BUDGET_DECAY`), then plain per-output decomposition, then
a BDD-free structural remap (:func:`structural_fragment`) that cannot
fail.  The flow therefore always produces a valid network; what it lost
along the way is recorded in :class:`RunReport`.

Workers fall back to in-process execution when a pool cannot be created
(restricted sandboxes without fork/semaphores), so ``jobs>1`` is always
safe to request; the fallback is recorded in ``RunReport.pool_fallback``.

Runs are additionally *crash-safe* when the caller supplies a
:class:`~repro.runstate.RunJournal`: every validated fragment is
journaled as it lands (WAL discipline), already-journaled tasks are
replayed by content-addressed key instead of re-executed, and a
SIGINT/SIGTERM while the loop is live unwinds through
:class:`~repro.runstate.ShutdownRequested` into a partial
:class:`RunReport` marked ``interrupted`` — workers terminated, journal
flushed, nothing torn.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..bdd import BddBudgetExceeded, BddManager
from ..boolfunc import TruthTable
from ..decompose import CostModel, DecompositionOptions
from ..network import GlobalBdds, Network, check_equivalence, parse_blif, to_blif
from ..perf import PerfCounters
from ..runstate import RunJournal, ShutdownRequested, graceful_shutdown, task_key
from .hyde import _network_depth, build_group_fragment, per_output_fragment
from .lut import cleanup_for_lut_count, count_luts

__all__ = [
    "GroupTask",
    "GroupResult",
    "TaskPolicy",
    "RunReport",
    "PORTFOLIO_STRATEGIES",
    "KNOWN_STRATEGIES",
    "build_group_fragment",
    "per_output_fragment",
    "structural_fragment",
    "run_group_tasks",
]

#: The raced strategies of portfolio mode, in tie-break priority order
#: (earlier wins on equal cost).  ``per_output`` and ``column`` only
#: apply to multi-output groups; ``structural`` is the BDD-free floor.
PORTFOLIO_STRATEGIES: Tuple[str, ...] = (
    "hyper",
    "per_output",
    "column",
    "structural",
)

#: Every strategy a :class:`TaskPolicy` may request.  ``exact`` is the
#: optional highest rung — the :mod:`repro.exact` optimality oracle,
#: raced only on cones small enough for it (see
#: :data:`repro.exact.EXACT_MAX_INPUTS`) and *advisory*: it ranks after
#: every heuristic on ties, and when its search exhausts the budget the
#: group falls back to the heuristic winner instead of degrading the
#: result (the scoreboard records ``"budget_exceeded"``).
KNOWN_STRATEGIES: Tuple[str, ...] = PORTFOLIO_STRATEGIES + ("exact",)

#: Factor every resource budget shrinks by per ladder retry.
BUDGET_DECAY = 0.5


@dataclass
class GroupTask:
    """Everything one worker needs, in picklable form."""

    blif_text: str  # standalone cone of the group's outputs
    group: List[str]  # output names, parent order
    gi: int  # group index (fragments are spliced in this order)
    options: DecompositionOptions
    ingredient_policy: str = "chart"
    ppi_placement: str = "prefer_free"
    fallback_per_output: bool = True
    base_name: str = "group"
    # "hyper" | "per_output" (ladder rung 2 / portfolio strategy) |
    # "structural" (portfolio strategy: the BDD-free remap).  The
    # "column" portfolio strategy is hyper with ppi_placement
    # "force_free", so its tasks share keys (and cache rows) with
    # column-encoding baseline runs.
    mode: str = "hyper"
    attempt: int = 0  # retry ordinal; gates fault injection via fires()
    inject: Optional[object] = None  # a repro.testing.faults.FaultSpec
    trace: bool = False  # record a span tree in the worker, ship it back


@dataclass
class GroupResult:
    """One worker's answer: the mapped fragment plus bookkeeping."""

    gi: int
    blif_text: str  # fragment: inputs ⊆ parent PIs, outputs = group
    info: Dict[str, object] = field(default_factory=dict)
    perf: Dict[str, object] = field(default_factory=dict)
    # Flat span records (obs.TraceRecorder.to_dicts(rebase=True)); times
    # start at 0 because perf_counter bases are process-local — the
    # parent grafts them with an offset into its own tree.
    spans: List[Dict[str, object]] = field(default_factory=list)
    # Wall-clock of the producing attempt, measured where the work ran
    # (worker-side for pooled tasks); journaled and restored on replay.
    seconds: float = 0.0


@dataclass(frozen=True)
class TaskPolicy:
    """Fault-tolerance knobs for :func:`run_group_tasks`.

    Passing no policy reproduces the historical fire-and-hope behavior
    byte for byte; any policy turns on reply validation and, for each
    failed or timed-out task, the degradation ladder:

    1. re-run in-process with every resource budget multiplied by
       :data:`BUDGET_DECAY` per attempt, up to ``retries`` times;
    2. re-run multi-output hyper tasks in plain per-output mode
       (hyper-function machinery skipped);
    3. rebuild the cone structurally (:func:`structural_fragment`) —
       BDD-free and budget-free, so it cannot fail.

    ``timeout_seconds`` bounds each pooled task's wall clock (enforced by
    the parent, so even a hung worker is recovered); in-process attempts
    reuse it as a cooperative time budget on the worker's manager, since
    pure Python cannot preempt itself.

    ``verify_mode`` selects the reply-equivalence engine: ``"bdd"`` is
    the monolithic check (pass/fail only); ``"finegrain"`` runs the
    cut-point checker from :mod:`repro.verify`, so a rejected reply's
    cause names the smallest non-equivalent cone and its counterexample
    (and, when a journal is attached, the cone is journaled as a
    ``failing_cone`` event before the ladder retries).

    ``portfolio`` turns the strategy ladder from a failure-recovery path
    into a quality-seeking one: every group races the strategies in
    ``strategies`` (default :data:`PORTFOLIO_STRATEGIES`) through the
    same governed runner, each candidate fragment is scored under the
    task options' cost model, and the cheapest wins — the per-group
    decisions land in ``RunReport.details["portfolio"]``.
    """

    timeout_seconds: Optional[float] = None
    retries: int = 1
    verify_mode: str = "bdd"
    portfolio: bool = False
    strategies: Optional[Tuple[str, ...]] = None


@dataclass
class RunReport:
    """What actually happened while running a batch of group tasks.

    ``degraded`` holds one entry per task that did not succeed on its
    first attempt: ``{"gi", "group", "causes", "resolution", "attempts"}``
    where ``resolution`` names the ladder rung that finally produced the
    fragment (``"retry"`` / ``"per_output"`` / ``"structural"``).

    With a run journal, ``replayed`` counts tasks satisfied from the
    journal without execution and ``executed`` counts tasks actually run
    (and journaled) this time; ``interrupted`` is set when a shutdown
    request stopped the batch early — the results list is then partial
    and the journal holds everything that completed.

    With a result cache (:class:`~repro.service.ResultStore`),
    ``cache_hits`` counts tasks served from the store, ``cache_misses``
    tasks that had to execute, and ``cache_rejected`` stored rows that
    failed revalidation (corrupt/stale entries — they are deleted and
    the task recomputed).  ``fragments`` then carries one per-task
    record (``gi``/``key``/``cached``/``seconds``/``blif``) in group
    order, so a serving layer can stream them to a client.
    """

    jobs_used: int = 1
    pool_fallback: Optional[str] = None  # why jobs>1 ran serially, if set
    # Free-form run decisions (e.g. the auto-serial estimate) for
    # surfacing in MapResult.details.
    details: Dict[str, object] = field(default_factory=dict)
    degraded: List[Dict[str, object]] = field(default_factory=list)
    timeouts: int = 0
    retries: int = 0
    replayed: int = 0
    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_rejected: int = 0
    # Per-task serving records (populated only when a cache is attached).
    fragments: List[Dict[str, object]] = field(default_factory=list)
    interrupted: bool = False
    interrupt_reason: Optional[str] = None
    journal_path: Optional[str] = None
    # Merged PerfCounters snapshot across every task reply — the one
    # place worker-side counters survive the process boundary.
    perf: Dict[str, object] = field(default_factory=dict)


#: What starting a fork pool must save to be worth it: pool creation,
#: per-task pickling and teardown, measured on the development machine.
_POOL_SETUP_SECONDS = 0.15

#: Coarse per-node decomposition cost for the auto-serial estimate.
_EST_SECONDS_PER_NODE = 0.0015


def _estimate_task_seconds(task: GroupTask) -> float:
    """Rough wall-clock estimate for decomposing one group's cone.

    Node count times a width factor that doubles every two cone inputs
    past a k-feasible baseline — bound-set search and class counting
    grow exponentially with support width, and ignoring that keeps
    genuinely expensive batches (many inputs, few nodes) off the pool.
    The estimate only has to be right about which side of the (large)
    pool-setup margin a batch falls on.
    """
    nodes = task.blif_text.count(".names")
    inputs = 0
    for line in task.blif_text.splitlines():
        if line.startswith(".inputs"):
            inputs = len(line.split()) - 1
            break
    width_factor = 2.0 ** (max(0, inputs - 8) / 2.0)
    return _EST_SECONDS_PER_NODE * nodes * width_factor


def _auto_serial_decision(
    tasks: Sequence[GroupTask], jobs: int
) -> Tuple[bool, Dict[str, object]]:
    """Should this batch skip the pool?  Returns ``(serial, record)``.

    A pool only pays off when the wall clock it saves — the work the
    extra workers take off the serial path — exceeds its setup cost.
    Small batches of small cones lose that trade, and on them the pool
    shows up as pure overhead in every benchmark.  The record lands in
    ``RunReport.details["auto_serial"]`` either way, so the decision is
    auditable.
    """
    workers = min(jobs, len(tasks))
    estimated = sum(_estimate_task_seconds(task) for task in tasks)
    savings = estimated * (1.0 - 1.0 / workers) if workers > 1 else 0.0
    serial = savings < _POOL_SETUP_SECONDS
    return serial, {
        "estimated_seconds": round(estimated, 4),
        "estimated_savings": round(savings, 4),
        "pool_setup_seconds": _POOL_SETUP_SECONDS,
        "workers": workers,
        "serial": serial,
    }


def structural_fragment(
    cone: Network, k: int, name: Optional[str] = None
) -> Network:
    """BDD-free k-feasible remap of a cone — the ladder's last rung.

    Rebuilds the cone node by node; any node with more than ``k`` fanins
    is Shannon-expanded on its highest fanin into two cofactor LUTs and a
    mux until everything fits.  No BDDs, no search, no budgets: nothing
    here can run out, which is exactly what a final fallback must
    guarantee.  The quality is whatever the source structure gives —
    acceptable for a rung that only runs when everything else failed.
    Needs ``k >= 3`` for the mux nodes.
    """
    if k < 3:
        raise ValueError("structural fallback needs k >= 3 (mux nodes)")
    frag = Network(name or f"{cone.name}_struct")
    for pi in cone.inputs:
        frag.add_input(pi)
    mux = TruthTable.from_function(3, lambda s, f0, f1: f1 if s else f0)

    def emit(fanins: List[str], table: TruthTable) -> str:
        # Distinct cone signals can map to one fragment signal (buffers
        # collapse), so merge duplicate fanins before anything else.
        if len(set(fanins)) != len(fanins):
            position = {sig: j for j, sig in enumerate(dict.fromkeys(fanins))}
            table = table.remap_inputs(
                len(position), [position[sig] for sig in fanins]
            )
            fanins = list(dict.fromkeys(fanins))
        reduced, kept = table.minimize_support()
        fanins = [fanins[j] for j in kept]
        if reduced.num_inputs == 0:
            return frag.add_constant(
                frag.fresh_name("sc"), 1 if reduced.mask else 0
            )
        if reduced.num_inputs == 1 and reduced.mask == 0b10:  # identity
            return fanins[0]
        if reduced.num_inputs <= k:
            return frag.add_node(frag.fresh_name("sn"), fanins, reduced)
        j = reduced.num_inputs - 1
        lo = emit(fanins[:-1], reduced.cofactor(j, 0).drop_input(j))
        hi = emit(fanins[:-1], reduced.cofactor(j, 1).drop_input(j))
        return emit([fanins[j], lo, hi], mux)

    signal_map: Dict[str, str] = {pi: pi for pi in cone.inputs}
    for node_name in cone.topological_order():
        if cone.is_input(node_name):
            continue
        node = cone.node(node_name)
        signal_map[node_name] = emit(
            [signal_map[fi] for fi in node.fanins], node.table
        )
    for out, driver in cone.outputs:
        frag.add_output(signal_map[driver], out)
    cleanup_for_lut_count(frag)
    return frag


def decompose_group_task(task: GroupTask) -> GroupResult:
    """Pool worker: cone BLIF in, mapped fragment BLIF out.

    Runs entirely in a private manager — global BDDs of the cone, the
    class-count memo and the decomposition all live and die with this
    call.  The cone's primary inputs keep the parent's relative
    order, so bound-set selection (whose ties break on level order) makes
    the same choices the serial flow would.  Any resource budget in
    ``task.options`` is armed on the private manager, so a blow-up raises
    :class:`~repro.bdd.BddBudgetExceeded` here and crosses back to the
    parent as an ordinary (picklable) exception.

    With ``task.trace`` set the worker records its own span tree under a
    task-local :class:`~repro.obs.TraceRecorder` and ships it back in
    ``GroupResult.spans`` (rebased to 0; the parent re-anchors it).  The
    recorder is installed around the body and restored afterwards, so an
    in-process run (pool fallback, ladder retries) nests correctly inside
    the parent's own recorder.
    """
    start = time.perf_counter()
    if not task.trace:
        result = _decompose_group(task)
        result.seconds = time.perf_counter() - start
        return result
    rec = obs.TraceRecorder(proc=f"task:{task.gi}")
    prev = obs.install(rec)
    try:
        result = _decompose_group(task)
    finally:
        obs.restore(prev)
    result.spans = rec.to_dicts(rebase=True)
    result.seconds = time.perf_counter() - start
    return result


def _decompose_group(task: GroupTask) -> GroupResult:
    if task.mode == "structural":
        # The BDD-free strategy: no manager, no budget, cannot blow up.
        with obs.span(
            "task.group",
            gi=task.gi,
            outputs=len(task.group),
            mode="structural",
            attempt=task.attempt,
        ):
            cone = parse_blif(task.blif_text)
            fragment = structural_fragment(
                cone, task.options.k, name=f"{task.base_name}_struct"
            )
            blif_text = to_blif(fragment)
            if task.inject is not None:
                from ..testing import faults

                blif_text = faults.after_decompose(
                    task.inject, blif_text, task.attempt
                )
        return GroupResult(
            gi=task.gi,
            blif_text=blif_text,
            info={
                "outputs": list(task.group),
                "hyper": False,
                "mode": "structural",
            },
        )
    if task.mode == "exact":
        return _decompose_group_exact(task)
    net = parse_blif(task.blif_text)
    gb = GlobalBdds(net)
    manager = gb.manager
    # Global BDDs are lazy (built at of_output below), so this root span's
    # perf delta covers essentially all BDD work the task performs.
    with obs.span(
        "task.group",
        manager=manager,
        gi=task.gi,
        outputs=len(task.group),
        mode=task.mode,
        attempt=task.attempt,
    ):
        task.options.arm_budget(manager)
        if task.inject is not None:
            from ..testing import faults  # lazy: test machinery stays optional

            faults.before_decompose(task.inject, manager, task.attempt)
        output_bdds = {out: gb.of_output(out) for out in net.output_names}
        support_union = sorted(
            {
                lv
                for out in task.group
                for lv in manager.support(output_bdds[out])
            }
        )
        group_inputs = [manager.name_of(lv) for lv in support_union]
        if task.mode == "per_output" and len(task.group) > 1:
            ingredients = [(out, output_bdds[out]) for out in task.group]
            fragment = per_output_fragment(
                manager, ingredients, group_inputs, task.options,
                f"{task.base_name}_po",
            )
            cleanup_for_lut_count(fragment)
            info: Dict[str, object] = {
                "outputs": list(task.group),
                "hyper": False,
                "mode": "per_output",
            }
        else:
            fragment, info = build_group_fragment(
                manager,
                output_bdds,
                task.group,
                group_inputs,
                task.options,
                ingredient_policy=task.ingredient_policy,
                ppi_placement=task.ppi_placement,
                fallback_per_output=task.fallback_per_output,
                base_name=task.base_name,
            )
        blif_text = to_blif(fragment)
        if task.inject is not None:
            from ..testing import faults

            blif_text = faults.after_decompose(
                task.inject, blif_text, task.attempt
            )
    return GroupResult(
        gi=task.gi,
        blif_text=blif_text,
        info=info,
        perf=manager.perf.snapshot(),
    )


def _splice_witness(fragment: Network, witness: Network, out: str) -> None:
    """Copy one exact witness into the group fragment under ``out``.

    Witness PIs are cone PIs by name (shared across outputs); internal
    node names are remapped when they collide with signals an earlier
    output's witness already spliced in.
    """
    rename: Dict[str, str] = {}
    for pi in witness.inputs:
        if not fragment.has_signal(pi):
            fragment.add_input(pi)
    for name in witness.topological_order():
        node = witness.node(name)
        fanins = [rename.get(fi, fi) for fi in node.fanins]
        target = name
        if fragment.has_signal(target):
            target = fragment.fresh_name(f"{out}_ex")
        rename[name] = target
        fragment.add_node(target, fanins, node.table)
    driver = dict(witness.outputs)[out]
    fragment.add_output(rename.get(driver, driver), out)


def _decompose_group_exact(task: GroupTask) -> GroupResult:
    """The ``exact`` portfolio strategy: provably minimal cones.

    Each output of the group is flattened to its truth table
    (:func:`repro.exact.cone_spec`) and mapped by the optimality oracle;
    the witnesses are spliced into one fragment.  The BDD manager exists
    only as the budget/fault surface: the options' budget is armed on it
    and :func:`repro.exact.exact_map` polls ``check_budget`` inside its
    search loops, so wall-clock limits and injected faults interrupt the
    search exactly like they interrupt a heuristic worker.  A search
    that exhausts its budget raises — the portfolio reduce then records
    ``"budget_exceeded"`` for the missing candidate and keeps the
    heuristic winner; a wrong-but-on-time result is never produced.
    """
    from ..exact import DEFAULT_BUDGET_SECONDS, cone_spec, exact_map

    net = parse_blif(task.blif_text)
    manager = BddManager()
    with obs.span(
        "task.group",
        manager=manager,
        gi=task.gi,
        outputs=len(task.group),
        mode="exact",
        attempt=task.attempt,
    ):
        task.options.arm_budget(manager)
        if task.inject is not None:
            from ..testing import faults  # lazy: test machinery stays optional

            faults.before_decompose(task.inject, manager, task.attempt)
        budget = task.options.exact_budget_seconds
        if budget is None:
            budget = DEFAULT_BUDGET_SECONDS
        if task.options.max_seconds is not None:
            budget = min(budget, task.options.max_seconds)
        cost = "delay" if task.options.cost.mode == "delay" else "area"
        fragment = Network(f"{task.base_name}_exact")
        detail: Dict[str, object] = {}
        for out in task.group:
            spec, support = cone_spec(net, out)
            res = exact_map(
                spec,
                task.options.k,
                cost=cost,
                budget_seconds=budget,
                input_names=support,
                output_name=out,
                name=f"{task.base_name}_exact",
                poll=manager.check_budget,
            )
            _splice_witness(fragment, res.network, out)
            detail[out] = {
                "luts": res.luts,
                "depth": res.depth,
                "source": res.source,
            }
        # Same emit pipeline as the heuristic strategies: kills the PO
        # buffer the BLIF emitter would add for an aliased output (which
        # the portfolio scorer would count as a LUT) and dedups nodes
        # shared across the group's witnesses.  Sweep/dedup/absorb are
        # semantics-preserving and can only keep or lower the count, so
        # the per-output optimality claim survives.
        cleanup_for_lut_count(fragment)
        blif_text = to_blif(fragment)
        if task.inject is not None:
            from ..testing import faults

            blif_text = faults.after_decompose(
                task.inject, blif_text, task.attempt
            )
    return GroupResult(
        gi=task.gi,
        blif_text=blif_text,
        info={
            "outputs": list(task.group),
            "hyper": False,
            "mode": "exact",
            "exact": detail,
        },
        perf=manager.perf.snapshot(),
    )


def _validate_reply(
    task: GroupTask,
    result: GroupResult,
    policy: TaskPolicy,
    journal: Optional[RunJournal] = None,
) -> Optional[str]:
    """``None`` when the reply is usable, else a short cause string.

    Validation depth: the BLIF must parse, the fragment must drive
    exactly the group's outputs from (a subset of) the cone's inputs,
    and it must be equivalent to the cone it was derived from, via the
    engine ``policy.verify_mode`` selects.  The fine-grained engine
    additionally journals the failing cone (root node, cone members,
    counterexample) so the rejection is diagnosable after the ladder has
    papered over it.
    """
    try:
        fragment = parse_blif(result.blif_text)
    except ValueError as exc:
        return f"corrupt_reply: {exc}"
    if sorted(fragment.output_names) != sorted(task.group):
        return "corrupt_reply: output set mismatch"
    cone = parse_blif(task.blif_text)
    if not set(fragment.inputs) <= set(cone.inputs):
        return "corrupt_reply: fragment reads unknown inputs"
    padded = fragment.copy()
    for pi in cone.inputs:
        if not padded.has_signal(pi):
            padded.add_input(pi)  # vacuous PI the BDD support dropped
    if policy.verify_mode == "finegrain":
        from ..verify.finegrain import finegrain_check

        try:
            fg = finegrain_check(cone, padded)
        except ValueError as exc:
            return f"corrupt_reply: {exc}"
        if fg.equivalent:
            return None
        worst = fg.failing_cones[0] if fg.failing_cones else None
        if journal is not None and worst is not None:
            journal.record_event(
                "failing_cone",
                gi=task.gi,
                group=list(task.group),
                output=worst.output,
                root=worst.root,
                cone_nodes=list(worst.cone_nodes),
                counterexample=dict(worst.counterexample),
                confirmed=worst.confirmed,
            )
        if worst is not None:
            return (
                f"nonequivalent_reply: output {worst.output!r}, cone at "
                f"{worst.root!r} ({len(worst.cone_nodes)} node(s)), "
                f"counterexample {worst.counterexample}"
            )
        return (
            "nonequivalent_reply: outputs "
            f"{sorted(fg.failing_outputs)} (no cone localized)"
        )
    try:
        bad = check_equivalence(cone, padded)
    except ValueError as exc:
        return f"corrupt_reply: {exc}"
    if bad is not None:
        return f"nonequivalent_reply: output {bad!r}"
    return None


def _effective_task(
    task: GroupTask, policy: TaskPolicy, attempt: int, mode: Optional[str]
) -> GroupTask:
    """The task as actually attempted in-process: decayed budgets.

    Retries shrink every budget by :data:`BUDGET_DECAY` per attempt, and
    the pool timeout (if any) is mirrored as a cooperative time budget so
    an in-process hang is still bounded.  ``mode=None`` keeps the task's
    own mode (the common case); a ladder rung passes an explicit mode to
    re-run the task as a different strategy.
    """
    options = task.options
    factor = BUDGET_DECAY ** attempt
    if attempt > 0:
        options = options.decayed(factor)
    if options.max_seconds is None and policy.timeout_seconds is not None:
        options = replace(options, max_seconds=policy.timeout_seconds * factor)
    return replace(
        task, options=options, attempt=attempt, mode=mode or task.mode
    )


def _attempt_inprocess(
    task: GroupTask,
    policy: TaskPolicy,
    attempt: int,
    mode: Optional[str] = None,
    journal: Optional[RunJournal] = None,
) -> Tuple[Optional[str], Optional[GroupResult]]:
    """Run one in-process attempt; returns ``(cause, result)``."""
    from ..exact import ExactBudgetExceeded

    trial = _effective_task(task, policy, attempt, mode)
    try:
        result = decompose_group_task(trial)
    except BddBudgetExceeded as exc:
        prefix = "timeout" if exc.kind == "seconds" else "budget"
        return f"{prefix}: {exc}", None
    except ExactBudgetExceeded as exc:
        return f"budget: {exc}", None
    except Exception as exc:  # noqa: BLE001 - the ladder owns recovery
        return f"crash: {type(exc).__name__}: {exc}", None
    cause = _validate_reply(task, result, policy, journal=journal)
    if cause is not None:
        return cause, None
    return None, result


def _worker_signal_reset() -> None:
    """Restore default signal dispositions in pool workers.

    Fork-started workers inherit whatever handlers the parent has
    installed — including :func:`~repro.runstate.graceful_shutdown`'s
    raise-on-SIGTERM handler, since journaled runs create the pool
    inside that context.  A handler that raises is unsafe inside
    multiprocessing internals: ``Pool.terminate()`` SIGTERMs idle
    workers, and the raise can land inside ``SemLock.__enter__`` after
    the semaphore acquire succeeded but before the ``with`` block can
    guarantee release, leaking the shared inqueue lock and wedging pool
    teardown in ``p.join()`` forever.  SIGTERM must simply kill a
    worker; SIGINT is ignored so a terminal's ctrl-C (delivered to the
    whole process group) is handled once, by the parent.
    """
    import signal

    with contextlib.suppress(ValueError, OSError):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)


def _make_pool(workers: int):
    # fork shares the already-imported interpreter state — cheap worker
    # start-up; fall back to the platform default elsewhere.
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        ctx = multiprocessing.get_context()
    return ctx.Pool(workers, initializer=_worker_signal_reset)


def _merge_result_perf(
    results: Sequence[GroupResult], report: RunReport
) -> None:
    """Fold every reply's counter snapshot into ``report.perf``."""
    merged = PerfCounters()
    for result in results:
        if result.perf:
            merged.merge_dict(result.perf)
    # Cache traffic is a parent-side fact (the store lives with the
    # dispatch loop, not the workers) but it belongs in the same merged
    # snapshot so `repro stats` and traces see one coherent counter set.
    merged.cache_hits += report.cache_hits
    merged.cache_misses += report.cache_misses
    merged.cache_rejected += report.cache_rejected
    report.perf = merged.snapshot()


def _replay_result(
    task: GroupTask, record: Dict[str, object], source: str = "replayed"
) -> Optional[GroupResult]:
    """Rebuild a :class:`GroupResult` from a journaled/cached record.

    Returns ``None`` — forcing re-execution — when the stored fragment
    does not survive the same checks a live worker reply must pass: the
    BLIF has to parse and drive exactly the task's outputs.  A corrupt
    or tampered record therefore degrades to recomputation, never to
    splicing garbage.  ``source`` names the flag set in the result's
    info (``"replayed"`` for journal records, ``"cached"`` for result-
    store rows).
    """
    blif_text = record.get("blif")
    if not isinstance(blif_text, str):
        return None
    try:
        fragment = parse_blif(blif_text)
    except ValueError:
        return None
    if sorted(fragment.output_names) != sorted(task.group):
        return None
    info = dict(record.get("info") or {})
    info[source] = True
    try:
        seconds = float(record.get("seconds") or 0.0)
    except (TypeError, ValueError):
        seconds = 0.0
    return GroupResult(
        gi=task.gi, blif_text=blif_text, info=info, seconds=seconds
    )


def _cache_lookup(
    task: GroupTask,
    key: str,
    cache,
    policy: TaskPolicy,
    journal: Optional[RunJournal],
    report: RunReport,
) -> Optional[GroupResult]:
    """Serve one task from the result store, or ``None`` on a miss.

    A stored row is *never trusted blindly*: every hit must rebuild
    through :func:`_replay_result` (parse + output-set check), and a row
    that has not yet passed the full reply-validation gate (the
    ``verified`` stamp) additionally runs :func:`_validate_reply` — the
    same equivalence engine live worker replies face — before its first
    reuse.  A row that fails either check is deleted from the store so
    the task recomputes and overwrites it.
    """
    record = cache.get(key)
    if record is None:
        return None
    result = _replay_result(task, record, source="cached")
    cause: Optional[str] = None
    if result is None:
        cause = "corrupt_row: fragment does not rebuild"
    elif not record.get("verified"):
        cause = _validate_reply(task, result, policy, journal=journal)
        if cause is None:
            cache.mark_verified(key)
    if cause is not None:
        cache.invalidate(key)
        report.cache_rejected += 1
        obs.event("cache_rejected", gi=task.gi, key=key, cause=cause)
        if journal is not None:
            journal.record_event(
                "cache_rejected", gi=task.gi, key=key, cause=cause
            )
        return None
    return result


def _run_governed(
    tasks: List[GroupTask],
    jobs: int,
    policy: TaskPolicy,
    report: RunReport,
    journal: Optional[RunJournal] = None,
    shutdown_after: Optional[int] = None,
    cache=None,
    pool=None,
) -> Tuple[List[GroupResult], RunReport]:
    """The policy path: timeouts, validation, and the degradation ladder.

    With a ``journal``, completed tasks are first replayed by
    content-addressed key (stale keys simply miss), every fragment that
    lands is journaled before the loop moves on, and SIGINT/SIGTERM —
    or the test-only ``shutdown_after`` parent-kill injection — stops
    the batch gracefully: the pool is torn down, the interruption is
    journaled, and the partial results are returned with
    ``report.interrupted`` set.

    ``cache`` (a :class:`~repro.service.ResultStore`) memoizes results
    *across* runs by the same content-addressed key the journal uses:
    tasks the store already knows are served (after revalidation — see
    :func:`_cache_lookup`) without execution, and every freshly landed
    fragment is written back.  ``pool`` is an externally owned, already
    warm worker pool (the mapping service's): it is used instead of
    creating one and is **not** terminated when the batch ends — pool
    lifecycle then belongs to the caller.
    """
    results: List[Optional[GroupResult]] = [None] * len(tasks)
    causes: Dict[int, List[str]] = {i: [] for i in range(len(tasks))}
    pending: List[int] = []
    keys: List[Optional[str]] = [None] * len(tasks)

    todo = list(range(len(tasks)))
    if journal is not None or cache is not None:
        keys = [task_key(task) for task in tasks]
    if journal is not None:
        report.journal_path = journal.path
        remaining: List[int] = []
        for i in todo:
            record = journal.lookup(keys[i])
            replayed = (
                _replay_result(tasks[i], record)
                if record is not None
                else None
            )
            if replayed is not None:
                results[i] = replayed
                report.replayed += 1
            else:
                remaining.append(i)
        todo = remaining
    if cache is not None:
        remaining = []
        for i in todo:
            hit = _cache_lookup(
                tasks[i], keys[i], cache, policy, journal, report
            )
            if hit is not None:
                results[i] = hit
                report.cache_hits += 1
                report.fragments.append(
                    {
                        "gi": tasks[i].gi,
                        "group": list(tasks[i].group),
                        "key": keys[i],
                        "cached": True,
                        "seconds": hit.seconds,
                        "blif": hit.blif_text,
                    }
                )
            else:
                report.cache_misses += 1
                remaining.append(i)
        todo = remaining

    def _land(
        i: int,
        result: GroupResult,
        seconds: float,
        resolution: Optional[str] = None,
    ) -> None:
        """Accept a validated fragment: journal it, then check shutdown."""
        results[i] = result
        report.executed += 1
        if journal is not None:
            journal.record_group(
                keys[i], tasks[i], result, seconds, resolution=resolution
            )
        if cache is not None:
            # Live replies already passed _validate_reply, so the row is
            # born verified; replays validate again on their first reuse.
            # The cache is an accelerator: a write that fails (disk
            # full, cross-process lock) is counted and skipped — it must
            # never fail a request that already computed its fragment.
            try:
                cache.put(
                    keys[i],
                    result.blif_text,
                    info=result.info,
                    seconds=seconds,
                    verified=True,
                )
            except Exception as exc:  # noqa: BLE001 — any storage failure
                report.details["cache_write_errors"] = (
                    report.details.get("cache_write_errors", 0) + 1
                )
                obs.event(
                    "cache_write_error",
                    gi=tasks[i].gi,
                    key=keys[i],
                    error=f"{type(exc).__name__}: {exc}",
                )
            report.fragments.append(
                {
                    "gi": tasks[i].gi,
                    "group": list(tasks[i].group),
                    "key": keys[i],
                    "cached": False,
                    "seconds": seconds,
                    "blif": result.blif_text,
                    **({"resolution": resolution} if resolution else {}),
                }
            )
        if (
            shutdown_after is not None
            and report.executed >= shutdown_after
        ):
            raise ShutdownRequested("injected_parent_kill")

    guard = (
        graceful_shutdown()
        if journal is not None or shutdown_after is not None
        else contextlib.nullcontext()
    )
    try:
        with guard:
            worker_pool = None
            owns_pool = False
            workers = min(jobs, len(todo)) if todo else 1
            if pool is not None and todo and jobs > 1:
                # A warm externally owned pool: setup cost is already
                # paid, so the auto-serial economics never apply — use
                # it whenever there is any pooled work at all.
                worker_pool = pool
                report.details["warm_pool"] = True
            else:
                want_pool = jobs > 1 and len(todo) > 1
                # The heuristic must not pre-empt policies that rely on
                # the pool's *real* (parent-enforced) preemption: a
                # wall-clock timeout or an injected fault can hang an
                # in-process attempt that only a worker kill recovers.
                if (
                    want_pool
                    and policy.timeout_seconds is None
                    and all(task.inject is None for task in tasks)
                ):
                    serial, decision = _auto_serial_decision(
                        [tasks[i] for i in todo], jobs
                    )
                    report.details["auto_serial"] = decision
                    if serial:
                        want_pool = False
                        report.pool_fallback = (
                            "auto_serial: estimated savings "
                            f"{decision['estimated_savings']:.3f}s below "
                            f"pool setup cost {_POOL_SETUP_SECONDS:g}s"
                        )
                if want_pool:
                    try:
                        worker_pool = _make_pool(workers)
                        owns_pool = True
                    except (OSError, PermissionError, RuntimeError) as exc:
                        report.pool_fallback = f"{type(exc).__name__}: {exc}"
            report.jobs_used = workers if worker_pool is not None else 1

            if worker_pool is not None:
                try:
                    handles = [
                        (
                            i,
                            worker_pool.apply_async(
                                decompose_group_task, (tasks[i],)
                            ),
                        )
                        for i in todo
                    ]
                    for i, handle in handles:
                        try:
                            result = handle.get(timeout=policy.timeout_seconds)
                        except multiprocessing.TimeoutError:
                            report.timeouts += 1
                            causes[i].append(
                                f"timeout: exceeded {policy.timeout_seconds:g}s"
                                " wall clock"
                            )
                            pending.append(i)
                            continue
                        except BddBudgetExceeded as exc:
                            prefix = (
                                "timeout" if exc.kind == "seconds" else "budget"
                            )
                            if prefix == "timeout":
                                report.timeouts += 1
                            causes[i].append(f"{prefix}: {exc}")
                            pending.append(i)
                            continue
                        except Exception as exc:  # noqa: BLE001 - worker died
                            # A budget-exhausted exact search is a
                            # degradation, not a crash: the cause prefix
                            # keeps the two distinguishable downstream
                            # (pool recycling keys on "timeout"/faults).
                            if type(exc).__name__ == "ExactBudgetExceeded":
                                causes[i].append(f"budget: {exc}")
                            else:
                                causes[i].append(
                                    f"crash: {type(exc).__name__}: {exc}"
                                )
                            pending.append(i)
                            continue
                        cause = _validate_reply(
                            tasks[i], result, policy, journal=journal
                        )
                        if cause is None:
                            _land(i, result, result.seconds)
                        else:
                            causes[i].append(cause)
                            pending.append(i)
                finally:
                    if owns_pool:
                        # terminate, not close: a hung worker would block
                        # join forever (and a shutdown request must not
                        # wait either).  An external pool is the caller's
                        # to recycle — a timeout here may have left a
                        # hung worker, which report.timeouts surfaces.
                        worker_pool.terminate()
                        worker_pool.join()
            else:
                for i in todo:
                    cause, result = _attempt_inprocess(
                        tasks[i], policy, attempt=0, journal=journal
                    )
                    if cause is None:
                        _land(i, result, result.seconds)
                    else:
                        if cause.startswith("timeout"):
                            report.timeouts += 1
                        causes[i].append(cause)
                        pending.append(i)

            # The ladder, per still-failing task (in-process from here on:
            # the remaining work is recovery, not throughput).
            for i in pending:
                task = tasks[i]
                resolution: Optional[str] = None
                landed: Optional[GroupResult] = None
                attempt = 0
                for retry in range(1, policy.retries + 1):
                    attempt = retry
                    report.retries += 1
                    cause, result = _attempt_inprocess(
                        task, policy, attempt, journal=journal
                    )
                    if cause is None:
                        landed = result
                        resolution = "retry"
                        break
                    if cause.startswith("timeout"):
                        report.timeouts += 1
                    causes[i].append(cause)
                if (
                    resolution is None
                    and task.mode == "hyper"
                    and len(task.group) > 1
                ):
                    attempt += 1
                    cause, result = _attempt_inprocess(
                        task, policy, attempt, mode="per_output",
                        journal=journal,
                    )
                    if cause is None:
                        landed = result
                        resolution = "per_output"
                    else:
                        if cause.startswith("timeout"):
                            report.timeouts += 1
                        causes[i].append(cause)
                if resolution is None and task.mode == "exact":
                    # The advisory rung: an exact search that lost its
                    # budget race is *dropped*, never substituted — a
                    # structural stand-in labeled "exact" would defeat
                    # the whole point of an optimality oracle.  The
                    # portfolio reduce records "budget_exceeded" and
                    # keeps the heuristic winner.
                    report.degraded.append(
                        {
                            "gi": task.gi,
                            "group": list(task.group),
                            "causes": list(causes[i]),
                            "resolution": "dropped",
                            "attempts": attempt + 1,
                        }
                    )
                    continue
                if resolution is None:
                    # Parent-side and deterministic: immune to worker faults.
                    struct_start = time.perf_counter()
                    cone = parse_blif(task.blif_text)
                    fragment = structural_fragment(
                        cone, task.options.k, name=f"{task.base_name}_struct"
                    )
                    landed = GroupResult(
                        gi=task.gi,
                        blif_text=to_blif(fragment),
                        info={
                            "outputs": list(task.group),
                            "hyper": False,
                            "mode": "structural",
                        },
                        seconds=time.perf_counter() - struct_start,
                    )
                    resolution = "structural"
                report.degraded.append(
                    {
                        "gi": task.gi,
                        "group": list(task.group),
                        "causes": list(causes[i]),
                        "resolution": resolution,
                        "attempts": attempt + 1,
                    }
                )
                _land(i, landed, landed.seconds, resolution=resolution)
    except ShutdownRequested as exc:
        report.interrupted = True
        report.interrupt_reason = exc.reason
        if journal is not None:
            journal.record_interrupted(
                exc.reason,
                completed=sum(1 for r in results if r is not None),
                total=len(tasks),
            )

    report.fragments.sort(key=lambda f: f["gi"])
    final = [r for r in results if r is not None]
    _merge_result_perf(final, report)
    return final, report


def _cone_input_count(blif_text: str) -> int:
    """Count the cone's declared PIs without a full parse."""
    for line in blif_text.splitlines():
        if line.startswith(".inputs"):
            return len(line.split()) - 1
    return 0


def _portfolio_strategies(
    task: GroupTask, policy: TaskPolicy
) -> List[str]:
    """The strategies this task races (single-output groups have no
    multi-output strategies to race; the exact oracle only races cones
    narrow enough to search exhaustively)."""
    wanted = tuple(policy.strategies) if policy.strategies else (
        PORTFOLIO_STRATEGIES
    )
    out = []
    for strategy in wanted:
        if strategy not in KNOWN_STRATEGIES:
            raise ValueError(
                f"unknown portfolio strategy {strategy!r}; expected one "
                f"of {KNOWN_STRATEGIES}"
            )
        if strategy in ("per_output", "column") and len(task.group) <= 1:
            continue
        if strategy == "exact":
            from ..exact import EXACT_MAX_INPUTS

            if _cone_input_count(task.blif_text) > EXACT_MAX_INPUTS:
                continue
        out.append(strategy)
    if all(s == "exact" for s in out):
        # The exact rung is advisory — it may come back empty
        # (budget_exceeded) — so every race carries at least one
        # heuristic that cannot lose the group.  Also covers the
        # empty list (a single-output-only selection).
        out.append("hyper")
    return out


def _variant_task(task: GroupTask, strategy: str, gi: int) -> GroupTask:
    """One pure-strategy clone of ``task`` for the portfolio race.

    Every field that changes behavior is part of the content-addressed
    task key, so variant results are shared with (and reusable by)
    non-portfolio runs of the same strategy.
    """
    inject = task.inject
    if (
        inject is not None
        and getattr(inject, "strategy", None) not in (None, strategy)
    ):
        inject = None  # strategy-targeted fault rides another variant
    task = replace(task, inject=inject)
    if strategy == "hyper":
        return replace(task, mode="hyper", gi=gi, fallback_per_output=False)
    if strategy == "per_output":
        return replace(task, mode="per_output", gi=gi)
    if strategy == "column":
        # Column encoding == hyper with PPIs pinned free (the baseline
        # flow's exact recipe), raced as its own pure candidate.
        return replace(
            task,
            mode="hyper",
            gi=gi,
            ppi_placement="force_free",
            fallback_per_output=False,
        )
    if strategy == "exact":
        return replace(task, mode="exact", gi=gi, fallback_per_output=False)
    return replace(task, mode="structural", gi=gi)


def _run_portfolio(
    tasks: List[GroupTask],
    jobs: int,
    policy: TaskPolicy,
    report: RunReport,
    journal: Optional[RunJournal] = None,
    shutdown_after: Optional[int] = None,
    cache=None,
    pool=None,
) -> Tuple[List[GroupResult], RunReport]:
    """Race every strategy per group; keep the cost-model winner.

    Each group expands into one pure-strategy variant task per raced
    strategy; all variants run through :func:`_run_governed` — the same
    budgets, timeouts, journal replay and cache the recovery ladder uses
    — and the candidates are then reduced per group under the task
    options' cost model (ties break toward the earlier strategy in
    :data:`PORTFOLIO_STRATEGIES`).  The winning fragment is returned
    under the group's original index; the full per-group scoreboard
    lands in ``report.details["portfolio"]``.
    """
    variants: List[GroupTask] = []
    origin: List[Tuple[int, str]] = []
    strategies_of: List[List[str]] = []
    for ti, task in enumerate(tasks):
        strategies = _portfolio_strategies(task, policy)
        strategies_of.append(strategies)
        for strategy in strategies:
            origin.append((ti, strategy))
            variants.append(_variant_task(task, strategy, gi=len(origin) - 1))

    cost = tasks[0].options.cost if tasks else CostModel()
    with obs.span(
        "portfolio",
        groups=len(tasks),
        variants=len(variants),
        cost=cost.spec,
    ):
        vresults, report = _run_governed(
            variants, jobs, policy, report,
            journal=journal, shutdown_after=shutdown_after,
            cache=cache, pool=pool,
        )

        by_task: Dict[int, Dict[str, GroupResult]] = {}
        for res in vresults:
            ti, strategy = origin[res.gi]
            by_task.setdefault(ti, {})[strategy] = res

        # Exact ranks last: it may only *win* a group, never break a tie
        # away from a heuristic whose fragment keys are shared with
        # non-portfolio runs.
        rank = {s: r for r, s in enumerate(KNOWN_STRATEGIES)}
        final: List[GroupResult] = []
        decisions: List[Dict[str, object]] = []
        for ti, task in enumerate(tasks):
            candidates = by_task.get(ti, {})
            missing = [s for s in strategies_of[ti] if s not in candidates]
            if any(s != "exact" for s in missing):
                # Only possible on an interrupted run: the group is
                # incomplete, so it contributes no winner (the journal
                # holds whatever variants did land).  A missing *exact*
                # candidate is different — that rung is advisory and a
                # budget-exhausted search is dropped by design, so the
                # heuristics still decide the group below.
                continue
            scoreboard: Dict[str, object] = {
                s: "budget_exceeded" for s in missing
            }
            scored: List[Tuple[Tuple, int, str, GroupResult, int, int]] = []
            for strategy in strategies_of[ti]:
                if strategy not in candidates:
                    continue
                res = candidates[strategy]
                frag = parse_blif(res.blif_text)
                luts = count_luts(frag, task.options.k)
                depth = _network_depth(frag)
                scoreboard[strategy] = {"luts": luts, "depth": depth}
                scored.append(
                    (
                        cost.fragment_key(luts, depth),
                        rank.get(strategy, len(rank)),
                        strategy,
                        res,
                        luts,
                        depth,
                    )
                )
            scored.sort(key=lambda entry: (entry[0], entry[1]))
            _, _, winner, res, luts, depth = scored[0]
            info = dict(res.info)
            info["portfolio"] = winner
            final.append(replace(res, gi=task.gi, info=info))
            decisions.append(
                {
                    "gi": task.gi,
                    "group": list(task.group),
                    "winner": winner,
                    "cost_model": cost.spec,
                    "candidates": scoreboard,
                }
            )
            obs.event(
                "portfolio_winner",
                gi=task.gi,
                winner=winner,
                luts=luts,
                depth=depth,
                cost=cost.spec,
            )
        report.details["portfolio"] = decisions
    return final, report


def run_group_tasks(
    tasks: Sequence[GroupTask],
    jobs: int,
    policy: Optional[TaskPolicy] = None,
    journal: Optional[RunJournal] = None,
    shutdown_after: Optional[int] = None,
    cache=None,
    pool=None,
) -> Tuple[List[GroupResult], RunReport]:
    """Execute group tasks, fanning out to ``jobs`` processes when >1.

    Returns ``(results, report)`` with results in task order.  Without a
    ``policy`` (and with no task carrying a fault injection) this is the
    historical fire-and-hope path — no timeouts, no reply validation,
    workers trusted absolutely — except that a refused pool is now
    *recorded* in ``report.pool_fallback`` instead of being silently
    swallowed.  With a policy, every reply is validated and failures walk
    the degradation ladder (see :class:`TaskPolicy`): the call then
    returns one usable fragment per task, or raises only after every
    rung, including the cannot-fail structural one, was disabled or
    exhausted.

    ``journal`` (a :class:`~repro.runstate.RunJournal`) makes the batch
    crash-safe and resumable: journaled tasks replay by key, fresh
    completions are journaled as they land, and shutdown signals stop
    the batch cleanly (``report.interrupted``).  ``shutdown_after`` is
    the deterministic test hook for exactly that path: it raises the
    same :class:`~repro.runstate.ShutdownRequested` after N landed
    groups that a real SIGTERM would.  Either option implies the
    governed path (a default :class:`TaskPolicy` is used when none is
    given) — replies must be validated before they may be journaled.

    ``cache`` (a :class:`~repro.service.ResultStore`) memoizes validated
    fragments across runs by content-addressed key, and ``pool`` runs
    the batch on an externally owned warm worker pool instead of a
    per-call one (the pool is left running afterwards).  Both also imply
    the governed path: cached rows and warm workers only serve
    validated replies.
    """
    tasks = list(tasks)
    report = RunReport()
    if policy is None and (
        journal is not None
        or shutdown_after is not None
        or cache is not None
        or pool is not None
        or any(t.inject is not None for t in tasks)
    ):
        policy = TaskPolicy()  # journaling/caching/faults need validation
    if policy is not None and policy.portfolio:
        return _run_portfolio(
            tasks, jobs, policy, report,
            journal=journal, shutdown_after=shutdown_after,
            cache=cache, pool=pool,
        )
    if policy is not None:
        return _run_governed(
            tasks, jobs, policy, report,
            journal=journal, shutdown_after=shutdown_after,
            cache=cache, pool=pool,
        )
    if jobs <= 1 or len(tasks) <= 1:
        results = [decompose_group_task(t) for t in tasks]
        _merge_result_perf(results, report)
        return results, report
    serial, decision = _auto_serial_decision(tasks, jobs)
    report.details["auto_serial"] = decision
    if serial:
        report.jobs_used = 1
        report.pool_fallback = (
            "auto_serial: estimated savings "
            f"{decision['estimated_savings']:.3f}s below pool setup cost "
            f"{_POOL_SETUP_SECONDS:g}s"
        )
        results = [decompose_group_task(t) for t in tasks]
        _merge_result_perf(results, report)
        return results, report
    workers = min(jobs, len(tasks))
    try:
        with _make_pool(workers) as pool:
            results = list(pool.map(decompose_group_task, tasks))
        report.jobs_used = workers
        _merge_result_perf(results, report)
        return results, report
    except (OSError, PermissionError, RuntimeError) as exc:
        # No usable process pool (sandboxed /dev/shm, missing sem_open…).
        report.jobs_used = 1
        report.pool_fallback = f"{type(exc).__name__}: {exc}"
        results = [decompose_group_task(t) for t in tasks]
        _merge_result_perf(results, report)
        return results, report
