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

Every batch runs through one staged runner, configured by one
:class:`RunContext` per flow call:

1. **lookup** — tasks already journaled (:class:`~repro.runstate.RunJournal`)
   or stored (:class:`~repro.service.ResultStore`) under their
   content-addressed :func:`~repro.runstate.task_key` are served without
   execution;
2. **dispatch** — the rest run once, on a worker pool or in-process;
3. **recover** — with a :class:`TaskPolicy`, each failed or rejected task
   walks a degradation ladder: in-process retries under budgets halved per
   attempt (:data:`BUDGET_DECAY`), then plain per-output decomposition,
   then a BDD-free structural remap (:func:`structural_fragment`) that
   cannot fail;
4. **land** — each fragment is journaled and stored as it arrives (WAL
   discipline), then the shutdown check runs.

A batch with a policy is *governed*: one validator,
:func:`check_fragment`, judges every live reply, journal record and
stored row before it may be spliced, and the flow therefore always
produces a valid network; what it lost along the way is recorded in
:class:`RunReport`.  A batch without one (``jobs > 1`` and nothing else)
is *trusted*: replies are spliced as they come and a failing task raises.

Workers fall back to in-process execution when a pool cannot be created
(restricted sandboxes without fork/semaphores), so ``jobs>1`` is always
safe to request; the fallback is recorded in ``RunReport.pool_fallback``.
A SIGINT/SIGTERM while a journaled batch is live unwinds through
:class:`~repro.runstate.ShutdownRequested` into a partial report whose
``interrupted`` field carries the :class:`~repro.runstate.RunInterrupted`
the flow raises — workers terminated, journal flushed, nothing torn.
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
from ..network import GlobalBdds, Network, parse_blif, to_blif, verdict
from ..perf import PerfCounters
from ..runstate import (
    RunInterrupted,
    RunJournal,
    ShutdownRequested,
    graceful_shutdown,
    task_key,
)
from .hyde import (
    _network_depth,
    _record_path,
    build_group_fragment,
    per_output_fragment,
)
from .lut import cleanup_for_lut_count, count_luts

__all__ = [
    "GroupTask",
    "GroupResult",
    "TaskPolicy",
    "RunReport",
    "RunContext",
    "PORTFOLIO_STRATEGIES",
    "KNOWN_STRATEGIES",
    "build_group_fragment",
    "check_fragment",
    "per_output_fragment",
    "run_context",
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
    # The parent's perf_counter when the reply reached its batch (0.0
    # for journal and store hits): where the span tree ends on the
    # parent's timeline.
    received: float = 0.0


@dataclass(frozen=True)
class TaskPolicy:
    """Fault-tolerance knobs for :func:`run_group_tasks`.

    A batch without a policy is trusted (replies spliced unvalidated, a
    failing task raises); any policy turns on :func:`check_fragment` for
    every reply and, for each failed or rejected task, the degradation
    ladder:

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
    fragment (``"retry"`` / ``"per_output"`` / ``"structural"``, or
    ``"dropped"`` for an advisory exact variant).

    With a run journal, ``replayed`` counts tasks satisfied from the
    journal without execution and ``executed`` counts tasks actually run
    (and journaled) this time.  ``interrupted`` is set when a shutdown
    request stopped the batch early: it is the
    :class:`~repro.runstate.RunInterrupted` the flow raises, carrying the
    counts the journal recorded.  The results list is then partial and
    the journal holds everything that completed.

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
    interrupted: Optional[RunInterrupted] = None
    # Merged PerfCounters snapshot across every task reply — the one
    # place worker-side counters survive the process boundary.
    perf: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class RunContext:
    """The run arguments of one flow call, built by :func:`run_context`.

    ``jobs`` is the worker count; ``policy`` (a :class:`TaskPolicy`, or
    ``None`` for a trusted batch) governs validation and recovery;
    ``faults`` is a :class:`~repro.testing.FaultPlan` whose
    ``parent_kill_after`` the land stage honours (its per-group specs
    already ride in each task's ``inject``); ``journal`` is a
    :class:`~repro.runstate.RunJournal`, ``cache`` a
    :class:`~repro.service.ResultStore` and ``pool`` an externally owned
    warm worker pool that the batch uses but never terminates.
    """

    jobs: int = 1
    policy: Optional[TaskPolicy] = None
    faults: Optional[object] = None
    journal: Optional[RunJournal] = None
    cache: Optional[object] = None
    pool: Optional[object] = None


def run_context(
    jobs: int = 1,
    policy: Optional[TaskPolicy] = None,
    faults: Optional[object] = None,
    journal: Optional[RunJournal] = None,
    cache=None,
    pool=None,
    portfolio: bool = False,
    verify: str = "bdd",
) -> RunContext:
    """One flow call's :class:`RunContext`, with its policy upgraded.

    The three rules that change the caller's policy live here and only
    here:

    * ``portfolio`` sets ``policy.portfolio``;
    * ``verify="finegrain"`` extends fine-grained checking to reply
      validation (an explicit non-default ``verify_mode`` wins), so a
      rejected reply names its failing cone;
    * a journal, store, warm pool or fault plan needs validated replies,
      so it implies a default policy.
    """
    if portfolio:
        policy = replace(policy or TaskPolicy(), portfolio=True)
    if verify == "finegrain" and (
        policy is None or policy.verify_mode == "bdd"
    ):
        policy = replace(policy or TaskPolicy(), verify_mode="finegrain")
    if policy is None and (
        faults or journal is not None or cache is not None or pool is not None
    ):
        policy = TaskPolicy()
    return RunContext(jobs, policy, faults, journal, cache, pool)


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
    width_factor = 2.0 ** (max(0, _cone_input_count(task.blif_text) - 8) / 2.0)
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
    """One strategy's fragment, under the task's budget and faults.

    Every mode but ``structural`` owns a manager: the options' budget is
    armed on it and the pre-compute fault point fires against it.  The
    structural remap has neither — no BDDs, no budget, so it cannot
    blow up — and only the post-compute (corrupt reply) fault applies.
    """
    cone = parse_blif(task.blif_text)
    gb = manager = None
    if task.mode == "exact":
        # Only the budget/fault surface of the search: exact_map polls
        # check_budget inside its loops.
        manager = BddManager()
    elif task.mode != "structural":
        gb = GlobalBdds(cone)
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
        if manager is not None:
            task.options.arm_budget(manager)
            if task.inject is not None:
                # lazy: test machinery stays optional
                from ..testing import faults

                faults.before_decompose(task.inject, manager, task.attempt)
        info: Dict[str, object] = {
            "outputs": list(task.group),
            "hyper": False,
            "mode": task.mode,
        }
        if task.mode == "structural":
            fragment = structural_fragment(
                cone, task.options.k, name=f"{task.base_name}_struct"
            )
        elif task.mode == "exact":
            fragment = _exact_fragment(task, cone, manager, info)
        else:
            output_bdds = {out: gb.of_output(out) for out in cone.output_names}
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
    perf: Dict[str, object] = {}
    if manager is not None:
        perf = manager.perf.snapshot()
        perf["peak_nodes"] = manager.stats()["peak_nodes"]
    return GroupResult(gi=task.gi, blif_text=blif_text, info=info, perf=perf)


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


def _exact_fragment(
    task: GroupTask,
    cone: Network,
    manager: BddManager,
    info: Dict[str, object],
) -> Network:
    """The ``exact`` portfolio strategy: provably minimal cones.

    Each output of the group is flattened to its truth table
    (:func:`repro.exact.cone_spec`) and mapped by the optimality oracle;
    the witnesses are spliced into one fragment and the per-output
    result lands in ``info["exact"]``.  :func:`repro.exact.exact_map`
    polls the manager's budget inside its search loops, so wall-clock
    limits and injected faults interrupt the search exactly like they
    interrupt a heuristic worker.  A search that exhausts its budget
    raises — the portfolio reduce then records ``"budget_exceeded"`` for
    the missing candidate and keeps the heuristic winner; a
    wrong-but-on-time result is never produced.
    """
    from ..exact import DEFAULT_BUDGET_SECONDS, cone_spec, exact_map

    budget = task.options.exact_budget_seconds
    if budget is None:
        budget = DEFAULT_BUDGET_SECONDS
    if task.options.max_seconds is not None:
        budget = min(budget, task.options.max_seconds)
    cost = "delay" if task.options.cost.mode == "delay" else "area"
    fragment = Network(f"{task.base_name}_exact")
    detail: Dict[str, object] = {}
    for out in task.group:
        spec, support = cone_spec(cone, out)
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
    info["exact"] = detail
    return fragment


def check_fragment(
    task: GroupTask,
    blif,
    engine: Optional[str] = None,
    journal: Optional[RunJournal] = None,
) -> Optional[str]:
    """``None`` when ``blif`` may be spliced as ``task``'s fragment, else
    a short cause string.

    The one validator for every fragment source (live replies, journal
    records, stored rows; DESIGN.md tabulates which source gets which
    strength).  The structural check always runs: the BLIF must parse,
    drive exactly the group's outputs and read only the cone's inputs —
    a fragment that fails it would break the splice.  ``engine`` adds
    the equivalence check against the cone
    (:func:`repro.network.verdict`): ``"bdd"`` (pass/fail) or
    ``"finegrain"``, which names the smallest failing cone and, with a
    ``journal``, journals it as a ``failing_cone`` event so the
    rejection stays diagnosable after the ladder has papered over it.
    """
    with obs.span(
        "check", gi=task.gi, engine=engine or "structural"
    ) as span_:
        return _check_fragment(task, blif, engine, journal, span_)


def _check_fragment(
    task: GroupTask,
    blif,
    engine: Optional[str],
    journal: Optional[RunJournal],
    span_,
) -> Optional[str]:
    if not isinstance(blif, str):
        return "corrupt_reply: no fragment BLIF"
    try:
        fragment = parse_blif(blif)
    except ValueError as exc:
        return f"corrupt_reply: {exc}"
    if sorted(fragment.output_names) != sorted(task.group):
        return "corrupt_reply: output set mismatch"
    cone = parse_blif(task.blif_text)
    if not set(fragment.inputs) <= set(cone.inputs):
        return "corrupt_reply: fragment reads unknown inputs"
    if engine is None:
        return None
    try:
        check = verdict(cone, fragment, engine)
    except ValueError as exc:
        return f"corrupt_reply: {exc}"
    _record_path(span_, check, cone)
    if check.failing is None:
        return None
    if journal is not None and check.cone is not None:
        journal.record_failing_cone(
            check.cone, gi=task.gi, group=list(task.group)
        )
    return f"nonequivalent_reply: {check.describe()}"


def _effective_task(
    task: GroupTask,
    policy: Optional[TaskPolicy],
    attempt: int,
    mode: Optional[str],
) -> GroupTask:
    """The task as actually attempted in-process: decayed budgets.

    Retries shrink every budget by :data:`BUDGET_DECAY` per attempt, and
    the pool timeout (if any) is mirrored as a cooperative time budget so
    an in-process hang is still bounded.  ``mode=None`` keeps the task's
    own mode (the common case); a ladder rung passes an explicit mode to
    re-run the task as a different strategy.  A trusted batch (no
    policy) runs the task as given.
    """
    if policy is None:
        return task
    options = task.options
    factor = BUDGET_DECAY ** attempt
    if attempt > 0:
        options = options.decayed(factor)
    if options.max_seconds is None and policy.timeout_seconds is not None:
        options = replace(options, max_seconds=policy.timeout_seconds * factor)
    return replace(
        task, options=options, attempt=attempt, mode=mode or task.mode
    )


def _failure_cause(exc: Exception, policy: TaskPolicy) -> str:
    """The ladder's cause string for an attempt that raised ``exc``.

    The prefix is the contract: ``timeout`` (counted in
    ``RunReport.timeouts``; the service recycles its pool on it),
    ``budget`` (a resource budget, including an exhausted exact search,
    which is a degradation rather than a crash) or ``crash``.
    """
    if isinstance(exc, multiprocessing.TimeoutError):
        return f"timeout: exceeded {policy.timeout_seconds:g}s wall clock"
    if isinstance(exc, BddBudgetExceeded):
        prefix = "timeout" if exc.kind == "seconds" else "budget"
        return f"{prefix}: {exc}"
    if type(exc).__name__ == "ExactBudgetExceeded":
        return f"budget: {exc}"
    return f"crash: {type(exc).__name__}: {exc}"


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


def graft_reply(parent, result: GroupResult, **attrs) -> None:
    """Graft ``result``'s span tree under the open span ``parent``.

    The tree is placed to end where the reply reached the batch, which
    is where an in-process run ended and a pooled one at most that late
    (never before ``parent`` opened).  ``attrs`` go on the tree's root.
    """
    recorder = obs.active()
    if recorder is None or not result.spans:
        return
    end = max(float(record["t1"]) for record in result.spans)
    offset = max(parent.start, result.received - end)
    for root in recorder.graft(result.spans, parent=parent, offset=offset):
        root.attrs.update(attrs)


def _stored_result(
    task: GroupTask, record: Dict[str, object], source: str
) -> GroupResult:
    """Rebuild a :class:`GroupResult` from a journal record or store row
    that :func:`check_fragment` accepted; ``source`` (``"replayed"`` or
    ``"cached"``) is flagged in its info."""
    info = dict(record.get("info") or {})
    info[source] = True
    try:
        seconds = float(record.get("seconds") or 0.0)
    except (TypeError, ValueError):
        seconds = 0.0
    return GroupResult(
        gi=task.gi, blif_text=record["blif"], info=info, seconds=seconds
    )


class _Batch:
    """One batch of tasks through lookup → dispatch → recover → land."""

    def __init__(
        self, tasks: List[GroupTask], ctx: RunContext, report: RunReport
    ):
        self.tasks = tasks
        self.ctx = ctx
        self.policy = ctx.policy
        self.report = report
        self.results: List[Optional[GroupResult]] = [None] * len(tasks)
        self.causes: List[List[str]] = [[] for _ in tasks]
        keyed = ctx.journal is not None or ctx.cache is not None
        self.keys = [task_key(task) if keyed else None for task in tasks]
        self.kill_after = getattr(ctx.faults, "parent_kill_after", None)

    def run(self) -> List[GroupResult]:
        """Every stage in order; returns the landed results in task order.

        With a journal (or the test-only parent-kill fault), SIGINT and
        SIGTERM stop the batch gracefully: the pool is torn down, the
        interruption is journaled, and ``report.interrupted`` is set.
        """
        ctx, report = self.ctx, self.report
        todo = [i for i in range(len(self.tasks)) if not self.lookup(i)]
        guard = (
            graceful_shutdown()
            if ctx.journal is not None or self.kill_after is not None
            else contextlib.nullcontext()
        )
        try:
            with guard:
                for i in self.dispatch(todo):
                    self.recover(i)
        except ShutdownRequested as exc:
            completed = sum(1 for r in self.results if r is not None)
            path = None
            if ctx.journal is not None:
                path = ctx.journal.path
                ctx.journal.record_interrupted(
                    exc.reason, completed=completed, total=len(self.tasks)
                )
            report.interrupted = RunInterrupted(
                exc.reason, completed, len(self.tasks), journal_path=path
            )
        report.fragments.sort(key=lambda f: f["gi"])
        final = [r for r in self.results if r is not None]
        merged = PerfCounters()
        for result in final:
            if result.perf:
                merged.merge_dict(result.perf)
        # Cache traffic is a parent-side fact (the store lives with the
        # dispatch loop, not the workers) but it belongs in the same
        # merged snapshot so `repro stats` and traces see one counter set.
        merged.cache_hits += report.cache_hits
        merged.cache_misses += report.cache_misses
        merged.cache_rejected += report.cache_rejected
        report.perf = merged.snapshot()
        # Each task ran in its own manager: the run's peak is the
        # largest of theirs, not their sum.
        report.perf["peak_nodes"] = max(
            (result.perf.get("peak_nodes", 0) for result in final),
            default=0,
        )
        return final

    def lookup(self, i: int) -> bool:
        """Stage 1: serve task ``i`` from the journal, then the store.

        A journal record must pass the structural check (the flow's
        finish step proves the whole network later, with an exact
        engine).  A stored row is never trusted blindly either: a row
        not yet stamped ``verified`` must also pass the equivalence
        check before its first reuse.  A row that fails is deleted so
        the task recomputes and overwrites it.
        """
        task, key = self.tasks[i], self.keys[i]
        ctx, report = self.ctx, self.report
        if ctx.journal is not None:
            record = ctx.journal.lookup(key)
            if record and check_fragment(task, record.get("blif")) is None:
                self.results[i] = _stored_result(task, record, "replayed")
                report.replayed += 1
                return True
        if ctx.cache is None:
            return False
        record = ctx.cache.get(key)
        if record is not None:
            engine = None if record["verified"] else self.policy.verify_mode
            cause = check_fragment(task, record["blif"], engine, ctx.journal)
            if cause is None:
                if engine is not None:
                    ctx.cache.mark_verified(key)
                hit = _stored_result(task, record, "cached")
                self.results[i] = hit
                report.cache_hits += 1
                report.fragments.append(
                    {
                        "gi": task.gi,
                        "group": list(task.group),
                        "key": key,
                        "cached": True,
                        "seconds": hit.seconds,
                        "blif": hit.blif_text,
                    }
                )
                return True
            ctx.cache.invalidate(key)
            report.cache_rejected += 1
            obs.event("cache_rejected", gi=task.gi, key=key, cause=cause)
            if ctx.journal is not None:
                ctx.journal.record_event(
                    "cache_rejected", gi=task.gi, key=key, cause=cause
                )
        report.cache_misses += 1
        return False

    def dispatch(self, todo: List[int]) -> List[int]:
        """Stage 2: run each remaining task once; returns the failures.

        A warm external pool is used whenever there is pooled work (its
        setup cost is already paid, and it is never terminated here).
        Otherwise ``jobs > 1`` forks a per-batch pool, unless the
        auto-serial estimate says the batch is too small to repay it.
        That estimate must not pre-empt policies that rely on the pool's
        *real* (parent-enforced) preemption: a wall-clock timeout or an
        injected fault can hang an in-process attempt that only a worker
        kill recovers.
        """
        ctx, report = self.ctx, self.report
        workers = min(ctx.jobs, len(todo)) if todo else 1
        pool, owns_pool = None, False
        if ctx.pool is not None and todo and ctx.jobs > 1:
            pool = ctx.pool
            report.details["warm_pool"] = True
        elif ctx.jobs > 1 and len(todo) > 1:
            serial = False
            if (
                self.policy is None or self.policy.timeout_seconds is None
            ) and all(task.inject is None for task in self.tasks):
                serial, decision = _auto_serial_decision(
                    [self.tasks[i] for i in todo], ctx.jobs
                )
                report.details["auto_serial"] = decision
                if serial:
                    report.pool_fallback = (
                        "auto_serial: estimated savings "
                        f"{decision['estimated_savings']:.3f}s below "
                        f"pool setup cost {_POOL_SETUP_SECONDS:g}s"
                    )
            if not serial:
                try:
                    pool, owns_pool = _make_pool(workers), True
                except (OSError, PermissionError, RuntimeError) as exc:
                    # No usable process pool (sandboxed /dev/shm, …).
                    report.pool_fallback = f"{type(exc).__name__}: {exc}"
        report.jobs_used = workers if pool is not None else 1

        failed: List[int] = []
        handles: Dict[int, object] = {}
        try:
            if pool is not None:
                handles = {
                    i: pool.apply_async(decompose_group_task, (self.tasks[i],))
                    for i in todo
                }
            for i in todo:
                result = self.attempt(i, handle=handles.get(i))
                if result is None:
                    failed.append(i)
                else:
                    self.land(i, result)
        finally:
            if owns_pool:
                # terminate, not close: a hung worker would block join
                # forever (and a shutdown request must not wait either).
                # An external pool is the caller's to recycle — a timeout
                # here may have left a hung worker, which report.timeouts
                # surfaces.
                pool.terminate()
                pool.join()
        return failed

    def attempt(
        self,
        i: int,
        attempt: int = 0,
        mode: Optional[str] = None,
        handle=None,
    ) -> Optional[GroupResult]:
        """One attempt at task ``i``: its pooled reply when ``handle`` is
        given, else an in-process run (budgets decayed per ``attempt``,
        optionally as another ``mode``).

        A governed batch returns ``None`` for an attempt that raised or
        whose reply :func:`check_fragment` rejected, and records the
        cause; a trusted batch lets the failure raise and splices the
        reply as it comes.
        """
        policy, task = self.policy, self.tasks[i]
        try:
            if handle is not None:
                result = handle.get(
                    timeout=policy.timeout_seconds if policy else None
                )
            else:
                result = decompose_group_task(
                    _effective_task(task, policy, attempt, mode)
                )
        except Exception as exc:  # noqa: BLE001 - the ladder owns recovery
            if policy is None:
                raise
            cause = _failure_cause(exc, policy)
        else:
            result.received = time.perf_counter()
            if policy is None:
                return result
            cause = check_fragment(
                task, result.blif_text, policy.verify_mode, self.ctx.journal
            )
            if cause is None:
                return result
        self.causes[i].append(cause)
        if cause.startswith("timeout"):
            self.report.timeouts += 1
        return None

    def recover(self, i: int) -> None:
        """Stage 3: walk failed task ``i`` down the degradation ladder.

        In-process from here on (the remaining work is recovery, not
        throughput): decayed retries, then the per-output rung for
        multi-output hyper tasks, then the structural remap — run without
        the task's fault spec, so it is immune to worker faults.  An
        exact variant that lost its budget race is *dropped*, never
        substituted: a structural stand-in labeled "exact" would defeat
        the point of an optimality oracle, and the portfolio reduce
        keeps the heuristic winner instead.
        """
        task = self.tasks[i]
        landed: Optional[GroupResult] = None
        resolution = "retry"
        attempt = 0
        for attempt in range(1, self.policy.retries + 1):
            self.report.retries += 1
            landed = self.attempt(i, attempt)
            if landed is not None:
                break
        if landed is None and task.mode == "hyper" and len(task.group) > 1:
            attempt += 1
            resolution = "per_output"
            landed = self.attempt(i, attempt, mode="per_output")
        if landed is None and task.mode == "exact":
            resolution = "dropped"
        elif landed is None:
            resolution = "structural"
            landed = decompose_group_task(
                replace(task, mode="structural", inject=None)
            )
            landed.received = time.perf_counter()
        self.report.degraded.append(
            {
                "gi": task.gi,
                "group": list(task.group),
                "causes": list(self.causes[i]),
                "resolution": resolution,
                "attempts": attempt + 1,
            }
        )
        if landed is not None:
            self.land(i, landed, resolution)

    def land(
        self, i: int, result: GroupResult, resolution: Optional[str] = None
    ) -> None:
        """Stage 4: accept a fragment — journal it, store it, then check
        for a shutdown request."""
        task, key = self.tasks[i], self.keys[i]
        ctx, report = self.ctx, self.report
        self.results[i] = result
        report.executed += 1
        if ctx.journal is not None:
            ctx.journal.record_group(
                key, task, result, result.seconds, resolution=resolution
            )
        if ctx.cache is not None:
            # Live replies already passed check_fragment, so the row is
            # born verified.  The cache is an accelerator: a write that
            # fails (disk full, cross-process lock) is counted and
            # skipped — it must never fail a request that already
            # computed its fragment.
            try:
                ctx.cache.put(
                    key,
                    result.blif_text,
                    info=result.info,
                    seconds=result.seconds,
                    verified=True,
                )
            except Exception as exc:  # noqa: BLE001 — any storage failure
                report.details["cache_write_errors"] = (
                    report.details.get("cache_write_errors", 0) + 1
                )
                obs.event(
                    "cache_write_error",
                    gi=task.gi,
                    key=key,
                    error=f"{type(exc).__name__}: {exc}",
                )
            report.fragments.append(
                {
                    "gi": task.gi,
                    "group": list(task.group),
                    "key": key,
                    "cached": False,
                    "seconds": result.seconds,
                    "blif": result.blif_text,
                    **({"resolution": resolution} if resolution else {}),
                }
            )
        if self.kill_after is not None and report.executed >= self.kill_after:
            raise ShutdownRequested("injected_parent_kill")


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
    tasks: List[GroupTask], ctx: RunContext, report: RunReport
) -> List[GroupResult]:
    """Race every strategy per group; keep the cost-model winner.

    Each group expands into one pure-strategy variant task per raced
    strategy; all variants run as one governed batch — the same budgets,
    timeouts, journal replay and cache the recovery ladder uses — and
    the candidates are then reduced per group under the task options'
    cost model (ties break toward the earlier strategy in
    :data:`PORTFOLIO_STRATEGIES`).  The winning fragment is returned
    under the group's original index; the full per-group scoreboard
    lands in ``report.details["portfolio"]``.  Every variant's span tree
    is grafted under the ``portfolio`` span, its root marked with the
    ``strategy`` and whether it ``won``; the winners go back without
    spans, so nothing grafts them twice.
    """
    variants: List[GroupTask] = []
    origin: List[Tuple[int, str]] = []
    strategies_of: List[List[str]] = []
    for ti, task in enumerate(tasks):
        strategies = _portfolio_strategies(task, ctx.policy)
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
    ) as pspan:
        vresults = _Batch(variants, ctx, report).run()

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
            final.append(replace(res, gi=task.gi, info=info, spans=[]))
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
        if pspan is not None:
            won = {(d["gi"], d["winner"]) for d in decisions}
            for res in vresults:
                ti, strategy = origin[res.gi]
                graft_reply(
                    pspan, res, strategy=strategy,
                    won=(tasks[ti].gi, strategy) in won,
                )
    return final


def run_group_tasks(
    tasks: Sequence[GroupTask], ctx: RunContext
) -> Tuple[List[GroupResult], RunReport]:
    """Execute group tasks under ``ctx``; returns ``(results, report)``.

    Results come back in task order.  A portfolio policy expands each
    task into its strategy variants and returns one winner per group;
    otherwise the tasks run as one staged batch (see the module
    docstring).  A governed batch returns one usable fragment per task —
    or fewer only when ``report.interrupted`` is set or an advisory exact
    variant was dropped.
    """
    tasks = list(tasks)
    report = RunReport()
    if ctx.policy is not None and ctx.policy.portfolio:
        return _run_portfolio(tasks, ctx, report), report
    return _Batch(tasks, ctx, report).run(), report
