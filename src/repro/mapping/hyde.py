"""HYDE — the paper's complete technology-mapping flow.

Pipeline (mirroring Section 5's experimental setup):

1. build global BDDs of every primary output,
2. deduplicate functionally identical outputs,
3. cluster the remaining outputs into ingredient groups by support
   similarity,
4. fold each group into a hyper-function (chart-encoded PPI codes),
   decompose it recursively with compatible class encoding, and recover
   the ingredients by duplicating only the duplication cone,
5. splice the per-group fragments into one network, clean it up
   (sweep / dedup / inverter absorption — the xl_cover role) and cost it
   in k-LUTs and XC3000 CLBs.

Baselines (Tables 1 and 2's other columns) live in
:mod:`repro.mapping.baselines` and reuse the same machinery with
different policies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..bdd import FALSE, TRUE, BddManager
from ..decompose import DecompositionOptions, decompose_to_network
from ..hyper import decompose_hyper_function
from ..network import (
    EquivalenceError,
    GlobalBdds,
    Network,
    Verdict,
    extract_cone,
    node_depths,
    parse_blif,
    to_blif,
    verdict,
)
from .clb import pack_xc3000
from .lut import cleanup_for_lut_count, count_luts

if TYPE_CHECKING:
    from ..runstate import RunJournal
    from .parallel import RunReport, TaskPolicy

__all__ = ["MapResult", "hyde_map", "cluster_outputs"]

#: The serial loop compacts its manager after a group once the node
#: arrays have grown to this many times their size after the last
#: compaction, so the copying stays linear in the nodes allocated.
_COMPACT_GROWTH = 2


def run_group_tasks(*args, **kwargs):
    """:func:`repro.mapping.parallel.run_group_tasks`, imported on the
    first call: a plain serial run never loads the governed task runner
    (nor ``multiprocessing`` and the journal with it)."""
    from .parallel import run_group_tasks as run

    return run(*args, **kwargs)


@dataclass
class MapResult:
    """Outcome of a mapping flow run."""

    network: Network
    k: int
    lut_count: int
    clb_count: Optional[int]
    seconds: float
    groups: List[List[str]] = field(default_factory=list)
    flow: str = "hyde"
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def depth(self) -> int:
        """LUT levels from inputs to the deepest output."""
        return _network_depth(self.network)

    def __str__(self) -> str:
        clb = f", {self.clb_count} CLBs" if self.clb_count is not None else ""
        return (
            f"{self.flow}: {self.lut_count} LUTs{clb}, depth {self.depth}, "
            f"{self.seconds:.2f}s"
        )


def cluster_outputs(
    supports: Dict[str, List[str]], max_group: int
) -> List[List[str]]:
    """Greedy support-similarity clustering of output names.

    Seeds each group with the widest unclustered output, then absorbs the
    most-similar outputs (Jaccard on supports, requiring a non-empty
    intersection) up to ``max_group`` members.
    """
    remaining = sorted(
        supports, key=lambda o: (-len(supports[o]), o)
    )
    groups: List[List[str]] = []
    while remaining:
        seed = remaining.pop(0)
        group = [seed]
        seed_support = set(supports[seed])
        while len(group) < max_group and remaining:
            best = None
            best_score = 0.0
            for cand in remaining:
                cs = set(supports[cand])
                inter = len(seed_support & cs)
                if inter == 0:
                    continue
                score = inter / len(seed_support | cs)
                if score > best_score:
                    best_score = score
                    best = cand
            if best is None:
                break
            group.append(best)
            remaining.remove(best)
            seed_support |= set(supports[best])
        groups.append(group)
    return groups


def _network_depth(net: Network) -> int:
    """LUT levels from inputs to the deepest primary output."""
    depths = node_depths(net)
    return max((depths[driver] for _, driver in net.outputs), default=0)


def per_output_fragment(
    manager: BddManager,
    ingredients: Sequence[Tuple[str, int]],
    group_inputs: Sequence[str],
    options: DecompositionOptions,
    name: str,
) -> Network:
    """Decompose a group output-by-output into a standalone fragment."""
    frag = Network(name)
    for pi in group_inputs:
        frag.add_input(pi)
    for oi, (out, bdd) in enumerate(ingredients):
        signal_of_level = {manager.level_of(pi): pi for pi in group_inputs}
        root = decompose_to_network(
            manager, bdd, frag, signal_of_level, options, prefix=f"p{oi}"
        )
        frag.add_output(root, out)
    return frag


def build_group_fragment(
    manager: BddManager,
    output_bdds: Dict[str, int],
    group: Sequence[str],
    group_inputs: Sequence[str],
    options: DecompositionOptions,
    ingredient_policy: str = "chart",
    ppi_placement: str = "prefer_free",
    fallback_per_output: bool = True,
    base_name: str = "group",
) -> Tuple[Network, Dict[str, object]]:
    """Map one ingredient group to a standalone k-feasible fragment.

    This is the per-group body of the HYDE flow, shared verbatim by the
    serial loop and the pool workers: hyper-function decomposition for
    multi-output groups (with the optional per-output fallback), plain
    recursive decomposition for singleton groups.  The fragment's inputs
    are ``group_inputs`` and its outputs are named after ``group``.
    """
    ingredients = [(out, output_bdds[out]) for out in group]
    if len(group) == 1:
        fragment = per_output_fragment(
            manager, ingredients, group_inputs, options, f"{base_name}_po"
        )
        cleanup_for_lut_count(fragment)
        return fragment, {"outputs": list(group), "hyper": False}

    hres = decompose_hyper_function(
        manager,
        ingredients,
        group_inputs,
        options,
        ingredient_policy=ingredient_policy,
        ppi_placement=ppi_placement,
        network_name=base_name,
    )
    fragment = hres.recovered
    cleanup_for_lut_count(fragment)
    info: Dict[str, object] = {
        "outputs": list(group),
        "hyper": True,
        "ppi_count": hres.hyper.num_ppis,
        "shared_nodes": hres.shared_nodes,
        "cone_nodes": len(hres.duplication.duplication_cone),
    }
    if fallback_per_output:
        alt = per_output_fragment(
            manager, ingredients, group_inputs, options, f"{base_name}_po"
        )
        cleanup_for_lut_count(alt)
        cost = options.cost
        hyper_luts = count_luts(fragment, options.k)
        per_output_luts = count_luts(alt, options.k)
        info["hyper_luts"] = hyper_luts
        info["per_output_luts"] = per_output_luts
        if cost.is_area:
            # Historical objective verbatim: the per-output variant wins
            # only with strictly fewer LUTs (ties keep hyper).
            choose_alt = per_output_luts < hyper_luts
        else:
            hyper_depth = _network_depth(fragment)
            alt_depth = _network_depth(alt)
            info["hyper_depth"] = hyper_depth
            info["per_output_depth"] = alt_depth
            choose_alt = cost.fragment_key(
                per_output_luts, alt_depth
            ) < cost.fragment_key(hyper_luts, hyper_depth)
        if choose_alt:
            fragment = alt
            info["hyper"] = False
    return fragment, info


def hyde_map(
    net: Network,
    k: int = 5,
    max_group: int = 4,
    encoding_policy: str = "chart",
    ingredient_policy: str = "chart",
    ppi_placement: str = "prefer_free",
    use_dontcares: bool = True,
    verify: str = "bdd",
    pack_clbs: bool = True,
    fallback_per_output: bool = True,
    jobs: int = 1,
    policy: Optional[TaskPolicy] = None,
    faults: Optional[object] = None,
    max_bdd_nodes: Optional[int] = None,
    max_seconds: Optional[float] = None,
    journal: Optional[RunJournal] = None,
    cache=None,
    pool=None,
    cost_model: str = "area",
    portfolio: bool = False,
    exact_budget_seconds: Optional[float] = None,
) -> MapResult:
    """Map ``net`` to k-LUTs with the full HYDE flow.

    ``verify`` names the engine of the whole-network check
    (:func:`repro.network.verdict`): ``"bdd"`` (exact), ``"sim"`` (random
    simulation screen), ``"finegrain"`` (exact, and a failure names its
    cone) or ``"none"``.  A failed check raises
    :class:`~repro.network.EquivalenceError`, an ``AssertionError``.
    With ``fallback_per_output`` each ingredient group is also
    decomposed output-by-output and the cheaper variant is kept —
    extracting common sub-expressions only where sharing actually pays
    for the duplication cone.

    ``jobs > 1`` fans the ingredient groups out to a process pool (each
    worker decomposes its group's fan-in cone in a private manager; see
    :mod:`repro.mapping.parallel`).  Work counters land in
    ``MapResult.details["perf"]``; phase times come from the ``obs``
    spans the flow opens (:func:`repro.obs.phase_seconds`) when a
    recorder is installed.

    ``policy`` (a :class:`~repro.mapping.parallel.TaskPolicy`) turns on
    fault tolerance: per-group timeouts, reply validation and the
    degradation ladder.  Groups that needed recovery are listed in
    ``details["degraded"]``; a refused process pool lands in
    ``details["pool_fallback"]``.  ``faults`` (a
    :class:`~repro.testing.FaultPlan`) injects deterministic failures at
    selected groups — test/CLI machinery for exercising those paths.
    Either argument routes the flow through the task runner even at
    ``jobs=1``; with both left ``None`` the serial path is untouched.

    ``max_bdd_nodes`` / ``max_seconds`` put a resource budget on each
    decomposition manager: blowing it raises
    :class:`~repro.bdd.BddBudgetExceeded` — which the task runner turns
    into a ladder step when a ``policy`` is set, and which propagates to
    the caller (instead of grinding forever) when one is not.

    ``journal`` (a :class:`~repro.runstate.RunJournal`) makes the run
    crash-safe and resumable: each group's fragment is journaled as it
    lands, already-journaled groups replay by content-addressed key
    instead of re-executing, and a SIGINT/SIGTERM mid-run raises
    :class:`~repro.runstate.RunInterrupted` *after* the journal recorded
    the interruption.  When a resumed run replayed anything, its check
    is exact even under ``verify="sim"`` or ``"none"`` (see
    :func:`_finish`), and the journal records the verdict and metrics
    of the network the flow returns; ``details["journal"]`` reports the
    replayed/executed split.

    ``cache`` (a :class:`~repro.service.ResultStore`) memoizes group
    fragments across runs by the journal's content-addressed task key —
    repeat mappings of the same cones are served from SQLite after
    revalidation instead of re-decomposed, with the hit/miss/reject
    split in ``details["cache"]`` and per-fragment serving records in
    ``details["fragments"]``.  ``pool`` is an externally owned warm
    worker pool (see :class:`~repro.service.WarmPool`) reused across
    calls instead of a per-call pool.  Either routes the flow through
    the governed task runner.

    ``cost_model`` selects the mapping objective — ``"area"`` (LUT
    count, the historical default), ``"delay"`` (logic levels first) or
    ``"weighted[:AW,DW]"`` (see :mod:`repro.decompose.cost`) — threaded
    through bound-set selection, the chart encoder's merge benefit and
    every fragment comparison.  ``portfolio`` races hyper / per-output /
    column-encoding / structural per ingredient group under the governed
    runner and keeps each group's winner under the active cost model;
    the per-group scoreboard lands in ``details["portfolio"]``.
    ``exact_budget_seconds`` bounds each :mod:`repro.exact` search when
    the policy's strategies include the optional ``"exact"`` rung —
    a search that exhausts it is dropped (the heuristic winner stands
    and the scoreboard records ``"budget_exceeded"``), never wrong.
    """
    start = time.time()
    gb = GlobalBdds(net)
    manager = gb.manager
    with obs.span("bdd_build", manager=manager):
        output_bdds = {out: gb.of_output(out) for out in net.output_names}
    # Its per-signal memo would hold ids that compaction invalidates.
    del gb

    # Deduplicate identical output functions; constants are split off.
    canonical: Dict[int, str] = {}
    alias_of: Dict[str, str] = {}
    const_outputs: Dict[str, int] = {}
    unique_outputs: List[str] = []
    for out, bdd in output_bdds.items():
        if bdd in (FALSE, TRUE):
            const_outputs[out] = 1 if bdd == TRUE else 0
            continue
        rep = canonical.get(bdd)
        if rep is None:
            canonical[bdd] = out
            unique_outputs.append(out)
        else:
            alias_of[out] = rep

    with obs.span("cluster", manager=manager):
        supports = {
            out: [
                manager.name_of(lv)
                for lv in manager.support(output_bdds[out])
            ]
            for out in unique_outputs
        }
        groups = cluster_outputs(supports, max_group)

    result = Network(f"{net.name}_hyde")
    for pi in net.inputs:
        result.add_input(pi)

    options = DecompositionOptions(
        k=k,
        encoding_policy=encoding_policy,
        use_dontcares=use_dontcares,
        max_bdd_nodes=max_bdd_nodes,
        max_seconds=max_seconds,
        cost_model=cost_model,
        exact_budget_seconds=exact_budget_seconds,
    )
    driver_of: Dict[str, str] = {}
    group_infos: List[Dict[str, object]] = []
    run = _map_by_tasks(
        net, result, manager, list(enumerate(groups)), "g", options,
        driver_of,
        dict(
            jobs=jobs, policy=policy, faults=faults, journal=journal,
            cache=cache, pool=pool, portfolio=portfolio, verify=verify,
        ),
        ingredient_policy=ingredient_policy,
        ppi_placement=ppi_placement,
        fallback_per_output=fallback_per_output,
    )
    run_report = None
    if run is not None:
        run_report, group_infos = run
    else:
        options.arm_budget(manager)  # serial path: budget on our manager
        kept = manager.num_nodes
        with obs.span(
            "decompose", manager=manager, groups=len(groups), jobs=1
        ):
            for gi, group in enumerate(groups):
                if gi and manager.num_nodes >= _COMPACT_GROWTH * kept:
                    # Finished groups leave nodes nothing reaches again.
                    with obs.span("compact", manager=manager):
                        remap = manager.compact(output_bdds.values())
                    output_bdds = {
                        out: remap[bdd] for out, bdd in output_bdds.items()
                    }
                    kept = manager.num_nodes
                with obs.span(
                    "group", manager=manager, gi=gi, outputs=len(group)
                ):
                    if len(group) == 1:
                        out = group[0]
                        signal_of_level = {
                            manager.level_of(pi): pi for pi in net.inputs
                        }
                        root = decompose_to_network(
                            manager,
                            output_bdds[out],
                            result,
                            signal_of_level,
                            options,
                            prefix=f"g{gi}",
                        )
                        driver_of[out] = root
                        group_infos.append(
                            {"outputs": group, "hyper": False}
                        )
                        continue

                    group_inputs = sorted(
                        {pi for out in group for pi in supports[out]},
                        key=net.inputs.index,
                    )
                    fragment, info = build_group_fragment(
                        manager,
                        output_bdds,
                        group,
                        group_inputs,
                        options,
                        ingredient_policy=ingredient_policy,
                        ppi_placement=ppi_placement,
                        fallback_per_output=fallback_per_output,
                        base_name=f"{net.name}_g{gi}",
                    )
                    rename = _splice(result, fragment, f"g{gi}_")
                    for out in group:
                        driver_of[out] = rename[fragment.output_driver(out)]
                    group_infos.append(info)

    for out, value in const_outputs.items():
        name = result.fresh_name(f"{out}_const")
        result.add_constant(name, value)
        driver_of[out] = name
    for out in net.output_names:
        driver = driver_of.get(out)
        if driver is None:
            driver = driver_of[alias_of[out]]
        result.add_output(driver, out)

    return _finish(
        net, result, k, "hyde", start, verify, pack_clbs, manager, journal,
        run_report, groups,
        {
            "group_infos": group_infos,
            "aliases": alias_of,
            "cost_model": cost_model,
            **_run_details(manager, jobs, run_report, cache),
        },
    )


def _map_by_tasks(
    net: Network,
    result: Network,
    manager: BddManager,
    units: Sequence[Tuple[int, List[str]]],
    prefix: str,
    options: DecompositionOptions,
    driver_of: Dict[str, str],
    run_args: Dict[str, object],
    **task_fields,
) -> Optional[Tuple[RunReport, List[Dict[str, object]]]]:
    """The governed block :func:`hyde_map` and
    :func:`~repro.mapping.baselines.map_per_output` share: map ``units``
    through the task runner and splice the fragments into ``result``.

    ``units`` are ``(gi, outputs)`` pairs; each becomes one
    :class:`~repro.mapping.parallel.GroupTask` over its standalone cone,
    named ``{prefix}{gi}`` (``task_fields`` set the rest).  ``run_args``
    are the flow's run arguments — ``jobs``, ``policy``, ``faults``,
    ``journal``, ``cache``, ``pool``, ``verify`` and, for hyde,
    ``portfolio`` — for :func:`~repro.mapping.parallel.run_context`.
    Each output's driver lands in ``driver_of``.

    Returns ``(report, infos)``, or ``None`` without doing anything when
    no run argument asks for the runner, which alone has timeout, retry,
    fault, journal, store and pool hooks: the flow then runs its serial
    in-manager loop.  Raises :class:`~repro.runstate.RunInterrupted`,
    with the counts the journal recorded, after a shutdown request.
    """
    jobs = run_args["jobs"]
    if not units or not (
        (jobs > 1 and len(units) > 1)
        or run_args.get("portfolio")
        or run_args["faults"]
        or any(
            run_args[name] is not None
            for name in ("policy", "journal", "cache", "pool")
        )
    ):
        return None
    perf = manager.perf
    recorder = obs.active()
    with obs.span(
        "decompose", manager=manager, groups=len(units), jobs=jobs
    ) as dspan:
        # Loading the runner and cutting the cones is part of the
        # decomposition's cost, not time outside every span.
        with obs.span("tasks", groups=len(units)):
            from .parallel import GroupTask, graft_reply, run_context

            ctx = run_context(**run_args)
            tasks = [
                GroupTask(
                    blif_text=to_blif(extract_cone(
                        net, group, name=f"{net.name}_{prefix}{gi}_cone"
                    )),
                    group=list(group),
                    gi=gi,
                    options=options,
                    base_name=f"{net.name}_{prefix}{gi}",
                    inject=ctx.faults.spec_for(gi) if ctx.faults else None,
                    trace=recorder is not None,
                    **task_fields,
                )
                for gi, group in units
            ]
        results, report = run_group_tasks(tasks, ctx)
        if recorder is not None:
            # Worker span trees come back rebased to 0 (perf_counter
            # bases are process-local); each is anchored where its
            # reply landed.
            for res in results:
                graft_reply(dspan, res)
    if ctx.cache is not None:
        obs.event(
            "cache",
            hits=report.cache_hits,
            misses=report.cache_misses,
            rejected=report.cache_rejected,
        )
    stop = report.interrupted
    if stop is not None:
        # The journal already holds every completed task and the
        # interruption record; stop before the splice would fail on
        # missing drivers.
        obs.event(
            "interrupted",
            reason=stop.reason,
            completed=stop.completed,
            total=stop.total,
        )
        raise stop
    if report.pool_fallback is not None:
        obs.event("pool_fallback", reason=report.pool_fallback)
    for entry in report.degraded:
        obs.event(
            "degraded",
            gi=entry.get("gi"),
            resolution=entry.get("resolution"),
            attempts=entry.get("attempts"),
            causes=entry.get("causes"),
        )
    # Worker counters cross the process boundary merged once, in the run
    # report (final replies only).
    perf.merge_dict(report.perf)
    outputs_of = dict(units)
    infos: List[Dict[str, object]] = []
    with obs.span("splice", manager=manager):
        for res in results:
            fragment = parse_blif(res.blif_text)
            rename = _splice(result, fragment, f"{prefix}{res.gi}_")
            for out in outputs_of[res.gi]:
                driver_of[out] = rename[fragment.output_driver(out)]
            infos.append(res.info)
    return report, infos


def _run_details(
    manager: BddManager, jobs: int, report: Optional[RunReport], cache
) -> Dict[str, object]:
    """A run's work counters and run report in ``MapResult.details``
    (``report`` is ``None`` when the flow took its serial in-manager
    path).  The engine block's ``peak_nodes`` is the larger of this
    manager's peak and the task managers'."""
    perf = manager.perf.snapshot(manager)
    perf["jobs_requested"] = jobs
    perf["jobs_used"] = report.jobs_used if report else 1
    if report is None:
        return {"perf": perf, "degraded": [], "pool_fallback": None}
    engine = perf["engine"]
    engine["peak_nodes"] = max(
        engine["peak_nodes"], report.perf.get("peak_nodes", 0)
    )
    details: Dict[str, object] = {
        "perf": perf,
        "degraded": report.degraded,
        "pool_fallback": report.pool_fallback,
        **report.details,
    }
    if cache is not None:
        details["cache"] = {
            "hits": report.cache_hits,
            "misses": report.cache_misses,
            "rejected": report.cache_rejected,
        }
        details["fragments"] = report.fragments
    return details


def _splice(dest: Network, fragment: Network, prefix: str) -> Dict[str, str]:
    """Copy a fragment's internal nodes into ``dest`` with renaming.

    Fragment PIs must already exist in ``dest`` under the same names.
    Returns the old-name -> new-name map (identity for PIs).
    """
    rename: Dict[str, str] = {pi: pi for pi in fragment.inputs}
    for name in fragment.topological_order():
        node = fragment.node(name)
        new_name = prefix + name
        while dest.has_signal(new_name):
            new_name += "_"
        dest.add_node(
            new_name, [rename[fi] for fi in node.fanins], node.table
        )
        rename[name] = new_name
    return rename


def _record_path(span_, check: Verdict, golden: Network) -> None:
    """Name the exact path ``check`` took and the interface width on an
    open span (``None`` while tracing is off)."""
    if span_ is not None and check.path is not None:
        span_.attrs.update(path=check.path, width=len(golden.inputs))


def _finish(
    net: Network,
    result: Network,
    k: int,
    flow: str,
    start: float,
    verify: str,
    pack_clbs: bool,
    manager: Optional[BddManager] = None,
    journal: Optional[RunJournal] = None,
    run_report: Optional[RunReport] = None,
    groups: Optional[List[List[str]]] = None,
    details: Optional[Dict[str, object]] = None,
) -> MapResult:
    """The finish step every mapping flow ends with: clean ``result``
    up, check it against ``net``, cost it, and journal the outcome.

    The whole-network check runs once, with engine ``verify``.  A run
    that replayed anything from its journal spliced fragments that only
    the structural check has vetted, so ``"sim"`` and ``"none"`` are
    raised to ``"bdd"`` there.  With a ``journal`` the step writes one
    ``verdict`` record naming the engine that ran (``"none"`` when none
    did), a ``failing_cone`` event when ``finegrain`` localized a
    failure, and, once the check has passed, the ``done`` record with
    this network's metrics.  With no check the verdict is journaled as
    unchecked (``equivalent`` null).  A failure raises
    :class:`~repro.network.EquivalenceError` after it is journaled.
    """
    with obs.span("cleanup", manager=manager):
        cleanup_for_lut_count(result)
    replayed = run_report.replayed if run_report is not None else 0
    executed = run_report.executed if run_report is not None else 0
    engine = "bdd" if replayed and verify in ("sim", "none") else verify
    check = Verdict(None)
    with obs.span("verify", manager=manager) as span_:
        if engine != "none":
            check = verdict(net, result, engine)
            _record_path(span_, check, net)
    journal_info = None
    if journal is not None:
        if check.cone is not None:
            journal.record_failing_cone(check.cone)
        journal.record_verdict(
            equivalent=None if engine == "none" else check.failing is None,
            replayed=replayed,
            executed=executed,
            engine=engine,
            detail=None if check.failing is None else check.describe(),
        )
        journal_info = {
            "path": journal.path,
            "replayed": replayed,
            "executed": executed,
        }
    if check.failing is not None:
        raise EquivalenceError(
            f"{result.name} is not equivalent to {net.name}: "
            f"{check.describe()}"
            + (f" (journal {journal.path})" if journal is not None else "")
        )
    with obs.span("cost", manager=manager):
        luts = count_luts(result, k)
        clbs = pack_xc3000(result).num_clbs if pack_clbs else None
    seconds = time.time() - start
    if journal is not None:
        journal.record_done(
            flow=flow, lut_count=luts, clb_count=clbs,
            seconds=round(seconds, 6),
        )
    return MapResult(
        network=result,
        k=k,
        lut_count=luts,
        clb_count=clbs,
        seconds=seconds,
        groups=groups or [],
        flow=flow,
        details={**(details or {}), "journal": journal_info},
    )
