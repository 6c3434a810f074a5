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
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..bdd import FALSE, TRUE
from ..decompose import DecompositionOptions, decompose_to_network
from ..network import (
    GlobalBdds,
    Network,
    check_equivalence,
    extract_cone,
    parse_blif,
    simulate_equivalence,
    to_blif,
)
from ..runstate import RunInterrupted, RunJournal
from .clb import pack_xc3000
from .lut import cleanup_for_lut_count, count_luts
from .parallel import GroupTask, TaskPolicy, build_group_fragment, run_group_tasks

__all__ = ["MapResult", "hyde_map", "cluster_outputs"]


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
        from ..network import node_depths

        depths = node_depths(self.network)
        return max(
            (depths[driver] for _, driver in self.network.outputs),
            default=0,
        )

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
    fast_path: str = "auto",
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

    ``verify`` is ``"bdd"`` (exact equivalence check), ``"sim"`` (random
    simulation screen) or ``"none"``.  Raises ``AssertionError`` when
    verification fails.  With ``fallback_per_output`` each ingredient
    group is also decomposed output-by-output and the cheaper variant is
    kept — extracting common sub-expressions only where sharing actually
    pays for the duplication cone.

    ``jobs > 1`` fans the ingredient groups out to a process pool (each
    worker decomposes its group's fan-in cone in a private manager; see
    :mod:`repro.mapping.parallel`).  ``fast_path`` selects the
    class-counting backend — ``"auto"`` (packed tables for narrow
    supports, BDD walks beyond), ``"bitpack"`` or ``"bdd"`` — the mapping
    is identical either way.  Counter and phase-time telemetry lands in
    ``MapResult.details["perf"]``.

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
    the interruption.  When a resumed run replayed anything, the spliced
    network passes a mandatory BDD equivalence gate against ``net``
    (regardless of ``verify``) and the journal records the verdict;
    ``details["journal"]`` reports the replayed/executed split.

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
    if portfolio:
        policy = replace(policy or TaskPolicy(), portfolio=True)
    gb = GlobalBdds(net)
    manager = gb.manager
    perf = manager.perf
    with perf.phase("bdd_build"), obs.span("bdd_build", manager=manager):
        output_bdds = {out: gb.of_output(out) for out in net.output_names}

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

    with perf.phase("cluster"), obs.span("cluster", manager=manager):
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
        fast_path=fast_path,
        max_bdd_nodes=max_bdd_nodes,
        max_seconds=max_seconds,
        cost_model=cost_model,
        exact_budget_seconds=exact_budget_seconds,
    )
    driver_of: Dict[str, str] = {}
    group_infos: List[Dict[str, object]] = []
    jobs_used = 1
    degraded: List[Dict[str, object]] = []
    pool_fallback: Optional[str] = None
    run_details: Dict[str, object] = {}

    # The task runner is the only path with timeouts / retries / fault /
    # journal hooks, so any of those routes through it even serially.
    use_tasks = (
        (jobs > 1 and len(groups) > 1)
        or policy is not None
        or bool(faults)
        or journal is not None
        or cache is not None
        or pool is not None
    )
    if verify == "finegrain" and use_tasks:
        # Fine-grained verification extends to reply validation: a
        # rejected worker reply then carries a cone-level cause (and the
        # journal, when present, a failing_cone event) instead of a bare
        # output name.  An explicit non-default verify_mode wins.
        if policy is None:
            policy = TaskPolicy(verify_mode="finegrain")
        elif policy.verify_mode == "bdd":
            policy = replace(policy, verify_mode="finegrain")
    run_report = None
    if use_tasks and groups:
        recorder = obs.active()
        tasks = []
        for gi, group in enumerate(groups):
            cone = extract_cone(net, group, name=f"{net.name}_g{gi}_cone")
            tasks.append(
                GroupTask(
                    blif_text=to_blif(cone),
                    group=list(group),
                    gi=gi,
                    options=options,
                    ingredient_policy=ingredient_policy,
                    ppi_placement=ppi_placement,
                    fallback_per_output=fallback_per_output,
                    base_name=f"{net.name}_g{gi}",
                    inject=faults.spec_for(gi) if faults else None,
                    trace=recorder is not None,
                )
            )
        with perf.phase("decompose"), obs.span(
            "decompose", manager=manager, groups=len(tasks), jobs=jobs
        ) as dspan:
            results, run_report = run_group_tasks(
                tasks,
                jobs,
                policy,
                journal=journal,
                shutdown_after=getattr(faults, "parent_kill_after", None),
                cache=cache,
                pool=pool,
            )
            if recorder is not None:
                # Worker span trees come back rebased to 0; anchor each at
                # the decompose span's start (perf_counter bases are
                # process-local, so relative placement is the best truth
                # available).
                for res in results:
                    if res.spans:
                        recorder.graft(
                            res.spans, parent=dspan, offset=dspan.start
                        )
        jobs_used = run_report.jobs_used
        degraded = run_report.degraded
        pool_fallback = run_report.pool_fallback
        run_details.update(run_report.details)
        if cache is not None:
            run_details["cache"] = {
                "hits": run_report.cache_hits,
                "misses": run_report.cache_misses,
                "rejected": run_report.cache_rejected,
            }
            run_details["fragments"] = run_report.fragments
            obs.event(
                "cache",
                hits=run_report.cache_hits,
                misses=run_report.cache_misses,
                rejected=run_report.cache_rejected,
            )
        if run_report.interrupted:
            # The journal already holds every completed group and the
            # interruption record; stop before the splice would fail on
            # missing drivers.
            obs.event(
                "interrupted",
                reason=run_report.interrupt_reason,
                completed=len(results),
                total=len(tasks),
            )
            raise RunInterrupted(
                run_report.interrupt_reason or "shutdown",
                completed=len(results),
                total=len(tasks),
                journal_path=run_report.journal_path,
            )
        if pool_fallback is not None:
            obs.event("pool_fallback", reason=pool_fallback)
        for entry in degraded:
            obs.event(
                "degraded",
                gi=entry.get("gi"),
                resolution=entry.get("resolution"),
                attempts=entry.get("attempts"),
                causes=entry.get("causes"),
            )
        # Worker counters cross the process boundary merged once in the
        # run report (the per-reply snapshots would double-count retries'
        # partial work only in `degraded`; the report merges final
        # replies only).
        perf.merge_dict(run_report.perf)
        with perf.phase("splice"), obs.span("splice", manager=manager):
            for res in results:
                fragment = parse_blif(res.blif_text)
                rename = _splice(result, fragment, f"g{res.gi}_")
                for out in groups[res.gi]:
                    driver_of[out] = rename[fragment.output_driver(out)]
                group_infos.append(res.info)
    else:
        options.arm_budget(manager)  # serial path: budget on our manager
        with perf.phase("decompose"), obs.span(
            "decompose", manager=manager, groups=len(groups), jobs=1
        ):
            for gi, group in enumerate(groups):
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

    with perf.phase("cleanup"), obs.span("cleanup", manager=manager):
        cleanup_for_lut_count(result)
    with perf.phase("verify"), obs.span("verify", manager=manager):
        _check(net, result, verify)
    journal_info = _resume_gate(
        net, result, journal, run_report, verify, perf
    )

    with perf.phase("cost"), obs.span("cost", manager=manager):
        luts = count_luts(result, k)
        clbs = pack_xc3000(result).num_clbs if pack_clbs else None
    perf_report = perf.snapshot(manager)
    perf_report["jobs_requested"] = jobs
    perf_report["jobs_used"] = jobs_used
    seconds = time.time() - start
    if journal is not None:
        journal.record_done(
            flow="hyde", lut_count=luts, clb_count=clbs,
            seconds=round(seconds, 6),
        )
    return MapResult(
        network=result,
        k=k,
        lut_count=luts,
        clb_count=clbs,
        seconds=seconds,
        groups=groups,
        flow="hyde",
        details={
            "group_infos": group_infos,
            "aliases": alias_of,
            "cost_model": cost_model,
            "perf": perf_report,
            "degraded": degraded,
            "pool_fallback": pool_fallback,
            "journal": journal_info,
            **run_details,
        },
    )


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


def _check(original: Network, mapped: Network, verify: str) -> None:
    if verify == "none":
        return
    if verify == "finegrain":
        # Cut-point engine: a failure names the smallest wrong cone and
        # a concrete counterexample, not just the output.
        from ..verify.finegrain import assert_finegrain

        assert_finegrain(original, mapped)
        return
    if verify == "sim":
        bad = simulate_equivalence(original, mapped)
    else:
        bad = check_equivalence(original, mapped)
    if bad is not None:
        raise AssertionError(
            f"mapping broke output {bad!r} of {original.name}"
        )


def _resume_gate(
    net: Network,
    result: Network,
    journal,
    run_report,
    verify: str,
    perf,
) -> Optional[Dict[str, object]]:
    """The resume verification contract, shared by the journaled flows.

    A run that replayed *anything* from a journal must prove the spliced
    network still computes ``net`` — with the exact BDD engine, even if
    the caller asked for ``verify="sim"``/``"none"`` — before it may be
    declared complete, and the journal records the verdict either way.
    Runs that executed everything fresh record their verdict from the
    ordinary ``verify`` step (which has already passed by the time this
    runs).  Returns the ``details["journal"]`` payload, or ``None`` when
    the flow has no journal.
    """
    if journal is None:
        return None
    replayed = run_report.replayed if run_report is not None else 0
    executed = run_report.executed if run_report is not None else 0
    if replayed > 0:
        if verify == "finegrain":
            # Still an exact gate (every output is BDD-proven), but a
            # failure is journaled with its cone and counterexample.
            from ..verify.finegrain import finegrain_check

            with perf.phase("resume_gate"), obs.span(
                "resume_gate", replayed=replayed
            ):
                fg = finegrain_check(net, result)
            detail = None
            if not fg.equivalent:
                worst = fg.failing_cones[0] if fg.failing_cones else None
                if worst is not None:
                    journal.record_event(
                        "failing_cone",
                        output=worst.output,
                        root=worst.root,
                        cone_nodes=list(worst.cone_nodes),
                        counterexample=dict(worst.counterexample),
                        confirmed=worst.confirmed,
                    )
                    detail = (
                        f"output {worst.output!r} differs; cone at "
                        f"{worst.root!r} ({len(worst.cone_nodes)} node(s))"
                    )
                else:
                    detail = (
                        f"outputs {sorted(fg.failing_outputs)} differ"
                    )
            journal.record_verdict(
                equivalent=fg.equivalent,
                replayed=replayed,
                executed=executed,
                engine="finegrain",
                detail=detail,
            )
            if not fg.equivalent:
                raise AssertionError(
                    f"resume gate: journal replay broke {net.name}: "
                    f"{detail} (journal {journal.path})"
                )
            return {
                "path": journal.path,
                "replayed": replayed,
                "executed": executed,
            }
        with perf.phase("resume_gate"), obs.span(
            "resume_gate", replayed=replayed
        ):
            bad = check_equivalence(net, result)
        journal.record_verdict(
            equivalent=bad is None,
            replayed=replayed,
            executed=executed,
            engine="bdd",
            detail=None if bad is None else f"output {bad!r} differs",
        )
        if bad is not None:
            raise AssertionError(
                f"resume gate: journal replay broke output {bad!r} of "
                f"{net.name} (journal {journal.path})"
            )
    else:
        journal.record_verdict(
            equivalent=True,
            replayed=0,
            executed=executed,
            engine=f"verify:{verify}",
        )
    return {
        "path": journal.path,
        "replayed": replayed,
        "executed": executed,
    }
