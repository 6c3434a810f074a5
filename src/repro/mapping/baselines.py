"""Baseline mapping flows — the other columns of Tables 1 and 2.

All baselines share HYDE's substrate (same BDDs, same recursive
decomposition, same cleanup and CLB packer) and differ only in the policy
under test, so each comparison isolates one of the paper's claims:

* :func:`map_per_output` with ``encoding_policy="random"`` — per-output
  decomposition with a strict rigid random-draft encoding and no
  multiple-output sharing (the "[8] without resubstitution" column and
  the IMODEC-like single-output reference);
* :func:`map_per_output` + :func:`repro.mapping.resub.resubstitute` —
  the "[8] with resubstitution" column (support minimisation across
  outputs);
* :func:`map_column_encoding` — hyper-function with PPIs *pinned to the
  free set*, which Section 4.3 proves is exactly FGSyn's column encoding;
* :func:`map_shannon` — a Shannon-cofactor (BDD-to-MUX) mapper as a
  decomposition-free sanity baseline.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, Optional

from .. import obs
from ..bdd import FALSE, TRUE
from ..decompose import DecompositionOptions, decompose_to_network
from ..network import GlobalBdds, Network, extract_cone, parse_blif, to_blif
from ..runstate import RunInterrupted, RunJournal
from .clb import pack_xc3000
from .hyde import MapResult, _check, _resume_gate, _splice, hyde_map
from .lut import cleanup_for_lut_count, count_luts
from .parallel import GroupTask, TaskPolicy, run_group_tasks
from .resub import resubstitute

__all__ = [
    "map_per_output",
    "map_per_output_resub",
    "map_column_encoding",
    "map_shannon",
]


def map_per_output(
    net: Network,
    k: int = 5,
    encoding_policy: str = "random",
    use_dontcares: bool = True,
    verify: str = "bdd",
    pack_clbs: bool = True,
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
) -> MapResult:
    """Decompose every output independently (no hyper-function).

    ``jobs > 1`` decomposes the output cones in a process pool (each
    output is its own task; see :mod:`repro.mapping.parallel`).
    ``policy`` / ``faults`` / ``journal`` behave as in
    :func:`~repro.mapping.hyde.hyde_map`: any of them routes the outputs
    through the fault-tolerant task runner (even at ``jobs=1``);
    recovery shows up in ``details["degraded"]`` /
    ``details["pool_fallback"]``, and a journal adds checkpoint/resume
    with the same interruption and resume-gate contract.  ``cache`` /
    ``pool`` behave as in :func:`~repro.mapping.hyde.hyde_map`: a
    content-addressed result store serving revalidated fragments across
    runs, and an externally owned warm worker pool.
    """
    start = time.time()
    gb = GlobalBdds(net)
    manager = gb.manager
    perf = manager.perf
    options = DecompositionOptions(
        k=k,
        encoding_policy=encoding_policy,
        use_dontcares=use_dontcares,
        fast_path=fast_path,
        max_bdd_nodes=max_bdd_nodes,
        max_seconds=max_seconds,
        cost_model=cost_model,
    )
    result = Network(f"{net.name}_po_{encoding_policy}")
    for pi in net.inputs:
        result.add_input(pi)
    driver_of: Dict[str, str] = {}
    alias_of: Dict[str, str] = {}  # duplicate output -> representative
    seen: Dict[int, str] = {}
    unique: list = []  # (oi, out) pairs that actually need decomposing
    with perf.phase("bdd_build"), obs.span("bdd_build", manager=manager):
        for oi, out in enumerate(net.output_names):
            bdd = gb.of_output(out)
            if bdd in (FALSE, TRUE):
                name = result.fresh_name(f"{out}_const")
                result.add_constant(name, 1 if bdd == TRUE else 0)
                driver_of[out] = name
                continue
            rep = seen.get(bdd)
            if rep is not None:
                alias_of[out] = rep
                continue
            seen[bdd] = out
            unique.append((oi, out))
    jobs_used = 1
    degraded: list = []
    pool_fallback: Optional[str] = None
    use_tasks = (
        (jobs > 1 and len(unique) > 1)
        or policy is not None
        or bool(faults)
        or journal is not None
        or cache is not None
        or pool is not None
    )
    if verify == "finegrain" and use_tasks:
        # Mirror hyde_map: fine-grained verification upgrades reply
        # validation to the cut-point engine (explicit settings win).
        if policy is None:
            policy = TaskPolicy(verify_mode="finegrain")
        elif policy.verify_mode == "bdd":
            policy = replace(policy, verify_mode="finegrain")
    run_report = None
    if use_tasks and unique:
        recorder = obs.active()
        tasks = [
            GroupTask(
                blif_text=to_blif(
                    extract_cone(net, [out], name=f"{net.name}_o{oi}_cone")
                ),
                group=[out],
                gi=oi,
                options=options,
                fallback_per_output=False,
                base_name=f"{net.name}_o{oi}",
                inject=faults.spec_for(oi) if faults else None,
                trace=recorder is not None,
            )
            for oi, out in unique
        ]
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
                for res in results:
                    if res.spans:
                        recorder.graft(
                            res.spans, parent=dspan, offset=dspan.start
                        )
        jobs_used = run_report.jobs_used
        degraded = run_report.degraded
        pool_fallback = run_report.pool_fallback
        if run_report.interrupted:
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
        perf.merge_dict(run_report.perf)
        with perf.phase("splice"), obs.span("splice", manager=manager):
            for (oi, out), res in zip(unique, results):
                fragment = parse_blif(res.blif_text)
                rename = _splice(result, fragment, f"o{oi}_")
                driver_of[out] = rename[fragment.output_driver(out)]
    else:
        options.arm_budget(manager)  # serial path: budget on our manager
        with perf.phase("decompose"), obs.span(
            "decompose", manager=manager, groups=len(unique), jobs=1
        ):
            for oi, out in unique:
                with obs.span("group", manager=manager, gi=oi, outputs=1):
                    signal_of_level = {
                        manager.level_of(pi): pi for pi in net.inputs
                    }
                    driver_of[out] = decompose_to_network(
                        manager,
                        gb.of_output(out),
                        result,
                        signal_of_level,
                        options,
                        prefix=f"o{oi}",
                    )
    for out in net.output_names:
        driver = driver_of.get(out)
        if driver is None:
            driver = driver_of[alias_of[out]]
        result.add_output(driver, out)
    with perf.phase("cleanup"), obs.span("cleanup", manager=manager):
        cleanup_for_lut_count(result)
    with perf.phase("verify"), obs.span("verify", manager=manager):
        _check(net, result, verify)
    journal_info = _resume_gate(net, result, journal, run_report, verify, perf)
    perf_report = perf.snapshot(manager)
    perf_report["jobs_requested"] = jobs
    perf_report["jobs_used"] = jobs_used
    lut_count = count_luts(result, k)
    clb_count = pack_xc3000(result).num_clbs if pack_clbs else None
    seconds = time.time() - start
    if journal is not None:
        journal.record_done(
            flow=f"per-output/{encoding_policy}",
            lut_count=lut_count,
            clb_count=clb_count,
            seconds=round(seconds, 6),
        )
    extra_details: Dict[str, object] = {}
    if run_report is not None:
        extra_details.update(run_report.details)
        if cache is not None:
            extra_details["cache"] = {
                "hits": run_report.cache_hits,
                "misses": run_report.cache_misses,
                "rejected": run_report.cache_rejected,
            }
            extra_details["fragments"] = run_report.fragments
    return MapResult(
        network=result,
        k=k,
        lut_count=lut_count,
        clb_count=clb_count,
        seconds=seconds,
        groups=[[out] for out in net.output_names],
        flow=f"per-output/{encoding_policy}",
        details={
            "perf": perf_report,
            "degraded": degraded,
            "pool_fallback": pool_fallback,
            "journal": journal_info,
            **extra_details,
        },
    )


def map_per_output_resub(
    net: Network,
    k: int = 5,
    encoding_policy: str = "random",
    use_dontcares: bool = True,
    verify: str = "bdd",
    pack_clbs: bool = True,
    max_pis: int = 14,
    jobs: int = 1,
    fast_path: str = "auto",
    policy: Optional[TaskPolicy] = None,
    faults: Optional[object] = None,
    max_bdd_nodes: Optional[int] = None,
    journal: Optional[RunJournal] = None,
    cache=None,
    pool=None,
    cost_model: str = "area",
) -> MapResult:
    """Per-output decomposition followed by support-minimising resub."""
    start = time.time()
    base = map_per_output(
        net,
        k,
        encoding_policy=encoding_policy,
        use_dontcares=use_dontcares,
        verify="none",
        pack_clbs=False,
        jobs=jobs,
        cost_model=cost_model,
        fast_path=fast_path,
        policy=policy,
        faults=faults,
        max_bdd_nodes=max_bdd_nodes,
        journal=journal,
        cache=cache,
        pool=pool,
    )
    result = base.network
    rewrites = resubstitute(result, k, max_pis=max_pis)
    cleanup_for_lut_count(result)
    _check(net, result, verify)
    return MapResult(
        network=result,
        k=k,
        lut_count=count_luts(result, k),
        clb_count=pack_xc3000(result).num_clbs if pack_clbs else None,
        seconds=time.time() - start,
        groups=base.groups,
        flow=f"per-output+resub/{encoding_policy}",
        details={
            "rewrites": rewrites,
            "perf": base.details.get("perf"),
            "degraded": base.details.get("degraded", []),
            "pool_fallback": base.details.get("pool_fallback"),
            **{
                key: base.details[key]
                for key in ("cache", "fragments")
                if key in base.details
            },
        },
    )


def map_column_encoding(
    net: Network,
    k: int = 5,
    max_group: int = 4,
    verify: str = "bdd",
    pack_clbs: bool = True,
    jobs: int = 1,
    fast_path: str = "auto",
    policy: Optional[TaskPolicy] = None,
    faults: Optional[object] = None,
    max_bdd_nodes: Optional[int] = None,
    journal: Optional[RunJournal] = None,
    cache=None,
    pool=None,
    cost_model: str = "area",
) -> MapResult:
    """FGSyn-like column encoding: PPIs never enter a bound set."""
    result = hyde_map(
        net,
        k=k,
        max_group=max_group,
        ppi_placement="force_free",
        verify=verify,
        pack_clbs=pack_clbs,
        jobs=jobs,
        fast_path=fast_path,
        policy=policy,
        faults=faults,
        max_bdd_nodes=max_bdd_nodes,
        journal=journal,
        cache=cache,
        pool=pool,
        cost_model=cost_model,
    )
    result.flow = "column-encoding"
    return result


def map_shannon(
    net: Network,
    k: int = 5,
    verify: str = "bdd",
    pack_clbs: bool = True,
) -> MapResult:
    """BDD-to-MUX mapping: one 3-input mux LUT per shared BDD node."""
    from ..boolfunc import TruthTable

    start = time.time()
    gb = GlobalBdds(net)
    manager = gb.manager
    result = Network(f"{net.name}_shannon")
    for pi in net.inputs:
        result.add_input(pi)
    mux = TruthTable.from_function(3, lambda s, a, b: b if s else a)
    signal_of: Dict[int, str] = {}

    def build(bdd: int) -> str:
        cached = signal_of.get(bdd)
        if cached is not None:
            return cached
        if bdd in (FALSE, TRUE):
            name = result.fresh_name("const")
            result.add_constant(name, 1 if bdd == TRUE else 0)
            signal_of[bdd] = name
            return name
        var = manager.name_of(manager.level(bdd))
        lo = build(manager.low(bdd))
        hi = build(manager.high(bdd))
        name = result.fresh_name("mux")
        result.add_node(name, [var, lo, hi], mux)
        signal_of[bdd] = name
        return name

    for out in net.output_names:
        result.add_output(build(gb.of_output(out)), out)
    cleanup_for_lut_count(result)
    _check(net, result, verify)
    return MapResult(
        network=result,
        k=k,
        lut_count=count_luts(result, k),
        clb_count=pack_xc3000(result).num_clbs if pack_clbs else None,
        seconds=time.time() - start,
        flow="shannon",
    )
