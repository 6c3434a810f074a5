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
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .. import obs
from ..bdd import FALSE, TRUE, BddManager
from ..decompose import DecompositionOptions, decompose_to_network
from ..network import GlobalBdds, Network
from .hyde import MapResult, _finish, _map_by_tasks, _run_details, hyde_map
from .lut import cleanup_for_lut_count
from .resub import resubstitute

if TYPE_CHECKING:
    # Annotations only: the serial flows here never load the task runner.
    from ..runstate import RunJournal
    from .parallel import RunReport, TaskPolicy

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
    with the same interruption and verdict contract.  ``cache`` /
    ``pool`` behave as in :func:`~repro.mapping.hyde.hyde_map`: a
    content-addressed result store serving revalidated fragments across
    runs, and an externally owned warm worker pool.
    """
    start = time.time()
    result, manager, run_report = _decompose_outputs(
        net, k, encoding_policy, use_dontcares, max_bdd_nodes, max_seconds,
        cost_model,
        dict(
            jobs=jobs, policy=policy, faults=faults, journal=journal,
            cache=cache, pool=pool, verify=verify,
        ),
    )
    return _finish(
        net, result, k, f"per-output/{encoding_policy}", start, verify,
        pack_clbs, manager, journal, run_report,
        [[out] for out in net.output_names],
        _run_details(manager, jobs, run_report, cache),
    )


def _decompose_outputs(
    net: Network,
    k: int,
    encoding_policy: str,
    use_dontcares: bool,
    max_bdd_nodes: Optional[int],
    max_seconds: Optional[float],
    cost_model: str,
    run_args: Dict[str, object],
) -> Tuple[Network, BddManager, Optional[RunReport]]:
    """The network of :func:`map_per_output` before its finish step:
    every distinct non-constant output decomposed on its own, through
    the task runner when ``run_args`` ask for it.  Returns the network,
    the manager and the run report (``None`` on the serial path)."""
    gb = GlobalBdds(net)
    manager = gb.manager
    options = DecompositionOptions(
        k=k,
        encoding_policy=encoding_policy,
        use_dontcares=use_dontcares,
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
    with obs.span("bdd_build", manager=manager):
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
    run = _map_by_tasks(
        net, result, manager, [(oi, [out]) for oi, out in unique], "o",
        options, driver_of, run_args, fallback_per_output=False,
    )
    run_report = None
    if run is not None:
        run_report, _ = run
    else:
        options.arm_budget(manager)  # serial path: budget on our manager
        with obs.span(
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
    return result, manager, run_report


def map_per_output_resub(
    net: Network,
    k: int = 5,
    encoding_policy: str = "random",
    use_dontcares: bool = True,
    verify: str = "bdd",
    pack_clbs: bool = True,
    max_pis: int = 14,
    jobs: int = 1,
    policy: Optional[TaskPolicy] = None,
    faults: Optional[object] = None,
    max_bdd_nodes: Optional[int] = None,
    journal: Optional[RunJournal] = None,
    cache=None,
    pool=None,
    cost_model: str = "area",
) -> MapResult:
    """Per-output decomposition followed by support-minimising resub.

    The run arguments behave as in :func:`map_per_output`; the one
    check, verdict and ``done`` record describe the network after
    resubstitution.
    """
    start = time.time()
    result, manager, run_report = _decompose_outputs(
        net, k, encoding_policy, use_dontcares, max_bdd_nodes, None,
        cost_model,
        dict(
            jobs=jobs, policy=policy, faults=faults, journal=journal,
            cache=cache, pool=pool, verify=verify,
        ),
    )
    cleanup_for_lut_count(result)
    rewrites = resubstitute(result, k, max_pis=max_pis)
    return _finish(
        net, result, k, f"per-output+resub/{encoding_policy}", start, verify,
        pack_clbs, manager, journal, run_report,
        [[out] for out in net.output_names],
        {"rewrites": rewrites, **_run_details(manager, jobs, run_report, cache)},
    )


def map_column_encoding(
    net: Network,
    k: int = 5,
    max_group: int = 4,
    verify: str = "bdd",
    pack_clbs: bool = True,
    jobs: int = 1,
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
    for out in net.output_names:
        result.add_output(
            _mux_signal(manager, result, mux, signal_of, gb.of_output(out)),
            out,
        )
    return _finish(net, result, k, "shannon", start, verify, pack_clbs)


def _mux_signal(
    manager, result: Network, mux, signal_of: Dict[int, str], bdd: int
) -> str:
    """The mux-tree signal of ``bdd`` in ``result`` (memoized)."""
    cached = signal_of.get(bdd)
    if cached is not None:
        return cached
    if bdd in (FALSE, TRUE):
        name = result.fresh_name("const")
        result.add_constant(name, 1 if bdd == TRUE else 0)
        signal_of[bdd] = name
        return name
    var = manager.name_of(manager.level(bdd))
    lo = _mux_signal(manager, result, mux, signal_of, manager.low(bdd))
    hi = _mux_signal(manager, result, mux, signal_of, manager.high(bdd))
    name = result.fresh_name("mux")
    result.add_node(name, [var, lo, hi], mux)
    signal_of[bdd] = name
    return name
