"""Technology-independent common-sublogic extraction via hyper-functions.

The paper's conclusion proposes using hyper-function decomposition
"to identify common sub-logic in the technology-independent optimization
phase of logic synthesis".  This module implements that idea: a
restructuring pass (not a mapper) that folds groups of outputs into
hyper-functions, decomposes once, and rewrites the network so the
extracted decomposition functions become explicit shared nodes feeding
per-output image logic.

Unlike :func:`repro.mapping.hyde.hyde_map`, no LUT size drives the
process — ``k`` here only bounds how large an extracted sub-function may
grow — and the output network is *not* required to be k-feasible; it is
simply a re-factored, sharing-maximised version of the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..decompose import DecompositionOptions
from ..hyper import decompose_hyper_function
from ..network import GlobalBdds, Network, verdict
from .hyde import _splice, cluster_outputs
from .lut import cleanup_for_lut_count

__all__ = ["ExtractionReport", "extract_common_sublogic"]


@dataclass
class ExtractionReport:
    """What the extraction pass did."""

    network: Network
    groups: List[List[str]]
    shared_nodes_per_group: List[int] = field(default_factory=list)
    total_nodes_before: int = 0
    total_nodes_after: int = 0


def extract_common_sublogic(
    net: Network,
    k: int = 8,
    max_group: int = 4,
    verify: bool = True,
) -> ExtractionReport:
    """Rewrite ``net`` extracting sub-logic shared between outputs.

    Groups outputs by support similarity, hyper-decomposes each group and
    splices the recovered (shared-node) fragments into a fresh network.
    The result computes the same outputs; shared decomposition functions
    appear once instead of being re-derived per output.
    """
    gb = GlobalBdds(net)
    manager = gb.manager
    bdds = {out: gb.of_output(out) for out in net.output_names}
    supports = {
        out: [manager.name_of(lv) for lv in manager.support(bdd)]
        for out, bdd in bdds.items()
    }
    nonconstant = [o for o in net.output_names if supports[o]]
    groups = cluster_outputs(
        {o: supports[o] for o in nonconstant}, max_group
    )

    result = Network(f"{net.name}_ti")
    for pi in net.inputs:
        result.add_input(pi)

    shared_counts: List[int] = []
    driver_of: Dict[str, str] = {}
    options = DecompositionOptions(k=k, encoding_policy="chart")
    for gi, group in enumerate(groups):
        group_inputs = sorted(
            {pi for o in group for pi in supports[o]},
            key=net.inputs.index,
        )
        hres = decompose_hyper_function(
            manager,
            [(o, bdds[o]) for o in group],
            group_inputs,
            options,
            network_name=f"{net.name}_ti{gi}",
        )
        shared_counts.append(hres.shared_nodes)
        rename = _splice(result, hres.recovered, f"t{gi}_")
        for out in group:
            driver_of[out] = rename[hres.recovered.output_driver(out)]
    for out in net.output_names:
        if out in driver_of:
            result.add_output(driver_of[out], out)
        else:
            # Constant output.
            from ..bdd import TRUE
            const = result.fresh_name(f"{out}_const")
            result.add_constant(const, 1 if bdds[out] == TRUE else 0)
            result.add_output(const, out)

    cleanup_for_lut_count(result)
    if verify:
        bad = verdict(net, result).failing
        if bad is not None:
            raise AssertionError(f"extraction broke output {bad!r}")

    return ExtractionReport(
        network=result,
        groups=groups,
        shared_nodes_per_group=shared_counts,
        total_nodes_before=net.num_nodes,
        total_nodes_after=result.num_nodes,
    )
