"""End-to-end hyper-function decomposition (paper Section 4.2).

Drives the single-output recursive decomposition over a hyper-function and
then recovers the ingredients by duplicating only the duplication cone —
the complete "multiple-output decomposition reduced to single-output
decomposition" pipeline of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..bdd import BddManager
from ..decompose import DecompositionOptions, DecompositionTrace, decompose_to_network
from ..network import Network, sweep
from .duplication import DuplicationInfo, analyze_duplication, recover_ingredients
from .hyperfunction import HyperFunction, build_hyper_function

__all__ = ["HyperDecompositionResult", "decompose_hyper_function"]


@dataclass
class HyperDecompositionResult:
    """Everything produced while decomposing one ingredient group."""

    hyper: HyperFunction
    hyper_network: Network  # over PIs + PPIs; H's LUT structure
    hyper_output: str
    duplication: DuplicationInfo
    recovered: Network  # over PIs only; one output per ingredient
    trace: DecompositionTrace

    @property
    def shared_nodes(self) -> int:
        """Nodes outside the duplication cone (shared by all ingredients)."""
        return len(
            set(self.hyper_network.node_names())
            - self.duplication.duplication_cone
        )


def decompose_hyper_function(
    manager: BddManager,
    ingredients: Sequence[Tuple[str, int]],
    input_names: Sequence[str],
    options: DecompositionOptions,
    ingredient_policy: str = "chart",
    ppi_placement: str = "prefer_free",
    network_name: str = "hyper",
) -> HyperDecompositionResult:
    """Fold, decompose and recover a group of output functions.

    Parameters
    ----------
    ingredients:
        (output name, on-BDD) pairs over ``manager``.
    input_names:
        Names of the original variables (must be declared in ``manager`` at
        levels matching their position).
    ingredient_policy:
        ``"chart"`` or ``"random"`` PPI code selection.
    ppi_placement:
        ``"prefer_free"`` — HYDE's Section 4.3 preference (PPIs stay free
        when costs tie); ``"force_free"`` — PPIs never enter a bound set
        (this degenerates to the column encoding of FGSyn [4]);
        ``"unrestricted"`` — no steering at all.
    """
    hyper = build_hyper_function(
        manager,
        ingredients,
        options.k,
        policy=ingredient_policy,
        preferred_free_ppis=(ppi_placement != "unrestricted"),
        fast_path=options.fast_path,
        benefit_weights=options.cost.encoder_weights(),
    )

    net = Network(network_name)
    signal_of_level: Dict[int, str] = {}
    for name in input_names:
        net.add_input(name)
        signal_of_level[manager.level_of(name)] = name
    ppi_signals = []
    for lv in hyper.ppi_levels:
        ppi_name = manager.name_of(lv)
        net.add_input(ppi_name)
        signal_of_level[lv] = ppi_name
        ppi_signals.append(ppi_name)

    step_options = replace(
        options,
        forbidden_bound_levels=(
            tuple(hyper.ppi_levels)
            if ppi_placement == "force_free"
            else options.forbidden_bound_levels
        ),
        preferred_free_levels=(
            tuple(hyper.ppi_levels)
            if ppi_placement == "prefer_free"
            else options.preferred_free_levels
        ),
    )

    trace = DecompositionTrace()
    root = decompose_to_network(
        manager,
        hyper.on,
        net,
        signal_of_level,
        step_options,
        dc=hyper.dc,
        prefix="h",
        trace=trace,
    )
    net.add_output(root, "H")

    duplication = analyze_duplication(net, ppi_signals)
    codes_by_signal = [
        {ppi_signals[a]: bit for a, bit in code.items()}
        for code in hyper.codes
    ]
    recovered = recover_ingredients(
        net,
        root,
        ppi_signals,
        codes_by_signal,
        hyper.ingredient_names,
    )
    return HyperDecompositionResult(
        hyper=hyper,
        hyper_network=net,
        hyper_output=root,
        duplication=duplication,
        recovered=recovered,
        trace=trace,
    )
