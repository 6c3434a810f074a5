"""Time-multiplexed reconfigurable mapping (the paper's Conclusions).

"Another possibility of application is the time-multiplexed
reconfigurable computing.  For time-multiplexed functions, we can combine
them together as a hyper-function.  After decomposition, we don't have to
duplicate the duplication cone at all.  Instead, we can use the pseudo
primary inputs to recover the time-multiplexed functions."

:func:`map_time_multiplexed` folds a set of *contexts* (single-output
functions over shared data inputs) into one hyper-function, decomposes it
to k-LUTs **keeping the PPIs as physical mode wires**, and returns the
single network plus the per-context mode codes.  Zero duplication is paid
— the mode wires select the behaviour cycle by cycle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..bdd import BddManager
from ..decompose import DecompositionOptions, decompose_to_network
from ..hyper import analyze_duplication, build_hyper_function
from ..network import Network
from .clb import pack_xc3000
from .lut import cleanup_for_lut_count, count_luts

__all__ = ["TimeMultiplexResult", "map_time_multiplexed"]


@dataclass
class TimeMultiplexResult:
    """A time-multiplexed implementation of several contexts."""

    network: Network  # inputs: data wires + mode wires; one output "y"
    mode_wires: List[str]
    context_codes: Dict[str, Dict[str, int]]  # context -> mode wire -> bit
    lut_count: int
    clb_count: int
    spatial_duplication_avoided: int  # cone nodes a spatial mapping copies
    seconds: float

    def mode_assignment(self, context: str) -> Dict[str, int]:
        """The mode-wire values that select ``context``."""
        return dict(self.context_codes[context])


def map_time_multiplexed(
    manager: BddManager,
    contexts: Sequence[Tuple[str, int]],
    input_names: Sequence[str],
    k: int = 5,
    encoding_policy: str = "chart",
    verify: bool = True,
) -> TimeMultiplexResult:
    """Build one k-LUT network computing any of the ``contexts``.

    ``contexts`` are (name, on-BDD) pairs over ``manager``;
    ``input_names`` are the shared data inputs (manager variables).
    """
    start = time.time()
    hyper = build_hyper_function(manager, contexts, k)

    net = Network("time_multiplexed")
    signal_of_level: Dict[int, str] = {}
    for name in input_names:
        net.add_input(name)
        signal_of_level[manager.level_of(name)] = name
    mode_wires: List[str] = []
    for i, lv in enumerate(hyper.ppi_levels):
        wire = f"mode{i}"
        net.add_input(wire)
        signal_of_level[lv] = wire
        mode_wires.append(wire)

    options = DecompositionOptions(k=k, encoding_policy=encoding_policy)
    root = decompose_to_network(
        manager, hyper.on, net, signal_of_level, options, dc=hyper.dc
    )
    net.add_output(root, "y")
    cleanup_for_lut_count(net)

    info = analyze_duplication(net, mode_wires)
    context_codes = {
        name: {mode_wires[a]: bit for a, bit in code.items()}
        for name, code in zip(hyper.ingredient_names, hyper.codes)
    }

    if verify:
        _verify_contexts(manager, net, contexts, input_names, context_codes)

    return TimeMultiplexResult(
        network=net,
        mode_wires=mode_wires,
        context_codes=context_codes,
        lut_count=count_luts(net, k),
        clb_count=pack_xc3000(net).num_clbs,
        spatial_duplication_avoided=len(info.duplication_cone),
        seconds=time.time() - start,
    )


def _verify_contexts(
    manager: BddManager,
    net: Network,
    contexts: Sequence[Tuple[str, int]],
    input_names: Sequence[str],
    context_codes: Dict[str, Dict[str, int]],
) -> None:
    """Exact check: specialising the mode wires recovers each context."""
    from ..network import GlobalBdds, propagate_constant_inputs

    for name, bdd in contexts:
        spec = propagate_constant_inputs(net, context_codes[name])
        gb = GlobalBdds(spec, pi_order=list(input_names), manager=manager)
        got = gb.of_output("y")
        if got != bdd:
            raise AssertionError(
                f"context {name!r} not recovered by its mode code"
            )
