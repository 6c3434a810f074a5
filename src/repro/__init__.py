"""HYDE reproduction: compatible class encoding in hyper-function
decomposition for LUT-based FPGA synthesis (Jiang, Jou, Huang — DAC 1998).

Layering (each package documented in DESIGN.md):

* :mod:`repro.bdd` — from-scratch ROBDD engine.
* :mod:`repro.boolfunc` — truth tables and NPN canonical forms.
* :mod:`repro.network` — Boolean networks, BLIF I/O, simulation,
  equivalence checking.
* :mod:`repro.decompose` — Roth-Karp decomposition with the paper's
  compatible class encoding (Section 3).
* :mod:`repro.hyper` — hyper-function decomposition (Section 4).
* :mod:`repro.mapping` — the HYDE flow, baselines, LUT/CLB costing.
* :mod:`repro.circuits` — benchmark circuits and the paper's examples.
* :mod:`repro.harness` — experiment runner and paper-data comparison.

Quick start::

    from repro.circuits import build
    from repro.mapping import hyde_map

    result = hyde_map(build("rd84"), k=5)
    print(result.lut_count, result.clb_count)
"""

from ._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, globals(), {
    "bdd": ("BddManager",),
    "boolfunc": ("TruthTable",),
    "decompose": (
        "DecompositionOptions", "decompose_step", "decompose_to_network",
    ),
    "hyper": ("build_hyper_function", "decompose_hyper_function"),
    "mapping": (
        "MapResult",
        "hyde_map",
        "map_column_encoding",
        "map_per_output",
        "map_per_output_resub",
        "map_shannon",
    ),
    "network": ("Network", "check_equivalence"),
})

__version__ = "1.0.0"

__all__ = [
    "BddManager",
    "TruthTable",
    "Network",
    "check_equivalence",
    "DecompositionOptions",
    "decompose_step",
    "decompose_to_network",
    "build_hyper_function",
    "decompose_hyper_function",
    "MapResult",
    "hyde_map",
    "map_per_output",
    "map_per_output_resub",
    "map_column_encoding",
    "map_shannon",
    "__version__",
]
