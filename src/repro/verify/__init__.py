"""Fine-grained verification subsystem.

Three layers beside the whole-network equivalence check
(:func:`repro.network.verdict`):

* :mod:`~repro.verify.finegrain` — cut-point based equivalence checking
  that localizes a mismatch to the smallest non-equivalent cone and
  produces a concrete, simulation-confirmed counterexample; it is
  ``verdict``'s ``finegrain`` engine, so the flows' finish step, the
  fragment validator and ``repro verify --finegrain`` all reach it
  through that one dispatch;
* :mod:`~repro.verify.mutate` — single-point fault injection plus the
  self-validation harness proving the checker catches what it claims to;
* :mod:`~repro.verify.generators` / :mod:`~repro.verify.properties` —
  seed-stamped random generation and metamorphic invariants shared by
  the fuzz suites.
"""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, globals(), {
    "finegrain": (
        "CutPoint",
        "FailingCone",
        "FinegrainReport",
        "build_miter",
        "finegrain_check",
        "miter_satisfiable",
    ),
    "generators": (
        "SEED_ENV",
        "clear_seed_log",
        "random_multi_output",
        "random_network",
        "resolve_seed",
        "seed_log",
    ),
    "mutate": (
        "MUTATION_KINDS",
        "Mutation",
        "MutationReport",
        "apply_mutation",
        "mutation_failures",
        "sample_mutations",
        "self_validate",
    ),
    "properties": (
        "MetamorphicReport",
        "TRANSFORMS",
        "metamorphic_check",
        "negate_outputs",
        "permute_inputs",
        "shuffle_nodes",
        "validate_repro",
    ),
})

__all__ = [
    "CutPoint",
    "FailingCone",
    "FinegrainReport",
    "MUTATION_KINDS",
    "MetamorphicReport",
    "Mutation",
    "MutationReport",
    "SEED_ENV",
    "TRANSFORMS",
    "apply_mutation",
    "build_miter",
    "clear_seed_log",
    "finegrain_check",
    "miter_satisfiable",
    "metamorphic_check",
    "mutation_failures",
    "negate_outputs",
    "permute_inputs",
    "random_multi_output",
    "random_network",
    "resolve_seed",
    "sample_mutations",
    "seed_log",
    "self_validate",
    "shuffle_nodes",
    "validate_repro",
]
