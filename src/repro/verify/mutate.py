"""Single-point fault injection for mapped networks, and the harness that
proves the fine-grained checker catches every injected fault.

A checker nobody has tried to fool is not a checker.  The mutation
taxonomy mirrors the ways a mapping bug actually corrupts a LUT network:

``flip_literal``
    One literal of one cube flips — the cube moves to the neighbouring
    minterm (a miswired AND-plane row).
``drop_cube``
    One on-set cube disappears (a lost product term).
``swap_inputs``
    Two LUT input pins are exchanged without re-permuting the truth
    table (the classic netlist hookup bug).
``stuck_output``
    The LUT output is tied to a constant (a stuck-at fault).

Every sampled mutation is *semantic at the node*: the local function is
guaranteed to change.  It may still be masked globally (the fault site
can be observably redundant), which is why :func:`self_validate` computes
the ground truth with the exact whole-network check
(:func:`~repro.network.check_equivalence`) and demands the
fine-grained checker agree with it exactly — detected faults must be
localized to a cone containing the mutated node with a counterexample
that simulation confirms, and masked faults must *not* raise alarms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..boolfunc import TruthTable
from ..network import Network, check_equivalence
from .finegrain import FinegrainReport, finegrain_check

__all__ = [
    "MUTATION_KINDS",
    "Mutation",
    "MutationReport",
    "apply_mutation",
    "sample_mutations",
    "self_validate",
]

MUTATION_KINDS = ("flip_literal", "drop_cube", "swap_inputs", "stuck_output")


@dataclass(frozen=True)
class Mutation:
    """One single-point fault: a node and the table that replaces it."""

    kind: str
    node: str
    detail: Tuple[int, ...] = ()

    def describe(self) -> str:
        if self.kind == "flip_literal":
            return (
                f"flip_literal at {self.node!r}: cube {self.detail[0]} "
                f"literal {self.detail[1]}"
            )
        if self.kind == "drop_cube":
            return f"drop_cube at {self.node!r}: cube {self.detail[0]}"
        if self.kind == "swap_inputs":
            return (
                f"swap_inputs at {self.node!r}: pins {self.detail[0]} "
                f"and {self.detail[1]}"
            )
        return f"stuck_output at {self.node!r}: stuck-at-{self.detail[0]}"


def _mutated_table(
    table: TruthTable, mutation: Mutation
) -> Optional[TruthTable]:
    """The node's table after the fault, or ``None`` when inapplicable."""
    n = table.num_inputs
    if mutation.kind == "flip_literal":
        minterm, pin = mutation.detail
        if not table.eval_index(minterm):
            return None
        moved = minterm ^ (1 << pin)
        mask = (table.mask & ~(1 << minterm)) | (1 << moved)
        return TruthTable(n, mask)
    if mutation.kind == "drop_cube":
        (minterm,) = mutation.detail
        if not table.eval_index(minterm):
            return None
        return TruthTable(n, table.mask & ~(1 << minterm))
    if mutation.kind == "swap_inputs":
        i, j = mutation.detail
        mask = 0
        for m in range(1 << n):
            bit_i, bit_j = (m >> i) & 1, (m >> j) & 1
            swapped = m & ~((1 << i) | (1 << j))
            swapped |= bit_j << i
            swapped |= bit_i << j
            if table.eval_index(m):
                mask |= 1 << swapped
        if mask == table.mask:
            return None  # symmetric in those pins: not a semantic fault
        return TruthTable(n, mask)
    if mutation.kind == "stuck_output":
        (value,) = mutation.detail
        stuck = TruthTable.constant(n, value)
        if stuck.mask == table.mask:
            return None
        return stuck
    raise ValueError(f"unknown mutation kind {mutation.kind!r}")


def apply_mutation(net: Network, mutation: Mutation) -> Network:
    """A copy of ``net`` with the fault injected (names preserved)."""
    node = net.node(mutation.node)
    table = _mutated_table(node.table, mutation)
    if table is None:
        raise ValueError(f"mutation not applicable: {mutation.describe()}")
    mutant = net.copy(f"{net.name}_mut")
    mutant.replace_node(mutation.node, list(node.fanins), table)
    return mutant


def sample_mutations(
    net: Network, count: int, seed: int = 0
) -> List[Mutation]:
    """``count`` random applicable single-point faults (with repetition of
    sites allowed, never of identical faults)."""
    rng = random.Random(seed)
    nodes = [
        node for node in net.nodes() if node.table.num_inputs >= 1
    ]
    if not nodes:
        raise ValueError(f"{net.name} has no mutable nodes")
    mutations: List[Mutation] = []
    seen = set()
    attempts = 0
    while len(mutations) < count and attempts < 200 * count:
        attempts += 1
        node = rng.choice(nodes)
        table = node.table
        n = table.num_inputs
        kind = rng.choice(MUTATION_KINDS)
        on_set = table.on_set()
        if kind == "flip_literal":
            if not on_set:
                continue
            detail = (rng.choice(on_set), rng.randrange(n))
        elif kind == "drop_cube":
            if not on_set:
                continue
            detail = (rng.choice(on_set),)
        elif kind == "swap_inputs":
            if n < 2:
                continue
            i, j = rng.sample(range(n), 2)
            detail = (min(i, j), max(i, j))
        else:
            detail = (rng.randrange(2),)
        mutation = Mutation(kind, node.name, detail)
        if mutation in seen or _mutated_table(table, mutation) is None:
            continue
        seen.add(mutation)
        mutations.append(mutation)
    if len(mutations) < count:
        raise ValueError(
            f"could only sample {len(mutations)}/{count} distinct "
            f"applicable mutations on {net.name}"
        )
    return mutations


@dataclass
class MutantOutcome:
    """Ground truth vs checker verdict for one injected fault."""

    mutation: Mutation
    masked: bool  # globally equivalent despite the local change
    detected: bool
    localized: bool  # reported cone contains the mutated node
    confirmed: bool  # counterexample reproduced the mismatch in simulation

    @property
    def ok(self) -> bool:
        if self.masked:
            return not self.detected  # no false alarm
        return self.detected and self.localized and self.confirmed


@dataclass
class MutationReport:
    """Aggregate result of one self-validation run."""

    network: str
    total: int = 0
    masked: int = 0
    detected: int = 0
    missed: int = 0
    mislocalized: int = 0
    unconfirmed: int = 0
    false_alarms: int = 0
    outcomes: List[MutantOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.missed == 0
            and self.mislocalized == 0
            and self.unconfirmed == 0
            and self.false_alarms == 0
        )

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return (
            f"mutation self-validation on {self.network}: {verdict} — "
            f"{self.total} mutant(s): {self.detected} detected, "
            f"{self.masked} masked, {self.missed} missed, "
            f"{self.mislocalized} mislocalized, "
            f"{self.unconfirmed} unconfirmed counterexample(s), "
            f"{self.false_alarms} false alarm(s)"
        )


def _validate_one(
    golden: Network,
    mutation: Mutation,
    num_vectors: int,
    seed: int,
) -> Tuple[MutantOutcome, FinegrainReport]:
    mutant = apply_mutation(golden, mutation)
    masked = check_equivalence(golden, mutant) is None
    report = finegrain_check(
        golden, mutant, num_vectors=num_vectors, seed=seed
    )
    detected = not report.equivalent
    localized = any(
        cone.root == mutation.node or mutation.node in cone.cone_nodes
        for cone in report.failing_cones
    )
    confirmed = bool(report.failing_cones) and all(
        cone.confirmed for cone in report.failing_cones
    )
    return (
        MutantOutcome(mutation, masked, detected, localized, confirmed),
        report,
    )


def self_validate(
    net: Network,
    num_mutants: int = 50,
    seed: int = 0,
    num_vectors: int = 64,
) -> MutationReport:
    """Prove the checker on ``num_mutants`` injected faults in ``net``.

    Ground truth per mutant comes from the exact whole-network check; the
    fine-grained checker must agree exactly, localize every real fault to
    a cone containing the mutated node, and back it with a
    simulation-confirmed counterexample.
    """
    mutations = sample_mutations(net, num_mutants, seed)
    report = MutationReport(network=net.name, total=len(mutations))
    for index, mutation in enumerate(mutations):
        outcome, _ = _validate_one(
            net, mutation, num_vectors, seed=seed + index
        )
        report.outcomes.append(outcome)
        if outcome.masked:
            if outcome.detected:
                report.false_alarms += 1
            else:
                report.masked += 1
            continue
        if not outcome.detected:
            report.missed += 1
            continue
        report.detected += 1
        if not outcome.localized:
            report.mislocalized += 1
        if not outcome.confirmed:
            report.unconfirmed += 1
    return report


def mutation_failures(report: MutationReport) -> List[str]:
    """Human-readable descriptions of every outcome that went wrong."""
    problems: List[str] = []
    for outcome in report.outcomes:
        if outcome.ok:
            continue
        what = outcome.mutation.describe()
        if outcome.masked and outcome.detected:
            problems.append(f"false alarm on masked fault: {what}")
        elif not outcome.detected:
            problems.append(f"missed: {what}")
        elif not outcome.localized:
            problems.append(f"mislocalized: {what}")
        else:
            problems.append(f"unconfirmed counterexample: {what}")
    return problems
