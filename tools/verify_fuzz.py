"""Nightly checker self-validation + metamorphic fuzz (`make verify-fuzz`).

Two gates, both over real mapped networks:

1. **Mutation self-validation** — inject ``VERIFY_MUTANTS`` (default
   200) single-point faults across hyde-mapped example circuits and
   seeded random networks; the fine-grained checker must detect every
   non-masked fault, localize it to a cone containing the mutated node,
   and back it with a simulation-confirmed counterexample — and must
   stay silent on masked faults.  The ground truth is the exact check,
   which takes the packed path up to 20 inputs; there every mutant is
   checked on the BDD path too, and the two must name the same failing
   output.
2. **Metamorphic fuzz** — ``VERIFY_FUZZ_SEEDS`` (default 12) seeded
   random networks through hyde and per-output flows under input
   permutation, node-order shuffling and output negation; every variant
   must map to an equivalent network.

Failures leave shrunk witnesses in ``verify_repros/`` (the checker's
XOR miters or the offending mutant) so a red nightly run is replayable
without rerunning the sweep.  Non-zero exit on any violation.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.circuits import CIRCUITS, build  # noqa: E402
from repro.mapping import hyde_map, map_per_output  # noqa: E402
from repro.network import (  # noqa: E402
    check_equivalence,
    exact_path,
    read_blif,
)
from repro.testing import save_repro  # noqa: E402
from repro.verify import (  # noqa: E402
    apply_mutation,
    metamorphic_check,
    mutation_failures,
    random_network,
    self_validate,
)

REPRO_DIR = os.environ.get("VERIFY_REPRO_DIR", "verify_repros")
TOTAL_MUTANTS = int(os.environ.get("VERIFY_MUTANTS", "200"))
FUZZ_SEEDS = int(os.environ.get("VERIFY_FUZZ_SEEDS", "12"))
EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def _subjects():
    """(name, source network) pairs to map and then mutate."""
    for entry in sorted(os.listdir(EXAMPLES)):
        if entry.endswith(".blif"):
            yield entry, read_blif(os.path.join(EXAMPLES, entry))
    for circuit in ("rd73", "5xp1", "misex2"):
        yield circuit, build(circuit)
    for seed in range(6):
        yield f"random{seed}", random_network(seed)


def path_disagreements(golden, report) -> list:
    """The report's mutants on which the packed and the BDD path of the
    exact check name different failing outputs (none over 20 inputs,
    where the ground truth already came from the BDD path)."""
    if exact_path(golden) != "packed":
        return []
    problems = []
    for outcome in report.outcomes:
        mutant = apply_mutation(golden, outcome.mutation)
        packed = check_equivalence(golden, mutant, "packed")
        bdd = check_equivalence(golden, mutant, "bdd")
        if packed != bdd:
            problems.append(
                f"exact paths disagree (packed {packed!r}, bdd {bdd!r}): "
                f"{outcome.mutation.describe()}"
            )
    return problems


def run_mutation_gate() -> int:
    subjects = list(_subjects())
    share, extra = divmod(TOTAL_MUTANTS, len(subjects))
    failures = 0
    total = detected = masked = 0
    for index, (name, source) in enumerate(subjects):
        mapped = hyde_map(
            source, k=4, verify="bdd", pack_clbs=False
        ).network
        count = share + (1 if index < extra else 0)
        if count == 0:
            continue
        report = self_validate(
            mapped, num_mutants=count, seed=1000 + index
        )
        total += report.total
        detected += report.detected
        masked += report.masked
        print(f"[mutation] {name}: {report.summary()}")
        problems = mutation_failures(report) + path_disagreements(
            mapped, report
        )
        if problems:
            failures += 1
            for problem in problems:
                print(f"  !! {problem}")
            save_repro(
                mapped,
                REPRO_DIR,
                f"mutation_{name}",
                note=(
                    f"checker self-validation failed on this mapped "
                    f"network (seed {1000 + index}):\n"
                    + "\n".join(problems)
                ),
            )
    print(
        f"[mutation] total: {total} mutant(s), {detected} detected, "
        f"{masked} masked, {failures} failing subject(s)"
    )
    return failures


def run_metamorphic_gate() -> int:
    flows = {
        "hyde": lambda n: hyde_map(
            n, k=4, verify="none", pack_clbs=False
        ).network,
        "per-output": lambda n: map_per_output(
            n, k=4, verify="none", pack_clbs=False
        ).network,
    }
    failures = 0
    for seed in range(FUZZ_SEEDS):
        source = random_network(seed)
        for flow_name, flow in flows.items():
            report = metamorphic_check(source, flow, seed=seed)
            if report.ok:
                continue
            failures += 1
            print(f"[metamorphic] {flow_name} on {source.name}: FAIL")
            print(f"  {report.summary()}")
            save_repro(
                source,
                REPRO_DIR,
                f"metamorphic_{source.name}_{flow_name}",
                note=(
                    f"metamorphic fuzz: flow {flow_name} violates an "
                    f"invariant on this source\n{report.summary()}"
                ),
            )
    print(
        f"[metamorphic] {FUZZ_SEEDS} seed(s) x {len(flows)} flow(s): "
        f"{failures} failure(s)"
    )
    return failures


def main() -> int:
    failures = run_mutation_gate()
    failures += run_metamorphic_gate()
    if failures:
        print(f"verify-fuzz: FAIL ({failures} gate violation(s))")
        return 1
    print("verify-fuzz: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
