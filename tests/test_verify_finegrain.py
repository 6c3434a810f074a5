"""The fine-grained checker: pairing, localization, counterexamples."""

from __future__ import annotations

import pytest

from repro.boolfunc import TruthTable
from repro.mapping import hyde_map, map_per_output
from repro.network import EquivalenceError, Network, check_equivalence, verdict
from repro.verify import (
    Mutation,
    apply_mutation,
    build_miter,
    finegrain_check,
    miter_satisfiable,
    random_network,
)
from repro.verify.finegrain import DEFAULT_VECTORS


def _mapped(seed: int, flow=hyde_map):
    source = random_network(seed)
    return source, flow(source, k=4, verify="none", pack_clbs=False).network


def test_equivalent_mapping_passes():
    source, mapped = _mapped(2)
    report = finegrain_check(source, mapped)
    assert report.equivalent
    assert not report.failing_outputs and not report.failing_cones
    assert report.outputs == source.output_names
    assert report.num_vectors == DEFAULT_VECTORS


def test_cutpoints_are_real_equivalences():
    """Every reported cut-point must hold as a monolithic equivalence."""
    from repro.network import GlobalBdds

    source, mapped = _mapped(4)
    report = finegrain_check(source, mapped)
    assert report.proven == len(report.cutpoints) > 0
    ga = GlobalBdds(source)
    padded = mapped.copy()
    for pi in source.inputs:
        if not padded.has_signal(pi):
            padded.add_input(pi)
    gm = GlobalBdds(padded, pi_order=source.inputs, manager=ga.manager)
    for cp in report.cutpoints:
        golden_bdd = ga.of(cp.golden)
        mapped_bdd = gm.of(cp.mapped)
        if cp.negated:
            mapped_bdd = ga.manager.apply_not(mapped_bdd)
        assert golden_bdd == mapped_bdd, cp


@pytest.mark.parametrize("seed", [1, 3, 6])
def test_single_fault_localized_with_confirmed_counterexample(seed):
    source, mapped = _mapped(seed)
    mutation = None
    from repro.verify import sample_mutations

    for candidate in sample_mutations(mapped, 10, seed=seed):
        mutant = apply_mutation(mapped, candidate)
        if check_equivalence(mapped, mutant) is not None:
            mutation = candidate
            break
    assert mutation is not None, "could not find an unmasked fault"
    mutant = apply_mutation(mapped, mutation)
    report = finegrain_check(mapped, mutant, seed=seed)
    assert not report.equivalent
    assert report.failing_cones
    for cone in report.failing_cones:
        # Localized: the blamed cone contains the mutated node.
        assert (
            cone.root == mutation.node or mutation.node in cone.cone_nodes
        )
        # Counterexample is a full PI assignment and simulation-confirmed.
        assert set(cone.counterexample) == set(mapped.inputs)
        assert cone.confirmed
        assert cone.golden_value != cone.mapped_value


def test_interface_mismatches_raise():
    source, mapped = _mapped(2)
    extra = mapped.copy()
    extra.add_input("alien_pi")
    extra_node = extra.add_node(
        "alien", [extra.inputs[0], "alien_pi"], TruthTable(2, 0b1000)
    )
    extra.reroute_output(extra.output_names[0], extra_node)
    with pytest.raises(ValueError):
        finegrain_check(source, extra)

    renamed = Network("renamed")
    for pi in source.inputs:
        renamed.add_input(pi)
    renamed.add_node("n", [source.inputs[0]], TruthTable(1, 0b10))
    renamed.add_output("n", "not_an_output")
    with pytest.raises(ValueError):
        finegrain_check(source, renamed)


def test_vacuous_inputs_are_padded():
    """A mapped network that dropped unused PIs still checks cleanly."""
    source = Network("vac")
    for j in range(3):
        source.add_input(f"i{j}")
    source.add_node("n", ["i0"], TruthTable(1, 0b10))
    source.add_output("n", "o")
    mapped = Network("vac_m")
    mapped.add_input("i0")  # i1/i2 dropped as vacuous
    mapped.add_node("m", ["i0"], TruthTable(1, 0b10))
    mapped.add_output("m", "o")
    report = finegrain_check(source, mapped)
    assert report.equivalent


def test_finish_step_raises_with_the_cone():
    """A result that fails the flows' finish step under ``finegrain``
    raises EquivalenceError, an AssertionError, naming the cone."""
    from repro.mapping.hyde import _finish
    from repro.mapping.lut import cleanup_for_lut_count

    source, mapped = _mapped(5, flow=map_per_output)
    assert verdict(source, mapped, "finegrain").failing is None
    mutant = apply_mutation(
        mapped, Mutation("stuck_output", mapped.node_names()[0], (0,))
    )
    if check_equivalence(mapped, mutant) is None:
        mutant = apply_mutation(
            mapped, Mutation("stuck_output", mapped.node_names()[0], (1,))
        )
    # The step checks the cleaned-up network; predict its verdict.
    cleaned = mutant.copy()
    cleanup_for_lut_count(cleaned)
    expected = verdict(mapped, cleaned, "finegrain")
    assert not expected.report.equivalent and expected.cone is not None

    with pytest.raises(EquivalenceError) as excinfo:
        _finish(mapped, mutant, 4, "test", 0.0, "finegrain", False)
    assert isinstance(excinfo.value, AssertionError)
    assert expected.cone.describe() in str(excinfo.value)
    assert "cone at" in str(excinfo.value)


def test_miter_is_satisfiable_exactly_on_difference():
    source, mapped = _mapped(3)
    out = source.output_names[0]
    clean = build_miter(source, mapped, out)
    assert not miter_satisfiable(clean)
    from repro.verify import sample_mutations

    for candidate in sample_mutations(mapped, 10, seed=7):
        mutant = apply_mutation(mapped, candidate)
        bad_out = check_equivalence(mapped, mutant)
        if bad_out is not None:
            dirty = build_miter(mapped, mutant, bad_out)
            assert miter_satisfiable(dirty)
            return
    pytest.fail("no unmasked mutant found")
