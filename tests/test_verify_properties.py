"""Generators, metamorphic invariants, the repro validator, and the
verify wiring into the task runner / resume gate / CLI."""

from __future__ import annotations

import os

import pytest

from repro.mapping import hyde_map, map_per_output
from repro.network import check_equivalence
from repro.verify import (
    metamorphic_check,
    negate_outputs,
    permute_inputs,
    random_network,
    shuffle_nodes,
    validate_repro,
)


# --------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------- #


def test_random_network_matches_historical_corpus():
    """The consolidated generator is bit-identical to the old inline one
    (changing it would invalidate every historical repro seed)."""
    from repro.circuits.synthetic import layered_network, windowed_network
    from repro.network import to_blif

    for seed in range(6):
        if seed % 2 == 0:
            legacy = layered_network(
                f"fuzz{seed}",
                num_inputs=6 + seed % 3,
                num_outputs=3 + seed % 2,
                nodes_per_layer=4,
                num_layers=2 + seed % 2,
                fanin=3 + seed % 3,
                seed=seed,
            )
        else:
            legacy = windowed_network(
                f"fuzz{seed}",
                num_inputs=7 + seed % 3,
                num_outputs=3 + seed % 3,
                window=5,
                seed=seed,
            )
        assert to_blif(random_network(seed)) == to_blif(legacy)


def test_repro_seed_env_override(monkeypatch):
    from repro.network import to_blif

    monkeypatch.setenv("REPRO_SEED", "7")
    overridden = random_network(3)
    monkeypatch.delenv("REPRO_SEED")
    assert to_blif(overridden) == to_blif(random_network(7))


def test_seed_log_records_generations():
    from repro.verify import clear_seed_log, seed_log

    clear_seed_log()
    random_network(5)
    random_network(2)
    log = seed_log()
    assert log == [("random_network", 5), ("random_network", 2)]


def test_random_multi_output_reference_matches_ingredients():
    from repro.verify import random_multi_output

    manager, names, ingredients, ref = random_multi_output(11, 7, 2)
    assert [o for o, _ in ingredients] == ["o0", "o1"]
    assert ref.output_names == ["o0", "o1"]
    for (out, bdd), node in zip(ingredients, ("n0", "n1")):
        mask = manager.to_truth_table(bdd, list(range(len(names))))
        assert ref.node(node).table.mask == mask


# --------------------------------------------------------------------- #
# Transforms and metamorphic invariants
# --------------------------------------------------------------------- #


def test_transforms_preserve_functions():
    source = random_network(6)
    for transform in (permute_inputs, shuffle_nodes):
        variant = transform(source, seed=1)
        assert sorted(variant.inputs) == sorted(source.inputs)
        assert variant.output_names == source.output_names
        assert check_equivalence(source, variant) is None


def test_negate_outputs_complements_exactly_the_chosen():
    from repro.network.simulate import random_vectors, simulate_all_signals

    source = random_network(6)
    which = [source.output_names[0]]
    negated, names = negate_outputs(source, which=which)
    assert names == which
    patterns = random_vectors(source, 64, 0)
    a = simulate_all_signals(source, patterns, 64)
    b = simulate_all_signals(negated, patterns, 64)
    ones = (1 << 64) - 1
    for out in source.output_names:
        da, db = source.output_driver(out), negated.output_driver(out)
        if out in which:
            assert b[db] == a[da] ^ ones
        else:
            assert b[db] == a[da]


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_metamorphic_invariants_hold(seed):
    source = random_network(seed)
    for flow in (hyde_map, map_per_output):
        report = metamorphic_check(
            source,
            lambda n: flow(n, k=4, verify="none", pack_clbs=False).network,
            seed=seed,
        )
        assert report.ok, report.summary()
        for outcome in report.outcomes:
            # Declaration-order shuffling and output negation are
            # count-preserving for these flows (empirically pinned);
            # input permutation legitimately is not — BDD variable
            # order feeds bound-set selection.
            if outcome.transform in ("shuffle_nodes", "negate_outputs"):
                assert outcome.same_luts, report.summary()


# --------------------------------------------------------------------- #
# Repro validator + shrinker output order (the satellite bugfix)
# --------------------------------------------------------------------- #


def test_validate_repro_accepts_generated_networks():
    for seed in range(4):
        assert validate_repro(random_network(seed)) == []


def test_reorder_outputs_roundtrip():
    net = random_network(2)
    names = net.output_names
    net.reorder_outputs(list(reversed(names)))
    assert net.output_names == list(reversed(names))
    with pytest.raises(ValueError):
        net.reorder_outputs(names[:-1])


def test_shrinker_preserves_output_order():
    """Surviving outputs keep the source's relative order, whatever the
    predicate lets the shrinker remove."""
    from repro.testing import shrink_network

    source = random_network(0)  # layered, 3 outputs
    order = source.output_names

    def keeps_last_two(net):
        return set(order[1:]) <= set(net.output_names)

    shrunk = shrink_network(source, keeps_last_two)
    surviving = [o for o in order if o in set(shrunk.output_names)]
    assert shrunk.output_names == surviving
    assert validate_repro(shrunk) == []


def test_shrunk_witness_passes_replay_validator():
    from repro.testing import shrink_network
    from repro.verify import build_miter, miter_satisfiable
    from repro.verify import apply_mutation, sample_mutations

    source = random_network(4)
    mapped = hyde_map(source, k=4, verify="none", pack_clbs=False).network
    for mutation in sample_mutations(mapped, 10, seed=3):
        mutant = apply_mutation(mapped, mutation)
        bad = check_equivalence(mapped, mutant)
        if bad is None:
            continue
        miter = build_miter(mapped, mutant, bad)
        shrunk = shrink_network(miter, miter_satisfiable)
        assert miter_satisfiable(shrunk)
        assert validate_repro(shrunk) == []
        assert shrunk.num_nodes <= miter.num_nodes
        return
    pytest.fail("no unmasked mutant found")


# --------------------------------------------------------------------- #
# Wiring: task-runner reply validation, resume gate, CLI
# --------------------------------------------------------------------- #


def test_finegrain_reply_validation_journals_failing_cone(tmp_path):
    from repro.decompose import DecompositionOptions
    from repro.mapping.parallel import GroupTask, check_fragment
    from repro.network import extract_cone, to_blif
    from repro.runstate import load_journal, open_journal, validate_journal
    from repro.verify import apply_mutation, sample_mutations

    source = random_network(6)
    out = source.output_names[0]
    cone = extract_cone(source, [out], name="cone")
    frag = hyde_map(cone, k=4, verify="none", pack_clbs=False).network
    bad = apply_mutation(frag, sample_mutations(frag, 1, seed=1)[0])

    journal = open_journal(tmp_path, circuit="c", flow="hyde", k=4)
    task = GroupTask(
        blif_text=to_blif(cone), group=[out], gi=0,
        options=DecompositionOptions(k=4), base_name="c_g0",
    )
    ok = check_fragment(task, to_blif(frag), "finegrain", journal=journal)
    assert ok is None

    cause = check_fragment(task, to_blif(bad), "finegrain", journal=journal)
    assert cause is not None and cause.startswith("nonequivalent_reply")
    assert "cone at" in cause and "counterexample" in cause

    records, problems = load_journal(journal.path)
    assert problems == [] and validate_journal(records) == []
    events = [
        r for r in records
        if r.get("type") == "event" and r.get("kind") == "failing_cone"
    ]
    assert len(events) == 1
    event = events[0]
    assert event["output"] == out and event["confirmed"]
    assert isinstance(event["counterexample"], dict)


def test_finegrain_resume_gate_records_verdict(tmp_path):
    from repro.runstate import load_journal, open_journal

    source = random_network(2)
    j1 = open_journal(tmp_path, circuit="c", flow="hyde", k=4)
    first = hyde_map(
        source, k=4, verify="finegrain", pack_clbs=False, journal=j1
    )
    j2 = open_journal(tmp_path, circuit="c", flow="hyde", k=4, resume=True)
    second = hyde_map(
        source, k=4, verify="finegrain", pack_clbs=False, journal=j2
    )
    assert second.details["journal"]["replayed"] >= 1
    records, _ = load_journal(j2.path)
    verdicts = [r for r in records if r.get("type") == "verdict"]
    assert verdicts[-1]["engine"] == "finegrain"
    assert verdicts[-1]["equivalent"]
    assert first.network.num_nodes == second.network.num_nodes


def test_cli_verify_roundtrip(tmp_path):
    from repro.cli import main
    from repro.network import write_blif
    from repro.verify import apply_mutation, sample_mutations

    source = random_network(4)
    mapped = hyde_map(source, k=4, verify="none", pack_clbs=False).network
    golden_path = os.path.join(tmp_path, "g.blif")
    mapped_path = os.path.join(tmp_path, "m.blif")
    write_blif(source, golden_path)
    write_blif(mapped, mapped_path)

    assert main(["verify", golden_path, mapped_path]) == 0
    assert main(["verify", golden_path, mapped_path, "--finegrain"]) == 0
    assert main(
        ["verify", golden_path, mapped_path, "--mutants", "5"]
    ) == 0

    bad = apply_mutation(mapped, sample_mutations(mapped, 1, seed=9)[0])
    bad_path = os.path.join(tmp_path, "bad.blif")
    write_blif(bad, bad_path)
    repro_dir = os.path.join(tmp_path, "repros")
    rc = main(
        [
            "verify", golden_path, bad_path,
            "--finegrain", "--repro-dir", repro_dir,
        ]
    )
    assert rc == 1
    witnesses = [
        f for f in os.listdir(repro_dir) if f.endswith(".blif")
    ]
    assert witnesses, "shrunk miter witness not saved"
    from repro.network import read_blif
    from repro.verify import miter_satisfiable

    for name in witnesses:
        witness = read_blif(os.path.join(repro_dir, name))
        assert miter_satisfiable(witness)
        assert validate_repro(witness) == []
