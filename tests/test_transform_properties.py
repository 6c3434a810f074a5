"""Property-based tests: every network transform preserves functionality
on randomly generated networks."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolfunc import TruthTable
from repro.mapping import absorb_inverters, cleanup_for_lut_count, dedup_nodes
from repro.network import Network, check_equivalence, sweep


def random_network(seed: int, num_inputs: int = 5, num_nodes: int = 10) -> Network:
    """A random DAG with some buffers/inverters/constants mixed in."""
    rng = random.Random(seed)
    net = Network(f"rand{seed}")
    signals = [net.add_input(f"i{j}") for j in range(num_inputs)]
    net.add_constant("konst", rng.randint(0, 1))
    signals.append("konst")
    for n in range(num_nodes):
        kind = rng.random()
        name = f"n{n}"
        if kind < 0.15:
            src = rng.choice(signals)
            table = TruthTable.from_function(1, lambda v: 1 - v)  # inverter
            net.add_node(name, [src], table)
        elif kind < 0.25:
            src = rng.choice(signals)
            table = TruthTable.from_function(1, lambda v: v)  # buffer
            net.add_node(name, [src], table)
        else:
            arity = rng.randint(2, min(4, len(signals)))
            fanins = rng.sample(signals, arity)
            net.add_node(name, fanins, TruthTable(arity, rng.getrandbits(1 << arity)))
        signals.append(name)
    outputs = rng.sample([s for s in signals if not net.is_input(s)], 3)
    for i, driver in enumerate(outputs):
        net.add_output(driver, f"o{i}")
    return net


@pytest.mark.parametrize("seed", range(12))
def test_sweep_preserves_function(seed):
    net = random_network(seed)
    before = net.copy()
    sweep(net)
    assert check_equivalence(net, before) is None


@pytest.mark.parametrize("seed", range(12))
def test_dedup_preserves_function(seed):
    net = random_network(seed + 100)
    before = net.copy()
    dedup_nodes(net)
    assert check_equivalence(net, before) is None


@pytest.mark.parametrize("seed", range(12))
def test_absorb_inverters_preserves_function(seed):
    net = random_network(seed + 200)
    before = net.copy()
    absorb_inverters(net)
    assert check_equivalence(net, before) is None


@pytest.mark.parametrize("seed", range(8))
def test_cleanup_pipeline_preserves_function(seed):
    net = random_network(seed + 300)
    before = net.copy()
    cleanup_for_lut_count(net)
    assert check_equivalence(net, before) is None


@pytest.mark.parametrize("seed", range(4))
def test_cleanup_idempotent(seed):
    net = random_network(seed + 500)
    cleanup_for_lut_count(net)
    snapshot = [(n.name, tuple(n.fanins), n.table.mask) for n in net.nodes()]
    cleanup_for_lut_count(net)
    again = [(n.name, tuple(n.fanins), n.table.mask) for n in net.nodes()]
    assert snapshot == again
