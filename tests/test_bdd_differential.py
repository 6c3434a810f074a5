"""Differential stress tests: BDD operations vs reference truth-table
computation on randomly generated expression trees, and the memoized
cofactor vs a reference implementation down to the node ids it creates."""

from __future__ import annotations

import random

import pytest

from repro.bdd import FALSE, TRUE, BddBudgetExceeded, BddManager

N = 6
FULL = (1 << (1 << N)) - 1


def random_expression(manager: BddManager, rng: random.Random, depth: int):
    """Build a random expression; returns (bdd, reference mask)."""
    var_masks = []
    for lv in range(N):
        mask = 0
        for m in range(1 << N):
            if (m >> lv) & 1:
                mask |= 1 << m
        var_masks.append(mask)

    def build(d):
        if d == 0 or rng.random() < 0.25:
            lv = rng.randrange(N)
            return manager.var_at_level(lv), var_masks[lv]
        op = rng.choice(["and", "or", "xor", "not", "ite"])
        if op == "not":
            f, mf = build(d - 1)
            return manager.apply_not(f), mf ^ FULL
        if op == "ite":
            c, mc = build(d - 1)
            t, mt = build(d - 1)
            e, me = build(d - 1)
            return manager.ite(c, t, e), (mc & mt) | ((mc ^ FULL) & me)
        f, mf = build(d - 1)
        g, mg = build(d - 1)
        if op == "and":
            return manager.apply_and(f, g), mf & mg
        if op == "or":
            return manager.apply_or(f, g), mf | mg
        return manager.apply_xor(f, g), mf ^ mg

    return build(depth)


@pytest.mark.parametrize("seed", range(20))
def test_expression_trees_match_reference(seed):
    rng = random.Random(seed)
    manager = BddManager(N)
    bdd, mask = random_expression(manager, rng, depth=5)
    assert manager.to_truth_table(bdd, list(range(N))) == mask


@pytest.mark.parametrize("seed", range(10))
def test_compose_differential(seed):
    rng = random.Random(1000 + seed)
    manager = BddManager(N)
    f, mf = random_expression(manager, rng, depth=4)
    g, mg = random_expression(manager, rng, depth=3)
    level = rng.randrange(N)
    composed = manager.compose(f, level, g)
    # Reference: for each minterm, re-evaluate with the bit substituted.
    expected = 0
    for m in range(1 << N):
        sub_bit = (mg >> m) & 1
        target = (m | (1 << level)) if sub_bit else (m & ~(1 << level))
        if (mf >> target) & 1:
            expected |= 1 << m
    assert manager.to_truth_table(composed, list(range(N))) == expected


@pytest.mark.parametrize("seed", range(10))
def test_vector_compose_differential(seed):
    rng = random.Random(2000 + seed)
    manager = BddManager(N)
    f, mf = random_expression(manager, rng, depth=4)
    subs = {}
    sub_masks = {}
    for lv in rng.sample(range(N), 2):
        g, mg = random_expression(manager, rng, depth=3)
        subs[lv] = g
        sub_masks[lv] = mg
    composed = manager.vector_compose(f, subs)
    expected = 0
    for m in range(1 << N):
        target = m
        for lv in range(N):
            if lv in sub_masks:
                bit = (sub_masks[lv] >> m) & 1
            else:
                bit = (m >> lv) & 1
            target = (target | (1 << lv)) if bit else (target & ~(1 << lv))
        if (mf >> target) & 1:
            expected |= 1 << m
    assert manager.to_truth_table(composed, list(range(N))) == expected


# --------------------------------------------------------------------- #
# Node identity of the cofactor kernel
# --------------------------------------------------------------------- #
#
# Emitted BLIF does not depend on node ids or on the order nodes are
# allocated in (tests/test_node_id_invariance.py), but the kernel's work
# does: the nodes it creates, its counters, and where a node budget stops
# it.  So a faster cofactor must create the same nodes in the same order
# as the straightforward recursive body (the whole lo branch, then the
# whole hi branch, then the parent), which is the reference here,
# memoized on (node, level, value) tuples.


def reference_cofactor(manager: BddManager):
    """A tuple-keyed recursive ``cofactor`` that drives ``manager._mk``.

    Installed as an instance attribute it shadows the method, so the
    manager's own ``cofactor_enumerate`` runs on it too.
    """
    cache = {}
    var, lo, hi, perf = manager._var, manager._lo, manager._hi, manager.perf

    def cofactor(f, level, value):
        if f <= TRUE:
            return f
        f_level = var[f]
        if f_level > level:
            return f
        if f_level == level:
            return hi[f] if value else lo[f]
        key = (f, level, value)
        perf.cofactor_calls += 1
        cached = cache.get(key)
        if cached is not None:
            perf.cofactor_hits += 1
            return cached
        result = manager._mk(
            f_level,
            cofactor(lo[f], level, value),
            cofactor(hi[f], level, value),
        )
        cache[key] = result
        return result

    return cofactor


def random_sops(manager: BddManager, rng: random.Random, n: int):
    """A few random sums of products (some XOR-ed) over ``n`` variables."""
    functions = []
    for _ in range(4):
        f = FALSE
        for _ in range(rng.randint(3, 8)):
            cube = TRUE
            for lv in rng.sample(range(n), rng.randint(2, 5)):
                literal = (
                    manager.var_at_level(lv)
                    if rng.random() < 0.5
                    else manager.nvar_at_level(lv)
                )
                cube = manager.apply_and(cube, literal)
            if rng.random() < 0.8:
                f = manager.apply_or(f, cube)
            else:
                f = manager.apply_xor(f, cube)
        functions.append(f)
    return functions


def random_ops(rng: random.Random, n: int, count: int = 150):
    """Cofactor and enumeration calls over a pool of functions."""
    ops = []
    for _ in range(count):
        pick = rng.randrange(1 << 16)
        if rng.random() < 0.7:
            ops.append(("cofactor", pick, rng.randrange(n), rng.randrange(2)))
        else:
            levels = rng.sample(range(n), rng.randint(1, 4))
            ops.append(("enumerate", pick, levels))
    return ops


def run_ops(manager: BddManager, functions, ops):
    """Apply ``ops``; every result joins the pool later ops pick from."""
    pool = list(functions)
    results = []
    for op in ops:
        f = pool[op[1] % len(pool)]
        if op[0] == "cofactor":
            result = [manager.cofactor(f, op[2], op[3])]
        else:
            result = manager.cofactor_enumerate(f, op[2])
        pool.extend(result)
        results.append(result)
    return results


def twin_managers(seed: int):
    """A manager on the real kernel and one on the reference, built
    identically, with their functions and one shared call sequence."""
    n = 10 + seed % 3
    twins = []
    for reference in (False, True):
        manager = BddManager(n)
        functions = random_sops(manager, random.Random(seed), n)
        if reference:
            manager.cofactor = reference_cofactor(manager)
        twins.append((manager, functions))
    return twins, random_ops(random.Random(10_000 + seed), n)


def node_state(manager: BddManager):
    perf = manager.perf
    return (
        manager._var,
        manager._lo,
        manager._hi,
        perf.nodes_allocated,
        perf.cofactor_calls,
        perf.cofactor_hits,
    )


@pytest.mark.parametrize("seed", range(12))
def test_cofactor_creates_the_reference_nodes(seed):
    twins, ops = twin_managers(seed)
    (kernel, functions), (reference, reference_functions) = twins
    assert functions == reference_functions
    built = kernel.num_nodes
    assert run_ops(kernel, functions, ops) == run_ops(
        reference, reference_functions, ops
    )
    assert node_state(kernel) == node_state(reference)
    # The sequence does real work: fresh nodes, memo hits, recursion.
    assert kernel.num_nodes > built
    assert 0 < kernel.perf.cofactor_hits < kernel.perf.cofactor_calls


@pytest.mark.parametrize("seed", range(6))
def test_cofactor_budget_trips_at_the_reference_node(seed):
    twins, ops = twin_managers(seed)
    kernel, functions = twins[0]
    built = kernel.num_nodes
    run_ops(kernel, functions, ops)
    grown = kernel.num_nodes - built
    assert grown > 10
    twins, ops = twin_managers(seed)
    for manager, functions in twins:
        manager.set_budget(max_nodes=built + grown // 2)
        with pytest.raises(BddBudgetExceeded):
            run_ops(manager, functions, ops)
    (kernel, _), (reference, _) = twins
    assert kernel.num_nodes == reference.num_nodes == built + grown // 2
    assert node_state(kernel) == node_state(reference)
