"""Substrate micro-benchmarks: the ROBDD engine under the decomposition's
typical operation mix (apply, restrict, cofactor enumeration).

These are true pytest-benchmark statistics runs (many iterations), unlike
the one-shot table/figure benches.
"""

from __future__ import annotations

import random

import pytest

from repro.bdd import BddManager


def _build_9sym(m: BddManager) -> int:
    bits = 0
    for idx in range(1 << 9):
        if bin(idx).count("1") in (3, 4, 5, 6):
            bits |= 1 << idx
    return m.from_truth_table(bits, list(range(9)))


@pytest.mark.benchmark(group="bdd-micro")
def test_bench_apply_chain(benchmark):
    def work():
        m = BddManager(16)
        rng = random.Random(0)
        f = m.var_at_level(0)
        for _ in range(60):
            g = m.var_at_level(rng.randrange(16))
            op = rng.choice([m.apply_and, m.apply_or, m.apply_xor])
            f = op(f, g)
        return m.size(f)

    size = benchmark(work)
    assert size >= 1


@pytest.mark.benchmark(group="bdd-micro")
def test_bench_build_9sym(benchmark):
    def work():
        m = BddManager(9)
        return m.size(_build_9sym(m))

    size = benchmark(work)
    assert size > 0


@pytest.mark.benchmark(group="bdd-micro")
def test_bench_cofactor_enumeration(benchmark):
    m = BddManager(9)
    f = _build_9sym(m)

    def work():
        return len(set(m.cofactor_enumerate(f, [0, 1, 2, 3, 4])))

    classes = benchmark(work)
    assert classes == 6  # symmetric: popcounts 0..5 of the bound part... distinct residuals

@pytest.mark.benchmark(group="bdd-micro")
def test_bench_quantification(benchmark):
    m = BddManager(12)
    rng = random.Random(3)
    f = m.from_truth_table(rng.getrandbits(1 << 12), list(range(12)))

    def work():
        return m.exists(f, [0, 3, 7])

    result = benchmark(work)
    assert result >= 0
