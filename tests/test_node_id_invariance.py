"""Emitted BLIF does not depend on BDD node-id values or allocation order.

Node ids only name functions within one manager.  The flows may skip
work (fewer nodes), compact a manager (renumbered nodes) or build nodes
in another order, so every decision must read functions, never ids.
Each perturbation below changes the ids the flow sees while keeping
every function the same, and the emitted bytes must stay the pinned
ones of ``tests/test_blif_golden.py``:

* ``hi_first`` — a test-local cofactor that builds the hi branch before
  the lo branch, installed on each manager the way
  ``tests/test_bdd_differential.py`` installs its reference;
* ``junk`` — unused nodes allocated before any decomposition;
* ``compact`` — the serial loop compacts its manager after every group.
"""

from __future__ import annotations

import hashlib
import os
import random

import pytest

from repro.bdd import FALSE, TRUE, BddManager
from repro.cli import main
from repro.fastpath import bitops
from repro.mapping import hyde, hyde_map
from repro.network import globalbdd, read_blif, to_blif

from .test_blif_golden import FLAGS, GOLDEN, INPUTS, MEDIUM_GOLDEN


def hi_first_cofactor(manager: BddManager):
    """``cofactor`` building the hi branch first, memoized in the
    manager's own per-(level, value) dicts so :meth:`clear_caches` (and
    with it :meth:`compact`) drops its entries too."""
    memos = manager._cofactor_memos

    def cofactor(f, level, value):
        var, lo, hi = manager._var, manager._lo, manager._hi
        if f <= TRUE:
            return f
        f_level = var[f]
        if f_level > level:
            return f
        if f_level == level:
            return hi[f] if value else lo[f]
        memo = memos.setdefault((level, value), {})
        cached = memo.get(f)
        if cached is not None:
            return cached
        r1 = cofactor(hi[f], level, value)
        r0 = cofactor(lo[f], level, value)
        result = manager._mk(f_level, r0, r1)
        memo[f] = result
        return result

    return cofactor


def allocate_junk(manager: BddManager) -> None:
    """Thirty XORs of ten random cubes over the declared variables."""
    rng = random.Random(manager.num_vars)
    levels = range(manager.num_vars)
    for _ in range(30):
        junk = FALSE
        for _ in range(10):
            cube = TRUE
            for lv in rng.sample(levels, min(3, len(levels))):
                literal = (
                    manager.var_at_level(lv)
                    if rng.random() < 0.5
                    else manager.nvar_at_level(lv)
                )
                cube = manager.apply_and(cube, literal)
            junk = manager.apply_xor(junk, cube)


def perturb(monkeypatch, kind: str) -> list:
    """Install one id perturbation on every manager the flows build;
    returns the list each compaction appends its survivor count to."""
    compactions = []
    if kind == "compact":
        monkeypatch.setattr(hyde, "_COMPACT_GROWTH", 1)
        compact = BddManager.compact

        def counted(manager, roots):
            remap = compact(manager, roots)
            compactions.append(manager.num_nodes)
            return remap

        monkeypatch.setattr(BddManager, "compact", counted)
        return compactions
    original = globalbdd.GlobalBdds.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        if kind == "hi_first":
            self.manager.cofactor = hi_first_cofactor(self.manager)
        else:
            allocate_junk(self.manager)

    monkeypatch.setattr(globalbdd.GlobalBdds, "__init__", init)
    return compactions


PERTURBATIONS = ("hi_first", "junk", "compact")


@pytest.mark.parametrize("kind", PERTURBATIONS)
@pytest.mark.parametrize(
    "name, mode",
    sorted(key for key in GOLDEN if key[1] in ("area", "delay")),
)
def test_small_blif_ignores_node_ids(
    name, mode, kind, monkeypatch, tmp_path, capsys
):
    perturb(monkeypatch, kind)
    target = tmp_path / f"{name}.blif"
    argv = ["blif", os.path.join(INPUTS, f"{name}.blif"), "-o", str(target)]
    assert main(argv + FLAGS[mode]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == GOLDEN[name, mode]


@pytest.mark.slow
@pytest.mark.parametrize("kind", PERTURBATIONS)
@pytest.mark.parametrize("name", ["apex7", "misex2"])
def test_medium_blif_ignores_node_ids(name, kind, monkeypatch):
    compactions = perturb(monkeypatch, kind)
    bitops.clear_global_memo()
    result = hyde_map(read_blif(os.path.join(INPUTS, f"{name}.blif")), 5)
    digest = hashlib.sha256(to_blif(result.network).encode()).hexdigest()
    assert digest == MEDIUM_GOLDEN[name, "area"][0]
    if kind == "compact":
        # Every group after the first starts on a compacted manager.
        assert len(compactions) == len(result.groups) - 1 > 0
