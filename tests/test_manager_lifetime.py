"""BDD managers are freed by reference counting when a run ends.

A recursive closure that captures a manager (``def walk(node): ...
walk(child)``) holds its own cell and so the manager in a reference cycle;
the manager's node arrays then stay alive until the cyclic collector
happens to run, which sets a run's peak memory.  This test maps with the
collector disabled and requires every manager created to be gone.
"""

from __future__ import annotations

import gc
import weakref

from repro.bdd import BddManager
from repro.circuits import build
from repro.mapping import hyde_map


def test_no_manager_survives_a_run_without_the_cyclic_gc(monkeypatch):
    created = []
    init = BddManager.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(weakref.ref(self))

    monkeypatch.setattr(BddManager, "__init__", tracking_init)
    gc.collect()
    gc.disable()
    try:
        assert hyde_map(build("misex1"), 5, portfolio=True).lut_count > 0
        assert hyde_map(build("misex2"), 5).lut_count > 0
        alive = sum(1 for ref in created if ref() is not None)
    finally:
        gc.enable()
    assert created
    assert alive == 0, f"{alive} of {len(created)} managers still alive"
