"""Fault-tolerance layer: budgets, timeouts, retries, the ladder.

Matrix tests inject each fault kind at a group (at ``jobs`` 1 and 2) and
assert the ladder resolves it exactly as designed:

* transient faults (``times=1``) recover on the first in-process retry;
* with retries disabled, a transient fault lands on the per-output rung;
* persistent faults fall through to the structural rung;
* in every case the final network is equivalent to the source and
  ``details["degraded"]`` names the group and the cause.

Plus unit tests for the :class:`~repro.bdd.BddManager` budget itself,
the recorded (no longer silent) pool-creation fallback, and ladder
exhaustion when every rung is disabled.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.bdd import BddBudgetExceeded, BddManager
from repro.circuits import build
from repro.decompose import DecompositionOptions
from repro.mapping import hyde_map, map_per_output
from repro.mapping import parallel as par
from repro.mapping.parallel import GroupTask, TaskPolicy, run_group_tasks
from repro.network import check_equivalence, extract_cone, to_blif
from repro.testing import FaultPlan, FaultSpec

POLICY = TaskPolicy(timeout_seconds=5.0)


class TestBddBudget:
    def test_node_budget_raises(self):
        manager = BddManager(8)
        manager.set_budget(max_nodes=8)
        with pytest.raises(BddBudgetExceeded) as err:
            for lv in range(8):
                manager.apply_and(
                    manager.var_at_level(lv),
                    manager.var_at_level((lv + 1) % 8),
                )
        assert err.value.kind == "nodes"
        assert manager.perf.budget_exceeded >= 1

    def test_time_budget_raises_via_checkpoint(self):
        manager = BddManager(4)
        manager.set_budget(max_seconds=0.01)
        time.sleep(0.03)
        with pytest.raises(BddBudgetExceeded) as err:
            manager.check_budget()
        assert err.value.kind == "seconds"

    def test_disarm_restores_old_behavior(self):
        manager = BddManager(8)
        manager.set_budget(max_nodes=4)
        manager.set_budget()  # disarm
        for lv in range(7):
            manager.apply_and(
                manager.var_at_level(lv), manager.var_at_level(lv + 1)
            )
        manager.check_budget()  # no-op when disarmed

    def test_budget_exception_survives_pickling(self):
        err = BddBudgetExceeded("nodes", 100, 101)
        clone = pickle.loads(pickle.dumps(err))
        assert (clone.kind, clone.limit, clone.used) == ("nodes", 100, 101)

    def test_options_thread_budget_to_manager(self):
        options = DecompositionOptions(k=4, max_bdd_nodes=123)
        assert options.has_budget
        manager = BddManager(4)
        options.arm_budget(manager)
        assert manager.budget["max_nodes"] == 123
        decayed = options.decayed(0.5)
        assert decayed.max_bdd_nodes == 61


def _group_tasks(circuit="misex1", inject_at=None, spec=None, k=4):
    """Two multi-output group tasks over a benchmark's outputs."""
    net = build(circuit)
    outs = net.output_names
    groups = [outs[: len(outs) // 2], outs[len(outs) // 2 :]]
    options = DecompositionOptions(k=k)
    tasks = []
    for gi, group in enumerate(groups):
        cone = extract_cone(net, group, name=f"g{gi}_cone")
        tasks.append(
            GroupTask(
                blif_text=to_blif(cone),
                group=list(group),
                gi=gi,
                options=options,
                base_name=f"g{gi}",
                inject=spec if gi == inject_at else None,
            )
        )
    return net, tasks


class TestFaultMatrix:
    """Every fault kind, both job levels, transient and persistent."""

    KINDS = ["crash", "hang", "oversized_bdd", "corrupt_blif"]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("kind", KINDS)
    def test_transient_fault_recovers_by_retry(self, kind, jobs):
        spec = FaultSpec(kind, times=1, hang_seconds=30.0)
        net, tasks = _group_tasks(inject_at=0, spec=spec)
        results, report = run_group_tasks(tasks, jobs, POLICY)
        assert len(results) == len(tasks)
        assert len(report.degraded) == 1
        entry = report.degraded[0]
        assert entry["gi"] == 0
        assert entry["group"] == tasks[0].group
        assert entry["resolution"] == "retry"
        assert entry["causes"]  # the cause is named

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("kind", KINDS)
    def test_persistent_fault_falls_to_structural(self, kind, jobs):
        spec = FaultSpec(kind, times=99, hang_seconds=30.0)
        net, tasks = _group_tasks(inject_at=0, spec=spec)
        results, report = run_group_tasks(tasks, jobs, POLICY)
        entry = report.degraded[0]
        assert entry["resolution"] == "structural"
        # Retry, per-output and the original attempt all saw the fault.
        assert len(entry["causes"]) == 3

    def test_no_retries_lands_on_per_output_rung(self):
        # times=1 sabotages only attempt 0; with retries=0 the next
        # attempt IS the per-output rung, which must then succeed.
        policy = TaskPolicy(timeout_seconds=5.0, retries=0)
        spec = FaultSpec("crash", times=1)
        net, tasks = _group_tasks(inject_at=0, spec=spec)
        results, report = run_group_tasks(tasks, 1, policy)
        assert report.degraded[0]["resolution"] == "per_output"

    @pytest.mark.parametrize("kind", KINDS)
    def test_hyde_map_with_injection_stays_equivalent(self, kind):
        net = build("misex1")
        faults = FaultPlan({0: FaultSpec(kind, times=99, hang_seconds=30.0)})
        result = hyde_map(
            build("misex1"),
            k=4,
            verify="bdd",  # the flow's own check must already pass
            pack_clbs=False,
            jobs=2,
            policy=POLICY,
            faults=faults,
        )
        assert check_equivalence(net, result.network) is None
        degraded = result.details["degraded"]
        assert degraded and degraded[0]["gi"] == 0
        assert degraded[0]["group"] == result.groups[0]

    def test_per_output_flow_with_injection(self):
        net = build("rd73")
        result = map_per_output(
            build("rd73"),
            k=4,
            verify="bdd",
            pack_clbs=False,
            policy=POLICY,
            faults=FaultPlan.parse("oversized_bdd@0"),
        )
        assert check_equivalence(net, result.network) is None
        assert result.details["degraded"][0]["resolution"] == "retry"

    def test_fault_plan_parse(self):
        plan = FaultPlan.parse("crash@0,hang@2:3")
        assert plan.spec_for(0).kind == "crash"
        assert plan.spec_for(0).strategy is None
        assert plan.spec_for(2).times == 3
        assert plan.spec_for(1) is None
        with pytest.raises(ValueError):
            FaultPlan.parse("explode@0")
        with pytest.raises(ValueError):
            FaultPlan.parse("crash")

    def test_fault_plan_parse_strategy_target(self):
        plan = FaultPlan.parse("hang@0.exact:2")
        spec = plan.spec_for(0)
        assert spec.kind == "hang"
        assert spec.strategy == "exact"
        assert spec.times == 2


class TestLadderEdges:
    def test_timeout_is_counted(self):
        spec = FaultSpec("hang", times=1, hang_seconds=30.0)
        _, tasks = _group_tasks(inject_at=0, spec=spec)
        _, report = run_group_tasks(tasks, 2, TaskPolicy(timeout_seconds=2.0))
        assert report.timeouts >= 1
        assert report.retries >= 1

    def test_policy_without_faults_is_clean(self):
        _, tasks = _group_tasks()
        results, report = run_group_tasks(tasks, 1, POLICY)
        assert len(results) == len(tasks)
        assert report.degraded == []


class TestPoolFallbackRecorded:
    """The silent serial fallback is now visible in the report."""

    def _break_pool(self, monkeypatch):
        def refuse(workers):
            raise OSError("no semaphores in this sandbox")

        monkeypatch.setattr(par, "_make_pool", refuse)
        # Zero the auto-serial setup-cost constant so the tiny test
        # workload still *attempts* the pool — this class tests the
        # pool-failure fallback, not the auto-serial dispatch.
        monkeypatch.setattr(par, "_POOL_SETUP_SECONDS", 0.0)

    def test_legacy_path_records_fallback(self, monkeypatch):
        self._break_pool(monkeypatch)
        _, tasks = _group_tasks()
        results, report = run_group_tasks(tasks, 2)
        assert len(results) == len(tasks)
        assert report.jobs_used == 1
        assert "no semaphores" in report.pool_fallback

    def test_governed_path_records_fallback(self, monkeypatch):
        self._break_pool(monkeypatch)
        _, tasks = _group_tasks()
        results, report = run_group_tasks(tasks, 2, POLICY)
        assert len(results) == len(tasks)
        assert report.jobs_used == 1
        assert "no semaphores" in report.pool_fallback

    def test_hyde_map_surfaces_fallback(self, monkeypatch):
        self._break_pool(monkeypatch)
        result = hyde_map(
            build("misex1"), k=4, verify="none", pack_clbs=False, jobs=2
        )
        assert "no semaphores" in result.details["pool_fallback"]
