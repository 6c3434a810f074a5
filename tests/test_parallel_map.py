"""Tests for parallel group mapping (repro.mapping.parallel).

The worker pool must be invisible apart from wall time: ``jobs > 1``
ships each ingredient group's fan-in cone to a worker as BLIF text, and
the spliced result has to be equivalent to the single-process network.
Cone extraction (the serialization boundary) is tested directly too —
its PI-order preservation is what keeps the workers' bound-set
tie-breaking identical to the serial flow.
"""

from __future__ import annotations

import pytest

from repro.circuits import build
from repro.mapping import hyde_map, map_per_output
from repro.mapping.parallel import (
    GroupTask,
    decompose_group_task,
    run_context,
    run_group_tasks,
)
from repro.decompose import DecompositionOptions
from repro.network import check_equivalence, extract_cone, parse_blif, to_blif


class TestExtractCone:
    def test_cone_is_equivalent_on_kept_outputs(self):
        net = build("misex1")
        out = net.output_names[2]
        cone = extract_cone(net, [out])
        assert cone.output_names == [out]
        bad = check_equivalence(cone, extract_cone(net, [out]))
        assert bad is None

    def test_pi_relative_order_preserved(self):
        net = build("rd73")
        cone = extract_cone(net, [net.output_names[0]])
        positions = [net.inputs.index(pi) for pi in cone.inputs]
        assert positions == sorted(positions)

    def test_multi_output_cone(self):
        net = build("misex1")
        outs = net.output_names[:3]
        cone = extract_cone(net, outs, name="cone3")
        assert cone.name == "cone3"
        assert cone.output_names == outs


class TestGroupWorker:
    def test_worker_fragment_is_equivalent(self):
        net = build("rd73")
        out = net.output_names[0]
        cone = extract_cone(net, [out])
        task = GroupTask(
            blif_text=to_blif(cone),
            group=[out],
            gi=0,
            options=DecompositionOptions(k=5),
            base_name="w0",
        )
        res = decompose_group_task(task)
        fragment = parse_blif(res.blif_text)
        assert check_equivalence(cone, fragment) is None
        assert res.perf  # workers ship their counters home

    def test_run_group_tasks_serial_matches_pool(self):
        net = build("misex1")
        tasks = []
        for gi, out in enumerate(net.output_names[:3]):
            cone = extract_cone(net, [out])
            tasks.append(
                GroupTask(
                    blif_text=to_blif(cone),
                    group=[out],
                    gi=gi,
                    options=DecompositionOptions(k=5),
                    base_name=f"w{gi}",
                )
            )
        serial, report1 = run_group_tasks(tasks, run_context(jobs=1))
        pooled, report2 = run_group_tasks(tasks, run_context(jobs=2))
        assert report1.jobs_used == 1 and report2.jobs_used >= 1
        # A refused pool is a recorded (not silent) serial fallback.
        if report2.jobs_used == 1:
            assert report2.pool_fallback is not None
        assert [r.gi for r in serial] == [r.gi for r in pooled]
        for a, b in zip(serial, pooled):
            assert a.blif_text == b.blif_text


class TestJobsEquivalence:
    @pytest.mark.parametrize("circuit", ["misex1", "rd73"])
    def test_hyde_jobs2_equivalent(self, circuit):
        net = build(circuit)
        serial = hyde_map(net, verify="none", pack_clbs=False)
        parallel = hyde_map(
            build(circuit), verify="none", pack_clbs=False, jobs=2
        )
        assert check_equivalence(serial.network, parallel.network) is None
        assert parallel.lut_count == serial.lut_count
        perf = parallel.details["perf"]
        assert perf["jobs_requested"] == 2

    def test_per_output_jobs2_equivalent(self):
        net = build("rd73")
        serial = map_per_output(net, verify="none", pack_clbs=False)
        parallel = map_per_output(
            build("rd73"), verify="none", pack_clbs=False, jobs=2
        )
        assert check_equivalence(serial.network, parallel.network) is None
        assert parallel.lut_count == serial.lut_count

    def test_jobs_on_single_group_falls_back_to_serial(self):
        # 9sym has one output — nothing to fan out; jobs must be ignored.
        result = hyde_map(
            build("9sym"), verify="bdd", pack_clbs=False, jobs=4
        )
        assert result.details["perf"]["jobs_used"] == 1


def _signal_dispositions():
    import signal

    return (
        signal.getsignal(signal.SIGTERM) is signal.SIG_DFL,
        signal.getsignal(signal.SIGINT) is signal.SIG_IGN,
    )


def test_pool_workers_reset_inherited_signal_handlers():
    """Workers must not inherit graceful_shutdown's raising handler.

    Journaled runs create the pool inside graceful_shutdown(); a forked
    worker inheriting its raise-on-SIGTERM handler can unwind inside
    multiprocessing's queue internals when Pool.terminate() fires,
    leaking the shared inqueue lock and hanging pool teardown (a rare
    but real CI flake).  The initializer restores SIG_DFL/SIG_IGN.
    """
    from repro.mapping.parallel import _make_pool
    from repro.runstate import graceful_shutdown

    with graceful_shutdown():
        pool = _make_pool(2)
        try:
            term_dfl, int_ign = pool.apply(_signal_dispositions)
        finally:
            pool.terminate()
            pool.join()
    assert term_dfl, "worker SIGTERM handler not reset to SIG_DFL"
    assert int_ign, "worker SIGINT not ignored"
