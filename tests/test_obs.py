"""Tests for the observability subsystem (spans, export, CLI rendering)."""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.circuits import build
from repro.mapping import hyde_map
from repro.network import to_blif
from repro.obs import (
    TraceRecorder,
    coverage,
    phase_seconds,
    read_trace,
    render_trace_summary,
    trace_records,
    validate_trace,
    worker_perf_totals,
    write_trace,
)

from .test_cli import run_python

INPUTS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "e2e", "inputs",
)

#: The phase names benchmarks/e2e/workloads.py reads from a trace's
#: ``meta.perf.phase_seconds`` (``splice`` only exists at ``jobs > 1``).
READ_PHASES = (
    "bdd_build", "cluster", "decompose", "cleanup", "verify", "cost",
    "step.varpart", "step.classes", "step.encode",
    "encode.draft", "encode.varpart", "encode.column_sets",
    "encode.row_sets", "encode.chart", "encode.image_rebuild",
)


class TestRecorder:
    def test_nesting_and_times(self):
        rec = TraceRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
            with rec.span("inner"):
                pass
        assert len(rec.roots) == 1
        outer = rec.roots[0]
        assert outer.name == "outer"
        assert [c.name for c in outer.children] == ["inner", "inner"]
        assert outer.total_seconds >= sum(
            c.total_seconds for c in outer.children
        )
        assert outer.self_seconds >= 0.0

    def test_attrs_and_events(self):
        rec = TraceRecorder(proc="main")
        with rec.span("phase", gi=3) as s:
            rec.event("degraded", resolution="retry")
        assert s.attrs == {"gi": 3}
        event = s.children[0]
        assert event.name == "degraded"
        assert event.total_seconds == 0.0
        assert event.attrs["resolution"] == "retry"

    def test_exception_closes_stray_children(self):
        rec = TraceRecorder()
        with pytest.raises(RuntimeError):
            with rec.span("outer"):
                rec._stack[-1]  # outer open
                handle = rec.span("leaked")
                handle.__enter__()
                raise RuntimeError("boom")
        assert rec.roots[0].end is not None
        assert rec.roots[0].children[0].end is not None
        assert not rec._stack

    def test_perf_delta_from_manager(self):
        from repro.bdd import BddManager

        m = BddManager(4)
        rec = TraceRecorder()
        with rec.span("work", manager=m):
            m.apply_and(m.var_at_level(0), m.var_at_level(1))
        perf = rec.roots[0].perf
        assert perf is not None and perf["apply_calls"] >= 1
        # Only changed slots are recorded.
        assert "budget_exceeded" not in perf

    def test_module_functions_are_noops_when_uninstalled(self):
        assert obs.active() is None
        with obs.span("nothing"):
            pass
        assert obs.event("nothing") is None

    def test_install_restore(self):
        rec = TraceRecorder()
        with obs.installed(rec):
            assert obs.active() is rec
            with obs.span("seen"):
                pass
        assert obs.active() is None
        assert rec.roots[0].name == "seen"


class TestPerfCounters:
    def test_counters_hold_integers_only(self):
        from repro.perf import INT_SLOTS, PerfCounters

        perf = PerfCounters()
        assert PerfCounters.__slots__ == INT_SLOTS
        assert not hasattr(perf, "phase") and not hasattr(perf, "merge")
        perf.merge_dict({"apply_calls": 3, "phase_seconds": {"x": 1.0}})
        snap = perf.snapshot()
        assert snap["apply_calls"] == 3
        assert "phase_seconds" not in snap


class TestSerialisation:
    def _sample(self):
        rec = TraceRecorder()
        with rec.span("root", k=5):
            with rec.span("child"):
                pass
            rec.event("mark")
        return rec

    def test_to_dicts_shape(self):
        records = self._sample().to_dicts()
        assert [r["name"] for r in records] == ["root", "child", "mark"]
        root, child, mark = records
        assert root["parent"] is None
        assert child["parent"] == root["id"]
        assert mark["type"] == "event"
        assert root["attrs"] == {"k": 5}

    def test_rebase_starts_at_zero(self):
        records = self._sample().to_dicts(rebase=True)
        assert records[0]["t0"] == 0.0
        assert all(r["t0"] >= 0 for r in records)

    def test_graft_under_open_span(self):
        worker = self._sample().to_dicts(rebase=True)
        parent = TraceRecorder()
        with parent.span("decompose") as d:
            parent.graft(worker, parent=d, offset=d.start)
        grafted = parent.roots[0].children[0]
        assert grafted.name == "root"
        assert grafted.start >= parent.roots[0].start
        assert [c.name for c in grafted.children] == ["child", "mark"]

    def test_round_trip_via_file(self, tmp_path):
        rec = self._sample()
        path = str(tmp_path / "t.jsonl")
        count = write_trace(path, rec, {"flow": "hyde", "circuit": "x"})
        assert count == 4  # meta + 3 spans
        records = read_trace(path)
        assert validate_trace(records) == []
        assert records[0]["flow"] == "hyde"


class TestValidation:
    def _valid(self):
        return trace_records(self._rec(), {"circuit": "x"})

    def _rec(self):
        rec = TraceRecorder()
        with rec.span("root"):
            with rec.span("child"):
                pass
        return rec

    def test_valid_trace_passes(self):
        assert validate_trace(self._valid()) == []

    def test_missing_meta(self):
        records = [r for r in self._valid() if r["type"] != "meta"]
        assert any("meta" in p for p in validate_trace(records))

    def test_bad_version(self):
        records = self._valid()
        records[0]["version"] = 99
        assert any("version" in p for p in validate_trace(records))

    def test_duplicate_id(self):
        records = self._valid()
        records[2]["id"] = records[1]["id"]
        assert any("duplicate" in p for p in validate_trace(records))

    def test_child_escaping_parent(self):
        records = self._valid()
        records[2]["t1"] = records[1]["t1"] + 1.0
        assert any("escapes" in p for p in validate_trace(records))

    def test_unknown_perf_counter(self):
        records = self._valid()
        records[1]["perf"] = {"not_a_counter": 3}
        assert any("unknown perf" in p for p in validate_trace(records))

    def test_negative_counter(self):
        records = self._valid()
        records[1]["perf"] = {"apply_calls": -1}
        assert any("non-negative" in p for p in validate_trace(records))


class TestCoverageAndTotals:
    def test_coverage_full_and_partial(self):
        meta = {"type": "meta", "version": 1}
        base = {"type": "span", "proc": "main", "parent": None}
        root = dict(base, id=0, name="root", t0=0.0, t1=10.0)
        half = dict(base, id=1, name="a", parent=0, t0=0.0, t1=5.0)
        assert coverage([meta, root, half]) == pytest.approx(0.5)
        rest = dict(base, id=2, name="b", parent=0, t0=4.0, t1=10.0)
        assert coverage([meta, root, half, rest]) == pytest.approx(1.0)

    def test_coverage_ignores_worker_children(self):
        meta = {"type": "meta", "version": 1}
        root = {"type": "span", "proc": "main", "parent": None, "id": 0,
                "name": "root", "t0": 0.0, "t1": 10.0}
        task = {"type": "span", "proc": "task:0", "parent": 0, "id": 1,
                "name": "task.group", "t0": 0.0, "t1": 10.0}
        assert coverage([meta, root, task]) == pytest.approx(0.0)

    def test_coverage_none_without_roots(self):
        assert coverage([{"type": "meta", "version": 1}]) is None

    def _span(self, sid, name, parent, t0, t1, proc="main"):
        return {"type": "span", "id": sid, "parent": parent, "name": name,
                "proc": proc, "t0": t0, "t1": t1}

    def test_phase_seconds_counts_a_nested_same_name_once(self):
        records = [
            {"type": "meta", "version": 1},
            self._span(0, "decompose", None, 0.0, 10.0),
            self._span(1, "recurse", 0, 1.0, 9.0),
            self._span(2, "step.varpart", 1, 1.0, 2.0),
            self._span(3, "recurse", 1, 3.0, 8.0),
            self._span(4, "step.varpart", 3, 3.0, 5.0),
            self._span(5, "recurse", 3, 6.0, 7.0),
        ]
        assert phase_seconds(records) == {
            "decompose": 10.0, "recurse": 8.0, "step.varpart": 3.0,
        }

    def test_phase_seconds_leaves_events_out(self):
        records = [
            self._span(0, "verify", None, 0.0, 2.0),
            {"type": "event", "id": 1, "parent": 0, "name": "degraded",
             "proc": "main", "t0": 1.0, "t1": 1.0},
        ]
        assert phase_seconds(records) == {"verify": 2.0}

    def test_phase_seconds_counts_grafted_worker_trees(self):
        worker = TraceRecorder(proc="task:0")
        with worker.span("task.group"):
            with worker.span("step.varpart"):
                pass
        rec = TraceRecorder()
        with rec.span("decompose") as d:
            with rec.span("step.varpart"):
                pass
            rec.graft(worker.to_dicts(rebase=True), parent=d, offset=d.start)
        records = rec.to_dicts()
        local, grafted = (
            r["t1"] - r["t0"] for r in records if r["name"] == "step.varpart"
        )
        phases = phase_seconds(records)
        assert set(phases) == {"decompose", "task.group", "step.varpart"}
        assert phases["step.varpart"] == pytest.approx(
            local + grafted, abs=1e-6
        )

    def test_worker_totals_sum_tree_roots_only(self):
        records = [
            {"type": "span", "proc": "main", "parent": None, "id": 0,
             "name": "root", "t0": 0.0, "t1": 1.0},
            {"type": "span", "proc": "task:0", "parent": 0, "id": 1,
             "name": "task.group", "t0": 0.0, "t1": 1.0,
             "perf": {"apply_calls": 10}},
            # Child delta already included in its root's snapshot diff.
            {"type": "span", "proc": "task:0", "parent": 1, "id": 2,
             "name": "recurse", "t0": 0.0, "t1": 0.5,
             "perf": {"apply_calls": 4}},
            {"type": "span", "proc": "task:1", "parent": 0, "id": 3,
             "name": "task.group", "t0": 0.0, "t1": 1.0,
             "perf": {"apply_calls": 7}},
        ]
        totals = worker_perf_totals(records)
        assert totals["apply_calls"] == 17


class TestFlowIntegration:
    def _traced_map(self, jobs):
        net = build("misex1")
        rec = TraceRecorder()
        with obs.installed(rec):
            with rec.span("flow:hyde", circuit="misex1", k=5, jobs=jobs):
                result = hyde_map(net, k=5, jobs=jobs)
        return rec, result

    def test_serial_trace_covers_run(self):
        rec, result = self._traced_map(jobs=1)
        records = trace_records(rec, {"circuit": "misex1"})
        assert validate_trace(records) == []
        assert coverage(records) >= 0.9
        names = {r["name"] for r in records if r.get("type") == "span"}
        # Every Figure-3 / flow phase shows up.
        for expected in (
            "bdd_build", "decompose", "group", "recurse", "step.varpart",
            "encode.column_sets", "cleanup", "verify", "cost",
        ):
            assert expected in names, f"missing span {expected!r}"

    def test_parallel_trace_merges_worker_counters(self):
        rec, result = self._traced_map(jobs=2)
        records = trace_records(rec, {"circuit": "misex1"})
        assert validate_trace(records) == []
        assert coverage(records) >= 0.9
        totals = worker_perf_totals(records)
        assert totals["apply_calls"] > 0
        # The flow's merged perf includes the workers' counters.
        assert result.details["perf"]["apply_calls"] >= totals["apply_calls"]
        procs = {
            r["proc"] for r in records if r.get("type") in ("span", "event")
        }
        assert any(p.startswith("task:") for p in procs)

    def test_parallel_trace_covers_a_fresh_process(self):
        # Nothing is loaded before the flow runs, so the task runner's
        # import and the cone extraction fall inside the traced flow.
        out = run_python("""
            from repro import obs
            from repro.circuits import build
            from repro.mapping import hyde_map
            from repro.obs import TraceRecorder, coverage, trace_records

            net = build("misex1")
            rec = TraceRecorder()
            with obs.installed(rec):
                with rec.span("flow:hyde", circuit="misex1", k=5, jobs=2):
                    hyde_map(net, k=5, jobs=2)
            print(coverage(trace_records(rec, {"circuit": "misex1"})))
        """)
        assert float(out.stdout.split()[-1]) >= 0.9

    def test_tracing_does_not_change_output(self):
        base = to_blif(hyde_map(build("misex1"), k=5).network)
        _, traced = self._traced_map(jobs=1)
        assert to_blif(traced.network) == base

    def test_report_renders(self):
        rec, _ = self._traced_map(jobs=2)
        records = trace_records(
            rec,
            {"flow": "hyde", "circuit": "misex1", "k": 5, "jobs": 2,
             "perf": {"apply_calls": 123, "apply_hit_rate": 0.5}},
        )
        text = render_trace_summary(records)
        assert "hyde on misex1" in text
        assert "span tree" in text
        assert "task.group" in text
        assert "worker apply calls" in text


class TestCli:
    def test_map_trace_and_check(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "out.jsonl")
        assert main(
            ["map", "misex1", "--jobs", "2", "--trace", path]
        ) == 0
        out = capsys.readouterr().out
        assert "trace records" in out
        records = read_trace(path)
        assert validate_trace(records) == []
        assert records[0]["circuit"] == "misex1"
        assert records[0]["perf"]["apply_calls"] > 0
        assert records[0]["perf"]["nodes_allocated"] > 0
        assert records[0]["perf"]["shannon_splits"] == 1

        assert main(["trace", path]) == 0
        rendered = capsys.readouterr().out
        assert "span tree" in rendered
        assert "BDD nodes allocated" in rendered
        assert "Shannon fallbacks" in rendered

        assert main(
            ["trace", path, "--check", "--min-coverage", "0.9"]
        ) == 0
        assert "trace ok" in capsys.readouterr().out

    def test_trace_names_the_exact_path_and_width(self, tmp_path, capsys):
        from repro.cli import main

        def attrs_of(path, name):
            return [
                record.get("attrs") or {}
                for record in read_trace(path)
                if record.get("name") == name
            ]

        # b9 has 41 inputs: the whole-network check builds global BDDs,
        # while its portfolio fragments' cones are narrow enough to pack.
        path = str(tmp_path / "b9.jsonl")
        assert main(["map", "b9", "--portfolio", "--trace", path]) == 0
        assert attrs_of(path, "verify") == [{"path": "bdd", "width": 41}]
        checks = attrs_of(path, "check")
        assert checks and any(a["path"] == "packed" for a in checks)
        for attrs in checks:
            wide = attrs["width"] > 20
            assert attrs["path"] == ("bdd" if wide else "packed")
        path = str(tmp_path / "z4ml.jsonl")
        assert main(["map", "z4ml", "--trace", path]) == 0
        assert attrs_of(path, "verify") == [{"path": "packed", "width": 7}]
        assert main(["map", "z4ml", "--verify", "sim", "--trace", path]) == 0
        assert attrs_of(path, "verify") == [{}]

    def test_stats_reports_nodes_allocated(self, capsys):
        from repro.cli import main

        assert main(["stats", "z4ml"]) == 0
        line = next(
            line for line in capsys.readouterr().out.splitlines()
            if "BDD nodes allocated" in line
        )
        assert int(line.split()[-1]) > 0

    def test_stats_and_trace_report_peak_rss(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "out.jsonl")
        assert main(["stats", "z4ml", "--trace", path]) == 0
        (line,) = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("peak RSS: ")]
        assert float(line.split()[2]) > 0
        records = read_trace(path)
        assert validate_trace(records) == []
        rss = records[0]["perf"]["peak_rss_mb"]
        assert rss > 0
        assert main(["trace", path]) == 0
        header = capsys.readouterr().out.splitlines()[1]
        assert f", peak RSS {rss:.1f} MB" in header

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_trace_meta_derives_phase_seconds(self, tmp_path, capsys, jobs):
        from repro.cli import main

        path = str(tmp_path / "out.jsonl")
        source = os.path.join(INPUTS, "misex1.blif")
        assert main([
            "blif", source, "-o", str(tmp_path / "misex1.blif"),
            "--jobs", str(jobs), "--trace", path,
        ]) == 0
        capsys.readouterr()
        records = read_trace(path)
        phases = records[0]["perf"]["phase_seconds"]
        # The file's times are rounded to the microsecond.
        assert phases == pytest.approx(phase_seconds(records), abs=1e-5)
        expected = READ_PHASES + (("splice",) if jobs > 1 else ())
        for name in expected:
            assert phases.get(name, 0.0) > 0, name

    def test_stats_reports_phase_wall_times(self, capsys):
        from repro.cli import main

        assert main(["stats", "misex1"]) == 0
        out = capsys.readouterr().out
        block = out.split("phase wall times:\n", 1)[1].split("counters:")[0]
        names = {line.split()[0] for line in block.splitlines()}
        assert set(READ_PHASES) <= names
        # Spans nested in a same-named one count once: the recursion
        # never outlasts the flow that holds it.
        seconds = {
            line.split()[0]: float(line.split()[1].rstrip("s"))
            for line in block.splitlines()
        }
        assert seconds["recurse"] <= seconds["flow:hyde"]

    def test_stats_reports_shannon_fallbacks(self, capsys):
        from repro.cli import main

        assert main(["stats", "misex1"]) == 0
        line = next(
            line for line in capsys.readouterr().out.splitlines()
            if "Shannon fallbacks" in line
        )
        assert int(line.split()[-1]) == 1

    def test_stats_reports_class_searches_and_peak_nodes(self, capsys):
        # count's wide draft images are searched from their class
        # functions, inside scratch scopes that lower the live count.
        from repro.cli import main

        assert main(["stats", "count"]) == 0
        rows = {
            line.rsplit(None, 1)[0].strip(): line.split()[-1]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ")
        }
        assert int(rows["class-function searches"]) > 0
        assert int(rows["peak_nodes"]) > int(rows["num_nodes"])

    def test_portfolio_peak_nodes_is_the_largest_task_peak(
        self, monkeypatch
    ):
        # Under --portfolio every group decomposes in a task manager of
        # its own; their peak, not the parent manager's, is the run's.
        import os

        import repro.mapping.parallel as parallel
        from repro.mapping import hyde_map
        from repro.network import GlobalBdds, read_blif

        managers = []

        class RecordedBdds(GlobalBdds):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                managers.append(self.manager)

        monkeypatch.setattr(parallel, "GlobalBdds", RecordedBdds)
        source = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "benchmarks", "e2e", "inputs", "misex1.blif",
        )
        result = hyde_map(read_blif(source), 5, portfolio=True, verify="none")
        peaks = [m.stats()["peak_nodes"] for m in managers]
        assert len(peaks) > 1
        # misex1's parent manager peaks lower than its largest task.
        assert result.details["perf"]["engine"]["peak_nodes"] == max(peaks)

    def test_portfolio_trace_grafts_every_variant(self, tmp_path, capsys):
        # Every raced variant's task tree hangs under the portfolio
        # span, winners and losers alike, so its children account for
        # its time.
        import os

        from repro.cli import main

        source = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "benchmarks", "e2e", "inputs", "b9.blif",
        )
        path = str(tmp_path / "out.jsonl")
        argv = ["blif", source, "-o", str(tmp_path / "b9.blif")]
        assert main(argv + ["--portfolio", "--trace", path]) == 0
        capsys.readouterr()
        records = read_trace(path)
        assert validate_trace(records) == []
        spans = [r for r in records if r.get("type") == "span"]
        (portfolio,) = [r for r in spans if r["name"] == "portfolio"]
        children = [r for r in spans if r["parent"] == portfolio["id"]]
        trees = [r for r in children if r["name"] == "task.group"]
        assert len(trees) == portfolio["attrs"]["variants"]
        wins = {}
        for tree in trees:
            attrs = tree["attrs"]
            assert attrs["strategy"] in ("hyper", "per_output", "column",
                                         "structural")
            wins[attrs["won"]] = wins.get(attrs["won"], 0) + 1
        assert wins[True] == portfolio["attrs"]["groups"]
        assert wins[False] > 0
        covered, last = 0.0, portfolio["t0"]
        for child in sorted(children, key=lambda r: r["t0"]):
            covered += max(0.0, child["t1"] - max(child["t0"], last))
            last = max(last, child["t1"])
        assert covered >= 0.9 * (portfolio["t1"] - portfolio["t0"])

    def test_check_rejects_corrupt_trace(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "bad.jsonl")
        records = [
            {"type": "meta", "version": 1},
            {"type": "span", "id": 0, "parent": None, "name": "r",
             "proc": "main", "t0": 0.0, "t1": 1.0},
            {"type": "span", "id": 0, "parent": None, "name": "dup",
             "proc": "main", "t0": 0.0, "t1": 1.0},
        ]
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        assert main(["trace", path, "--check"]) == 1
        assert "duplicate" in capsys.readouterr().out
