"""Crash-safety substrate: atomic writes, the run journal, task keys.

The invariants under test are the ones ISSUE acceptance hangs on:

* an interrupted/crashed write NEVER leaves a truncated artifact — the
  previous file survives byte for byte and no temp litter remains;
* journal task keys are content-addressed: change the options or the
  cone BLIF and the key changes (stale records can't be replayed);
* a corrupt journaled fragment is rejected at replay time, degrading to
  recomputation instead of splicing garbage;
* the loader tolerates exactly one torn trailing line (the crash-mid-
  append signature) and skips integrity-hash mismatches elsewhere.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.decompose import DecompositionOptions
from repro.mapping.parallel import (
    GroupResult,
    GroupTask,
    check_fragment,
    run_context,
    run_group_tasks,
)
from repro.runstate import (
    JournalError,
    RunJournal,
    atomic_write,
    load_journal,
    open_journal,
    task_key,
    validate_journal,
)

CONE_BLIF = """.model cone
.inputs a b
.outputs f
.names a b f
11 1
.end
"""

FRAGMENT_BLIF = """.model frag
.inputs a b
.outputs f
.names a b f
11 1
.end
"""


def make_task(blif: str = CONE_BLIF, **option_kwargs) -> GroupTask:
    return GroupTask(
        blif_text=blif,
        group=["f"],
        gi=0,
        options=DecompositionOptions(**option_kwargs),
    )


def make_result() -> GroupResult:
    return GroupResult(gi=0, blif_text=FRAGMENT_BLIF, info={"mode": "hyper"})


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "out.txt"
        with atomic_write(path) as handle:
            handle.write("hello\n")
        assert path.read_text() == "hello\n"

    def test_binary_mode(self, tmp_path):
        path = tmp_path / "out.bin"
        with atomic_write(path, mode="wb") as handle:
            handle.write(b"\x00\x01")
        assert path.read_bytes() == b"\x00\x01"

    def test_failure_mid_write_preserves_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("precious\n")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as handle:
                handle.write("half-done")
                raise RuntimeError("crash mid-serialization")
        assert path.read_text() == "precious\n"

    def test_failure_leaves_no_temp_litter(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with atomic_write(path) as handle:
                handle.write("x")
                raise RuntimeError("boom")
        assert os.listdir(tmp_path) == []

    def test_rejects_non_truncating_modes(self, tmp_path):
        for mode in ("a", "r", "w+"):
            with pytest.raises(ValueError):
                with atomic_write(tmp_path / "f", mode=mode):
                    pass


class TestArtifactWritersAreAtomic:
    """The shared-writer satellites: write_trace."""

    def test_write_trace_failure_preserves_old_trace(self, tmp_path):
        from repro import obs

        path = tmp_path / "trace.jsonl"
        recorder = obs.TraceRecorder()
        with obs.installed(recorder):
            with obs.span("root"):
                pass
        obs.write_trace(str(path), recorder, {"run": 1})
        before = path.read_bytes()
        # A meta value json.dumps cannot serialize fails mid-stream —
        # after some records were already written to the temp file.
        with pytest.raises(TypeError):
            obs.write_trace(str(path), recorder, {"bad": {1, 2, 3}})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["trace.jsonl"]


class TestTaskKey:
    def test_stable_for_identical_tasks(self):
        assert task_key(make_task()) == task_key(make_task())

    def test_position_and_runtime_fields_do_not_split_the_key(self):
        base = make_task()
        moved = dataclasses.replace(base, gi=7, attempt=3, trace=True)
        assert task_key(base) == task_key(moved)

    def test_changing_options_changes_the_key(self):
        assert task_key(make_task()) != task_key(make_task(k=4))
        assert task_key(make_task()) != task_key(
            make_task(encoding_policy="random")
        )

    def test_changing_cone_blif_changes_the_key(self):
        other = CONE_BLIF.replace("11 1", "1- 1")
        assert task_key(make_task()) != task_key(make_task(blif=other))

    def test_changing_group_policy_changes_the_key(self):
        base = make_task()
        assert task_key(base) != task_key(
            dataclasses.replace(base, ppi_placement="force_free")
        )
        assert task_key(base) != task_key(
            dataclasses.replace(base, mode="per_output")
        )


class TestRunJournal:
    def test_round_trip_and_validation(self, tmp_path):
        journal = open_journal(tmp_path, "cone", "hyde", 5)
        task = make_task()
        journal.record_group(task_key(task), task, make_result(), 0.25)
        journal.record_verdict(equivalent=True, replayed=0, executed=1)
        journal.record_done(flow="hyde", lut_count=1, seconds=0.3)

        records, problems = load_journal(journal.path)
        assert problems == []
        assert validate_journal(records) == []
        kinds = [r["type"] for r in records]
        assert kinds == ["meta", "group", "verdict", "done"]

        resumed = open_journal(tmp_path, "cone", "hyde", 5, resume=True)
        assert resumed.num_groups == 1
        assert resumed.lookup(task_key(task))["blif"] == FRAGMENT_BLIF
        assert resumed.completed_run()["lut_count"] == 1

    def test_resume_rejects_mismatched_identity(self, tmp_path):
        open_journal(tmp_path, "cone", "hyde", 5)
        with pytest.raises(JournalError, match="different run"):
            RunJournal(
                os.path.join(tmp_path, "cone.hyde.k5.journal.jsonl"),
                circuit="other",
                flow="hyde",
                k=5,
                resume=True,
            )

    def test_fresh_open_truncates_previous_journal(self, tmp_path):
        journal = open_journal(tmp_path, "cone", "hyde", 5)
        task = make_task()
        journal.record_group(task_key(task), task, make_result(), 0.1)
        fresh = open_journal(tmp_path, "cone", "hyde", 5, resume=False)
        assert fresh.num_groups == 0
        records, _ = load_journal(fresh.path)
        assert [r["type"] for r in records] == ["meta"]

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        journal = open_journal(tmp_path, "cone", "hyde", 5)
        task = make_task()
        journal.record_group(task_key(task), task, make_result(), 0.1)
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "group", "key": "dead')  # crash here
        records, problems = load_journal(journal.path)
        assert [r["type"] for r in records] == ["meta", "group"]
        assert any("torn" in p for p in problems)

    def test_tampered_record_is_skipped(self, tmp_path):
        journal = open_journal(tmp_path, "cone", "hyde", 5)
        task = make_task()
        journal.record_group(task_key(task), task, make_result(), 0.1)
        lines = open(journal.path, encoding="utf-8").read().splitlines()
        tampered = json.loads(lines[1])
        tampered["blif"] = tampered["blif"].replace("11 1", "00 1")
        lines[1] = json.dumps(tampered)  # body changed, hash not updated
        with open(journal.path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        records, problems = load_journal(journal.path)
        assert [r["type"] for r in records] == ["meta"]
        assert any("integrity" in p for p in problems)

    def test_completed_run_requires_positive_verdict(self, tmp_path):
        journal = open_journal(tmp_path, "cone", "hyde", 5)
        journal.record_done(flow="hyde", seconds=0.1)
        journal.record_verdict(equivalent=False, replayed=1, executed=0)
        resumed = open_journal(tmp_path, "cone", "hyde", 5, resume=True)
        assert resumed.completed_run() is None


class TestReplayValidation:
    def test_replay_round_trip(self, tmp_path):
        journal = open_journal(tmp_path, "cone", "hyde", 5)
        task = make_task()
        journal.record_group(task_key(task), task, make_result(), 0.5)
        results, report = run_group_tasks(
            [task], run_context(journal=journal)
        )
        assert report.replayed == 1 and report.executed == 0
        assert results[0].blif_text == FRAGMENT_BLIF
        assert results[0].info["replayed"] is True
        assert results[0].seconds == 0.5

    def test_corrupt_fragment_is_rejected(self):
        from repro.testing.faults import corrupt_blif_text

        task = make_task()
        corrupt = corrupt_blif_text(FRAGMENT_BLIF, seed=1)  # truncation
        assert check_fragment(task, corrupt) is not None

    def test_wrong_outputs_are_rejected(self):
        task = make_task()
        wrong = FRAGMENT_BLIF.replace(".outputs f", ".outputs g").replace(
            "a b f", "a b g"
        )
        assert check_fragment(task, wrong) is not None

    def test_missing_blif_is_rejected(self):
        assert check_fragment(make_task(), None) is not None

    def test_validate_journal_flags_corrupt_fragment(self, tmp_path):
        journal = open_journal(tmp_path, "cone", "hyde", 5)
        task = make_task()
        result = make_result()
        result.blif_text = FRAGMENT_BLIF.replace(".end", "")  # truncated
        journal.record_group(task_key(task), task, result, 0.1)
        records, _ = load_journal(journal.path)
        problems = validate_journal(records)
        assert any("fragment BLIF rejected" in p for p in problems)
