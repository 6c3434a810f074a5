"""Interrupted-then-resumed runs: the headline crash-safety contract.

The acceptance bar from the issue, verified end to end for both
journaled flows at ``jobs=1`` and ``jobs=2``:

* a run stopped by ``parent_kill@N`` (the deterministic stand-in for a
  real SIGTERM — same ``ShutdownRequested`` path, no delivery race)
  raises :class:`~repro.runstate.RunInterrupted` with the journal path;
* resuming produces a network **byte-identical** to an uninterrupted
  journaled run, replays every journaled group, re-executes zero of
  them, and records a positive equivalence verdict;
* changing the decomposition options between runs invalidates every
  task key, so a resume re-executes everything instead of splicing
  stale fragments.
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

from repro.circuits import build
from repro.cli import EXIT_INTERRUPTED, main
from repro.mapping import hyde_map, map_per_output
from repro.network import (
    EquivalenceError,
    check_equivalence,
    parse_blif,
    to_blif,
    verdict,
)
from repro.runstate import (
    RunInterrupted,
    journal_path,
    load_journal,
    open_journal,
)
from repro.testing import FaultPlan

CIRCUIT = "misex1"

INPUTS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "e2e", "inputs",
)


def rename_first_input(blif: str, new: str = "zz_unknown") -> str:
    """The fragment with its first PI renamed everywhere it is read."""
    first = next(
        line.split()[1] for line in blif.splitlines()
        if line.startswith(".inputs")
    )
    return re.sub(rf"(?<!\S){re.escape(first)}(?!\S)", new, blif)


def run_flow(flow, journal, jobs=1, faults=None, **kwargs):
    net = build(CIRCUIT)
    return flow(
        net, k=5, jobs=jobs, journal=journal, faults=faults,
        pack_clbs=False, **kwargs,
    )


def journal_records(journal):
    records, problems = load_journal(journal.path)
    assert problems == []
    return records


def rewrite_first_group(path, rewrite) -> None:
    """Replace the first group record's BLIF by ``rewrite(blif)`` and fix
    up its integrity hash: a plausible-looking but altered record."""
    from repro.runstate.journal import _record_hash

    lines = open(path, encoding="utf-8").read().splitlines()
    for index, line in enumerate(lines):
        record = json.loads(line)
        if record["type"] == "group":
            record["blif"] = rewrite(record["blif"])
            record.pop("h")
            record["h"] = _record_hash(record)
            lines[index] = json.dumps(
                record, sort_keys=True, separators=(",", ":")
            )
            break
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def wrong_fragment(blif: str) -> str:
    """A fragment with the same interface that computes something else."""
    from repro.verify import apply_mutation, sample_mutations

    fragment = parse_blif(blif)
    for mutation in sample_mutations(fragment, 20, seed=0):
        mutant = apply_mutation(fragment, mutation)
        if verdict(fragment, mutant).failing is not None:
            return to_blif(mutant)
    raise AssertionError("no unmasked mutation of the fragment")


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "flow,label",
    [(hyde_map, "hyde"), (map_per_output, "per-output")],
    ids=["hyde", "per-output"],
)
class TestInterruptedThenResumed:
    def test_resume_is_byte_identical(self, tmp_path, flow, label, jobs):
        # Reference: an uninterrupted journaled run (the journal forces
        # the task path, so naming matches what a resumed run produces).
        ref = run_flow(
            flow, open_journal(tmp_path / "ref", CIRCUIT, label, 5), jobs=jobs
        )
        total = len([g for g in ref.groups if g]) if label == "hyde" else None

        # Interrupt after the first journaled group.
        journal = open_journal(tmp_path / "ckpt", CIRCUIT, label, 5)
        with pytest.raises(RunInterrupted) as err:
            run_flow(
                flow, journal, jobs=jobs,
                faults=FaultPlan(parent_kill_after=1),
            )
        assert err.value.journal_path == journal.path
        assert err.value.completed == 1
        records = journal_records(journal)
        groups_before = sum(1 for r in records if r["type"] == "group")
        assert groups_before == 1
        assert any(
            r["type"] == "event" and r["kind"] == "interrupted"
            for r in records
        )
        assert not any(r["type"] == "done" for r in records)

        # Resume: replay the journaled group, execute only the rest.
        resumed_journal = open_journal(
            tmp_path / "ckpt", CIRCUIT, label, 5, resume=True
        )
        assert resumed_journal.num_groups == 1
        result = run_flow(flow, resumed_journal, jobs=jobs)

        assert to_blif(result.network) == to_blif(ref.network)
        assert check_equivalence(build(CIRCUIT), result.network) is None
        info = result.details["journal"]
        assert info["replayed"] == 1  # zero journaled groups re-executed
        if total is not None:
            assert info["executed"] == total - 1

        records = journal_records(resumed_journal)
        verdicts = [r for r in records if r["type"] == "verdict"]
        assert verdicts and verdicts[-1]["equivalent"] is True
        assert verdicts[-1]["replayed"] == 1
        assert verdicts[-1]["engine"] == "bdd"
        assert any(r["type"] == "done" for r in records)

    def test_completed_run_resumes_with_zero_execution(
        self, tmp_path, flow, label, jobs
    ):
        first = run_flow(
            flow, open_journal(tmp_path, CIRCUIT, label, 5), jobs=jobs
        )
        again = run_flow(
            flow,
            open_journal(tmp_path, CIRCUIT, label, 5, resume=True),
            jobs=jobs,
        )
        assert to_blif(again.network) == to_blif(first.network)
        info = again.details["journal"]
        assert info["executed"] == 0
        assert info["replayed"] >= 1


class TestKeyInvalidation:
    def test_option_change_forces_reexecution(self, tmp_path):
        run_flow(hyde_map, open_journal(tmp_path, CIRCUIT, "hyde", 5))
        # Same circuit, same journal — but different decomposition
        # options, so every content-addressed key misses.
        result = run_flow(
            hyde_map,
            open_journal(tmp_path, CIRCUIT, "hyde", 5, resume=True),
            use_dontcares=False,
        )
        info = result.details["journal"]
        assert info["replayed"] == 0
        assert info["executed"] >= 1
        assert check_equivalence(build(CIRCUIT), result.network) is None

    def test_tampered_fragment_forces_reexecution(self, tmp_path):
        journal = open_journal(tmp_path, CIRCUIT, "hyde", 5)
        run_flow(hyde_map, journal)
        # Corrupt one journaled fragment *and* fix up its integrity hash
        # (simulating a plausible-looking but wrong record): the replay
        # validation layer must still reject it and re-execute.
        rewrite_first_group(journal.path, lambda blif: blif[: len(blif) // 2])
        result = run_flow(
            hyde_map,
            open_journal(tmp_path, CIRCUIT, "hyde", 5, resume=True),
        )
        info = result.details["journal"]
        assert info["executed"] >= 1  # the corrupt record was not spliced
        assert check_equivalence(build(CIRCUIT), result.network) is None


    def test_fragment_reading_unknown_input_forces_reexecution(
        self, tmp_path
    ):
        # A well-formed record with a fixed-up hash whose fragment reads
        # an input outside its cone: only the validator's inputs check
        # stands between it and a splice that cannot resolve the fanin.
        journal = open_journal(tmp_path, CIRCUIT, "hyde", 4)
        ref = hyde_map(build(CIRCUIT), k=4, journal=journal, pack_clbs=False)
        rewrite_first_group(journal.path, rename_first_input)
        assert journal_records(journal)  # the tampered record loads
        result = hyde_map(
            build(CIRCUIT), k=4, pack_clbs=False,
            journal=open_journal(tmp_path, CIRCUIT, "hyde", 4, resume=True),
        )
        assert result.details["journal"]["executed"] == 1
        assert to_blif(result.network) == to_blif(ref.network)


def test_interrupted_portfolio_reports_journaled_counts(tmp_path, capsys):
    """The interruption message and the resume report count the tasks the
    journal holds — under ``--portfolio`` those are strategy variants."""
    argv = [
        "blif", os.path.join(INPUTS, "5xp1.blif"), "--portfolio",
        "--checkpoint", str(tmp_path),
    ]
    code = main(argv + ["--inject-faults", "parent_kill@3"])
    assert code == EXIT_INTERRUPTED
    out = capsys.readouterr().out
    path = journal_path(str(tmp_path), "5xp1", "hyde", 5)
    records, problems = load_journal(path)
    assert problems == []
    event = next(r for r in records if r.get("kind") == "interrupted")
    done, total = event["completed"], event["total"]
    assert done == 3 == sum(1 for r in records if r["type"] == "group")
    assert f"interrupted (injected_parent_kill): {done}/{total} groups" in out

    assert main(argv + ["--resume"]) == 0
    out = capsys.readouterr().out
    assert (
        f"{done} group(s) replayed from journal, {total - done} executed"
        in out
    )


class TestWholeNetworkVerdict:
    """A resumed run's one check, and what the journal says about it."""

    def test_resumed_run_checks_the_network_once(self, tmp_path, monkeypatch):
        from repro.network import equiv

        run_flow(hyde_map, open_journal(tmp_path, CIRCUIT, "hyde", 5))
        real = equiv.check_equivalence
        whole = []

        def counting(a, b):
            if a.name == CIRCUIT:  # fragment checks compare cones
                whole.append(b.name)
            return real(a, b)

        # Every module that bound the engine itself, so no caller of the
        # engine goes uncounted.
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and (
                vars(module).get("check_equivalence") is real
            ):
                monkeypatch.setattr(module, "check_equivalence", counting)
        result = run_flow(
            hyde_map,
            open_journal(tmp_path, CIRCUIT, "hyde", 5, resume=True),
            verify="bdd",
        )
        assert result.details["journal"]["replayed"] >= 1
        assert len(whole) == 1

    @pytest.mark.parametrize(
        "verify,engine",
        [("bdd", "bdd"), ("none", "bdd"), ("finegrain", "finegrain")],
    )
    def test_wrong_replayed_fragment_is_journaled_and_raises(
        self, tmp_path, capsys, verify, engine
    ):
        journal = open_journal(tmp_path, CIRCUIT, "hyde", 5)
        run_flow(hyde_map, journal, verify=verify)
        fresh = len(journal_records(journal))
        rewrite_first_group(journal.path, wrong_fragment)
        resumed = open_journal(tmp_path, CIRCUIT, "hyde", 5, resume=True)
        with pytest.raises(EquivalenceError) as excinfo:
            run_flow(hyde_map, resumed, verify=verify)
        assert isinstance(excinfo.value, AssertionError)
        assert resumed.path in str(excinfo.value)

        added = journal_records(resumed)[fresh:]
        verdicts = [r for r in added if r["type"] == "verdict"]
        assert len(verdicts) == 1
        last = verdicts[0]
        assert last["equivalent"] is False and last["engine"] == engine
        assert last["replayed"] >= 1 and last["detail"]
        assert not any(r["type"] == "done" for r in added)
        cones = [r for r in added if r.get("kind") == "failing_cone"]
        assert len(cones) == (1 if engine == "finegrain" else 0)
        if cones:
            assert "cone at" in str(excinfo.value)
            assert cones[0]["output"] in last["detail"]
        assert resumed.completed_run() is None

        capsys.readouterr()
        assert main(["journal", resumed.path, "--check"]) == 1
        assert "last equivalence verdict is negative" in capsys.readouterr().out


class TestHarnessResume:
    def test_sweep_skips_completed_runs(self, tmp_path):
        from repro.harness import run_experiment

        calls = {"n": 0}

        def counted_hyde(net, k, verify="bdd", **kw):
            calls["n"] += 1
            return hyde_map(net, k, verify=verify, pack_clbs=False, **kw)

        flows = {"hyde": counted_hyde}
        first = run_experiment(
            "exp", flows, ["z4ml"], checkpoint_dir=str(tmp_path)
        )
        assert calls["n"] == 1
        rec = first.circuits[0].flows["hyde"]
        assert rec.error is None

        again = run_experiment(
            "exp", flows, ["z4ml"], checkpoint_dir=str(tmp_path), resume=True
        )
        assert calls["n"] == 1  # journaled run skipped outright
        skipped = again.circuits[0].flows["hyde"]
        assert skipped.lut_count == rec.lut_count
        assert skipped.error is None

    def test_resumed_sweep_reports_the_resub_network(self, tmp_path):
        from repro.harness import run_experiment
        from repro.mapping import map_per_output_resub

        flows = {"resub": map_per_output_resub}
        for resume in (False, True):
            record = run_experiment(
                "exp", flows, ["5xp1"], checkpoint_dir=str(tmp_path),
                resume=resume,
            )
            rec = record.circuits[0].flows["resub"]
            assert rec.error is None
            assert (rec.lut_count, rec.clb_count) == (15, 9)


class TestUncheckedRuns:
    def test_unchecked_run_is_not_a_completed_run(self, tmp_path, capsys):
        journal = open_journal(tmp_path, "z4ml", "hyde", 5)
        hyde_map(
            build("z4ml"), k=5, journal=journal, verify="none",
            pack_clbs=False,
        )
        verdicts = [
            r for r in journal_records(journal) if r["type"] == "verdict"
        ]
        assert verdicts[-1]["equivalent"] is None
        assert verdicts[-1]["engine"] == "none"
        resumed = open_journal(tmp_path, "z4ml", "hyde", 5, resume=True)
        assert resumed.completed_run() is None

        capsys.readouterr()
        assert main(["journal", journal.path]) == 0
        assert "verdict: unchecked" in capsys.readouterr().out
        assert main(["journal", journal.path, "--check"]) == 0
        out = capsys.readouterr().out
        assert "unchecked" in out and "journal ok" in out

        # The resumed run replays its groups, so it is checked with bdd
        # even under --verify none, and only then counts as complete.
        result = hyde_map(
            build("z4ml"), k=5, journal=resumed, verify="none",
            pack_clbs=False,
        )
        assert result.details["journal"]["replayed"] >= 1
        last = [
            r for r in journal_records(resumed) if r["type"] == "verdict"
        ][-1]
        assert last["equivalent"] is True and last["engine"] == "bdd"
        again = open_journal(tmp_path, "z4ml", "hyde", 5, resume=True)
        assert again.completed_run()["lut_count"] == result.lut_count
