"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def run_python(code, hash_seed="0"):
    """Run ``code`` in a fresh interpreter with this checkout's package."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, check=True,
    )


class TestCli:
    def test_circuits_listing(self, capsys):
        assert main(["circuits"]) == 0
        out = capsys.readouterr().out
        assert "9sym" in out and "exact" in out

    def test_map_circuit(self, capsys):
        assert main(["map", "z4ml", "--flow", "hyde"]) == 0
        out = capsys.readouterr().out
        assert "z4ml" in out and "LUTs" in out

    def test_map_writes_blif(self, tmp_path, capsys):
        target = tmp_path / "out.blif"
        assert main(
            ["map", "rd73", "--flow", "shannon", "-o", str(target)]
        ) == 0
        text = target.read_text()
        assert ".model" in text and ".end" in text
        from repro.network import check_equivalence, read_blif
        from repro.circuits import build
        assert check_equivalence(read_blif(str(target)), build("rd73")) is None

    def test_blif_round_trip(self, tmp_path, capsys):
        from repro.circuits import build
        from repro.network import write_blif
        source = tmp_path / "in.blif"
        write_blif(build("z4ml"), str(source))
        assert main(["blif", str(source), "--flow", "random"]) == 0
        out = capsys.readouterr().out
        assert "LUTs" in out

    @pytest.mark.parametrize("flow", ["shannon", "structural"])
    def test_serial_flows_name_the_flags_they_ignore(self, flow, tmp_path,
                                                     capsys):
        argv = ["map", "z4ml", "--flow", flow]
        assert main(argv + ["--cost", "delay"]) == 0
        notes = [line for line in capsys.readouterr().out.splitlines()
                 if "ignored for" in line]
        assert notes == [
            "  [--cost only apply to ['column', 'hyde', 'per-output', "
            f"'random', 'resub']; ignored for {flow}]"
        ]
        assert main(argv + [
            "--jobs", "2", "--timeout", "30", "--retries", "2",
            "--max-bdd-nodes", "100000", "--inject-faults", "crash@0",
            "--checkpoint", str(tmp_path / "ckpt"),
            "--cache", str(tmp_path / "store.db"),
        ]) == 0
        (note,) = [line for line in capsys.readouterr().out.splitlines()
                   if "ignored for" in line]
        assert note.startswith(
            "  [--jobs, --timeout, --retries, --max-bdd-nodes, "
            "--inject-faults, --checkpoint, --cache only apply to "
        )

    def test_flows_that_take_the_flags_print_no_note(self, capsys):
        assert main(["map", "z4ml", "--flow", "hyde", "--cost", "delay"]) == 0
        assert main(["map", "z4ml", "--flow", "all", "--cost", "delay"]) == 0
        assert "ignored for" not in capsys.readouterr().out

    def test_unknown_circuit_rejected(self):
        with pytest.raises(SystemExit):
            main(["map", "nonesuch"])

    @pytest.mark.parametrize("command", ["blif", "exact", "verify"])
    def test_bad_input_file_is_one_line_error(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing.blif")
        broken = tmp_path / "broken.blif"
        broken.write_text(".model x\n.inputs a\n.outputs f\n"
                          ".names a b f\n11 1\n.end\n")
        for path, reason in [(missing, "No such file"),
                             (str(broken), "line 4: undefined signals")]:
            argv = [command, path] + ([path] if command == "verify" else [])
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and reason in err
            assert len(err.splitlines()) == 1

    def test_bad_output_path_is_one_line_error(self, tmp_path, capsys):
        source = tmp_path / "in.blif"
        source.write_text(".model x\n.inputs a b\n.outputs f\n"
                          ".names a b f\n11 1\n.end\n")
        missing = tmp_path / "missing"
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        cases = [
            (["blif", str(source), "-o"], f"{missing}/x.blif",
             "No such file or directory"),
            (["blif", str(source), "--trace"], f"{missing}/t.jsonl",
             "No such file or directory"),
            (["exact", str(source), "-o"], f"{missing}/x.blif",
             "No such file or directory"),
            (["map", "z4ml", "--checkpoint"], f"{a_file}/ckpt",
             "Not a directory"),
            (["serve", "--store"], f"{a_file}/store.db", "Not a directory"),
            # Passes the directory check; the write itself then fails.
            (["blif", str(source), "-o"], str(tmp_path), "Is a directory"),
        ]
        for argv, path, reason in cases:
            assert main(argv + [path]) == 2, argv
            captured = capsys.readouterr()
            assert captured.err == f"error: {path}: {reason}\n", argv
        assert not missing.exists()

    @pytest.mark.parametrize("finegrain", [False, True])
    def test_verify_reports_interface_mismatch(self, tmp_path, capsys,
                                               finegrain):
        golden = tmp_path / "golden.blif"
        golden.write_text(".model g\n.inputs a b\n.outputs f\n"
                          ".names a b f\n11 1\n.end\n")
        other_inputs = tmp_path / "inputs.blif"
        other_inputs.write_text(".model m\n.inputs a c\n.outputs f\n"
                                ".names a c f\n11 1\n.end\n")
        other_outputs = tmp_path / "outputs.blif"
        other_outputs.write_text(".model m\n.inputs a b\n.outputs g\n"
                                 ".names a b g\n11 1\n.end\n")
        flags = ["--finegrain"] if finegrain else []
        for mapped, mismatch in [(other_inputs, "input"),
                                 (other_outputs, "output")]:
            argv = ["verify", str(golden), str(mapped)] + flags
            assert main(argv) == 1
            out = capsys.readouterr().out
            assert out.startswith("NOT equivalent: ") and mismatch in out
            assert len(out.splitlines()) == 1

    def test_bad_record_file_is_one_line_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        not_json = tmp_path / "trace.jsonl"
        not_json.write_text("{}\nnot json\n")
        no_port = tmp_path / "svc.json"
        no_port.write_text('{"host": "127.0.0.1", "pid": 1}')
        cases = [
            (["trace", missing], missing, "No such file"),
            (["trace", str(not_json)], str(not_json), "line 2: not valid JSON"),
            (["journal", missing], missing, "No such file"),
            (["submit", "misex1", "--info", missing], missing, "No such file"),
            (["submit", "misex1", "--info", str(no_port)], str(no_port),
             "needs host and port"),
            (["health", "--info", missing], missing, "No such file"),
        ]
        for argv, path, reason in cases:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and reason in err, err
            assert len(err.splitlines()) == 1

    def test_cache_refuses_a_missing_store(self, tmp_path, capsys):
        typo = tmp_path / "sub" / "TYPO.db"
        assert main(["cache", str(typo), "--check"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {typo}: no such result store\n"
        assert not (tmp_path / "sub").exists()
        garbage = tmp_path / "garbage.db"
        garbage.write_text("not a database\n")
        assert main(["cache", str(garbage), "--check"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {garbage}: ")


def run_cli(*argv):
    """``repro ARGV`` in a fresh interpreter; the exit code is not checked."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        env=env, capture_output=True, text=True,
    )


Z4ML = os.path.join(
    os.path.dirname(SRC), "benchmarks", "e2e", "inputs", "z4ml.blif"
)


class TestBadFlagValues:
    """A bad flag value ends in one ``error:`` line, not a traceback."""

    def test_lut_size_below_the_command_minimum(self):
        for argv, minimum in [
            (["map", "5xp1", "-k", "2"], 3),
            (["blif", Z4ML, "--flow", "shannon", "-k", "2"], 3),
            (["stats", "5xp1", "-k", "1"], 3),
            (["exact", Z4ML, "-k", "1"], 2),
        ]:
            proc = run_cli(*argv)
            assert proc.returncode == 2, argv
            assert "Traceback" not in proc.stderr, argv
            assert f"argument -k: must be at least {minimum}" in proc.stderr

    @pytest.mark.parametrize("flag", ["--cost", "--inject-faults"])
    def test_bad_spec(self, flag):
        proc = run_cli("map", "5xp1", flag, "bogus")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: {flag}: bad ")
        assert len(proc.stderr.splitlines()) == 1

    def test_timeout_must_be_above_zero(self, capsys):
        # submit and health used to end in a socket traceback.
        for argv in (
            ["map", "z4ml", "--timeout", "-1"],
            ["stats", "z4ml", "--timeout", "0"],
            ["submit", "z4ml", "--port", "1", "--timeout", "-1"],
            ["health", "--port", "1", "--timeout", "0"],
        ):
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 2, argv
            assert "argument --timeout: must be above 0" in (
                capsys.readouterr().err
            )

    def test_jobs_must_be_at_least_one(self, tmp_path, capsys):
        store = tmp_path / "store.db"
        for argv in (
            ["map", "z4ml", "--jobs", "0"],
            ["blif", Z4ML, "--jobs", "-1"],
            ["stats", "z4ml", "--jobs", "0"],
            ["serve", "--store", str(store), "--jobs", "0"],
        ):
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 2, argv
            assert "argument --jobs: must be at least 1" in (
                capsys.readouterr().err
            )
        assert not store.exists()

    def test_retries_must_not_be_negative(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["map", "z4ml", "--retries", "-1"])
        assert exit_.value.code == 2
        assert "argument --retries: must be at least 0" in (
            capsys.readouterr().err
        )
        assert main(["map", "z4ml", "--retries", "0"]) == 0

    def test_max_bdd_nodes_must_be_at_least_one(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["map", "z4ml", "--max-bdd-nodes", "0"])
        assert exit_.value.code == 2
        assert "argument --max-bdd-nodes: must be at least 1" in (
            capsys.readouterr().err
        )

    def test_budget_trip_without_a_policy(self):
        proc = run_cli("map", "5xp1", "--max-bdd-nodes", "10")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: hyde: BDD budget exceeded: ")
        assert "--retries" in proc.stderr
        assert len(proc.stderr.splitlines()) == 1


class TestProcess:
    def test_cli_run_imports_neither_numpy_nor_networkx(self, tmp_path):
        source = tmp_path / "z4ml.blif"
        out = run_python(f"""
            import sys
            from repro.circuits import build
            from repro.network import write_blif
            from repro.cli import main
            write_blif(build("z4ml"), {str(source)!r})
            assert main(["blif", {str(source)!r},
                         "-o", {str(tmp_path / "out.blif")!r}]) == 0
            print(sorted({{"numpy", "networkx"}} & set(sys.modules)))
        """)
        assert out.stdout.splitlines()[-1] == "[]"

    def test_commands_import_only_what_they_run(self, tmp_path):
        # The input is written here, so the child loads no circuit code.
        from repro.circuits import build
        from repro.network import write_blif

        source = tmp_path / "z4ml.blif"
        write_blif(build("z4ml"), str(source))
        out = run_python(f"""
            import sys
            import repro.cli
            print(sorted(m for m in {{
                "repro.mapping", "repro.decompose", "repro.bdd",
                "repro.service", "repro.exact", "repro.verify",
                "repro.harness.runner",
            }} if m in sys.modules))
            assert repro.cli.main(["blif", {str(source)!r},
                                   "-o", {str(tmp_path / "out.blif")!r}]) == 0
            print(sorted(m for m in {{
                "repro.mapping.parallel", "repro.runstate.journal",
                "repro.mapping.baselines", "repro.service", "repro.exact",
                "repro.verify", "multiprocessing", "sqlite3",
            }} if m in sys.modules))
        """)
        assert out.stdout.splitlines()[0] == "[]"
        assert out.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("flow", ["shannon", "structural"])
    def test_serial_flows_build_no_store_or_task_runner(self, tmp_path, flow):
        from repro.circuits import build
        from repro.network import write_blif

        source = tmp_path / "z4ml.blif"
        write_blif(build("z4ml"), str(source))
        store = tmp_path / "store.db"
        out = run_python(f"""
            import sys
            from repro.cli import main
            assert main(["blif", {str(source)!r}, "--flow", {flow!r},
                         "--cache", {str(store)!r}, "--timeout", "5",
                         "--retries", "2", "--inject-faults", "crash@0"]) == 0
            print(sorted(m for m in {{
                "repro.mapping.parallel", "repro.testing", "repro.service",
                "sqlite3", "multiprocessing",
            }} if m in sys.modules))
        """)
        assert "ignored for " + flow in out.stdout
        assert out.stdout.splitlines()[-1] == "[]"
        assert not store.exists()

    def test_closed_pipe_ends_without_traceback(self, tmp_path):
        # A trace whose summary far outgrows a pipe buffer: the command
        # is still writing when the reader goes away after one line.
        trace = tmp_path / "wide.jsonl"
        lines = [json.dumps({"type": "meta", "version": 1, "flow": "hyde",
                             "circuit": "wide", "k": 5, "jobs": 1})]
        lines += [
            json.dumps({"type": "span", "id": i, "parent": None,
                        "name": f"phase{i:05d}", "proc": "main",
                        "t0": 0.0, "t1": 0.001})
            for i in range(4000)
        ]
        trace.write_text("\n".join(lines) + "\n")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "trace", str(trace)],
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().startswith(b"trace: hyde on wide")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert "Traceback" not in err and len(err.splitlines()) <= 1

    def test_closed_pipe_keeps_the_output_file(self, tmp_path):
        # The "--jobs ... ignored" note is printed before the mapping
        # starts; the reader goes away after it, so every print after
        # the mapping meets a closed pipe.
        source = os.path.join(
            os.path.dirname(SRC), "benchmarks", "e2e", "inputs", "apex7.blif"
        )
        argv = [sys.executable, "-m", "repro.cli", "blif", source,
                "--flow", "shannon", "--jobs", "2", "-o"]
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
        piped = tmp_path / "piped.blif"
        proc = subprocess.Popen(
            argv + [str(piped)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert b"ignored for shannon" in proc.stdout.readline()
        proc.stdout.close()
        proc.wait(timeout=120)
        proc.stderr.close()
        reference = tmp_path / "reference.blif"
        subprocess.run(
            argv + [str(reference)], env=env, check=True, capture_output=True
        )
        assert piped.read_bytes() == reference.read_bytes()

    def test_blif_does_not_depend_on_hash_seed(self, tmp_path):
        outputs = set()
        for seed in ("0", "1", "2"):
            target = tmp_path / f"9sym.{seed}.blif"
            run_python(f"""
                from repro.cli import main
                main(["map", "9sym", "-o", {str(target)!r}])
            """, hash_seed=seed)
            outputs.add(target.read_text())
        assert len(outputs) == 1


class TestCheckpointCli:
    def test_interrupt_resume_and_journal_subcommand(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        # parent_kill@1 stops after one journaled group -> exit 75.
        assert main(
            ["map", "misex1", "--flow", "hyde", "--checkpoint", ckpt,
             "--inject-faults", "parent_kill@1"]
        ) == 75
        out = capsys.readouterr().out
        assert "interrupted" in out and "--resume" in out

        assert main(
            ["map", "misex1", "--flow", "hyde", "--checkpoint", ckpt,
             "--resume"]
        ) == 0
        out = capsys.readouterr().out
        assert "[resumed: 1 group(s) replayed" in out

        import glob
        (journal,) = glob.glob(f"{ckpt}/*.journal.jsonl")
        assert main(["journal", journal]) == 0
        out = capsys.readouterr().out
        assert "interrupted (injected_parent_kill)" in out
        assert "verdict: equivalent" in out
        assert main(["journal", journal, "--check"]) == 0
        out = capsys.readouterr().out
        assert "journal ok" in out and "run complete" in out

    def test_journal_check_rejects_corruption(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert main(
            ["map", "z4ml", "--flow", "hyde", "--checkpoint", ckpt,
             "--verify", "none"]
        ) == 0
        capsys.readouterr()
        import glob
        (journal,) = glob.glob(f"{ckpt}/*.journal.jsonl")
        lines = open(journal).read().splitlines()
        # Change a value without refreshing the integrity hash.
        lines[1] = lines[1].replace('"mode":"hyper"', '"mode":"hacked"')
        assert '"hacked"' in lines[1]
        with open(journal, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        assert main(["journal", journal, "--check"]) == 1
        out = capsys.readouterr().out
        assert "journal:" in out
