"""Tests for the command-line interface."""

from __future__ import annotations

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
