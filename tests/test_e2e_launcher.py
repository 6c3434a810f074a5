"""The benchmark's traced-pass launcher still finds what it rebinds.

``benchmarks/e2e/launch.py`` wraps module attributes of the program
(``repro.cli.read_blif``/``write_blif``, the encoder's two matching
solvers, ``repro.mapping.hyde.run_group_tasks``) to time those layers.
If one of them stops being a module attribute looked up at call time,
the wrappers silently count nothing; this runs the launcher once and
requires every wrapped layer to have been reached.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_launcher_reaches_every_wrapped_layer(tmp_path):
    pytest.importorskip("networkx")  # the launcher imports it
    layers = tmp_path / "layers.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks", "e2e", "launch.py"),
         str(layers), str(tmp_path / "trace.jsonl"), "--",
         "blif", os.path.join(ROOT, "benchmarks", "e2e", "inputs", "5xp1.blif"),
         "-o", str(tmp_path / "out.blif"), "--portfolio"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    totals = json.loads(layers.read_text())
    for key in ("read_blif_s", "write_blif_s", "b_calls", "row_calls",
                "parallel_tasks"):
        assert totals[key] > 0, (key, totals)
