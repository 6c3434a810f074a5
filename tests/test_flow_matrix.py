"""Every ``repro blif --flow`` label maps every small e2e input, under
the area cost and, for the flows that take ``--cost``, under delay.
Under the ``slow`` marker, ``hyde``, ``per-output`` and ``structural``
also map the four medium inputs.

Each run goes through the CLI with ``--verify none``, so the flow's own
equivalence check stays out of the verdict: the emitted BLIF is read
back by a reader and a bit-parallel evaluator local to this file (one
Python integer per signal, one bit per input vector) and compared with
the input on every vector — exhaustively up to 16 inputs, on 4,096
seeded random vectors above that.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Tuple

import pytest

from repro.cli import FLOWS, main

INPUTS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "e2e", "inputs",
)

SMALL = (
    "5xp1", "9sym", "alu2", "b9", "clip", "f51m",
    "misex1", "rd73", "rd84", "sao2", "vg2", "z4ml",
)

#: More than 16 inputs each, so they are checked on sampled vectors.
MEDIUM = ("apex7", "count", "duke2", "misex2")

#: The flows the medium inputs run through.
MEDIUM_FLOWS = ("hyde", "per-output", "structural")

#: Flows that read ``--cost``; ``shannon`` and ``structural`` ignore it.
COST_FLOWS = ("column", "hyde", "per-output", "random", "resub")

#: ``--flow structural``'s LUTs: the input's own nodes, each decomposed
#: only where it has more than k fan-ins.
STRUCTURAL_LUTS = {
    "5xp1": 18, "9sym": 6, "alu2": 30, "b9": 24, "clip": 19, "f51m": 14,
    "misex1": 9, "rd73": 7, "rd84": 9, "sao2": 8, "vg2": 13, "z4ml": 6,
    "apex7": 45, "count": 79, "duke2": 39, "misex2": 24,
}

EXHAUSTIVE_INPUTS = 16
SAMPLED_VECTORS = 4096

Cover = Tuple[List[str], List[List[str]]]  # fanins, cube rows


def read_blif(text: str) -> Tuple[List[str], List[str], Dict[str, Cover]]:
    """``(inputs, outputs, covers)`` of a single-model, latch-free BLIF."""
    inputs: List[str] = []
    outputs: List[str] = []
    covers: Dict[str, Cover] = {}
    rows = None
    pending = ""
    for raw in text.splitlines():
        line = pending + raw.split("#", 1)[0].strip()
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        words = line.split()
        if not words:
            continue
        if words[0] == ".inputs":
            inputs += words[1:]
        elif words[0] == ".outputs":
            outputs += words[1:]
        elif words[0] == ".names":
            rows = []
            covers[words[-1]] = (words[1:-1], rows)
        elif words[0].startswith("."):
            rows = None  # .model / .end
        else:
            rows.append(words)
    return inputs, outputs, covers


def cover_value(fanins: List[int], rows: List[List[str]], mask: int) -> int:
    """One node's value: the OR of its cubes, complemented for an
    off-set cover (output column ``0``)."""
    onset, polarity = 0, "1"
    for row in rows:
        pattern, polarity = ("", row[0]) if len(row) == 1 else row
        term = mask
        for bit, value in zip(pattern, fanins):
            if bit == "1":
                term &= value
            elif bit == "0":
                term &= ~value
        onset |= term
    return onset if polarity == "1" else ~onset & mask


def simulate(text: str, patterns: Dict[str, int], mask: int) -> Dict[str, int]:
    """Every output's value on every vector."""
    inputs, outputs, covers = read_blif(text)
    values = {pi: patterns[pi] for pi in inputs}
    for out in outputs:
        stack = [out]
        while stack:  # iterative: mapped chains outgrow the recursion limit
            signal = stack[-1]
            if signal in values:
                stack.pop()
                continue
            fanins, rows = covers[signal]
            missing = [f for f in fanins if f not in values]
            if missing:
                stack.extend(missing)
                continue
            values[signal] = cover_value(
                [values[f] for f in fanins], rows, mask
            )
            stack.pop()
    return {out: values[out] for out in outputs}


def input_patterns(inputs: List[str]) -> Tuple[Dict[str, int], int]:
    """One integer per input (bit ``j`` = its value in vector ``j``)."""
    if len(inputs) <= EXHAUSTIVE_INPUTS:
        vectors = 1 << len(inputs)
        patterns = {}
        for i, pi in enumerate(inputs):
            period = "0" * (1 << i) + "1" * (1 << i)
            lsb_first = period * (vectors >> (i + 1))
            patterns[pi] = int(lsb_first[::-1], 2)
        return patterns, (1 << vectors) - 1
    rng = random.Random(1998)
    patterns = {pi: rng.getrandbits(SAMPLED_VECTORS) for pi in inputs}
    return patterns, (1 << SAMPLED_VECTORS) - 1


def test_evaluator_catches_a_flipped_cube():
    text = ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n"
    patterns, mask = input_patterns(["a", "b"])
    good = simulate(text, patterns, mask)
    assert good["f"] == patterns["a"] & patterns["b"]
    bad = simulate(text.replace("11 1", "11 0"), patterns, mask)
    assert bad["f"] != good["f"]


def map_and_check(name: str, label: str, flags: List[str], tmp_path,
                  capsys) -> int:
    """Map input ``name`` with flow ``label`` through the CLI, check the
    emitted BLIF on every vector and return the LUT count it printed."""
    source = os.path.join(INPUTS, f"{name}.blif")
    target = tmp_path / "mapped.blif"
    argv = ["blif", source, "--flow", label, "--verify", "none",
            "-o", str(target), *flags]
    assert main(argv) == 0
    row = next(
        line.split() for line in capsys.readouterr().out.splitlines()
        if line.split()[:1] == [label]
    )
    with open(source, encoding="utf-8") as handle:
        golden_text = handle.read()
    inputs, outputs, _ = read_blif(golden_text)
    patterns, mask = input_patterns(inputs)
    expected = simulate(golden_text, patterns, mask)
    mapped_text = target.read_text(encoding="utf-8")
    assert sorted(read_blif(mapped_text)[1]) == sorted(outputs)
    assert simulate(mapped_text, patterns, mask) == expected
    return int(row[1])


@pytest.mark.parametrize("label", sorted(FLOWS))
@pytest.mark.parametrize("name", SMALL)
def test_flow_maps_input(name, label, tmp_path, capsys):
    luts = map_and_check(name, label, [], tmp_path, capsys)
    if label == "structural":
        assert luts == STRUCTURAL_LUTS[name]


@pytest.mark.parametrize("label", COST_FLOWS)
@pytest.mark.parametrize("name", SMALL)
def test_flow_maps_input_under_delay(name, label, tmp_path, capsys):
    map_and_check(name, label, ["--cost", "delay"], tmp_path, capsys)


@pytest.mark.slow
@pytest.mark.parametrize("label", MEDIUM_FLOWS)
@pytest.mark.parametrize("name", MEDIUM)
def test_flow_maps_medium_input(name, label, tmp_path, capsys):
    luts = map_and_check(name, label, [], tmp_path, capsys)
    if label == "structural":
        assert luts == STRUCTURAL_LUTS[name]
