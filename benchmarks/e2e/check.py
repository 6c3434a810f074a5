"""Independent output check for the end-to-end benchmark.

The benchmark never trusts the program's own verdicts: this module has
its own BLIF reader and a bit-parallel evaluator (one Python integer per
signal, one bit per input vector), and it recounts LUTs, depth and
k-feasibility from the emitted text.  Nothing here imports ``repro``.

Counting rules match what a user of the emitted BLIF pays for:

* a LUT is a node with at least one fanin (constants cost nothing);
* a single-input identity node that drives a primary output is a wire,
  not a LUT (the BLIF writer emits one whenever an output name aliases
  another signal), and it adds no level;
* depth is the longest chain of LUTs from a primary input to an output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Up to this many inputs the check is exhaustive; above it, seeded.
EXHAUSTIVE_INPUTS = 16
#: Random vectors per check when the input count is too large.
SAMPLED_VECTORS = 4096


@dataclass
class Model:
    """One parsed ``.model``: covers keyed by the signal they drive."""

    name: str
    inputs: List[str]
    outputs: List[str]
    # signal -> (fanins, cubes, polarity of the cover's output column)
    nodes: Dict[str, Tuple[Tuple[str, ...], List[str], str]]


def parse_blif(text: str) -> Model:
    """Parse single-model combinational BLIF; raises ``ValueError``."""
    logical: List[str] = []
    pending = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        line = (pending + line).strip()
        pending = ""
        if line:
            logical.append(line)

    name, inputs, outputs = "", [], []
    nodes: Dict[str, Tuple[Tuple[str, ...], List[str], str]] = {}
    current: Optional[str] = None
    for line in logical:
        tokens = line.split()
        key = tokens[0]
        if key == ".model":
            name = tokens[1] if len(tokens) > 1 else ""
        elif key == ".inputs":
            inputs.extend(tokens[1:])
        elif key == ".outputs":
            outputs.extend(tokens[1:])
        elif key == ".names":
            if len(tokens) < 2:
                raise ValueError(".names without a target")
            target = tokens[-1]
            if target in nodes or target in inputs:
                raise ValueError(f"signal {target!r} driven twice")
            nodes[target] = (tuple(tokens[1:-1]), [], "")
            current = target
        elif key == ".end":
            current = None
        elif key.startswith("."):
            raise ValueError(f"unsupported construct {key}")
        else:
            if current is None:
                raise ValueError(f"cube outside .names: {line!r}")
            fanins, cubes, polarity = nodes[current]
            if fanins:
                if len(tokens) != 2 or len(tokens[0]) != len(fanins):
                    raise ValueError(f"malformed cube {line!r} for {current}")
                cube, out = tokens
                if set(cube) - set("01-"):
                    raise ValueError(f"bad cube {cube!r} for {current}")
            else:
                cube, out = "", tokens[0]
            if out not in ("0", "1") or (polarity and out != polarity):
                raise ValueError(f"bad output column in {current}")
            cubes.append(cube)
            nodes[current] = (fanins, cubes, out)
    for out in outputs:
        if out not in nodes and out not in inputs:
            raise ValueError(f"output {out!r} has no driver")
    return Model(name, inputs, outputs, nodes)


def _topological(model: Model) -> List[str]:
    """Nodes in fanin-first order; raises on undefined signals or cycles."""
    order: List[str] = []
    state: Dict[str, int] = {}  # 1 = on the stack, 2 = done
    for root in model.nodes:
        if state.get(root):
            continue
        stack = [(root, 0)]
        while stack:
            sig, i = stack.pop()
            fanins = model.nodes[sig][0]
            if i == 0:
                state[sig] = 1
            if i < len(fanins):
                stack.append((sig, i + 1))
                fi = fanins[i]
                if fi in model.nodes:
                    if state.get(fi) == 1:
                        raise ValueError(f"combinational cycle through {fi!r}")
                    if not state.get(fi):
                        stack.append((fi, 0))
                elif fi not in model.inputs:
                    raise ValueError(f"undefined signal {fi!r}")
            else:
                state[sig] = 2
                order.append(sig)
    return order


def input_patterns(
    names: Sequence[str], seed: int
) -> Tuple[Dict[str, int], int]:
    """One bit-vector per input and the vector count.

    Exhaustive (every minterm once) up to :data:`EXHAUSTIVE_INPUTS`
    inputs; otherwise :data:`SAMPLED_VECTORS` vectors drawn from a stream
    seeded by ``seed`` and the input's name.
    """
    n = len(names)
    if n > EXHAUSTIVE_INPUTS:
        width = SAMPLED_VECTORS
        return {
            name: random.Random(f"{seed}:{name}").getrandbits(width)
            for name in names
        }, width
    width = 1 << n
    patterns = {}
    for i, name in enumerate(names):
        half = 1 << i
        bits = ((1 << half) - 1) << half  # minterms with bit i set
        span = 2 * half
        while span < width:
            bits |= bits << span
            span *= 2
        patterns[name] = bits
    return patterns, width


def evaluate(model: Model, patterns: Dict[str, int], width: int) -> Dict[str, int]:
    """Bit-parallel values of every output under ``patterns``."""
    mask = (1 << width) - 1
    value = {pi: patterns.get(pi, 0) for pi in model.inputs}
    for sig in _topological(model):
        fanins, cubes, polarity = model.nodes[sig]
        if not fanins:
            on = mask if cubes and polarity == "1" else 0
        else:
            on = 0
            for cube in cubes:
                term = mask
                for ch, fi in zip(cube, fanins):
                    if ch == "1":
                        term &= value[fi]
                    elif ch == "0":
                        term &= ~value[fi]
                on |= term
            on &= mask
            if polarity == "0":
                on ^= mask
        value[sig] = on
    return {out: value[out] for out in model.outputs}


def _is_wire(model: Model, sig: str, outputs: set) -> bool:
    fanins, cubes, polarity = model.nodes[sig]
    return sig in outputs and len(fanins) == 1 and cubes == ["1"] and polarity == "1"


def recount(model: Model) -> Tuple[int, int, int]:
    """``(luts, depth, widest node fanin)`` of an emitted network."""
    outputs = set(model.outputs)
    depth = {pi: 0 for pi in model.inputs}
    luts = widest = 0
    for sig in _topological(model):
        fanins = model.nodes[sig][0]
        if not fanins:
            depth[sig] = 0
        elif _is_wire(model, sig, outputs):
            depth[sig] = depth[fanins[0]]
        else:
            luts += 1
            widest = max(widest, len(fanins))
            depth[sig] = 1 + max(depth[fi] for fi in fanins)
    return luts, max((depth[o] for o in model.outputs), default=0), widest


@dataclass
class Verdict:
    """What the check found; ``problems`` empty means the sample passed."""

    luts: int = 0
    depth: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def check_mapping(
    source_text: str,
    mapped_text: str,
    k: int,
    seed: int = 0,
    reported: Optional[Tuple[int, int]] = None,
) -> Verdict:
    """Compare an emitted network against its source.

    ``reported`` is the ``(luts, depth)`` pair the program printed or
    replied with; a mismatch with the recount is a failure too.
    """
    verdict = Verdict()
    try:
        source = parse_blif(source_text)
        mapped = parse_blif(mapped_text)
        verdict.luts, verdict.depth, widest = recount(mapped)
    except ValueError as exc:
        verdict.problems.append(f"unreadable BLIF: {exc}")
        return verdict
    if widest > k:
        verdict.problems.append(f"a node has {widest} inputs > k={k}")
    if sorted(mapped.outputs) != sorted(source.outputs):
        verdict.problems.append("output sets differ")
        return verdict
    extra = sorted(set(mapped.inputs) - set(source.inputs))
    if extra:
        verdict.problems.append(f"inputs not in the source: {extra}")
        return verdict
    patterns, width = input_patterns(source.inputs, seed)
    try:
        want = evaluate(source, patterns, width)
        got = evaluate(mapped, patterns, width)
    except ValueError as exc:
        verdict.problems.append(f"cannot evaluate: {exc}")
        return verdict
    wrong = sorted(o for o in source.outputs if want[o] != got[o])
    if wrong:
        verdict.problems.append(f"outputs differ from the source: {wrong}")
    if reported is not None and tuple(reported) != (verdict.luts, verdict.depth):
        verdict.problems.append(
            f"reported {reported[0]} LUTs / depth {reported[1]}, "
            f"recounted {verdict.luts} / {verdict.depth}"
        )
    return verdict
