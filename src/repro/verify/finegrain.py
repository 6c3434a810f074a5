"""Fine-grained combinational equivalence checking with cone localization.

The monolithic check in :mod:`repro.network.equiv` answers *whether* a
mapped network still computes its source; this module answers *where* it
stopped doing so.  It is :func:`repro.network.verdict`'s ``finegrain``
engine, so every check that accepts a result can use it.  The approach follows the classic cut-point method
(MEC-style per-cone checking, QBM-style per-cell matching):

1. **Candidate pairing.**  Signals of the two networks are paired first
   by name (every signal present on both sides) and then by simulation
   signature — both networks are simulated bit-parallel on the same
   ~64 random vectors and internal signals with identical (or
   complemented) response words become candidate pairs.
2. **BDD proof per candidate.**  Both networks' global BDDs are built in
   one shared manager (node ids are canonical only within one unique
   table), so a candidate pair is proven or refuted by an id comparison.
   Proven pairs become *cut-points*: internal equivalences that anchor
   the mapped network to the golden one.
3. **Localization.**  For every failing output the checker walks the
   mapped cone in topological order and finds the *first divergence*: a
   node that is not anchored although every fan-in of it is.  For a
   single-point fault this is exactly the faulty node; the report names
   the smallest non-equivalent cone rooted there and carries a concrete
   counterexample assignment, confirmed by re-simulation, instead of a
   bare pass/fail.

Anchoring is deliberately *name-biased* for localization: a node whose
same-name partner was refuted stays unanchored even if some other golden
signal happens to compute the same function — equivalence to a stranger
is sound for verification but useless for blame assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bdd import FALSE
from ..network import GlobalBdds, Network
from ..network.equiv import pad_inputs
from ..network.simulate import random_vectors, simulate_all_signals

__all__ = [
    "CutPoint",
    "FailingCone",
    "FinegrainReport",
    "build_miter",
    "finegrain_check",
    "miter_satisfiable",
]

#: Default width of the random simulation used for signature pairing.
DEFAULT_VECTORS = 64


@dataclass(frozen=True)
class CutPoint:
    """A proven internal equivalence between the two networks."""

    golden: str
    mapped: str
    via: str  # "name" | "signature"
    negated: bool = False


@dataclass
class FailingCone:
    """The smallest non-equivalent cone found for one failing output."""

    output: str
    root: str  # mapped-side node the divergence is blamed on
    golden_ref: Optional[str]  # golden signal the root was checked against
    cone_nodes: List[str]  # mapped internal nodes in the blamed cone
    frontier: List[str]  # signals feeding the blamed cone
    counterexample: Dict[str, int]  # full PI assignment
    golden_value: Optional[int] = None
    mapped_value: Optional[int] = None
    confirmed: bool = False  # re-simulation reproduced the mismatch

    def describe(self) -> str:
        ref = f" vs golden {self.golden_ref!r}" if self.golden_ref else ""
        cex = " ".join(
            f"{pi}={bit}" for pi, bit in sorted(self.counterexample.items())
        )
        status = "confirmed" if self.confirmed else "UNCONFIRMED"
        return (
            f"output {self.output!r}: cone at {self.root!r}{ref} "
            f"({len(self.cone_nodes)} node(s)); counterexample [{cex}] "
            f"golden={self.golden_value} mapped={self.mapped_value} "
            f"({status} by simulation)"
        )


@dataclass
class FinegrainReport:
    """Everything one fine-grained check learned."""

    equivalent: bool
    outputs: List[str]
    failing_outputs: List[str]
    cutpoints: List[CutPoint]
    failing_cones: List[FailingCone]
    candidates: int = 0
    proven: int = 0
    refuted: int = 0
    num_vectors: int = DEFAULT_VECTORS
    seed: int = 0
    #: Strict replay contract: output *order* matched, not just the set.
    output_order_matches: bool = True
    anchored_fraction: float = 0.0
    details: Dict[str, object] = field(default_factory=dict)

    def summary(self) -> str:
        lines = [
            f"finegrain: {'equivalent' if self.equivalent else 'NOT equivalent'}"
            f" ({len(self.outputs)} output(s), "
            f"{len(self.failing_outputs)} failing)",
            f"cut-points: {self.proven} proven / {self.candidates} candidate"
            f" pair(s), {self.refuted} refuted; "
            f"{self.anchored_fraction:.0%} of mapped nodes anchored",
        ]
        if not self.output_order_matches:
            lines.append("warning: output order differs between the networks")
        for cone in self.failing_cones:
            lines.append("  " + cone.describe())
        return "\n".join(lines)


def _signature_index(words: Dict[str, int], net: Network) -> Dict[int, List[str]]:
    index: Dict[int, List[str]] = {}
    for name in net.inputs:
        index.setdefault(words[name], []).append(name)
    for name in net.topological_order():
        index.setdefault(words[name], []).append(name)
    return index


def finegrain_check(
    golden: Network,
    mapped: Network,
    num_vectors: int = DEFAULT_VECTORS,
    seed: int = 0,
    max_candidates_per_node: int = 4,
) -> FinegrainReport:
    """Fine-grained equivalence check of ``mapped`` against ``golden``.

    Raises ``ValueError`` when the interfaces are incompatible (mapped
    reads inputs golden does not have, or the output sets differ);
    missing (vacuous) primary inputs on the mapped side are tolerated by
    padding (:func:`repro.network.equiv.pad_inputs`).
    """
    if not set(mapped.inputs) <= set(golden.inputs):
        unknown = sorted(set(mapped.inputs) - set(golden.inputs))
        raise ValueError(f"mapped network reads unknown inputs {unknown}")
    if sorted(mapped.output_names) != sorted(golden.output_names):
        raise ValueError(
            f"output mismatch: {sorted(golden.output_names)} vs "
            f"{sorted(mapped.output_names)}"
        )
    mapped_padded = pad_inputs(mapped, golden)
    order_ok = golden.output_names == mapped.output_names

    # ------------------------------------------------------------------ #
    # 1. Simulation signatures on shared vectors.
    # ------------------------------------------------------------------ #
    patterns = random_vectors(golden, num_vectors, seed)
    golden_words = simulate_all_signals(golden, patterns, num_vectors)
    mapped_words = simulate_all_signals(mapped_padded, patterns, num_vectors)
    all_ones = (1 << num_vectors) - 1
    golden_index = _signature_index(golden_words, golden)

    # ------------------------------------------------------------------ #
    # 2. Candidate pairs: name-based first, then signature-based.
    # ------------------------------------------------------------------ #
    mapped_nodes = mapped_padded.topological_order()
    candidates: Dict[str, List[Tuple[str, str]]] = {}  # mapped -> [(golden, via)]
    has_name_partner: Dict[str, bool] = {}
    for name in mapped_nodes:
        pairs: List[Tuple[str, str]] = []
        named = golden.has_signal(name) and not golden.is_input(name)
        has_name_partner[name] = named
        if named:
            pairs.append((name, "name"))
        word = mapped_words[name]
        sig_matches = list(golden_index.get(word, []))
        sig_matches += golden_index.get(word ^ all_ones, [])
        for partner in sig_matches:
            if partner != name and len(pairs) < max_candidates_per_node:
                pairs.append((partner, "signature"))
        candidates[name] = pairs

    # ------------------------------------------------------------------ #
    # 3. BDD proof per candidate in one shared manager.
    # ------------------------------------------------------------------ #
    ga = GlobalBdds(golden)
    manager = ga.manager
    gm = GlobalBdds(mapped_padded, pi_order=golden.inputs, manager=manager)

    cutpoints: List[CutPoint] = []
    #: mapped signal -> (golden signal, negated) for *localization-grade*
    #: anchors (name partner proven, or signature partner when no name
    #: partner exists at all).
    anchor: Dict[str, Tuple[str, bool]] = {}
    proven = refuted = tried = 0
    for name in mapped_nodes:
        node_bdd = gm.of(name)
        node_anchored = False
        for partner, via in candidates[name]:
            tried += 1
            partner_bdd = ga.of(partner)
            if node_bdd == partner_bdd:
                negated = False
            elif node_bdd == manager.apply_not(partner_bdd):
                negated = True
            else:
                refuted += 1
                continue
            proven += 1
            cutpoints.append(CutPoint(partner, name, via, negated))
            # Anchors for localization: a same-name partner must match in
            # polarity too (a complemented node is wrong *for its
            # position*); nameless nodes may anchor to any proven partner,
            # complemented or not (an absorbed inverter is explainable).
            if (via == "name" and not negated) or not has_name_partner[name]:
                node_anchored = True
                anchor.setdefault(name, (partner, negated))
        if has_name_partner[name] and not node_anchored:
            # A refuted name partner vetoes stranger anchors: the node
            # computes the wrong function *for its position*, which is
            # what localization must report.
            anchor.pop(name, None)

    def anchored(signal: str) -> bool:
        return mapped_padded.is_input(signal) or signal in anchor

    # ------------------------------------------------------------------ #
    # 4. Per-output verdicts and localization.
    # ------------------------------------------------------------------ #
    failing_outputs: List[str] = []
    failing_cones: List[FailingCone] = []
    for out in golden.output_names:
        golden_bdd = ga.of_output(out)
        mapped_bdd = gm.of_output(out)
        if golden_bdd == mapped_bdd:
            continue
        failing_outputs.append(out)
        failing_cones.append(
            _localize(
                out,
                golden,
                mapped_padded,
                ga,
                gm,
                anchor,
                anchored,
                golden_bdd,
                mapped_bdd,
            )
        )

    num_internal = len(mapped_nodes)
    report = FinegrainReport(
        equivalent=not failing_outputs,
        outputs=list(golden.output_names),
        failing_outputs=failing_outputs,
        cutpoints=cutpoints,
        failing_cones=failing_cones,
        candidates=tried,
        proven=proven,
        refuted=refuted,
        num_vectors=num_vectors,
        seed=seed,
        output_order_matches=order_ok,
        anchored_fraction=(
            sum(1 for n in mapped_nodes if n in anchor) / num_internal
            if num_internal
            else 1.0
        ),
    )
    return report


def _localize(
    out: str,
    golden: Network,
    mapped: Network,
    ga: GlobalBdds,
    gm: GlobalBdds,
    anchor: Dict[str, Tuple[str, bool]],
    anchored,
    golden_bdd: int,
    mapped_bdd: int,
) -> FailingCone:
    """Blame the smallest first-divergence cone of one failing output."""
    manager = ga.manager
    driver = mapped.output_driver(out)
    cone = mapped.transitive_fanin([driver])
    cone_order = [n for n in mapped.topological_order() if n in cone]

    # First divergences: unanchored nodes whose fan-ins are all anchored.
    divergences = [
        n
        for n in cone_order
        if not anchored(n)
        and all(anchored(fi) for fi in mapped.node(n).fanins)
    ]
    root: str = driver
    golden_ref: Optional[str] = golden.output_driver(out)
    diff = manager.apply_xor(golden_bdd, mapped_bdd)
    if divergences:
        root = min(
            divergences, key=lambda n: len(mapped.transitive_fanin([n]))
        )
        partner = None
        if golden.has_signal(root) and not golden.is_input(root):
            partner = root  # refuted name partner: the expected function
        if partner is not None:
            node_diff = manager.apply_xor(gm.of(root), ga.of(partner))
            if node_diff != FALSE:
                golden_ref = partner
                diff = node_diff
            # else: the node is equivalent after all (only reachable when
            # localization anchors were too sparse) — keep the output diff.
        else:
            golden_ref = None

    root_cone = mapped.transitive_fanin([root])
    cone_nodes = [n for n in cone_order if n in root_cone]
    frontier = sorted(
        {
            fi
            for n in cone_nodes
            for fi in mapped.node(n).fanins
            if fi not in root_cone or mapped.is_input(fi)
        }
    ) or sorted(pi for pi in mapped.inputs if pi in root_cone)

    # Concrete counterexample from the diff BDD, then confirm it by
    # actually simulating both networks on it.
    assignment = manager.pick_one(diff) or {}
    cex = {pi: 0 for pi in golden.inputs}
    for level, bit in assignment.items():
        cex[manager.name_of(level)] = bit
    patterns = {pi: [bit] for pi, bit in cex.items()}
    golden_sim = simulate_all_signals(golden, patterns, 1)
    mapped_sim = simulate_all_signals(mapped, patterns, 1)
    if golden_ref is not None and golden_ref in golden_sim:
        golden_value = golden_sim[golden_ref] & 1
        mapped_value = mapped_sim[root] & 1
    else:
        golden_value = golden_sim[golden.output_driver(out)] & 1
        mapped_value = mapped_sim[mapped.output_driver(out)] & 1
    return FailingCone(
        output=out,
        root=root,
        golden_ref=golden_ref,
        cone_nodes=cone_nodes,
        frontier=frontier,
        counterexample=cex,
        golden_value=golden_value,
        mapped_value=mapped_value,
        confirmed=golden_value != mapped_value,
    )


def build_miter(
    golden: Network, mapped: Network, output: str, name: Optional[str] = None
) -> Network:
    """XOR miter of one output: a standalone, shrinkable witness network.

    The miter's single output ``diff`` is 1 exactly on the assignments
    where the two networks disagree at ``output``; it is the shape
    :func:`repro.testing.shrink_network` can minimize (predicate:
    :func:`miter_satisfiable`) and :func:`repro.testing.save_repro` can
    persist, turning a verification failure into a small self-contained
    BLIF instead of a pair of large ones.
    """
    from ..network import extract_cone

    g = extract_cone(golden, [output], name="g")
    m = extract_cone(pad_inputs(mapped, golden), [output], name="m")
    miter = Network(name or f"miter_{output}")
    for pi in golden.inputs:
        if g.has_signal(pi) or m.has_signal(pi):
            miter.add_input(pi)

    def graft(fragment: Network, prefix: str) -> Dict[str, str]:
        rename = {pi: pi for pi in fragment.inputs}
        for node_name in fragment.topological_order():
            node = fragment.node(node_name)
            new_name = prefix + node_name
            while miter.has_signal(new_name):
                new_name += "_"
            miter.add_node(
                new_name, [rename[fi] for fi in node.fanins], node.table
            )
            rename[node_name] = new_name
        return rename

    g_names = graft(g, "g_")
    m_names = graft(m, "m_")
    from ..boolfunc import TruthTable

    diff = "diff"
    while miter.has_signal(diff):
        diff += "_"
    miter.add_node(
        diff,
        [
            g_names[g.output_driver(output)],
            m_names[m.output_driver(output)],
        ],
        TruthTable(2, 0b0110),
    )
    miter.add_output(diff)
    return miter


def miter_satisfiable(miter: Network) -> bool:
    """True when some assignment sets the miter's output to 1."""
    gb = GlobalBdds(miter)
    return any(gb.of_output(out) != FALSE for out in miter.output_names)

