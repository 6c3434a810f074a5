"""The compatible class encoding procedure (paper Section 3.2, Figure 3).

Given the compatible class functions of a decomposition, choose binary
codes so that the *subsequent* decomposition of the image function has as
few compatible classes as possible:

1.  Encode at random (here: canonically) and build the draft image g'.
2.  If g' is already κ-feasible, any encoding works — done.
3.  Run variable partitioning on g' to learn the image's bound set λ'.
    The α variables split into *column bits* (those in λ') and *row bits*
    (those left free); the chart is #R x #C with #C = 2^|α∩λ'| and
    #R = 2^|α∩μ'|.
4.  Compute each class function's partition w.r.t. Y1 = λ' ∩ (original
    free variables).
5.  **CombineColumnSets**: group classes whose partitions share
    same-content position groups (Psc analysis, Figure 4) via a
    maximum-weight b-matching on the bipartite column graph (Figure 5).
6/7. **CombineRowSets**: repeatedly merge row sets by a benefit-weighted
    maximum matching until the chart fits (#R rows, #C column sets).
8.  Keep the chart encoding only if it beats the random draft on the
    actual class count of the image function (don't cares from unused
    codes included).  The draft's count is the one Step 3's search
    returned for λ'.
9.  Read the codes off the final chart.

The paper leaves a few computational details open; this implementation's
choices are documented inline and in DESIGN.md:

* Step 7's ``Bc`` sums over symbols present in *both* partitions (summing
  over all symbols would make the expression identically zero).
* When merged row sets share a column set, the subtracted penalty is the
  largest Vc edge weight among the clashing classes.
* The "number of column sets so far" starts as the Step-5 set count;
  singleton sets are absorbed into multi-member sets only when a row merge
  forces their class next to a pinned class (this reproduces Example 3.2's
  evolution 6 -> 4 sets exactly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..bdd import FALSE, TRUE, BddManager
from .chart import pack_chart
from .compatible import Column
from .matching import WeightedEdge, max_weight_b_matching, max_weight_matching
from .partition import (
    Partition,
    disjunction,
    psc_key,
    same_content_position_groups,
)
from .varpart import DraftImage, count_classes, select_bound_set

__all__ = [
    "EncodingResult",
    "ColumnSetResult",
    "encode_classes",
    "canonical_codes",
    "build_image_function",
    "combine_column_sets",
    "combine_row_sets",
    "row_merge_benefit",
]


# --------------------------------------------------------------------- #
# Code/image construction helpers
# --------------------------------------------------------------------- #

def canonical_codes(num_classes: int, num_alpha: int) -> List[Dict[int, int]]:
    """The trivial strict rigid encoding: class i gets code i."""
    if num_classes > (1 << num_alpha):
        raise ValueError("not enough code bits")
    return [
        {a: (i >> a) & 1 for a in range(num_alpha)} for i in range(num_classes)
    ]


def build_image_function(
    manager: BddManager,
    alpha_levels: Sequence[int],
    codes: Sequence[Dict[int, int]],
    class_functions: Sequence[Column],
) -> Column:
    """Build the image function g from codes and class functions.

    ``codes[i]`` maps α index -> bit.  g is ``fc_i`` where α spells code
    i; unused codes become don't cares of g (strict encoding: each class
    owns exactly one code).  Each half is one
    :meth:`~repro.bdd.BddManager.code_mux` descent, which needs the α
    levels below every variable of the class functions (fresh levels
    always are).
    """
    level_codes = [
        {alpha_levels[a]: bit for a, bit in code.items()} for code in codes
    ]
    return Column(
        manager.code_mux([fc.on for fc in class_functions], level_codes, FALSE),
        manager.code_mux([fc.dc for fc in class_functions], level_codes, TRUE),
    )


# --------------------------------------------------------------------- #
# Step 5: column sets
# --------------------------------------------------------------------- #

@dataclass
class ColumnSetResult:
    """Output of CombineColumnSets plus the trace the figure benches print."""

    column_sets: List[List[int]]
    column_set_of_class: Dict[int, int]
    vc_weight: Dict[int, float]
    psc_table: Dict[Tuple[int, ...], List[int]]
    matching_weight: float


def combine_column_sets(
    partitions: Sequence[Partition], num_rows: int
) -> ColumnSetResult:
    """Group classes that belong in the same chart column (paper Step 5).

    Candidate Psc's are the maximal same-content position groups of the
    partitions (Figure 4a); a partition "has" a Psc when one of its groups
    contains it.  Psc's shared by at least two partitions become Uc
    vertices of the bipartite column graph (capacity #R, edge weight
    |Psc| + #Partitions(Psc)); a maximum-weight b-matching assigns each
    partition to at most one column set (Figure 5).
    """
    n = len(partitions)
    groups = [same_content_position_groups(p) for p in partitions]
    candidates: Set[Tuple[int, ...]] = {
        psc_key(g) for gs in groups for g in gs
    }
    psc_table: Dict[Tuple[int, ...], List[int]] = {}
    for key in sorted(candidates):
        key_set = set(key)
        members = [
            i
            for i in range(n)
            if any(key_set <= set(g) for g in groups[i])
        ]
        if len(members) >= 2:
            psc_table[key] = members

    edges: List[WeightedEdge] = []
    capacity: Dict[object, int] = {}
    for key, members in sorted(psc_table.items()):
        weight = len(key) + len(members)
        num_u = max(1, math.ceil((len(members) - 1) / num_rows))
        for copy in range(num_u):
            u = ("psc", key, copy)
            capacity[u] = num_rows
            for i in members:
                edges.append(WeightedEdge(("class", i), u, weight))

    # ``matched`` holds each original edge at most once (the b-matching
    # deduplicates its clone fold-back), so summing weights here cannot
    # over-count an edge whose endpoints both had spare capacity.
    matched = max_weight_b_matching(edges, capacity)
    by_u: Dict[object, List[int]] = {}
    vc_weight: Dict[int, float] = {}
    total = 0.0
    for e in matched:
        u, v = e.u, e.v
        if isinstance(u, tuple) and u[0] == "class":
            u, v = v, u
        class_index = v[1]
        by_u.setdefault(u, []).append(class_index)
        vc_weight[class_index] = e.weight
        total += e.weight

    column_sets: List[List[int]] = []
    assigned: Set[int] = set()
    for u in sorted(by_u, key=repr):
        members = sorted(by_u[u])
        column_sets.append(members)
        assigned.update(members)
    for i in range(n):
        if i not in assigned:
            column_sets.append([i])
    # Deterministic order: big sets first, then by smallest member.
    column_sets.sort(key=lambda s: (-len(s), s))
    column_set_of_class = {
        cls: idx for idx, members in enumerate(column_sets) for cls in members
    }
    return ColumnSetResult(
        column_sets=column_sets,
        column_set_of_class=column_set_of_class,
        vc_weight=vc_weight,
        psc_table=psc_table,
        matching_weight=total,
    )


# --------------------------------------------------------------------- #
# Step 7: row sets
# --------------------------------------------------------------------- #

def row_merge_benefit(
    da: Partition,
    db: Partition,
    total_symbol_kinds: int,
    sigma: float,
    tau: float,
) -> float:
    """The paper's merging benefit sigma*Br + tau*Bc for two row sets.

    ``da``/``db`` are the disjunction partitions representing the rows.
    Bc sums ``count_a(s) + count_b(s) - m/n`` over the shared symbols;
    it is computed from the integer sum with one division, so its value
    does not depend on the order the symbol set iterates in (the symbols
    are node-id pairs, whose hash order follows the ids).
    """
    m = da.num_positions + db.num_positions
    n = total_symbol_kinds
    sym_a, sym_b = da.symbol_set(), db.symbol_set()
    n_ij = len(sym_a | sym_b)
    br = n - (n_ij - len(sym_a)) - (n_ij - len(sym_b))
    counts_a, counts_b = da.symbol_counts(), db.symbol_counts()
    common = sym_a & sym_b
    shared = sum(counts_a[s] + counts_b[s] for s in common)
    bc = (shared * n - len(common) * m) / n if n else shared
    return sigma * br + tau * bc


@dataclass
class _RowState:
    row_sets: List[List[int]]
    column_sets: List[List[int]]  # mutable during absorption
    column_set_of_class: Dict[int, int]


def _absorb_singletons(
    state: _RowState, num_rows: int
) -> None:
    """Fold forced singleton column sets into multi-member sets.

    A class whose column set is a singleton and whose row set also holds a
    pinned class must take some other column; absorb it into the first
    multi-member set with spare capacity (#R) and no member in its row.

    ``column_set_of_class`` is repaired immediately after every
    absorption: the ``pinned_present`` probe and the member-in-row clash
    checks of later rows consult it, and leaving the absorbed class
    pointing at its now-emptied set would make them read a singleton
    (or, worse, re-absorb the class into a second set).  Indices stay
    valid throughout because empty sets are only compacted away at the
    end, when the whole mapping is rebuilt.
    """
    for row in state.row_sets:
        if len(row) < 2:
            continue
        pinned_present = any(
            len(state.column_sets[state.column_set_of_class[c]]) >= 2
            for c in row
        )
        if not pinned_present:
            continue
        for cls in sorted(row):
            cs_index = state.column_set_of_class[cls]
            if len(state.column_sets[cs_index]) >= 2:
                continue
            for target_index, target in enumerate(state.column_sets):
                if len(target) < 2 or len(target) >= num_rows:
                    continue
                if any(member in row for member in target):
                    continue
                target.append(cls)
                state.column_sets[cs_index] = []
                state.column_set_of_class[cls] = target_index
                break
    state.column_sets = [s for s in state.column_sets if s]
    state.column_set_of_class = {
        cls: idx
        for idx, members in enumerate(state.column_sets)
        for cls in members
    }


def combine_row_sets(
    partitions: Sequence[Partition],
    column_result: ColumnSetResult,
    num_rows: int,
    num_cols: int,
    max_iterations: Optional[int] = None,
    benefit_weights: Tuple[float, float] = (1.0, 1.0),
) -> Optional[Tuple[List[List[int]], Dict[int, int]]]:
    """Steps 6/7: merge row sets until the chart fits.

    ``benefit_weights`` scales the (σ, τ) terms of the paper's merging
    benefit σ·Br + τ·Bc; delay-aware cost models boost σ to favour row
    merges (fewer row sets → fewer α functions → a shallower image).
    The default (1.0, 1.0) is the paper's benefit verbatim.

    Returns ``(row_sets, column_set_of_class)`` or ``None`` when no legal
    packing was found (caller falls back to the random encoding).
    """
    n = len(partitions)
    total_symbol_kinds = len(
        {s for p in partitions for s in p.symbols}
    )
    state = _RowState(
        row_sets=[[i] for i in range(n)],
        column_sets=[list(s) for s in column_result.column_sets],
        column_set_of_class=dict(column_result.column_set_of_class),
    )
    if max_iterations is None:
        max_iterations = 2 * n + 8

    for _ in range(max_iterations):
        if (
            len(state.row_sets) <= num_rows
            and len(state.column_sets) <= num_cols
        ):
            return state.row_sets, state.column_set_of_class

        sigma = benefit_weights[0] * max(0, len(state.row_sets) - num_rows)
        tau = benefit_weights[1] * max(0, len(state.column_sets) - num_cols)
        reps = [
            disjunction([partitions[c] for c in row]) for row in state.row_sets
        ]

        def share_column_penalty(row_a: List[int], row_b: List[int]) -> float:
            penalty = 0.0
            sets_a = {state.column_set_of_class[c] for c in row_a}
            for c in row_b:
                if state.column_set_of_class[c] in sets_a:
                    penalty = max(
                        penalty, column_result.vc_weight.get(c, 0.0)
                    )
            for c in row_a:
                if state.column_set_of_class[c] in {
                    state.column_set_of_class[d] for d in row_b
                }:
                    penalty = max(
                        penalty, column_result.vc_weight.get(c, 0.0)
                    )
            return penalty

        edges: List[WeightedEdge] = []
        for i in range(len(state.row_sets)):
            for j in range(i + 1, len(state.row_sets)):
                if len(state.row_sets[i]) + len(state.row_sets[j]) > num_cols:
                    continue
                benefit = row_merge_benefit(
                    reps[i], reps[j], total_symbol_kinds, sigma, tau
                )
                benefit -= share_column_penalty(
                    state.row_sets[i], state.row_sets[j]
                )
                edges.append(WeightedEdge(("row", i), ("row", j), benefit))
        if not edges:
            return None

        matched = max_weight_matching(edges, maxcardinality=True)
        if not matched:
            return None
        matched.sort(key=lambda e: -e.weight)
        to_merge: List[Tuple[int, int]] = []
        needed = len(state.row_sets) - num_rows
        for e in matched:
            if needed <= 0 and len(state.column_sets) <= num_cols:
                break
            i, j = e.u[1], e.v[1]
            to_merge.append((min(i, j), max(i, j)))
            needed -= 1
        if not to_merge:
            # Pressure comes from column sets only; merge the single best
            # pair to make progress.
            best = matched[0]
            to_merge = [(min(best.u[1], best.v[1]), max(best.u[1], best.v[1]))]

        merged_away: Set[int] = set()
        for i, j in to_merge:
            state.row_sets[i] = sorted(state.row_sets[i] + state.row_sets[j])
            merged_away.add(j)
        state.row_sets = [
            row for idx, row in enumerate(state.row_sets)
            if idx not in merged_away
        ]
        _absorb_singletons(state, num_rows)

    return None


# --------------------------------------------------------------------- #
# The full procedure (Figure 3)
# --------------------------------------------------------------------- #

@dataclass
class EncodingResult:
    """Outcome of :func:`encode_classes`.

    Attributes
    ----------
    codes:
        Per-class codes (α index -> bit), strict encoding.
    num_alpha:
        Number of α functions (t).
    policy_used:
        ``"trivial"`` (g already feasible / encoding irrelevant),
        ``"chart"`` (the paper's encoder won), or ``"random"`` (the random
        draft was at least as good — paper Step 8).
    image:
        The image function built with the returned codes.
    image_classes_chart / image_classes_random:
        Class counts of the image under both encodings for Step 3's λ'
        (when computed).
    """

    codes: List[Dict[int, int]]
    num_alpha: int
    policy_used: str
    image: Column
    image_classes_chart: Optional[int] = None
    image_classes_random: Optional[int] = None


def encode_classes(
    manager: BddManager,
    class_functions: Sequence[Column],
    alpha_levels: Sequence[int],
    k: int,
    use_dontcares: bool = True,
    bound_size: Optional[int] = None,
    policy: str = "chart",
    forbidden_bound_levels: Sequence[int] = (),
    preferred_free_levels: Sequence[int] = (),
    benefit_weights: Tuple[float, float] = (1.0, 1.0),
) -> EncodingResult:
    """Run the Figure-3 encoding procedure.

    Parameters
    ----------
    class_functions:
        The compatible class functions fc (over the free variables).
    alpha_levels:
        Freshly allocated manager variables for the α functions, one per
        code bit; ``len(alpha_levels)`` must be ceil(log2(#classes)).
    k:
        LUT input count (κ-feasibility threshold and default bound size).
    policy:
        ``"chart"`` runs the full procedure; ``"random"`` stops after the
        draft encoding (the baseline ablation).
    forbidden_bound_levels / preferred_free_levels:
        Passed through to variable partitioning (used by the
        hyper-function flow to steer pseudo primary inputs).
    """
    n = len(class_functions)
    if n < 2:
        raise ValueError("encoding needs at least two classes")
    t = len(alpha_levels)
    if t != max(1, math.ceil(math.log2(n))):
        raise ValueError(
            f"need exactly {max(1, math.ceil(math.log2(n)))} alpha levels "
            f"for {n} classes, got {t}"
        )

    with obs.span("encode.draft", manager=manager):
        codes = canonical_codes(n, t)
        draft = build_image_function(
            manager, alpha_levels, codes, class_functions
        )
        draft_support = sorted(
            set(manager.support(draft.on)) | set(manager.support(draft.dc))
        )
    result = EncodingResult(
        codes=codes, num_alpha=t, policy_used="trivial", image=draft
    )
    if len(draft_support) <= k or policy == "random":
        if policy == "random" and len(draft_support) > k:
            result.policy_used = "random"
        return result

    # Step 3: variable partitioning of the draft image.
    chosen_bound_size = bound_size if bound_size is not None else min(
        k, len(draft_support) - 1
    )
    with obs.span("encode.varpart", manager=manager):
        vp = select_bound_set(
            manager,
            draft.on,
            draft_support,
            chosen_bound_size,
            dc=draft.dc,
            use_dontcares=use_dontcares,
            forbidden=forbidden_bound_levels,
            preferred_free=preferred_free_levels,
            draft=DraftImage(class_functions, codes, alpha_levels),
        )
    alpha_set = set(alpha_levels)
    alphas_in_bound = [
        a for a, lv in enumerate(alpha_levels) if lv in vp.bound_levels
    ]
    alphas_in_free = [
        a for a, lv in enumerate(alpha_levels) if lv not in vp.bound_levels
    ]
    if not alphas_in_bound or not alphas_in_free:
        # Theorem 3.1: all α together in λ' or μ' — encoding irrelevant.
        return result

    y1_levels = [lv for lv in vp.bound_levels if lv not in alpha_set]
    num_cols = 1 << len(alphas_in_bound)
    num_rows = 1 << len(alphas_in_free)

    with obs.span("encode.column_sets", manager=manager):
        partitions = [
            _partition_of(manager, fc, y1_levels) for fc in class_functions
        ]
        column_result = combine_column_sets(partitions, num_rows)
    with obs.span("encode.row_sets", manager=manager):
        rows = combine_row_sets(
            partitions, column_result, num_rows, num_cols,
            benefit_weights=benefit_weights,
        )
    # Step 3's search counted the draft over λ' with the same
    # don't-care rule: that is the random encoding's class count.
    random_classes = result.image_classes_random = vp.num_classes
    if rows is None:
        result.policy_used = "random"
        return result

    row_sets, column_set_of_class = rows
    with obs.span("encode.chart", manager=manager):
        column_set_sizes: Dict[int, int] = {}
        for cls, cs in column_set_of_class.items():
            column_set_sizes[cs] = column_set_sizes.get(cs, 0) + 1
        chart = pack_chart(
            row_sets, column_set_of_class, column_set_sizes,
            num_rows, num_cols,
        )
    if chart is None:
        result.policy_used = "random"
        return result

    with obs.span("encode.image_rebuild", manager=manager):
        chart_codes = chart.codes(n, alphas_in_bound, alphas_in_free)
        chart_image = build_image_function(
            manager, alpha_levels, chart_codes, class_functions
        )
        chart_classes = count_classes(
            manager,
            chart_image.on,
            list(vp.bound_levels),
            chart_image.dc,
            use_dontcares,
        )
    result.image_classes_chart = chart_classes

    # Step 8: keep whichever encoding yields fewer classes.
    if random_classes < chart_classes:
        result.policy_used = "random"
        return result
    result.policy_used = "chart"
    result.codes = chart_codes
    result.image = chart_image
    return result


def _partition_of(
    manager: BddManager, fc: Column, y1_levels: Sequence[int]
) -> Partition:
    on_parts = manager.cofactor_enumerate(fc.on, list(y1_levels))
    dc_parts = manager.cofactor_enumerate(fc.dc, list(y1_levels))
    return Partition(tuple(zip(on_parts, dc_parts)))
