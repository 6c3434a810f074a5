"""Don't care assignment as clique partitioning (paper Section 3.1).

Columns of an incompletely specified function can be *merged* when they
never disagree on a specified minterm.  The paper builds a compatibility
graph over the λ-set vertices and covers it with the fewest cliques, each
clique becoming one compatible class; since clique partitioning is
NP-complete it uses the polynomial heuristic from Gajski et al.'s
*High-Level Synthesis* text (reference [9]) — the classic
Tseng/Siewiorek-style "merge the pair with the most common neighbours"
procedure implemented here.

Columns packed as truth tables over their common support are covered by
:func:`packed_cover`, the one packed copy of the heuristic: the class
computation builds its class functions from it, and the packed merged
class count (:func:`repro.fastpath.bitops.count_merged_classes`) is its
length.  Wider columns, and ``fast_path="bdd"``, take the BDD reference
path (:func:`compatibility_graph` plus a BDD merge-verify).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Set, Tuple

from ..bdd import FALSE, BddManager
from . import compatible  # imports this module back: use attributes at call time

if TYPE_CHECKING:
    from .compatible import Column

__all__ = [
    "clique_partition",
    "assign_dontcares",
    "compatibility_graph",
    "packed_cover",
]


def clique_partition(
    num_vertices: int, compatible: Callable[[int, int], bool]
) -> List[List[int]]:
    """Partition vertices into cliques of the compatibility graph.

    ``compatible(i, j)`` must be symmetric.  Returns a list of cliques
    (lists of vertex ids), each vertex in exactly one clique.  The
    heuristic repeatedly merges the pair of super-vertices with the most
    common compatible neighbours (ties: oldest pair), which is Gajski's
    recommended clique-partitioning procedure.
    """
    # adjacency over super-vertices; a super-vertex is a clique-in-progress.
    cliques: List[List[int]] = [[v] for v in range(num_vertices)]
    adjacency: List[Set[int]] = [set() for _ in range(num_vertices)]
    for i in range(num_vertices):
        for j in range(i + 1, num_vertices):
            if compatible(i, j):
                adjacency[i].add(j)
                adjacency[j].add(i)

    alive: Set[int] = set(range(num_vertices))
    while True:
        best: Tuple[int, int, int] | None = None  # (common, -i, -j) maximised
        best_pair: Tuple[int, int] | None = None
        alive_sorted = sorted(alive)
        for a_pos, i in enumerate(alive_sorted):
            for j in alive_sorted[a_pos + 1 :]:
                if j not in adjacency[i]:
                    continue
                common = len(adjacency[i] & adjacency[j] & alive)
                key = (common, -i, -j)
                if best is None or key > best:
                    best = key
                    best_pair = (i, j)
        if best_pair is None:
            break
        i, j = best_pair
        # Merge j into i: the merged vertex is compatible with the
        # intersection of the neighbourhoods (clique property).
        cliques[i].extend(cliques[j])
        merged_adj = adjacency[i] & adjacency[j]
        merged_adj.discard(i)
        merged_adj.discard(j)
        adjacency[i] = merged_adj
        for k in alive:
            if k in (i, j):
                continue
            adjacency[k].discard(j)
            if k not in merged_adj:
                adjacency[k].discard(i)
        alive.discard(j)

    return [sorted(cliques[i]) for i in sorted(alive)]


def compatibility_graph(
    manager: BddManager, columns: Sequence[Column]
) -> List[Set[int]]:
    """Adjacency sets of the column-compatibility graph (Section 3.1)."""
    num = len(columns)
    offs = [
        manager.apply_diff(manager.apply_not(c.on), c.dc) for c in columns
    ]
    adjacency: List[Set[int]] = [set() for _ in range(num)]
    for i in range(num):
        for j in range(i + 1, num):
            conflict = manager.apply_or(
                manager.apply_and(columns[i].on, offs[j]),
                manager.apply_and(columns[j].on, offs[i]),
            )
            if conflict == FALSE:
                adjacency[i].add(j)
                adjacency[j].add(i)
    return adjacency


def _pack_columns(manager: BddManager, columns: Sequence[Column]):
    """Pack columns over their common support, or ``None`` when too wide.

    Returns ``(on_bits, off_bits)`` lists indexed like ``columns``.  A
    packed (on, off) pair carries exactly the information the adjacency
    and merge-verify tests below consume: ``on_i & off_j`` is empty in
    the packed domain iff the corresponding BDD conjunction is FALSE.
    """
    from ..fastpath import bitops  # deferred: avoids an import cycle

    support: Set[int] = set()
    for col in columns:
        support |= set(manager.support(col.on))
        support |= set(manager.support(col.dc))
    levels = sorted(support)
    if len(levels) > bitops.DEFAULT_MAX_WIDTH:
        manager.perf.fastpath_fallbacks += 1
        return None
    full = (1 << (1 << len(levels))) - 1
    on_bits: List[int] = []
    off_bits: List[int] = []
    local: Dict[int, Tuple[int, int]] = {}  # nodes the columns share
    try:
        for col in columns:
            pair = bitops.pack_pair(manager, col.on, col.dc, levels, local)
            on_bits.append(pair.on)
            off_bits.append(full & ~(pair.on | pair.dc))
    except KeyError:
        manager.perf.fastpath_fallbacks += 1
        return None
    return on_bits, off_bits


def packed_cover(
    on_bits: Sequence[int], off_bits: Sequence[int]
) -> List[List[int]]:
    """Cover packed columns with classes; each class lists its members
    in merge order.

    ``on_bits[i]`` and ``off_bits[i]`` are column ``i``'s on- and
    off-set as truth tables over one common support.  Two columns are
    compatible when neither's on-set meets the other's off-set; the
    compatibility graph is covered by :func:`clique_partition`, and
    each clique is merged greedily in order, a member that conflicts
    with the running merge going on to the clique's next class (see
    :func:`assign_dontcares`).
    """
    num = len(on_bits)
    adjacency: List[Set[int]] = [set() for _ in range(num)]
    for i in range(num):
        on_i, off_i = on_bits[i], off_bits[i]
        for j in range(i + 1, num):
            if not ((on_i & off_bits[j]) or (on_bits[j] & off_i)):
                adjacency[i].add(j)
                adjacency[j].add(i)
    cover: List[List[int]] = []
    for clique in clique_partition(num, lambda i, j: j in adjacency[i]):
        pending = clique
        while pending:
            merged_on = merged_off = 0
            members: List[int] = []
            rest: List[int] = []
            for i in pending:
                if (merged_on & off_bits[i]) or (merged_off & on_bits[i]):
                    rest.append(i)
                    continue
                merged_on |= on_bits[i]
                merged_off |= off_bits[i]
                members.append(i)
            cover.append(members)
            pending = rest
    return cover


def assign_dontcares(
    manager: BddManager,
    columns: Sequence[Column],
    fast_path: str = "auto",
) -> Tuple[List[int], List[Column]]:
    """Merge compatible columns into the fewest classes the heuristic finds.

    Returns ``(class_of_position, class_functions)`` where the class
    function of a clique is the pairwise merge of its member columns
    (on = union of on-sets, dc = intersection of dc-sets).

    Note: pairwise compatibility inside a clique does *not* by itself
    guarantee the merged column is consistent — pairwise-compatible columns
    can conflict jointly (a's on overlaps the union of others' offs only
    after merging).  The standard fix, used here, is to merge greedily and
    verify: a member that conflicts with the running merge is split off
    into a fresh class.

    Unless ``fast_path="bdd"`` the quadratic compatibility tests (and the
    merge-verify disjointness checks) run on packed truth tables when the
    common column support is narrow enough; the emptiness verdicts — and
    therefore the clique cover and the class membership — are identical,
    and only the final merged class functions are built as BDDs.
    """
    # Deduplicate identical columns first; the clique heuristic is
    # quadratic and identical columns are always mergeable.
    interned: Dict[Tuple[int, int], int] = {}
    rep_columns: List[Column] = []
    rep_of_position: List[int] = []
    for col in columns:
        index = interned.get(col.key)
        if index is None:
            index = len(rep_columns)
            interned[col.key] = index
            rep_columns.append(col)
        rep_of_position.append(index)

    packed = (
        _pack_columns(manager, rep_columns) if fast_path != "bdd" else None
    )
    class_functions: List[Column] = []
    class_of_rep: Dict[int, int] = {}

    def add_class(members: List[int], merged_on: int, merged_off: int):
        merged_dc = manager.apply_diff(manager.apply_not(merged_on), merged_off)
        for rep in members:
            class_of_rep[rep] = len(class_functions)
        class_functions.append(compatible.Column(merged_on, merged_dc))

    if packed is not None:
        cover = packed_cover(*packed)
        off_of = [
            manager.apply_diff(manager.apply_not(c.on), c.dc)
            for c in rep_columns
        ]
        for members in cover:
            merged_on = merged_off = FALSE
            for rep in members:
                merged_on = manager.apply_or(merged_on, rep_columns[rep].on)
                merged_off = manager.apply_or(merged_off, off_of[rep])
            add_class(members, merged_on, merged_off)
    else:
        adjacency = compatibility_graph(manager, rep_columns)
        cliques = clique_partition(
            len(rep_columns), lambda i, j: j in adjacency[i]
        )
        off_of = [
            manager.apply_diff(manager.apply_not(c.on), c.dc)
            for c in rep_columns
        ]
        for clique in cliques:
            pending = list(clique)
            while pending:
                # The merged class must be ON wherever any member is ON
                # and OFF wherever any member is OFF; it is consistent
                # iff those sets stay disjoint.  Members that would
                # break disjointness are deferred to a fresh class.
                merged_on = FALSE
                merged_off = FALSE
                members: List[int] = []
                rest: List[int] = []
                for rep in pending:
                    col_on, col_off = rep_columns[rep].on, off_of[rep]
                    if (
                        manager.apply_and(merged_on, col_off) != FALSE
                        or manager.apply_and(merged_off, col_on) != FALSE
                    ):
                        rest.append(rep)
                        continue
                    merged_on = manager.apply_or(merged_on, col_on)
                    merged_off = manager.apply_or(merged_off, col_off)
                    members.append(rep)
                add_class(members, merged_on, merged_off)
                pending = rest

    class_of_position = [class_of_rep[rep] for rep in rep_of_position]
    return class_of_position, class_functions
