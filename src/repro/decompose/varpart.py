"""Bound-set (λ set) selection — the role of the paper's reference [2].

Jiang et al. (ASP-DAC'97) select the λ set by counting, on the BDD, the
number of distinct sub-functions below the cut for candidate bound sets.
This module implements the same cost function (the compatible class count,
computed by cofactor enumeration, which is exactly the BDD cut count) with
a search strategy sized to pure Python:

* exhaustive search over all bound sets when the binomial is small,
* otherwise greedy growth plus a swap-improvement pass.

The searches run over one of three interchangeable *backends* sharing the
identical driver (same candidate order, same tie-breaking, hence
bit-identical selections):

* :class:`~repro.fastpath.bitops.PackedSearch` — packed-integer truth
  tables for supports of at most
  :data:`~repro.fastpath.bitops.DEFAULT_MAX_WIDTH` variables, where
  extending a prefix is a single masked-shift delta swap instead of a
  residual-set cofactor sweep (see docs/ALGORITHMS.md, "Bit-parallel
  kernels").  The support width picks it (``fast_path="auto"``),
  falling back transparently when the support is too wide or not
  coverable.  The flows always take that default; ``"bitpack"`` (force,
  up to a hard cap) and ``"bdd"`` (never) are the seam through which the
  differential tests reach each backend.
* :class:`_BddSearch` — the incremental distinct-residual sets over BDD
  node ids (the historical path, always available).
* :class:`_ClassSearch` — for a draft image handed in as a
  :class:`DraftImage`: the same counts from the class functions the
  image multiplexes, taken instead of :class:`_BddSearch` when their
  shared BDD is smaller than the image's (the α levels sit at the
  bottom of the order, which makes the image large).

:func:`count_classes` takes a single count through the same chooser
(:func:`_make_search`), so a one-off count shares the searches'
backends and memos.

A search over a support wider than the packed cut-over runs inside a
:meth:`~repro.bdd.BddManager.scratch` scope and keeps only what it
returns: its counts, in the manager's memo.  That holds as well for a
search whose best bound set cannot shrink the support
(:attr:`VariablePartition.cannot_shrink`): the Shannon split the
recursion takes instead ranks its variables with
:meth:`~repro.bdd.BddManager.split_sizes`, which needs no cofactor.

Three performance notes:

* During the *search*, class counts are syntactic — distinct (on, dc)
  cofactor pairs, no clique-partitioned don't-care merging — because the
  merge is expensive and rarely changes the ranking.  The final
  ``num_classes`` reported for the chosen bound set is exact.
* Greedy candidate evaluation is incremental: the search state for the
  current bound set is kept, and adding variable ``x`` only extends that
  state instead of re-enumerating all ``2**b`` cofactors of the root.
* Each backend memoizes its own counts, so repeated queries for the same
  ``(on, dc, bound)`` — from the swap pass and from re-decompositions of
  the same sub-function at other recursion levels — are answered from
  the memo instead of re-counted.  The packed backend keys a
  manager-independent global memo by the packed pair, which hashes its
  bits once and compares equal by them; the BDD and class-function
  backends key one per-manager dict by the function's node ids, which
  are canonical within one manager
  and recycled only by :meth:`~repro.bdd.BddManager.compact`, which
  clears the dict, and by a scratch scope, which drops the entries of
  the roots it drops.

Ties are broken toward lexicographically smallest level tuples so results
are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..bdd import FALSE, TRUE, BddManager
from ..fastpath import bitops
from .compatible import Column, compute_classes
from .cost import CostModel

__all__ = [
    "DraftImage",
    "VariablePartition",
    "alpha_count",
    "count_classes",
    "select_bound_set",
]


def alpha_count(num_classes: int) -> int:
    """The code bits t = max(1, ceil(log2 n)) that ``num_classes``
    compatible classes need: one α function per bit."""
    return max(1, math.ceil(math.log2(num_classes)))


@dataclass(frozen=True)
class VariablePartition:
    """A chosen (bound set, free set) pair with its class count."""

    bound_levels: Tuple[int, ...]
    free_levels: Tuple[int, ...]
    num_classes: int

    @property
    def cannot_shrink(self) -> bool:
        """True when a step on this bound set cannot shrink the support:
        its classes need as many α functions as it has variables
        (``alpha_count(n) >= |bound|`` with at least two classes)."""
        n = self.num_classes
        return n >= 2 and alpha_count(n) >= len(self.bound_levels)


@dataclass(frozen=True)
class DraftImage:
    """What a draft image g multiplexes, for :func:`select_bound_set`.

    g is ``class_functions[i]`` where the α levels spell ``codes[i]``
    (α index -> bit, every bit given, no two codes equal); a code point
    no class owns reads (on, dc) = (FALSE, TRUE).
    :func:`~repro.decompose.encoding.build_image_function` builds g
    from the same three.
    """

    class_functions: Sequence[Column]
    codes: Sequence[Dict[int, int]]
    alpha_levels: Sequence[int]


# --------------------------------------------------------------------- #
# Search backends
# --------------------------------------------------------------------- #

class _BddSearch:
    """Distinct-residual-set backend over BDD node ids (always valid).

    Counts are memoized in the manager's ``_class_counts`` dict, keyed by
    ``(on, dc, sorted bound)``: the set of distinct columns is invariant
    under reordering the bound variables, so permutations of one bound
    set share an entry.  Merged counts are order-sensitive and keep the
    bound in order under a ``"merged"`` tag.
    """

    __slots__ = ("manager", "on", "dc", "fast_path", "memo")

    def __init__(self, manager: BddManager, on: int, dc: int, fast_path: str):
        self.manager = manager
        self.on = on
        self.dc = dc
        self.fast_path = fast_path
        self.memo = manager._class_counts

    def root(self):
        return {(self.on, self.dc)}

    def extend(self, state, lv: int):
        return _extend_distinct(self.manager, state, lv)

    def canonical(self, state):
        # Sorted for deterministic iteration in the next growth step.
        return sorted(state)

    def eval_candidate(self, state, lv: int, bound: Sequence[int]):
        key = (self.on, self.dc, tuple(sorted(bound)))
        cached = self.memo.get(key)
        if cached is not None:
            return cached, None
        self.manager.check_budget()
        extended = self.extend(state, lv)
        self.memo[key] = len(extended)
        return len(extended), extended

    def count_bound(self, bound: Sequence[int]) -> int:
        key = (self.on, self.dc, tuple(sorted(bound)))
        cached = self.memo.get(key)
        if cached is None:
            self.manager.check_budget()
            cached = self.memo[key] = self._count(bound)
        return cached

    def _count(self, bound: Sequence[int]) -> int:
        manager = self.manager
        on_parts = manager.cofactor_enumerate(self.on, list(bound))
        if self.dc == FALSE:
            return len(set(on_parts))
        dc_parts = manager.cofactor_enumerate(self.dc, list(bound))
        return len(set(zip(on_parts, dc_parts)))

    def merged_count_bound(self, bound: Sequence[int]) -> int:
        key = (self.on, self.dc, tuple(bound), "merged")
        cached = self.memo.get(key)
        if cached is None:
            cached = self.memo[key] = compute_classes(
                self.manager, self.on, list(bound), self.dc, True,
                fast_path=self.fast_path,
            ).num_classes
        return cached


class _ClassSearch(_BddSearch):
    """A draft image's class counts from its class functions.

    For a bound set B, the cofactor of g = OR_c cube(c) · F_c at an
    assignment of B is, at every code point c left free, the class
    function's (on, dc) cofactor for B's other variables, with B's α
    levels fixing their bits of c.  Two cofactors of g are equal exactly
    when these tuples are, so g's distinct (on, dc) cofactor pairs and
    the distinct tuples have the same count.

    A residual is one flat tuple: the on-parts of all ``2**t`` code
    points, then their dc-parts.  Fixing α bit ``a`` to ``v`` replaces
    every entry by the one whose code point has bit ``a`` equal to
    ``v``: the tuple keeps its length and stops depending on the bit.
    Counts and the merged count go to the manager's memo under g's
    node ids and :class:`_BddSearch`'s keys, so a later search over g
    replays them.
    """

    __slots__ = ("top", "bit_of")

    def __init__(
        self,
        manager: BddManager,
        on: int,
        dc: int,
        fast_path: str,
        draft: DraftImage,
    ):
        super().__init__(manager, on, dc, fast_path)
        points = 1 << len(draft.alpha_levels)
        ons, dcs = [FALSE] * points, [TRUE] * points
        for fc, code in zip(draft.class_functions, draft.codes):
            point = sum(bit << a for a, bit in code.items())
            ons[point], dcs[point] = fc.on, fc.dc
        self.top = tuple(ons + dcs)
        self.bit_of = {lv: a for a, lv in enumerate(draft.alpha_levels)}

    def root(self):
        return {self.top}

    def extend(self, state, lv: int):
        bit = self.bit_of.get(lv)
        if bit is None:
            return _extend_tuples(self.manager, state, lv)
        mask = 1 << bit
        width = range(len(self.top))
        low = [i & ~mask for i in width]
        high = [i | mask for i in width]
        extended = set()
        for residual in state:
            extended.add(tuple([residual[i] for i in low]))
            extended.add(tuple([residual[i] for i in high]))
        return extended

    def _count(self, bound: Sequence[int]) -> int:
        state = self.root()
        for lv in bound:
            state = self.extend(state, lv)
        return len(state)


def _make_search(
    manager: BddManager,
    on: int,
    dc: int,
    support: Sequence[int],
    fast_path: str,
    draft: Optional[DraftImage] = None,
):
    """Choose the search backend for one ``select_bound_set`` call.

    A draft image whose class functions' shared BDD is smaller than the
    image's is counted from them wherever the BDD backend would run.
    """
    perf = manager.perf
    if fast_path != "bdd":
        limit = (
            bitops.HARD_MAX_WIDTH
            if fast_path == "bitpack"
            else bitops.DEFAULT_MAX_WIDTH
        )
        if len(support) <= limit:
            try:
                pair = bitops.pack_pair(
                    manager, on, dc, tuple(sorted(support))
                )
            except KeyError:
                # Support not covered by the caller's universe — the
                # BDD path handles it unconditionally.
                perf.fastpath_fallbacks += 1
            else:
                perf.fastpath_selects += 1
                return bitops.PackedSearch(pair, perf)
        else:
            perf.fastpath_fallbacks += 1
    if draft is not None:
        functions = draft.class_functions
        class_size = manager.shared_size(
            [fc.on for fc in functions] + [fc.dc for fc in functions]
        )
        if manager.shared_size((on, dc), limit=class_size) > class_size:
            perf.class_searches += 1
            return _ClassSearch(manager, on, dc, fast_path, draft)
    return _BddSearch(manager, on, dc, fast_path)


def count_classes(
    manager: BddManager,
    on: int,
    bound_levels: Sequence[int],
    dc: int = FALSE,
    use_dontcares: bool = True,
    fast_path: str = "auto",
) -> int:
    """The compatible class count of ``(on, dc)`` for one bound set.

    The one way a count alone is taken: the backend :func:`_make_search`
    picks for the union of the function's support and the bound, with
    its memo, merged over don't cares exactly when the searches merge
    them, so a search's ``num_classes`` is this count of its bound set.
    """
    support = sorted(
        set(manager.support(on))
        | set(manager.support(dc))
        | set(bound_levels)
    )
    search = _make_search(manager, on, dc, support, fast_path)
    if dc == FALSE or not use_dontcares:
        return search.count_bound(bound_levels)
    return search.merged_count_bound(bound_levels)


def select_bound_set(
    manager: BddManager,
    on: int,
    support: Sequence[int],
    bound_size: int,
    dc: int = FALSE,
    use_dontcares: bool = True,
    exhaustive_limit: int = 512,
    forbidden: Iterable[int] = (),
    preferred_free: Iterable[int] = (),
    fast_path: str = "auto",
    cost: Optional[CostModel] = None,
    level_depths: Optional[Dict[int, int]] = None,
    draft: Optional[DraftImage] = None,
) -> VariablePartition:
    """Pick the bound set of ``bound_size`` variables minimising cost.

    The default (area) cost minimises the compatible class count exactly
    as the historical search did.  Delay-aware cost models additionally
    rank candidates by the depth of the α LUTs they would create
    (``level_depths`` maps candidate levels to their driving signal's
    logic depth; absent levels count as depth 0).

    Parameters
    ----------
    support:
        Candidate variable levels (normally the function's true support).
    forbidden:
        Levels that must stay in the free set (the hyper-function flow uses
        this to pin pseudo primary inputs per the column-encoding baseline).
        Demoted to a preference when too few other candidates remain.
    preferred_free:
        Levels to keep free when the cost ties (HYDE's "keep PPIs close to
        the output" preference from Section 4.3).
    exhaustive_limit:
        Exhaustive search is used when C(|support|, bound_size) does not
        exceed this; greedy + swap otherwise.
    fast_path:
        Backend policy (see the module docstring).
    draft:
        When ``(on, dc)`` is a draft image, what it multiplexes: the
        search may count its classes from the class functions.

    A support wider than the packed cut-over is searched inside a
    scratch scope that keeps only the returned partition and the
    counts.
    """
    args = (
        manager, on, support, bound_size, dc, use_dontcares,
        exhaustive_limit, forbidden, preferred_free, fast_path, cost,
        level_depths, draft,
    )
    if len(support) <= bitops.DEFAULT_MAX_WIDTH:
        return _select_bound_set(*args)
    with manager.scratch():
        return _select_bound_set(*args)


def _select_bound_set(
    manager: BddManager,
    on: int,
    support: Sequence[int],
    bound_size: int,
    dc: int,
    use_dontcares: bool,
    exhaustive_limit: int,
    forbidden: Iterable[int],
    preferred_free: Iterable[int],
    fast_path: str,
    cost: Optional[CostModel],
    level_depths: Optional[Dict[int, int]],
    draft: Optional[DraftImage],
) -> VariablePartition:
    """The body of :func:`select_bound_set`, without the scope."""
    forbidden_set = set(forbidden)
    preferred_free_set = set(preferred_free)
    candidates = [lv for lv in support if lv not in forbidden_set]
    if bound_size >= len(candidates):
        # Not enough unforbidden variables (possible late in a force-free
        # PPI decomposition): demote the exclusion to a preference.
        preferred_free_set |= forbidden_set
        candidates = list(support)
    if bound_size >= len(candidates):
        raise ValueError(
            f"bound size {bound_size} must be smaller than the candidate "
            f"support ({len(candidates)} variables)"
        )

    search = _make_search(manager, on, dc, support, fast_path, draft)

    if cost is None:
        cost = CostModel()
    depths = level_depths if (level_depths and not cost.is_area) else None

    def alpha_depth_of(bound: Sequence[int]) -> int:
        if depths is None:
            return 0
        return 1 + max((depths.get(lv, 0) for lv in bound), default=0)

    def key_of(bound: Tuple[int, ...]) -> Tuple:
        # A budget checkpoint per swap trial, whichever backend counts.
        manager.check_budget()
        classes = search.count_bound(bound)
        penalty = sum(1 for lv in bound if lv in preferred_free_set)
        return cost.bound_key(classes, alpha_depth_of(bound)) + (
            penalty,
            bound,
        )

    # Very wide supports: restrict the search to the topmost-in-order
    # support variables (cheap to cofactor and, as in reference [2]'s
    # BDD-cut selection, the natural candidates for the bound set).
    # Preferred-free variables are pruned first.
    max_candidates = 20
    if len(candidates) > max_candidates:
        candidates = sorted(
            candidates,
            key=lambda lv: (lv in preferred_free_set, lv),
        )[:max_candidates]

    total = math.comb(len(candidates), bound_size)
    if total <= exhaustive_limit:
        best = _exhaustive_bound_set(
            manager, search, candidates, bound_size, preferred_free_set,
            cost, alpha_depth_of,
        )
    else:
        best = _greedy_bound_set(
            manager, search, candidates, bound_size, preferred_free_set,
            cost, alpha_depth_of,
        )
        best = _swap_improve(manager, candidates, best, key_of)

    free = tuple(lv for lv in support if lv not in set(best))
    manager.check_budget()
    if dc == FALSE or not use_dontcares:
        num_classes = search.count_bound(best)
    else:
        num_classes = search.merged_count_bound(best)
    return VariablePartition(
        bound_levels=tuple(sorted(best)),
        free_levels=free,
        num_classes=num_classes,
    )


def _extend_distinct(
    manager: BddManager,
    distinct: Iterable[Tuple[int, int]],
    lv: int,
) -> Set[Tuple[int, int]]:
    """Cofactor every residual pair on ``lv`` (both phases).

    This is the inner loop of the BDD-backed bound-set search, so the
    trivial cofactor cases (terminal, ``lv`` above or at the residual's
    top variable) are resolved inline against the manager's node arrays —
    a Python-level call per residual costs more than the cofactor.
    """
    cofactor = manager.cofactor
    var, lo, hi = manager._var, manager._lo, manager._hi
    extended: Set[Tuple[int, int]] = set()
    for res_on, res_dc in distinct:
        if res_on <= TRUE or var[res_on] > lv:
            on0 = on1 = res_on
        elif var[res_on] == lv:
            on0, on1 = lo[res_on], hi[res_on]
        else:
            on0 = cofactor(res_on, lv, 0)
            on1 = cofactor(res_on, lv, 1)
        if res_dc == FALSE:
            dc0 = dc1 = FALSE
        elif res_dc == TRUE or var[res_dc] > lv:
            dc0 = dc1 = res_dc
        elif var[res_dc] == lv:
            dc0, dc1 = lo[res_dc], hi[res_dc]
        else:
            dc0 = cofactor(res_dc, lv, 0)
            dc1 = cofactor(res_dc, lv, 1)
        extended.add((on0, dc0))
        extended.add((on1, dc1))
    return extended


def _extend_tuples(
    manager: BddManager, residuals: Iterable[Tuple[int, ...]], lv: int
) -> Set[Tuple[int, ...]]:
    """:func:`_extend_distinct` for the flat residual tuples of
    :class:`_ClassSearch`: every entry is cofactored on ``lv``, with the
    same inline trivial cases."""
    cofactor = manager.cofactor
    var, lo, hi = manager._var, manager._lo, manager._hi
    extended: Set[Tuple[int, ...]] = set()
    for residual in residuals:
        low: List[int] = []
        high: List[int] = []
        for node in residual:
            if node <= TRUE or var[node] > lv:
                low.append(node)
                high.append(node)
            elif var[node] == lv:
                low.append(lo[node])
                high.append(hi[node])
            else:
                low.append(cofactor(node, lv, 0))
                high.append(cofactor(node, lv, 1))
        extended.add(tuple(low))
        extended.add(tuple(high))
    return extended


def _exhaustive_bound_set(
    manager: BddManager,
    search,
    candidates: Sequence[int],
    bound_size: int,
    preferred_free: Set[int],
    cost: CostModel,
    alpha_depth_of,
) -> Tuple[int, ...]:
    """Exact search over all bound sets via shared-prefix DFS.

    The DFS carries the backend search state for the chosen prefix and
    extends it one variable at a time (two persistent-cached single-var
    cofactors per residual on the BDD backend; one delta swap on the
    packed backend), so common prefixes are never re-evaluated.  No
    count-based pruning is applied: the distinct-residual count is NOT
    monotone in the bound set (columns that differ only in a variable
    added later can collapse), so any such prune would be unsound.

    Leaf counts go through the backend's memo, so a completed bound
    set's count never has to be recomputed by a later search, swap pass
    or recursion level.
    """
    if bound_size == 0:
        return ()
    ordered = sorted(candidates)
    best: Optional[Tuple] = None  # cost key + (penalty, bound)
    for bound, classes in _bound_set_counts(
        manager, search, ordered, bound_size, 0, [], search.root()
    ):
        key = cost.bound_key(classes, alpha_depth_of(bound)) + (
            sum(1 for lv in bound if lv in preferred_free),
            bound,
        )
        if best is None or key < best:
            best = key
    assert best is not None
    return best[-1]


def _bound_set_counts(
    manager: BddManager,
    search,
    ordered: Sequence[int],
    bound_size: int,
    start: int,
    chosen: List[int],
    state,
) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """Yield ``(bound, class count)`` for every completion of ``chosen``.

    The shared-prefix DFS of :func:`_exhaustive_bound_set`.  A module
    function rather than a nested closure: a closure that calls itself
    holds its own cell, and with it the manager, in a reference cycle.
    """
    need = bound_size - len(chosen)
    last_level = need == 1
    manager.check_budget()
    for i in range(start, len(ordered) - need + 1):
        lv = ordered[i]
        if last_level:
            bound = tuple(chosen + [lv])
            count, _ = search.eval_candidate(state, lv, bound)
            yield bound, count
        else:
            extended = search.extend(state, lv)
            chosen.append(lv)
            yield from _bound_set_counts(
                manager, search, ordered, bound_size, i + 1, chosen, extended
            )
            chosen.pop()


def _greedy_bound_set(
    manager: BddManager,
    search,
    candidates: Sequence[int],
    bound_size: int,
    preferred_free: Set[int],
    cost: CostModel,
    alpha_depth_of,
) -> Tuple[int, ...]:
    """Greedy growth with incremental search states.

    The state is the backend search state for the current bound; adding a
    candidate only extends that state.  Candidate counts are served by
    the backend's memo when already known; only the winning candidate's
    state is materialised once per growth step.
    """
    chosen: List[int] = []
    remaining = list(candidates)
    state = search.root()
    while len(chosen) < bound_size:
        best_lv: Optional[int] = None
        best_key: Optional[Tuple] = None
        best_state = None
        manager.check_budget()
        for lv in remaining:
            count, new_state = search.eval_candidate(
                state, lv, chosen + [lv]
            )
            key = cost.bound_key(
                count, alpha_depth_of(chosen + [lv])
            ) + (
                1 if lv in preferred_free else 0,
                lv,
            )
            if best_key is None or key < best_key:
                best_key = key
                best_lv = lv
                best_state = new_state
        assert best_lv is not None
        if best_state is None:
            # The winner's count came from a memo; materialise its
            # search state once for the next growth step.
            best_state = search.extend(state, best_lv)
        chosen.append(best_lv)
        remaining.remove(best_lv)
        state = search.canonical(best_state)
    return tuple(sorted(chosen))


def _swap_improve(
    manager: BddManager,
    candidates: Sequence[int],
    bound: Tuple[int, ...],
    key_of,
    max_rounds: int = 3,
) -> Tuple[int, ...]:
    current = tuple(sorted(bound))
    current_key = key_of(current)
    for _ in range(max_rounds):
        improved = False
        manager.check_budget()
        outside = [lv for lv in candidates if lv not in current]
        for inside in current:
            for lv in outside:
                trial = tuple(sorted([x for x in current if x != inside] + [lv]))
                trial_key = key_of(trial)
                if trial_key < current_key:
                    current, current_key = trial, trial_key
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    return current
