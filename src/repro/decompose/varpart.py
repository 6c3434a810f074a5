"""Bound-set (λ set) selection — the role of the paper's reference [2].

Jiang et al. (ASP-DAC'97) select the λ set by counting, on the BDD, the
number of distinct sub-functions below the cut for candidate bound sets.
This module implements the same cost function (the compatible class count,
computed by cofactor enumeration, which is exactly the BDD cut count) with
a search strategy sized to pure Python:

* exhaustive search over all bound sets when the binomial is small,
* otherwise greedy growth plus a swap-improvement pass.

The searches run over one of two interchangeable *backends* sharing the
identical driver (same candidate order, same tie-breaking, hence
bit-identical selections):

* :class:`_BddSearch` — the incremental distinct-residual sets over BDD
  node ids (the historical path, always available);
* :class:`~repro.fastpath.bitops.PackedSearch` — packed-integer truth
  tables for supports of at most
  :data:`~repro.fastpath.bitops.DEFAULT_MAX_WIDTH` variables, where
  extending a prefix is a single masked-shift delta swap instead of a
  residual-set cofactor sweep (see docs/ALGORITHMS.md, "Bit-parallel
  kernels").  Selected per call by ``fast_path`` =
  ``"auto"`` (width cutoff) | ``"bitpack"`` (force, up to a hard cap) |
  ``"bdd"`` (never), falling back transparently when the support is too
  wide or not coverable.

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
  manager-independent global memo by the packed bits themselves; the
  BDD backend keys a per-manager dict by node ids, which are canonical
  and never recycled within one manager.

Ties are broken toward lexicographically smallest level tuples so results
are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..bdd import FALSE, TRUE, BddManager
from ..fastpath import bitops
from .compatible import compute_classes
from .cost import CostModel

__all__ = ["VariablePartition", "select_bound_set"]


@dataclass(frozen=True)
class VariablePartition:
    """A chosen (bound set, free set) pair with its class count."""

    bound_levels: Tuple[int, ...]
    free_levels: Tuple[int, ...]
    num_classes: int


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
        extended = _extend_distinct(self.manager, state, lv)
        self.memo[key] = len(extended)
        return len(extended), extended

    def count_bound(self, bound: Sequence[int]) -> int:
        key = (self.on, self.dc, tuple(sorted(bound)))
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        manager = self.manager
        manager.check_budget()
        on_parts = manager.cofactor_enumerate(self.on, list(bound))
        if self.dc == FALSE:
            count = len(set(on_parts))
        else:
            dc_parts = manager.cofactor_enumerate(self.dc, list(bound))
            count = len(set(zip(on_parts, dc_parts)))
        self.memo[key] = count
        return count

    def merged_count_bound(self, bound: Sequence[int]) -> int:
        key = (self.on, self.dc, tuple(bound), "merged")
        cached = self.memo.get(key)
        if cached is None:
            cached = self.memo[key] = compute_classes(
                self.manager, self.on, list(bound), self.dc, True,
                fast_path=self.fast_path,
            ).num_classes
        return cached


def _make_search(
    manager: BddManager,
    on: int,
    dc: int,
    support: Sequence[int],
    fast_path: str,
):
    """Choose the search backend for one ``select_bound_set`` call."""
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
    return _BddSearch(manager, on, dc, fast_path)


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
    """
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

    search = _make_search(manager, on, dc, support, fast_path)

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

    def penalty_of(bound: Tuple[int, ...]) -> int:
        return sum(1 for lv in bound if lv in preferred_free)

    def consider(bound: Tuple[int, ...], classes: int) -> None:
        nonlocal best
        key = cost.bound_key(classes, alpha_depth_of(bound)) + (
            penalty_of(bound),
            bound,
        )
        if best is None or key < best:
            best = key

    def dfs(start: int, chosen: List[int], state) -> None:
        need = bound_size - len(chosen)
        last_level = need == 1
        manager.check_budget()
        for i in range(start, len(ordered) - need + 1):
            lv = ordered[i]
            if last_level:
                bound = tuple(chosen + [lv])
                count, _ = search.eval_candidate(state, lv, bound)
                consider(bound, count)
            else:
                extended = search.extend(state, lv)
                chosen.append(lv)
                dfs(i + 1, chosen, extended)
                chosen.pop()

    dfs(0, [], search.root())
    assert best is not None
    return best[-1]


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
