"""Packed-integer truth-table kernels for the decomposition hot path.

The bound-set searches of :mod:`repro.decompose.varpart` spend nearly all
of their time cofactoring BDDs one node at a time in pure Python.  For a
cone whose support fits in ``n`` variables, the same work collapses to a
handful of word-parallel operations on a single ``2**n``-bit Python int:

* **Representation** — a function over the ordered support tuple
  ``levels`` is the integer whose bit ``i`` is ``f`` at the minterm where
  ``levels[j]`` takes bit ``j`` of ``i``.  This is exactly the convention
  of :meth:`repro.bdd.BddManager.from_truth_table` /
  :meth:`~repro.bdd.BddManager.to_truth_table`, so conversions round-trip
  by construction.
* **Conversion** — one memoized pass over the BDD: every node costs two
  ANDs and an OR against precomputed per-position masks
  (:func:`var_masks`), i.e. O(|BDD| * 2**n / wordsize) machine work.
* **Cofactor enumeration / column multiplicity** — instead of walking
  ``2**b`` cofactors, the ``b`` bound positions are permuted to the top
  index bits (one masked-shift *delta swap* per variable, see
  :func:`_swap_bits`) after which the ``2**b`` columns are contiguous
  ``2**(n-b)``-bit chunks.  Distinct chunks == distinct residual
  functions == distinct BDD cofactor node ids, so counts agree with the
  BDD path bit for bit.
* **Search states** — :class:`PackedSearch` mirrors the shared-prefix
  DFS / greedy incremental extension of the BDD search: extending a
  prefix by one variable is a single delta swap, and the chosen prefix
  accumulates in the top index bits.

Width policy: tables are capped at :data:`HARD_MAX_WIDTH` variables
(``2**20`` bits = 128 KiB per table); the ``"auto"`` mode cuts over to
the BDD path above :data:`DEFAULT_MAX_WIDTH`.  All fallbacks are
transparent and counted in ``PerfCounters.fastpath_fallbacks``.

Class counts are memoized **manager-independently** in a module-level
table keyed by the packed bits themselves (not node ids), so warm worker
processes and repeated managers over the same cone reuse counts across
:class:`~repro.bdd.BddManager` lifetimes.  This is the packed backend's
only count memo; the BDD backend of :mod:`repro.decompose.varpart` keeps
its own per-manager memo over node ids.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..bdd import FALSE, TRUE

__all__ = [
    "DEFAULT_MAX_WIDTH",
    "HARD_MAX_WIDTH",
    "PackedPair",
    "PackedSearch",
    "bdd_to_packed",
    "count_distinct_columns",
    "global_memo_stats",
    "clear_global_memo",
    "pack_pair",
    "try_merged_count",
    "try_syntactic_count",
    "var_masks",
]

#: ``"auto"`` cut-over: supports wider than this stay on the BDD path.
DEFAULT_MAX_WIDTH = 20

#: Absolute cap even under ``fast_path="bitpack"`` — a 2**22-bit table is
#: 512 KiB; beyond this the big-int ops lose to the BDD's sparsity.
HARD_MAX_WIDTH = 22

#: Manager-independent class-count memo: (on_bits, dc_bits, n, positions)
#: -> count.  Cleared wholesale when it outgrows _GLOBAL_MEMO_MAX.
_GLOBAL_COUNTS: Dict[Tuple[int, int, int, Tuple[int, ...]], int] = {}
_GLOBAL_MEMO_MAX = 1 << 17
_global_hits = 0
_global_misses = 0

# ---------------------------------------------------------------------- #
# Mask caches
# ---------------------------------------------------------------------- #

# (n, p) -> (mask0, mask1): table positions whose minterm index has bit p
# clear / set.
_MASKS: Dict[Tuple[int, int], Tuple[int, int]] = {}

# (width_bits, count) -> multiplier replicating a width-bit block count
# times: sum of 2**(i*width).
_REPS: Dict[Tuple[int, int], int] = {}

# (n, j, k) with j < k -> (same, m10, m01, shift) for the delta swap of
# index bits j and k.
_SWAPS: Dict[Tuple[int, int, int], Tuple[int, int, int, int]] = {}


def var_masks(n: int, p: int) -> Tuple[int, int]:
    """Masks selecting minterms with index bit ``p`` = 0 / 1 (cached)."""
    cached = _MASKS.get((n, p))
    if cached is not None:
        return cached
    total = 1 << n
    m0 = (1 << (1 << p)) - 1
    filled = 1 << (p + 1)
    while filled < total:
        m0 |= m0 << filled
        filled <<= 1
    m1 = m0 << (1 << p)
    _MASKS[(n, p)] = (m0, m1)
    return m0, m1


def _swap_masks(n: int, j: int, k: int) -> Tuple[int, int, int, int]:
    """Precomputed delta-swap of index bits ``j`` < ``k`` over ``2**n``."""
    cached = _SWAPS.get((n, j, k))
    if cached is not None:
        return cached
    j0, j1 = var_masks(n, j)
    k0, k1 = var_masks(n, k)
    m10 = j1 & k0  # index bit j set, k clear: moves up by 2**k - 2**j
    m01 = j0 & k1  # index bit k set, j clear: moves down by the same
    same = ((1 << (1 << n)) - 1) ^ m10 ^ m01
    shift = (1 << k) - (1 << j)
    entry = (same, m10, m01, shift)
    _SWAPS[(n, j, k)] = entry
    return entry


def _swap_bits(bits: int, n: int, j: int, k: int) -> int:
    """Exchange index bits ``j`` and ``k`` of a packed table."""
    same, m10, m01, shift = _swap_masks(n, j, k)
    return (bits & same) | ((bits & m10) << shift) | ((bits & m01) >> shift)


def _replicator(width: int, count: int) -> int:
    """Multiplier replicating a ``width``-bit block ``count`` times."""
    cached = _REPS.get((width, count))
    if cached is None:
        cached = ((1 << (width * count)) - 1) // ((1 << width) - 1)
        _REPS[(width, count)] = cached
    return cached


# ---------------------------------------------------------------------- #
# BDD -> packed conversion
# ---------------------------------------------------------------------- #

def bdd_to_packed(
    manager,
    f: int,
    levels: Sequence[int],
    memo: Optional[Dict[int, int]] = None,
) -> int:
    """Pack BDD node ``f`` as a ``2**len(levels)``-bit truth table.

    ``levels`` must be sorted ascending and cover the support of ``f``;
    a support variable outside ``levels`` raises :class:`KeyError` (the
    callers catch it and fall back to the BDD path).  ``memo`` maps node
    id -> table and may be shared across calls with identical ``levels``.

    Kernel bit convention: ``levels[j]`` is index bit ``n - 1 - j`` —
    the *reverse* of :meth:`BddManager.from_truth_table` (equivalently,
    ``bdd_to_packed(m, f, levels) == m.to_truth_table(f,
    list(reversed(levels)))``).  Descending positions follow the BDD
    variable order top-down, which lets the conversion build *compressed*
    per-node tables bottom-up: a node at position ``p`` depends only on
    positions <= ``p``, so its table is ``2**(p+1)`` bits, combining is a
    shift and an OR (mask-free), and a child whose position skips ahead
    widens with one block-replication multiply.  Total work is O(sum of
    local table widths) instead of O(|BDD| * 2**n).
    """
    levels = tuple(levels)
    n = len(levels)
    full = (1 << (1 << n)) - 1
    if f == FALSE:
        return 0
    if f == TRUE:
        return full
    pos_of = {lv: n - 1 - j for j, lv in enumerate(levels)}
    if memo is None:
        memo = {}
    cached = memo.get(f)
    if cached is not None:
        return cached
    var, lo, hi = manager._var, manager._lo, manager._hi
    local = memo.get(("local", levels))
    if local is None:
        local = memo[("local", levels)] = {}

    def widened(child: int, width: int) -> int:
        # Local table of ``child`` over the low ``width`` index bits.
        if child == FALSE:
            return 0
        if child == TRUE:
            return (1 << (1 << width)) - 1
        t, w = local[child]
        if w < width:
            t *= _replicator(1 << w, 1 << (width - w))
        return t

    stack = [f]
    while stack:
        node = stack[-1]
        if node in local:
            stack.pop()
            continue
        l, h = lo[node], hi[node]
        pending = []
        if l > TRUE and l not in local:
            pending.append(l)
        if h > TRUE and h not in local:
            pending.append(h)
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        p = pos_of.get(var[node])
        if p is None:
            raise KeyError(
                f"support level {var[node]} outside packed levels"
            )
        half = widened(l, p)
        table = half | (widened(h, p) << (1 << p))
        local[node] = (table, p + 1)
    table, width = local[f]
    if width < n:
        table *= _replicator(1 << width, 1 << (n - width))
    memo[f] = table
    return table


class PackedPair:
    """An (on, dc) pair packed over one sorted support tuple.

    ``pos`` uses the kernel's descending convention of
    :func:`bdd_to_packed`: ``levels[j]`` is index bit ``n - 1 - j``.
    """

    __slots__ = ("on", "dc", "n", "levels", "pos")

    def __init__(self, on: int, dc: int, levels: Tuple[int, ...]):
        self.on = on
        self.dc = dc
        n = self.n = len(levels)
        self.levels = levels
        self.pos = {lv: n - 1 - j for j, lv in enumerate(levels)}


def pack_pair(manager, on: int, dc: int, levels: Sequence[int]) -> PackedPair:
    """Pack ``(on, dc)`` over ``levels`` using the manager's table cache.

    The per-node conversion memo lives on the manager (keyed by the
    levels tuple) so repeated searches over the same function — the swap
    pass, smaller bound sizes, recursion levels — convert each BDD node
    at most once.  Raises :class:`KeyError` when a support variable falls
    outside ``levels``.
    """
    levels = tuple(levels)
    cache = manager._fastpath
    if cache is None:
        cache = manager._fastpath = {}
    memo = cache.get(levels)
    if memo is None:
        # Bound the number of retained level-tuples, not their node
        # entries: tuples change when the support changes, which tracks
        # recursion depth and stays small in practice.
        if len(cache) > 64:
            cache.clear()
        memo = cache[levels] = {}
    perf = manager.perf
    before = len(memo.get(("local", levels), ()))
    on_bits = bdd_to_packed(manager, on, levels, memo)
    dc_bits = bdd_to_packed(manager, dc, levels, memo)
    perf.fastpath_conversions += (
        len(memo.get(("local", levels), ())) - before
    )
    return PackedPair(on_bits, dc_bits, levels)


# ---------------------------------------------------------------------- #
# Column multiplicity
# ---------------------------------------------------------------------- #

def _split_chunks(value: int, total_bits: int, chunk_bits: int) -> List[int]:
    """Split a ``total_bits``-wide int into ``chunk_bits`` pieces, low first.

    Halves recursively: each level costs O(total_bits) big-int work, so
    the whole split is O(total_bits * log(count)) — the naive
    mask-and-shift walk re-shifts the shrinking remainder every step and
    is quadratic in the chunk count.
    """
    parts = [value]
    width = total_bits
    while width > chunk_bits:
        width >>= 1
        mask = (1 << width) - 1
        parts = [
            piece
            for v in parts
            for piece in (v & mask, v >> width)
        ]
    return parts


def _count_chunks(on: int, dc: int, n: int, b: int) -> int:
    """Distinct (on, dc) column pairs with the bound in the top b bits."""
    chunk = 1 << (n - b)
    total = 1 << n
    if dc == 0:
        return len(set(_split_chunks(on, total, chunk)))
    return len(
        set(
            zip(
                _split_chunks(on, total, chunk),
                _split_chunks(dc, total, chunk),
            )
        )
    )


def count_distinct_columns(pair: PackedPair, bound: Sequence[int]) -> int:
    """Column multiplicity of ``pair`` w.r.t. ``bound`` (no memoization).

    Lifts the bound positions to the top index bits with one delta swap
    each, then counts distinct contiguous chunks.
    """
    n = pair.n
    on, dc = pair.on, pair.dc
    where = list(range(n))
    at = list(range(n))
    for depth, lv in enumerate(sorted(bound, reverse=True)):
        # Place larger levels higher so chunk order matches the natural
        # assignment order; irrelevant for the count, cheap to fix.
        p = pair.pos[lv]
        q = where[p]
        target = n - 1 - depth
        if q != target:
            on = _swap_bits(on, n, q, target)
            if dc:
                dc = _swap_bits(dc, n, q, target)
            r = at[target]
            where[p], where[r] = target, q
            at[target], at[q] = p, r
    return _count_chunks(on, dc, n, len(bound))


def enumerate_chunk_pairs(
    pair: PackedPair, bound_levels: Sequence[int]
) -> Tuple[List[Tuple[int, int]], int]:
    """All ``2**b`` (on, dc) column chunks plus their width, in
    :meth:`~repro.bdd.BddManager.cofactor_enumerate` order: entry ``i``
    is the column with ``bound_levels[j]`` fixed to bit j of ``i``.
    """
    n = pair.n
    b = len(bound_levels)
    on, dc = pair.on, pair.dc
    where = list(range(n))
    at = list(range(n))
    # Place bound_levels[j] at position n - b + j: chunk index bit j then
    # corresponds to bound_levels[j], matching the BDD enumeration.
    for depth, lv in enumerate(reversed(bound_levels)):
        p = pair.pos[lv]
        q = where[p]
        target = n - 1 - depth
        if q != target:
            on = _swap_bits(on, n, q, target)
            if dc:
                dc = _swap_bits(dc, n, q, target)
            r = at[target]
            where[p], where[r] = target, q
            at[target], at[q] = p, r
    chunk = 1 << (n - b)
    total = 1 << n
    pairs = list(
        zip(
            _split_chunks(on, total, chunk),
            _split_chunks(dc, total, chunk),
        )
    )
    return pairs, chunk


def count_merged_classes(pair: PackedPair, bound_levels: Sequence[int]) -> int:
    """Don't-care merged class count — the packed twin of
    :func:`repro.decompose.dontcare.assign_dontcares` (count only).

    Every order-sensitive step (column dedup, compatibility adjacency,
    clique tie-breaking, the greedy merge-verify loop) mirrors the BDD
    implementation exactly, so the count is identical.
    """
    from ..decompose.dontcare import clique_partition  # deferred: cycle

    columns, chunk_bits = enumerate_chunk_pairs(pair, bound_levels)
    full = (1 << chunk_bits) - 1
    interned: Dict[Tuple[int, int], int] = {}
    reps: List[Tuple[int, int]] = []
    for col in columns:
        if col not in interned:
            interned[col] = len(reps)
            reps.append(col)

    offs = [full & ~(on | dc) for on, dc in reps]
    num = len(reps)
    adjacency: List[set] = [set() for _ in range(num)]
    for i in range(num):
        on_i, off_i = reps[i][0], offs[i]
        for j in range(i + 1, num):
            if not ((on_i & offs[j]) or (reps[j][0] & off_i)):
                adjacency[i].add(j)
                adjacency[j].add(i)
    cliques = clique_partition(num, lambda i, j: j in adjacency[i])

    classes = 0
    for clique in cliques:
        pending = list(clique)
        while pending:
            merged_on = 0
            merged_off = 0
            rest: List[int] = []
            for rep in pending:
                col_on, col_off = reps[rep][0], offs[rep]
                if (merged_on & col_off) or (merged_off & col_on):
                    rest.append(rep)
                    continue
                merged_on |= col_on
                merged_off |= col_off
            classes += 1
            pending = rest
    return classes


def _global_key(
    pair: PackedPair, bound: Sequence[int]
) -> Tuple[int, int, int, Tuple[int, ...]]:
    return (
        pair.on,
        pair.dc,
        pair.n,
        tuple(sorted(pair.pos[lv] for lv in bound)),
    )


def _global_get(key) -> Optional[int]:
    global _global_hits, _global_misses
    cached = _GLOBAL_COUNTS.get(key)
    if cached is not None:
        _global_hits += 1
    else:
        _global_misses += 1
    return cached


def _global_put(key, count: int) -> None:
    if len(_GLOBAL_COUNTS) >= _GLOBAL_MEMO_MAX:
        _GLOBAL_COUNTS.clear()
    _GLOBAL_COUNTS[key] = count


def global_memo_stats() -> Dict[str, object]:
    """Hit/miss totals and size of the manager-independent count memo."""
    total = _global_hits + _global_misses
    return {
        "hits": _global_hits,
        "misses": _global_misses,
        "hit_rate": round(_global_hits / total, 4) if total else None,
        "entries": len(_GLOBAL_COUNTS),
    }


def clear_global_memo() -> None:
    """Drop every manager-independent count (counters are kept)."""
    _GLOBAL_COUNTS.clear()


# ---------------------------------------------------------------------- #
# Incremental search states
# ---------------------------------------------------------------------- #

class _LiftState:
    """A packed pair with the chosen bound prefix in the top index bits.

    ``where``/``at`` track the current index-bit permutation: original
    position -> current position and its inverse.  States are immutable;
    :meth:`PackedSearch.extend` returns a new one (the tables are plain
    ints, so backtracking in the DFS is free).
    """

    __slots__ = ("on", "dc", "depth", "where", "at")

    def __init__(self, on, dc, depth, where, at):
        self.on = on
        self.dc = dc
        self.depth = depth
        self.where = where
        self.at = at


class PackedSearch:
    """Packed-table backend for the bound-set searches.

    Mirrors the incremental BDD search exactly — same driver, same
    candidate order, same tie-breaking — only the two primitives differ:
    *extend* is one delta swap instead of a residual-set cofactor sweep,
    and *count* reads contiguous chunks instead of hashing node ids.
    """

    __slots__ = ("pair", "perf")

    def __init__(self, pair: PackedPair, perf):
        self.pair = pair
        self.perf = perf

    def root(self) -> _LiftState:
        n = self.pair.n
        identity = tuple(range(n))
        return _LiftState(self.pair.on, self.pair.dc, 0, identity, identity)

    def extend(self, state: _LiftState, lv: int) -> _LiftState:
        n = self.pair.n
        p = self.pair.pos[lv]
        q = state.where[p]
        target = n - 1 - state.depth
        if q == target:
            return _LiftState(
                state.on, state.dc, state.depth + 1, state.where, state.at
            )
        on = _swap_bits(state.on, n, q, target)
        dc = _swap_bits(state.dc, n, q, target) if state.dc else 0
        r = state.at[target]
        where = list(state.where)
        at = list(state.at)
        where[p], where[r] = target, q
        at[target], at[q] = p, r
        return _LiftState(on, dc, state.depth + 1, tuple(where), tuple(at))

    def count(self, state: _LiftState) -> int:
        return _count_chunks(state.on, state.dc, self.pair.n, state.depth)

    def canonical(self, state: _LiftState) -> _LiftState:
        return state

    def eval_candidate(
        self, state: _LiftState, lv: int, bound: Sequence[int]
    ) -> Tuple[int, Optional[_LiftState]]:
        """Count for ``state + lv``; serves the global memo first."""
        key = _global_key(self.pair, bound)
        cached = _global_get(key)
        if cached is not None:
            self.perf.fastpath_global_hits += 1
            return cached, None
        self.perf.fastpath_global_misses += 1
        extended = self.extend(state, lv)
        count = self.count(extended)
        _global_put(key, count)
        return count, extended

    def count_bound(self, bound: Sequence[int]) -> int:
        """Full count for one bound set (memoized manager-independently)."""
        key = _global_key(self.pair, bound)
        cached = _global_get(key)
        if cached is not None:
            self.perf.fastpath_global_hits += 1
            return cached
        self.perf.fastpath_global_misses += 1
        count = count_distinct_columns(self.pair, bound)
        _global_put(key, count)
        return count

    def merged_count_bound(self, bound: Sequence[int]) -> int:
        """Don't-care merged count for one bound set (memoized).

        The merge heuristic is order-sensitive, so the memo key keeps the
        bound positions *in order* (unlike the syntactic key, which may
        sort: distinct-column counts are permutation-invariant).
        """
        key = (
            self.pair.on,
            self.pair.dc,
            self.pair.n,
            tuple(self.pair.pos[lv] for lv in bound),
            "merged",
        )
        cached = _global_get(key)
        if cached is not None:
            self.perf.fastpath_global_hits += 1
            return cached
        self.perf.fastpath_global_misses += 1
        count = count_merged_classes(self.pair, bound)
        _global_put(key, count)
        return count


# ---------------------------------------------------------------------- #
# Convenience entry point for compatible.count_classes
# ---------------------------------------------------------------------- #

def try_syntactic_count(
    manager,
    on: int,
    dc: int,
    bound_levels: Sequence[int],
    max_width: int = DEFAULT_MAX_WIDTH,
) -> Optional[int]:
    """Packed column-multiplicity count, or ``None`` when out of range.

    Covers the syntactic case only (distinct (on, dc) pairs — no
    don't-care merging); the caller keeps the BDD path for everything
    else.  Support width is measured over the union of both supports and
    the bound set.
    """
    levels = sorted(
        set(manager.support(on))
        | set(manager.support(dc))
        | set(bound_levels)
    )
    if len(levels) > max_width:
        manager.perf.fastpath_fallbacks += 1
        return None
    try:
        pair = pack_pair(manager, on, dc, levels)
    except KeyError:
        manager.perf.fastpath_fallbacks += 1
        return None
    search = PackedSearch(pair, manager.perf)
    return search.count_bound(bound_levels)


def try_merged_count(
    manager,
    on: int,
    dc: int,
    bound_levels: Sequence[int],
    max_width: int = DEFAULT_MAX_WIDTH,
) -> Optional[int]:
    """Packed don't-care merged count, or ``None`` when out of range.

    The merged twin of :func:`try_syntactic_count`; the count matches
    :func:`repro.decompose.compatible.compute_classes` bit for bit (the
    clique heuristic is mirrored exactly, see
    :func:`count_merged_classes`).
    """
    levels = sorted(
        set(manager.support(on))
        | set(manager.support(dc))
        | set(bound_levels)
    )
    if len(levels) > max_width:
        manager.perf.fastpath_fallbacks += 1
        return None
    try:
        pair = pack_pair(manager, on, dc, levels)
    except KeyError:
        manager.perf.fastpath_fallbacks += 1
        return None
    search = PackedSearch(pair, manager.perf)
    return search.merged_count_bound(bound_levels)
