"""Packed-integer truth-table kernels for the decomposition hot path.

The bound-set searches of :mod:`repro.decompose.varpart` spend nearly all
of their time cofactoring BDDs one node at a time in pure Python.  For a
cone whose support fits in ``n`` variables, the same work collapses to a
handful of word-parallel operations on a single ``2**n``-bit Python int:

* **Representation** — a function over the ordered support tuple
  ``levels`` is the integer whose bit ``i`` is ``f`` at the minterm where
  ``levels[j]`` takes bit ``n - 1 - j`` of ``i``: the convention of
  :meth:`~repro.bdd.BddManager.to_truth_table` over the reversed tuple
  (see :func:`bdd_to_packed`).
* **Conversion** — one bottom-up pass over the BDD that builds each
  node's table only as wide as its position needs (see
  :func:`bdd_to_packed`).  Those per-node tables are scratch, dropped
  once a pair is packed; the manager keeps only the roots' full tables.
* **Cofactor enumeration / column multiplicity** — instead of walking
  ``2**b`` cofactors, the ``b`` bound positions are permuted to the top
  index bits (one single-mask *delta swap* per variable, see
  :func:`_swap_bits`) after which the ``2**b`` columns are contiguous
  ``2**(n-b)``-bit chunks.  Distinct chunks == distinct residual
  functions == distinct BDD cofactor node ids, so counts agree with the
  BDD path bit for bit.
* **Search states** — :class:`PackedSearch` mirrors the shared-prefix
  DFS / greedy incremental extension of the BDD search: extending a
  prefix by one variable is a single delta swap, and the chosen prefix
  accumulates in the top index bits.  It is the packed backend of
  :mod:`repro.decompose.varpart`, whose ``count_classes`` is the one
  way a count alone is taken.
* **Merged counts** — :func:`count_merged_classes` is the length of
  :func:`repro.decompose.dontcare.packed_cover` over the columns, the
  cover the class builder uses too.

Width policy: the support width picks the backend.  Supports of at most
:data:`DEFAULT_MAX_WIDTH` variables (``2**20`` bits = 128 KiB per table)
are packed; wider ones stay on the BDD path.  :data:`HARD_MAX_WIDTH`
(``2**22`` bits = 512 KiB per table) caps what the differential tests
can force onto the packed backend through the search's ``fast_path``
keyword.  All fallbacks are transparent and counted in
``PerfCounters.fastpath_fallbacks``.

Caches: the module keeps the two masks of :func:`var_masks` per (width,
index bit), n per width, and the conversion's block replicators per
(block width, count).  A swap derives its one mask from two cached
masks on every call; nothing is cached per pair of index bits.

Class counts are memoized **manager-independently** in a module-level
table keyed by the :class:`PackedPair` and the bound positions.  A pair
hashes its tables once and compares equal by their bits (not by node
ids), so warm worker processes and repeated managers over the same cone
reuse counts across :class:`~repro.bdd.BddManager` lifetimes without
rehashing a 2**n-bit int per probe.  This is the packed backend's only
count memo; the BDD backend of :mod:`repro.decompose.varpart` keeps its
own per-manager memo over node ids.
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
    "index_masks",
    "pack_pair",
    "var_masks",
]

#: The flows' cut-over: supports wider than this stay on the BDD path.
DEFAULT_MAX_WIDTH = 20

#: Absolute cap, even for a test that forces the packed backend through
#: the search's ``fast_path`` keyword — a 2**22-bit table is 512 KiB;
#: beyond this the big-int ops lose to the BDD's sparsity.
HARD_MAX_WIDTH = 22

#: Manager-independent class-count memo: (pair, positions) -> count, the
#: pair standing for its (on, dc, n) bits.  Cleared wholesale when it
#: outgrows _GLOBAL_MEMO_MAX.
_GLOBAL_COUNTS: Dict[tuple, int] = {}
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


def var_masks(n: int, p: int) -> Tuple[int, int]:
    """Masks selecting minterms with index bit ``p`` = 0 / 1 (cached)."""
    cached = _MASKS.get((n, p))
    if cached is None:
        cached = _MASKS[(n, p)] = index_masks(n, p)
    return cached


def index_masks(n: int, p: int) -> Tuple[int, int]:
    """:func:`var_masks` without the cache, for a caller that must not
    keep the tables (the exhaustive equivalence check)."""
    total = 1 << n
    m0 = (1 << (1 << p)) - 1
    filled = 1 << (p + 1)
    while filled < total:
        m0 |= m0 << filled
        filled <<= 1
    return m0, m0 << (1 << p)


def _swap_bits(bits: int, n: int, j: int, k: int) -> int:
    """Exchange index bits ``j`` < ``k`` of a packed table.

    One-mask delta swap: ``m`` selects the positions whose index has bit
    ``j`` set and bit ``k`` clear; each pairs with the position
    ``2**k - 2**j`` above it, and ``t`` holds where the two differ.  The
    mask is derived from the cached :func:`var_masks` on every call, so
    no table is kept per (j, k) pair.
    """
    shift = (1 << k) - (1 << j)
    m = var_masks(n, j)[1] & var_masks(n, k)[0]
    t = ((bits >> shift) ^ bits) & m
    return bits ^ t ^ (t << shift)


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
    local: Optional[Dict[int, Tuple[int, int]]] = None,
) -> int:
    """Pack BDD node ``f`` as a ``2**len(levels)``-bit truth table.

    ``levels`` must be sorted ascending and cover the support of ``f``;
    a support variable outside ``levels`` raises :class:`KeyError` (the
    callers catch it and fall back to the BDD path).  ``memo`` maps a
    root's node id -> its table; ``local`` maps every node converted on
    the way -> its compressed table (below).  Both may be shared across
    calls with identical ``levels``; ``local`` is scratch that a caller
    drops once its roots are packed.

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
    if local is None:
        local = {}

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

    Pairs key the global count memo: the hash of the tables is computed
    once here (CPython does not cache an int's hash, and a table has up
    to 2**22 bits), and equality compares the bits themselves, so two
    pairs share memo entries exactly when their tables are equal.
    """

    __slots__ = ("on", "dc", "n", "levels", "pos", "_hash")

    def __init__(self, on: int, dc: int, levels: Tuple[int, ...]):
        self.on = on
        self.dc = dc
        n = self.n = len(levels)
        self.levels = levels
        self.pos = {lv: n - 1 - j for j, lv in enumerate(levels)}
        self._hash = hash((on, dc, n))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PackedPair):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.n == other.n
            and self.on == other.on
            and self.dc == other.dc
        )


def pack_pair(
    manager,
    on: int,
    dc: int,
    levels: Sequence[int],
    local: Optional[Dict[int, Tuple[int, int]]] = None,
) -> PackedPair:
    """Pack ``(on, dc)`` over ``levels`` using the manager's table cache.

    The manager keeps, per levels tuple, the full table of every root
    packed so far, so repeated searches over the same function — the
    swap pass, smaller bound sizes, recursion levels — convert it once.
    The per-node tables of the conversion are scratch, shared by ``on``
    and ``dc`` and dropped when the pair is packed; each one built
    counts in ``PerfCounters.fastpath_conversions``.  A caller packing
    several pairs over the same ``levels`` passes one ``local`` dict to
    all of them, so the nodes they share are converted once.  Raises
    :class:`KeyError` when a support variable falls outside ``levels``.
    """
    levels = tuple(levels)
    cache = manager._fastpath
    if cache is None:
        cache = manager._fastpath = {}
    memo = cache.get(levels)
    if memo is None:
        # Bound the number of retained level-tuples, not their root
        # entries: tuples change when the support changes, which tracks
        # recursion depth and stays small in practice.
        if len(cache) > 64:
            cache.clear()
        memo = cache[levels] = {}
    if local is None:
        local = {}
    converted = len(local)
    on_bits = bdd_to_packed(manager, on, levels, memo, local)
    dc_bits = bdd_to_packed(manager, dc, levels, memo, local)
    manager.perf.fastpath_conversions += len(local) - converted
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
    """Distinct (on, dc) column pairs with the bound in the top b bits.

    Columns of at least a byte are compared as slices of one
    little-endian ``to_bytes`` image per table (slice ``i`` holds the
    bits of chunk ``i``), which is one linear pass; narrower columns
    are split by recursive halving.  Only the size of the set is read.
    """
    chunk = 1 << (n - b)
    total = 1 << n
    if chunk >= 8:
        width = chunk >> 3
        size = total >> 3
        on_bytes = on.to_bytes(size, "little")
        if dc == 0:
            return len(
                {on_bytes[i:i + width] for i in range(0, size, width)}
            )
        dc_bytes = dc.to_bytes(size, "little")
        return len(
            {
                (on_bytes[i:i + width], dc_bytes[i:i + width])
                for i in range(0, size, width)
            }
        )
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
    """Don't-care merged class count: the length of the cover
    :func:`repro.decompose.dontcare.packed_cover` finds for the columns,
    deduplicated in cofactor order as
    :func:`~repro.decompose.dontcare.assign_dontcares` deduplicates
    them, so the count is identical to the classes it builds.
    """
    from ..decompose.dontcare import packed_cover  # deferred: cycle

    columns, chunk_bits = enumerate_chunk_pairs(pair, bound_levels)
    full = (1 << chunk_bits) - 1
    reps = list(dict.fromkeys(columns))
    on_bits = [on for on, _ in reps]
    off_bits = [full & ~(on | dc) for on, dc in reps]
    return len(packed_cover(on_bits, off_bits))


def _global_key(
    pair: PackedPair, bound: Sequence[int]
) -> Tuple[PackedPair, Tuple[int, ...]]:
    pos = pair.pos
    return pair, tuple(sorted([pos[lv] for lv in bound]))


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
        pos = self.pair.pos
        key = (self.pair, tuple([pos[lv] for lv in bound]), "merged")
        cached = _global_get(key)
        if cached is not None:
            self.perf.fastpath_global_hits += 1
            return cached
        self.perf.fastpath_global_misses += 1
        count = count_merged_classes(self.pair, bound)
        _global_put(key, count)
        return count
