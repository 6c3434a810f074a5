"""Reduced Ordered Binary Decision Diagram (ROBDD) manager.

This is the foundational substrate of the reproduction: the paper performs
functional decomposition on BDDs (Bryant 1986, reference [10] of the paper;
the bound-set selection of reference [2] is BDD based).  No BDD package is
assumed to exist — this module implements hash-consed ROBDDs from scratch.

Design notes
------------
* Nodes are plain integers indexing into parallel lists (``_var``, ``_lo``,
  ``_hi``).  Node ``0`` is the constant FALSE terminal and node ``1`` the
  constant TRUE terminal.  This integer representation keeps the unique
  table and operation caches small and hashing cheap.
* No complement edges: the implementation favours clarity and debuggability
  over the last factor of two in node count.
* Variables are identified by *levels*: level 0 is the topmost variable in
  the order.  Named variables are layered on top via :meth:`add_var` /
  :meth:`var`.
* There is no garbage collection; managers are cheap to create and callers
  working on throwaway problems simply drop the manager.  Long-running
  flows call :meth:`clear_caches` between unrelated operations.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..perf import PerfCounters

__all__ = ["BddManager", "BddBudgetExceeded", "FALSE", "TRUE"]

#: Terminal node ids (the same in every manager).
FALSE = 0
TRUE = 1

# Opcodes for the binary apply cache.
_OP_AND = 0
_OP_OR = 1
_OP_XOR = 2


class BddBudgetExceeded(RuntimeError):
    """A manager grew past its armed node or wall-clock budget.

    Raised from :meth:`BddManager.check_budget` (and from node allocation
    once a budget is armed) so a governed flow can catch it and degrade
    instead of grinding on a BDD blow-up.  The message embeds the kind
    (``nodes`` or ``seconds``), the limit and the usage at the moment of
    the raise; the same values are available as attributes for callers
    that survived a process boundary only when the exception was raised
    locally (pickling keeps just the message).
    """

    def __init__(self, kind: str, limit: float, used: float):
        super().__init__(
            f"BDD budget exceeded: {used:g} {kind} > limit {limit:g}"
        )
        self.kind = kind
        self.limit = limit
        self.used = used

    def __reduce__(self):
        return (type(self), (self.kind, self.limit, self.used))


class BddManager:
    """A hash-consed ROBDD manager over a fixed variable order.

    Parameters
    ----------
    num_vars:
        Number of variables to pre-declare (anonymous names ``x0..``).
        More can be added later with :meth:`add_var`.

    Examples
    --------
    >>> m = BddManager(3)
    >>> a, b, c = (m.var_at_level(i) for i in range(3))
    >>> f = m.apply_or(m.apply_and(a, b), c)
    >>> m.eval(f, {0: 1, 1: 1, 2: 0})
    1
    """

    def __init__(self, num_vars: int = 0):
        # Parallel node arrays; slots 0/1 are the terminals (var = -1 as a
        # sentinel level below every real variable).
        self._var: List[int] = [-1, -1]
        self._lo: List[int] = [-1, -1]
        self._hi: List[int] = [-1, -1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._apply_cache: Dict[Tuple[int, int, int], int] = {}
        self._not_cache: Dict[int, int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._cof1_cache: Dict[Tuple[int, int, int], int] = {}
        self._names: List[str] = []
        self._name_to_level: Dict[str, int] = {}
        #: Engine performance counters (always on; see :mod:`repro.perf`).
        self.perf = PerfCounters()
        # Class counts of the BDD search backend (see
        # repro.decompose.varpart._BddSearch); living on the manager makes
        # the memo shared by every search and recursion level that works
        # on this manager's node ids.
        self._class_counts: Dict[tuple, int] = {}
        # Lazily attached packed-truth-table conversion cache (see
        # repro.fastpath.bitops.pack_pair): levels tuple -> node memo.
        self._fastpath = None
        # Highest variable count the recursion limit has been sized for.
        self._depth_guard = 0
        # Resource budget (disarmed by default: both None).  The node
        # limit is enforced on allocation in _mk; the deadline is checked
        # there too (amortised) and at the flows' cooperative check
        # points via check_budget().
        self._max_nodes: Optional[int] = None
        self._max_seconds: Optional[float] = None
        self._deadline: Optional[float] = None
        for _ in range(num_vars):
            self.add_var()

    # ------------------------------------------------------------------ #
    # Resource budget
    # ------------------------------------------------------------------ #

    def set_budget(
        self,
        max_nodes: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> None:
        """Arm (or, with both ``None``, disarm) the resource budget.

        ``max_nodes`` caps the total allocated node count (terminals
        included); ``max_seconds`` starts a wall-clock deadline measured
        from this call.  Once a limit is crossed, node allocation and
        :meth:`check_budget` raise :class:`BddBudgetExceeded`.  With no
        budget armed (the default) the manager behaves exactly as before:
        the only cost is two ``is None`` tests per fresh allocation.
        """
        self._max_nodes = max_nodes
        self._max_seconds = max_seconds
        self._deadline = (
            time.monotonic() + max_seconds if max_seconds is not None else None
        )

    @property
    def budget(self) -> Dict[str, Optional[float]]:
        """The armed limits (``max_nodes`` / ``seconds_left``)."""
        return {
            "max_nodes": self._max_nodes,
            "seconds_left": (
                self._deadline - time.monotonic()
                if self._deadline is not None
                else None
            ),
        }

    def check_budget(self) -> None:
        """Raise :class:`BddBudgetExceeded` if a limit has been crossed.

        Cooperative check point: the decomposition searches call this in
        their loops so a time budget fires even when the work is all
        cache hits and no node is ever allocated.
        """
        if self._max_nodes is not None and len(self._var) > self._max_nodes:
            self.perf.budget_exceeded += 1
            raise BddBudgetExceeded("nodes", self._max_nodes, len(self._var))
        if self._deadline is not None:
            now = time.monotonic()
            if now > self._deadline:
                self.perf.budget_exceeded += 1
                raise BddBudgetExceeded(
                    "seconds",
                    self._max_seconds or 0.0,
                    round((self._max_seconds or 0.0) + now - self._deadline, 3),
                )

    # ------------------------------------------------------------------ #
    # Variable management
    # ------------------------------------------------------------------ #

    @property
    def num_vars(self) -> int:
        """Number of declared variables."""
        return len(self._names)

    @property
    def num_nodes(self) -> int:
        """Total number of allocated nodes, terminals included."""
        return len(self._var)

    def add_var(self, name: Optional[str] = None) -> int:
        """Declare a new variable at the bottom of the order.

        Returns the BDD node for the fresh variable's literal.
        """
        level = len(self._names)
        if name is None:
            name = f"x{level}"
        if name in self._name_to_level:
            raise ValueError(f"variable {name!r} already declared")
        self._names.append(name)
        self._name_to_level[name] = level
        return self._mk(level, FALSE, TRUE)

    def var(self, name: str) -> int:
        """Return the literal node of a named variable."""
        return self.var_at_level(self._name_to_level[name])

    def var_at_level(self, level: int) -> int:
        """Return the literal node of the variable at ``level``."""
        if not 0 <= level < len(self._names):
            raise IndexError(f"no variable at level {level}")
        return self._mk(level, FALSE, TRUE)

    def nvar_at_level(self, level: int) -> int:
        """Return the negative literal of the variable at ``level``."""
        return self._mk(level, TRUE, FALSE)

    def level_of(self, name: str) -> int:
        """Level of a named variable."""
        return self._name_to_level[name]

    def name_of(self, level: int) -> str:
        """Name of the variable at ``level``."""
        return self._names[level]

    # ------------------------------------------------------------------ #
    # Node construction / inspection
    # ------------------------------------------------------------------ #

    def _mk(self, level: int, lo: int, hi: int) -> int:
        """Hash-consed node constructor enforcing ROBDD reduction rules."""
        if lo == hi:
            return lo
        key = (level, lo, hi)
        node = self._unique.get(key)
        if node is None:
            node = len(self._var)
            if self._max_nodes is not None and node >= self._max_nodes:
                self.perf.budget_exceeded += 1
                raise BddBudgetExceeded("nodes", self._max_nodes, node + 1)
            # Amortised deadline probe: one clock read per 256 fresh nodes
            # keeps a runaway build bounded without taxing the hot path.
            if self._deadline is not None and (node & 0xFF) == 0:
                self.check_budget()
            self._var.append(level)
            self._lo.append(lo)
            self._hi.append(hi)
            self._unique[key] = node
        return node

    def level(self, node: int) -> int:
        """Level of ``node`` (``-1`` for terminals)."""
        return self._var[node]

    def low(self, node: int) -> int:
        """Else-child (variable = 0) of ``node``."""
        return self._lo[node]

    def high(self, node: int) -> int:
        """Then-child (variable = 1) of ``node``."""
        return self._hi[node]

    def is_terminal(self, node: int) -> bool:
        """True iff ``node`` is the FALSE or TRUE terminal."""
        return node <= TRUE

    def stats(self) -> Dict[str, int]:
        """Engine counters: node/variable counts and cache sizes."""
        return {
            "num_vars": self.num_vars,
            "num_nodes": self.num_nodes,
            "apply_cache": len(self._apply_cache),
            "not_cache": len(self._not_cache),
            "ite_cache": len(self._ite_cache),
            "cofactor_cache": len(self._cof1_cache),
        }

    def clear_caches(self) -> None:
        """Drop all operation caches (the unique table is kept)."""
        self._apply_cache.clear()
        self._not_cache.clear()
        self._ite_cache.clear()
        self._cof1_cache.clear()

    # ------------------------------------------------------------------ #
    # Core boolean operations
    # ------------------------------------------------------------------ #

    def _ensure_recursion_capacity(self) -> None:
        """Size the interpreter recursion limit to this manager's depth.

        The recursive operations (apply, NOT, ITE, compose) recurse at
        most once per variable level, but wide synthetic circuits can
        declare hundreds of variables and the flows nest several walks —
        enough to hit CPython's default 1000-frame limit.  Checked against
        a cached watermark so the common case is one integer compare.
        """
        n = len(self._names)
        if n <= self._depth_guard:
            return
        need = 4 * n + 500
        if sys.getrecursionlimit() < need:
            sys.setrecursionlimit(need)
        self._depth_guard = n

    def apply_not(self, f: int) -> int:
        """Boolean negation."""
        if f == FALSE:
            return TRUE
        if f == TRUE:
            return FALSE
        self._ensure_recursion_capacity()
        cached = self._not_cache.get(f)
        if cached is not None:
            return cached
        result = self._mk(
            self._var[f], self.apply_not(self._lo[f]), self.apply_not(self._hi[f])
        )
        self._not_cache[f] = result
        return result

    def apply_and(self, f: int, g: int) -> int:
        """Boolean conjunction."""
        return self._apply2(_OP_AND, f, g)

    def apply_or(self, f: int, g: int) -> int:
        """Boolean disjunction."""
        return self._apply2(_OP_OR, f, g)

    def apply_xor(self, f: int, g: int) -> int:
        """Boolean exclusive-or."""
        return self._apply2(_OP_XOR, f, g)

    def apply_xnor(self, f: int, g: int) -> int:
        """Boolean equivalence (XNOR)."""
        return self.apply_not(self.apply_xor(f, g))

    def apply_implies(self, f: int, g: int) -> int:
        """Boolean implication ``f -> g``."""
        return self.apply_or(self.apply_not(f), g)

    def apply_diff(self, f: int, g: int) -> int:
        """Boolean difference ``f AND NOT g``."""
        return self.apply_and(f, self.apply_not(g))

    def _apply2(self, op: int, f: int, g: int) -> int:
        # Terminal rules per operator.
        if op == _OP_AND:
            if f == FALSE or g == FALSE:
                return FALSE
            if f == TRUE:
                return g
            if g == TRUE:
                return f
            if f == g:
                return f
        elif op == _OP_OR:
            if f == TRUE or g == TRUE:
                return TRUE
            if f == FALSE:
                return g
            if g == FALSE:
                return f
            if f == g:
                return f
        else:  # XOR
            if f == g:
                return FALSE
            if f == FALSE:
                return g
            if g == FALSE:
                return f
            if f == TRUE:
                return self.apply_not(g)
            if g == TRUE:
                return self.apply_not(f)
        # Commutative: normalise operand order for better cache hits.
        if f > g:
            f, g = g, f
        key = (op, f, g)
        perf = self.perf
        perf.apply_calls += 1
        cached = self._apply_cache.get(key)
        if cached is not None:
            perf.apply_hits += 1
            return cached
        self._ensure_recursion_capacity()
        vf, vg = self._var[f], self._var[g]
        if vf == vg:
            top = vf
            f0, f1 = self._lo[f], self._hi[f]
            g0, g1 = self._lo[g], self._hi[g]
        elif self._before(vf, vg):
            top = vf
            f0, f1 = self._lo[f], self._hi[f]
            g0 = g1 = g
        else:
            top = vg
            f0 = f1 = f
            g0, g1 = self._lo[g], self._hi[g]
        result = self._mk(top, self._apply2(op, f0, g0), self._apply2(op, f1, g1))
        self._apply_cache[key] = result
        return result

    @staticmethod
    def _before(level_a: int, level_b: int) -> bool:
        """True iff ``level_a`` is above ``level_b`` (terminals are lowest)."""
        if level_a == -1:
            return False
        if level_b == -1:
            return True
        return level_a < level_b

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``(f AND g) OR (NOT f AND h)``."""
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        if g == FALSE and h == TRUE:
            return self.apply_not(f)
        key = (f, g, h)
        perf = self.perf
        perf.ite_calls += 1
        cached = self._ite_cache.get(key)
        if cached is not None:
            perf.ite_hits += 1
            return cached
        self._ensure_recursion_capacity()
        levels = [self._var[n] for n in (f, g, h) if n > TRUE]
        top = min(levels)
        f0, f1 = self._cofactors_at(f, top)
        g0, g1 = self._cofactors_at(g, top)
        h0, h1 = self._cofactors_at(h, top)
        result = self._mk(top, self.ite(f0, g0, h0), self.ite(f1, g1, h1))
        self._ite_cache[key] = result
        return result

    def _cofactors_at(self, node: int, level: int) -> Tuple[int, int]:
        """(lo, hi) cofactors of ``node`` with respect to ``level``."""
        if node > TRUE and self._var[node] == level:
            return self._lo[node], self._hi[node]
        return node, node

    # ------------------------------------------------------------------ #
    # Cofactoring, quantification, composition
    # ------------------------------------------------------------------ #

    def cofactor(self, f: int, level: int, value: int) -> int:
        """Shannon cofactor of ``f`` with the variable at ``level`` fixed.

        Results are memoised persistently (keyed on the node id), which
        makes the bound-set search's repeated single-variable cofactoring
        cheap across calls.
        """
        if f <= TRUE:
            return f
        f_level = self._var[f]
        if f_level > level:
            # The variable sits above this node in the order: vacuous.
            return f
        if f_level == level:
            # Direct child access — cheaper than the memo probe, so this
            # case bypasses the cache (and the counters, which track only
            # non-trivial cofactor work).
            return self._hi[f] if value else self._lo[f]
        key = (f, level, value)
        perf = self.perf
        perf.cofactor_calls += 1
        cached = self._cof1_cache.get(key)
        if cached is not None:
            perf.cofactor_hits += 1
            return cached
        self._ensure_recursion_capacity()
        result = self._mk(
            f_level,
            self.cofactor(self._lo[f], level, value),
            self.cofactor(self._hi[f], level, value),
        )
        self._cof1_cache[key] = result
        return result

    def restrict(self, f: int, assignment: Dict[int, int]) -> int:
        """Simultaneously fix several variables (``level -> 0/1``)."""
        if not assignment:
            return f
        cache: Dict[int, int] = {}

        def walk(node: int) -> int:
            if node <= TRUE:
                return node
            cached = cache.get(node)
            if cached is not None:
                return cached
            level = self._var[node]
            if level in assignment:
                child = self._hi[node] if assignment[level] else self._lo[node]
                result = walk(child)
            else:
                result = self._mk(level, walk(self._lo[node]), walk(self._hi[node]))
            cache[node] = result
            return result

        return walk(f)

    def exists(self, f: int, levels: Iterable[int]) -> int:
        """Existential quantification over the given variable levels."""
        level_set = frozenset(levels)
        if not level_set:
            return f
        cache: Dict[int, int] = {}

        def walk(node: int) -> int:
            if node <= TRUE:
                return node
            cached = cache.get(node)
            if cached is not None:
                return cached
            level = self._var[node]
            lo, hi = walk(self._lo[node]), walk(self._hi[node])
            if level in level_set:
                result = self.apply_or(lo, hi)
            else:
                result = self._mk(level, lo, hi)
            cache[node] = result
            return result

        return walk(f)

    def forall(self, f: int, levels: Iterable[int]) -> int:
        """Universal quantification over the given variable levels."""
        level_set = frozenset(levels)
        if not level_set:
            return f
        cache: Dict[int, int] = {}

        def walk(node: int) -> int:
            if node <= TRUE:
                return node
            cached = cache.get(node)
            if cached is not None:
                return cached
            level = self._var[node]
            lo, hi = walk(self._lo[node]), walk(self._hi[node])
            if level in level_set:
                result = self.apply_and(lo, hi)
            else:
                result = self._mk(level, lo, hi)
            cache[node] = result
            return result

        return walk(f)

    def compose(self, f: int, level: int, g: int) -> int:
        """Substitute function ``g`` for the variable at ``level`` in ``f``."""
        cache: Dict[int, int] = {}

        def walk(node: int) -> int:
            if node <= TRUE:
                return node
            cached = cache.get(node)
            if cached is not None:
                return cached
            node_level = self._var[node]
            if node_level == level:
                result = self.ite(g, self._hi[node], self._lo[node])
            elif node_level > level:
                # ``level`` cannot occur below: nothing to substitute.
                result = node
            else:
                result = self.ite(
                    self.var_at_level(node_level),
                    walk(self._hi[node]),
                    walk(self._lo[node]),
                )
            cache[node] = result
            return result

        return walk(f)

    def vector_compose(self, f: int, substitution: Dict[int, int]) -> int:
        """Simultaneously substitute functions for several variables.

        ``substitution`` maps variable level -> replacement BDD.  The
        substitution is simultaneous (all replacements read the *original*
        variables), implemented by a bottom-up ITE rebuild.
        """
        if not substitution:
            return f
        cache: Dict[int, int] = {}

        def walk(node: int) -> int:
            if node <= TRUE:
                return node
            cached = cache.get(node)
            if cached is not None:
                return cached
            level = self._var[node]
            selector = substitution.get(level, self.var_at_level(level))
            result = self.ite(selector, walk(self._hi[node]), walk(self._lo[node]))
            cache[node] = result
            return result

        return walk(f)

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #

    def eval(self, f: int, assignment: Dict[int, int]) -> int:
        """Evaluate ``f`` under a complete assignment (``level -> 0/1``)."""
        node = f
        while node > TRUE:
            level = self._var[node]
            node = self._hi[node] if assignment[level] else self._lo[node]
        return node

    def support(self, f: int) -> List[int]:
        """Sorted list of variable levels ``f`` depends on."""
        seen: set = set()
        levels: set = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            levels.add(self._var[node])
            stack.append(self._lo[node])
            stack.append(self._hi[node])
        return sorted(levels)

    def size(self, f: int) -> int:
        """Number of nodes in the BDD rooted at ``f`` (terminals excluded)."""
        seen: set = set()
        stack = [f]
        count = 0
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            count += 1
            stack.append(self._lo[node])
            stack.append(self._hi[node])
        return count

    def sat_count(self, f: int, num_vars: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``num_vars`` variables."""
        if num_vars is None:
            num_vars = self.num_vars
        cache: Dict[int, int] = {}

        def walk(node: int) -> int:
            # Count over variables strictly below this node's level; scale
            # at the call sites to account for skipped levels.
            if node == FALSE:
                return 0
            if node == TRUE:
                return 1
            cached = cache.get(node)
            if cached is not None:
                return cached
            level = self._var[node]
            lo, hi = self._lo[node], self._hi[node]
            lo_level = self._var[lo] if lo > TRUE else num_vars
            hi_level = self._var[hi] if hi > TRUE else num_vars
            result = walk(lo) * (1 << (lo_level - level - 1)) + walk(hi) * (
                1 << (hi_level - level - 1)
            )
            cache[node] = result
            return result

        top_level = self._var[f] if f > TRUE else num_vars
        return walk(f) * (1 << top_level)

    def sat_iter(self, f: int) -> Iterator[Dict[int, int]]:
        """Yield partial assignments (cubes) covering the on-set of ``f``."""

        def walk(node: int, cube: Dict[int, int]) -> Iterator[Dict[int, int]]:
            if node == FALSE:
                return
            if node == TRUE:
                yield dict(cube)
                return
            level = self._var[node]
            cube[level] = 0
            yield from walk(self._lo[node], cube)
            cube[level] = 1
            yield from walk(self._hi[node], cube)
            del cube[level]

        yield from walk(f, {})

    def pick_one(self, f: int) -> Optional[Dict[int, int]]:
        """One satisfying partial assignment, or None if unsatisfiable."""
        for cube in self.sat_iter(f):
            return cube
        return None

    # ------------------------------------------------------------------ #
    # Truth-table conversion
    # ------------------------------------------------------------------ #

    def from_truth_table(self, bits: int, levels: Sequence[int]) -> int:
        """Build a BDD from a truth table packed into an integer.

        Bit ``i`` of ``bits`` is the function value for the minterm whose
        j-th input (``levels[j]``) equals bit j of ``i`` — i.e. ``levels[0]``
        is the least significant index bit.
        """
        n = len(levels)
        order = sorted(range(n), key=lambda j: levels[j])

        def build(prefix: Dict[int, int], depth: int) -> int:
            if depth == n:
                index = 0
                for j in range(n):
                    if prefix[j]:
                        index |= 1 << j
                return TRUE if (bits >> index) & 1 else FALSE
            j = order[depth]
            prefix[j] = 0
            lo = build(prefix, depth + 1)
            prefix[j] = 1
            hi = build(prefix, depth + 1)
            del prefix[j]
            return self._mk(levels[j], lo, hi)

        return build({}, 0)

    def to_truth_table(self, f: int, levels: Sequence[int]) -> int:
        """Pack ``f`` into an integer truth table over ``levels``.

        Inverse of :meth:`from_truth_table` (same bit convention).  ``f``
        must not depend on variables outside ``levels``.
        """
        extra = set(self.support(f)) - set(levels)
        if extra:
            names = [self._names[lv] for lv in sorted(extra)]
            raise ValueError(f"function depends on variables outside levels: {names}")
        n = len(levels)
        bits = 0
        assignment: Dict[int, int] = {}
        for index in range(1 << n):
            for j, level in enumerate(levels):
                assignment[level] = (index >> j) & 1
            if self.eval(f, assignment):
                bits |= 1 << index
        return bits

    # ------------------------------------------------------------------ #
    # Cofactor enumeration (the decomposition workhorse)
    # ------------------------------------------------------------------ #

    def cofactor_enumerate(
        self, f: int, levels: Sequence[int]
    ) -> List[int]:
        """Return the cofactor of ``f`` for every assignment of ``levels``.

        The result list has ``2 ** len(levels)`` entries; entry ``i`` is the
        BDD of ``f`` with ``levels[j]`` fixed to bit j of ``i``.  Cofactors
        are computed by a binary walk over the levels so that shared
        prefixes are restricted only once.  The walk keeps its own explicit
        stack: a recursive version would burn ``len(levels)`` Python frames
        per call, which overflows on wide bound sets nested inside already
        deep decomposition recursions.
        """
        self.perf.cofactor_enumerations += 1
        num_levels = len(levels)
        result: List[int] = [FALSE] * (1 << num_levels)
        cofactor = self.cofactor
        var, lo_arr, hi_arr = self._var, self._lo, self._hi
        # Frames are (node, depth, index); the else-branch is followed
        # iteratively while the then-branch is pushed for later.  Trivial
        # cofactors (terminal / vacuous / top-variable) are resolved
        # inline: this loop runs once per column of every candidate bound
        # set, and a Python call costs more than the cofactor itself.
        stack: List[Tuple[int, int, int]] = [(f, 0, 0)]
        while stack:
            node, depth, index = stack.pop()
            while depth < num_levels:
                level = levels[depth]
                if node <= TRUE or var[node] > level:
                    hi = node
                elif var[node] == level:
                    hi = hi_arr[node]
                    node = lo_arr[node]
                else:
                    hi = cofactor(node, level, 1)
                    node = cofactor(node, level, 0)
                depth += 1
                stack.append((hi, depth, index | (1 << (depth - 1))))
            result[index] = node
        return result


def build_cube(manager: BddManager, assignment: Dict[int, int]) -> int:
    """Conjunction of literals for a partial assignment (level -> 0/1)."""
    cube = TRUE
    for level in sorted(assignment, reverse=True):
        literal = (
            manager.var_at_level(level)
            if assignment[level]
            else manager.nvar_at_level(level)
        )
        cube = manager.apply_and(cube, literal)
    return cube
