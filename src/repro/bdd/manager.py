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
* There is no garbage collection during operations; managers are cheap
  to create and callers working on throwaway problems simply drop the
  manager (the pooled flows build one per group).  A caller that keeps
  one manager across unrelated problems can drop every memo keyed by
  node id with :meth:`clear_caches`, or also every node its roots do
  not reach with :meth:`compact`, which renumbers the survivors.  Work
  that is only counted runs inside a :meth:`scratch` scope, which drops
  every node and memo entry it added on exit.
* Node ids are the order of creation.  They identify functions within
  one manager and nothing more: no result of the flows may depend on
  their values or on the order nodes were allocated in (compaction and
  skipped work both change them).  The cofactor kernel still creates
  the nodes its reference recursion would, in the same order, so its
  node counts and budget trip points are pinned by a differential test.
* Recursive walks are methods or module functions with explicit
  arguments, never closures that call themselves: such a closure sits in
  a reference cycle with the manager, so a dropped manager's node arrays
  would stay alive until the cyclic garbage collector happened to run.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..perf import PerfCounters

__all__ = ["BddManager", "BddBudgetExceeded", "FALSE", "TRUE"]

#: Terminal node ids (the same in every manager).
FALSE = 0
TRUE = 1

# Opcodes for the binary apply cache.
_OP_AND = 0
_OP_OR = 1
_OP_XOR = 2

#: The unique table's key for node (level, lo, hi) is the one int
#: ``level << _LEVEL_SHIFT | lo << _ID_BITS | hi``: about half the memory
#: of a 3-tuple.  It is injective while every node id is below
#: ``2**_ID_BITS``, so :meth:`BddManager._mk` allocates no id past
#: ``_MAX_ID`` (a billion nodes, far more than fit in memory).
_ID_BITS = 30
_LEVEL_SHIFT = 2 * _ID_BITS
_MAX_ID = (1 << _ID_BITS) - 1


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
        # (level, lo, hi) packed into one int (see _ID_BITS) -> node id.
        self._unique: Dict[int, int] = {}
        self._apply_cache: Dict[Tuple[int, int, int], int] = {}
        self._not_cache: Dict[int, int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        # Single-variable cofactors: (level, value) -> {node id: result}.
        self._cofactor_memos: Dict[Tuple[int, int], Dict[int, int]] = {}
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
        # Nodes dropped by compact() and scratch scopes: with the live
        # arrays, the count of nodes ever allocated, which is what the
        # node budget caps.
        self._dropped = 0
        # Live-node high-water mark as of the last drop (stats() takes
        # the max with the live count, so _mk never updates it).
        self._peak = 0
        # Open scratch scopes (see scratch()).
        self._scopes = 0
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
        included, and the nodes :meth:`compact` dropped, so compaction
        never lets a budgeted run go further); ``max_seconds`` starts a
        wall-clock deadline measured from this call.  Once a limit is crossed, node allocation and
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
        if self._max_nodes is not None:
            allocated = len(self._var) + self._dropped
            if allocated > self._max_nodes:
                self.perf.budget_exceeded += 1
                raise BddBudgetExceeded("nodes", self._max_nodes, allocated)
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
        """Number of live nodes, terminals included: the survivors of
        the last :meth:`compact` and every node allocated since."""
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
        key = (level << _LEVEL_SHIFT) | (lo << _ID_BITS) | hi
        node = self._unique.get(key)
        if node is None:
            node = len(self._var)
            if node > _MAX_ID:
                raise BddBudgetExceeded("nodes", _MAX_ID + 1, node + 1)
            if (
                self._max_nodes is not None
                and node + self._dropped >= self._max_nodes
            ):
                self.perf.budget_exceeded += 1
                raise BddBudgetExceeded(
                    "nodes", self._max_nodes, node + self._dropped + 1
                )
            # Amortised deadline probe: one clock read per 256 fresh nodes
            # keeps a runaway build bounded without taxing the hot path.
            if self._deadline is not None and (node & 0xFF) == 0:
                self.check_budget()
            self._var.append(level)
            self._lo.append(lo)
            self._hi.append(hi)
            self._unique[key] = node
            self.perf.nodes_allocated += 1
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
        """Engine counters: node/variable counts and cache sizes.

        ``peak_nodes`` is the high-water mark of live nodes: scratch
        scopes and :meth:`compact` lower the live count, never the peak.
        """
        return {
            "num_vars": self.num_vars,
            "num_nodes": self.num_nodes,
            "peak_nodes": max(self._peak, len(self._var)),
            "apply_cache": len(self._apply_cache),
            "not_cache": len(self._not_cache),
            "ite_cache": len(self._ite_cache),
            "cofactor_cache": sum(
                len(memo) for memo in self._cofactor_memos.values()
            ),
        }

    def clear_caches(self) -> None:
        """Drop every memo keyed by node id; the nodes and the unique
        table are kept.

        That is the apply, NOT, ITE and cofactor caches, the bound-set
        search's class counts and the packed-table conversions of
        :mod:`repro.fastpath.bitops`.  Later operations return the same
        node ids; they only recompute (and count) what was dropped.
        Not allowed inside a :meth:`scratch` scope.
        """
        self._outside_scratch("clear_caches")
        self._apply_cache.clear()
        self._not_cache.clear()
        self._ite_cache.clear()
        self._cofactor_memos.clear()
        # Cleared in place: a live search holds this dict.
        self._class_counts.clear()
        self._fastpath = None

    def compact(self, roots: Iterable[int]) -> Dict[int, int]:
        """Keep only the nodes reachable from ``roots``; renumber them.

        The node arrays and the unique table are rebuilt in allocation
        order (a node's children precede it, as before), every memo
        keyed by node id is dropped through :meth:`clear_caches`, and
        the old-to-new id map of the survivors (terminals included) is
        returned: any id the caller still holds must go through it.
        Functions are unchanged; only their ids are.  The node budget
        keeps counting the dropped nodes as allocated.  Not allowed
        inside a :meth:`scratch` scope.
        """
        self._outside_scratch("compact")
        var, lo, hi = self._var, self._lo, self._hi
        live = bytearray(len(var))
        live[FALSE] = live[TRUE] = 1
        stack = list(roots)
        while stack:
            node = stack.pop()
            if live[node]:
                continue
            live[node] = 1
            stack.append(lo[node])
            stack.append(hi[node])
        remap: Dict[int, int] = {FALSE: FALSE, TRUE: TRUE}
        new_var, new_lo, new_hi = [-1, -1], [-1, -1], [-1, -1]
        unique: Dict[int, int] = {}
        for node in range(2, len(var)):
            if live[node]:
                new = len(new_var)
                level, low, high = var[node], remap[lo[node]], remap[hi[node]]
                new_var.append(level)
                new_lo.append(low)
                new_hi.append(high)
                key = (level << _LEVEL_SHIFT) | (low << _ID_BITS) | high
                unique[key] = new
                remap[node] = new
        self._dropped += len(var) - len(new_var)
        self._peak = max(self._peak, len(var))
        self._var, self._lo, self._hi = new_var, new_lo, new_hi
        self._unique = unique
        self.clear_caches()
        return remap

    def scratch(self) -> "_Scratch":
        """A scope whose work is dropped on exit: ``with m.scratch(): ...``.

        On exit, normal or by exception, every node allocated inside the
        scope is dropped, and so is every memo entry added inside it:
        the unique table, the apply, NOT, ITE and cofactor memos and the
        packed-table conversions.  The bound-set search's class counts
        survive when they are keyed by roots that predate the scope.  No
        node id made inside the scope may be used after it.

        Dropping costs time in proportion to what the scope added (plus
        one length per memo dict at entry), not to the manager's size.
        The node budget counts dropped nodes as allocated, as it does
        for :meth:`compact`; :meth:`compact` and :meth:`clear_caches`
        raise inside a scope.  Scopes nest.
        """
        return _Scratch(self)

    def _outside_scratch(self, operation: str) -> None:
        if self._scopes:
            raise RuntimeError(f"{operation} inside a scratch scope")

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

        Results are memoised persistently, one dict per ``(level,
        value)`` keyed by node id, which makes the bound-set search's
        repeated single-variable cofactoring cheap across calls.
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
        perf = self.perf
        perf.cofactor_calls += 1
        memo = self._cofactor_memos.get((level, value))
        if memo is None:
            memo = self._cofactor_memos[level, value] = {}
        else:
            cached = memo.get(f)
            if cached is not None:
                perf.cofactor_hits += 1
                return cached
        self._ensure_recursion_capacity()
        return _cofactor_rec(
            self, f, level, value, memo, self._var, self._lo, self._hi
        )

    def restrict(self, f: int, assignment: Dict[int, int]) -> int:
        """Simultaneously fix several variables (``level -> 0/1``)."""
        if not assignment:
            return f
        return self._restrict(f, assignment, {})

    def _restrict(
        self, node: int, assignment: Dict[int, int], cache: Dict[int, int]
    ) -> int:
        if node <= TRUE:
            return node
        cached = cache.get(node)
        if cached is not None:
            return cached
        level = self._var[node]
        if level in assignment:
            child = self._hi[node] if assignment[level] else self._lo[node]
            result = self._restrict(child, assignment, cache)
        else:
            result = self._mk(
                level,
                self._restrict(self._lo[node], assignment, cache),
                self._restrict(self._hi[node], assignment, cache),
            )
        cache[node] = result
        return result

    def exists(self, f: int, levels: Iterable[int]) -> int:
        """Existential quantification over the given variable levels."""
        level_set = frozenset(levels)
        if not level_set:
            return f
        return self._quantify(f, level_set, _OP_OR, {})

    def forall(self, f: int, levels: Iterable[int]) -> int:
        """Universal quantification over the given variable levels."""
        level_set = frozenset(levels)
        if not level_set:
            return f
        return self._quantify(f, level_set, _OP_AND, {})

    def _quantify(
        self, node: int, level_set: frozenset, op: int, cache: Dict[int, int]
    ) -> int:
        if node <= TRUE:
            return node
        cached = cache.get(node)
        if cached is not None:
            return cached
        level = self._var[node]
        lo = self._quantify(self._lo[node], level_set, op, cache)
        hi = self._quantify(self._hi[node], level_set, op, cache)
        if level in level_set:
            result = self._apply2(op, lo, hi)
        else:
            result = self._mk(level, lo, hi)
        cache[node] = result
        return result

    def compose(self, f: int, level: int, g: int) -> int:
        """Substitute function ``g`` for the variable at ``level`` in ``f``."""
        return self._compose(f, level, g, {})

    def _compose(
        self, node: int, level: int, g: int, cache: Dict[int, int]
    ) -> int:
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
                self._compose(self._hi[node], level, g, cache),
                self._compose(self._lo[node], level, g, cache),
            )
        cache[node] = result
        return result

    def vector_compose(self, f: int, substitution: Dict[int, int]) -> int:
        """Simultaneously substitute functions for several variables.

        ``substitution`` maps variable level -> replacement BDD.  The
        substitution is simultaneous (all replacements read the *original*
        variables), implemented by a bottom-up ITE rebuild.
        """
        if not substitution:
            return f
        return self._vector_compose(f, substitution, {})

    def _vector_compose(
        self, node: int, substitution: Dict[int, int], cache: Dict[int, int]
    ) -> int:
        if node <= TRUE:
            return node
        cached = cache.get(node)
        if cached is not None:
            return cached
        level = self._var[node]
        selector = substitution.get(level, self.var_at_level(level))
        result = self.ite(
            selector,
            self._vector_compose(self._hi[node], substitution, cache),
            self._vector_compose(self._lo[node], substitution, cache),
        )
        cache[node] = result
        return result

    # ------------------------------------------------------------------ #
    # Image construction (the encoder's g)
    # ------------------------------------------------------------------ #

    def code_mux(
        self,
        functions: Sequence[int],
        codes: Sequence[Dict[int, int]],
        unused: int = FALSE,
    ) -> int:
        """``functions[i]`` where the code variables spell ``codes[i]``.

        Builds ``g = OR_i cube(codes[i]) AND functions[i]``, plus
        ``unused`` (``FALSE`` or ``TRUE``) on every code point no code
        covers.  ``codes[i]`` maps level -> bit; a partial code covers
        several points, and overlapping codes OR their functions.

        One simultaneous descent over the functions, memoized on the
        tuple of current nodes, builds g directly: below the functions'
        variables every node of the tuple is a terminal, and g is the
        OR of the cubes of the functions that are TRUE there (memoized
        per tuple, so per class mask).  That needs every code level to
        lie below every variable of the functions, which holds for the
        encoder's fresh α/PPI levels; :class:`ValueError` otherwise.
        """
        if len(functions) != len(codes):
            raise ValueError(
                f"{len(functions)} functions but {len(codes)} codes"
            )
        if unused not in (FALSE, TRUE):
            raise ValueError("unused must be FALSE or TRUE")
        code_levels = {level for code in codes for level in code}
        first_code = min(code_levels) if code_levels else len(self._names)
        cubes = [build_cube(self, code) for code in codes]
        spare = FALSE
        if unused == TRUE:
            used = FALSE
            for cube in cubes:
                used = self.apply_or(used, cube)
            spare = self.apply_not(used)
        self._ensure_recursion_capacity()
        return self._code_mux(tuple(functions), {}, cubes, spare, first_code)

    def _code_mux(
        self,
        nodes: Tuple[int, ...],
        memo: Dict[Tuple[int, ...], int],
        cubes: List[int],
        spare: int,
        first_code: int,
    ) -> int:
        result = memo.get(nodes)
        if result is not None:
            return result
        var = self._var
        top = -1
        for node in nodes:
            level = var[node]
            if level >= 0 and (top < 0 or level < top):
                top = level
        if top < 0:
            # All terminals: the cubes of the classes that are TRUE here.
            result = spare
            for node, cube in zip(nodes, cubes):
                if node == TRUE:
                    result = self.apply_or(result, cube)
        else:
            if top >= first_code:
                raise ValueError(
                    f"code level {first_code} does not lie below function "
                    f"variable {self._names[top]!r} (level {top})"
                )
            lo_arr, hi_arr = self._lo, self._hi
            lo = tuple([lo_arr[n] if var[n] == top else n for n in nodes])
            hi = tuple([hi_arr[n] if var[n] == top else n for n in nodes])
            result = self._mk(
                top,
                self._code_mux(lo, memo, cubes, spare, first_code),
                self._code_mux(hi, memo, cubes, spare, first_code),
            )
        memo[nodes] = result
        return result

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

    def shared_size(
        self, roots: Iterable[int], limit: int = sys.maxsize
    ) -> int:
        """Nodes of the shared BDD of ``roots`` (terminals excluded).

        The walk stops as soon as the count exceeds ``limit``; the
        result is then ``limit + 1``.
        """
        seen: set = set()
        stack = list(roots)
        lo, hi = self._lo, self._hi
        count = 0
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            count += 1
            if count > limit:
                break
            stack.append(lo[node])
            stack.append(hi[node])
        return count

    def size(self, f: int) -> int:
        """Number of nodes in the BDD rooted at ``f`` (terminals excluded)."""
        return self.shared_size((f,))

    def split_sizes(self, f: int, levels: Sequence[int]) -> List[int]:
        """``size(cofactor(f, lv, 0)) + size(cofactor(f, lv, 1))`` for
        each level ``lv`` of ``levels``, counted without allocating.

        Per level and value, the part of ``f`` above the level is
        rebuilt in a local hash-consed dict (negative ids; a node whose
        two children map to one node is dropped) and the part below it,
        which the cofactor shares with ``f``, is counted by
        reachability.  Rebuilt nodes sit above the level, so none equals
        a kept node, and each is reachable from the cofactor's root:
        the sum is the cofactor's size (docs/ALGORITHMS.md, "The Shannon
        ranking").  No node, memo entry or counter of the manager
        changes; the budget is checked once per level.
        """
        var, lo, hi = self._var, self._lo, self._hi
        nodes = []
        seen = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            nodes.append(node)
            stack.append(lo[node])
            stack.append(hi[node])
        # Deepest level first, so every child precedes its parents.
        nodes.sort(key=var.__getitem__, reverse=True)
        keys = [-var[node] for node in nodes]
        sizes = []
        for level in levels:
            self.check_budget()
            start = bisect_left(keys, -level)
            end = bisect_right(keys, -level)
            at, above = nodes[start:end], nodes[end:]
            total = 0
            for child in (lo, hi):
                canon = {node: child[node] for node in at}
                unique: Dict[Tuple[int, int, int], int] = {}
                kept = set()
                for node in above:
                    r0 = lo[node]
                    r0 = canon.get(r0, r0)
                    r1 = hi[node]
                    r1 = canon.get(r1, r1)
                    if r0 == r1:
                        canon[node] = r0
                        continue
                    key = (var[node], r0, r1)
                    rebuilt = unique.get(key)
                    if rebuilt is None:
                        rebuilt = unique[key] = -1 - len(unique)
                        if r0 > TRUE:
                            kept.add(r0)
                        if r1 > TRUE:
                            kept.add(r1)
                    canon[node] = rebuilt
                root = canon.get(f, f)
                if root > TRUE:
                    kept.add(root)
                total += len(unique) + _reach_count(kept, lo, hi)
            sizes.append(total)
        return sizes

    def sat_count(self, f: int, num_vars: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``num_vars`` variables."""
        if num_vars is None:
            num_vars = self.num_vars
        top_level = self._var[f] if f > TRUE else num_vars
        return self._sat_count(f, num_vars, {}) * (1 << top_level)

    def _sat_count(self, node: int, num_vars: int, cache: Dict[int, int]) -> int:
        # Count over variables strictly below this node's level; scale at
        # the call sites to account for skipped levels.
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
        result = self._sat_count(lo, num_vars, cache) * (
            1 << (lo_level - level - 1)
        ) + self._sat_count(hi, num_vars, cache) * (1 << (hi_level - level - 1))
        cache[node] = result
        return result

    def sat_iter(self, f: int) -> Iterator[Dict[int, int]]:
        """Yield partial assignments (cubes) covering the on-set of ``f``."""
        yield from self._sat_cubes(f, {})

    def _sat_cubes(
        self, node: int, cube: Dict[int, int]
    ) -> Iterator[Dict[int, int]]:
        if node == FALSE:
            return
        if node == TRUE:
            yield dict(cube)
            return
        level = self._var[node]
        cube[level] = 0
        yield from self._sat_cubes(self._lo[node], cube)
        cube[level] = 1
        yield from self._sat_cubes(self._hi[node], cube)
        del cube[level]

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
        order = sorted(range(len(levels)), key=lambda j: levels[j])
        return self._from_table(bits, levels, order, {}, 0)

    def _from_table(
        self,
        bits: int,
        levels: Sequence[int],
        order: List[int],
        prefix: Dict[int, int],
        depth: int,
    ) -> int:
        if depth == len(levels):
            index = 0
            for j in range(len(levels)):
                if prefix[j]:
                    index |= 1 << j
            return TRUE if (bits >> index) & 1 else FALSE
        j = order[depth]
        prefix[j] = 0
        lo = self._from_table(bits, levels, order, prefix, depth + 1)
        prefix[j] = 1
        hi = self._from_table(bits, levels, order, prefix, depth + 1)
        del prefix[j]
        return self._mk(levels[j], lo, hi)

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


class _Scratch:
    """One :meth:`BddManager.scratch` scope: the sizes at entry.

    Nodes are appended to the node arrays and to the unique table in
    allocation order, and every memo only ever gains entries (a probe
    precedes each insert), so the entries added inside the scope are
    the last ones of each dict: ``popitem`` removes them newest first.
    """

    __slots__ = ("manager", "nodes", "sizes", "class_counts", "packed")

    def __init__(self, manager: BddManager):
        self.manager = manager

    def __enter__(self) -> "_Scratch":
        m = self.manager
        m._scopes += 1
        self.nodes = len(m._var)
        memos: List[dict] = [
            m._apply_cache, m._not_cache, m._ite_cache, m._cofactor_memos,
        ]
        memos.extend(m._cofactor_memos.values())
        self.sizes = [(memo, len(memo)) for memo in memos]
        self.class_counts = len(m._class_counts)
        # The packed-table cache may be cleared inside the scope (it
        # bounds its level tuples), so it is restored from this list.
        self.packed = (
            None
            if m._fastpath is None
            else [(lv, memo, len(memo)) for lv, memo in m._fastpath.items()]
        )
        return self

    def __exit__(self, *exc) -> bool:
        m = self.manager
        m._scopes -= 1
        self._drop(m)
        return False

    def _drop(self, m: BddManager) -> None:
        mark = self.nodes
        added = len(m._var) - mark
        if added:
            m._peak = max(m._peak, len(m._var))
            m._dropped += added
            del m._var[mark:]
            del m._lo[mark:]
            del m._hi[mark:]
            _pop_newest(m._unique, added)
        for memo, size in self.sizes:
            _pop_newest(memo, len(memo) - size)
        counts = m._class_counts
        added_counts = [
            counts.popitem() for _ in range(len(counts) - self.class_counts)
        ]
        for key, count in reversed(added_counts):
            if key[0] < mark and key[1] < mark:  # (on, dc, ...) survived
                counts[key] = count
        if self.packed is None:
            m._fastpath = None
        else:
            for _, memo, size in self.packed:
                _pop_newest(memo, len(memo) - size)
            m._fastpath = {lv: memo for lv, memo, _ in self.packed}


def _reach_count(nodes: set, lo: List[int], hi: List[int]) -> int:
    """Non-terminal nodes reachable from ``nodes`` (which it extends)."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        for child in (lo[node], hi[node]):
            if child > TRUE and child not in nodes:
                nodes.add(child)
                stack.append(child)
    return len(nodes)


def _pop_newest(memo: dict, count: int) -> None:
    """Remove the ``count`` most recently inserted entries of ``memo``."""
    popitem = memo.popitem
    for _ in range(count):
        popitem()


def _cofactor_rec(
    manager: BddManager,
    f: int,
    level: int,
    value: int,
    memo: Dict[int, int],
    var: List[int],
    lo: List[int],
    hi: List[int],
) -> int:
    """The recursive body of :meth:`BddManager.cofactor`.

    ``f`` lies strictly above ``level`` and is not in ``memo`` (the
    memo of this ``(level, value)``).  Each child's trivial cases are
    resolved inline and each memo probe is made here (the two children
    are unrolled, not looped), so only a child that needs work costs a
    call; the counters count exactly what the method would.  The whole
    lo branch is built before the whole hi branch, and both before the
    parent, as the reference recursion builds them, so the nodes, the
    counters and a budget's trip point match it.
    The unique table is probed before :meth:`~BddManager._mk`, which
    only runs for a fresh node and so keeps the node budget and the
    deadline probe in one place.
    """
    perf = manager.perf
    r0 = lo[f]
    if r0 > TRUE:
        child_level = var[r0]
        if child_level == level:
            r0 = hi[r0] if value else lo[r0]
        elif child_level < level:
            perf.cofactor_calls += 1
            cached = memo.get(r0)
            if cached is None:
                r0 = _cofactor_rec(
                    manager, r0, level, value, memo, var, lo, hi
                )
            else:
                perf.cofactor_hits += 1
                r0 = cached
    r1 = hi[f]
    if r1 > TRUE:
        child_level = var[r1]
        if child_level == level:
            r1 = hi[r1] if value else lo[r1]
        elif child_level < level:
            perf.cofactor_calls += 1
            cached = memo.get(r1)
            if cached is None:
                r1 = _cofactor_rec(
                    manager, r1, level, value, memo, var, lo, hi
                )
            else:
                perf.cofactor_hits += 1
                r1 = cached
    if r0 == r1:
        result = r0
    else:
        f_level = var[f]
        result = manager._unique.get(
            (f_level << _LEVEL_SHIFT) | (r0 << _ID_BITS) | r1
        )
        if result is None:
            result = manager._mk(f_level, r0, r1)
    memo[f] = result
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
