"""Exact k-LUT mapping of small cones — the optimality oracle.

Answers "what is the minimum number of k-LUTs realizing this function?"
(and, under ``cost="delay"``, the minimum depth at that LUT count) by
iterative-deepening search over LUT-network topologies: for N = 1, 2,
3… the question "∃ wiring + ∃ truth-table bits such that the N-LUT
network equals the spec on all 2^n input vectors" is decided by a
hybrid of combinatorial wiring enumeration and a pure-python DPLL over
the truth-table bits, with values derived by propagation (QBM frames
the same decision problem as QBF satisfiability; here the inner ∃ is
solved directly instead of handed to a solver, keeping the oracle
dependency-free).

Three structural facts keep the search honest and fast:

* **Lower bound.** Every LUT past the first contributes at most k-1
  fresh inputs, so N ≥ ceil((n-1)/(k-1)); the deepening starts there.
* **Monotone fanins.**  Giving any node more fanins only enlarges its
  realizable function set (the table can ignore pins), so for the
  area question only *maximal* fanin sets need enumerating; the found
  tables are support-pruned afterwards.  The delay refinement re-runs
  the final level with full (non-maximal) enumeration under an exact
  structural depth cap, because a superset wiring can be deeper.
* **N=2 is 2-coloring.**  With one inner LUT g and the output h(D,
  g(S1)), two assignments in the same D-class with different spec
  values force g apart — feasibility is bipartiteness of that
  conflict graph, decided directly without DPLL.

Every found plan is re-checked bit-parallel (big-int vectors built
from :func:`repro.fastpath.bitops.var_masks` — the all-vectors check
is a handful of big-int ops) before it is trusted, and results are
memoized NPN-canonically (:mod:`repro.boolfunc.npn`) in
:class:`~repro.exact.cache.ExactCache`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..boolfunc import TruthTable
from ..boolfunc.npn import Transform, npn_canonical
from ..fastpath.bitops import var_masks
from ..network import Network

#: Widest cone the oracle accepts (2^10 vectors; beyond this the table
#: explodes and the heuristic flow is the only practical answer).
EXACT_MAX_INPUTS = 10

#: Wall-clock budget when the caller does not pass one.
DEFAULT_BUDGET_SECONDS = 5.0

#: Deepening cap when no upper bound is supplied: proving "≥ 8 LUTs"
#: exactly is far beyond what the budget allows anyway.
DEFAULT_MAX_LUTS = 7

# Plan representation: one (fanins, table_mask) pair per LUT in
# topological order; signal ids 0..n-1 are spec inputs, n+i is LUT i.
Plan = List[Tuple[Tuple[int, ...], int]]


class ExactBudgetExceeded(RuntimeError):
    """The search ran out of budget (wall clock or LUT cap) before an
    exact answer was proven.  Never raised once an optimum is known."""


@dataclass(frozen=True)
class ExactResult:
    """An *optimal* answer: ``luts`` is exactly the minimum.

    ``network`` realizes the spec (BDD-checkable); it is ``None`` only
    when the optimum was certified via ``upper_bound`` and the caller
    passed no ``upper_witness``.  ``source`` says how the answer was
    obtained: ``"search"``, ``"trivial"`` (constant/wire/single LUT
    shortcuts), ``"upper_bound"`` (all smaller N proven UNSAT, the
    caller's bound is the optimum) or ``"cache"``.
    """

    luts: int
    depth: int
    network: Optional[Network]
    seconds: float
    source: str = "search"
    cache_hit: bool = False
    key: Optional[str] = None


class _Deadline:
    """Cooperative budget: wall clock plus an optional external poll
    (the portfolio rung passes the BDD manager's ``check_budget`` so an
    armed ``max_seconds``/fault injection interrupts the search too)."""

    __slots__ = ("at", "poll")

    def __init__(self, budget_seconds: float, poll=None) -> None:
        self.at = time.monotonic() + budget_seconds
        self.poll = poll

    def check(self) -> None:
        if time.monotonic() > self.at:
            raise ExactBudgetExceeded(
                "exact search exceeded its time budget"
            )
        if self.poll is not None:
            self.poll()


def _lower_bound(n: int, k: int) -> int:
    if n <= k:
        return 1
    return -(-(n - 1) // (k - 1))


# --------------------------------------------------------------------- #
# Bit-parallel plan evaluation (the all-vectors check)
# --------------------------------------------------------------------- #


def _eval_plan(plan: Plan, n: int) -> int:
    """Truth-table mask the plan computes, via big-int vector eval."""
    total = 1 << n
    full = (1 << total) - 1
    sigs = [var_masks(n, j)[1] for j in range(n)]
    for fanins, tmask in plan:
        fvecs = [sigs[s] for s in fanins]
        out = 0
        for p in range(1 << len(fanins)):
            if not (tmask >> p) & 1:
                continue
            sel = full
            for pos, fv in enumerate(fvecs):
                sel &= fv if (p >> pos) & 1 else ~fv & full
                if not sel:
                    break
            out |= sel
        sigs.append(out)
    return sigs[-1] if plan else 0


def _plan_depth(plan: Plan, n: int) -> int:
    depths: List[int] = []
    for fanins, _ in plan:
        d = 0
        for s in fanins:
            ds = 0 if s < n else depths[s - n]
            if ds > d:
                d = ds
        depths.append(d + 1)
    return depths[-1] if depths else 0


def _prune_plan(plan: Plan) -> Plan:
    """Drop table-ignored pins (maximal-set search wires generously)."""
    pruned: Plan = []
    for fanins, tmask in plan:
        tt = TruthTable(len(fanins), tmask)
        reduced, kept = tt.minimize_support()
        pruned.append((tuple(fanins[j] for j in kept), reduced.mask))
    return pruned


# --------------------------------------------------------------------- #
# N = 2: feasibility is bipartiteness of the conflict graph
# --------------------------------------------------------------------- #


def _two_feasible(
    mask: int, n: int, s1: Tuple[int, ...], d: Tuple[int, ...],
    apat: List[int],
) -> Optional[Plan]:
    total = 1 << n
    groups: Dict[int, Tuple[Set[int], Set[int]]] = {}
    for v in range(total):
        dpat = 0
        for pos, j in enumerate(d):
            if (v >> j) & 1:
                dpat |= 1 << pos
        bucket = groups.get(dpat)
        if bucket is None:
            bucket = groups[dpat] = (set(), set())
        bucket[(mask >> v) & 1].add(apat[v])
    adj: Dict[int, Set[int]] = {}
    for zeros, ones in groups.values():
        if zeros & ones:
            return None  # same g-class forced both ways: no g exists
        for a1 in zeros:
            for a2 in ones:
                adj.setdefault(a1, set()).add(a2)
                adj.setdefault(a2, set()).add(a1)
    color: Dict[int, int] = {}
    for start in sorted(adj):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            cu = color[u]
            for w in adj[u]:
                cw = color.get(w)
                if cw is None:
                    color[w] = 1 - cu
                    stack.append(w)
                elif cw == cu:
                    return None  # odd cycle: not 2-colorable
    gmask = 0
    for a, c in color.items():
        if c:
            gmask |= 1 << a
    hmask = 0
    dlen = len(d)
    for dpat, (_, ones) in groups.items():
        for a in ones:
            hmask |= 1 << (dpat | (((gmask >> a) & 1) << dlen))
    return [(tuple(s1), gmask), (tuple(d) + (n,), hmask)]


def _search_two(
    mask: int, n: int, k: int, deadline: _Deadline
) -> Optional[Plan]:
    if 2 * k - 1 < n:
        return None
    total = 1 << n
    s1_size = min(k, n)
    for s1 in itertools.combinations(range(n), s1_size):
        deadline.check()
        s1set = set(s1)
        required = [j for j in range(n) if j not in s1set]
        if len(required) > k - 1:
            continue
        apat = [0] * total
        for pos, j in enumerate(s1):
            bit = 1 << pos
            for v in range(total):
                if (v >> j) & 1:
                    apat[v] |= bit
        extra_size = min(k - 1 - len(required), len(s1))
        for extras in itertools.combinations(s1, extra_size):
            plan = _two_feasible(
                mask, n, s1, tuple(sorted(required + list(extras))), apat
            )
            if plan is not None:
                return plan
    return None


# --------------------------------------------------------------------- #
# N >= 3: wiring DFS + DPLL over truth-table bits
# --------------------------------------------------------------------- #


def _general_wirings(
    n: int,
    k: int,
    N: int,
    maximal: bool,
    depth_cap: Optional[int] = None,
    depth_exact: bool = False,
):
    """Yield complete wirings (a fanin tuple per node, topo order).

    Pruned by: coverage (all n inputs read somewhere), consumption
    (every inner node read downstream), lex-nondecreasing adjacent
    input-only nodes (symmetry), and — when ``depth_cap`` is set — the
    structural depth bound (``depth_exact`` additionally requires the
    output to sit exactly at the cap, so the delay refinement never
    re-visits wirings a smaller cap already covered).
    """
    wiring: List[Tuple[int, ...]] = []
    depths: List[int] = []

    def rec(i: int, cover: int, unconsumed: Set[int]):
        cand = list(range(n)) + [n + j for j in range(i)]
        if i == N - 1:
            forced = [n + j for j in sorted(unconsumed)]
            missing = [j for j in range(n) if not (cover >> j) & 1]
            base = forced + missing
            if len(base) > k:
                return
            pool = [s for s in cand if s not in set(base)]
            if maximal:
                sizes = [min(k, len(cand)) - len(base)]
            else:
                lo = max(0, 2 - len(base))
                sizes = range(lo, k - len(base) + 1)
            for size in sizes:
                if size < 0 or size > len(pool):
                    continue
                for extras in itertools.combinations(pool, size):
                    fan = tuple(sorted(base + list(extras)))
                    if len(fan) < 2:
                        continue  # absorbable at minimal N
                    d = 1 + max(
                        (0 if s < n else depths[s - n]) for s in fan
                    )
                    if depth_cap is not None:
                        if d > depth_cap:
                            continue
                        if depth_exact and d != depth_cap:
                            continue
                    wiring.append(fan)
                    yield list(wiring)
                    wiring.pop()
            return
        sizes = (
            [min(k, len(cand))]
            if maximal
            else range(2, min(k, len(cand)) + 1)
        )
        prev = wiring[i - 1] if i > 0 else None
        prev_inputs_only = prev is not None and all(s < n for s in prev)
        for size in sizes:
            for fan in itertools.combinations(cand, size):
                if (
                    prev_inputs_only
                    and all(s < n for s in fan)
                    and fan < prev
                ):
                    continue  # symmetric twin already enumerated
                d = 1 + max((0 if s < n else depths[s - n]) for s in fan)
                # An inner node must be read by a deeper node, so under
                # a cap it cannot itself sit at the cap.
                if depth_cap is not None and d >= depth_cap:
                    continue
                ncover = cover
                nuncon = set(unconsumed)
                for s in fan:
                    if s < n:
                        ncover |= 1 << s
                    else:
                        nuncon.discard(s - n)
                nuncon.add(i)
                missing_ct = n - bin(ncover).count("1")
                if len(nuncon) + missing_ct > (N - 1 - i) * k:
                    continue  # not enough pins left downstream
                wiring.append(fan)
                depths.append(d)
                yield from rec(i + 1, ncover, nuncon)
                depths.pop()
                wiring.pop()

    yield from rec(0, 0, set())


def _propagate(
    wiring: List[Tuple[int, ...]],
    tables: List[Dict[int, int]],
    values: List[List[Optional[int]]],
    mask: int,
    n: int,
    N: int,
    total: int,
) -> bool:
    """Fixpoint propagation; ``False`` on contradiction with the spec."""
    changed = True
    while changed:
        changed = False
        for i in range(N):
            fan = wiring[i]
            tab = tables[i]
            vals = values[i]
            is_output = i == N - 1
            for v in range(total):
                if vals[v] is not None:
                    continue
                p = 0
                known = True
                for pos, s in enumerate(fan):
                    if s < n:
                        b = (v >> s) & 1
                    else:
                        b = values[s - n][v]
                        if b is None:
                            known = False
                            break
                    if b:
                        p |= 1 << pos
                if not known:
                    continue
                if is_output:
                    want = (mask >> v) & 1
                    cur = tab.get(p)
                    if cur is None:
                        tab[p] = want
                    elif cur != want:
                        return False
                    vals[v] = want
                    changed = True
                else:
                    b = tab.get(p)
                    if b is not None:
                        vals[v] = b
                        changed = True
    return True


def _pick_branch(
    wiring: List[Tuple[int, ...]],
    values: List[List[Optional[int]]],
    n: int,
    N: int,
    total: int,
) -> Optional[Tuple[int, int]]:
    """The earliest undetermined (node, pattern) — its fanins are all
    determined (every earlier node is complete), so the unknown is the
    table bit itself.  ``None`` means the whole network is determined
    and (propagation having enforced the spec at the output) SAT."""
    for i in range(N):
        vals = values[i]
        for v in range(total):
            if vals[v] is None:
                p = 0
                for pos, s in enumerate(wiring[i]):
                    b = (v >> s) & 1 if s < n else values[s - n][v]
                    if b:
                        p |= 1 << pos
                return i, p
    return None


class _CapReached(Exception):
    """DPLL node cap hit: this wiring is 'hard', verdict unknown."""


class _NodeCap:
    __slots__ = ("left",)

    def __init__(self, budget: Optional[int]) -> None:
        self.left = budget

    def spend(self) -> None:
        if self.left is None:
            return
        self.left -= 1
        if self.left < 0:
            raise _CapReached()


def _dpll(
    wiring: List[Tuple[int, ...]],
    tables: List[Dict[int, int]],
    values: List[List[Optional[int]]],
    mask: int,
    n: int,
    N: int,
    total: int,
    deadline: _Deadline,
    cap: _NodeCap,
) -> Optional[List[Dict[int, int]]]:
    deadline.check()
    cap.spend()
    pick = _pick_branch(wiring, values, n, N, total)
    if pick is None:
        return tables
    i, p = pick
    for bit in (0, 1):
        t2 = [dict(t) for t in tables]
        v2 = [list(v) for v in values]
        t2[i][p] = bit
        if _propagate(wiring, t2, v2, mask, n, N, total):
            found = _dpll(
                wiring, t2, v2, mask, n, N, total, deadline, cap
            )
            if found is not None:
                return found
    return None


def _solve_wiring(
    wiring: List[Tuple[int, ...]],
    mask: int,
    n: int,
    N: int,
    deadline: _Deadline,
    node_cap: Optional[int] = None,
) -> Optional[Plan]:
    total = 1 << n
    tables: List[Dict[int, int]] = [dict() for _ in range(N)]
    values: List[List[Optional[int]]] = [
        [None] * total for _ in range(N)
    ]
    # Polarity symmetry-breaking: flipping an inner node's output can
    # always be absorbed by its consumers' (free) tables, so every
    # solvable wiring has a solution with g_i(0…0) = 0.  Halves each
    # inner table's search dimension.
    for i in range(N - 1):
        tables[i][0] = 0
    if not _propagate(wiring, tables, values, mask, n, N, total):
        return None
    solved = _dpll(
        wiring, tables, values, mask, n, N, total, deadline,
        _NodeCap(node_cap),
    )
    if solved is None:
        return None
    plan: Plan = []
    for fan, tab in zip(wiring, solved):
        tmask = 0
        for p, bit in tab.items():
            if bit:
                tmask |= 1 << p
        plan.append((tuple(fan), tmask))
    return plan


#: Pass-1 DPLL node cap: enough to settle easy wirings (structured
#: functions solve in tens of nodes), small enough that a sweep over
#: thousands of wirings stays interactive.
_EASY_NODE_CAP = 400


def _search_general(
    mask: int, n: int, k: int, N: int, deadline: _Deadline
) -> Optional[Plan]:
    """Two-pass sweep: a capped pass surfaces easy SAT wirings fast
    (finding a solution must not be blocked behind some early wiring's
    expensive UNSAT proof); hard wirings are revisited uncapped only
    when the capped pass proves nothing — the UNSAT verdict needs every
    wiring settled."""
    hard: List[List[Tuple[int, ...]]] = []
    for wiring in _general_wirings(n, k, N, maximal=True):
        deadline.check()
        try:
            plan = _solve_wiring(
                wiring, mask, n, N, deadline, node_cap=_EASY_NODE_CAP
            )
        except _CapReached:
            hard.append(wiring)
            continue
        if plan is not None:
            return plan
    for wiring in hard:
        deadline.check()
        plan = _solve_wiring(wiring, mask, n, N, deadline)
        if plan is not None:
            return plan
    return None


def _search_general_delay(
    mask: int, n: int, k: int, N: int, deadline: _Deadline
) -> Tuple[Plan, int]:
    """Minimum structural depth at N LUTs (full enumeration, exact
    depth caps from 2 upward; a chain of N is the worst case so the
    scan always terminates with the plan the area search proved
    exists)."""
    for cap in range(2, N + 1):
        hard: List[List[Tuple[int, ...]]] = []
        for wiring in _general_wirings(
            n, k, N, maximal=False, depth_cap=cap, depth_exact=True
        ):
            deadline.check()
            try:
                plan = _solve_wiring(
                    wiring, mask, n, N, deadline,
                    node_cap=_EASY_NODE_CAP,
                )
            except _CapReached:
                hard.append(wiring)
                continue
            if plan is not None:
                return plan, cap
        for wiring in hard:
            deadline.check()
            plan = _solve_wiring(wiring, mask, n, N, deadline)
            if plan is not None:
                return plan, cap
    raise RuntimeError(
        f"delay refinement found no network at N={N} although the "
        "area search did — enumeration bug"
    )


# --------------------------------------------------------------------- #
# NPN canonical keying and witness reconstruction
# --------------------------------------------------------------------- #


def _identity_transform(n: int) -> Transform:
    return (tuple(range(n)), 0, 0)


def _untransform_plan(plan: Plan, transform: Transform, n: int) -> Plan:
    """Rewrite a plan for the canonical function into one for the
    original: ``canonical(y) = out_flip ^ f(x)`` with ``y[perm[j]] =
    x[j] ^ flips[j]``, so input pin ``y_i`` becomes ``x_{pinv[i]}``
    (table pin flipped when that input was), and the output table
    absorbs ``out_flip``."""
    perm, flips, out_flip = transform
    pinv = [0] * n
    for j, pj in enumerate(perm):
        pinv[pj] = j
    out: Plan = []
    for node_idx, (fanins, tmask) in enumerate(plan):
        tt = TruthTable(len(fanins), tmask)
        new_fan = []
        for pos, s in enumerate(fanins):
            if s < n:
                src = pinv[s]
                if (flips >> src) & 1:
                    tt = tt.flip_input(pos)
                new_fan.append(src)
            else:
                new_fan.append(s)
        if out_flip and node_idx == len(plan) - 1:
            tt = ~tt
        out.append((tuple(new_fan), tt.mask))
    return out


def _plan_payload(
    plan: Plan, n: int, k: int, cost: str, mask: int, depth: int
) -> Dict[str, object]:
    return {
        "n": n,
        "k": k,
        "cost": cost,
        "mask": format(mask, "x"),
        "luts": len(plan),
        "depth": depth,
        "wiring": [list(fanins) for fanins, _ in plan],
        "tables": [tmask for _, tmask in plan],
    }


def _plan_from_payload(payload: Dict[str, object]) -> Plan:
    return [
        (tuple(fanins), tmask)
        for fanins, tmask in zip(payload["wiring"], payload["tables"])
    ]


def _witness_network(
    plan: Plan,
    kept: Sequence[int],
    input_names: Sequence[str],
    output_name: str,
    net_name: str,
) -> Network:
    """Materialize a plan (in reduced-spec space) as a Network whose
    PIs are the *original* spec inputs, in the original order."""
    net = Network(net_name)
    for pi in input_names:
        net.add_input(pi)
    # Plan signal ids are 0..n-1 (reduced-spec inputs) then n+i (LUT
    # i); ``signals`` is laid out identically, so ids index directly.
    signals: List[str] = [input_names[j] for j in kept]
    for i, (fanins, tmask) in enumerate(plan):
        node_name = net.fresh_name(f"{output_name}_ex{i}")
        net.add_node(
            node_name,
            [signals[s] for s in fanins],
            TruthTable(len(fanins), tmask),
        )
        signals.append(node_name)
    net.add_output(signals[-1] if plan else signals[0], output_name)
    return net


# --------------------------------------------------------------------- #
# The oracle
# --------------------------------------------------------------------- #


def exact_map(
    spec: TruthTable,
    k: int = 5,
    *,
    cost: str = "area",
    budget_seconds: Optional[float] = None,
    cache=None,
    upper_bound: Optional[int] = None,
    upper_witness: Optional[Network] = None,
    upper_depth: Optional[int] = None,
    max_luts: Optional[int] = None,
    input_names: Optional[Sequence[str]] = None,
    output_name: str = "f",
    name: Optional[str] = None,
    poll: Optional[Callable[[], None]] = None,
) -> ExactResult:
    """The minimum k-LUT realization of ``spec`` — exactly.

    Returns an :class:`ExactResult` whose ``luts`` is *proven* minimal
    (and whose ``depth`` is the minimum at that LUT count under
    ``cost="delay"``), or raises :class:`ExactBudgetExceeded` when the
    proof did not complete within ``budget_seconds`` (default
    ``DEFAULT_BUDGET_SECONDS``) / ``max_luts``.  It never returns a
    wrong or unproven answer.

    ``upper_bound`` (with optional ``upper_witness``/``upper_depth``,
    e.g. the heuristic flow's cone) truncates the deepening: once every
    N below the bound is UNSAT the bound itself is the optimum — which
    makes "is the heuristic already optimal?" the *cheap* question.

    ``cache`` is an :class:`~repro.exact.cache.ExactCache`; results are
    stored under the NPN-canonical key (≤5 inputs; raw support-reduced
    mask beyond, where canonicalization itself would dwarf the search)
    so one stored class answers every input permutation/negation of it.
    Hits reconstruct the witness through the exact same payload path a
    fresh search uses, so a hit is byte-identical to the miss that
    seeded it.  ``poll`` is called inside search loops (the portfolio
    rung passes the BDD manager's budget check so fault injection and
    ``max_seconds`` arming interrupt the search cooperatively).
    """
    start = time.perf_counter()
    if spec.num_inputs > EXACT_MAX_INPUTS:
        raise ValueError(
            f"spec has {spec.num_inputs} inputs; the exact oracle "
            f"accepts at most {EXACT_MAX_INPUTS}"
        )
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if cost not in ("area", "delay"):
        raise ValueError(f"cost must be 'area' or 'delay', got {cost!r}")
    names = (
        list(input_names)
        if input_names is not None
        else [f"x{j}" for j in range(spec.num_inputs)]
    )
    if len(names) != spec.num_inputs:
        raise ValueError(
            f"{len(names)} input names for {spec.num_inputs} inputs"
        )
    net_name = name or "exact"

    reduced, kept = spec.minimize_support()
    n = reduced.num_inputs

    def _done(
        luts: int,
        depth: int,
        network: Optional[Network],
        source: str,
        cache_hit: bool = False,
        key: Optional[str] = None,
    ) -> ExactResult:
        return ExactResult(
            luts=luts,
            depth=depth,
            network=network,
            seconds=time.perf_counter() - start,
            source=source,
            cache_hit=cache_hit,
            key=key,
        )

    # Trivial shortcuts — also the cases where the LUT count is *not*
    # NPN-invariant (a wire is 0 LUTs, its negation 1), so they must
    # resolve before canonical keying.
    if n == 0:
        net = Network(net_name)
        for pi in names:
            net.add_input(pi)
        cname = net.fresh_name(f"{output_name}_const")
        net.add_constant(cname, 1 if reduced.mask else 0)
        net.add_output(cname, output_name)
        return _done(0, 0, net, "trivial")
    if n == 1 and reduced == TruthTable.projection(1, 0):
        net = Network(net_name)
        for pi in names:
            net.add_input(pi)
        net.add_output(names[kept[0]], output_name)
        return _done(0, 0, net, "trivial")

    # Canonical key + memo.
    if n <= 5:
        canonical, transform = npn_canonical(reduced)
    else:
        canonical, transform = reduced, _identity_transform(n)
    ckey = cache.key_for(n, k, cost, canonical.mask) if cache else None
    if cache is not None:
        payload = cache.get(ckey)
        if payload is not None:
            plan = _untransform_plan(
                _plan_from_payload(payload), transform, n
            )
            if _eval_plan(plan, n) != reduced.mask:
                raise RuntimeError(
                    "cached exact plan fails bit-parallel replay "
                    f"(key {ckey})"
                )
            witness = _witness_network(
                plan, kept, names, output_name, net_name
            )
            return _done(
                int(payload["luts"]),
                int(payload["depth"]),
                witness,
                "cache",
                cache_hit=True,
                key=ckey,
            )

    lb = _lower_bound(n, k)
    if upper_bound is not None and upper_bound <= lb:
        depth = (
            upper_depth
            if upper_depth is not None
            else (1 if upper_bound <= 1 else upper_bound)
        )
        return _done(
            upper_bound, depth, upper_witness, "upper_bound", key=ckey
        )

    deadline = _Deadline(
        DEFAULT_BUDGET_SECONDS if budget_seconds is None else budget_seconds,
        poll,
    )
    stop = (
        upper_bound
        if upper_bound is not None
        else (max_luts if max_luts is not None else DEFAULT_MAX_LUTS) + 1
    )
    cmask = canonical.mask
    plan: Optional[Plan] = None
    depth: Optional[int] = None
    found_n = 0
    for N in range(lb, stop):
        deadline.check()
        if N == 1:
            if n <= k:
                plan, depth, found_n = [(tuple(range(n)), cmask)], 1, 1
                break
            continue
        if N * k - (N - 1) < n:
            continue  # coverage impossible: N LUTs reach < n inputs
        if N == 2:
            plan = _search_two(cmask, n, k, deadline)
            if plan is not None:
                depth, found_n = 2, 2
                break
        else:
            plan = _search_general(cmask, n, k, N, deadline)
            if plan is not None:
                found_n = N
                if cost == "delay":
                    plan, depth = _search_general_delay(
                        cmask, n, k, N, deadline
                    )
                break
    if plan is None:
        if upper_bound is not None:
            depth = (
                upper_depth if upper_depth is not None else upper_bound
            )
            return _done(
                upper_bound, depth, upper_witness, "upper_bound",
                key=ckey,
            )
        raise ExactBudgetExceeded(
            f"proved no realization with < {stop} LUTs exists, but the "
            "LUT cap stopped the deepening; raise max_luts or pass an "
            "upper bound"
        )

    plan = _prune_plan(plan)
    if _eval_plan(plan, n) != cmask:
        raise RuntimeError(
            "exact search produced a plan that fails its own "
            "bit-parallel replay — solver bug"
        )
    if depth is None or cost == "area":
        depth = _plan_depth(plan, n)
    payload = _plan_payload(plan, n, k, cost, cmask, depth)
    if cache is not None:
        cache.put(ckey, payload)
    # Reconstruct the witness *through the payload* — the same path a
    # cache hit takes — so hit and miss are byte-identical.
    final_plan = _untransform_plan(
        _plan_from_payload(payload), transform, n
    )
    if _eval_plan(final_plan, n) != reduced.mask:
        raise RuntimeError(
            "NPN un-transform broke the plan — transform bug"
        )
    witness = _witness_network(
        final_plan, kept, names, output_name, net_name
    )
    return _done(found_n, depth, witness, "search", key=ckey)


def cone_spec(net: Network, output: str) -> Tuple[TruthTable, List[str]]:
    """Flatten one output of ``net`` to ``(truth table, support)``.

    Input ``j`` of the table is ``support[j]`` (the cone's PIs in
    declaration order), matching :func:`exact_map`'s ``input_names``.
    """
    from ..network.simulate import simulate_vectors

    driver = dict(net.outputs)[output]
    support = net.support_of(driver)
    if len(support) > EXACT_MAX_INPUTS:
        raise ValueError(
            f"output {output!r} depends on {len(support)} inputs; the "
            f"exact oracle accepts at most {EXACT_MAX_INPUTS}"
        )
    n = len(support)
    total = 1 << n
    patterns = {pi: [0] * total for pi in net.inputs}
    for j, pi in enumerate(support):
        patterns[pi] = [(v >> j) & 1 for v in range(total)]
    values = simulate_vectors(net, patterns, total)[output]
    mask = 0
    for v, bit in enumerate(values):
        if bit:
            mask |= 1 << v
    return TruthTable(n, mask), support

