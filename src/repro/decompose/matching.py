"""Matching primitives for the chart encoder (paper reference [12]).

Two matching problems appear in the encoding procedure of Figure 3:

* Step 5 needs a **maximum-weight b-matching** on the bipartite
  column-graph Gc(Vc, Uc, Ec): every partition vertex in Vc may take at
  most one edge, every Psc vertex in Uc at most ``#R`` edges.
* Step 7 needs a **maximum matching** on the benefit-weighted row-graph.

Both are solved exactly by Edmonds' primal-dual blossom algorithm for
maximum-weight matching in general graphs, in the O(n^3) formulation of
Z. Galil, "Efficient Algorithms for Finding Maximum Matching in Graphs",
ACM Computing Surveys 18(1), 1986 (the b-matching by cloning each
capacity-``b`` vertex into ``b`` unit-capacity copies).  The solver
below is a port of ``max_weight_matching`` from NetworkX
(``networkx/algorithms/matching.py``, Copyright (c) 2004-2025 NetworkX
Developers, 3-clause BSD license).  It runs on :class:`_Graph`, which
numbers vertices and orders adjacency the way NetworkX's ``Graph``
iterates them, so every tie between equal-weight matchings breaks the
same way as the NetworkX original.  A greedy 1/2-approximation is kept
as a cross-check in tests.
"""

# The blossom solver (_Blossom, _blossom_mate) is derived from NetworkX:
#
#   Copyright (c) 2004-2025, NetworkX Developers
#   Aric Hagberg <hagberg@lanl.gov>
#   Dan Schult <dschult@colgate.edu>
#   Pieter Swart <swart@lanl.gov>
#   All rights reserved.
#
#   Redistribution and use in source and binary forms, with or without
#   modification, are permitted provided that the following conditions are
#   met:
#
#     * Redistributions of source code must retain the above copyright
#       notice, this list of conditions and the following disclaimer.
#
#     * Redistributions in binary form must reproduce the above
#       copyright notice, this list of conditions and the following
#       disclaimer in the documentation and/or other materials provided
#       with the distribution.
#
#     * Neither the name of the NetworkX Developers nor the names of its
#       contributors may be used to endorse or promote products derived
#       from this software without specific prior written permission.
#
#   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
#   "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
#   LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
#   A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
#   OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
#   SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
#   LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
#   DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
#   THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
#   (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
#   OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Sequence, Set, Tuple

__all__ = [
    "WeightedEdge",
    "max_weight_matching",
    "max_weight_b_matching",
    "maximum_matching",
    "greedy_matching",
]

Vertex = Hashable


@dataclass(frozen=True)
class WeightedEdge:
    """An undirected weighted edge."""

    u: Vertex
    v: Vertex
    weight: float


class _Graph:
    """Undirected graph on vertices numbered ``0..n-1`` in first-seen order.

    ``adj[i]`` maps each neighbour of vertex ``i`` to the edge weight, in
    the order the edges were added.  Self-loops register their vertex but
    add no edge (a matching never takes one).
    """

    __slots__ = ("vertices", "index", "adj")

    def __init__(self) -> None:
        self.vertices: List[Vertex] = []
        self.index: Dict[Vertex, int] = {}
        self.adj: List[Dict[int, float]] = []

    def vertex(self, v: Vertex) -> int:
        i = self.index.get(v)
        if i is None:
            i = self.index[v] = len(self.vertices)
            self.vertices.append(v)
            self.adj.append({})
        return i

    def add_edge(self, u: Vertex, v: Vertex, weight: float) -> bool:
        """Add edge ``u``-``v`` unless an edge at least as heavy is there.

        A heavier parallel edge replaces the weight in place.  Returns
        whether the edge was stored.
        """
        i, j = self.vertex(u), self.vertex(v)
        if i == j:
            return False
        old = self.adj[i].get(j)
        if old is not None and old >= weight:
            return False
        self.adj[i][j] = self.adj[j][i] = weight
        return True

    def matched_pairs(self, maxcardinality: bool) -> List[Tuple[int, int]]:
        """Solve; each matched pair ``(i, j)`` once, with ``i < j``."""
        mate = _blossom_mate(self.adj, maxcardinality)
        return [(i, j) for i, j in mate.items() if i < j]


class _Blossom:
    """A non-trivial blossom.

    ``childs`` lists the sub-blossoms, starting with the base and going
    round the blossom; ``edges[i] = (v, w)`` connects a vertex ``v`` of
    ``childs[i]`` to a vertex ``w`` of ``childs[i + 1]`` (wrapping).  For
    a top-level S-blossom, ``mybestedges`` lists the least-slack edges to
    neighbouring S-blossoms, or is ``None`` when not yet computed.
    """

    __slots__ = ("childs", "edges", "mybestedges")

    def leaves(self):
        stack = [*self.childs]
        while stack:
            t = stack.pop()
            if isinstance(t, _Blossom):
                stack.extend(t.childs)
            else:
                yield t


def _blossom_mate(
    adj: List[Dict[int, float]], maxcardinality: bool
) -> Dict[int, int]:
    """Maximum-weight matching of the graph ``adj``; returns ``mate``.

    With ``maxcardinality`` the result is a maximum-weight matching among
    the maximum-cardinality ones.  Integer weights keep every dual
    variable integral, so the result is exact; float weights may come
    out slightly suboptimal through rounding.  Terms follow Galil's
    paper: S- and T-labels, blossoms, dual variables, slack and the four
    delta cases.
    """
    gnodes = range(len(adj))
    if not gnodes:
        return {}
    weights = [w for nbrs in adj for w in nbrs.values()]
    maxweight = max([0, *weights])
    allinteger = all(type(w) is int for w in weights)

    # mate[v]: the partner of a matched vertex v.
    mate: Dict[int, int] = {}
    # label[b] of a top-level blossom b: None free, 1 S, 2 T (5 marks a
    # breadcrumb in scan_blossom).  label[v] of a vertex inside a
    # T-blossom is 2 iff v is reachable from an S-vertex outside it.
    label: dict = {}
    # labeledge[b] = (v, w): the edge through which b got its label, w in
    # b; None when b's base is single.
    labeledge: dict = {}
    # inblossom[v]: the top-level blossom containing vertex v (v itself
    # when v is top-level).
    inblossom: dict = dict(zip(gnodes, gnodes))
    # blossomparent[b]: the immediate parent of sub-blossom b, or None.
    blossomparent: dict = dict.fromkeys(gnodes)
    # blossombase[b]: the base vertex of (sub-)blossom b.
    blossombase: dict = dict(zip(gnodes, gnodes))
    # bestedge[w] of a free vertex: the least-slack edge from an
    # S-vertex; bestedge[b] of a top-level S-blossom: the least-slack
    # edge to a different S-blossom.  None if there is none.
    bestedge: dict = {}
    # dualvar[v] = 2 * u(v); starts at maxweight so integer weights keep
    # integer duals.
    dualvar: dict = dict.fromkeys(gnodes, maxweight)
    # blossomdual[b] = z(b) of a non-trivial blossom b.
    blossomdual: dict = {}
    # Edges (both orientations) known to have zero slack this stage.
    allowedge: dict = {}
    # Newly discovered S-vertices.
    queue: List[int] = []

    def slack(v, w):
        # 2 * slack of edge (v, w); not valid inside blossoms.
        return dualvar[v] + dualvar[w] - 2 * adj[v][w]

    def assign_label(w, t, v):
        # Label the top-level blossom containing w with t, reached from v.
        b = inblossom[w]
        label[w] = label[b] = t
        if v is not None:
            labeledge[w] = labeledge[b] = (v, w)
        else:
            labeledge[w] = labeledge[b] = None
        bestedge[w] = bestedge[b] = None
        if t == 1:
            if isinstance(b, _Blossom):
                queue.extend(b.leaves())
            else:
                queue.append(b)
        elif t == 2:
            # A T-blossom's base is its only vertex with an external mate;
            # that mate becomes an S-vertex.
            base = blossombase[b]
            assign_label(mate[base], 1, base)

    def scan_blossom(v, w):
        # Trace back from v and w, alternating, leaving breadcrumbs.
        # Returns the base of a new blossom, or None for an augmenting
        # path.
        path = []
        base = None
        while v is not None:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                # b's base is single; this path ends here.
                v = None
            else:
                v = labeledge[b][0]
                b = inblossom[v]
                # b is a T-blossom; one more step back.
                v = labeledge[b][0]
            if w is not None:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base, v, w):
        # New S-blossom with the given base through S-vertices v and w;
        # its dual is zero and its T-vertices turn S.
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = _Blossom()
        blossombase[b] = base
        blossomparent[b] = None
        blossomparent[bb] = b
        b.childs = path = []
        b.edges = edgs = [(v, w)]
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            v = labeledge[bv][0]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            w = labeledge[bw][0]
            bw = inblossom[w]
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        for v in b.leaves():
            if label[inblossom[v]] == 2:
                queue.append(v)
            inblossom[v] = b
        # Least-slack edges from b to each neighbouring S-blossom.
        bestedgeto = {}
        for bv in path:
            if isinstance(bv, _Blossom):
                if bv.mybestedges is not None:
                    nblist = bv.mybestedges
                    bv.mybestedges = None
                else:
                    nblist = [(v, w) for v in bv.leaves() for w in adj[v]]
            else:
                nblist = [(bv, w) for w in adj[bv]]
            for k in nblist:
                i, j = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (
                    bj != b
                    and label.get(bj) == 1
                    and (
                        bj not in bestedgeto
                        or slack(i, j) < slack(*bestedgeto[bj])
                    )
                ):
                    bestedgeto[bj] = k
            bestedge[bv] = None
        b.mybestedges = list(bestedgeto.values())
        mybestedge = None
        for k in b.mybestedges:
            kslack = slack(*k)
            if mybestedge is None or kslack < mybestslack:
                mybestedge = k
                mybestslack = kslack
        bestedge[b] = mybestedge

    def expand_blossom(b, endstage):
        # Turn the sub-blossoms of top-level blossom b into top-level
        # blossoms.  The recursion runs on an explicit stack of
        # generators, each yielding the sub-blossoms to expand next.

        def expand(b, endstage):
            for s in b.childs:
                blossomparent[s] = None
                if isinstance(s, _Blossom):
                    if endstage and blossomdual[s] == 0:
                        yield s
                    else:
                        for v in s.leaves():
                            inblossom[v] = s
                else:
                    inblossom[s] = s
            if (not endstage) and label.get(b) == 2:
                # Relabel the sub-blossoms of an expanding T-blossom,
                # from the one it was entered through round to the base.
                entrychild = inblossom[labeledge[b][1]]
                j = b.childs.index(entrychild)
                if j & 1:
                    j -= len(b.childs)
                    jstep = 1
                else:
                    jstep = -1
                v, w = labeledge[b]
                while j != 0:
                    if jstep == 1:
                        p, q = b.edges[j]
                    else:
                        q, p = b.edges[j - 1]
                    label[w] = None
                    label[q] = None
                    assign_label(w, 2, v)
                    allowedge[(p, q)] = allowedge[(q, p)] = True
                    j += jstep
                    if jstep == 1:
                        v, w = b.edges[j]
                    else:
                        w, v = b.edges[j - 1]
                    allowedge[(v, w)] = allowedge[(w, v)] = True
                    j += jstep
                # The base sub-blossom becomes T without labelling its mate.
                bw = b.childs[j]
                label[w] = label[bw] = 2
                labeledge[w] = labeledge[bw] = (v, w)
                bestedge[bw] = None
                j += jstep
                while b.childs[j] != entrychild:
                    # A sub-blossom reachable from a neighbouring S-vertex
                    # outside the expanding blossom becomes T.
                    bv = b.childs[j]
                    if label.get(bv) == 1:
                        j += jstep
                        continue
                    if isinstance(bv, _Blossom):
                        for v in bv.leaves():
                            if label.get(v):
                                break
                    else:
                        v = bv
                    if label.get(v):
                        label[v] = None
                        label[mate[blossombase[bv]]] = None
                        assign_label(v, 2, labeledge[v][0])
                    j += jstep
            label.pop(b, None)
            labeledge.pop(b, None)
            bestedge.pop(b, None)
            del blossomparent[b]
            del blossombase[b]
            del blossomdual[b]

        stack = [expand(b, endstage)]
        while stack:
            for s in stack[-1]:
                stack.append(expand(s, endstage))
                break
            else:
                stack.pop()

    def augment_blossom(b, v):
        # Swap matched and unmatched edges along the alternating path
        # through blossom b from vertex v to the base; v becomes the base.

        def augment(b, v):
            t = v
            while blossomparent[t] != b:
                t = blossomparent[t]
            if isinstance(t, _Blossom):
                yield (t, v)
            i = j = b.childs.index(t)
            if i & 1:
                j -= len(b.childs)
                jstep = 1
            else:
                jstep = -1
            while j != 0:
                j += jstep
                t = b.childs[j]
                if jstep == 1:
                    w, x = b.edges[j]
                else:
                    x, w = b.edges[j - 1]
                if isinstance(t, _Blossom):
                    yield (t, w)
                j += jstep
                t = b.childs[j]
                if isinstance(t, _Blossom):
                    yield (t, x)
                mate[w] = x
                mate[x] = w
            b.childs = b.childs[i:] + b.childs[:i]
            b.edges = b.edges[i:] + b.edges[:i]
            blossombase[b] = blossombase[b.childs[0]]

        stack = [augment(b, v)]
        while stack:
            for args in stack[-1]:
                stack.append(augment(*args))
                break
            else:
                stack.pop()

    def augment_matching(v, w):
        # Augment along the path through S-vertices v and w that joins
        # two single vertices.
        for s, j in ((v, w), (w, v)):
            while True:
                bs = inblossom[s]
                if isinstance(bs, _Blossom):
                    augment_blossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                s, j = labeledge[bt]
                if isinstance(bt, _Blossom):
                    augment_blossom(bt, j)
                mate[j] = s

    while True:
        # A stage: find one augmenting path and augment.
        label.clear()
        labeledge.clear()
        bestedge.clear()
        for b in blossomdual:
            b.mybestedges = None
        allowedge.clear()
        queue[:] = []
        for v in gnodes:
            if (v not in mate) and label.get(inblossom[v]) is None:
                assign_label(v, 1, None)

        augmented = False
        while True:
            # A substage: label until an augmenting path turns up or no
            # label can be added, then move the duals by delta.
            while queue and not augmented:
                v = queue.pop()
                for w in adj[v]:
                    bv = inblossom[v]
                    bw = inblossom[w]
                    if bv == bw:
                        continue
                    if (v, w) not in allowedge:
                        kslack = slack(v, w)
                        if kslack <= 0:
                            allowedge[(v, w)] = allowedge[(w, v)] = True
                    if (v, w) in allowedge:
                        if label.get(bw) is None:
                            # w is free: label it T and its mate S.
                            assign_label(w, 2, v)
                        elif label.get(bw) == 1:
                            # Two S-blossoms: a new blossom or an
                            # augmenting path.
                            base = scan_blossom(v, w)
                            if base is not None:
                                add_blossom(base, v, w)
                            else:
                                augment_matching(v, w)
                                augmented = True
                                break
                        elif label.get(w) is None:
                            # w is inside a T-blossom and now reached.
                            label[w] = 2
                            labeledge[w] = (v, w)
                    elif label.get(bw) == 1:
                        if bestedge.get(bv) is None or kslack < slack(
                            *bestedge[bv]
                        ):
                            bestedge[bv] = (v, w)
                    elif label.get(w) is None:
                        if bestedge.get(w) is None or kslack < slack(
                            *bestedge[w]
                        ):
                            bestedge[w] = (v, w)

            if augmented:
                break

            # delta (pre-multiplied by two, like the duals and slacks).
            deltatype = -1
            delta = deltaedge = deltablossom = None
            # delta1: the minimum vertex dual.
            if not maxcardinality:
                deltatype = 1
                delta = min(dualvar.values())
            # delta2: the least slack of an edge from an S-vertex to a
            # free vertex.
            for v in gnodes:
                if (
                    label.get(inblossom[v]) is None
                    and bestedge.get(v) is not None
                ):
                    d = slack(*bestedge[v])
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = bestedge[v]
            # delta3: half the least slack of an edge between S-blossoms.
            for b in blossomparent:
                if (
                    blossomparent[b] is None
                    and label.get(b) == 1
                    and bestedge.get(b) is not None
                ):
                    kslack = slack(*bestedge[b])
                    d = kslack // 2 if allinteger else kslack / 2.0
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = bestedge[b]
            # delta4: the minimum z of a T-blossom.
            for b in blossomdual:
                if (
                    blossomparent[b] is None
                    and label.get(b) == 2
                    and (deltatype == -1 or blossomdual[b] < delta)
                ):
                    delta = blossomdual[b]
                    deltatype = 4
                    deltablossom = b
            if deltatype == -1:
                # Maximum-cardinality optimum reached; a last delta1 step
                # leaves verifiable duals.
                deltatype = 1
                delta = max(0, min(dualvar.values()))

            for v in gnodes:
                if label.get(inblossom[v]) == 1:
                    dualvar[v] -= delta
                elif label.get(inblossom[v]) == 2:
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] is None:
                    if label.get(b) == 1:
                        blossomdual[b] += delta
                    elif label.get(b) == 2:
                        blossomdual[b] -= delta

            if deltatype == 1:
                break
            elif deltatype in (2, 3):
                v, w = deltaedge
                allowedge[(v, w)] = allowedge[(w, v)] = True
                queue.append(v)
            else:
                expand_blossom(deltablossom, False)

        if not augmented:
            break
        # End of stage: expand the S-blossoms whose dual reached zero.
        for b in list(blossomdual):
            if b not in blossomdual:
                continue
            if (
                blossomparent[b] is None
                and label.get(b) == 1
                and blossomdual[b] == 0
            ):
                expand_blossom(b, True)

    return mate


def max_weight_matching(
    edges: Sequence[WeightedEdge], maxcardinality: bool = False
) -> List[WeightedEdge]:
    """Exact maximum-weight matching; returns the matched edges.

    Of parallel edges the first heaviest counts.  The result is ordered
    by the ``repr`` of its endpoint pairs, so it does not depend on the
    interpreter's hash seed.
    """
    graph = _Graph()
    chosen: Dict[Tuple[int, int], WeightedEdge] = {}
    for e in edges:
        if graph.add_edge(e.u, e.v, e.weight):
            i, j = graph.index[e.u], graph.index[e.v]
            chosen[min(i, j), max(i, j)] = e
    matched = [chosen[pair] for pair in graph.matched_pairs(maxcardinality)]
    return sorted(
        matched, key=lambda e: repr(tuple(sorted((e.u, e.v), key=repr)))
    )


def maximum_matching(
    vertices: Iterable[Vertex], edges: Iterable[Tuple[Vertex, Vertex]]
) -> List[Tuple[Vertex, Vertex]]:
    """Maximum-cardinality matching of an unweighted graph.

    ``vertices`` fixes the vertex order (and so the choice among equal
    matchings); edge endpoints missing from it are appended.
    """
    graph = _Graph()
    for v in vertices:
        graph.vertex(v)
    for u, v in edges:
        graph.add_edge(u, v, 1)
    names = graph.vertices
    return [
        (names[i], names[j]) for i, j in graph.matched_pairs(True)
    ]


def greedy_matching(edges: Sequence[WeightedEdge]) -> List[WeightedEdge]:
    """Greedy 1/2-approximate matching (deterministic tie-break)."""
    chosen: List[WeightedEdge] = []
    used: Set[Vertex] = set()
    for e in sorted(edges, key=lambda e: (-e.weight, repr(e.u), repr(e.v))):
        if e.u in used or e.v in used or e.u == e.v:
            continue
        chosen.append(e)
        used.add(e.u)
        used.add(e.v)
    return chosen


def max_weight_b_matching(
    edges: Sequence[WeightedEdge],
    capacity: Dict[Vertex, int],
) -> List[WeightedEdge]:
    """Maximum-weight b-matching: vertex ``v`` takes at most ``capacity[v]``
    edges (default 1 when absent).

    Solved by cloning each vertex of capacity ``b`` into ``b`` unit
    copies, taking an exact max-weight matching over the cloned graph,
    and folding the copies back.  Each *original* edge appears at most
    once in the result: when both endpoints have capacity >= 2 the cloned
    graph contains vertex-disjoint copies of the same edge (e.g. a single
    u-v edge with capacities 2/2 yields the clones (u0,v0) and (u1,v1),
    both of which a matching may take), so folding back must deduplicate
    or the edge's weight is double-counted and b-matching edge semantics
    (each edge used at most once) are violated.  Deduplication keeps the
    heaviest fold-back per original endpoint pair; the result is exact
    whenever one side of every edge has unit capacity (the chart
    encoder's column graph: classes have capacity 1).
    """
    cloned: List[WeightedEdge] = []
    for e in edges:
        cu = capacity.get(e.u, 1)
        cv = capacity.get(e.v, 1)
        for iu in range(cu):
            for iv in range(cv):
                cloned.append(
                    WeightedEdge(("clone", e.u, iu), ("clone", e.v, iv), e.weight)
                )
    matched = max_weight_matching(cloned)
    best: Dict[Tuple[Vertex, Vertex], WeightedEdge] = {}
    for e in matched:
        (_, u, _iu) = e.u
        (_, v, _iv) = e.v
        key = tuple(sorted((u, v), key=repr))
        kept = best.get(key)
        if kept is None or kept.weight < e.weight:
            best[key] = WeightedEdge(u, v, e.weight)
    return [best[key] for key in sorted(best, key=repr)]
