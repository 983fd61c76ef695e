"""Sequential influential γ-truss community search (§5.2, Algorithms 6 & 7).

Cohesiveness here is the k-truss measure: a graph has cohesiveness γ when
every edge participates in at least γ−2 triangles. ``CountICC``
(:func:`count_icc`) mirrors Algorithm 7: reduce to the γ-truss (isolated
vertices drop out), then repeatedly pop the minimum-weight non-isolated
vertex (a keynode) and remove its incident edges with truss-maintaining
cascades (``RemoveEdge``). The community-aware sequence ``cvs`` is a
sequence of **edges**.

Enumeration uses the same band view as the vertex case: an edge removed
while popping keynode ``u'`` is present in the graph exactly while keynodes
of weight < ω(u') are popped, so the influential γ-truss community of
keynode ``u`` is the connected component of ``u`` over edges whose group
keynode weight is ≥ ω(u). EnumICC builds it with EnumIC's disjoint set
(``ref.enum_ic._CommunityDSU``) from the peel's edge groups alone.

Brute-force oracles recompute the truss of every weight-suffix subgraph.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .enum_ic import Community, _CommunityDSU
from .graph import RefGraph
from .local_search import LocalSearchResult, Stage, grow_top_k, growth, on_prefix

Edge = Tuple[int, int]  # canonical (min, max)


def _canon(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass
class TrussPeelResult:
    keys: List[int] = field(default_factory=list)
    edge_groups: List[List[Edge]] = field(default_factory=list)  # per keynode
    precore_removed: List[Edge] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.keys)


class _TrussPeeler:
    """Mutable γ-truss peel state: supports, cascaded edge removal.

    Its adjacency sets are built in linear time from the rows of ``g``'s
    §3.1 edge layout, and then mutated by the peel; a local search hands
    in its stage's ``G≥τ``, the layout's first rows.
    """

    def __init__(self, g: RefGraph, gamma: int):
        if gamma < 2:
            raise ValueError("truss gamma must be >= 2")
        self.gamma = gamma
        self.adj: Dict[int, Set[int]] = {v: set() for v in g.order}
        for u, v in zip(*(ends.tolist() for ends in g.index.edge_ends())):
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.alive_vertices = set(self.adj)
        self.support: Dict[Edge, int] = {}
        for u in self.adj:
            for v in self.adj[u]:
                if u < v:
                    small, large = (
                        (u, v) if len(self.adj[u]) <= len(self.adj[v]) else (v, u)
                    )
                    self.support[(u, v)] = sum(
                        1 for w in self.adj[small] if w in self.adj[large]
                    )

    def edge_degree(self, v: int) -> int:
        return len(self.adj[v])

    def _remove_edge(self, e: Edge, out: List[Edge]) -> None:
        """``RemoveEdge`` of Algorithm 7: delete e, cascade support drops."""
        stack = [e]
        dead = {e}
        while stack:
            a, b = stack.pop()
            # Common neighbors form the triangles this edge participated in.
            small, large = (a, b) if len(self.adj[a]) <= len(self.adj[b]) else (b, a)
            commons = [w for w in self.adj[small] if w in self.adj[large]]
            self.adj[a].discard(b)
            self.adj[b].discard(a)
            self.support.pop((min(a, b), max(a, b)), None)
            out.append((min(a, b), max(a, b)))
            for w in commons:
                for other in (_canon(a, w), _canon(b, w)):
                    if other in self.support:
                        self.support[other] -= 1
                        if self.support[other] < self.gamma - 2 and other not in dead:
                            dead.add(other)
                            stack.append(other)

    def reduce_truss(self) -> List[Edge]:
        removed: List[Edge] = []
        weak = [e for e, s in self.support.items() if s < self.gamma - 2]
        for e in weak:
            if e in self.support:  # may already be cascaded away
                self._remove_edge(e, removed)
        return removed

    def pop_group(self, u: int) -> List[Edge]:
        """Remove every edge incident to keynode ``u`` (Lines 7–8)."""
        out: List[Edge] = []
        for v in list(self.adj[u]):
            e = _canon(u, v)
            if e in self.support:
                self._remove_edge(e, out)
        return out


def count_icc(g: RefGraph, gamma: int, tau_stop: Optional[float] = None) -> TrussPeelResult:
    """Algorithm 7 (with the Algorithm-5-style early stop for progressiveness)."""
    peeler = _TrussPeeler(g, gamma)
    res = TrussPeelResult()
    res.precore_removed = peeler.reduce_truss()
    heap = [(g.weight[v], v) for v in peeler.alive_vertices]
    heapq.heapify(heap)
    while heap:
        _, u = heap[0]
        if peeler.edge_degree(u) == 0:
            heapq.heappop(heap)  # isolated vertices are not part of g
            continue
        if tau_stop is not None and g.weight[u] >= tau_stop:
            break
        heapq.heappop(heap)
        res.keys.append(u)
        res.edge_groups.append(peeler.pop_group(u))
    return res


def enum_icc(g: RefGraph, peel: TrussPeelResult, k: int) -> List[Community]:
    """Top-k influential γ-truss communities, highest influence first
    (nothing for ``k ≤ 0``).

    The last ``k`` edge groups are activated in decreasing keynode weight in
    a fresh :class:`~repro.ref.enum_ic._CommunityDSU`: each endpoint is
    added once, the two ends of every edge are unioned, and keynode ``u``'s
    community is ``u``'s set once its group is active.
    """
    dsu = _CommunityDSU()
    top = slice(max(len(peel.keys) - k, 0), None)
    out: List[Community] = []
    for u, group in zip(reversed(peel.keys[top]), reversed(peel.edge_groups[top])):
        for a, b in group:
            for v in (a, b):
                if v not in dsu.parent:
                    dsu.add(v)
            dsu.union(a, b)
        out.append((g.weight[u], dsu.community(u)))
    return out


def truss_stage(sub: RefGraph, tau: float, gamma: int):
    """LocalSearch-Truss's stage: CountICC on ``sub`` = ``G≥τ``, then EnumICC."""
    peel = count_icc(sub, gamma)
    return Stage(tau, sub.size, peel.count), lambda k: enum_icc(sub, peel, k)


def local_search_truss(
    g: RefGraph, k: int, gamma: int, delta: float = 2.0
) -> LocalSearchResult:
    """LocalSearch-Truss (Algorithm 6 with the truss Count/Enum procedures)."""
    stage = on_prefix(g, partial(truss_stage, gamma=gamma))
    return grow_top_k(g, k, k + gamma, growth(delta), stage)


def global_search_truss(g: RefGraph, k: int, gamma: int) -> List[Community]:
    """GlobalSearch-Truss baseline: CountICC on the whole graph, then enum."""
    return enum_icc(g, count_icc(g, gamma), k)


# --------------------------------------------------------------------------
# Brute-force oracles
# --------------------------------------------------------------------------

def truss_edges_brute(
    weights: Dict[int, float], edges: List[Edge], gamma: int
) -> Set[Edge]:
    """Edges of the γ-truss by naive repeated support scans (O(iters·m·d))."""
    alive = {_canon(u, v) for u, v in edges}
    changed = True
    while changed:
        changed = False
        adj: Dict[int, Set[int]] = {v: set() for v in weights}
        for u, v in alive:
            adj[u].add(v)
            adj[v].add(u)
        for u, v in list(alive):
            if len(adj[u] & adj[v]) < gamma - 2:
                alive.discard((u, v))
                changed = True
    return alive


def truss_keynodes_brute(g: RefGraph, gamma: int) -> List[int]:
    """u is a truss keynode iff u is non-isolated in γ-truss(G≥ω(u))."""
    out = []
    for u in g.weight:
        tau = g.weight[u]
        keep = {v for v in g.weight if g.weight[v] >= tau}
        sub = [(a, b) for a, b in g.edge_list() if a in keep and b in keep]
        alive = truss_edges_brute({v: g.weight[v] for v in keep}, sub, gamma)
        if any(u in e for e in alive):
            out.append(u)
    return sorted(out, key=g.weight.get)


def truss_community_brute(g: RefGraph, gamma: int, u: int) -> FrozenSet[int]:
    """Component of u over the γ-truss edges of G≥ω(u)."""
    tau = g.weight[u]
    keep = {v for v in g.weight if g.weight[v] >= tau}
    sub = [(a, b) for a, b in g.edge_list() if a in keep and b in keep]
    alive = truss_edges_brute({v: g.weight[v] for v in keep}, sub, gamma)
    adj: Dict[int, Set[int]] = {}
    for a, b in alive:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    comp = {u}
    stack = [u]
    while stack:
        v = stack.pop()
        for w in adj.get(v, ()):
            if w not in comp:
                comp.add(w)
                stack.append(w)
    return frozenset(comp)
