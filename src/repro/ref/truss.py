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
keynode weight is ≥ ω(u).

Brute-force oracles recompute the truss of every weight-suffix subgraph.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .enum_ic import Community
from .graph import RefGraph
from .local_search import LocalSearchResult, Stage, grow_top_k, growth

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

    ``prefix=r`` peels the top-r induced subgraph, materialized in linear
    time from the N≥ adjacency split (§3.1 ★★), like the core peeler.
    """

    def __init__(self, g: RefGraph, gamma: int, prefix: Optional[int] = None):
        if gamma < 2:
            raise ValueError("truss gamma must be >= 2")
        self.g = g
        self.gamma = gamma
        if prefix is None:
            self.adj: Dict[int, Set[int]] = g.copy_adj()
        else:
            keep = g.order[: min(prefix, g.n)]
            self.adj = {v: set() for v in keep}
            for u in keep:
                for v in g.n_ge(u):
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


def count_icc(
    g: RefGraph,
    gamma: int,
    tau_stop: Optional[float] = None,
    prefix: Optional[int] = None,
) -> TrussPeelResult:
    """Algorithm 7 (with the Algorithm-5-style early stop for progressiveness)."""
    peeler = _TrussPeeler(g, gamma, prefix=prefix)
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
    """Top-k influential γ-truss communities, highest influence first."""
    group_w: Dict[Edge, float] = {}
    for u, grp in zip(peel.keys, peel.edge_groups):
        for e in grp:
            group_w[e] = g.weight[u]
    out: List[Community] = []
    for u in reversed(peel.keys[-k:]):
        tau = g.weight[u]
        comp = {u}
        stack = [u]
        while stack:
            v = stack.pop()
            for w in g.adj[v]:
                if w not in comp and group_w.get(_canon(v, w), -math.inf) >= tau:
                    comp.add(w)
                    stack.append(w)
        out.append((tau, frozenset(comp)))
    return out


def local_search_truss(
    g: RefGraph, k: int, gamma: int, delta: float = 2.0
) -> LocalSearchResult:
    """LocalSearch-Truss (Algorithm 6 with the truss Count/Enum procedures)."""

    def stage(tau: float):
        r = g.r_for_tau(tau)
        peel = count_icc(g, gamma, prefix=r)
        return Stage(tau, g.prefix_size(r), peel.count), lambda k: enum_icc(g, peel, k)

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
