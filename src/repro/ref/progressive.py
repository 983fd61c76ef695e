"""Exact sequential LocalSearch-P (Algorithms 4 & 5).

A Python generator that yields influential γ-communities in **decreasing
influence value order**, without requiring ``k``. Per stage i it:

1. peels the doubled weight-prefix subgraph with ConstructCVS (Algorithm 5)
   — CountIC stopping once the next minimum-weight vertex has weight ≥
   τ_{i-1}, so only the *new* prefix of ``keys``/``cvs`` is produced (the §4
   suffix property: keys/cvs of ``G≥τ_i`` is a suffix of ``G≥τ_{i+1}``'s);
2. yields the new keynodes' communities in decreasing weight order.

Community construction is EnumIC-P's shared disjoint-set (§4): cvs bands
are *activated* in decreasing keynode-weight order — globally consistent
across stages because every stage's new bands lie strictly below the
previous stage's — and each activated vertex unions with its already-active
neighbors. When keynode ``u``'s band finishes activating, ``IC(u)`` is the
disjoint-set component of ``u`` (vertices with band weight ≥ ω(u) reachable
from u — exactly γ-core(G≥ω(u))'s component). Member lists merge
small-to-large, so construction over a whole run costs O(m + n log n);
``materialize=False`` yields ``(influence, size, member-view)`` without the
per-community copy (the paper's "link, don't copy" output mode).
"""
from __future__ import annotations

import math
from typing import Dict, Iterator, List, Set

from .count_ic import count_ic
from .graph import RefGraph
from .local_search import initial_prefix


class _CommunityDSU:
    """Union-find with small-to-large member-list merging."""

    def __init__(self):
        self.parent: Dict[int, int] = {}
        self.members: Dict[int, List[int]] = {}

    def add(self, v: int) -> None:
        self.parent[v] = v
        self.members[v] = [v]

    def find(self, v: int) -> int:
        r = v
        while self.parent[r] != r:
            r = self.parent[r]
        while self.parent[v] != r:
            self.parent[v], v = r, self.parent[v]
        return r

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if len(self.members[ra]) < len(self.members[rb]):
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.members[ra].extend(self.members.pop(rb))

    def activate(self, adj: Dict[int, Set[int]], band: List[int]) -> int:
        """Activate one cvs band (keynode first) and union it with its
        already-active neighbors; returns the root of the keynode's set."""
        for v in band:
            self.add(v)
        for v in band:
            for x in adj[v]:
                if x in self.parent:  # already activated ⇒ band ≥ ω(u)
                    self.union(v, x)
        return self.find(band[0])


def local_search_progressive(
    g: RefGraph, gamma: int, delta: float = 2.0, materialize: bool = True
) -> Iterator:
    """Algorithm 4: yield communities, highest influence first.

    Yields ``(influence, frozenset)`` when ``materialize`` (default), else
    ``(influence, size, members-list-view)`` — the view aliases internal
    state and is only valid until the next iteration step.
    """
    if g.n == 0:
        return
    r = initial_prefix(g, 1, gamma)
    tau_prev = float("inf")  # τ₀ — above the maximum vertex weight
    dsu = _CommunityDSU()
    while True:
        peel = count_ic(g, gamma, tau_stop=tau_prev, prefix=r)
        # Bands arrive keynode-ascending; activate (and yield) descending.
        for grp in reversed(peel.groups()):
            u = grp[0]
            root = dsu.activate(g.adj, grp)
            if materialize:
                yield g.weight[u], frozenset(dsu.members[root])
            else:
                yield g.weight[u], len(dsu.members[root]), dsu.members[root]
        if r == g.n:
            return
        tau_prev = g.weight[g.order[r - 1]]
        r = max(g.r_for_size(math.ceil(delta * g.prefix_size(r))), r + 1)
