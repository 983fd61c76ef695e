"""Exact sequential EnumIC (Algorithm 3) and the community builder every
engine shares.

:class:`_CommunityDSU` is EnumIC-P's disjoint set (§4), and every
community in the repository is built with it: vertices are *activated* in
decreasing ``T`` — a cvs band at a time, keynode first, in decreasing
keynode weight — and each unions with its already-active neighbours. When
keynode ``u``'s band is active, ``IC(u)`` is the set of ``u``: the vertices
with ``T ≥ ω(u)`` reachable from ``u``, exactly γ-core(G≥ω(u))'s
component. Member lists merge small-to-large, so building every community
of a run costs O(m + n log n). :func:`enum_ic` (EnumIC) activates a peel's
last k bands; LocalSearch-P (``ref.progressive``) keeps one set across
stages; OnlineAll-SE (``repro.semi_external``) and the Spark survival route
(``repro.core.enum_ic``) feed it from a survival labelling; EnumICC
(``ref.truss``) activates a truss peel's edge groups.

:func:`ic_brute` is the independent oracle: the community of keynode ``u`` is
the connected component containing ``u`` of the *suffix* of ``cvs`` starting
at ``u`` (equivalently, of γ-core(G≥ω(u))).
"""
from __future__ import annotations

from dataclasses import replace
from typing import Dict, FrozenSet, Iterator, List, Tuple

from .count_ic import PeelResult, count_ic, gamma_core_set
from .graph import RefGraph

Community = Tuple[float, FrozenSet[int]]  # (influence value, vertex set)


class _CommunityDSU:
    """Union-find over activated vertex ids with small-to-large member-list
    merging."""

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

    def community(self, u: int) -> FrozenSet[int]:
        """The active vertices connected to ``u``."""
        return frozenset(self.members[self.find(u)])

    def stream(self, g: RefGraph, peel: PeelResult) -> Iterator[Community]:
        """Activate a peel's cvs bands (keynode first) in decreasing keynode
        weight, the reverse of the order they arrive in, each unioned with
        its already-active neighbors (read from the peel's CSR); yield each
        keynode's community once its band is active."""
        indptr, nbrs = peel.csr
        ids, parent, union = peel.ids, self.parent, self.union
        weights = g.index.weights  # by rank, as the peel's bands are
        for band in reversed(peel.bands):
            for v in band:
                a = ids[v]
                self.add(a)
                for x in nbrs[indptr[v] : indptr[v + 1]]:
                    if ids[x] in parent:  # already activated ⇒ band ≥ ω(u)
                        union(a, ids[x])
            yield float(weights[band[0]]), self.community(ids[band[0]])


def enum_ic(g: RefGraph, peel: PeelResult, k: int) -> List[Community]:
    """Top-k communities from ``keys``/``cvs``, highest influence first.

    Algorithm 3 on the shared builder: a fresh :class:`_CommunityDSU`
    activates the peel's last ``k`` bands, which hold every vertex with
    ``T`` ≥ the k-th keynode's weight. ``k ≤ 0`` asks for nothing;
    ``None`` for all.
    """
    if k is not None:
        peel = replace(peel, bands=peel.bands[max(len(peel.bands) - k, 0) :])
    return list(_CommunityDSU().stream(g, peel))


def top_k_via_count(g: RefGraph, k: int, gamma: int) -> List[Community]:
    """CountIC + EnumIC on ``g`` — top-k communities, highest influence first."""
    return enum_ic(g, count_ic(g, gamma), k)


# --------------------------------------------------------------------------
# Brute-force oracle
# --------------------------------------------------------------------------

def ic_brute(g: RefGraph, gamma: int, u: int) -> FrozenSet[int]:
    """Community of keynode ``u``: BFS component of u in γ-core(G≥ω(u))."""
    tau = g.weight[u]
    keep = {v for v in g.weight if g.weight[v] >= tau}
    edges = [(a, b) for a, b in g.edge_list() if a in keep and b in keep]
    core = gamma_core_set({v: g.weight[v] for v in keep}, edges, gamma)
    if u not in core:
        raise ValueError(f"{u} is not a keynode at gamma={gamma}")
    comp = {u}
    frontier = [u]
    while frontier:
        v = frontier.pop()
        for w in g.adj[v]:
            if w in core and w not in comp:
                comp.add(w)
                frontier.append(w)
    return frozenset(comp)


def all_communities_brute(g: RefGraph, gamma: int) -> List[Community]:
    """Every influential γ-community, highest influence first (oracle)."""
    from .count_ic import keynodes_brute

    return [
        (g.weight[u], ic_brute(g, gamma, u))
        for u in reversed(keynodes_brute(g, gamma))
    ]
