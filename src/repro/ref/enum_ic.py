"""Exact sequential EnumIC (Algorithm 3).

Given the ``keys``/``cvs`` sequences produced by CountIC, extracts the top-k
influential γ-communities with a disjoint-set structure in O(size(g)) time
(plus output materialization). The recursive structure of Lemma 3.6 —
``IC(u) = gp(u) ∪ ⋃_{child} IC(child)`` — is kept as explicit child links
(``Ch``), and vertex sets are only materialized on demand.

:func:`ic_brute` is the independent oracle: the community of keynode ``u`` is
the connected component containing ``u`` of the *suffix* of ``cvs`` starting
at ``u`` (equivalently, of γ-core(G≥ω(u))).
"""
from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from .count_ic import PeelResult, count_ic, gamma_core_set
from .graph import RefGraph

Community = Tuple[float, FrozenSet[int]]  # (influence value, vertex set)


class _DSU:
    """Union-find with path compression + union by attaching to the new key.

    ``Union(w, u)`` in Algorithm 3 merges the community containing ``w`` into
    the (smaller-weight) keynode ``u`` currently being processed, so the
    representative must become ``u``'s set — we attach the root of ``w`` under
    the root of ``u`` (no union-by-rank, the direction is semantic).
    """

    def __init__(self):
        self.parent: Dict[int, int] = {}

    def add(self, v: int) -> None:
        self.parent.setdefault(v, v)

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def union_into(self, w: int, u: int) -> None:
        rw, ru = self.find(w), self.find(u)
        if rw != ru:
            self.parent[rw] = ru


def enum_ic(g: RefGraph, peel: PeelResult, k: int) -> List[Community]:
    """Top-k communities from ``keys``/``cvs``, highest influence first.

    Mirrors Algorithm 3 in the peel's rank space: processes the last ``k``
    keynodes in decreasing weight order, takes gp(u) from its cvs band,
    discovers child communities through neighbors (read from the peel's
    CSR) already assigned to a key (``v2key`` = DSU + root→key map), and
    links them in ``Ch(u)``. ``k ≤ 0`` asks for nothing; ``None`` for all.
    """
    bands = peel.bands if k is None else peel.bands[max(len(peel.bands) - k, 0):]
    if not bands:
        return []
    indptr, nbrs = peel.csr
    dsu = _DSU()
    root_key: Dict[int, int] = {}  # DSU root -> keynode it currently represents
    gp: Dict[int, List[int]] = {}
    ch: Dict[int, List[int]] = {}
    for band in reversed(bands):  # decreasing weight order
        u = band[0]
        gp[u] = band
        ch[u] = []
        for v in band:
            dsu.add(v)
        for v in band:
            dsu.union_into(v, u)
        root_key[dsu.find(u)] = u
        for v in band:
            for w in nbrs[indptr[v] : indptr[v + 1]]:
                if w not in dsu.parent:
                    continue  # v2key(w) = null — not yet assigned
                rw = dsu.find(w)
                kw = root_key.get(rw)
                if kw is not None and kw != u:
                    ch[u].append(kw)
                    dsu.union_into(w, u)
                    root_key.pop(rw, None)
                    root_key[dsu.find(u)] = u
    # Materialize IC(u) = gp(u) ∪ ⋃ IC(child); children have higher weight.
    memo: Dict[int, Set[int]] = {}

    def materialize(u: int) -> Set[int]:
        if u not in memo:
            s = set(gp[u])
            for c in ch[u]:
                s |= materialize(c)
            memo[u] = s
        return memo[u]

    ids = peel.ids
    return [
        (g.weight[ids[band[0]]], frozenset(ids[v] for v in materialize(band[0])))
        for band in reversed(bands)
    ]


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
