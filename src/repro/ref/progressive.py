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
small-to-large, so construction over a whole run costs O(m + n log n).

The stage loop is the shared growth driver (``ref.local_search.grow``),
started at rank ``1 + γ`` and never stopped by a count: :func:`progressive`
runs it, with :func:`progressive_stage`, for this module and for the Spark
version (``repro.core.progressive``), whose driver route is that same stage.
"""
from __future__ import annotations

from typing import Dict, Iterator, List

from .count_ic import PeelResult, count_ic
from .enum_ic import Community
from .graph import RefGraph
from .local_search import Stage, grow, growth


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

    def stream(self, g: RefGraph, peel: PeelResult) -> Iterator[Community]:
        """Activate a ConstructCVS peel's cvs bands (keynode first) in
        decreasing keynode weight, the reverse of the order they arrive in,
        each unioned with its already-active neighbors (read from the peel's
        CSR); yield each keynode's community once its band is active."""
        indptr, nbrs = peel.csr
        ids = peel.ids
        for band in reversed(peel.bands):
            for v in band:
                self.add(ids[v])
            for v in band:
                for x in nbrs[indptr[v] : indptr[v + 1]]:
                    if ids[x] in self.parent:  # already activated ⇒ band ≥ ω(u)
                        self.union(ids[v], ids[x])
            u = ids[band[0]]
            yield g.weight[u], frozenset(self.members[self.find(u)])


def progressive(g, rank: int, next_size, stage) -> Iterator[Community]:
    """Algorithm 4's stream over the growth driver: ``stage(τ_i, τ_{i-1})``
    returns its record and the communities of its new keynodes (weight
    < τ_{i-1}; τ₀ = +∞), highest influence first."""
    tau_prev = float("inf")
    for st, new in grow(g, rank, next_size, lambda tau: stage(tau, tau_prev)):
        yield from new
        tau_prev = st.tau


def progressive_stage(g: RefGraph, gamma: int, dsu: _CommunityDSU):
    """LocalSearch-P's stage: ConstructCVS on the top-r prefix down to
    τ_{i-1}, then the new bands' communities from the shared ``dsu``."""

    def stage(tau: float, tau_prev: float):
        r = g.r_for_tau(tau)
        peel = count_ic(g, gamma, tau_stop=tau_prev, prefix=r)
        return Stage(tau, g.prefix_size(r), peel.count), dsu.stream(g, peel)

    return stage


def local_search_progressive(
    g: RefGraph, gamma: int, delta: float = 2.0
) -> Iterator[Community]:
    """Algorithm 4: yield ``(influence, frozenset)``, highest influence first."""
    stage = progressive_stage(g, gamma, _CommunityDSU())
    yield from progressive(g, 1 + gamma, growth(delta), stage)
