"""Sequential weighted-graph substrate mirroring the paper's graph organization.

The paper (§3.1, starred remarks) assumes:

* vertices are **pre-sorted in decreasing weight order**, and
* each adjacency list is pre-partitioned into ``N≥(u)`` (neighbors with
  weight ≥ ω(u)) and ``N<(u)``,

so that any weight-suffix subgraph ``G≥τ`` — and, more generally, the
subgraph induced by the top-``r`` vertices — can be extracted in time linear
in its own size. :class:`RefGraph` implements exactly that organization and
is the substrate for the exact sequential algorithms in ``repro.ref``.

Weights must be pairwise distinct (paper §2 assumption).
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

NEG_INF = float("-inf")


@dataclass(frozen=True)
class PrefixEntry:
    """One row of the weight-ordered prefix-size index (see §3.1)."""

    vertex: int
    weight: float
    up_degree: int  # |N≥(vertex)|: edges this vertex adds when appended
    cum_size: int  # size(G≥weight) = #vertices + #edges of the prefix


class RefGraph:
    """A vertex-weighted undirected graph with the paper's weight-sorted layout.

    Parameters
    ----------
    weights:
        Mapping vertex id -> weight. Weights must be distinct.
    edges:
        Iterable of undirected edges ``(u, v)``; duplicates (in either
        orientation) and self-loops are rejected.
    """

    def __init__(self, weights: Dict[int, float], edges: Iterable[Tuple[int, int]]):
        if len(set(weights.values())) != len(weights):
            raise ValueError("vertex weights must be pairwise distinct (paper §2)")
        self.weight: Dict[int, float] = dict(weights)
        self.adj: Dict[int, Set[int]] = {v: set() for v in self.weight}
        n_edges = 0
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on {u}")
            if u not in self.adj or v not in self.adj:
                raise ValueError(f"edge ({u},{v}) references unknown vertex")
            if v in self.adj[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            self.adj[u].add(v)
            self.adj[v].add(u)
            n_edges += 1
        self.n_edges = n_edges
        # ★★ vertices pre-sorted in decreasing weight order.
        self.order: List[int] = sorted(self.weight, key=self.weight.get, reverse=True)
        self.rank: Dict[int, int] = {v: i for i, v in enumerate(self.order)}
        # ★★ adjacency pre-partitioned into N≥ / N< by neighbor weight.
        self._n_ge: Dict[int, List[int]] = {
            u: sorted(
                (v for v in self.adj[u] if self.weight[v] >= self.weight[u]),
                key=self.weight.get,
                reverse=True,
            )
            for u in self.weight
        }
        self.prefix: List[PrefixEntry] = []
        cum = 0
        for i, u in enumerate(self.order):
            up = len(self._n_ge[u])
            cum += 1 + up
            self.prefix.append(PrefixEntry(u, self.weight[u], up, cum))
        self._cum_sizes = [e.cum_size for e in self.prefix]

    # ------------------------------------------------------------------ basic
    @property
    def n(self) -> int:
        return len(self.weight)

    @property
    def size(self) -> int:
        """``size(G) = |V| + |E|`` (paper §2)."""
        return self.n + self.n_edges

    def n_ge(self, u: int) -> Sequence[int]:
        """Neighbors of ``u`` with weight ≥ ω(u), in decreasing weight order."""
        return self._n_ge[u]

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    # -------------------------------------------------------------- subgraphs
    def prefix_size(self, r: int) -> int:
        """``size`` of the subgraph induced by the ``r`` highest-weight vertices."""
        if r <= 0:
            return 0
        return self._cum_sizes[min(r, self.n) - 1]

    def r_for_size(self, target: int) -> int:
        """Smallest prefix length whose induced size is ≥ ``target`` (or n).

        This is the Line-4 step of Algorithm 1: pick the largest τ with
        ``size(G≥τ) ≥ target``, falling back to τ_min (the whole graph).
        """
        i = bisect.bisect_left(self._cum_sizes, target)
        return min(i + 1, self.n)

    def r_for_tau(self, tau: float) -> int:
        """Number of vertices with weight ≥ τ."""
        # order is descending; find first index with weight < tau.
        lo, hi = 0, self.n
        while lo < hi:
            mid = (lo + hi) // 2
            if self.weight[self.order[mid]] >= tau:
                lo = mid + 1
            else:
                hi = mid
        return lo

    # The growth-driver contract, shared with ``SparkGraph`` (§3.1 lookups).
    def tau_for_rank(self, r: int) -> float:
        """Weight of the r-th highest-weight vertex (τ₁ heuristic, Line 1)."""
        return self.weight[self.order[min(r, self.n) - 1]]

    def tau_for_size(self, target: int) -> float:
        """Largest τ with ``size(G≥τ) ≥ target``, else τ_min (Line 4)."""
        return self.weight[self.order[self.r_for_size(target) - 1]]

    def tau_min(self) -> Optional[float]:
        """Smallest vertex weight; ``None`` for the empty graph."""
        return self.weight[self.order[-1]] if self.order else None

    def subgraph_top(self, r: int) -> "RefGraph":
        """Induced subgraph of the top-``r`` vertices, built in O(its size)."""
        r = min(r, self.n)
        keep = self.order[:r]
        kept = set(keep)
        w = {v: self.weight[v] for v in keep}
        edges = [(u, v) for u in keep for v in self._n_ge[u] if v in kept]
        return RefGraph(w, edges)

    def subgraph_ge(self, tau: float) -> "RefGraph":
        """``G≥τ`` (subgraph induced by vertices of weight ≥ τ)."""
        return self.subgraph_top(self.r_for_tau(tau))

    # ------------------------------------------------------------ conversions
    def edge_list(self) -> List[Tuple[int, int]]:
        """Canonical (lower-id-first) undirected edge list."""
        return sorted(
            (min(u, v), max(u, v)) for u in self.adj for v in self.adj[u] if u < v
        )

    def copy_adj(self) -> Dict[int, Set[int]]:
        return {u: set(nbrs) for u, nbrs in self.adj.items()}


def from_edges(weighted_vertices: Dict[int, float], edges: Iterable[Tuple[int, int]]) -> RefGraph:
    """Convenience constructor (kept for readable call sites in tests)."""
    return RefGraph(weighted_vertices, edges)
