"""Sequential weighted-graph substrate mirroring the paper's graph organization.

The paper (§3.1, starred remarks) assumes:

* vertices are **pre-sorted in decreasing weight order**, and
* each adjacency list is pre-partitioned into ``N≥(u)`` (neighbors with
  weight ≥ ω(u)) and ``N<(u)``,

so that any weight-suffix subgraph ``G≥τ`` — and, more generally, the
subgraph induced by the top-``r`` vertices — can be extracted in time linear
in its own size. :class:`PrefixIndex` is the first, with the running
``size(G≥τ)`` of every weight suffix that Algorithm 1 looks up; every
engine's graph type (``RefGraph``, ``SparkGraph``, ``EdgeBlockStore``)
answers its lookups from one. :class:`RefGraph` implements the whole
organization and is the substrate for the exact sequential algorithms in
``repro.ref``.

Weights must be pairwise distinct (paper §2 assumption).
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

NEG_INF = float("-inf")


class PrefixLookups:
    """Algorithm 1's lookups (Line 1's τ₁, Line 4's growth step) as binary
    searches on the graph's :class:`PrefixIndex`, ``self.index``.
    ``RefGraph``, ``SparkGraph`` and ``EdgeBlockStore`` answer the growth
    driver with these."""

    index: "PrefixIndex"

    def r_for_tau(self, tau: float) -> int:
        """Number of vertices with weight ≥ τ."""
        return int(np.searchsorted(self.index.neg_weights, -tau, side="right"))

    def prefix_size(self, r: int) -> int:
        """``size`` of the subgraph induced by the ``r`` highest-weight vertices."""
        return int(self.index.cum_size[min(r, self.index.n) - 1]) if r > 0 else 0

    def r_for_size(self, target: int) -> int:
        """Smallest prefix length whose induced size is ≥ ``target`` (or n)."""
        idx = self.index
        return min(int(np.searchsorted(idx.cum_size, target, side="left")) + 1, idx.n)

    def tau_for_rank(self, r: int) -> float:
        """Weight of the r-th highest-weight vertex (τ₁ heuristic, Line 1)."""
        return float(self.index.weights[min(r, self.index.n) - 1])

    def tau_for_size(self, target: int) -> float:
        """Largest τ with ``size(G≥τ) ≥ target``, else τ_min (Line 4)."""
        return float(self.index.weights[self.r_for_size(target) - 1])

    def size_at_tau(self, tau: float) -> int:
        """``size(G≥τ)``."""
        return self.prefix_size(self.r_for_tau(tau))

    def tau_min(self) -> Optional[float]:
        """Smallest vertex weight; ``None`` for the empty graph."""
        return float(self.index.weights[-1]) if self.index.n else None


class PrefixIndex:
    """The §3.1 weight-ordered prefix index: vertices in decreasing weight
    order (★★), with the running ``size(G≥τ)`` (vertices + edges) of every
    weight suffix.

    ``ids[i]`` and ``weights[i]`` are the (i+1)-th highest-weight vertex and
    ``cum_size[i]`` is the size of the subgraph the top i+1 vertices induce,
    i.e. ``size(G≥weights[i])``. A graph answers lookups on its index
    through :class:`PrefixLookups`.
    """

    def __init__(self, ids, weights, cum_size):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.cum_size = np.asarray(cum_size, dtype=np.int64)
        self.neg_weights = -self.weights  # ascending, for searchsorted

    @staticmethod
    def build(ids, weights, src, dst) -> "PrefixIndex":
        """The index of the graph with vertex ``ids``/``weights`` and edges
        ``src[i]``–``dst[i]`` (all endpoints known, no duplicates). Each edge
        is charged to its lower-weight endpoint: the ``N≥`` half of §3.1 ★★."""
        ids = np.asarray(ids, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        order = np.argsort(-weights, kind="stable")
        rank = np.empty(len(ids), dtype=np.int64)
        rank[order] = np.arange(len(ids))
        by_id = np.argsort(ids)

        def rank_of(v) -> np.ndarray:
            v = np.asarray(v, dtype=np.int64)
            return rank[by_id[np.searchsorted(ids, v, sorter=by_id)]]

        up_degree = np.bincount(np.maximum(rank_of(src), rank_of(dst)), minlength=len(ids))
        return PrefixIndex(ids[order], weights[order], np.cumsum(1 + up_degree))

    @property
    def n(self) -> int:
        return len(self.ids)

    def head(self, r: int) -> "PrefixIndex":
        """The index of the subgraph induced by the top-``r`` vertices."""
        return PrefixIndex(self.ids[:r], self.weights[:r], self.cum_size[:r])


class RefGraph(PrefixLookups):
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
        src: List[int] = []
        dst: List[int] = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on {u}")
            if u not in self.adj or v not in self.adj:
                raise ValueError(f"edge ({u},{v}) references unknown vertex")
            if v in self.adj[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            self.adj[u].add(v)
            self.adj[v].add(u)
            src.append(u)
            dst.append(v)
        self.n_edges = len(src)
        self.index = PrefixIndex.build(list(self.weight), list(self.weight.values()), src, dst)
        # ★★ vertices pre-sorted in decreasing weight order.
        self.order: List[int] = self.index.ids.tolist()
        # ★★ adjacency pre-partitioned into N≥ / N< by neighbor weight.
        self._n_ge: Dict[int, List[int]] = {
            u: sorted(
                (v for v in self.adj[u] if self.weight[v] >= self.weight[u]),
                key=self.weight.get,
                reverse=True,
            )
            for u in self.weight
        }

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

