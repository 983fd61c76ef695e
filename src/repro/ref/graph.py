"""Sequential weighted-graph substrate mirroring the paper's graph organization.

The paper (§3.1, starred remarks) assumes:

* vertices are **pre-sorted in decreasing weight order**, and
* each adjacency list is pre-partitioned into ``N≥(u)`` (neighbors with
  weight ≥ ω(u)) and ``N<(u)``,

so that any weight-suffix subgraph ``G≥τ`` — and, more generally, the
subgraph induced by the top-``r`` vertices — can be extracted in time linear
in its own size. The Remark adds that edges are stored by decreasing
``w_min`` (the lower endpoint weight), so the edges of ``G≥τ`` are a prefix.

:class:`PrefixIndex` is that organization as arrays, built in one numpy pass
(:meth:`PrefixIndex.build`) from a graph that holds the contract
(:func:`check_graph`):

* the vertices in decreasing weight order, with the running ``size(G≥τ)``
  of every weight suffix that Algorithm 1 looks up — every engine's graph
  type (``RefGraph``, ``SparkGraph``, ``EdgeBlockStore``) answers its
  lookups from one;
* the **edge layout**: the edges grouped by their lower-weight endpoint's
  rank, each group ``N≥(u)`` in decreasing weight. The edges of the top-``r``
  vertices' subgraph are its first ``prefix_size(r) − r`` rows. A row is
  stored as ``src < dst, w_min`` (:meth:`PrefixIndex.edge_rows`).

:class:`RefGraph` is that layout and nothing more at construction: its
``N≥`` lists, ``subgraph_top`` and ``edge_list`` are read off it, and the
both-halves CSR that the peels walk (:meth:`PrefixIndex.csr`, in rank
space) and the adjacency sets of the read-only callers are derived from it
on first use. ``EdgeBlockStore.write`` (``repro.semi_external.storage``)
and ``SparkGraph.from_pandas`` (``repro.graphs.storage``) write the stored
rows straight from the layout. It is the substrate for the exact
sequential algorithms in ``repro.ref``.

The contract is checked once, at ingest: ``RefGraph(weights, edges)`` runs
:func:`check_graph` inside :meth:`PrefixIndex.build`. A slice of a checked
layout is trusted: ``RefGraph(index=…)`` builds a graph from a
:class:`PrefixIndex` with its layout, with no check and no sort.
``subgraph_top`` (every ``ref`` stage's ``G≥τ``) builds from
``index.head(r)``, and each LocalSearch-SE stage and Spark driver stage
from the rows it read back (:meth:`PrefixIndex.with_edges`, which checks
only that the rows are the index's layout).

Weights must be pairwise distinct (paper §2 assumption).
"""
from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
import pandas as pd

NEG_INF = float("-inf")


def positions(ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The position of every value in ``ids`` (pairwise distinct), −1 where
    it is not there: one hash lookup, whatever values the ids take."""
    return pd.Index(ids).get_indexer(values)


def check_graph(ids, weights, src, dst) -> Tuple[np.ndarray, np.ndarray]:
    """The graph contract (paper §2) on arrays; returns the positions of
    ``src`` and ``dst`` in ``ids``.

    Repeated vertex ids, tied weights, self-loops, edges to unknown
    vertices and duplicate edges (in either orientation) raise
    ``ValueError``. An edge error names the first offending edge in input
    order. The endpoints are found by one :func:`positions` lookup over
    the ids.
    """
    ids = np.asarray(ids, dtype=np.int64)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    repeated = pd.Index(ids).duplicated()
    if repeated.any():
        raise ValueError(f"duplicate vertex id {ids[repeated.argmax()]}")
    if len(np.unique(np.asarray(weights, dtype=np.float64))) != len(ids):
        raise ValueError("vertex weights must be pairwise distinct (paper §2)")
    at_src, at_dst = np.split(positions(ids, np.concatenate((src, dst))), [len(src)])
    loop = src == dst
    unknown = (at_src < 0) | (at_dst < 0)
    bad = loop | unknown
    # One key per unordered pair; a bad edge gets a key of its own.
    key = np.minimum(at_src, at_dst) * len(ids) + np.maximum(at_src, at_dst)
    key[bad] = -1 - np.flatnonzero(bad)
    perm = np.argsort(key, kind="stable")
    duplicate = np.zeros(len(src), dtype=bool)
    duplicate[perm[1:][key[perm[1:]] == key[perm[:-1]]]] = True
    offending = np.flatnonzero(bad | duplicate)
    if len(offending):
        i = offending[0]
        u, v = src[i], dst[i]
        if loop[i]:
            raise ValueError(f"self-loop on {u}")
        if unknown[i]:
            raise ValueError(f"edge ({u},{v}) references unknown vertex")
        raise ValueError(f"duplicate edge ({u},{v})")
    return at_src, at_dst


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
    weight suffix, and optionally the edge layout.

    ``ids[i]`` and ``weights[i]`` are the (i+1)-th highest-weight vertex and
    ``cum_size[i]`` is the size of the subgraph the top i+1 vertices induce,
    i.e. ``size(G≥weights[i])``. ``nbr`` is the edge layout: the rows of
    vertex ``i`` are the ranks of its ``N≥`` neighbours, ascending (so in
    decreasing weight), and rank-``i`` rows follow every lower rank's; the
    first ``cum_size[i] − (i+1)`` rows are the edges of the top i+1
    vertices. An index read back from storage has no layout (``None``). A
    graph answers lookups on its index through :class:`PrefixLookups`.
    """

    def __init__(self, ids, weights, cum_size, nbr=None):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.cum_size = np.asarray(cum_size, dtype=np.int64)
        self.nbr = None if nbr is None else np.asarray(nbr, dtype=np.int64)
        self.neg_weights = -self.weights  # ascending, for searchsorted

    @staticmethod
    def build(ids, weights, src, dst) -> "PrefixIndex":
        """The index and edge layout of the graph with vertex
        ``ids``/``weights`` and edges ``src[i]``–``dst[i]``, after
        :func:`check_graph` (duplicates rejected). Each edge is charged to
        its lower-weight endpoint: the ``N≥`` half of §3.1 ★★."""
        ids = np.asarray(ids, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        at_src, at_dst = check_graph(ids, weights, src, dst)
        n = len(ids)
        order = np.argsort(-weights, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        rs, rd = rank[at_src], rank[at_dst]
        low = np.maximum(rs, rd)  # the lower-weight endpoint's rank
        key = np.sort(low * n + np.minimum(rs, rd))
        up_degree = np.bincount(low, minlength=n)
        return PrefixIndex(ids[order], weights[order], np.cumsum(1 + up_degree), key % max(n, 1))

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def up_degree(self) -> np.ndarray:
        """``|N≥(v)|`` of every vertex, in rank order: the edges it adds."""
        return np.diff(self.cum_size, prepend=0) - 1

    def edge_ends(self) -> Tuple[np.ndarray, np.ndarray]:
        """The layout's edges as vertex ids: ``(lower, upper)``, the lower-
        and higher-weight endpoint of every row."""
        return np.repeat(self.ids, self.up_degree), self.ids[self.nbr]

    def edge_rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The layout as stored rows ``(src, dst, w_min)``, in layout order:
        the ends of every row as ``src < dst``, and the weight of its lower-
        weight endpoint, so ``w_min`` is non-increasing. Spark's edge frame
        and the semi-external blocks store these rows."""
        lower, upper = self.edge_ends()
        return (
            np.minimum(lower, upper),
            np.maximum(lower, upper),
            np.repeat(self.weights, self.up_degree),
        )

    def head(self, r: int) -> "PrefixIndex":
        """The index of the subgraph induced by the top-``r`` vertices."""
        r = min(r, self.n)
        nbr = None
        if self.nbr is not None:
            nbr = self.nbr[: int(self.cum_size[r - 1]) - r if r > 0 else 0]
        return PrefixIndex(self.ids[:r], self.weights[:r], self.cum_size[:r], nbr)

    def with_edges(self, src, dst) -> "PrefixIndex":
        """This index with its edge layout given as id rows, e.g. as read
        back from a store: row ``j`` joins the vertex of its layout group,
        ``np.repeat(ids, up_degree)[j]``, to the other endpoint, in either
        column. The rows are trusted to hold the graph contract, as the
        layout they were written from did; only a cheap check that they
        are this index's layout runs. It raises ``ValueError`` when the
        row count is not the index's edge count, a row does not hold its
        group's vertex, or the other endpoints of a group are not
        higher-ranked vertices of this index in ascending rank."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        up = self.up_degree
        if len(src) != len(dst) or len(src) != int(up.sum()):
            raise ValueError("edge rows do not match the vertex table")
        low_rank = np.repeat(np.arange(self.n), up)
        lower = self.ids[low_rank]
        nbr = positions(self.ids, src + dst - lower)
        if not (
            ((src == lower) | (dst == lower)).all()
            and ((nbr >= 0) & (nbr < low_rank)).all()
            and (np.diff(low_rank * self.n + nbr) > 0).all()  # layout order
        ):
            raise ValueError("edge rows do not match the vertex table")
        return PrefixIndex(self.ids, self.weights, self.cum_size, nbr)

    def csr(self) -> Tuple[List[int], List[int]]:
        """The graph's adjacency in rank space, both halves of every layout
        row: the neighbour ranks of rank ``i`` are
        ``nbrs[indptr[i]:indptr[i + 1]]``, ascending. It costs O(size) of
        this index's graph, so ``head(r).csr()`` is the top-``r`` subgraph's
        in O(its size). Plain lists: the peels index them one vertex at a
        time."""
        low = np.repeat(np.arange(self.n), self.up_degree)
        heads = np.concatenate((low, self.nbr))
        perm = np.argsort(heads, kind="stable")
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads, minlength=self.n), out=indptr[1:])
        return indptr.tolist(), np.concatenate((self.nbr, low))[perm].tolist()


class RefGraph(PrefixLookups):
    """A vertex-weighted undirected graph with the paper's weight-sorted layout.

    Parameters
    ----------
    weights:
        Mapping vertex id -> weight. Weights must be distinct.
    edges:
        Undirected edges ``(u, v)``: an ``(m, 2)`` integer array or an
        iterable of pairs; duplicates (in either orientation) and self-loops
        are rejected.
    index:
        Instead of ``weights`` and ``edges``: a :class:`PrefixIndex` with
        its edge layout, trusted to hold the contract. The graph is built
        from it with no check and no sort. This is the constructor for a
        slice of a layout that was checked once, at ingest:
        ``subgraph_top`` (``index.head(r)``), and the semi-external and Spark
        driver stages (``PrefixIndex.with_edges`` over the rows read back).

    ``index`` holds the prefix index and the §3.1 edge layout, and is all
    that construction from an index builds. ``weight``, ``order``, ``csr``,
    ``adj`` and the ``N≥`` lists are read off it on first use, so a stage
    graph costs only what its peel reads.
    """

    def __init__(
        self,
        weights: Optional[Dict[int, float]] = None,
        edges: Iterable[Tuple[int, int]] = (),
        *,
        index: Optional[PrefixIndex] = None,
    ):
        if index is not None:
            self.index = index
            self.n_edges = len(index.nbr)
            return
        self.weight = dict(weights)
        n = len(self.weight)
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.n_edges = len(edges)
        self.index = PrefixIndex.build(
            np.fromiter(self.weight, np.int64, n),
            np.fromiter(self.weight.values(), np.float64, n),
            edges[:, 0],
            edges[:, 1],
        )

    # ------------------------------------------------------------------ basic
    @cached_property
    def weight(self) -> Dict[int, float]:
        """id → weight: the input mapping, or the index's in rank order."""
        return dict(zip(self.index.ids.tolist(), self.index.weights.tolist()))

    @property
    def n(self) -> int:
        return self.index.n

    @property
    def size(self) -> int:
        """``size(G) = |V| + |E|`` (paper §2)."""
        return self.n + self.n_edges

    @cached_property
    def order(self) -> List[int]:
        """★★ The vertex ids in decreasing weight order: rank → id."""
        return self.index.ids.tolist()

    @cached_property
    def rank(self) -> Dict[int, int]:
        """id → rank, the inverse of ``order``."""
        return dict(zip(self.order, range(self.n)))

    @cached_property
    def csr(self) -> Tuple[List[int], List[int]]:
        """The whole graph's rank-space CSR (:meth:`PrefixIndex.csr`)."""
        return self.index.csr()

    @cached_property
    def adj(self) -> Dict[int, Set[int]]:
        """Neighbour sets by id, in ``weight`` order, for read-only callers."""
        indptr, nbrs = self.csr
        tails = np.array(self.order, dtype=object)[nbrs].tolist() if nbrs else []
        by_rank = [set(tails[indptr[i] : indptr[i + 1]]) for i in range(self.n)]
        rank = self.rank
        return {v: by_rank[rank[v]] for v in self.weight}

    def n_ge(self, u: int) -> Sequence[int]:
        """★★ Neighbors of ``u`` with weight ≥ ω(u), in decreasing weight
        order: ``u``'s group of the layout."""
        i = self.rank[u]
        idx = self.index
        start = int(idx.cum_size[i - 1]) - i if i else 0
        return idx.ids[idx.nbr[start : int(idx.cum_size[i]) - i - 1]].tolist()

    # -------------------------------------------------------------- subgraphs
    def subgraph_top(self, r: int) -> "RefGraph":
        """Induced subgraph of the top-``r`` vertices: the layout's prefix."""
        return RefGraph(index=self.index.head(max(r, 0)))

    def subgraph_ge(self, tau: float) -> "RefGraph":
        """``G≥τ`` (subgraph induced by vertices of weight ≥ τ)."""
        return self.subgraph_top(self.r_for_tau(tau))

    # ------------------------------------------------------------ conversions
    def edge_list(self) -> List[Tuple[int, int]]:
        """Canonical (lower-id-first) undirected edge list, sorted."""
        a, b, _ = self.index.edge_rows()
        o = np.lexsort((b, a))
        return list(zip(a[o].tolist(), b[o].tolist()))
