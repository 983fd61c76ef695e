"""Vertex-weight (influence) assignment.

The paper assigns influence values as PageRank scores with damping 0.85
(§6), and assumes weights are pairwise **distinct** (§2). PageRank ties are
common on symmetric synthetic graphs, so scores are mapped to their rank:
``weight(u) = rank of u when ordering by (score, id)`` — an order-preserving
bijection into distinct floats, which leaves every top-k semantics intact
(DESIGN.md §4).

Weights are assigned once, when a dataset is built, by the NumPy power
iteration :func:`pagerank_numpy`; every engine reads them from there.
"""
from __future__ import annotations

from typing import Tuple

import numpy as np
import pandas as pd

from repro.ref.graph import RefGraph


def pagerank_numpy(
    edges: pd.DataFrame,
    n: int,
    damping: float = 0.85,
    iters: int = 40,
) -> np.ndarray:
    """Power-iteration PageRank over the undirected graph (edge → 2 arcs).

    Dangling (isolated) vertices redistribute uniformly. O(m) per iteration
    via ``np.add.at``; 40 iterations are plenty at our scales.
    """
    src = edges["src"].to_numpy()
    dst = edges["dst"].to_numpy()
    out_deg = np.zeros(n, dtype=np.float64)
    np.add.at(out_deg, src, 1.0)
    np.add.at(out_deg, dst, 1.0)
    pr = np.full(n, 1.0 / n)
    for _ in range(iters):
        contrib = np.divide(pr, out_deg, out=np.zeros_like(pr), where=out_deg > 0)
        nxt = np.zeros(n, dtype=np.float64)
        np.add.at(nxt, dst, contrib[src])
        np.add.at(nxt, src, contrib[dst])
        dangling = pr[out_deg == 0].sum()
        pr = (1 - damping) / n + damping * (nxt + dangling / n)
    return pr


def distinct_weights_from_scores(scores: np.ndarray) -> np.ndarray:
    """Order-preserving map score → distinct float weight (1..n by rank)."""
    order = np.lexsort((np.arange(len(scores)), scores))  # ties → by id
    w = np.empty(len(scores), dtype=np.float64)
    w[order] = np.arange(1, len(scores) + 1, dtype=np.float64)
    return w


def pagerank_weights(edges: pd.DataFrame, n: int, damping: float = 0.85) -> np.ndarray:
    """The full §6 weight pipeline: PageRank → distinct ranks."""
    return distinct_weights_from_scores(pagerank_numpy(edges, n, damping))


def weighted_vertex_frame(edges: pd.DataFrame, n: int) -> pd.DataFrame:
    """pandas vertex table ``(id, weight)`` with PageRank-rank weights."""
    return pd.DataFrame(
        {"id": np.arange(n, dtype=np.int64), "weight": pagerank_weights(edges, n)}
    )


def as_ref_graph(edges: pd.DataFrame, vertices: pd.DataFrame) -> RefGraph:
    """Sequential-substrate view of a generated dataset."""
    ids = vertices["id"].to_numpy(np.int64).tolist()
    weights = dict(zip(ids, vertices["weight"].to_numpy(np.float64).tolist()))
    return RefGraph(weights, edges[["src", "dst"]].to_numpy(np.int64))


def build_dataset_pandas(name: str, scale: float = 1.0) -> Tuple[pd.DataFrame, pd.DataFrame]:
    """(vertices, edges) pandas frames for a named analog dataset."""
    from .generators import DATASETS, dataset_edges

    spec = DATASETS[name]
    edges = dataset_edges(name, scale=scale)
    n = max(32, int(spec.n * scale))
    return weighted_vertex_frame(edges, n), edges
