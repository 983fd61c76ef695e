"""Distributed weighted-graph storage — the paper's §3.1 graph organization
as Spark DataFrames.

The paper's two starred assumptions map onto this layout:

* *vertices pre-sorted in decreasing weight order* → the **prefix-size
  index** (``repro.ref.graph.PrefixIndex``: the vertices in decreasing
  weight order and the cumulative ``size`` = vertices + edges of every
  weight-suffix subgraph), built once on the driver from the canonical
  pandas frames at load. Algorithm 1's lookups (Line 1's τ₁, Line 4's
  doubling step) are binary searches on it and run no Spark job;
* *adjacency pre-partitioned into N≥/N<* → the edge frame is the index's
  edge layout (each edge charged to its lower-weight endpoint, exactly the
  ``N≥`` half of the split), three columns ``src < dst, w_min`` with
  ``w_min = min(ω(src), ω(dst))``, in layout order, so in non-increasing
  ``w_min`` (the index's stored rows, ``PrefixIndex.edge_rows``). The
  induced subgraph ``G≥τ`` is the Catalyst filter ``w_min ≥ τ`` on edges,
  and its rows are the frame's first ``size_at_tau(τ) − r_for_tau(τ)``.

Both frames are written from the driver's index in one ``createDataFrame``
each: the weights need no join, and no shuffle builds or reads them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.ref.graph import PrefixIndex, PrefixLookups, RefGraph, check_graph

NEG_INF = float("-inf")
VERTEX_SCHEMA = "id long, weight double"
EDGE_SCHEMA = "src long, dst long, w_min double"


def _unique_edges(vertices: pd.DataFrame, edges: pd.DataFrame):
    """The ``(id, weight)`` frame and the edge ends ``src, dst`` less every
    repeat of a pair (in either orientation): each pair's first row is kept
    as given, so the contract names the offending edge as it was input."""
    v = vertices[["id", "weight"]].astype({"id": "int64", "weight": "float64"})
    src = edges["src"].to_numpy(dtype=np.int64)
    dst = edges["dst"].to_numpy(dtype=np.int64)
    pairs = pd.DataFrame({"a": np.minimum(src, dst), "b": np.maximum(src, dst)})
    first = ~pairs.duplicated().to_numpy()
    return v, src[first], dst[first]


def canonical_frames(
    vertices: pd.DataFrame, edges: pd.DataFrame
) -> Tuple[pd.DataFrame, pd.DataFrame]:
    """``RefGraph``'s graph contract (``repro.ref.graph.check_graph``) on
    pandas frames, as :meth:`SparkGraph.from_pandas` applies it: duplicate
    edges (in either orientation) are dropped and the rest oriented ``src <
    dst``; repeated vertex ids, tied weights, self-loops and edges to
    unknown vertices raise ``ValueError`` with ``RefGraph``'s messages."""
    v, src, dst = _unique_edges(vertices, edges)
    check_graph(v["id"], v["weight"], src, dst)
    return v, pd.DataFrame({"src": np.minimum(src, dst), "dst": np.maximum(src, dst)})


@dataclass
class SparkGraph(PrefixLookups):
    """Vertex-weighted undirected graph in DataFrames, in the §3.1 layout.

    ``vertices``: ``id: long, weight: double`` (weights pairwise distinct),
    in decreasing weight order. ``edges``: ``src: long, dst: long, w_min:
    double``, canonical ``src < dst`` rows in the index's edge layout, so in
    non-increasing ``w_min``. ``index``: the graph's prefix index, on the
    driver; the growth driver's lookups read it. Both frames are cached.
    """

    vertices: DataFrame
    edges: DataFrame
    index: PrefixIndex
    _prefix: Optional[DataFrame] = None

    # ------------------------------------------------------------ construct
    @staticmethod
    def from_pandas(
        spark: SparkSession, vertices: pd.DataFrame, edges: pd.DataFrame
    ) -> "SparkGraph":
        """Build from pandas ``(id, weight)`` and ``(src, dst)`` frames.

        Duplicate edges (in either orientation) are dropped, then
        :meth:`PrefixIndex.build` checks the graph contract, once, with
        ``RefGraph``'s messages (:func:`canonical_frames` is the same check
        on its own). Both frames are written from the prefix index on the
        driver, in rank and layout order, and cached and materialised here:
        no join, no shuffle, and the first query pays for no cache build.
        """
        v, src, dst = _unique_edges(vertices, edges)
        index = PrefixIndex.build(v["id"], v["weight"], src, dst)
        src, dst, w_min = index.edge_rows()
        v = spark.createDataFrame(
            pd.DataFrame({"id": index.ids, "weight": index.weights}), schema=VERTEX_SCHEMA
        )
        e = spark.createDataFrame(
            pd.DataFrame({"src": src, "dst": dst, "w_min": w_min}), schema=EDGE_SCHEMA
        )
        for df in (v.cache(), e.cache()):
            df.count()
        return SparkGraph(vertices=v, edges=e, index=index)

    # -------------------------------------------------------- §3.1 machinery
    def subgraph_ge(self, tau: float) -> "SparkGraph":
        """``G≥τ`` via pure Catalyst filters (linear in its own size)."""
        return SparkGraph(
            vertices=self.vertices.filter(F.col("weight") >= tau),
            edges=self.edges.filter(F.col("w_min") >= tau),
            index=self.index.head(self.r_for_tau(tau)),
        )

    def prefix_index(self) -> DataFrame:
        """The prefix index as a DataFrame ``(id, weight, rank, up_degree,
        cum_size)``: ``cum_size`` of the r-th row is ``size(G≥weight_r)``
        and ``up_degree`` is |N≥(id)|, the edges that row adds."""
        if self._prefix is None:
            idx = self.index
            self._prefix = self.vertices.sparkSession.createDataFrame(
                pd.DataFrame({
                    "id": idx.ids,
                    "weight": idx.weights,
                    "rank": np.arange(1, idx.n + 1),
                    "up_degree": idx.up_degree,
                    "cum_size": idx.cum_size,
                }),
                schema="id long, weight double, rank long, up_degree long, cum_size long",
            )
        return self._prefix

    def to_ref(self, tau: float) -> RefGraph:
        """``G≥τ`` as a :class:`RefGraph` on the driver, in one Spark job.

        Its vertices are the prefix index's head, so the one collect is of
        its edges: the filter ``w_min ≥ τ``, which keeps the layout's first
        ``size_at_tau(τ) − r_for_tau(τ)`` rows, in layout order. They were
        checked at ingest, so the stage is built from them as a trusted
        layout (:meth:`PrefixIndex.with_edges`), with no contract check and
        no sort.
        """
        head = self.index.head(self.r_for_tau(tau))
        e = self.edges.filter(F.col("w_min") >= tau).select("src", "dst").toPandas()
        return RefGraph(index=head.with_edges(e["src"], e["dst"]))
