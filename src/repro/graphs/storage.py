"""Distributed weighted-graph storage — the paper's §3.1 graph organization
as Spark DataFrames.

The paper's two starred assumptions map onto this layout:

* *vertices pre-sorted in decreasing weight order* → the **prefix-size
  index** (``repro.ref.graph.PrefixIndex``: the vertices in decreasing
  weight order and the cumulative ``size`` = vertices + edges of every
  weight-suffix subgraph), built once on the driver from the canonical
  pandas frames at load. Algorithm 1's lookups (Line 1's τ₁, Line 4's doubling step) are
  binary searches on it and run no Spark job;
* *adjacency pre-partitioned into N≥/N<* → every edge row carries
  ``w_min = min(ω(src), ω(dst))``, so the induced subgraph ``G≥τ`` is the
  Catalyst filter ``w_min ≥ τ`` on edges (each edge "belongs to" its
  lower-weight endpoint, exactly the ``N≥`` half of the split).

All per-query subgraph extraction therefore stays inside Catalyst; no
shuffling of the full graph is needed to start a local search.
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
EDGE_SCHEMA = "src long, dst long"


def canonical_frames(
    vertices: pd.DataFrame, edges: pd.DataFrame
) -> Tuple[pd.DataFrame, pd.DataFrame]:
    """``RefGraph``'s graph contract (``repro.ref.graph.check_graph``),
    applied to pandas frames.

    Edges are oriented ``src < dst`` and duplicates (in either orientation)
    dropped. Repeated vertex ids, tied weights, self-loops and edges to
    unknown vertices raise ``ValueError`` with ``RefGraph``'s messages.
    """
    v = vertices[["id", "weight"]].astype({"id": "int64", "weight": "float64"})
    src = edges["src"].to_numpy(dtype=np.int64)
    dst = edges["dst"].to_numpy(dtype=np.int64)
    check_graph(v["id"], v["weight"], src, dst, reject_duplicates=False)
    e = pd.DataFrame(
        {"src": np.minimum(src, dst), "dst": np.maximum(src, dst)}
    ).drop_duplicates(ignore_index=True)
    return v, e


@dataclass
class SparkGraph(PrefixLookups):
    """Vertex-weighted undirected graph in DataFrames.

    ``vertices``: ``id: long, weight: double`` (weights pairwise distinct).
    ``edges``: canonical ``src < dst`` rows with both endpoint weights and
    ``w_min``/``w_max`` precomputed. ``index``: the graph's prefix index,
    on the driver; the growth driver's lookups read it.
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
        """Build from pandas ``(id, weight)`` and ``(src, dst)`` frames,
        checked and canonicalised by :func:`canonical_frames` first."""
        vertices, edges = canonical_frames(vertices, edges)
        v = spark.createDataFrame(vertices, schema=VERTEX_SCHEMA).cache()
        w = v.select(F.col("id").alias("_wid"), F.col("weight").alias("_w"))
        e = (
            spark.createDataFrame(edges, schema=EDGE_SCHEMA)
            .join(w.withColumnsRenamed({"_wid": "src", "_w": "w_src"}), "src")
            .join(w.withColumnsRenamed({"_wid": "dst", "_w": "w_dst"}), "dst")
            .select(
                "src",
                "dst",
                "w_src",
                "w_dst",
                F.least("w_src", "w_dst").alias("w_min"),
                F.greatest("w_src", "w_dst").alias("w_max"),
            )
            .cache()
        )
        index = PrefixIndex.build(vertices["id"], vertices["weight"], edges["src"], edges["dst"])
        return SparkGraph(vertices=v, edges=e, index=index)

    # ----------------------------------------------------------- basic info
    def counts(self) -> Tuple[int, int]:
        return self.vertices.count(), self.edges.count()

    def half_edges(self) -> DataFrame:
        """Both orientations: ``(u, v, w_u, w_v)`` — 2m rows."""
        e = self.edges
        return e.select(
            F.col("src").alias("u"), F.col("dst").alias("v"),
            F.col("w_src").alias("w_u"), F.col("w_dst").alias("w_v"),
        ).unionAll(
            e.select(
                F.col("dst").alias("u"), F.col("src").alias("v"),
                F.col("w_dst").alias("w_u"), F.col("w_src").alias("w_v"),
            )
        )

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

    def to_ref(self, max_rows: int) -> Optional[RefGraph]:
        """This graph as a :class:`RefGraph` on the driver, or ``None`` when
        it has more than ``max_rows`` rows (vertices + edges).

        The prefix index holds the vertices and the size, so a graph over
        the budget costs no Spark job and one under it a single collect, of
        its edges.
        """
        idx = self.index
        if self.prefix_size(idx.n) > max_rows:
            return None
        e = self.edges.select("src", "dst").toPandas()
        return RefGraph(dict(zip(idx.ids.tolist(), idx.weights.tolist())), e.to_numpy(np.int64))
