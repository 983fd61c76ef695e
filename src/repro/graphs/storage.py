"""Distributed weighted-graph storage — the paper's §3.1 graph organization
as Spark DataFrames.

The paper's two starred assumptions map onto columnar layout:

* *vertices pre-sorted in decreasing weight order* → a cached
  **prefix-size index** (rank by weight, cumulative ``size`` = vertices +
  edges of every weight-suffix subgraph), built once with a window cumsum;
* *adjacency pre-partitioned into N≥/N<* → every edge row carries
  ``w_min = min(ω(src), ω(dst))``, so the induced subgraph ``G≥τ`` is the
  Catalyst filter ``w_min ≥ τ`` on edges (each edge "belongs to" its
  lower-weight endpoint, exactly the ``N≥`` half of the split), and the
  Line-4 doubling step of Algorithm 1 is a lookup on the prefix index.

All per-query subgraph extraction therefore stays inside Catalyst; no
shuffling of the full graph is needed to start a local search.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro.ref.graph import RefGraph

NEG_INF = float("-inf")
VERTEX_SCHEMA = "id long, weight double"
EDGE_SCHEMA = "src long, dst long"


def canonical_frames(
    vertices: pd.DataFrame, edges: pd.DataFrame
) -> Tuple[pd.DataFrame, pd.DataFrame]:
    """``RefGraph``'s graph contract, applied to pandas frames.

    Edges are oriented ``src < dst`` and duplicates (in either orientation)
    dropped. Tied weights, self-loops and edges to unknown vertices raise
    ``ValueError`` with ``RefGraph``'s messages; so do repeated vertex ids,
    which a ``RefGraph``'s weight dict cannot hold.
    """
    v = vertices[["id", "weight"]].astype({"id": "int64", "weight": "float64"})
    if v["id"].duplicated().any():
        raise ValueError(f"duplicate vertex id {v['id'][v['id'].duplicated()].iloc[0]}")
    if v["weight"].duplicated().any():
        raise ValueError("vertex weights must be pairwise distinct (paper §2)")
    src = edges["src"].to_numpy(dtype=np.int64)
    dst = edges["dst"].to_numpy(dtype=np.int64)
    loops = np.flatnonzero(src == dst)
    if len(loops):
        raise ValueError(f"self-loop on {src[loops[0]]}")
    ids = v["id"].to_numpy()
    unknown = np.flatnonzero(~(np.isin(src, ids) & np.isin(dst, ids)))
    if len(unknown):
        i = unknown[0]
        raise ValueError(f"edge ({src[i]},{dst[i]}) references unknown vertex")
    e = pd.DataFrame(
        {"src": np.minimum(src, dst), "dst": np.maximum(src, dst)}
    ).drop_duplicates(ignore_index=True)
    return v, e


@dataclass
class SparkGraph:
    """Vertex-weighted undirected graph in DataFrames.

    ``vertices``: ``id: long, weight: double`` (weights pairwise distinct).
    ``edges``: canonical ``src < dst`` rows with both endpoint weights and
    ``w_min``/``w_max`` precomputed.
    """

    vertices: DataFrame
    edges: DataFrame
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
        return SparkGraph(vertices=v, edges=e)

    # ----------------------------------------------------------- basic info
    def counts(self) -> Tuple[int, int]:
        return self.vertices.count(), self.edges.count()

    def size(self) -> int:
        n, m = self.counts()
        return n + m

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
        )

    def prefix_index(self) -> DataFrame:
        """Weight-ordered prefix sizes: ``(id, weight, rank, cum_size)``.

        ``cum_size`` of the r-th row is ``size(G≥weight_r)``. Built once and
        cached; a single window cumsum over ``up_degree`` (the number of
        edges whose lower-weight endpoint is this vertex — i.e. |N≥(u)|).
        """
        if self._prefix is None:
            low_end = self.edges.select(
                F.when(F.col("w_src") < F.col("w_dst"), F.col("src"))
                .otherwise(F.col("dst"))
                .alias("id")
            )
            up_deg = low_end.groupBy("id").agg(F.count("*").alias("up_degree"))
            win = Window.orderBy(F.col("weight").desc())
            self._prefix = (
                self.vertices.join(up_deg, "id", "left")
                .fillna(0, subset=["up_degree"])
                .withColumn("rank", F.row_number().over(win))
                .withColumn(
                    "cum_size",
                    F.col("rank")
                    + F.sum("up_degree").over(
                        win.rowsBetween(Window.unboundedPreceding, 0)
                    ),
                )
                .select("id", "weight", "rank", "up_degree", "cum_size")
                .cache()
            )
        return self._prefix

    def tau_for_size(self, target: int) -> float:
        """Largest τ with ``size(G≥τ) ≥ target`` (Line 4 of Algorithm 1);
        falls back to τ_min when even the whole graph is smaller."""
        idx = self.prefix_index()
        row = idx.filter(F.col("cum_size") >= target).agg(
            F.max("weight").alias("tau")
        ).collect()[0]
        if row["tau"] is not None:
            return float(row["tau"])
        return float(idx.agg(F.min("weight")).collect()[0][0])

    def tau_for_rank(self, r: int) -> float:
        """Weight of the r-th highest-weight vertex (τ₁ heuristic, Line 1)."""
        idx = self.prefix_index()
        row = idx.filter(F.col("rank") <= r).agg(F.min("weight")).collect()[0]
        return float(row[0])

    def size_at_tau(self, tau: float) -> int:
        idx = self.prefix_index()
        row = idx.filter(F.col("weight") >= tau).agg(
            F.max("cum_size").alias("s")
        ).collect()[0]
        return int(row["s"] or 0)

    def tau_min(self) -> Optional[float]:
        """Smallest vertex weight; ``None`` for the empty graph."""
        w = self.vertices.agg(F.min("weight")).collect()[0][0]
        return None if w is None else float(w)

    def to_ref(self, max_rows: int) -> Optional[RefGraph]:
        """This graph as a :class:`RefGraph` on the driver, or ``None`` when
        it has more than ``max_rows`` rows (vertices + edges).

        Two collects, vertices then edges, each capped at the rows still
        under the budget, so a graph over it is never shipped whole.
        """
        v = self.vertices.select("id", "weight").limit(max_rows + 1).toPandas()
        if len(v) > max_rows:
            return None
        e = self.edges.select("src", "dst").limit(max_rows + 1 - len(v)).toPandas()
        if len(v) + len(e) > max_rows:
            return None
        return RefGraph(
            dict(zip(v["id"].tolist(), v["weight"].tolist())),
            zip(e["src"].tolist(), e["dst"].tolist()),
        )

    # ----------------------------------------------------------- conversion
    def to_pandas(self) -> Tuple[pd.DataFrame, pd.DataFrame]:
        return (
            self.vertices.toPandas(),
            self.edges.select("src", "dst").toPandas(),
        )


def build_spark_graph(spark: SparkSession, name: str, scale: float = 1.0) -> SparkGraph:
    """Named analog dataset as a SparkGraph (weights = PageRank ranks)."""
    from repro.graphs.weights import build_dataset_pandas

    vertices, edges = build_dataset_pandas(name, scale=scale)
    return SparkGraph.from_pandas(spark, vertices, edges)
