"""Distributed γ-truss: iterative support-based edge peeling.

Each round recomputes per-edge support on the surviving edge set and drops
edges with support < γ−2; the fixed point is the γ-truss (unique maximal
edge set with that property). Isolated vertices are implicitly removed by
taking the vertex set incident to surviving edges.
"""
from __future__ import annotations

from typing import Tuple

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .common import iterate_checkpoint
from .triangles import edge_support


def gamma_truss(edges: DataFrame, gamma: int, max_iter: int = 10_000) -> DataFrame:
    """Surviving canonical edges ``(a, b)`` of the γ-truss. Raises
    ``RuntimeError`` if ``max_iter`` rounds end before a fixed point."""
    if gamma < 2:
        raise ValueError("truss gamma must be >= 2")
    e = iterate_checkpoint(
        edges.select(
            F.least("src", "dst").alias("src"), F.greatest("src", "dst").alias("dst")
        )
    )
    m = e.count()
    for _ in range(max_iter):
        if m == 0:
            break
        sup = edge_support(e)
        keep = sup.filter(F.col("support") >= gamma - 2).select(
            F.col("a").alias("src"), F.col("b").alias("dst")
        )
        m_new = keep.count()
        if m_new == m:
            break
        e = iterate_checkpoint(keep)
        m = m_new
    else:
        if m:
            raise RuntimeError(f"γ-truss did not converge in {max_iter} rounds")
    return e.select(F.col("src").alias("a"), F.col("dst").alias("b"))


def gamma_truss_subgraph(
    vertices: DataFrame, edges: DataFrame, gamma: int
) -> Tuple[DataFrame, DataFrame]:
    """(vertices, edges) of the γ-truss; vertices without edges are dropped."""
    te = gamma_truss(edges, gamma)
    ids = (
        te.select(F.col("a").alias("id"))
        .unionAll(te.select(F.col("b").alias("id")))
        .distinct()
    )
    return vertices.join(ids, "id"), te
