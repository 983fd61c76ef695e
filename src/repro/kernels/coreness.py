"""Distributed core decomposition via h-index iteration (for Table 1's γmax).

Lü et al.'s classical result: iterating ``c(u) ← H({c(v) : v ∈ N(u)})``
from ``c⁰ = degree`` converges to the core number of every vertex, where H
is the h-index (largest h such that h values are ≥ h). The h-index is
computed inside Catalyst with ``sort_array`` + ``zip_with`` — no UDF.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .common import iterate_checkpoint
from .degrees import degrees

_H_EXPR = (
    "size(filter(zip_with(sort_array(cs, false), sequence(1, size(cs)),"
    " (x, i) -> x >= i), b -> b))"
)


def coreness(vertices: DataFrame, edges: DataFrame, max_iter: int = 10_000) -> DataFrame:
    """``(id, core)`` — the core number of every vertex. Raises
    ``RuntimeError`` if ``max_iter`` rounds end before a fixed point."""
    half = edges.select(
        F.col("src").alias("u"), F.col("dst").alias("v")
    ).unionAll(edges.select(F.col("dst").alias("u"), F.col("src").alias("v")))
    half = half.cache()
    labels = iterate_checkpoint(
        degrees(edges, vertices).select("id", F.col("degree").alias("core"))
    )
    for _ in range(max_iter):
        nbr = (
            half.join(
                labels.select(F.col("id").alias("v"), F.col("core").alias("cv")),
                "v",
            )
            .groupBy("u")
            .agg(F.collect_list("cv").alias("cs"))
            .select(F.col("u").alias("id"), F.expr(_H_EXPR).alias("h"))
        )
        new_labels = labels.join(nbr, "id", "left").select(
            "id",
            F.least(F.col("core"), F.coalesce(F.col("h"), F.lit(0))).alias("core"),
            F.col("core").alias("old"),
        )
        changed = new_labels.filter(F.col("core") < F.col("old")).count()
        labels = iterate_checkpoint(new_labels.select("id", "core"))
        if changed == 0:
            break
    else:
        half.unpersist()
        raise RuntimeError(f"coreness did not converge in {max_iter} rounds")
    half.unpersist()
    return labels


def gamma_max(vertices: DataFrame, edges: DataFrame) -> int:
    """Largest γ with a non-empty γ-core (Table 1's γmax column)."""
    row = coreness(vertices, edges).agg(F.max("core")).collect()[0]
    return int(row[0] or 0)
