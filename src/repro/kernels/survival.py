"""Distributed survival-threshold fixed point — the Pregel-style CountIC.

For fixed γ, define ``T(v) = max{ τ : v ∈ γ-core(G≥τ) }`` (−∞ if v is in no
suffix core). §3.2.1's sequential peel computes exactly this structure:

* keynodes are the vertices with ``T(u) = ω(u)`` (CountIC's ``keys``),
* the cvs group of keynode ``u`` is the band
  ``{ v : ω(u) ≤ T(v) < ω(next keynode) }``,
* the influential γ-community of ``u`` is the connected component of ``u``
  in the subgraph induced by ``{ v : T(v) ≥ ω(u) }``.

T satisfies the local fixed-point equation

    T(u) = min( ω(u),  γ-th largest T(v) over neighbors v of u )

and is its **greatest** fixed point: monotone iteration from ``T⁰ = ω``
converges to it from above (the weighted analogue of the h-index iteration
for core decomposition). Proof sketch (verified property-wise in tests
against the sequential brute force): any fixed point L satisfies, for every
τ, that ``{u : L(u) ≥ τ}`` induces a subgraph of min degree ≥ γ inside
``G≥τ``, hence is contained in γ-core(G≥τ), so L ≤ T pointwise; T itself is
a fixed point; and the iteration is monotone decreasing and bounded below
by T, with values drawn from the finite set of weights ∪ {−∞}.

Each superstep is one join (neighbor labels) + one grouped aggregation
(γ-th largest via ``sort_array(collect_list(...))``) — pure Catalyst.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

NEG_INF = float("-inf")


@dataclass
class SurvivalResult:
    """``labels``: (id, weight, T). ``iterations``: supersteps to converge."""

    labels: DataFrame
    iterations: int


def survival_threshold(
    vertices: DataFrame,
    edges: DataFrame,
    gamma: int,
    max_iter: int = 10_000,
) -> SurvivalResult:
    """Fixed point of ``T(u) = min(ω(u), γ-th largest neighbor T)``.

    ``vertices``: (id, weight); ``edges``: canonical rows with src/dst.
    Vertices in no suffix γ-core end with ``T = −∞``. Raises
    ``RuntimeError`` if ``max_iter`` supersteps end before a fixed point.
    """
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    half = edges.select(
        F.col("src").alias("u"), F.col("dst").alias("v")
    ).unionAll(edges.select(F.col("dst").alias("u"), F.col("src").alias("v")))
    half = half.cache()
    labels = vertices.select("id", "weight", F.col("weight").alias("T"))
    # Cut the lineage every superstep, or the plan doubles each round and
    # Catalyst analysis time blows up. A local checkpoint (executor storage)
    # is fine for a single-host session, and much cheaper than a reliable one.
    labels = labels.localCheckpoint(eager=True)
    # get() (not [..]) so fewer-than-γ neighbors yields NULL under ANSI mode.
    kth = F.expr(f"get(sort_array(collect_list(Tv), false), {gamma - 1})")
    it = 0
    while it < max_iter:
        it += 1
        nbr = (
            half.join(
                labels.select(F.col("id").alias("v"), F.col("T").alias("Tv")), "v"
            )
            .groupBy("u")
            .agg(kth.alias("kth"))
        )
        new_labels = (
            labels.join(nbr.withColumnRenamed("u", "id"), "id", "left")
            .select(
                "id",
                "weight",
                F.least(
                    F.col("weight"), F.coalesce(F.col("kth"), F.lit(NEG_INF))
                ).alias("T_new"),
                "T",
            )
        )
        changed = new_labels.filter(F.col("T_new") < F.col("T")).count()
        labels = new_labels.select(
            "id", "weight", F.col("T_new").alias("T")
        ).localCheckpoint(eager=True)
        if changed == 0:
            break
    else:
        half.unpersist()
        raise RuntimeError(f"survival threshold did not converge in {max_iter} supersteps")
    half.unpersist()
    return SurvivalResult(labels=labels, iterations=it)


def keynodes(labels: DataFrame) -> DataFrame:
    """Keynodes from a survival labelling: ``T(u) = ω(u)``."""
    return labels.filter(F.col("T") == F.col("weight"))


def count_keynodes(labels: DataFrame) -> int:
    """Number of influential γ-communities (Lemma 3.4)."""
    return keynodes(labels).count()
