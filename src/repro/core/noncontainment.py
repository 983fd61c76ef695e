"""Distributed top-k non-containment influential community search (§5.1).

The counting loop is the shared Algorithm-1 driver
(``repro.ref.local_search.grow_top_k``), started from the sequential
version's §5.1 bound τ₁ = the k(γ+1)-th weight, and each stage takes one of
two routes by ``repro.core.local_search.spark_stage``: a ``G≥τ`` that fits
the driver budget is collected and ``ref``'s own ``nc_stage`` runs on it
(CountIC's ``nc_flags``); a larger one runs the survival fixed point,
collects its live rows with ``collect_live`` — the γ-core of ``G≥τ`` — and
runs the same ``nc_stage`` on the ``RefGraph`` of them.
"""
from __future__ import annotations

from dataclasses import replace

from repro.graphs.storage import SparkGraph
from repro.kernels.survival import survival_threshold
from repro.ref.graph import RefGraph
from repro.ref.local_search import LocalSearchResult, grow_top_k, growth
from repro.ref.noncontainment import nc_stage

from .enum_ic import collect_live
from .local_search import SURVIVAL, spark_stage


def top_k_noncontainment_spark(
    sg: SparkGraph, k: int, gamma: int, delta: float = 2.0
) -> LocalSearchResult:
    """Top-k non-containment communities, highest influence first."""

    def survival(sub: SparkGraph, tau: float):
        surv = survival_threshold(sub.vertices, sub.edges, gamma)
        # Every finite T in G≥τ is ≥ τ, so the live rows, those with T ≥ τ,
        # are the γ-core of G≥τ, and its CountIC has the same bands and flags.
        labels, edges = collect_live(surv.labels, sub.edges, tau)
        core = RefGraph(
            dict(zip(labels["id"].tolist(), labels["weight"].tolist())),
            edges.to_numpy(),
        )
        st, top = nc_stage(core, gamma)(tau)
        return replace(
            st, size=sub.size_at_tau(tau), route=SURVIVAL, supersteps=surv.iterations
        ), top

    stage = spark_stage(sg, lambda g: nc_stage(g, gamma), survival)
    # k disjoint NC communities span ≥ k·(γ+1) vertices — the §5.1 τ₁ bound.
    return grow_top_k(sg, k, k * (gamma + 1), growth(delta), stage)
