"""Distributed top-k non-containment influential community search (§5.1).

The counting loop is the shared Algorithm-1 driver
(``repro.ref.local_search.grow_top_k``), started from the sequential
version's §5.1 bound τ₁ = the k(γ+1)-th weight, and each stage takes one of
two routes by ``repro.core.local_search.spark_stage``: a ``G≥τ`` that fits
the driver budget is collected and ``ref``'s own ``nc_stage`` runs on it
(CountIC's ``nc_flags``); a larger one runs the survival fixed point and the
same ``nc_stage`` on the γ-core of ``G≥τ``
(``repro.core.local_search.core_stage``), whose CountIC has the same bands
and flags.
"""
from __future__ import annotations

from functools import partial

from repro.graphs.storage import SparkGraph
from repro.ref.local_search import LocalSearchResult, grow_top_k, growth
from repro.ref.noncontainment import nc_stage

from .local_search import core_stage, spark_stage


def top_k_noncontainment_spark(
    sg: SparkGraph, k: int, gamma: int, delta: float = 2.0
) -> LocalSearchResult:
    """Top-k non-containment communities, highest influence first."""
    ref_stage = partial(nc_stage, gamma=gamma)
    stage = spark_stage(sg, ref_stage, core_stage(ref_stage, gamma))
    # k disjoint NC communities span ≥ k·(γ+1) vertices — the §5.1 τ₁ bound.
    return grow_top_k(sg, k, k * (gamma + 1), growth(delta), stage)
