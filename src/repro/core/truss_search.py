"""Distributed influential γ-truss community search (Algorithm 6, §5.2).

LocalSearch-Truss runs the shared Algorithm-1 driver, and each stage takes
one of two routes by ``repro.core.local_search.spark_stage``:

* **driver** — ``G≥τ`` fits the driver budget, so it is collected and
  ``ref``'s own ``truss_stage`` (CountICC/EnumICC, Algorithm 7) runs on it;
* **survival** — otherwise, the survival fixed point at γ−1 reduces
  ``G≥τ`` to its (γ−1)-core, which holds every γ-truss of the stage
  (``repro.core.local_search.core_stage``); only the core is collected, and
  the same ``truss_stage`` runs on it.

GlobalSearch-Truss (the Eval-VIII baseline) is ``ref.truss.global_search_truss``.
"""
from __future__ import annotations

from functools import partial

from repro.graphs.storage import SparkGraph
from repro.ref.local_search import LocalSearchResult, grow_top_k, growth
from repro.ref.truss import truss_stage

from .local_search import core_stage, spark_stage


def local_search_truss_spark(
    sg: SparkGraph, k: int, gamma: int, delta: float = 2.0
) -> LocalSearchResult:
    """Top-k influential γ-truss communities, highest influence first."""
    ref_stage = partial(truss_stage, gamma=gamma)
    # Every edge of a γ-truss lies in ≥ γ−2 triangles, so each of its ends has
    # ≥ γ−1 truss neighbours: γ-truss(G≥ω(u)) ⊆ (γ−1)-core(G≥τ) for every
    # ω(u) ≥ τ, and CountICC finds the same keys and edge groups on the core.
    # The floor of 1 lets γ < 2 reach count_icc's "truss gamma must be >= 2"
    # rather than the survival fixed point's own γ check.
    stage = spark_stage(sg, ref_stage, core_stage(ref_stage, max(gamma - 1, 1)))
    return grow_top_k(sg, k, k + gamma, growth(delta), stage)
