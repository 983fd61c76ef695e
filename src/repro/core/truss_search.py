"""Distributed influential γ-truss community search (Algorithm 6, §5.2).

LocalSearch-Truss runs the shared Algorithm-1 driver, and each stage takes
one of two routes by ``repro.core.local_search.spark_stage``:

* **driver** — ``G≥τ`` fits the driver budget, so it is collected and
  ``ref``'s own ``truss_stage`` (CountICC/EnumICC, Algorithm 7) runs on it;
* **ktruss** — otherwise, a hybrid:

  1. the heavy reduction — the γ-truss of ``G≥τ`` (iterative support
     peeling, triangle joins) — runs distributed (``repro.kernels.ktruss``);
  2. the surviving truss (a *much* smaller graph: isolated vertices and
     sub-support edges are gone) is collected and the exact sequential
     CountICC/EnumICC peel (``repro.ref.truss``) finishes the per-vertex
     ordering, which is inherently sequential in the min-weight pop order.

GlobalSearch-Truss (the Eval-VIII baseline) is the ktruss pipeline applied
once to the entire graph — paying the full-graph triangle joins that
LocalSearch-Truss avoids.
"""
from __future__ import annotations

from typing import List

import numpy as np

from repro.graphs.storage import SparkGraph
from repro.kernels.ktruss import gamma_truss_subgraph
from repro.ref.graph import RefGraph
from repro.ref.local_search import LocalSearchResult, Stage, grow_top_k, growth
from repro.ref.truss import count_icc, enum_icc, truss_stage

from .enum_ic import Community
from .local_search import spark_stage

KTRUSS = "ktruss"  # the distributed γ-truss route


def _truss_peel(sub: SparkGraph, gamma: int):
    """Distributed γ-truss reduction, then exact Algorithm-7 peel."""
    tv, te = gamma_truss_subgraph(sub.vertices, sub.edges, gamma)
    vp = tv.toPandas()
    ep = te.toPandas()
    ref = RefGraph(
        dict(zip(vp["id"].astype(int), vp["weight"].astype(float))),
        ep[["a", "b"]].to_numpy(np.int64),
    )
    return ref, count_icc(ref, gamma)


def local_search_truss_spark(
    sg: SparkGraph, k: int, gamma: int, delta: float = 2.0
) -> LocalSearchResult:
    """Top-k influential γ-truss communities, highest influence first."""

    def ktruss(sub: SparkGraph, tau: float):
        ref, peel = _truss_peel(sub, gamma)
        return (
            Stage(tau, sub.size_at_tau(tau), peel.count, KTRUSS),
            lambda k: enum_icc(ref, peel, k),
        )

    stage = spark_stage(sg, lambda g: truss_stage(g, gamma), ktruss)
    return grow_top_k(sg, k, k + gamma, growth(delta), stage)


def global_search_truss_spark(sg: SparkGraph, k: int, gamma: int) -> List[Community]:
    """Eval-VIII baseline: one full-graph truss reduction + peel + enum."""
    ref, peel = _truss_peel(sg, gamma)
    return enum_icc(ref, peel, k)
