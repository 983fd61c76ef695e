"""Distributed influential γ-truss community search (Algorithm 6, §5.2).

LocalSearch-Truss maps Algorithm 6 to the substrate as a hybrid:

1. the candidate subgraph ``G≥τ`` is extracted by Catalyst filter;
2. the heavy reduction — the γ-truss of ``G≥τ`` (iterative support peeling,
   triangle joins) — runs distributed (``repro.kernels.ktruss``);
3. the surviving truss (a *much* smaller graph: isolated vertices and
   sub-support edges are gone) is collected and the exact sequential
   CountICC/EnumICC peel (Algorithm 7, ``repro.ref.truss``) finishes the
   per-vertex ordering, which is inherently sequential in the min-weight
   pop order.

GlobalSearch-Truss (the Eval-VIII baseline) is the same pipeline applied
once to the entire graph — paying the full-graph triangle joins that
LocalSearch-Truss avoids.
"""
from __future__ import annotations

from typing import List

from repro.graphs.storage import SparkGraph
from repro.kernels.ktruss import gamma_truss_subgraph
from repro.ref.graph import RefGraph
from repro.ref.local_search import LocalSearchResult, Stage, grow_top_k, growth
from repro.ref.truss import count_icc, enum_icc

from .enum_ic import Community


def _truss_peel(sub: SparkGraph, gamma: int):
    """Distributed γ-truss reduction, then exact Algorithm-7 peel."""
    tv, te = gamma_truss_subgraph(sub.vertices, sub.edges, gamma)
    vp = tv.toPandas()
    ep = te.toPandas()
    ref = RefGraph(
        dict(zip(vp["id"].astype(int), vp["weight"].astype(float))),
        list(zip(ep["a"].astype(int), ep["b"].astype(int))),
    )
    return ref, count_icc(ref, gamma)


def local_search_truss_spark(
    sg: SparkGraph, k: int, gamma: int, delta: float = 2.0
) -> LocalSearchResult:
    """Top-k influential γ-truss communities, highest influence first."""

    def stage(tau: float):
        ref, peel = _truss_peel(sg.subgraph_ge(tau), gamma)
        return (
            Stage(tau, sg.size_at_tau(tau), peel.count, "truss"),
            lambda k: enum_icc(ref, peel, k),
        )

    return grow_top_k(sg, k, k + gamma, growth(delta), stage)


def global_search_truss_spark(sg: SparkGraph, k: int, gamma: int) -> List[Community]:
    """Eval-VIII baseline: one full-graph truss reduction + peel + enum."""
    ref, peel = _truss_peel(sg, gamma)
    return enum_icc(ref, peel, k)
