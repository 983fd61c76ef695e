"""Distributed LocalSearch-P (Algorithm 4): progressive streaming results.

A Python generator over the Spark substrate. Stage i labels ``G≥τ_i`` and
reports the communities of the **new** keynodes — those with weight <
τ_{i-1} (the §4 suffix property guarantees keynodes and their communities
computed in ``G≥τ_i`` stay valid in every larger subgraph, so nothing is
re-reported and nothing changes later). Communities stream out in
decreasing influence order; the consumer can stop the generator at any time
(``k`` is never needed).

The stage loop is ``repro.ref.progressive.progressive``, the shared growth
driver that the sequential version runs too, and each stage takes one of
two routes by ``repro.core.local_search.spark_stage``:

* **driver** — ``G≥τ_i`` fits the driver budget, so it is collected and
  ``ref``'s own ``progressive_stage`` runs on it: ConstructCVS
  (``count_ic`` stopping at τ_{i-1}), and the new bands activated in
  EnumIC-P's disjoint set, shared across stages exactly as in the
  sequential version: each community is read off the set, not re-searched.
  Per-stage Spark work is one collect; a stage's supersteps would cost a
  few dozen jobs, which dominate the latency on subgraphs of a few hundred
  rows.
* **survival** — otherwise, the survival fixed point on ``G≥τ_i``, then
  the new keynodes' communities from one activation pass of the same
  disjoint-set builder (``_components_pandas``) over the vertices with
  ``T`` ≥ the lowest new keynode's weight and the edges between them, the
  only rows collected. Since sizes only grow, once a stage takes this
  route every later stage does too.
"""
from __future__ import annotations

from functools import partial
from typing import Iterator

from pyspark.sql import functions as F

from repro.graphs.storage import SparkGraph
from repro.kernels.survival import survival_threshold
from repro.ref.local_search import Stage, growth
from repro.ref.enum_ic import _CommunityDSU
from repro.ref.progressive import progressive, progressive_stage

from .enum_ic import Community, _components_pandas, collect_live
from .local_search import SURVIVAL, spark_stage


def local_search_progressive_spark(
    sg: SparkGraph, gamma: int, delta: float = 2.0
) -> Iterator[Community]:
    """Yield (influence, community) in decreasing influence order."""
    next_size = growth(delta)
    dsu = _CommunityDSU()

    def survival(sub: SparkGraph, tau: float, tau_prev: float):
        surv = survival_threshold(sub.vertices, sub.edges, gamma)
        new_keys = (
            surv.labels.filter(
                (F.col("T") == F.col("weight")) & (F.col("weight") < tau_prev)
            )
            .orderBy(F.col("weight").desc())
            .collect()
        )
        st = Stage(tau, sub.size_at_tau(tau), len(new_keys), SURVIVAL, surv.iterations)
        if not new_keys:
            return st, []
        # Collect once per stage; every new community lives inside
        # {v : T(v) ≥ ω(lowest new keynode)}.
        keys = [(int(r["id"]), float(r["weight"])) for r in new_keys]
        lpdf, epdf = collect_live(surv.labels, sub.edges, keys[-1][1])
        return st, _components_pandas(lpdf, epdf, keys)

    stage = spark_stage(sg, partial(progressive_stage, gamma=gamma, dsu=dsu), survival)
    yield from progressive(sg, 1 + gamma, next_size, stage)
