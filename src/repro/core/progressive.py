"""Distributed LocalSearch-P (Algorithm 4): progressive streaming results.

A Python generator over the Spark substrate. Stage i labels ``G≥τ_i`` and
reports the communities of the **new** keynodes — those with weight <
τ_{i-1} (the §4 suffix property guarantees keynodes and their communities
computed in ``G≥τ_i`` stay valid in every larger subgraph, so nothing is
re-reported and nothing changes later). Communities stream out in
decreasing influence order; the consumer can stop the generator at any time
(``k`` is never needed).

The stage loop is ``repro.ref.progressive.progressive``, the shared growth
driver that the sequential version runs too. Each stage takes one of
LocalSearch's two routes (``repro.core.local_search``):

* **driver** — ``G≥τ_i`` fits :func:`driver_rows_budget`, so it is
  collected and peeled with ConstructCVS (``count_ic`` stopping at
  τ_{i-1}), and the new bands are activated in EnumIC-P's disjoint set
  (``repro.ref.progressive``), shared across stages exactly as in the
  sequential version: each community is read off the set, not re-searched.
  Per-stage Spark work is two collects; a stage's supersteps would cost a
  few dozen jobs, which dominate the latency on subgraphs of a few hundred
  rows.
* **survival** — otherwise, the survival fixed point on ``G≥τ_i``, then a
  suffix BFS per new keynode over the collected T-labelling
  (``_components_pandas``). Since sizes only grow, once a stage takes this
  route every later stage does too.
"""
from __future__ import annotations

from typing import Iterator

from pyspark.sql import functions as F

from repro.graphs.storage import SparkGraph
from repro.kernels.survival import survival_threshold
from repro.ref.count_ic import count_ic
from repro.ref.local_search import DRIVER, Stage, growth
from repro.ref.progressive import _CommunityDSU, progressive

from .enum_ic import Community, _components_pandas
from .local_search import SURVIVAL, driver_rows_budget


def local_search_progressive_spark(
    sg: SparkGraph, gamma: int, delta: float = 2.0
) -> Iterator[Community]:
    """Yield (influence, community) in decreasing influence order."""
    next_size = growth(delta)
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    budget = driver_rows_budget(sg.vertices.sparkSession)
    dsu = _CommunityDSU()

    def stage(tau: float, tau_prev: float):
        sub = sg.subgraph_ge(tau)
        g = sub.to_ref(budget)
        if g is not None:
            peel = count_ic(g, gamma, tau_stop=tau_prev)
            return Stage(tau, g.size, peel.count, DRIVER), dsu.stream(g, peel)
        surv = survival_threshold(sub.vertices, sub.edges, gamma)
        new_keys = (
            surv.labels.filter(
                (F.col("T") == F.col("weight")) & (F.col("weight") < tau_prev)
            )
            .orderBy(F.col("weight").desc())
            .collect()
        )
        st = Stage(tau, sg.size_at_tau(tau), len(new_keys), SURVIVAL, surv.iterations)
        if not new_keys:
            return st, []
        # Collect once per stage; every new community lives inside the
        # current subgraph's T-labelled vertex set.
        lpdf = surv.labels.filter(F.col("T") > float("-inf")).select("id", "T").toPandas()
        epdf = sub.edges.select("src", "dst").toPandas()
        keys = [(int(r["id"]), float(r["weight"])) for r in new_keys]
        return st, _components_pandas(lpdf, epdf, keys)

    yield from progressive(sg, 1 + gamma, next_size, stage)
