"""Distributed global-search baselines: OnlineAll and Forward.

Both process the **entire** graph regardless of k — the deficiency the
paper's local search removes. Mapped to the substrate:

* the full-graph peel (OnlineAll's subroutines 1+3 / Forward's first pass)
  is the survival-threshold fixed point over *all* of G;
* OnlineAll then extracts the connected component of **every** keynode
  (its slow subroutine 2) — a fresh BFS per community over the T-filtered
  vertex set, faithful to its per-iteration component computation;
* Forward extracts components only for the top-k keynodes.

Component extraction happens driver-side on the collected labelling (the
per-keynode BFS order is inherently sequential); the distributed cost —
which scales with size(G), not size(G≥τ*) — is the full-graph fixed point
both algorithms share.
"""
from __future__ import annotations

from typing import List

from pyspark.sql import functions as F

from repro.graphs.storage import SparkGraph
from repro.kernels.survival import survival_threshold

from repro.core.enum_ic import Community, _components_pandas


def _full_labelling(sg: SparkGraph, gamma: int):
    surv = survival_threshold(sg.vertices, sg.edges, gamma)
    lpdf = surv.labels.filter(F.col("T") > float("-inf")).toPandas()
    keep = set(lpdf["id"].astype(int))
    epdf = sg.edges.select("src", "dst").toPandas()
    epdf = epdf[epdf["src"].isin(keep) & epdf["dst"].isin(keep)]
    keyed = lpdf[lpdf["T"] == lpdf["weight"]].sort_values("weight", ascending=False)
    keys = list(zip(keyed["id"].astype(int), keyed["weight"].astype(float)))
    return lpdf, epdf, keys


def online_all_spark(sg: SparkGraph, gamma: int, k: int) -> List[Community]:
    """OnlineAll: full-graph peel + a component extraction per keynode."""
    lpdf, epdf, keys = _full_labelling(sg, gamma)
    all_comms = _components_pandas(lpdf, epdf, keys)  # every community (slow)
    return all_comms[:k]


def forward_spark(sg: SparkGraph, gamma: int, k: int) -> List[Community]:
    """Forward: full-graph peel + components for the top-k keynodes only."""
    lpdf, epdf, keys = _full_labelling(sg, gamma)
    return _components_pandas(lpdf, epdf, keys[:k])

