"""Distributed top-k non-containment influential community search (§5.1).

The T-band view of §5.1 (see DESIGN.md §2): let the keynodes of the current
subgraph be ``u_1 < u_2 < …`` by weight, with ``next(u_i) = ω(u_{i+1})``
(+∞ for the last). Then

* ``gp(u_i) = { v : ω(u_i) ≤ T(v) < next(u_i) }``, and
* ``u_i`` is a **non-containment** keynode iff no edge connects ``gp(u_i)``
  to ``{ v : T(v) ≥ next(u_i) }`` — in which case its non-containment
  community is exactly ``gp(u_i)``.

The counting loop is the shared Algorithm-1 driver
(``repro.ref.local_search.grow_top_k``), started from the sequential
version's §5.1 bound τ₁ = the k(γ+1)-th weight, with this NC test as its
stage count. The test runs on the collected (small) accessed subgraph:
bands are a ``numpy.searchsorted`` over the keynode weights, the edge test
a vectorized comparison. The distributed part is the survival fixed point
on ``G≥τ``.
"""
from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import functions as F

from repro.graphs.storage import SparkGraph
from repro.kernels.survival import survival_threshold
from repro.ref.local_search import LocalSearchResult, Stage, grow_top_k, growth

from .enum_ic import Community
from .local_search import SURVIVAL


def _nc_analysis(
    labels: pd.DataFrame, edges: pd.DataFrame
) -> Tuple[List[Tuple[int, float]], np.ndarray, pd.DataFrame]:
    """(keynodes asc, nc_flags asc, labels-with-bands) for one subgraph."""
    keyed = labels[labels["T"] == labels["weight"]].sort_values("weight")
    kw = keyed["weight"].to_numpy()
    ids = keyed["id"].to_numpy()
    # band(v) = index of the largest keynode weight ≤ T(v); -1 if none.
    band = np.searchsorted(kw, labels["T"].to_numpy(), side="right") - 1
    labels = labels.assign(band=band)
    t_of = dict(zip(labels["id"].astype(int), labels["T"].astype(float)))
    band_of = dict(zip(labels["id"].astype(int), labels["band"].astype(int)))
    nxt = np.append(kw[1:], np.inf)
    nc = np.ones(len(kw), dtype=bool)
    for s, d in zip(edges["src"].astype(int), edges["dst"].astype(int)):
        for a, b in ((s, d), (d, s)):
            ba = band_of.get(a, -1)
            if ba >= 0 and t_of.get(b, -np.inf) >= nxt[ba]:
                nc[ba] = False
    keys = [(int(i), float(w)) for i, w in zip(ids, kw)]
    return keys, nc, labels


def top_k_noncontainment_spark(
    sg: SparkGraph, k: int, gamma: int, delta: float = 2.0
) -> LocalSearchResult:
    """Top-k non-containment communities, highest influence first."""

    def stage(tau: float):
        sub = sg.subgraph_ge(tau)
        surv = survival_threshold(sub.vertices, sub.edges, gamma)
        lpdf = surv.labels.filter(F.col("T") > float("-inf")).toPandas()
        epdf = sub.edges.select("src", "dst").toPandas()
        epdf = epdf[
            epdf["src"].isin(set(lpdf["id"])) & epdf["dst"].isin(set(lpdf["id"]))
        ]
        keys, nc, banded = _nc_analysis(lpdf, epdf)
        st = Stage(tau, sg.size_at_tau(tau), int(nc.sum()), SURVIVAL, surv.iterations)

        def enumerate_top(k: int) -> List[Community]:
            out: List[Community] = []
            for i in reversed(range(len(keys))):
                if nc[i] and len(out) < k:
                    members = banded.loc[banded["band"] == i, "id"].astype(int)
                    out.append((keys[i][1], frozenset(members)))
            return out

        return st, enumerate_top

    # k disjoint NC communities span ≥ k·(γ+1) vertices — the §5.1 τ₁ bound.
    return grow_top_k(sg, k, k * (gamma + 1), growth(delta), stage)
