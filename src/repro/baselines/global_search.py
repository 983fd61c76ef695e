"""Distributed global-search baselines: OnlineAll and Forward.

Both process the **entire** graph regardless of k — the deficiency the
paper's local search removes — except that ``k ≤ 0`` asks for nothing and
runs nothing. Mapped to the substrate:

* the full-graph peel (OnlineAll's subroutines 1+3 / Forward's first pass)
  is the survival-threshold fixed point over *all* of G;
* OnlineAll then extracts the community of **every** keynode (its
  subroutine 2);
* Forward extracts communities only for the top-k keynodes.

Communities are built driver-side on the collected labelling, by one
activation pass of the shared disjoint-set builder
(``repro.core.enum_ic._components_pandas``); the distributed cost — which
scales with size(G), not size(G≥τ*) — is the full-graph fixed point both
algorithms share.
"""
from __future__ import annotations

from typing import List

from repro.graphs.storage import SparkGraph
from repro.kernels.survival import survival_threshold

from repro.core.enum_ic import Community, _components_pandas, collect_live


def _full_labelling(sg: SparkGraph, gamma: int):
    """The full-graph labelling: the vertices with finite ``T``, the edges
    between them (every finite ``T`` is ≥ τ_min, so ``collect_live`` at
    τ_min collects exactly these) and the keynodes, heaviest first."""
    surv = survival_threshold(sg.vertices, sg.edges, gamma)
    lpdf, epdf = collect_live(surv.labels, sg.edges, sg.tau_min())
    keyed = lpdf[lpdf["T"] == lpdf["weight"]].sort_values("weight", ascending=False)
    keys = list(zip(keyed["id"].astype(int), keyed["weight"].astype(float)))
    return lpdf, epdf, keys


def online_all_spark(sg: SparkGraph, gamma: int, k: int) -> List[Community]:
    """OnlineAll: full-graph peel + a component extraction per keynode."""
    if k <= 0:
        return []
    lpdf, epdf, keys = _full_labelling(sg, gamma)
    all_comms = _components_pandas(lpdf, epdf, keys)  # every community
    return all_comms[:k]


def forward_spark(sg: SparkGraph, gamma: int, k: int) -> List[Community]:
    """Forward: full-graph peel + components for the top-k keynodes only."""
    if k <= 0:
        return []
    lpdf, epdf, keys = _full_labelling(sg, gamma)
    return _components_pandas(lpdf, epdf, keys[:k])

