"""The Algorithm-1 growth driver, and exact sequential LocalSearch over it.

:func:`grow` is Algorithm 1's Lines 1–5, written once for every variant
and engine: start from τ₁ = the weight of the ``rank``-th highest-weight
vertex (LocalSearch takes ``k + γ``: the k communities must span at least
that many distinct vertices), run one *stage* on ``G≥τ_i``, and move to the
largest τ whose ``size(G≥τ)`` (vertices + edges) reaches ``next_size`` of
the stage's size (Line 4: a factor of at least δ, :func:`growth`), until
the whole graph has been a stage. The graph supplies the weight-ordered
prefix-size lookups of the graph organization (§3.1): ``tau_for_rank``,
``tau_for_size`` and ``tau_min``, which ``RefGraph`` and ``SparkGraph``
both implement. A stage function does Line 3, the count, and returns its
:class:`Stage` record with whatever its variant enumerates from.

:func:`grow_top_k` stops the growth at ``count ≥ k`` and enumerates the
last stage. LocalSearch-P (``ref.progressive``), non-containment
(``ref.noncontainment``), LocalSearch-Truss (``ref.truss``), the
Backward/OA baselines (``ref.baselines``) and the Spark drivers
(``repro.core``) each supply only a stage function and an enumeration.

Here, :func:`local_search` peels the top-r prefix in place with CountIC
(the N≥ split, §3.1 ★★: no per-stage graph reconstruction) and finishes
with EnumIC. The stage trace records (τ, size, count) per stage; the
instance-optimality tests compare its accessed size against
``size(G≥τ*)`` (Lemma 3.8: accessed < 2δ·size(G≥τ*)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Tuple

from .count_ic import count_ic
from .enum_ic import Community, enum_ic
from .graph import RefGraph

#: Stage routes: the exact sequential peel, in this process or (Spark) on
#: the driver after collecting ``G≥τ``; Spark's other routes are its own.
DRIVER = "driver"


@dataclass
class Stage:
    tau: float
    size: int  # size(G≥τ)
    count: int  # communities the stage's count step found
    route: str = DRIVER  # how the count ran
    supersteps: int = 0  # survival fixed-point supersteps, if it ran


@dataclass
class LocalSearchResult:
    communities: List[Community]  # highest influence first
    stages: List[Stage] = field(default_factory=list)

    @property
    def accessed_size(self) -> int:
        """size of the largest (final) subgraph accessed — `size(G≥τ_h)`."""
        return self.stages[-1].size if self.stages else 0


def growth(delta: float) -> Callable[[int], int]:
    """Line 4's target: the next stage's size is at least δ times this one's."""
    if delta <= 1:
        raise ValueError("delta must be > 1")
    return lambda size: math.ceil(delta * size)


def grow(
    g, rank: int, next_size: Callable[[int], int],
    stage: Callable[[float], Tuple[Stage, Any]],
) -> Iterator[Tuple[Stage, Any]]:
    """Algorithm 1, Lines 1–5: yield ``stage(τ_i)`` for τ₁, τ₂, … until the
    stage on the whole graph. Yields nothing for ``rank ≤ 0`` or the empty
    graph. ``g`` is a ``RefGraph`` or a ``SparkGraph``."""
    if rank <= 0:
        return
    tau_min = g.tau_min()
    if tau_min is None:
        return
    tau = g.tau_for_rank(rank)
    while True:
        st, out = stage(tau)
        yield st, out
        if tau <= tau_min:
            return
        tau = g.tau_for_size(next_size(st.size))


def grow_top_k(
    g, k: int, rank: int, next_size: Callable[[int], int],
    stage: Callable[[float], Tuple[Stage, Callable[[int], List[Community]]]],
) -> LocalSearchResult:
    """Grow until a stage counts ``k`` (or is the whole graph), then
    enumerate that stage's top k. ``stage`` returns its record and its
    enumeration; ``k ≤ 0`` asks for nothing."""
    res = LocalSearchResult(communities=[])
    if k <= 0:
        return res
    for st, enumerate_top in grow(g, rank, next_size, stage):
        res.stages.append(st)
        if st.count >= k:
            break
    if res.stages:
        res.communities = enumerate_top(k)
    return res


def peel_stage(g: RefGraph, gamma: int):
    """LocalSearch's stage: CountIC on the top-r prefix, then EnumIC."""

    def stage(tau: float):
        r = g.r_for_tau(tau)
        peel = count_ic(g, gamma, prefix=r)
        return Stage(tau, g.prefix_size(r), peel.count), lambda k: enum_ic(g, peel, k)

    return stage


def local_search(
    g: RefGraph, k: int, gamma: int, delta: float = 2.0
) -> LocalSearchResult:
    """Algorithm 1. Returns top-k communities in decreasing influence order."""
    return grow_top_k(g, k, k + gamma, growth(delta), peel_stage(g, gamma))


def tau_star_size(g: RefGraph, k: int, gamma: int) -> int:
    """``size(G≥τ*)`` — smallest weight-suffix subgraph with ≥ k communities.

    Oracle for the instance-optimality bound (test-only; O(n) CountIC calls
    avoided by a single full peel: τ* is the k-th largest keynode weight of
    the full graph, and the optimal subgraph is the prefix down to it).
    """
    peel = count_ic(g, gamma)
    if peel.count < k:
        return g.size
    tau = g.weight[peel.keys[-k]]
    return g.prefix_size(g.r_for_tau(tau))
