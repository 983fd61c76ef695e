"""Exact sequential LocalSearch-P (Algorithms 4 & 5).

A Python generator that yields influential γ-communities in **decreasing
influence value order**, without requiring ``k``. Per stage i it:

1. peels the doubled weight-prefix subgraph with ConstructCVS (Algorithm 5)
   — CountIC stopping once the next minimum-weight vertex has weight ≥
   τ_{i-1}, so only the *new* prefix of ``keys``/``cvs`` is produced (the §4
   suffix property: keys/cvs of ``G≥τ_i`` is a suffix of ``G≥τ_{i+1}``'s);
2. yields the new keynodes' communities in decreasing weight order.

Community construction is EnumIC-P's disjoint set (§4),
``ref.enum_ic._CommunityDSU``, kept across stages: cvs bands are activated
in decreasing keynode-weight order — globally consistent across stages
because every stage's new bands lie strictly below the previous stage's —
so each community is read off the set, never re-searched.

The stage loop is the shared growth driver (``ref.local_search.grow``),
started at rank ``1 + γ`` and never stopped by a count: :func:`progressive`
runs it, with :func:`progressive_stage`, for this module and for the Spark
version (``repro.core.progressive``), whose driver route is that same stage.
"""
from __future__ import annotations

from functools import partial
from typing import Iterator

from .count_ic import count_ic
from .enum_ic import Community, _CommunityDSU
from .graph import RefGraph
from .local_search import Stage, grow, growth, on_prefix


def progressive(g, rank: int, next_size, stage) -> Iterator[Community]:
    """Algorithm 4's stream over the growth driver: ``stage(τ_i, τ_{i-1})``
    returns its record and the communities of its new keynodes (weight
    < τ_{i-1}; τ₀ = +∞), highest influence first."""
    tau_prev = float("inf")
    for st, new in grow(g, rank, next_size, lambda tau: stage(tau, tau_prev)):
        yield from new
        tau_prev = st.tau


def progressive_stage(
    sub: RefGraph, tau: float, tau_prev: float, gamma: int, dsu: _CommunityDSU
):
    """LocalSearch-P's stage: ConstructCVS on ``sub`` = ``G≥τ`` down to
    τ_{i-1}, then the new bands' communities from the shared ``dsu``."""
    peel = count_ic(sub, gamma, tau_stop=tau_prev)
    return Stage(tau, sub.size, peel.count), dsu.stream(sub, peel)


def local_search_progressive(
    g: RefGraph, gamma: int, delta: float = 2.0
) -> Iterator[Community]:
    """Algorithm 4: yield ``(influence, frozenset)``, highest influence first."""
    stage = on_prefix(g, partial(progressive_stage, gamma=gamma, dsu=_CommunityDSU()))
    yield from progressive(g, 1 + gamma, growth(delta), stage)
