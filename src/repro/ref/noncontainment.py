"""Sequential top-k non-containment influential community search (§5.1).

A keynode ``u`` is a *non-containment* keynode when every vertex removed by
``Remove(u)`` (its cvs group ``gp(u)``) has no edge to the graph remaining
after the procedure — then its non-containment community is exactly
``gp(u)``. CountIC already records this flag per keynode
(:class:`repro.ref.count_ic.PeelResult.nc_flags`). Top-k search is the
shared growth driver (``ref.local_search.grow_top_k``) from the §5.1 bound
τ₁ = the k(γ+1)-th weight, whose stage counts the flagged keynodes of the
prefix's CountIC, until there are at least ``k`` of them.
"""
from __future__ import annotations

from functools import partial
from typing import List

from .count_ic import PeelResult, count_ic
from .enum_ic import Community
from .graph import RefGraph
from .local_search import LocalSearchResult, Stage, grow_top_k, growth, on_prefix


def nc_top_k(g: RefGraph, peel: PeelResult, k: int) -> List[Community]:
    """The top-k non-containment groups of a peel, highest influence first
    (nothing for ``k ≤ 0``)."""
    groups = peel.groups()
    nc = [
        (g.weight[u], frozenset(grp))
        for u, grp, flag in zip(peel.keys, groups, peel.nc_flags)
        if flag
    ]
    return nc[::-1][: max(k, 0)]


def nc_stage(sub: RefGraph, tau: float, gamma: int):
    """The non-containment stage: CountIC on ``sub`` = ``G≥τ``, counting the
    flagged keynodes, then their groups."""
    peel = count_ic(sub, gamma)
    return Stage(tau, sub.size, sum(peel.nc_flags)), lambda k: nc_top_k(sub, peel, k)


def top_k_noncontainment(
    g: RefGraph, k: int, gamma: int, delta: float = 2.0
) -> LocalSearchResult:
    """Top-k non-containment communities, highest influence first."""
    stage = on_prefix(g, partial(nc_stage, gamma=gamma))
    # k disjoint NC communities span ≥ k·(γ+1) vertices — the §5.1 τ₁ bound.
    return grow_top_k(g, k, k * (gamma + 1), growth(delta), stage)


def forward_nc(g: RefGraph, k: int, gamma: int) -> List[Community]:
    """Forward's non-containment variant [8] (Eval-VII baseline): one global
    CountIC pass over the whole graph, then report the top-k NC groups
    (nothing, and no pass, for ``k ≤ 0``)."""
    if k <= 0:
        return []
    return nc_top_k(g, count_ic(g, gamma), k)


def noncontainment_brute(g: RefGraph, gamma: int) -> List[Community]:
    """Oracle: influential γ-communities none of whose sub-communities exist.

    Directly applies Definition 5.1 — keep a community iff no other (strictly
    contained) influential γ-community is a subset of it.
    """
    from .enum_ic import all_communities_brute

    communities = all_communities_brute(g, gamma)
    out = [
        (w, s)
        for w, s in communities
        if not any(s2 < s for _, s2 in communities)
    ]
    return out
