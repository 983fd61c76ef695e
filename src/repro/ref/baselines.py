"""Sequential baseline algorithms the paper compares against.

* :func:`online_all` — OnlineAll [Li et al., PVLDB'15]: global search that
  computes **every** influential γ-community in increasing influence order by
  iterating (1) γ-core reduction, (2) connected-component extraction around
  the minimum-weight vertex, (3) removal of that vertex. Subroutine (2) is
  executed for every keynode, which is what makes it slow (§1).
* :func:`forward` — Forward [Chen et al., CIKM'16]: same peel, but the
  connected-component subroutine runs only for the **last k** keynodes; needs
  a first pass to learn the total keynode count.
* :func:`backward_arith` — stand-in for Backward [8]: a local search with the
  *arithmetic* growth schedule analysed in the §3.3 Remark (grow the prefix
  by a constant amount per round, re-run CountIC from scratch each round),
  reproducing Backward's quadratic-in-accessed-size cost shape. The true
  Backward's details live in [8] and are not in the reproduced text
  (substitution recorded in DESIGN.md §4).
* :func:`local_search_oa` — LocalSearch-OA (Eval-III): Algorithm 1's driver
  loop with CountIC replaced by OnlineAll-style counting (enumerating every
  community, BFS included, just to count them).
"""
from __future__ import annotations

from functools import partial
from typing import List, Optional

from .count_ic import _Peeler, count_ic
from .enum_ic import Community, enum_ic
from .graph import RefGraph
from .local_search import LocalSearchResult, Stage, grow_top_k, growth, on_prefix, peel_stage


def _component(peeler: _Peeler, u: int) -> frozenset:
    """Ids of the alive component of rank ``u`` in the peeler's subgraph."""
    indptr, nbrs = peeler.csr
    alive = peeler.alive
    comp = {u}
    stack = [u]
    while stack:
        v = stack.pop()
        for w in nbrs[indptr[v] : indptr[v + 1]]:
            if alive[w] and w not in comp:
                comp.add(w)
                stack.append(w)
    return frozenset(peeler.ids[v] for v in comp)


def online_all(g: RefGraph, gamma: int, k: Optional[int] = None) -> List[Community]:
    """All influential γ-communities, **increasing** influence order.

    If ``k`` is given, only the last k are returned (still increasing order —
    callers wanting the paper's top-k reverse it).
    """
    peeler = _Peeler(g, gamma)
    peeler.reduce_core()
    out: List[Community] = []
    while True:
        u = peeler.pop_min()
        if u is None:
            break
        out.append((g.weight[peeler.ids[u]], _component(peeler, u)))
        peeler.remove_cascade(u)
    return out[max(len(out) - k, 0):] if k is not None else out


def forward(g: RefGraph, k: int, gamma: int) -> List[Community]:
    """Top-k communities, highest influence first (two-pass Forward)."""
    total = count_ic(g, gamma).count  # pass 1: count only
    peeler = _Peeler(g, gamma)
    peeler.reduce_core()
    out: List[Community] = []
    i = 0
    while True:
        u = peeler.pop_min()
        if u is None:
            break
        i += 1
        if i > total - k:  # pass 2: components only for the last k keynodes
            out.append((g.weight[peeler.ids[u]], _component(peeler, u)))
        peeler.remove_cascade(u)
    return list(reversed(out))


def backward_arith(g: RefGraph, k: int, gamma: int) -> LocalSearchResult:
    """Backward stand-in: arithmetic-growth local search (§3.3 Remark).

    Backward [8] grows the candidate subgraph vertex by vertex in
    decreasing weight order, redoing the community computation each round —
    Θ(accessed²) overall. We re-run CountIC from scratch after every single
    added vertex (``size + 1`` is the prefix with one vertex more),
    reproducing that cost shape (substitution recorded in DESIGN.md §4;
    stage records are kept per round)."""
    stage = on_prefix(g, partial(peel_stage, gamma=gamma))
    return grow_top_k(g, k, k + gamma, lambda size: size + 1, stage)


def local_search_oa(
    g: RefGraph, k: int, gamma: int, delta: float = 2.0
) -> LocalSearchResult:
    """Algorithm 1 with CountIC swapped for OnlineAll-based counting."""

    def stage(sub: RefGraph, tau: float):
        # enumerates (BFS per community) just to count
        count = len(online_all(sub, gamma))
        return Stage(tau, sub.size, count), lambda k: enum_ic(sub, count_ic(sub, gamma), k)

    return grow_top_k(g, k, k + gamma, growth(delta), on_prefix(g, stage))
