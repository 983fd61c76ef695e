"""Semi-external LocalSearch-SE and OnlineAll-SE (Eval-VI).

**LocalSearch-SE** is the §3.1 Remark's algorithm: the progressive local
search where each subgraph enlargement loads the next consecutive run of
weight-sorted edge blocks from disk. Its growth loop is the shared
Algorithm-1 driver (``repro.ref.local_search.grow_top_k``) over the store's
prefix-index lookups, which the memory-resident vertex table answers. Edges
are stored by decreasing ``w_min``, so the edges of ``G≥τ`` are exactly the
first ``size_at_tau(τ) − r_for_tau(τ)`` of the file: a stage reads blocks
until that many are in, builds ``G≥τ`` from them and the top
``r_for_tau(τ)`` vertices, and peels it with CountIC (then EnumIC). The
rows are ``G≥τ``'s layout, checked when the store was written, so the
stage graph is ``RefGraph(index=store.index.head(r).with_edges(src, dst))``:
no contract check and no sort, only a check that the rows fit the vertex
table (``ValueError`` otherwise). Only the
prefix of the file covering the accessed subgraph ``G≥τ_h`` is ever read,
and only those edges are resident — both the I/O and the memory footprint
inherit the instance-optimal locality.

**OnlineAll-SE** is the global semi-external baseline. [27]'s variant keeps
a memory-budget worth of edges and evicts community edges after each batch;
its eviction/contraction bookkeeping is replaced here by an equivalent
bounded-memory scheme (substitution in DESIGN.md §4):

1. the survival threshold T is computed by the *streaming* fixed point —
   each iteration is one full sequential scan of the edge file, holding only
   per-vertex state (weights, labels, a size-γ top-heap), exactly the
   "constant information regarding vertices" the semi-external model allows;
2. one final full scan in decreasing weight order feeds a union-find whose
   pending buffer holds an edge only between its file position and its
   activation level min(T(a), T(b)), emitting every community at its
   keynode boundary.

The essential cost characteristics match [27]: whole-file scans (several of
them), memory bounded by vertex state + a small transit buffer, and total
work proportional to size(G) — versus LocalSearch-SE's prefix-only reads.
"""
from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ref.count_ic import count_ic
from repro.ref.enum_ic import Community, _CommunityDSU, enum_ic
from repro.ref.graph import NEG_INF, RefGraph
from repro.ref.local_search import Stage, grow_top_k, growth

from .storage import EdgeBlockStore


# --------------------------------------------------------------------------
# LocalSearch-SE
# --------------------------------------------------------------------------

def local_search_se(
    store: EdgeBlockStore, k: int, gamma: int, delta: float = 2.0
) -> Tuple[List[Community], EdgeBlockStore]:
    """Top-k communities reading only the needed weight-prefix of the file."""
    next_size = growth(delta)
    blocks = (store.read_block(i) for i in range(store.n_blocks))
    loaded = [(np.empty(0, np.int64), np.empty(0, np.int64))]  # the loaded edge prefix
    n_loaded = 0

    def stage(tau: float):
        nonlocal n_loaded
        r = store.r_for_tau(tau)
        m = store.size_at_tau(tau) - r  # |E(G≥τ)|: the first m edges
        while n_loaded < m:
            blk = next(blocks, None)
            if blk is None:
                break  # the file ends early: ``with_edges`` rejects the rows
            loaded.append((blk["src"].to_numpy(), blk["dst"].to_numpy()))
            n_loaded += blk.num_rows
            store.note_resident(n_loaded)
        src, dst = (np.concatenate(col)[:m] for col in zip(*loaded))
        sub = RefGraph(index=store.index.head(r).with_edges(src, dst))
        peel = count_ic(sub, gamma)
        return Stage(tau, sub.size, peel.count), lambda k: enum_ic(sub, peel, k)

    return grow_top_k(store, k, k + gamma, next_size, stage).communities, store


# --------------------------------------------------------------------------
# OnlineAll-SE
# --------------------------------------------------------------------------

def _streaming_T(
    store: EdgeBlockStore, weights: np.ndarray, gamma: int, max_iter: int = 10_000
) -> np.ndarray:
    """Survival threshold by full-file-scan fixed-point iterations; raises
    ``RuntimeError`` if ``max_iter`` scans end before a fixed point."""
    n = len(weights)
    L = weights.copy()
    for _ in range(max_iter):
        heaps: List[list] = [[] for _ in range(n)]

        def push(u: int, val: float) -> None:
            h = heaps[u]
            if len(h) < gamma:
                heapq.heappush(h, val)
            elif val > h[0]:
                heapq.heapreplace(h, val)

        for blk in store.scan():
            for a, b in zip(blk["src"].to_numpy(), blk["dst"].to_numpy()):
                push(int(a), L[b])
                push(int(b), L[a])
        newL = np.array(
            [
                min(weights[u], heaps[u][0]) if len(heaps[u]) == gamma else NEG_INF
                for u in range(n)
            ]
        )
        if np.array_equal(newL, L):
            return L
        L = newL
    raise RuntimeError(f"survival threshold did not converge in {max_iter} scans")


def online_all_se(
    store: EdgeBlockStore, gamma: int, k: Optional[int] = None
) -> Tuple[List[Community], EdgeBlockStore]:
    """All communities in decreasing influence order (top-``k`` if given;
    nothing, and no scan, for ``k ≤ 0``)."""
    if k is not None and k <= 0:
        return [], store
    vp = store.vertices().sort_by("id")
    ids = vp["id"].to_numpy()
    if not np.array_equal(ids, np.arange(len(ids))):
        raise ValueError("OnlineAll-SE needs vertex ids 0..n-1")
    weights = vp["weight"].to_numpy().astype(float)
    T = _streaming_T(store, weights, gamma)
    key_mask = T == weights
    key_order = np.argsort(-weights[key_mask])
    keys = np.flatnonzero(key_mask)[key_order]  # decreasing weight
    dsu = _CommunityDSU()
    for v in np.flatnonzero(T > NEG_INF).tolist():
        dsu.add(v)
    pending: Dict[float, List[Tuple[int, int]]] = {}
    out: List[Community] = []
    ki = 0
    resident = 0

    def settle_down_to(bound: float) -> None:
        """Union every buffered edge whose activation level is ≥ bound."""
        nonlocal resident
        for lvl in sorted((l for l in pending if l >= bound), reverse=True):
            for a, b in pending.pop(lvl):
                dsu.union(a, b)
                resident -= 1

    def emit_keys_strictly_above(frontier: float) -> None:
        """A keynode u finalizes once every edge with w_min ≥ ω(u) has been
        seen — i.e. when the stream frontier drops strictly below ω(u)."""
        nonlocal ki
        while ki < len(keys) and weights[keys[ki]] > frontier:
            u = int(keys[ki])
            settle_down_to(weights[u])
            out.append((float(weights[u]), dsu.community(u)))
            ki += 1

    for blk in store.scan():
        for a, b, wm in zip(
            blk["src"].to_numpy(), blk["dst"].to_numpy(), blk["w_min"].to_numpy()
        ):
            emit_keys_strictly_above(wm)
            lvl = min(T[a], T[b])
            if lvl > NEG_INF:
                pending.setdefault(float(lvl), []).append((int(a), int(b)))
                resident += 1
                store.note_resident(resident)
    emit_keys_strictly_above(NEG_INF)
    return out[:k], store
