"""Sequential core decomposition (min-degree peeling).

Used for Table 1's γmax column at benchmark scale; the tests check it
against γ-core membership (``ref.count_ic.gamma_core_set``). The O(m)
bucket peel of Batagelj & Zaversnik ("An O(m) Algorithm for Cores
Decomposition of Networks", 2003) over the graph's rank-space CSR:
vertices kept sorted by current degree in one array, each degree bucket's
start in another.
"""
from __future__ import annotations

from typing import Dict

from .graph import RefGraph


def core_numbers(g: RefGraph) -> Dict[int, int]:
    """Core number of every vertex (max γ with v in the γ-core)."""
    indptr, nbrs = g.csr
    n = g.n
    deg = [indptr[i + 1] - indptr[i] for i in range(n)]
    # start[d]: first position of degree-d vertices in vert (a counting sort).
    start = [0] * (max(deg, default=0) + 1)
    for d in deg:
        start[d] += 1
    total = 0
    for d, c in enumerate(start):
        start[d], total = total, total + c
    vert = [0] * n
    pos = [0] * n
    for v, d in enumerate(deg):
        pos[v] = start[d]
        vert[pos[v]] = v
        start[d] += 1
    for d in range(len(start) - 1, 0, -1):
        start[d] = start[d - 1]
    if start:
        start[0] = 0
    for i in range(n):
        v = vert[i]  # least current degree among the unprocessed: deg[v] is final
        for u in nbrs[indptr[v] : indptr[v + 1]]:
            if deg[u] > deg[v]:
                # Move u to the front of its bucket, then shrink the bucket.
                du, pu = deg[u], pos[u]
                pw = start[du]
                w = vert[pw]
                if u != w:
                    pos[u], pos[w] = pw, pu
                    vert[pu], vert[pw] = w, u
                start[du] += 1
                deg[u] -= 1
    return dict(zip(g.order, deg))


def gamma_max_ref(g: RefGraph) -> int:
    """Largest γ such that the γ-core is non-empty."""
    cn = core_numbers(g)
    return max(cn.values(), default=0)
