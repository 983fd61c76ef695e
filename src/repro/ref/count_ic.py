"""Exact sequential CountIC (Algorithm 2) and ConstructCVS (Algorithm 5).

``count_ic`` reduces the input graph to its γ-core, then repeatedly takes
the minimum-weight vertex ``u`` (a *keynode*, Lemma 3.5), removes it and
restores the γ-core with the queue-based ``Remove`` procedure. Each removed
vertex is appended to the community-aware vertex sequence ``cvs``; the
number of influential γ-communities equals ``len(keys)`` (Lemma 3.4).

The peel runs in rank space on int arrays over the graph's CSR
(``PrefixIndex.csr``): a degree list, an ``alive`` bytearray and a rank
queue, the O(m) core peel of Batagelj & Zaversnik. Vertices are in
decreasing weight order (§3.1 ★★), so Line 5's arg-min is a cursor that
walks the ranks down from the last one and never turns back.

With ``tau_stop`` it is ConstructCVS, the progressive variant (Algorithm
5): it stops as soon as the next minimum-weight vertex has weight ≥
``tau_stop``, producing only the *prefix* of ``keys``/``cvs`` that the
previous (smaller) subgraph did not already cover.

The module also contains independent brute-force definitions
(:func:`gamma_core_set`, :func:`survival_threshold_brute`,
:func:`keynodes_brute`) used as oracles in the tests — they recompute suffix
γ-cores from scratch and never share code with the peel.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .graph import NEG_INF, RefGraph


@dataclass
class PeelResult:
    """Output of CountIC/ConstructCVS, in the rank space of the peeled
    subgraph, with id views.

    ``ids``: the peeled subgraph's vertex ids by rank (decreasing weight);
    ``csr``: its adjacency (``PrefixIndex.csr``), which the enumerations
    read neighbours from.
    ``bands``: the cvs groups gp(u) (§3.2.2) as ranks, each headed by its
    keynode, keynodes in increasing weight order (pop order).
    ``precore``: ranks dropped by the initial γ-core reduction (not part of
    ``cvs``, per Algorithm 2 Lines 1–3).
    ``nc_flags``: for each keynode, whether it is a *non-containment* keynode
    (§5.1): no vertex removed in its group has an edge to a survivor of the
    group's removal.
    """

    ids: List[int]
    csr: Tuple[List[int], List[int]]
    bands: List[List[int]] = field(default_factory=list)
    precore: List[int] = field(default_factory=list)
    nc_flags: List[bool] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.bands)

    @property
    def keys(self) -> List[int]:
        """Keynode ids in increasing weight order."""
        return [self.ids[band[0]] for band in self.bands]

    @property
    def cvs(self) -> List[int]:
        """The community-aware vertex sequence as ids: the bands in order."""
        return [self.ids[v] for band in self.bands for v in band]

    @property
    def precore_removed(self) -> List[int]:
        return [self.ids[v] for v in self.precore]

    def groups(self) -> List[List[int]]:
        """The cvs groups gp(u) as ids, aligned with ``keys``."""
        return [[self.ids[v] for v in band] for band in self.bands]


class _Peeler:
    """γ-core peel state in rank space over the graph's CSR: degrees, an
    ``alive`` bytearray and the arg-min cursor."""

    def __init__(self, g: RefGraph, gamma: int):
        if gamma < 1:
            raise ValueError("gamma must be >= 1")
        self.gamma = gamma
        self.ids = g.order
        self.csr = g.csr
        indptr = self.csr[0]
        self.deg = [indptr[i + 1] - indptr[i] for i in range(g.n)]
        self.alive = bytearray(b"\x01") * g.n
        self.cursor = g.n - 1  # every rank past it has been removed

    def remove(self, queue: List[int]) -> List[int]:
        """Procedure ``Remove`` of Algorithm 2 for the already-killed
        ``queue``: restores the γ-core, appending each vertex it kills
        (Line 13: its degree drops below γ; each enters the queue once).
        Returns the queue, in removal order."""
        indptr, nbrs = self.csr
        deg, alive, gamma = self.deg, self.alive, self.gamma
        i = 0
        while i < len(queue):
            v = queue[i]
            i += 1
            for w in nbrs[indptr[v] : indptr[v + 1]]:
                if alive[w]:
                    deg[w] -= 1
                    if deg[w] < gamma:
                        alive[w] = 0
                        queue.append(w)
        return queue

    def reduce_core(self) -> List[int]:
        """Initial γ-core reduction (Algorithm 2, Line 1)."""
        queue = [v for v, d in enumerate(self.deg) if d < self.gamma]
        for v in queue:
            self.alive[v] = 0
        return self.remove(queue)

    def pop_min(self) -> Optional[int]:
        """Line 5's arg-min: the alive vertex of least weight."""
        while self.cursor >= 0 and not self.alive[self.cursor]:
            self.cursor -= 1
        return self.cursor if self.cursor >= 0 else None

    def remove_cascade(self, u: int) -> List[int]:
        """``Remove(u, g, cvs)``: the cvs group of keynode ``u``."""
        self.alive[u] = 0
        return self.remove([u])

    def has_edge_to_alive(self, vertices: List[int]) -> bool:
        """Does any of ``vertices`` touch a currently-alive vertex? The
        non-containment keynode test of §5.1."""
        indptr, nbrs = self.csr
        alive = self.alive
        return any(alive[w] for v in vertices for w in nbrs[indptr[v] : indptr[v + 1]])


def count_ic(g: RefGraph, gamma: int, tau_stop: Optional[float] = None) -> PeelResult:
    """Algorithm 2 (``tau_stop=None``) / Algorithm 5 (``tau_stop=τ``) on
    ``g``, which a local search hands in as its stage's ``G≥τ``
    (``RefGraph.subgraph_ge``: the layout's first rows, whose CSR costs
    O(its size)). Runs in O(size(g)): every vertex is queued at most once,
    each edge touched O(1) times, and the cursor passes each rank once.
    """
    peeler = _Peeler(g, gamma)
    weights = g.index.weights
    res = PeelResult(peeler.ids, peeler.csr, precore=peeler.reduce_core())
    while True:
        u = peeler.pop_min()
        if u is None:
            break
        if tau_stop is not None and weights[u] >= tau_stop:
            break
        band = peeler.remove_cascade(u)
        res.bands.append(band)
        res.nc_flags.append(not peeler.has_edge_to_alive(band))
    return res


# --------------------------------------------------------------------------
# Brute-force oracles (test-only; deliberately independent of the peel).
# --------------------------------------------------------------------------

def gamma_core_set(weights: Dict[int, float], edges: List[Tuple[int, int]], gamma: int) -> Set[int]:
    """Vertices of the γ-core, by naive repeated scanning (O(n·m))."""
    alive = set(weights)
    adj: Dict[int, Set[int]] = {v: set() for v in alive}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            if sum(1 for w in adj[v] if w in alive) < gamma:
                alive.discard(v)
                changed = True
    return alive


def survival_threshold_brute(g: RefGraph, gamma: int) -> Dict[int, float]:
    """``T(v) = max{τ : v ∈ γ-core(G≥τ)}`` by recomputing every suffix core.

    This is the bridge invariant between the sequential peel and the
    distributed fixed point (see DESIGN.md §2): CountIC pops keynode ``u``
    exactly when the remaining graph is γ-core(G≥ω(u)), hence
    ``keys = {u : T(u) = ω(u)}`` and cvs groups are the T-bands between
    consecutive keynode weights.
    """
    T = {v: NEG_INF for v in g.weight}
    edges = g.edge_list()
    for tau in sorted({g.weight[v] for v in g.weight}, reverse=True):
        keep = {v for v in g.weight if g.weight[v] >= tau}
        sub_edges = [(u, v) for u, v in edges if u in keep and v in keep]
        core = gamma_core_set({v: g.weight[v] for v in keep}, sub_edges, gamma)
        for v in core:
            if T[v] == NEG_INF:
                T[v] = tau  # first (largest) τ at which v appears in the core
    return T


def keynodes_brute(g: RefGraph, gamma: int) -> List[int]:
    """Keynodes = vertices surviving the γ-core of their own weight suffix."""
    T = survival_threshold_brute(g, gamma)
    ks = [v for v in g.weight if T[v] == g.weight[v]]
    return sorted(ks, key=g.weight.get)
