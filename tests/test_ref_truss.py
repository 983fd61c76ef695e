"""γ-truss extension (§5.2): peel vs brute-force oracles, paper facts."""
import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.ref.count_ic import gamma_core_set, keynodes_brute
from repro.ref.enum_ic import all_communities_brute
from repro.ref.graph import RefGraph
from repro.ref.noncontainment import nc_stage
from repro.ref.truss import (
    count_icc,
    enum_icc,
    global_search_truss,
    local_search_truss,
    truss_community_brute,
    truss_edges_brute,
    truss_keynodes_brute,
    truss_stage,
)

from .paper_graphs import fig3_graph


@st.composite
def random_graph(draw, max_n=18):
    n = draw(st.integers(3, max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = draw(st.integers(0, len(possible)))
    idx = draw(st.permutations(range(len(possible))))
    edges = [possible[i] for i in idx[:m]]
    perm = draw(st.permutations(range(n)))
    return RefGraph({v: float(perm[v] + 1) for v in range(n)}, edges)


GAMMAS = st.integers(2, 4)


@settings(max_examples=50, deadline=None)
@given(g=random_graph(), gamma=GAMMAS)
def test_counticc_keys_equal_brute(g, gamma):
    assert count_icc(g, gamma).keys == truss_keynodes_brute(g, gamma)


@settings(max_examples=40, deadline=None)
@given(g=random_graph(), gamma=GAMMAS, k=st.integers(1, 4))
def test_enumicc_matches_brute_components(g, gamma, k):
    peel = count_icc(g, gamma)
    got = enum_icc(g, peel, k)
    want = [
        (g.weight[u], truss_community_brute(g, gamma, u))
        for u in reversed(peel.keys[-k:])
    ]
    assert got == want


@settings(max_examples=30, deadline=None)
@given(g=random_graph(), gamma=GAMMAS, k=st.integers(-3, 4))
def test_local_equals_global_truss(g, gamma, k):
    got = global_search_truss(g, k, gamma)
    assert local_search_truss(g, k, gamma).communities == got
    assert k > 0 or got == []  # k ≤ 0 asks for nothing


@settings(max_examples=30, deadline=None)
@given(g=random_graph(), gamma=GAMMAS)
def test_truss_reduction_fixpoint(g, gamma):
    """Every surviving edge has ≥ γ−2 triangles inside the survivor set."""
    alive = truss_edges_brute(g.weight, g.edge_list(), gamma)
    adj = {}
    for a, b in alive:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    for a, b in alive:
        assert len(adj[a] & adj[b]) >= gamma - 2


@settings(max_examples=25, deadline=None)
@given(g=random_graph(max_n=14), gamma=st.integers(3, 4))
def test_truss_implies_core_relationship(g, gamma):
    """Eval-IX note: a γ-truss community is inside a (γ−1)-community with the
    same influence value."""
    for w, s in global_search_truss(g, k=10**6, gamma=gamma):
        core_comms = all_communities_brute(g, gamma - 1)
        assert any(s <= s2 and w2 == w for w2, s2 in core_comms)


def core_of(g: RefGraph, tau: float, gamma: int) -> RefGraph:
    """The ``RefGraph`` of γ-core(G≥τ): what the Spark survival route collects."""
    sub = g.subgraph_ge(tau)
    keep = gamma_core_set(sub.weight, sub.edge_list(), gamma)
    return RefGraph(
        {v: g.weight[v] for v in keep},
        [(a, b) for a, b in sub.edge_list() if a in keep and b in keep],
    )


@settings(max_examples=60, deadline=None)
@given(g=random_graph(), gamma=GAMMAS, data=st.data())
def test_stages_on_the_survival_core_equal_the_prefix(g, gamma, data):
    """A γ-truss lies inside the (γ−1)-core, and every non-containment group
    inside the γ-core: the truss stage on (γ−1)-core(G≥τ) and the NC stage on
    γ-core(G≥τ) count and enumerate what they do on G≥τ."""
    tau = data.draw(st.sampled_from(sorted(g.weight.values())))
    for stage, core_gamma in ((truss_stage, gamma - 1), (nc_stage, gamma)):
        (want, want_top), (got, got_top) = (
            stage(h, tau, gamma) for h in (g.subgraph_ge(tau), core_of(g, tau, core_gamma))
        )
        assert got.count == want.count
        for k in (1, 2, 5, 100):
            assert got_top(k) == want_top(k)


class TestFig3Truss:
    def test_4truss_communities_are_cliques(self):
        g = fig3_graph()
        comms = global_search_truss(g, k=10, gamma=4)
        # A 4-truss needs every edge in ≥2 triangles: the three 4-cliques.
        tops = {s for _, s in comms[:2]}
        assert tops == {frozenset({3, 11, 12, 20}), frozenset({1, 6, 7, 16})}

    def test_truss_matches_local(self):
        g = fig3_graph()
        assert (
            local_search_truss(g, 2, 4).communities
            == global_search_truss(g, 2, 4)
        )

    def test_gamma3_truss_equals_edges_with_one_triangle(self):
        g = fig3_graph()
        alive = truss_edges_brute(g.weight, g.edge_list(), 3)
        # (15,0) and (10,8) are bridges without triangles — gone at γ=3.
        assert (0, 15) not in alive and (8, 10) not in alive
