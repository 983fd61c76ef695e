"""Property tests: the exact sequential algorithms vs brute-force oracles.

Random small weighted graphs are generated with hypothesis; every algorithm
pair that must agree (peel vs suffix-core brute force, local vs global
search, progressive vs batch, …) is checked for equality of results.
"""
import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.ref.baselines import backward_arith, forward, local_search_oa, online_all
from repro.ref.count_ic import count_ic, gamma_core_set, keynodes_brute, survival_threshold_brute
from repro.ref.enum_ic import all_communities_brute, enum_ic, ic_brute
from repro.ref.graph import NEG_INF, RefGraph
from repro.ref.local_search import local_search, tau_star_size
from repro.ref.noncontainment import noncontainment_brute, top_k_noncontainment
from repro.ref.progressive import local_search_progressive
from repro.ref.truss import local_search_truss, truss_community_brute, truss_keynodes_brute


@st.composite
def random_graph(draw, max_n=28, max_extra_edges=60):
    """A random weighted graph: an Erdős–Rényi-ish edge set, distinct weights."""
    n = draw(st.integers(2, max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = draw(st.integers(0, min(len(possible), max_extra_edges)))
    idx = draw(st.permutations(range(len(possible)))) if m else []
    edges = [possible[i] for i in idx[:m]]
    perm = draw(st.permutations(range(n)))
    weights = {v: float(perm[v] + 1) for v in range(n)}
    return RefGraph(weights, edges)


GAMMAS = st.integers(1, 4)


@settings(max_examples=60, deadline=None)
@given(g=random_graph(), gamma=GAMMAS)
def test_countic_keys_equal_brute_keynodes(g, gamma):
    assert count_ic(g, gamma).keys == keynodes_brute(g, gamma)


@settings(max_examples=40, deadline=None)
@given(g=random_graph(), gamma=GAMMAS)
def test_cvs_groups_are_survival_bands(g, gamma):
    """gp(u) = {v : ω(u) ≤ T(v) < ω(next keynode)} (DESIGN.md §2 bridge)."""
    peel = count_ic(g, gamma)
    T = survival_threshold_brute(g, gamma)
    bounds = [g.weight[u] for u in peel.keys] + [float("inf")]
    for i, grp in enumerate(peel.groups()):
        lo, hi = bounds[i], bounds[i + 1]
        assert set(grp) == {v for v, t in T.items() if lo <= t < hi}
    # everything outside cvs is in no core at all
    in_cvs = set(peel.cvs)
    for v, t in T.items():
        assert (t == NEG_INF) == (v not in in_cvs)


@settings(max_examples=40, deadline=None)
@given(g=random_graph(), gamma=GAMMAS, k=st.integers(1, 6))
def test_enum_matches_brute_components(g, gamma, k):
    peel = count_ic(g, gamma)
    got = enum_ic(g, peel, k)
    want = [
        (g.weight[u], ic_brute(g, gamma, u)) for u in reversed(peel.keys[-k:])
    ]
    assert got == want


@settings(max_examples=40, deadline=None)
@given(g=random_graph(), gamma=GAMMAS, k=st.integers(-3, 6))
def test_local_search_equals_global_answers(g, gamma, k):
    top = max(k, 0)  # k ≤ 0 asks for nothing
    want = all_communities_brute(g, gamma)[:top]
    assert local_search(g, k, gamma).communities == want
    assert forward(g, k, gamma) == want
    assert list(reversed(online_all(g, gamma, k=k))) == want
    assert backward_arith(g, k, gamma).communities == want
    assert local_search_oa(g, k, gamma).communities == want
    assert top_k_noncontainment(g, k, gamma).communities == noncontainment_brute(g, gamma)[:top]
    truss_gamma = gamma + 1  # truss cohesiveness starts at 2
    truss_want = [
        (g.weight[u], truss_community_brute(g, truss_gamma, u))
        for u in reversed(truss_keynodes_brute(g, truss_gamma))
    ][:top]
    assert local_search_truss(g, k, truss_gamma).communities == truss_want


@settings(max_examples=30, deadline=None)
@given(g=random_graph(), gamma=GAMMAS, delta=st.sampled_from([1.5, 2.0, 3.0, 8.0]))
def test_delta_does_not_change_answer(g, gamma, delta):
    k = 3
    assert (
        local_search(g, k, gamma, delta=delta).communities
        == all_communities_brute(g, gamma)[:k]
    )


@settings(max_examples=30, deadline=None)
@given(g=random_graph(), gamma=GAMMAS)
def test_progressive_streams_all_communities_in_order(g, gamma):
    got = list(local_search_progressive(g, gamma))
    assert got == all_communities_brute(g, gamma)


@settings(max_examples=30, deadline=None)
@given(g=random_graph(), gamma=GAMMAS, k=st.integers(1, 5))
def test_instance_optimality_bound(g, gamma, k):
    """Lemma 3.8: the accessed subgraph is < 2δ·size(G≥τ*) (+1 slack)."""
    delta = 2.0
    res = local_search(g, k, gamma, delta=delta)
    assert res.accessed_size <= 2 * delta * tau_star_size(g, k, gamma) + 1


@settings(max_examples=30, deadline=None)
@given(g=random_graph(), gamma=GAMMAS, k=st.integers(1, 4))
def test_noncontainment_matches_brute(g, gamma, k):
    got = top_k_noncontainment(g, k, gamma).communities
    want = noncontainment_brute(g, gamma)[:k]
    assert got == want


@settings(max_examples=30, deadline=None)
@given(g=random_graph(), gamma=GAMMAS)
def test_nc_communities_are_disjoint(g, gamma):
    """§5.1: the set of all non-containment communities is disjoint."""
    nc = noncontainment_brute(g, gamma)
    for i, (_, a) in enumerate(nc):
        for _, b in nc[i + 1:]:
            assert not (a & b)


@settings(max_examples=40, deadline=None)
@given(g=random_graph(), gamma=GAMMAS)
def test_lemma_31_32_monotonicity(g, gamma):
    """Communities of G≥τ₂ persist in G≥τ₁ (τ₁≤τ₂), and high-influence
    communities of G≥τ₁ persist in G≥τ₂ (Lemmas 3.1/3.2)."""
    weights = sorted((g.weight[v] for v in g.weight), reverse=True)
    if len(weights) < 4:
        return
    tau2, tau1 = weights[len(weights) // 3], weights[2 * len(weights) // 3]
    big = all_communities_brute(g.subgraph_ge(tau1), gamma)
    small = all_communities_brute(g.subgraph_ge(tau2), gamma)
    assert set(small) <= set(big)
    assert {c for c in big if c[0] >= tau2} == set(small)


@settings(max_examples=25, deadline=None)
@given(g=random_graph(max_n=20), gamma=GAMMAS)
def test_communities_are_valid(g, gamma):
    """Every reported community is connected, cohesive, and maximal."""
    for w, s in all_communities_brute(g, gamma):
        assert min(g.weight[v] for v in s) == w
        for v in s:
            assert sum(1 for x in g.adj[v] if x in s) >= gamma
        # connectivity
        seen, stack = {next(iter(s))}, [next(iter(s))]
        while stack:
            v = stack.pop()
            for x in g.adj[v]:
                if x in s and x not in seen:
                    seen.add(x)
                    stack.append(x)
        assert seen == set(s)
        # maximality: the community equals the full component of the
        # suffix-core at its own influence level.
        core = gamma_core_set(
            {v: g.weight[v] for v in g.weight if g.weight[v] >= w},
            [(a, b) for a, b in g.edge_list() if g.weight[a] >= w and g.weight[b] >= w],
            gamma,
        )
        u = min(s, key=g.weight.get)
        assert u in core
