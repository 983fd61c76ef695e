"""The paper's worked examples, encoded exactly (see tests/paper_graphs.py).

These tests pin the sequential reference implementations to every
quantitative claim made in §2–§5 about the Figure 1 / Figure 3 graphs.
"""
import pytest

from repro.ref.baselines import backward_arith, forward, local_search_oa, online_all
from repro.ref.count_ic import count_ic, keynodes_brute, survival_threshold_brute
from repro.ref.enum_ic import all_communities_brute, enum_ic, ic_brute
from repro.ref.local_search import local_search, tau_star_size
from repro.ref.noncontainment import noncontainment_brute, top_k_noncontainment
from repro.ref.progressive import local_search_progressive

from .paper_graphs import FIG3_WEIGHTS, fig1_graph, fig3_graph

W = FIG3_WEIGHTS
TOP4 = [
    (18.0, frozenset({3, 11, 12, 20})),
    (14.0, frozenset({1, 6, 7, 16})),
    (13.0, frozenset({3, 11, 12, 13, 20})),
    (12.0, frozenset({1, 5, 6, 7, 16})),
]


@pytest.fixture(scope="module")
def g3():
    return fig3_graph()


@pytest.fixture(scope="module")
def g1():
    return fig1_graph()


# ----------------------------------------------------------------- Figure 1
class TestFigure1:
    def test_exactly_two_communities(self, g1):
        comms = all_communities_brute(g1, gamma=3)
        assert comms == [
            (13, frozenset({3, 4, 7, 8, 9})),
            (10, frozenset({0, 1, 5, 6})),
        ]

    def test_subset_has_min_degree_3_but_not_maximal(self, g1):
        # {v3,v4,v7,v8} is cohesive with influence 13 but is not maximal.
        sub = {3, 4, 7, 8}
        for v in sub:
            assert sum(1 for w in g1.adj[v] if w in sub) >= 3
        assert min(g1.weight[v] for v in sub) == 13
        assert frozenset(sub) not in {s for _, s in all_communities_brute(g1, 3)}

    def test_top2_local_search(self, g1):
        res = local_search(g1, k=2, gamma=3)
        assert res.communities == [
            (13, frozenset({3, 4, 7, 8, 9})),
            (10, frozenset({0, 1, 5, 6})),
        ]


# ----------------------------------------------------------------- Figure 3
class TestFigure3WeightOrder:
    def test_figure_4a_order(self, g3):
        expected = [18, 17, 3, 20, 9, 12, 11, 16, 1, 6, 7, 13, 5, 0, 15, 10, 8, 21, 19, 4, 2, 14]
        assert g3.order == expected

    def test_given_weights_row2(self, g3):
        # Second row of Figure 4(a) gives the weights verbatim.
        for v, w in [(13, 13), (5, 12), (0, 11), (15, 10), (10, 9), (8, 8),
                     (21, 7), (19, 6), (4, 5), (2, 4), (14, 3)]:
            assert g3.weight[v] == w


class TestExample21:
    """Example 2.1: g1/g2 around vertex v10."""

    def test_g2_is_influential_community_with_influence_9(self, g3):
        comms = dict(all_communities_brute(g3, gamma=3))
        assert comms[9] == frozenset({3, 9, 10, 11, 12, 13, 20})

    def test_g1_cohesive_but_not_maximal(self, g3):
        sub = {3, 10, 11, 12, 20}
        for v in sub:
            assert sum(1 for w in g3.adj[v] if w in sub) >= 3
        assert frozenset(sub) not in {s for _, s in all_communities_brute(g3, 3)}


class TestProblemStatementTop4:
    def test_top4(self, g3):
        res = local_search(g3, k=4, gamma=3)
        assert res.communities == TOP4

    def test_online_all_agrees(self, g3):
        top4 = list(reversed(online_all(g3, gamma=3, k=4)))
        assert [(w, s) for w, s in top4] == TOP4

    def test_forward_agrees(self, g3):
        assert forward(g3, k=4, gamma=3) == TOP4

    def test_backward_agrees(self, g3):
        assert backward_arith(g3, k=4, gamma=3).communities == TOP4

    def test_local_search_oa_agrees(self, g3):
        assert local_search_oa(g3, k=4, gamma=3).communities == TOP4


class TestExample31GrowthTrace:
    """Example 3.1: τ₁ = 18, size 18 → doubling stops at v5, size 36, τ₂=12."""

    def test_tau1_is_weight_of_7th_vertex(self, g3):
        # k + γ = 4 + 3 = 7 ⇒ τ₁ = ω(v11) = 18.
        assert g3.order[6] == 11
        assert g3.weight[11] == 18

    def test_g_ge_tau1_size(self, g3):
        sub = g3.subgraph_top(7)
        assert (sub.n, sub.n_edges, sub.size) == (7, 11, 18)

    def test_incremental_sizes_match_example(self, g3):
        # v16 adds 0 edges, v1 adds 1 (to v16), …, after v5 size is 36.
        sizes = [g3.prefix_size(r) for r in range(8, 14)]
        assert sizes == [19, 21, 24, 28, 32, 36]

    def test_tau2_selection(self, g3):
        r2 = g3.r_for_size(2 * 18)
        assert g3.order[r2 - 1] == 5 and g3.weight[5] == 12

    def test_countic_counts(self, g3):
        assert count_ic(g3.subgraph_top(7), 3).count == 1
        assert count_ic(g3.subgraph_top(13), 3).count == 4

    def test_local_search_stage_trace(self, g3):
        res = local_search(g3, k=4, gamma=3, delta=2.0)
        assert [(s.tau, s.size, s.count) for s in res.stages] == [
            (18, 18, 1),
            (12, 36, 4),
        ]


class TestExample32CountIC:
    """Example 3.2 / Figure 6: the peel of G≥τ₂."""

    def test_precore_removes_v9_v17_v18(self, g3):
        peel = count_ic(g3.subgraph_top(13), 3)
        assert set(peel.precore_removed) == {9, 17, 18}

    def test_keys_order(self, g3):
        peel = count_ic(g3.subgraph_top(13), 3)
        assert peel.keys == [5, 13, 7, 11]

    def test_cvs_groups_figure6(self, g3):
        peel = count_ic(g3.subgraph_top(13), 3)
        groups = [set(gp) for gp in peel.groups()]
        assert groups == [{5}, {13}, {7, 16, 6, 1}, {11, 20, 3, 12}]


class TestExample33EnumIC:
    def test_enum_from_keys_cvs(self, g3):
        sub = g3.subgraph_top(13)
        peel = count_ic(sub, 3)
        assert enum_ic(sub, peel, 4) == TOP4

    def test_ic_brute_matches(self, g3):
        for w, s in TOP4:
            u = min(s, key=g3.weight.get)
            assert g3.weight[u] == w
            assert ic_brute(g3, 3, u) == s


class TestKeynodes:
    def test_keynode_examples_from_text(self, g3):
        ks = set(keynodes_brute(g3, gamma=3))
        assert 7 in ks  # §3.2.1: v7 is a keynode at γ=3 …
        assert 6 not in ks  # … and v6 is not.
        assert {11, 7, 13, 5} <= ks

    def test_survival_threshold_examples(self, g3):
        T = survival_threshold_brute(g3, gamma=3)
        assert T[7] == g3.weight[7] == 14
        assert T[16] == 14  # v16 survives only down to v7's level
        assert T[6] < g3.weight[6]

    def test_full_graph_keynode_set(self, g3):
        # Derived by hand for the reconstruction (10 communities at γ=3).
        assert keynodes_brute(g3, gamma=3) == [14, 2, 4, 19, 10, 0, 5, 13, 7, 11]


class TestProgressive:
    def test_progressive_order_and_top4(self, g3):
        got = []
        for w, s in local_search_progressive(g3, gamma=3):
            got.append((w, s))
            if len(got) == 4:
                break
        assert got == TOP4

    def test_progressive_reports_everything_decreasing(self, g3):
        all_got = list(local_search_progressive(g3, gamma=3))
        assert [w for w, _ in all_got] == sorted((w for w, _ in all_got), reverse=True)
        assert all_got == all_communities_brute(g3, gamma=3)

    def test_figure7_stage1_reports_top1_only(self, g3):
        gen = local_search_progressive(g3, gamma=3)
        w, s = next(gen)
        assert (w, s) == (18, frozenset({3, 11, 12, 20}))

    def test_delta_one_raises_on_first_next(self, g3):
        gen = local_search_progressive(g3, gamma=3, delta=1.0)
        with pytest.raises(ValueError, match="delta must be > 1"):
            next(gen)


class TestNonContainment:
    def test_top2_nc_are_the_cliques(self, g3):
        res = top_k_noncontainment(g3, k=2, gamma=3)
        assert res.communities == [
            (18, frozenset({3, 11, 12, 20})),
            (14, frozenset({1, 6, 7, 16})),
        ]

    def test_nc_brute_agrees(self, g3):
        nc = noncontainment_brute(g3, gamma=3)
        assert nc[:2] == [
            (18, frozenset({3, 11, 12, 20})),
            (14, frozenset({1, 6, 7, 16})),
        ]


class TestInstanceOptimality:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
    def test_accessed_size_bounded(self, g3, k):
        # Lemma 3.8: size(G≥τ_h) < 2δ·size(G≥τ*) (+1 vertex slack).
        delta = 2.0
        res = local_search(g3, k=k, gamma=3, delta=delta)
        assert res.accessed_size <= 2 * delta * tau_star_size(g3, k, 3) + 1
