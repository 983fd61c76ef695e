"""RefGraph substrate: §3.1 organization invariants and edge cases."""
import hypothesis.strategies as st
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings

from repro.graphs.storage import canonical_frames
from repro.ref.cores import core_numbers, gamma_max_ref
from repro.ref.count_ic import count_ic, gamma_core_set
from repro.ref.enum_ic import enum_ic
import repro.ref.graph as graph_module
from repro.ref.graph import PrefixIndex, RefGraph, positions
from repro.ref.truss import count_icc, enum_icc

from .paper_graphs import fig1_graph, fig3_graph
from .spark_helpers import random_ref_graph


@pytest.fixture(scope="module")
def g3():
    return fig3_graph()


class TestConstruction:
    def test_rejects_duplicate_weights(self):
        with pytest.raises(ValueError, match="distinct"):
            RefGraph({0: 1.0, 1: 1.0}, [])
        with pytest.raises(ValueError, match="distinct"):
            canonical_frames(*frames({0: 1.0, 1: 1.0}, []))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            RefGraph({0: 1.0, 1: 2.0}, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            RefGraph({0: 1.0, 1: 2.0}, [(0, 1), (1, 0)])

    def test_rejects_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown"):
            RefGraph({0: 1.0}, [(0, 7)])

    def test_empty_graph(self):
        g = RefGraph({}, [])
        assert g.n == 0 and g.size == 0 and g.order == []
        g = RefGraph({}, np.empty((0, 2), dtype=np.int64))
        assert g.n == 0 and g.size == 0 and g.order == [] and g.edge_list() == []
        with pytest.raises(ValueError, match="unknown"):
            RefGraph({}, [(0, 1)])

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(1, 2), (3, 3)], "self-loop on 3"),
            ([(1, 2), (2, 9)], r"edge \(2,9\) references unknown vertex"),
            ([(9, 9)], "self-loop on 9"),  # the self-loop test comes first
            ([(1, 9), (3, 3)], r"edge \(1,9\) references unknown vertex"),
            ([(2, 2), (1, 9)], "self-loop on 2"),
            ([(1, 2), (2, 3), (2, 1), (4, 4)], r"duplicate edge \(2,1\)"),
        ],
    )
    def test_one_contract_names_the_first_offending_edge(self, edges, message):
        """``RefGraph`` (from pairs or an array) and ``canonical_frames``
        share one check, which names the first offending edge in input
        order. ``RefGraph`` rejects duplicate edges; ``canonical_frames``
        drops them (``TestGraphContract`` in ``test_core_spark``)."""
        weights = {1: 6.0, 2: 5.0, 3: 4.0, 4: 3.0}
        for g_edges in (edges, np.array(edges)):
            with pytest.raises(ValueError, match=message):
                RefGraph(weights, g_edges)
        if "duplicate" not in message:
            with pytest.raises(ValueError, match=message):
                canonical_frames(*frames(weights, edges))

    def test_size_definition(self, g3):
        assert g3.size == g3.n + g3.n_edges == 22 + 47


def frames(weights, edges):
    return (
        pd.DataFrame({"id": list(weights), "weight": list(weights.values())}),
        pd.DataFrame(edges, columns=["src", "dst"], dtype="int64"),
    )


@st.composite
def messy_order_graph(draw):
    """Distinct ids and weights; the edges in random order and orientation."""
    n = draw(st.integers(0, 14))
    ids = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.integers(1, 99), min_size=n, max_size=n, unique=True))
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(b, a) if draw(st.booleans()) else (a, b) for a, b in chosen]
    return dict(zip(ids, map(float, weights))), edges


class TestArrayBuild:
    @settings(max_examples=80, deadline=None)
    @given(graph=messy_order_graph(), as_array=st.booleans())
    def test_equals_brute_force(self, graph, as_array):
        """The layout-built graph equals the §3.1 organization by definition."""
        weights, edges = graph
        g = RefGraph(weights, np.array(edges, dtype=np.int64).reshape(-1, 2) if as_array else edges)
        adj = {v: set() for v in weights}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        order = sorted(weights, key=weights.get, reverse=True)
        assert g.adj == adj and list(g.adj) == list(weights)
        assert g.order == order
        for v in weights:
            want = sorted((u for u in adj[v] if weights[u] > weights[v]), key=weights.get)
            assert list(g.n_ge(v)) == want[::-1]
        assert g.index.ids.tolist() == order
        assert g.index.weights.tolist() == [weights[v] for v in order]
        assert g.index.cum_size.tolist() == [
            r + sum(1 for a, b in edges if a in order[:r] and b in order[:r])
            for r in range(1, len(order) + 1)
        ]
        assert g.edge_list() == sorted((min(a, b), max(a, b)) for a, b in edges)
        for r in range(len(order) + 1):
            sub = g.subgraph_top(r)
            assert sub.order == order[:r]
            assert sub.edge_list() == [
                e for e in g.edge_list() if e[0] in order[:r] and e[1] in order[:r]
            ]


@pytest.mark.parametrize("n, m", [(0, 5), (7, 0), (10, 30), (5000, 5000)])
def test_positions_agree_with_a_dict(n, m):
    """The hash lookup agrees with a dict, for ids anywhere in int64, values
    present or not."""
    rng = np.random.default_rng(n + m)
    ids = rng.choice(np.arange(-(2**62), 2**62, 2**50), size=n, replace=False)
    present = ids[rng.integers(0, n, m // 2)] if n else np.empty(0, np.int64)
    values = np.concatenate((present, rng.integers(-(2**62), 2**62, m - m // 2)))
    at = {v: i for i, v in enumerate(ids.tolist())}
    assert positions(ids, values).tolist() == [at.get(v, -1) for v in values.tolist()]


class TestTrustedBuild:
    """``RefGraph(index=…)`` builds a graph from a layout slice with no check
    and no sort; ``subgraph_top`` and the semi-external stages use it."""

    @settings(max_examples=80, deadline=None)
    @given(graph=messy_order_graph())
    def test_subgraph_top_equals_the_checked_build(self, graph):
        weights, edges = graph
        g = RefGraph(weights, edges)
        for r in range(g.n + 1):
            top = g.order[:r]
            checked = RefGraph(
                {v: weights[v] for v in top},
                [(a, b) for a, b in edges if a in top and b in top],
            )
            sub = g.subgraph_top(r)
            for name in ("ids", "weights", "cum_size", "nbr"):
                assert getattr(sub.index, name).tolist() == getattr(checked.index, name).tolist()
            assert sub.weight == checked.weight
            assert sub.n_edges == checked.n_edges
            assert sub.edge_list() == checked.edge_list()

    @settings(max_examples=40, deadline=None)
    @given(graph=messy_order_graph())
    def test_with_edges_reads_the_layout_back(self, graph):
        """The layout's id rows, in either column order, give back ``nbr``."""
        g = RefGraph(*graph)
        lower, upper = g.index.edge_ends()
        bare = PrefixIndex(g.index.ids, g.index.weights, g.index.cum_size)
        for src, dst in ((lower, upper), (upper, lower)):
            assert bare.with_edges(src, dst).nbr.tolist() == g.index.nbr.tolist()

    def test_with_edges_rejects_rows_of_another_layout(self, g3):
        bare = PrefixIndex(g3.index.ids, g3.index.weights, g3.index.cum_size)
        lower, upper = g3.index.edge_ends()
        swapped = np.arange(len(lower))
        swapped[[0, -1]] = swapped[[-1, 0]]
        j = int(np.flatnonzero(lower[1:] == lower[:-1])[0])  # two rows of one group
        within, repeated = np.arange(len(lower)), np.arange(len(lower))
        within[[j, j + 1]] = [j + 1, j]
        repeated[j + 1] = j
        for src, dst in (
            (lower[swapped], upper[swapped]),  # rows out of their groups
            (lower[within], upper[within]),  # a group out of order
            (lower[repeated], upper[repeated]),  # a duplicate edge
            (lower[:-1], upper[:-1]),  # a row short
            (lower, np.where(upper == upper[0], 99, upper)),  # unknown vertex
            (lower, lower),  # self-loops
        ):
            with pytest.raises(ValueError, match="do not match the vertex table"):
                bare.with_edges(src, dst)

    def test_subgraph_top_runs_no_check(self, g3, monkeypatch):
        calls = count_checks(monkeypatch)
        for r in range(g3.n + 1):
            g3.subgraph_top(r)
        assert calls == []


def count_checks(monkeypatch):
    """Count the calls of the graph contract (``check_graph``) from here on."""
    calls = []
    check_graph = graph_module.check_graph

    def counting(*args, **kwargs):
        calls.append(1)
        return check_graph(*args, **kwargs)

    monkeypatch.setattr(graph_module, "check_graph", counting)
    return calls


class TestOrganization:
    def test_order_strictly_decreasing(self, g3):
        ws = [g3.weight[v] for v in g3.order]
        assert all(a > b for a, b in zip(ws, ws[1:]))

    def test_n_ge_partition(self, g3):
        for u in g3.weight:
            up = set(g3.n_ge(u))
            down = g3.adj[u] - up
            assert all(g3.weight[v] >= g3.weight[u] for v in up)
            assert all(g3.weight[v] < g3.weight[u] for v in down)
            assert up | down == g3.adj[u]

    def test_every_edge_counted_once_in_prefix(self, g3):
        # Each edge is charged to its lower endpoint: appending the r-th
        # vertex adds it and its |N≥|, and Σ |N≥| == |E|.
        up = [g3.prefix_size(r) - g3.prefix_size(r - 1) - 1 for r in range(1, g3.n + 1)]
        assert up == [len(g3.n_ge(v)) for v in g3.order]
        assert sum(up) == g3.n_edges

    def test_prefix_size_monotone(self, g3):
        sizes = [g3.prefix_size(r) for r in range(1, g3.n + 1)]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] == g3.size

    @pytest.mark.parametrize("target", [1, 5, 18, 36, 37, 69, 1000])
    def test_r_for_size(self, g3, target):
        r = g3.r_for_size(target)
        if target <= g3.size:
            assert g3.prefix_size(r) >= target
            assert r == 1 or g3.prefix_size(r - 1) < target
        else:
            assert r == g3.n

    @pytest.mark.parametrize("tau", [3, 12, 18, 24, 25])
    def test_r_for_tau(self, g3, tau):
        r = g3.r_for_tau(tau)
        assert r == sum(1 for v in g3.weight if g3.weight[v] >= tau)

    def test_subgraph_top_is_induced(self, g3):
        sub = g3.subgraph_top(7)
        assert set(sub.weight) == set(g3.order[:7])
        for u, v in sub.edge_list():
            assert v in g3.adj[u]
        assert sub.n_edges == 11  # Example 3.1

    def test_subgraph_ge_equals_subgraph_top(self, g3):
        for tau in (3, 12, 18):
            a = g3.subgraph_ge(tau)
            b = g3.subgraph_top(g3.r_for_tau(tau))
            assert set(a.weight) == set(b.weight)
            assert a.edge_list() == b.edge_list()


def poisoned_past(r):
    """fig3 with every layout row past the top-``r`` prefix set to ``n``, a
    rank no vertex has: reading one raises or answers wrongly."""
    g = fig3_graph()
    g.index.nbr[g.prefix_size(r) - r :] = g.n
    return g


class TestPrefixLocality:
    @pytest.mark.parametrize("r", [7, 12, 17])
    def test_prefix_peel_reads_only_the_prefix_rows(self, r):
        """CountIC and EnumIC on the top-``r`` prefix read only the first
        ``prefix_size(r) − r`` layout rows (Lemma 3.8's locality): with
        every later row poisoned they still answer as on the subgraph."""
        want_graph = fig3_graph().subgraph_top(r)
        want = count_ic(want_graph, 3)
        g = poisoned_past(r)
        sub = g.subgraph_top(r)
        peel = count_ic(sub, 3)
        assert (peel.keys, peel.cvs, peel.nc_flags) == (want.keys, want.cvs, want.nc_flags)
        assert enum_ic(sub, peel, None) == enum_ic(want_graph, want, None)
        assert "csr" not in g.__dict__

    @pytest.mark.parametrize("r", [7, 12, 17])
    def test_prefix_truss_peel_reads_only_the_prefix_rows(self, r):
        """CountICC and EnumICC likewise: no adjacency of the whole graph."""
        want_graph = fig3_graph().subgraph_top(r)
        want = count_icc(want_graph, 3)
        g = poisoned_past(r)
        sub = g.subgraph_top(r)
        peel = count_icc(sub, 3)
        assert peel.keys == want.keys and peel.edge_groups == want.edge_groups
        assert enum_icc(sub, peel, g.n) == enum_icc(want_graph, want, g.n)
        assert "adj" not in g.__dict__ and "csr" not in g.__dict__


class TestCoreNumbers:
    def test_fig3_gamma_max(self, g3):
        assert gamma_max_ref(g3) == 3

    def test_fig1(self):
        assert gamma_max_ref(fig1_graph()) == 3

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_gamma_core_membership(self, seed):
        g = random_ref_graph(40, 140, seed=seed)
        cn = core_numbers(g)
        for gamma in (1, 2, 3, 4):
            want = gamma_core_set(g.weight, g.edge_list(), gamma)
            got = {v for v, c in cn.items() if c >= gamma}
            assert got == want

    def test_isolated_vertex_core_zero(self):
        g = RefGraph({0: 1.0, 1: 2.0, 2: 3.0}, [(0, 1)])
        assert core_numbers(g)[2] == 0


class TestPeelEdgeCases:
    def test_gamma_zero_rejected(self, g3):
        with pytest.raises(ValueError):
            count_ic(g3, 0)

    def test_gamma_above_max_yields_nothing(self, g3):
        peel = count_ic(g3, 4)
        # γ=4 > γmax=3 ⇒ no communities at all
        assert peel.count == 0 and peel.cvs == []

    def test_gamma_one_keynodes_are_component_minima_plus_cascade(self):
        # γ=1: every vertex whose removal is triggered as a min is a keynode.
        g = RefGraph({0: 3.0, 1: 2.0, 2: 1.0}, [(0, 1), (1, 2)])
        peel = count_ic(g, 1)
        assert peel.keys == [2, 1]  # v0 falls in v1's cascade

    def test_prefix_zero_and_full(self, g3):
        assert count_ic(g3.subgraph_top(g3.n), 3).keys == count_ic(g3, 3).keys
        assert count_ic(g3.subgraph_top(1), 3).count == 0
        assert count_ic(g3.subgraph_top(0), 3).count == 0

    def test_tau_stop_prefix_property(self, g3):
        """Algorithm 5: keys/cvs of the stopped peel are a prefix of the
        full peel's sequences (the §4 suffix/prefix property)."""
        full = count_ic(g3, 3)
        part = count_ic(g3, 3, tau_stop=12.0)
        assert full.keys[: part.count] == part.keys
        assert full.cvs[: len(part.cvs)] == part.cvs
