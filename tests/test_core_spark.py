"""Distributed LocalSearch / LocalSearch-P / NC / truss vs the references.

Each heavy pipeline runs once per class (class-scoped fixtures); the
asserts fan out over the shared results to keep Spark wall-time bounded.
Every variant's checks run on the driver route and, with the driver budget
at 0, on its distributed route.
"""
from contextlib import contextmanager

import numpy as np
import pandas as pd
import pytest

import repro.core.enum_ic as core_enum
import repro.core.local_search as core_ls
import repro.core.progressive as core_p
import repro.graphs.storage as storage_module
import repro.ref.graph as graph_module
from repro.baselines import global_search
from repro.baselines.global_search import forward_spark, online_all_spark
from repro.core.local_search import SURVIVAL, local_search_spark
from repro.core.noncontainment import top_k_noncontainment_spark
from repro.core.progressive import local_search_progressive_spark
from repro.core.truss_search import local_search_truss_spark
from repro.graphs.storage import SparkGraph
from repro.ref.count_ic import gamma_core_set
from repro.ref.enum_ic import all_communities_brute
from repro.ref.graph import RefGraph
from repro.ref.local_search import DRIVER, local_search, tau_star_size
from repro.ref.noncontainment import forward_nc, noncontainment_brute, top_k_noncontainment
from repro.ref.progressive import local_search_progressive
from repro.ref.truss import global_search_truss, local_search_truss
from repro.semi_external.algorithms import local_search_se, online_all_se
from repro.semi_external.storage import EdgeBlockStore

from .paper_graphs import fig3_graph
from .spark_helpers import random_ref_graph, ref_to_spark
from .test_ref_graph import count_checks

TOP4 = [
    (18.0, frozenset({3, 11, 12, 20})),
    (14.0, frozenset({1, 6, 7, 16})),
    (13.0, frozenset({3, 11, 12, 13, 20})),
    (12.0, frozenset({1, 5, 6, 7, 16})),
]


@pytest.fixture(scope="module")
def g3(spark):
    ref = fig3_graph()
    return ref, ref_to_spark(spark, ref)


@pytest.fixture(scope="module")
def grand(spark):
    ref = random_ref_graph(70, 240, seed=23)
    return ref, ref_to_spark(spark, ref)


@contextmanager
def on_route(route):
    """Within the block, Spark stages take ``route``: the driver route, which
    every stage here fits, or, with the driver budget at 0, each variant's
    distributed stage."""
    with pytest.MonkeyPatch.context() as mp:
        if route != DRIVER:
            mp.setattr(core_ls, "driver_rows_budget", lambda spark: 0)
        yield


@pytest.fixture(scope="class", autouse=True)
def route(request):
    """The stage route of the class's ``ROUTE`` (default: ``DRIVER``)."""
    route = getattr(request.cls, "ROUTE", DRIVER)
    with on_route(route):
        yield route


@pytest.fixture(scope="class")
def ls_fig3(g3, route):
    _, sg = g3
    return local_search_spark(sg, k=4, gamma=3)


@pytest.fixture(scope="class")
def ls_rand(grand, route):
    _, sg = grand
    return local_search_spark(sg, k=3, gamma=3)


def trace(stages):
    return [(s.tau, s.size, s.count) for s in stages]


class LocalSearchChecks:
    """LocalSearch checks that must hold on either stage route."""

    ROUTE = DRIVER

    def test_fig3_top4(self, ls_fig3):
        assert ls_fig3.communities == TOP4

    def test_fig3_stage_trace_matches_example31(self, ls_fig3):
        assert trace(ls_fig3.stages) == [(18.0, 18, 1), (12.0, 36, 4)]

    def test_random_matches_ref(self, grand, ls_rand):
        ref, _ = grand
        want = local_search(ref, 3, 3)
        assert ls_rand.communities == want.communities
        assert trace(ls_rand.stages) == trace(want.stages)

    def test_every_stage_takes_the_route(self, ls_fig3, ls_rand):
        for res in (ls_fig3, ls_rand):
            assert [s.route for s in res.stages] == [self.ROUTE] * len(res.stages)

    def test_instance_optimality_bound(self, g3, grand, ls_fig3, ls_rand):
        # Lemma 3.8: accessed size ≤ 2δ·size(G≥τ*), on the Spark trace.
        delta = 2.0
        for (ref, _), res, k in ((g3, ls_fig3, 4), (grand, ls_rand, 3)):
            assert res.accessed_size <= 2 * delta * tau_star_size(ref, k, 3) + 1


def record_calls(monkeypatch, module, name):
    """Record the arguments of every call to ``module.name``."""
    got = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: got.append(args) or fn(*args))
    return got


def assert_only_live_rows(ref, labels, edges, tau):
    """Only vertices with T ≥ τ, and exactly the edges between them, arrive."""
    live = set(labels["id"])
    assert (labels["T"] >= tau).all()
    assert set(zip(edges["src"], edges["dst"])) == {
        (a, b) for a, b in ref.edge_list() if a in live and b in live
    }
    assert len(edges) < ref.subgraph_ge(tau).n_edges


def record_live_rows(monkeypatch):
    """Record the ``(labels, edges)`` each ``core_stage`` stage collects."""
    got, collect = [], core_ls.collect_live
    monkeypatch.setattr(
        core_ls, "collect_live", lambda *args: got.append(collect(*args)) or got[-1]
    )
    return got


class TestLocalSearchSparkSurvival(LocalSearchChecks):
    ROUTE = SURVIVAL

    def test_enum_collects_only_live_rows(self, g3, monkeypatch):
        ref, sg = g3
        got = record_calls(monkeypatch, core_enum, "_components_pandas")
        assert local_search_spark(sg, k=4, gamma=3).communities == TOP4
        [(labels, edges, keys)] = got
        assert keys[-1][1] == 12.0  # τ_k
        assert_only_live_rows(ref, labels, edges, 12.0)


class TestLocalSearchSpark(LocalSearchChecks):
    def test_edge_cases_return_ref_answer(self, g3, spark):
        ref, sg = g3
        empty = SparkGraph.from_pandas(spark, *empty_frames())
        searches = [
            (local_search_spark, local_search),
            (top_k_noncontainment_spark, top_k_noncontainment),
            (local_search_truss_spark, local_search_truss),
        ]
        # k ≤ 0 asks for nothing, also when k + γ ≤ 0; the empty graph has nothing.
        for spark_search, ref_search in searches:
            for (r, s), k in (((ref, sg), -1), ((ref, sg), -3), ((RefGraph({}, []), empty), 3)):
                want = ref_search(r, k, 2)
                got = spark_search(s, k, 2)
                assert got.communities == want.communities == []
                assert got.stages == want.stages == []

    def test_driver_stages_run_no_check(self, grand, monkeypatch):
        """Every driver stage is built from the trusted layout: the graph
        contract, checked at ingest, is not checked again by a query."""
        ref, sg = grand
        calls = count_checks(monkeypatch)
        for spark_search, ref_search in (
            (local_search_spark, local_search),
            (local_search_truss_spark, local_search_truss),
        ):
            got = spark_search(sg, 3, 3)
            assert got.communities == ref_search(ref, 3, 3).communities
            assert len(got.stages) >= 2
        assert list(local_search_progressive_spark(sg, gamma=3)) == all_communities_brute(ref, 3)
        assert calls == []


def empty_frames():
    return (
        pd.DataFrame({"id": pd.Series(dtype="int64"), "weight": pd.Series(dtype="float64")}),
        pd.DataFrame({"src": pd.Series(dtype="int64"), "dst": pd.Series(dtype="int64")}),
    )


class ProgressiveChecks:
    """LocalSearch-P checks that must hold on either stage route."""

    ROUTE = DRIVER

    def test_streams_in_order_and_matches_batch(self, g3):
        ref, sg = g3
        got = []
        for w, s in local_search_progressive_spark(sg, gamma=3):
            got.append((w, s))
            if len(got) == 4:
                break
        assert got == TOP4

    def test_streams_everything(self, grand):
        ref, sg = grand
        got = list(local_search_progressive_spark(sg, gamma=3))
        assert got == all_communities_brute(ref, 3)

    def test_stages_take_the_route(self, g3, monkeypatch):
        calls = []
        fixed_point = core_p.survival_threshold
        monkeypatch.setattr(
            core_p, "survival_threshold",
            lambda *a, **kw: calls.append(1) or fixed_point(*a, **kw),
        )
        assert next(local_search_progressive_spark(g3[1], gamma=3)) == TOP4[0]
        assert bool(calls) == (self.ROUTE == SURVIVAL)


class TestProgressiveSparkSurvival(ProgressiveChecks):
    ROUTE = SURVIVAL

    def test_stream_collects_only_live_rows(self, g3, monkeypatch):
        ref, sg = g3
        got = record_calls(monkeypatch, core_p, "_components_pandas")
        assert next(local_search_progressive_spark(sg, gamma=3)) == TOP4[0]
        [(labels, edges, keys)] = got
        assert keys[-1][1] == 18.0  # the lowest new keynode of stage 1
        assert_only_live_rows(ref, labels, edges, 18.0)


class TestProgressiveSpark(ProgressiveChecks):
    def test_delta_one_raises_on_first_next(self, g3):
        gen = local_search_progressive_spark(g3[1], gamma=3, delta=1.0)
        with pytest.raises(ValueError, match="delta must be > 1"):
            next(gen)

    def test_empty_graph_streams_nothing(self, spark):
        empty = SparkGraph.from_pandas(spark, *empty_frames())
        assert list(local_search_progressive_spark(empty, gamma=2)) == []


@pytest.fixture(scope="module")
def glayout(spark):
    ref = random_ref_graph(120, 420)
    return ref, ref_to_spark(spark, ref)


class TestEdgeFrameLayout:
    """``SparkGraph.edges`` is the prefix index's §3.1 edge layout, row for
    row, built with no join and no shuffle."""

    @pytest.fixture(params=["fig3", "random"])
    def graph(self, request, g3, glayout):
        return g3 if request.param == "fig3" else glayout

    def test_rows_follow_the_layout(self, graph):
        ref, sg = graph
        rows = sg.edges.toPandas()
        src, dst, w_min = (rows[c].to_numpy() for c in ("src", "dst", "w_min"))
        lower, upper = sg.index.edge_ends()
        assert (src < dst).all()
        assert (src == np.minimum(lower, upper)).all() and (dst == np.maximum(lower, upper)).all()
        assert (w_min == np.repeat(sg.index.weights, sg.index.up_degree)).all()
        assert (np.diff(w_min) <= 0).all()
        assert w_min.tolist() == [min(ref.weight[a], ref.weight[b]) for a, b in zip(src, dst)]
        assert sorted(zip(src.tolist(), dst.tolist())) == ref.edge_list()
        assert list(rows.columns) == ["src", "dst", "w_min"]

    def test_every_suffix_is_a_prefix_of_rows(self, graph):
        ref, sg = graph
        rows = sg.edges.toPandas()
        edges = list(zip(rows["src"].tolist(), rows["dst"].tolist()))
        w = ref.weight
        for tau in sorted(w.values()):
            m = sg.size_at_tau(tau) - sg.r_for_tau(tau)
            assert sorted(edges[:m]) == [e for e in ref.edge_list() if min(w[e[0]], w[e[1]]) >= tau]

    def test_plan_has_no_exchange_or_join(self, graph):
        _, sg = graph
        for df in (sg.edges, sg.edges.filter("w_min >= 12.0"), sg.vertices):
            plan = df._jdf.queryExecution().executedPlan().toString()
            assert "InMemoryTableScan" in plan
            assert "Exchange" not in plan and "Join" not in plan, plan


class TestGraphContract:
    """``SparkGraph.from_pandas`` holds ``RefGraph``'s graph contract."""

    WEIGHTS = {1: 6.0, 2: 5.0, 3: 4.0, 4: 3.0, 5: 2.0, 6: 1.0}

    def frames(self, edges):
        vertices = pd.DataFrame(
            {"id": list(self.WEIGHTS), "weight": list(self.WEIGHTS.values())}
        )
        return vertices, pd.DataFrame(edges, columns=["src", "dst"])

    def test_reversed_duplicate_edges_are_canonicalised(self, spark):
        # Path 1–2–3 listed in both orientations, plus triangle 4–5–6.
        path = [(1, 2), (2, 3), (2, 1), (3, 2)]
        triangle = [(4, 5), (5, 6), (6, 4)]
        sg = SparkGraph.from_pandas(spark, *self.frames(path + triangle))
        ref = RefGraph(self.WEIGHTS, [(1, 2), (2, 3)] + triangle)
        want = [(1.0, frozenset({4, 5, 6}))]
        assert local_search(ref, 5, 2).communities == want
        assert local_search_spark(sg, k=5, gamma=2).communities == want
        assert list(local_search_progressive_spark(sg, gamma=2)) == want
        assert (sg.vertices.count(), sg.edges.count()) == (6, 5)
        # The layout: each edge under its lower-weight endpoint, by rank,
        # and within it by decreasing weight of the other endpoint.
        assert list(sg.edges.toPandas().itertuples(index=False, name=None)) == [
            (1, 2, 5.0), (2, 3, 4.0), (4, 5, 2.0), (4, 6, 1.0), (5, 6, 1.0),
        ]

    @pytest.mark.parametrize("stage_route", [DRIVER, SURVIVAL])
    def test_isolated_vertices_only(self, spark, stage_route):
        sg = SparkGraph.from_pandas(spark, *self.frames([]))
        ref = RefGraph(self.WEIGHTS, [])
        assert (sg.vertices.count(), sg.edges.count()) == (6, 0)
        with on_route(stage_route):
            for gamma in (1, 2):
                want = local_search(ref, 3, gamma)
                got = local_search_spark(sg, k=3, gamma=gamma)
                assert got.communities == want.communities == []
                assert trace(got.stages) == trace(want.stages)
                assert list(local_search_progressive_spark(sg, gamma=gamma)) == []

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(1, 2), (3, 3)], "self-loop on 3"),
            ([(1, 2), (2, 9)], r"edge \(2,9\) references unknown vertex"),
        ],
    )
    def test_invalid_edges_are_rejected(self, spark, edges, message):
        with pytest.raises(ValueError, match=message):
            SparkGraph.from_pandas(spark, *self.frames(edges))

    def test_contract_is_checked_once(self, spark, monkeypatch):
        """``from_pandas`` runs ``check_graph`` once, with the duplicates
        already dropped."""
        calls = record_calls(monkeypatch, graph_module, "check_graph")
        # storage imports the name too (``canonical_frames`` calls it).
        monkeypatch.setattr(storage_module, "check_graph", graph_module.check_graph)
        path = [(1, 2), (2, 3), (2, 1), (3, 2)]
        sg = SparkGraph.from_pandas(spark, *self.frames(path))
        assert len(calls) == 1 and sg.index.n == 6 and len(sg.index.nbr) == 2

    @pytest.mark.parametrize(
        "column, message", [("weight", "pairwise distinct"), ("id", "duplicate vertex id 1")]
    )
    def test_tied_weights_and_repeated_ids_are_rejected(self, spark, column, message):
        vertices, edges = self.frames([(1, 2)])
        vertices.loc[1, column] = vertices.loc[0, column]
        with pytest.raises(ValueError, match=message):
            SparkGraph.from_pandas(spark, vertices, edges)


class TestGlobalBaselinesSpark:
    def test_online_all_and_forward(self, g3, monkeypatch):
        ref, sg = g3
        assert online_all_spark(sg, gamma=3, k=4) == TOP4
        assert forward_spark(sg, gamma=3, k=4) == TOP4
        # k ≤ 0 asks for nothing, so the whole-graph fixed point never runs.
        passes = record_calls(monkeypatch, global_search, "survival_threshold")
        for k in (0, -2):
            assert online_all_spark(sg, gamma=3, k=k) == forward_spark(sg, gamma=3, k=k) == []
        assert passes == []

    @pytest.mark.parametrize("baseline", [online_all_spark, forward_spark])
    def test_collect_only_finite_T_rows(self, g3, spark, monkeypatch, baseline):
        """Only the vertices with finite T (the γ-core) and the edges between
        them are collected to the driver."""
        ref, sg = g3
        got = record_calls(monkeypatch, global_search, "_components_pandas")
        collected = []
        frame = type(sg.edges)
        to_pandas = frame.toPandas
        monkeypatch.setattr(
            frame, "toPandas", lambda df: collected.append(to_pandas(df)) or collected[-1]
        )
        assert baseline(sg, gamma=3, k=4) == TOP4
        [(labels, edges, keys)] = got
        assert set(labels["id"]) == gamma_core_set(ref.weight, ref.edge_list(), 3)
        assert_only_live_rows(ref, labels, edges, ref.tau_min())
        [edges_collected] = [f for f in collected if list(f.columns) == ["src", "dst"]]
        assert len(edges_collected) == len(edges)
        empty = SparkGraph.from_pandas(spark, *empty_frames())
        assert baseline(empty, gamma=3, k=4) == []


@pytest.fixture(scope="class")
def nc_runs(g3, grand, route):
    """Spark non-containment top-2 at γ = 3 on fig3 and the random graph."""
    return [(ref, top_k_noncontainment_spark(sg, k=2, gamma=3)) for ref, sg in (g3, grand)]


class NonContainmentChecks:
    """Non-containment checks that must hold on either stage route."""

    ROUTE = DRIVER

    def test_fig3_top2(self, nc_runs):
        assert nc_runs[0][1].communities == [
            (18.0, frozenset({3, 11, 12, 20})),
            (14.0, frozenset({1, 6, 7, 16})),
        ]

    def test_random_matches_brute(self, nc_runs):
        ref, res = nc_runs[1]
        assert res.communities == noncontainment_brute(ref, 3)[:2]

    def test_stage_traces_match_ref(self, nc_runs):
        for ref, res in nc_runs:
            assert trace(res.stages) == trace(top_k_noncontainment(ref, 2, 3).stages)

    def test_every_stage_takes_the_route(self, nc_runs):
        for _, res in nc_runs:
            assert [s.route for s in res.stages] == [self.ROUTE] * len(res.stages)


class TestNonContainmentSpark(NonContainmentChecks):
    pass


class TestNonContainmentSparkSurvival(NonContainmentChecks):
    ROUTE = SURVIVAL

    def test_collects_only_live_rows(self, g3, monkeypatch):
        ref, sg = g3
        got = record_live_rows(monkeypatch)
        res = top_k_noncontainment_spark(sg, k=2, gamma=3)
        assert [s.tau for s in res.stages] == [17.0, 11.0]
        for (labels, edges), st in zip(got, res.stages, strict=True):
            assert "weight" in labels  # for the keynode test T == weight
            assert_only_live_rows(ref, labels, edges, st.tau)


@pytest.fixture(scope="class")
def truss_runs(g3, grand, route):
    """Spark LocalSearch-Truss: top-2 at γ = 4 on fig3, top-3 at γ = 3 on the
    random graph."""
    return [
        local_search_truss_spark(sg, k, gamma)
        for (_, sg), k, gamma in ((g3, 2, 4), (grand, 3, 3))
    ]


class TrussChecks:
    """LocalSearch-Truss checks that must hold on either stage route."""

    ROUTE = DRIVER

    def test_fig3_local_equals_global_and_ref(self, g3, truss_runs):
        ref, _ = g3
        res = truss_runs[0]
        assert res.communities == global_search_truss(ref, 2, 4)
        assert trace(res.stages) == trace(local_search_truss(ref, 2, 4).stages)

    def test_random_stage_trace_matches_ref(self, grand, truss_runs):
        ref, _ = grand
        want = local_search_truss(ref, 3, 3)
        res = truss_runs[1]
        assert res.communities == want.communities
        assert trace(res.stages) == trace(want.stages)

    def test_every_stage_takes_the_route(self, truss_runs):
        for res in truss_runs:
            assert [s.route for s in res.stages] == [self.ROUTE] * len(res.stages)


class TestTrussSpark(TrussChecks):
    pass


class TestTrussSparkSurvival(TrussChecks):
    ROUTE = SURVIVAL

    def test_collects_only_live_rows(self, g3, monkeypatch):
        """Each stage collects only the (γ−1)-core of G≥τ: the rows with
        T ≥ τ at γ−1 and the edges between them."""
        ref, sg = g3
        got = record_live_rows(monkeypatch)
        gammas = record_calls(monkeypatch, core_ls, "survival_threshold")
        res = local_search_truss_spark(sg, 2, 4)
        assert res.communities == global_search_truss(ref, 2, 4)
        assert [args[2] for args in gammas] == [3] * len(res.stages)
        for (labels, edges), st in zip(got, res.stages, strict=True):
            sub = ref.subgraph_ge(st.tau)
            assert set(labels["id"]) == gamma_core_set(sub.weight, sub.edge_list(), 3)
            assert_only_live_rows(ref, labels, edges, st.tau)


def raised(search, *args) -> str:
    """The message of the ``ValueError`` that ``search(*args)`` raises."""
    with pytest.raises(ValueError) as err:
        search(*args)
    return str(err.value)


class TestInputChecks:
    """γ is checked by each route's count step, with ``ref``'s message; k ≤ 0
    asks for nothing, whatever γ, on every engine."""

    @pytest.fixture
    def engines(self, g3, tmp_path):
        ref, sg = g3
        return ref, sg, EdgeBlockStore.write(str(tmp_path / "fig3"), ref, block_edges=8)

    def test_bad_gamma_raises_alike(self, engines):
        ref, sg, store = engines
        core = raised(local_search, ref, 2, 0)
        truss = raised(local_search_truss, ref, 2, 1)
        assert core == "gamma must be >= 1" and truss == "truss gamma must be >= 2"
        assert raised(lambda: next(local_search_progressive(ref, 0))) == core
        assert raised(top_k_noncontainment, ref, 2, 0) == core
        assert raised(local_search_se, store, 2, 0) == core
        for route in (DRIVER, SURVIVAL):
            with on_route(route):
                assert raised(local_search_spark, sg, 2, 0) == core
                assert raised(lambda: next(local_search_progressive_spark(sg, 0))) == core
                assert raised(top_k_noncontainment_spark, sg, 2, 0) == core
                assert raised(local_search_truss_spark, sg, 2, 1) == truss

    def test_nonpositive_k_returns_nothing(self, engines):
        ref, sg, store = engines
        for k in (0, -2):
            for gamma in (0, 1, 3):
                answers = [
                    local_search(ref, k, gamma).communities,
                    top_k_noncontainment(ref, k, gamma).communities,
                    local_search_truss(ref, k, gamma).communities,
                    local_search_spark(sg, k, gamma).communities,
                    top_k_noncontainment_spark(sg, k, gamma).communities,
                    local_search_truss_spark(sg, k, gamma).communities,
                    local_search_se(store, k, gamma)[0],
                    forward_nc(ref, k, gamma),
                    online_all_se(store, gamma, k)[0],
                ]
                assert answers == [[]] * len(answers)
        assert store.stats.blocks_read == 0
