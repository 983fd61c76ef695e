"""Distributed LocalSearch / LocalSearch-P / NC / truss vs the references.

Each heavy pipeline runs once per module (module-scoped fixtures); the
asserts fan out over the shared results to keep Spark wall-time bounded.
"""
import pandas as pd
import pytest

import repro.core.local_search as core_ls
import repro.core.progressive as core_p
from repro.baselines.global_search import forward_spark, online_all_spark
from repro.core.enum_ic import enumerate_distributed, enumerate_driver
from repro.core.local_search import DRIVER, SURVIVAL, local_search_spark
from repro.core.noncontainment import top_k_noncontainment_spark
from repro.core.progressive import local_search_progressive_spark
from repro.core.truss_search import global_search_truss_spark, local_search_truss_spark
from repro.graphs.storage import SparkGraph
from repro.kernels.survival import survival_threshold
from repro.ref.enum_ic import all_communities_brute
from repro.ref.graph import RefGraph
from repro.ref.local_search import local_search, tau_star_size
from repro.ref.noncontainment import noncontainment_brute, top_k_noncontainment
from repro.ref.truss import global_search_truss, local_search_truss

from .paper_graphs import fig3_graph
from .spark_helpers import random_ref_graph, ref_to_spark

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


@pytest.fixture(scope="class", autouse=True)
def route(request):
    """The stage route of the class's ``ROUTE`` (default: the driver route,
    which every stage here fits). ``SURVIVAL`` sets the driver budget to 0,
    so every stage runs the survival fixed point."""
    route = getattr(request.cls, "ROUTE", DRIVER)
    with pytest.MonkeyPatch.context() as mp:
        if route == SURVIVAL:
            for mod in (core_ls, core_p):
                mp.setattr(mod, "driver_rows_budget", lambda spark: 0)
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


class TestLocalSearchSparkSurvival(LocalSearchChecks):
    ROUTE = SURVIVAL


class TestLocalSearchSpark(LocalSearchChecks):
    def test_enum_modes_agree(self, g3):
        ref, sg = g3
        sub = sg.subgraph_ge(12.0)
        surv = survival_threshold(sub.vertices, sub.edges, 3)
        a = enumerate_driver(surv.labels, sub.edges, 4)
        b = enumerate_distributed(surv.labels, sub.edges, 4)
        assert a == b == TOP4

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


class TestProgressiveSpark(ProgressiveChecks):
    def test_delta_one_raises_on_first_next(self, g3):
        gen = local_search_progressive_spark(g3[1], gamma=3, delta=1.0)
        with pytest.raises(ValueError, match="delta must be > 1"):
            next(gen)

    def test_empty_graph_streams_nothing(self, spark):
        empty = SparkGraph.from_pandas(spark, *empty_frames())
        assert list(local_search_progressive_spark(empty, gamma=2)) == []


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
        assert sg.counts() == (6, 5)

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

    @pytest.mark.parametrize(
        "column, message", [("weight", "pairwise distinct"), ("id", "duplicate vertex id 1")]
    )
    def test_tied_weights_and_repeated_ids_are_rejected(self, spark, column, message):
        vertices, edges = self.frames([(1, 2)])
        vertices.loc[1, column] = vertices.loc[0, column]
        with pytest.raises(ValueError, match=message):
            SparkGraph.from_pandas(spark, vertices, edges)


class TestGlobalBaselinesSpark:
    def test_online_all_and_forward(self, g3):
        ref, sg = g3
        assert online_all_spark(sg, gamma=3, k=4) == TOP4
        assert forward_spark(sg, gamma=3, k=4) == TOP4


@pytest.fixture(scope="class")
def nc_runs(g3, grand):
    """Spark non-containment top-2 at γ = 3 on fig3 and the random graph."""
    return [(ref, top_k_noncontainment_spark(sg, k=2, gamma=3)) for ref, sg in (g3, grand)]


class TestNonContainmentSpark:
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


class TestTrussSpark:
    def test_fig3_local_equals_global_and_ref(self, g3):
        ref, sg = g3
        want = global_search_truss(ref, 2, 4)
        res = local_search_truss_spark(sg, 2, 4)
        assert res.communities == want
        assert trace(res.stages) == trace(local_search_truss(ref, 2, 4).stages)
        assert global_search_truss_spark(sg, 2, 4) == want

    def test_random_stage_trace_matches_ref(self, grand):
        ref, sg = grand
        want = local_search_truss(ref, 3, 3)
        res = local_search_truss_spark(sg, 3, 3)
        assert res.communities == want.communities
        assert trace(res.stages) == trace(want.stages)
