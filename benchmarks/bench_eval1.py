"""Benchmark Eval-I (Figures 8–10): LocalSearch-P vs Forward vs OnlineAll.

``ref`` engine on three analogs; the distributed engine on a scaled email
analog (Spark job-scheduling overhead dominates at millisecond scale, so
the spark rows demonstrate the dataflow build rather than the raw ratios —
see EXPERIMENTS.md).
"""
import pytest

from repro.evalx.datasets import ref_graph, spark_graph
from repro.evalx.harness import consume_topk
from repro.ref.baselines import forward, online_all
from repro.ref.progressive import local_search_progressive

NAMES = ["email", "youtube", "orkut"]
K, GAMMA = 10, 10


@pytest.mark.parametrize("name", NAMES)
def test_local_search_p(benchmark, name):
    g = ref_graph(name, 1.0)
    out = benchmark.pedantic(
        lambda: consume_topk(local_search_progressive(g, GAMMA), K),
        rounds=3, iterations=1,
    )
    assert len(out) == K


@pytest.mark.parametrize("name", NAMES)
def test_forward(benchmark, name):
    g = ref_graph(name, 1.0)
    out = benchmark.pedantic(lambda: forward(g, K, GAMMA), rounds=3, iterations=1)
    assert len(out) == K


@pytest.mark.parametrize("name", ["email", "youtube"])
def test_online_all(benchmark, name):
    g = ref_graph(name, 1.0)
    out = benchmark.pedantic(
        lambda: online_all(g, GAMMA, k=K), rounds=1, iterations=1
    )
    assert len(out) == K


@pytest.mark.parametrize("algo", ["local_search_p", "forward"])
def test_spark_engine_email(benchmark, spark, algo):
    from repro.baselines.global_search import forward_spark
    from repro.core.progressive import local_search_progressive_spark

    sg = spark_graph(spark, "email", 0.3)
    if algo == "local_search_p":
        fn = lambda: consume_topk(local_search_progressive_spark(sg, GAMMA), K)  # noqa: E731
    else:
        fn = lambda: forward_spark(sg, GAMMA, K)  # noqa: E731
    out = benchmark.pedantic(fn, rounds=1, iterations=1)
    assert len(out) == K
