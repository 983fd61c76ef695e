"""Iterative Pregel-style kernels vs the exact sequential references."""
import pytest

from repro.kernels.survival import count_keynodes, keynodes, survival_threshold
from repro.ref.count_ic import count_ic, survival_threshold_brute
from repro.ref.graph import NEG_INF

from .paper_graphs import fig3_graph
from .spark_helpers import random_ref_graph, ref_to_spark


@pytest.fixture(scope="module")
def g3(spark):
    ref = fig3_graph()
    return ref, ref_to_spark(spark, ref)


@pytest.fixture(scope="module")
def grand(spark):
    ref = random_ref_graph(80, 260, seed=11)
    return ref, ref_to_spark(spark, ref)


class TestSurvivalThreshold:
    @pytest.mark.parametrize("gamma", [2, 3, 4])
    def test_T_matches_brute(self, g3, gamma):
        ref, sg = g3
        res = survival_threshold(sg.vertices, sg.edges, gamma)
        got = {r["id"]: r["T"] for r in res.labels.collect()}
        want = survival_threshold_brute(ref, gamma)
        assert got == want

    def test_random_graph_T(self, grand):
        ref, sg = grand
        res = survival_threshold(sg.vertices, sg.edges, 3)
        got = {r["id"]: r["T"] for r in res.labels.collect()}
        assert got == survival_threshold_brute(ref, 3)

    def test_keynode_count_equals_countic(self, grand):
        ref, sg = grand
        for gamma in (2, 3):
            res = survival_threshold(sg.vertices, sg.edges, gamma)
            assert count_keynodes(res.labels) == count_ic(ref, gamma).count

    def test_fig3_keynodes(self, g3):
        ref, sg = g3
        res = survival_threshold(sg.vertices, sg.edges, 3)
        ids = {r["id"] for r in keynodes(res.labels).collect()}
        assert ids == {14, 2, 4, 19, 10, 0, 5, 13, 7, 11}

    def test_neg_inf_for_coreless(self, g3):
        ref, sg = g3
        res = survival_threshold(sg.vertices, sg.edges, 4)
        got = {r["id"]: r["T"] for r in res.labels.collect()}
        want = survival_threshold_brute(ref, 4)
        assert got == want
        assert any(t == NEG_INF for t in got.values())


class TestUnconvergedRaises:
    """A fixed point cut off by ``max_iter`` raises; it never returns the
    labelling it had reached."""

    def test_survival_threshold(self, g3):
        _, sg = g3
        with pytest.raises(RuntimeError, match="did not converge in 1 supersteps"):
            survival_threshold(sg.vertices, sg.edges, 3, max_iter=1)
