"""Relational kernels & storage vs the DuckDB oracle.

Everything here is plain relational algebra (induced-subgraph
extraction and the §3.1 prefix-size index), so
``repro.oracle.assert_equivalent`` re-runs each query on DuckDB over the
same pandas inputs and diffs the sorted rows. The prefix index's lookups are
checked on all three graph types that answer from it.
"""
import pytest

from repro.oracle import assert_equivalent
from repro.semi_external.storage import EdgeBlockStore

from .paper_graphs import fig3_graph
from .spark_helpers import random_ref_graph, ref_to_pandas, ref_to_spark


@pytest.fixture(scope="module")
def g3(spark):
    ref = fig3_graph()
    return ref, ref_to_spark(spark, ref), *ref_to_pandas(ref)


@pytest.fixture(scope="module")
def grand(spark):
    ref = random_ref_graph(120, 420, seed=5)
    return ref, ref_to_spark(spark, ref), *ref_to_pandas(ref)


class TestSubgraphExtraction:
    @pytest.mark.parametrize("tau", [5.0, 12.0, 18.0, 22.0])
    def test_edges_of_g_ge_tau(self, g3, tau):
        ref, sg, vpdf, epdf = g3
        sub = sg.subgraph_ge(tau)
        assert_equivalent(
            sub.edges.select("src", "dst"),
            f"""
            SELECT e.src, e.dst FROM edges e
            JOIN vertices a ON a.id = e.src
            JOIN vertices b ON b.id = e.dst
            WHERE a.weight >= {tau} AND b.weight >= {tau}
            """,
            edges=epdf,
            vertices=vpdf,
        )

    @pytest.mark.parametrize("tau", [5.0, 12.0, 18.0])
    def test_matches_ref_subgraph(self, g3, tau):
        ref, sg, _, _ = g3
        sub_ref = ref.subgraph_ge(tau)
        sub = sg.subgraph_ge(tau)
        assert (sub.vertices.count(), sub.edges.count()) == (sub_ref.n, sub_ref.n_edges)


class TestPrefixIndex:
    def test_vs_duckdb_window_query(self, grand):
        _, sg, vpdf, epdf = grand
        ew = epdf.merge(vpdf.rename(columns={"id": "src", "weight": "w_src"}), on="src")
        ew = ew.merge(vpdf.rename(columns={"id": "dst", "weight": "w_dst"}), on="dst")
        assert_equivalent(
            sg.prefix_index(),
            """
            WITH updeg AS (
              SELECT CASE WHEN w_src < w_dst THEN src ELSE dst END AS id,
                     COUNT(*) AS up_degree
              FROM edges_w GROUP BY 1
            )
            SELECT v.id, v.weight,
                   ROW_NUMBER() OVER (ORDER BY v.weight DESC) AS rank,
                   COALESCE(u.up_degree, 0) AS up_degree,
                   ROW_NUMBER() OVER (ORDER BY v.weight DESC)
                   + SUM(COALESCE(u.up_degree, 0)) OVER
                     (ORDER BY v.weight DESC ROWS UNBOUNDED PRECEDING) AS cum_size
            FROM vertices v LEFT JOIN updeg u USING (id)
            """,
            vertices=vpdf,
            edges_w=ew,
        )

    def test_matches_ref_prefix_sizes(self, grand):
        ref, sg, _, _ = grand
        idx = sg.prefix_index().orderBy("rank").toPandas()
        assert list(idx["cum_size"]) == [ref.prefix_size(r) for r in range(1, ref.n + 1)]

    @pytest.mark.parametrize("graph", ["g3", "grand"], ids=["fig3", "random"])
    def test_lookups_agree(self, request, graph, tmp_path):
        """``RefGraph``, ``SparkGraph`` and an opened ``EdgeBlockStore`` give
        the growth driver the same answers, and those are the graph's."""
        ref, sg, _, _ = request.getfixturevalue(graph)
        EdgeBlockStore.write(str(tmp_path / "store"), ref, block_edges=8)
        store = EdgeBlockStore.open(str(tmp_path / "store"))
        ws = sorted(ref.weight.values(), reverse=True)
        edges_w = [min(ref.weight[a], ref.weight[b]) for a, b in ref.edge_list()]

        def size_at(tau):
            return sum(w >= tau for w in ws) + sum(w >= tau for w in edges_w)

        taus = ws + [w - 0.5 for w in ws] + [ws[0] + 1]
        targets = range(1, ref.size + 3)
        for g in (ref, sg, store):
            assert g.tau_min() == ws[-1]
            assert [g.tau_for_rank(r) for r in range(1, ref.n + 3)] == ws + [ws[-1]] * 2
            assert [g.size_at_tau(t) for t in taus] == [size_at(t) for t in taus]
            assert [g.tau_for_size(t) for t in targets] == [
                max([w for w in ws if size_at(w) >= t], default=ws[-1]) for t in targets
            ]

    def test_tau_for_rank(self, g3):
        ref, sg, _, _ = g3
        assert sg.tau_for_rank(7) == 18.0  # Example 3.1's τ₁

    def test_size_at_tau(self, g3):
        ref, sg, _, _ = g3
        assert sg.size_at_tau(18.0) == 18  # Example 3.1: 7 vertices + 11 edges
        assert sg.size_at_tau(12.0) == 36
