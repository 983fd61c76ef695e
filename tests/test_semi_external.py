"""Semi-external storage + algorithms (Eval-VI substrate)."""
import os
import shutil

import numpy as np
import pyarrow as pa
import pytest

import repro.semi_external.algorithms as se_alg
from repro.graphs.weights import as_ref_graph, build_dataset_pandas
from repro.ref.count_ic import count_ic, survival_threshold_brute
from repro.ref.enum_ic import all_communities_brute
from repro.ref.graph import RefGraph
from repro.ref.local_search import local_search
from repro.semi_external.algorithms import local_search_se, online_all_se
from repro.semi_external.storage import EdgeBlockStore

from .paper_graphs import fig3_graph
from .spark_helpers import random_ref_graph
from .test_ref_graph import count_checks


@pytest.fixture()
def fig3_store(tmp_path):
    g = fig3_graph()
    return g, EdgeBlockStore.write(str(tmp_path / "fig3"), g, block_edges=8)


class TestStorage:
    def test_blocks_sorted_desc_by_wmin(self, fig3_store):
        g, store = fig3_store
        last = float("inf")
        total = 0
        for blk in map(pa.Table.to_pandas, store.scan()):
            assert (blk["w_min"].diff().dropna() <= 0).all()
            assert blk["w_min"].iloc[0] <= last
            last = blk["w_min"].iloc[-1]
            total += len(blk)
        assert total == g.n_edges

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_blocks_are_the_layout(self, tmp_path, seed):
        """The blocks, concatenated, are ``g``'s edge layout; for every τ the
        first ``size_at_tau(τ) − r_for_tau(τ)`` rows are exactly G≥τ's edges."""
        g = random_ref_graph(40, 150, seed=seed)
        store = EdgeBlockStore.write(str(tmp_path / "s"), g, block_edges=16)
        blocks = pa.concat_tables(store.scan()).to_pandas()
        lower, upper = g.index.edge_ends()
        assert blocks["src"].tolist() == np.minimum(lower, upper).tolist()
        assert blocks["dst"].tolist() == np.maximum(lower, upper).tolist()
        rows = list(zip(blocks["src"].tolist(), blocks["dst"].tolist()))
        w_min = [min(g.weight[a], g.weight[b]) for a, b in rows]
        assert blocks["w_min"].tolist() == w_min == sorted(w_min, reverse=True)
        for tau in sorted(g.weight.values()) + [0.5, max(g.weight.values()) + 1]:
            m = store.size_at_tau(tau) - store.r_for_tau(tau)
            assert set(rows[:m]) == {
                (a, b) for a, b in g.edge_list() if g.weight[a] >= tau and g.weight[b] >= tau
            }

    def test_setup_builds_only_the_layout(self, tmp_path):
        """A RefGraph built and written as se-disk's set-up does it builds
        neither its adjacency sets nor its CSR: both are derived on first
        use, and neither the build nor the write needs them."""
        v, e = build_dataset_pandas("email", scale=0.05)
        g = as_ref_graph(e, v)
        EdgeBlockStore.write(str(tmp_path / "s"), g, block_edges=64)
        assert "adj" not in g.__dict__ and "csr" not in g.__dict__

    def test_io_accounting(self, fig3_store):
        _, store = fig3_store
        store.read_block(0)
        assert store.stats.blocks_read == 1 and store.stats.bytes_read > 0

    def test_reopen(self, fig3_store, tmp_path):
        _, store = fig3_store
        again = EdgeBlockStore.open(store.path)
        assert again.n_blocks == store.n_blocks
        assert len(again.vertices()) == 22


class TestLocalSearchSE:
    def test_fig3_top4(self, fig3_store):
        g, store = fig3_store
        comms, store = local_search_se(store, k=4, gamma=3)
        assert comms == local_search(g, 4, 3).communities

    def test_reads_only_prefix(self, fig3_store):
        g, store = fig3_store
        local_search_se(store, k=1, gamma=3)
        assert store.stats.blocks_read < store.n_blocks

    def test_random_graphs(self, tmp_path):
        for seed in (1, 2, 3):
            g = random_ref_graph(60, 200, seed=seed)
            store = EdgeBlockStore.write(str(tmp_path / f"r{seed}"), g, block_edges=16)
            comms, _ = local_search_se(store, k=3, gamma=3)
            assert comms == local_search(g, 3, 3).communities


def se_stage_sizes(store, k, gamma, delta=2.0):
    """LocalSearch-SE's answer and the size of every stage's subgraph, read
    off the ``count_ic`` calls (one per stage, on exactly ``G≥τ``)."""
    sizes = []
    count_ic = se_alg.count_ic

    def recording(sub, *args, **kwargs):
        sizes.append(sub.size)
        return count_ic(sub, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(se_alg, "count_ic", recording)
        comms, _ = local_search_se(store, k, gamma, delta)
    return comms, sizes


class TestLocalSearchSEStages:
    """LocalSearch-SE runs the shared growth driver: its stages are ``ref``'s."""

    @pytest.mark.parametrize("k, sizes", [(4, [18, 36]), (6, [21, 42, 69])])
    def test_fig3_stages_equal_ref(self, fig3_store, k, sizes):
        g, store = fig3_store
        want = local_search(g, k, 3)
        comms, got = se_stage_sizes(store, k, 3)
        assert got == sizes == [st.size for st in want.stages]
        assert comms == want.communities

    def test_random_stages_equal_ref(self, tmp_path):
        for seed in (1, 2, 3):
            g = random_ref_graph(60, 200, seed=seed)
            path = str(tmp_path / f"r{seed}")
            EdgeBlockStore.write(path, g, block_edges=16)
            for k, gamma, delta in ((1, 2, 2.0), (3, 3, 2.0), (6, 2, 1.5), (4, 3, 3.0)):
                want = local_search(g, k, gamma, delta)
                comms, got = se_stage_sizes(EdgeBlockStore.open(path), k, gamma, delta)
                assert got == [st.size for st in want.stages]
                assert comms == want.communities

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_nonpositive_reads_nothing(self, fig3_store, k):
        _, store = fig3_store
        assert se_stage_sizes(store, k, 3) == ([], [])
        assert store.stats.blocks_read == 0

    def test_empty_store(self, tmp_path):
        store = EdgeBlockStore.write(str(tmp_path / "empty"), RefGraph({}, []))
        assert se_stage_sizes(EdgeBlockStore.open(store.path), 3, 2) == ([], [])

    @pytest.mark.parametrize("delta", [1.0, 0.5])
    def test_delta_at_most_one_raises(self, fig3_store, delta):
        _, store = fig3_store
        with pytest.raises(ValueError, match="delta must be > 1"):
            local_search_se(store, 4, 3, delta)


#: The (k, γ) shapes of the se-disk benchmark workload, each also as top-1.
SE_DISK_SHAPES = [(k, gamma) for k0, gamma in ((10, 5), (10, 10), (50, 10), (128, 10), (10, 20))
                  for k in (k0, 1)]


class TestOneCheckPerIngest:
    """The graph contract is checked once, when the graph is built; the
    store's blocks and every LocalSearch-SE stage are trusted from then on."""

    def test_build_and_write_check_once(self, tmp_path, monkeypatch):
        v, e = build_dataset_pandas("email", scale=0.05)
        calls = count_checks(monkeypatch)
        g = as_ref_graph(e, v)
        EdgeBlockStore.write(str(tmp_path / "s"), g, block_edges=64)
        assert calls == [1]

    def test_local_search_se_runs_no_check(self, tmp_path, monkeypatch):
        v, e = build_dataset_pandas("email", scale=0.2)
        g = as_ref_graph(e, v)
        path = str(tmp_path / "s")
        EdgeBlockStore.write(path, g, block_edges=256)
        calls = count_checks(monkeypatch)
        for k, gamma in SE_DISK_SHAPES:
            comms, _ = local_search_se(EdgeBlockStore.open(path), k, gamma)
            assert len(comms) == min(k, count_ic(g, gamma).count)
        assert calls == []

    @pytest.mark.parametrize("case", ["same vertices", "blocks end early", "other ids"])
    def test_blocks_of_another_graph_raise(self, tmp_path, case):
        """A store whose blocks were written from another graph than its
        vertex table fails the stage's layout check; it never answers."""
        g = random_ref_graph(60, 200, seed=1)
        blocks_of, table_of = {
            "same vertices": (g, RefGraph(g.weight, random_ref_graph(60, 200, seed=2).edge_list())),
            "blocks end early": (RefGraph(g.weight, g.edge_list()[:150]), g),
            "other ids": (g, RefGraph(
                {v + 1000: w for v, w in g.weight.items()},
                [(a + 1000, b + 1000) for a, b in g.edge_list()],
            )),
        }[case]
        path, donor = str(tmp_path / "blocks"), str(tmp_path / "table")
        EdgeBlockStore.write(path, blocks_of, block_edges=16)
        EdgeBlockStore.write(donor, table_of, block_edges=16)
        shutil.copy(os.path.join(donor, "vertices.parquet"), path)
        with pytest.raises(ValueError, match="do not match the vertex table"):
            local_search_se(EdgeBlockStore.open(path), 1000, 2)


class TestStreamingT:
    def path_store(self, tmp_path):
        g = RefGraph({v: float(v + 1) for v in range(6)}, [(v, v + 1) for v in range(5)])
        store = EdgeBlockStore.write(str(tmp_path / "path"), g, block_edges=4)
        return g, store, np.array([g.weight[v] for v in range(6)])

    def test_converges_to_the_survival_threshold(self, tmp_path):
        g, store, weights = self.path_store(tmp_path)
        T = se_alg._streaming_T(store, weights, 1)
        assert dict(enumerate(T.tolist())) == survival_threshold_brute(g, 1)

    def test_max_iter_exhausted_raises(self, tmp_path):
        _, store, weights = self.path_store(tmp_path)
        with pytest.raises(RuntimeError, match="did not converge in 1 scans"):
            se_alg._streaming_T(store, weights, 1, max_iter=1)


class TestOnlineAllSE:
    def test_fig3_all_communities(self, fig3_store):
        g, store = fig3_store
        comms, store = online_all_se(store, gamma=3)
        assert comms == all_communities_brute(g, 3)

    def test_reads_whole_file_multiple_times(self, fig3_store):
        _, store = fig3_store
        online_all_se(store, gamma=3)
        assert store.stats.full_scans >= 2  # T iterations + final sweep

    def test_random_graphs(self, tmp_path):
        for seed in (4, 5):
            # contiguous 0..n-1 ids required by the streaming baseline
            g = random_ref_graph(50, 160, seed=seed)
            store = EdgeBlockStore.write(str(tmp_path / f"o{seed}"), g, block_edges=16)
            comms, _ = online_all_se(store, gamma=2)
            assert comms == all_communities_brute(g, 2)

    def test_offset_ids_are_rejected(self, tmp_path):
        """Its per-vertex arrays are indexed by raw id, so ids that are not
        0..n-1 must raise, also under ``python -O``."""
        g = random_ref_graph(30, 80, seed=4)
        shifted = RefGraph(
            {v + 1000: w for v, w in g.weight.items()},
            [(a + 1000, b + 1000) for a, b in g.edge_list()],
        )
        store = EdgeBlockStore.write(str(tmp_path / "offset"), shifted, block_edges=16)
        with pytest.raises(ValueError, match="vertex ids 0..n-1"):
            online_all_se(store, gamma=2)


class TestCostShape:
    def test_ls_se_reads_and_memory_below_oa_se(self, tmp_path):
        v, e = build_dataset_pandas("email", scale=0.2)
        g = as_ref_graph(e, v)
        s1 = EdgeBlockStore.write(str(tmp_path / "a"), g, block_edges=256)
        s2 = EdgeBlockStore.write(str(tmp_path / "b"), g, block_edges=256)
        c1, s1 = local_search_se(s1, k=5, gamma=5)
        c2, s2 = online_all_se(s2, gamma=5, k=5)
        assert [w for w, _ in c1] == [w for w, _ in c2]
        assert s1.stats.bytes_read < s2.stats.bytes_read
        assert s1.stats.peak_resident_edges <= g.n_edges
