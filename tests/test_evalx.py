"""Eval harness: Table 1 equals independent counts; every experiment driver
produces well-formed rows at test scale; jobs run end-to-end."""
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.evalx import experiments as E
from repro.evalx.harness import consume_topk, fmt_rows, timed
from repro.evalx.table1 import table1_ref
from repro.graphs.storage import canonical_frames
from repro.graphs.weights import build_dataset_pandas
from repro.ref.count_ic import gamma_core_set

SCALE = 0.08
#: the checkout these tests belong to, whose jobs (and sources) they run
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT_ENV = dict(os.environ)
ROOT_ENV["PYTHONPATH"] = os.pathsep.join(
    filter(None, (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")))
)


class TestTable1:
    def test_ref_rows_have_paper_columns(self):
        rows = table1_ref(["email"], scale=SCALE)
        r = rows[0]
        assert r["paper_n"] == 36_692 and r["paper_gamma_max"] == 43
        assert r["n"] > 0 and r["m"] > 0 and r["d_max"] >= r["d_avg"]

    def test_ref_equals_independent_counts(self):
        [row] = table1_ref(["email"], scale=SCALE)
        vertices, edges = canonical_frames(*build_dataset_pandas("email", scale=SCALE))
        n, m = len(vertices), len(edges)
        assert (row["n"], row["m"]) == (n, m)
        ends = np.concatenate((edges["src"].to_numpy(), edges["dst"].to_numpy()))
        assert row["d_max"] == np.bincount(ends).max()
        assert row["d_avg"] == round(2 * m / n, 2)
        weights = dict(zip(vertices["id"].tolist(), vertices["weight"].tolist()))
        pairs = list(zip(edges["src"].tolist(), edges["dst"].tolist()))
        assert gamma_core_set(weights, pairs, row["gamma_max"])
        assert not gamma_core_set(weights, pairs, row["gamma_max"] + 1)


class TestHarness:
    def test_timed(self):
        out, ms = timed(lambda x: x + 1, 41)
        assert out == 42 and ms >= 0

    def test_consume_topk(self):
        assert consume_topk(iter(range(100)), 3) == [0, 1, 2]

    def test_fmt_rows_is_markdown(self):
        s = fmt_rows([{"a": 1, "b": 2.5}], ["a", "b"], title="T")
        assert s.startswith("### T") and "| 2.50 |" in s


class TestExperimentDrivers:
    """Each driver returns non-empty, well-formed rows at test scale."""

    def test_eval1_vary_k(self):
        rows, cols = E.eval1_vary_k(names=["email"], ks=(2, 5), gamma=5, scale=SCALE)
        assert len(rows) == 2 and all(r["LocalSearch-P_ms"] > 0 for r in rows)

    def test_eval1_vary_gamma(self):
        rows, _ = E.eval1_vary_gamma(names=["email"], gammas=(3, 5), k=3, scale=SCALE)
        assert len(rows) == 2

    def test_eval2(self):
        rows, _ = E.eval2_backward(names=["email"], ks=(3,), gammas=(5,), scale=SCALE)
        assert rows[0]["Backward_stages"] >= 1

    def test_eval3(self):
        rows, _ = E.eval3_countic(names=["email"], ks=(3,), gamma=5, scale=SCALE)
        assert rows[0]["LocalSearch-OA_ms"] > 0

    def test_eval4(self):
        rows, _ = E.eval4_delta(names=["email"], deltas=(1.5, 2), gamma=5, scale=SCALE)
        assert {r["delta"] for r in rows} == {1.5, 2}

    def test_eval5(self):
        rows, _ = E.eval5_latency(name="email", k=8, gamma=5, scale=SCALE,
                                  report_at=(1, 4, 8))
        assert rows and rows[0]["top_i"] == 1
        rows, _ = E.eval5_total(names=["email"], ks=(3,), gamma=5, scale=SCALE)
        assert rows

    def test_eval6(self, tmp_path):
        rows, _ = E.eval6_semi_external(
            names=["email"], gamma=5, scale=SCALE, block_edges=256,
            workdir=str(tmp_path),
        )
        by_algo = {r["algorithm"]: r for r in rows}
        assert by_algo["LocalSearch-SE"]["MB_read"] <= by_algo["OnlineAll-SE"]["MB_read"]

    def test_eval7(self):
        rows, _ = E.eval7_noncontainment(names=["email"], ks=(2,), gamma=5, scale=SCALE)
        assert rows[0]["Forward_ms"] > 0

    def test_eval8(self):
        rows, _ = E.eval8_truss(names=["email"], ks=(2,), gamma=4, scale=SCALE)
        assert rows[0]["GlobalSearch-Truss_ms"] > 0

    def test_eval9(self):
        rows, _ = E.eval9_case_study()
        sizes = {r["community"]: r["size"] for r in rows}
        core_key = [c for c in sizes if c.startswith("top-1 5-community")][0]
        truss_key = [c for c in sizes if "truss" in c][0]
        # The paper's qualitative claims: truss community is smaller …
        assert sizes[truss_key] <= sizes[core_key]

    def test_locality(self):
        rows, _ = E.locality(names=["email"], k=3, gamma=5, scale=SCALE)
        assert 0 < rows[0]["ratio_pct"] <= 100


class TestJobs:
    @pytest.mark.parametrize(
        "cmd",
        [
            ["jobs/table1_stats.py", "--scale", "0.05", "--names", "email"],
            ["jobs/eval2_backward.py", "--scale", "0.05", "--names", "email"],
            ["jobs/eval9_case_study.py"],
            ["jobs/eval8_truss.py", "--scale", "0.05", "--names", "email"],
        ],
    )
    def test_job_runs(self, cmd):
        out = subprocess.run(
            [sys.executable, *cmd], capture_output=True, text=True,
            cwd=ROOT, timeout=300, env=ROOT_ENV,
        )
        assert out.returncode == 0, out.stderr[-2000:]
        assert "|" in out.stdout  # printed a table
