"""Table 1 — statistics of the (analog) graphs.

Columns mirror the paper: #vertices, #edges, d_max, d_avg, γmax (the
largest γ with a non-empty γ-core). Both engines compute the same numbers:
``table1_ref`` peels on the driver, ``table1_spark`` uses the distributed
degree and h-index-coreness kernels (validated against each other in
tests). Paper-side values are carried along for the EXPERIMENTS.md diff.
"""
from __future__ import annotations

from typing import Dict, List

from pyspark.sql import functions as F

from repro.graphs.generators import DATASETS
from repro.ref.cores import gamma_max_ref

from .datasets import ref_graph, spark_graph


def table1_ref(names: List[str], scale: float = 1.0) -> List[Dict]:
    rows = []
    for name in names:
        g = ref_graph(name, scale)
        indptr = g.csr[0]
        p = DATASETS[name].paper
        rows.append(
            {
                "graph": name,
                "n": g.n,
                "m": g.n_edges,
                "d_max": max(b - a for a, b in zip(indptr, indptr[1:])),
                "d_avg": round(2 * g.n_edges / g.n, 2),
                "gamma_max": gamma_max_ref(g),
                "paper_n": p.n,
                "paper_m": p.m,
                "paper_d_max": p.d_max,
                "paper_d_avg": p.d_avg,
                "paper_gamma_max": p.gamma_max,
                "scale": DATASETS[name].scale_note,
            }
        )
    return rows


def table1_spark(spark, names: List[str], scale: float = 1.0) -> List[Dict]:
    from repro.kernels.coreness import gamma_max
    from repro.kernels.degrees import degrees

    rows = []
    for name in names:
        sg = spark_graph(spark, name, scale)
        n, m = sg.counts()
        dm = degrees(sg.edges, sg.vertices).agg(F.max("degree")).collect()[0][0]
        rows.append(
            {
                "graph": name,
                "n": n,
                "m": m,
                "d_max": int(dm),
                "d_avg": round(2 * m / n, 2),
                "gamma_max": gamma_max(sg.vertices, sg.edges),
            }
        )
    return rows


TABLE1_COLS = [
    "graph", "n", "m", "d_max", "d_avg", "gamma_max",
    "paper_n", "paper_m", "paper_d_max", "paper_d_avg", "paper_gamma_max", "scale",
]
