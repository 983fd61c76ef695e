"""Table 1 — statistics of the (analog) graphs.

Columns mirror the paper: #vertices, #edges, d_max, d_avg, γmax (the
largest γ with a non-empty γ-core). The table describes the input graphs;
no query reads it, so ``table1_ref`` computes it exactly on the driver.
Paper-side values are carried along for the EXPERIMENTS.md diff.
"""
from __future__ import annotations

from typing import Dict, List

from repro.graphs.generators import DATASETS
from repro.ref.cores import gamma_max_ref

from .datasets import ref_graph


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


TABLE1_COLS = [
    "graph", "n", "m", "d_max", "d_avg", "gamma_max",
    "paper_n", "paper_m", "paper_d_max", "paper_d_avg", "paper_gamma_max", "scale",
]
