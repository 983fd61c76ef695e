"""Experiment drivers for Eval-I … Eval-IX (§6).

Each ``evalN_*`` function returns ``(rows, cols)`` ready for
``harness.fmt_rows``; the jobs in ``jobs/`` print them and EXPERIMENTS.md
records paper-vs-measured. Engines:

* ``ref`` — the exact sequential implementations (the paper's algorithms
  are single-machine; this engine carries the cost-*shape* comparisons);
* ``spark`` — the distributed pipelines (the mandated dataflow build; used
  on a subset since per-job scheduling overhead dominates millisecond-scale
  local searches).
"""
from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

from repro.ref.baselines import backward_arith, forward, local_search_oa, online_all
from repro.ref.count_ic import count_ic
from repro.ref.local_search import local_search, tau_star_size
from repro.ref.noncontainment import forward_nc, top_k_noncontainment
from repro.ref.progressive import local_search_progressive
from repro.ref.truss import global_search_truss, local_search_truss

from .datasets import ALL, MID, SMALL, ref_graph
from .harness import consume_topk, timed

Rows = Tuple[List[Dict], List[str]]


def _lsp_topk(g, k, gamma, delta=2.0):
    return consume_topk(local_search_progressive(g, gamma, delta), k)


# ---------------------------------------------------------------- Eval-I
def eval1_vary_k(
    names: Sequence[str] = ALL,
    ks: Sequence[int] = (5, 10, 20, 50, 100),
    gamma: int = 10,
    scale: float = 1.0,
) -> Rows:
    """Figure 8: LocalSearch-P vs OnlineAll vs Forward, varying k."""
    rows = []
    for name in names:
        g = ref_graph(name, scale)
        for k in ks:
            r, t_lsp = timed(_lsp_topk, g, k, gamma)
            _, t_fwd = timed(forward, g, k, gamma)
            row = {
                "graph": name, "k": k, "gamma": gamma, "found": len(r),
                "LocalSearch-P_ms": t_lsp, "Forward_ms": t_fwd,
                "speedup_vs_Forward": round(t_fwd / max(t_lsp, 1e-6), 1),
            }
            if name in SMALL:
                _, t_oa = timed(online_all, g, gamma, k)
                row["OnlineAll_ms"] = t_oa
                row["speedup_vs_OnlineAll"] = round(t_oa / max(t_lsp, 1e-6), 1)
            rows.append(row)
    cols = ["graph", "k", "gamma", "found", "LocalSearch-P_ms", "Forward_ms",
            "OnlineAll_ms", "speedup_vs_Forward", "speedup_vs_OnlineAll"]
    return rows, cols


def eval1_vary_gamma(
    names: Sequence[str] = ALL,
    gammas: Sequence[int] = (5, 10, 20, 50),
    k: int = 10,
    scale: float = 1.0,
) -> Rows:
    """Figure 9: varying γ at k=10."""
    rows = []
    for name in names:
        g = ref_graph(name, scale)
        for gamma in gammas:
            r, t_lsp = timed(_lsp_topk, g, k, gamma)
            _, t_fwd = timed(forward, g, k, gamma)
            row = {
                "graph": name, "k": k, "gamma": gamma, "found": len(r),
                "LocalSearch-P_ms": t_lsp, "Forward_ms": t_fwd,
                "speedup_vs_Forward": round(t_fwd / max(t_lsp, 1e-6), 1),
            }
            if name in SMALL:
                _, t_oa = timed(online_all, g, gamma, k)
                row["OnlineAll_ms"] = t_oa
            rows.append(row)
    cols = ["graph", "k", "gamma", "found", "LocalSearch-P_ms", "Forward_ms",
            "OnlineAll_ms", "speedup_vs_Forward"]
    return rows, cols


def eval1_spark(
    spark, names: Sequence[str] = ("email",), ks: Sequence[int] = (5, 10, 20),
    gamma: int = 10, scale: float = 0.3
) -> Rows:
    """Eval-I on the distributed engine (subset; Spark job overhead noted)."""
    from repro.baselines.global_search import forward_spark, online_all_spark
    from repro.core.progressive import local_search_progressive_spark

    from .datasets import spark_graph

    rows = []
    for name in names:
        sg = spark_graph(spark, name, scale)
        for k in ks:
            _, t_lsp = timed(
                lambda: consume_topk(local_search_progressive_spark(sg, gamma), k)
            )
            _, t_fwd = timed(forward_spark, sg, gamma, k)
            _, t_oa = timed(online_all_spark, sg, gamma, k)
            rows.append({
                "graph": name, "k": k, "gamma": gamma, "engine": "spark",
                "LocalSearch-P_ms": t_lsp, "Forward_ms": t_fwd,
                "OnlineAll_ms": t_oa,
                "speedup_vs_Forward": round(t_fwd / max(t_lsp, 1e-6), 2),
            })
    cols = ["graph", "k", "gamma", "engine", "LocalSearch-P_ms", "Forward_ms",
            "OnlineAll_ms", "speedup_vs_Forward"]
    return rows, cols


# ---------------------------------------------------------------- Eval-II
def eval2_backward(
    names: Sequence[str] = SMALL,
    ks: Sequence[int] = (5, 10, 20, 50, 100),
    gammas: Sequence[int] = (10, 20),
    scale: float = 1.0,
) -> Rows:
    """Figure 11: LocalSearch-P vs the quadratic local search (Backward)."""
    rows = []
    for name in names:
        g = ref_graph(name, scale)
        for gamma in gammas:
            for k in ks:
                _, t_lsp = timed(_lsp_topk, g, k, gamma)
                bw, t_bw = timed(backward_arith, g, k, gamma)
                rows.append({
                    "graph": name, "k": k, "gamma": gamma,
                    "LocalSearch-P_ms": t_lsp, "Backward_ms": t_bw,
                    "Backward_stages": len(bw.stages),
                    "speedup": round(t_bw / max(t_lsp, 1e-6), 1),
                })
    return rows, ["graph", "k", "gamma", "LocalSearch-P_ms", "Backward_ms",
                  "Backward_stages", "speedup"]


# ---------------------------------------------------------------- Eval-III
def eval3_countic(
    names: Sequence[str] = SMALL,
    ks: Sequence[int] = (5, 10, 20, 50, 100),
    gamma: int = 10,
    scale: float = 1.0,
) -> Rows:
    """Figure 12: LocalSearch vs LocalSearch-OA (counting by enumeration)."""
    rows = []
    for name in names:
        g = ref_graph(name, scale)
        for k in ks:
            _, t_ls = timed(local_search, g, k, gamma)
            _, t_oa = timed(local_search_oa, g, k, gamma)
            rows.append({
                "graph": name, "k": k, "gamma": gamma,
                "LocalSearch_ms": t_ls, "LocalSearch-OA_ms": t_oa,
                "speedup": round(t_oa / max(t_ls, 1e-6), 1),
            })
    return rows, ["graph", "k", "gamma", "LocalSearch_ms", "LocalSearch-OA_ms",
                  "speedup"]


# ---------------------------------------------------------------- Eval-IV
def eval4_delta(
    names: Sequence[str] = SMALL,
    deltas: Sequence[float] = (1.5, 2, 3, 4, 8, 16, 32, 64, 128),
    k: int = 10,
    gamma: int = 10,
    scale: float = 1.0,
) -> Rows:
    """Figure 13: sensitivity to the exponential growth ratio δ."""
    rows = []
    for name in names:
        g = ref_graph(name, scale)
        for delta in deltas:
            res, t = timed(local_search, g, k, gamma, delta)
            rows.append({
                "graph": name, "delta": delta, "time_ms": t,
                "accessed_size": res.accessed_size,
                "stages": len(res.stages),
            })
    return rows, ["graph", "delta", "time_ms", "accessed_size", "stages"]


# ---------------------------------------------------------------- Eval-V
def eval5_latency(
    name: str = "email", k: int = 128, gamma: int = 10, scale: float = 1.0,
    report_at: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
) -> Rows:
    """Figure 14: elapsed time until the top-i community is reported."""
    g = ref_graph(name, scale)
    rows = []
    # Progressive: time stamps per yield.
    t0 = time.perf_counter()
    times_p = []
    for i, _ in enumerate(local_search_progressive(g, gamma), start=1):
        times_p.append((time.perf_counter() - t0) * 1e3)
        if i >= k:
            break
    # Batch LocalSearch reports everything at the end.
    _, t_batch = timed(local_search, g, k, gamma)
    for i in report_at:
        if i <= len(times_p):
            rows.append({
                "graph": name, "top_i": i,
                "LocalSearch-P_ms": times_p[i - 1],
                "LocalSearch_ms": t_batch,
            })
    return rows, ["graph", "top_i", "LocalSearch-P_ms", "LocalSearch_ms"]


def eval5_total(
    names: Sequence[str] = SMALL,
    ks: Sequence[int] = (5, 10, 20, 50, 100),
    gamma: int = 10,
    scale: float = 1.0,
) -> Rows:
    """Figure 15: total time of LocalSearch vs LocalSearch-P by k."""
    rows = []
    for name in names:
        g = ref_graph(name, scale)
        for k in ks:
            _, t_lsp = timed(_lsp_topk, g, k, gamma)
            _, t_ls = timed(local_search, g, k, gamma)
            rows.append({
                "graph": name, "k": k,
                "LocalSearch-P_ms": t_lsp, "LocalSearch_ms": t_ls,
            })
    return rows, ["graph", "k", "LocalSearch-P_ms", "LocalSearch_ms"]


# ---------------------------------------------------------------- Eval-VI
def eval6_semi_external(
    names: Sequence[str] = ("arabic", "twitter"),
    k: int = 10,
    gamma: int = 10,
    scale: float = 0.3,
    block_edges: int = 2048,
    workdir: str = "/tmp/repro_se",
) -> Rows:
    """Figures 16–17: LocalSearch-SE vs OnlineAll-SE (time, I/O, memory).

    ``mem_units`` is the resident working set in word-sized units under the
    semi-external model: both algorithms hold the n-entry vertex-weight
    array; LocalSearch-SE additionally holds the loaded edge prefix, while
    OnlineAll-SE holds its per-vertex size-γ heaps (the streaming fixed
    point's vertex state, cf. DESIGN.md §4) plus the peak pending-edge
    transit buffer.
    """
    from repro.semi_external.algorithms import local_search_se, online_all_se
    from repro.semi_external.storage import EdgeBlockStore

    rows = []
    for name in names:
        g = ref_graph(name, scale)
        for algo in ("LocalSearch-SE", "OnlineAll-SE"):
            store = EdgeBlockStore.write(
                f"{workdir}/{name}_{algo}", g, block_edges=block_edges
            )
            if algo == "LocalSearch-SE":
                _, t = timed(local_search_se, store, k, gamma)
                mem = g.n + 2 * store.stats.peak_resident_edges
            else:
                _, t = timed(online_all_se, store, gamma, k)
                mem = g.n * (1 + gamma) + 2 * store.stats.peak_resident_edges
            s = store.stats
            rows.append({
                "graph": name, "algorithm": algo, "time_ms": t,
                "MB_read": round(s.bytes_read / 2**20, 2),
                "full_scans": s.full_scans,
                "peak_resident_edges": s.peak_resident_edges,
                "mem_units": mem,
            })
    return rows, ["graph", "algorithm", "time_ms", "MB_read", "full_scans",
                  "peak_resident_edges", "mem_units"]


# ---------------------------------------------------------------- Eval-VII
def eval7_noncontainment(
    names: Sequence[str] = SMALL,
    ks: Sequence[int] = (5, 10, 20, 50),
    gamma: int = 10,
    scale: float = 1.0,
) -> Rows:
    """Figure 18: non-containment queries — LocalSearch-P vs Forward."""
    rows = []
    for name in names:
        g = ref_graph(name, scale)
        for k in ks:
            got, t_lsp = timed(top_k_noncontainment, g, k, gamma)
            want, t_fwd = timed(forward_nc, g, k, gamma)
            assert got.communities == want, "NC engines disagree"
            rows.append({
                "graph": name, "k": k, "gamma": gamma,
                "LocalSearch-P_ms": t_lsp, "Forward_ms": t_fwd,
                "speedup": round(t_fwd / max(t_lsp, 1e-6), 1),
            })
    return rows, ["graph", "k", "gamma", "LocalSearch-P_ms", "Forward_ms",
                  "speedup"]


# ---------------------------------------------------------------- Eval-VIII
def eval8_truss(
    names: Sequence[str] = SMALL,
    ks: Sequence[int] = (5, 10, 20),
    gamma: int = 10,
    scale: float = 1.0,
) -> Rows:
    """Figure 19: influential γ-truss — LocalSearch-Truss vs GlobalSearch."""
    rows = []
    for name in names:
        g = ref_graph(name, scale)
        for k in ks:
            loc, t_loc = timed(local_search_truss, g, k, gamma)
            glo, t_glo = timed(global_search_truss, g, k, gamma)
            assert loc.communities == glo, "truss engines disagree"
            rows.append({
                "graph": name, "k": k, "gamma": gamma,
                "LocalSearch-Truss_ms": t_loc, "GlobalSearch-Truss_ms": t_glo,
                "speedup": round(t_glo / max(t_loc, 1e-6), 1),
            })
    return rows, ["graph", "k", "gamma", "LocalSearch-Truss_ms",
                  "GlobalSearch-Truss_ms", "speedup"]


# ---------------------------------------------------------------- Eval-IX
def eval9_case_study(gamma_core: int = 5, gamma_truss: int = 6) -> Rows:
    """Figures 20–21: DBLP-like case study, 5-community vs 6-truss community."""
    import pandas as pd

    from repro.graphs.generators import dblp_like
    from repro.graphs.weights import as_ref_graph, weighted_vertex_frame

    from repro.ref.count_ic import gamma_core_set

    edges = dblp_like(n_groups=600, group_min=4, group_max=24, p_intra=0.8)
    n = int(max(edges["src"].max(), edges["dst"].max())) + 1
    vertices = weighted_vertex_frame(edges, n)
    g = as_ref_graph(edges, vertices)
    core_top = local_search(g, 1, gamma_core).communities
    truss_top = local_search_truss(g, 1, gamma_truss).communities
    rows = []
    rank = {v: g.n - int(g.weight[v]) + 1 for v in g.weight}  # 1 = top weight
    for label, comms in (
        (f"top-1 {gamma_core}-community", core_top),
        (f"top-1 {gamma_truss}-truss community", truss_top),
    ):
        if not comms:
            rows.append({"community": label, "size": 0})
            continue
        w, s = comms[0]
        u = min(s, key=g.weight.get)
        rows.append({
            "community": label, "size": len(s), "influence": w,
            "min_weight_vertex_rank": rank[u], "of_n": g.n,
        })
    # Figure 21's contrast: the influence-oblivious γ-core component around
    # the top community is far larger than the influential community itself.
    if core_top:
        _, s = core_top[0]
        core = gamma_core_set(g.weight, g.edge_list(), gamma_core)
        seed = min(s, key=g.weight.get)
        comp = {seed}
        stack = [seed]
        while stack:
            v = stack.pop()
            for x in g.adj[v]:
                if x in core and x not in comp:
                    comp.add(x)
                    stack.append(x)
        rows.append({
            "community": f"{gamma_core}-core component of its min vertex "
                         "(influence-oblivious)",
            "size": len(comp), "of_n": g.n,
        })
    return rows, ["community", "size", "influence", "min_weight_vertex_rank", "of_n"]


# ------------------------------------------------------------- §3.1 claim
def locality(
    names: Sequence[str] = ALL, k: int = 10, gamma: int = 10, scale: float = 1.0
) -> Rows:
    """size(G≥τ*) / size(G) — the paper reports < 0.073 % on its graphs."""
    rows = []
    for name in names:
        g = ref_graph(name, scale)
        ts = tau_star_size(g, k, gamma)
        res = local_search(g, k, gamma)
        rows.append({
            "graph": name, "size_G": g.size, "size_tau_star": ts,
            "ratio_pct": round(100.0 * ts / g.size, 4),
            "accessed_size": res.accessed_size,
            "accessed_over_tau_star": round(res.accessed_size / max(ts, 1), 2),
        })
    return rows, ["graph", "size_G", "size_tau_star", "ratio_pct",
                  "accessed_size", "accessed_over_tau_star"]
