"""The workloads, one per engine; each runs in a process of its own.

Both are closed loops with a single client: the next query is sent
when the previous answer is back. Queries run in rounds, and each round
visits every query shape once, so drift of the host's speed during a run
hits every shape alike. An untimed warm-up pass runs before timing and
counts toward ``setup_s``. A speed probe that tracks the workload's engine
is timed before every round and after the last, and the query times are
reported at its nominal speed (``run.py``).

Every answer is checked against the ``ref`` oracle (``inputs.py``).

Layer -> end-to-end map. Each per-layer metric names the end-to-end metric
and workload it should move, so a later change can state its claim as
``metric @ workload`` and check it in the traced run:

  graphs.storage (``SparkGraph``)
    storage.load_ms                       -> setup_s          @ spark-local
    storage.lookup_{calls,ms,jobs}        -> topk_ms.p50      @ spark-local
        (tau_for_rank, tau_for_size, size_at_tau, tau_min)
  kernels.survival
    survival.{calls,ms,jobs,supersteps,rows_in}, keynodes.{ms,jobs}
                                          -> topk_ms.p50, first_ms.p50 @ spark-local
  core.enum_ic (``enumerate_driver``; ``_components_pandas`` on the progressive path)
    enum.{ms,jobs}                        -> topk_ms.p50      @ spark-local
  core.local_search / core.progressive
    spark.jobs_per_query, spark.ms_per_job, core.stages, core.self_ms
                                          -> topk_ms.p50, queries_per_s @ spark-local
  ref (inside se-disk: the RefGraph build, and CountIC/EnumIC on each stage)
    ref.build_ms                          -> setup_s          @ se-disk
    se.subgraph_ms (RefGraph per stage), se.count_ic.ms, se.enum_ic.ms
                                          -> topk_ms.p50, topk_ms.p90, first_ms.p50 @ se-disk
  semi_external
    se.write_ms                           -> setup_s          @ se-disk
    se.{vertices_ms,read_ms,blocks_read,bytes_read,self_ms}, io_kb_per_query
                                          -> topk_ms.p50      @ se-disk
    se.peak_resident_edges                -> peak_rss_mb      @ se-disk
  diagnostics, moved by no change to the program
    trace.ms (span bookkeeping), trace.overhead_ms, host.steal_ticks, host.calib_ms

A layer a workload does not call reads 0 there, which is how the traced run
shows what each workload bypasses.
"""
from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from hostinfo import SpeedProbe
from inputs import Community, InputCache, relabel
from tracing import Patches, Tracer

DELTA = 2.0


@dataclass(frozen=True)
class Query:
    kind: str  # "topk": the k best communities; "first": the best one (k = 1)
    graph: str
    k: int
    gamma: int


@dataclass
class Outcome:
    answer: List[Community]
    accessed: Optional[int] = None  # size(G≥τ_h) of the final stage (top-k only)
    io_bytes: int = 0
    io_blocks: int = 0
    resident_edges: int = 0


@dataclass
class Context:
    root: str
    work_dir: str
    seed: int
    scale: float  # multiplies every graph's scale (1.0 in the benchmark proper)
    cache: InputCache


class Workload:
    name = ""
    #: set-ups per run; ``setup_s`` takes their median. Two, because one
    #: set-up costs seconds and every run must fit the benchmark's time budget.
    setup_repeats = 2
    #: span name of each query kind's root span
    roots: Dict[str, str] = {}
    #: speed-probe samples at each mark, before every round and after the last
    probes_per_mark = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.expected: Dict[Query, List[Community]] = {}
        self.tau_star: Dict[Query, int] = {}
        self.setup_ms: Dict[str, float] = {}  # per-layer set-up timings

    def inputs(self) -> Dict[str, float]:
        """Graph name -> scale of every graph the queries run on."""
        return {name: self.SCALE * self.ctx.scale for name in self.GRAPHS}

    def _load_oracle(self, base, inst, queries: List[Query]) -> None:
        """Expected answers of the queries on ``base``'s graph, relabelled."""
        queries = [q for q in queries if q.graph == base.name]
        oracle = self.ctx.cache.oracle(base, [(q.k, q.gamma) for q in queries])
        for q in queries:
            self.expected[q] = inst.map_answer(oracle[(q.k, q.gamma)]["answer"])
            self.tau_star[q] = oracle[(q.k, q.gamma)]["tau_star"]

    def setup(self) -> float:
        """Load the program's state; returns set-up seconds (without warm-up)."""
        raise NotImplementedError

    def queries(self) -> List[Query]:
        """Every query shape the workload runs; the oracle answers them all."""
        return self.round(0)

    def warmup(self) -> List[Query]:
        return self.round(0)

    def round(self, i: int) -> List[Query]:
        raise NotImplementedError

    def run(self, q: Query) -> Outcome:
        raise NotImplementedError

    def trace(self, tracer: Tracer, patches: Patches) -> None:
        """Wrap this workload's layers for a traced run."""
        raise NotImplementedError

    def speed_probe(self) -> SpeedProbe:
        """The probe that tracks this workload's engine, made after set-up."""
        return SpeedProbe()

    def spark_context(self):
        return None

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# spark-local — the Spark engine (graphs.storage, kernels.survival, core.*).
#
# Why: each query is two growth stages of three survival supersteps each, a
# deterministic 83 Spark jobs (82 to the first community) over a G≥τ of a few
# hundred rows. Job scheduling, not data, sets its latency, so this is where
# driver-side CountIC and incremental stages act. It is the only workload that
# touches Spark; it bypasses the ref engine and all disk storage.
# A round is [top-k, first] with k cycling through 10, 20, 5 across rounds.
# A run times two rounds (k = 10 and 20, each with the first community); the
# warm-up runs k = 5 and the first community, so every shape is checked. Its
# speed probe is a small Spark job of its own (SparkJobProbe), taken before
# each round and after the last.
# ---------------------------------------------------------------------------

class SparkJobProbe(SpeedProbe):
    """One small, fixed Spark job on the workload's own session.

    A query's time is some 80 Spark jobs over a few hundred rows, and it
    moves with the JVM's speed, which a pure-Python probe does not track
    (STEADINESS.md). This probe plans and runs one such job: 4,096 rows in 4
    partitions, hash-partitioned into 64 by an explicit ``repartition`` (so
    the session's shuffle-partition setting does not change it), then
    counted per key and collected.
    """

    NOMINAL_MS = 250.0

    def __init__(self, spark):
        self.spark = spark
        self.samples: List[float] = []

    def once(self) -> None:
        df = self.spark.range(0, 4096, 1, 4).selectExpr("id % 64 AS g")
        df.repartition(64, "g").groupBy("g").count().collect()


class SparkLocal(Workload):
    name = "spark-local"
    roots = {"topk": "core.local_search", "first": "core.progressive"}
    probes_per_mark = 5  # about 1.3 s; a round takes about 15 s
    GRAPH, SCALE, GAMMA, KS = "email", 0.3, 5, (10, 20, 5)
    GRAPHS = (GRAPH,)

    def setup(self) -> float:
        sys.path.insert(0, os.path.join(self.ctx.root, "jobs"))
        t0 = time.perf_counter()
        from _util import get_spark  # the jobs' own SparkSession (local[*])

        self.spark = get_spark()
        self.spark.sparkContext.setLogLevel("ERROR")
        session_s = time.perf_counter() - t0

        from repro.graphs.storage import SparkGraph

        base = self.ctx.cache.base_graph(self.GRAPH, self.SCALE * self.ctx.scale)
        inst = relabel(base, self.ctx.seed)
        self._load_oracle(base, inst, self.queries())
        w = inst.vertices["weight"].to_numpy()
        wmin = np.minimum(w[inst.edges["src"].to_numpy()], w[inst.edges["dst"].to_numpy()])
        self._w_asc, self._wmin_asc = np.sort(w), np.sort(wmin)

        self.sg, loads = None, []
        for _ in range(self.setup_repeats):
            self._drop_graph()
            t = time.perf_counter()
            self.sg = SparkGraph.from_pandas(self.spark, inst.vertices, inst.edges)
            self.sg.prefix_index().count()
            loads.append(time.perf_counter() - t)
        self.setup_ms["storage.load_ms"] = statistics.median(loads) * 1e3
        return session_s + statistics.median(loads)

    def _drop_graph(self) -> None:
        if self.sg is not None:
            for df in (self.sg.vertices, self.sg.edges, self.sg._prefix):
                if df is not None:
                    df.unpersist()

    def rows_at(self, tau: float) -> int:
        """size(G≥τ) of the instance, from the setup's sorted weights."""
        n = len(self._w_asc) - np.searchsorted(self._w_asc, tau, "left")
        m = len(self._wmin_asc) - np.searchsorted(self._wmin_asc, tau, "left")
        return int(n + m)

    def queries(self) -> List[Query]:
        return [Query("topk", self.GRAPH, k, self.GAMMA) for k in self.KS] + [
            Query("first", self.GRAPH, 1, self.GAMMA)
        ]

    def warmup(self) -> List[Query]:
        # The JVM's first two queries take about 13 s and 9.5 s; later ones
        # stay near 8 s.
        return [Query("topk", self.GRAPH, 5, self.GAMMA), Query("first", self.GRAPH, 1, self.GAMMA)]

    def round(self, i: int) -> List[Query]:
        k = self.KS[i % len(self.KS)]
        return [Query("topk", self.GRAPH, k, self.GAMMA), Query("first", self.GRAPH, 1, self.GAMMA)]

    def run(self, q: Query) -> Outcome:
        from repro.core.local_search import local_search_spark
        from repro.core.progressive import local_search_progressive_spark

        if q.kind == "topk":
            res = local_search_spark(self.sg, q.k, q.gamma, DELTA)
            return Outcome(res.communities, accessed=res.accessed_size)
        gen = local_search_progressive_spark(self.sg, q.gamma, DELTA)
        try:
            first = next(gen, None)
        finally:
            gen.close()
        return Outcome([first] if first is not None else [])

    def trace(self, tracer: Tracer, patches: Patches) -> None:
        import repro.core.local_search as core_ls
        import repro.core.progressive as core_p
        from repro.graphs.storage import SparkGraph

        for method in ("tau_for_rank", "tau_for_size", "size_at_tau", "tau_min"):
            patches.wrap(tracer, SparkGraph, method, "storage.lookup")
        subgraph_ge, last_tau = SparkGraph.subgraph_ge, [0.0]

        def recording_subgraph_ge(sg, tau):
            last_tau[0] = tau
            return subgraph_ge(sg, tau)

        patches.set(SparkGraph, "subgraph_ge", recording_subgraph_ge)

        def survival_attrs(sp, args, kwargs, out):
            sp.attrs["supersteps"] = out.iterations
            sp.attrs["rows_in"] = self.rows_at(last_tau[0])

        for mod in (core_ls, core_p):
            patches.wrap(tracer, mod, "survival_threshold", "survival", survival_attrs)
        patches.wrap(tracer, core_ls, "count_keynodes", "keynodes")
        patches.wrap(tracer, core_ls, "enumerate_driver", "enum")
        patches.wrap(tracer, core_p, "_components_pandas", "enum")

    def speed_probe(self) -> SpeedProbe:
        return SparkJobProbe(self.spark)

    def spark_context(self):
        return self.spark.sparkContext

    def close(self) -> None:
        """Stop Spark and wait for its JVM to exit."""
        spark = getattr(self, "spark", None)
        if spark is None:
            return
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        proc = getattr(gateway, "proc", None)
        spark.stop()
        gateway.shutdown()
        if proc is not None:
            proc.stdin.close()  # the gateway JVM exits on EOF
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


# ---------------------------------------------------------------------------
# se-disk — the semi-external engine (repro.semi_external) on twitter@1.0.
#
# Why: the only engine that reads storage, and its bytes read are exact.
# Set-up carries the write path (the RefGraph build, then EdgeBlockStore.write
# at 8192 edges a block), so ingest is measured beside the queries. Each query
# opens the store afresh; "first" is the top-1 query. It bypasses Spark and
# runs its own growth loop over ref's RefGraph, CountIC and EnumIC, so it is
# also where the ref layer is measured. A round is every (k, γ) of SHAPES,
# each as top-k and first community. Its engine is pure Python, and so is its
# speed probe (hostinfo.SpeedProbe), one sample before each round.
#
# An exact sequential workload (ref.local_search on youtube, orkut and
# twitter) was measured and left out: its run-to-run spread on a shared VM
# exceeded every bound the benchmark may set (see STEADINESS.md).
# ---------------------------------------------------------------------------

SHAPES = ((10, 5), (10, 10), (50, 10), (128, 10), (10, 20))


class SeDisk(Workload):
    name = "se-disk"
    roots = {"topk": "se.local_search", "first": "se.local_search"}
    GRAPH, SCALE, BLOCK_EDGES = "twitter", 1.0, 8192
    GRAPHS = (GRAPH,)

    def setup(self) -> float:
        import repro.semi_external.algorithms as se_alg
        from repro.graphs.weights import as_ref_graph
        from repro.semi_external.storage import EdgeBlockStore

        base = self.ctx.cache.base_graph(self.GRAPH, self.SCALE * self.ctx.scale)
        inst = relabel(base, self.ctx.seed)
        self._load_oracle(base, inst, self.queries())
        self.path = os.path.join(self.ctx.work_dir, f"se-store-{os.getpid()}")
        setups, builds, writes = [], [], []
        for _ in range(self.setup_repeats):
            shutil.rmtree(self.path, ignore_errors=True)
            t = time.perf_counter()
            g = as_ref_graph(inst.edges, inst.vertices)
            t_write = time.perf_counter()
            EdgeBlockStore.write(self.path, g, block_edges=self.BLOCK_EDGES)
            t_end = time.perf_counter()
            del g
            setups.append(t_end - t)
            builds.append(t_write - t)
            writes.append(t_end - t_write)
        self.setup_ms["ref.build_ms"] = statistics.median(builds) * 1e3
        self.setup_ms["se.write_ms"] = statistics.median(writes) * 1e3

        # local_search_se does not return its stages; count_ic receives each
        # stage's subgraph, so a counter there gives the final accessed size.
        self.patches = Patches()
        count_ic, self._last_size = se_alg.count_ic, 0

        def counted_count_ic(sub, *args, **kwargs):
            self._last_size = sub.size
            return count_ic(sub, *args, **kwargs)

        self.patches.set(se_alg, "count_ic", counted_count_ic)
        return statistics.median(setups)

    def round(self, i: int) -> List[Query]:
        return [
            q
            for k, gamma in SHAPES
            for q in (Query("topk", self.GRAPH, k, gamma), Query("first", self.GRAPH, 1, gamma))
        ]

    def run(self, q: Query) -> Outcome:
        from repro.semi_external.algorithms import local_search_se
        from repro.semi_external.storage import EdgeBlockStore

        store = EdgeBlockStore.open(self.path)
        answer, store = local_search_se(store, q.k, q.gamma, DELTA)
        return Outcome(
            answer,
            accessed=self._last_size if q.kind == "topk" else None,
            io_bytes=store.stats.bytes_read,
            io_blocks=store.stats.blocks_read,
            resident_edges=store.stats.peak_resident_edges,
        )

    def trace(self, tracer: Tracer, patches: Patches) -> None:
        import repro.semi_external.algorithms as se_alg
        from repro.semi_external.storage import EdgeBlockStore

        patches.wrap(tracer, EdgeBlockStore, "vertices", "se.vertices")
        patches.wrap(tracer, EdgeBlockStore, "read_block", "se.read")
        patches.wrap(tracer, se_alg, "RefGraph", "se.subgraph")
        patches.wrap(tracer, se_alg, "count_ic", "se.count_ic")
        patches.wrap(tracer, se_alg, "enum_ic", "se.enum_ic")

    def close(self) -> None:
        if hasattr(self, "patches"):
            self.patches.undo()
        if hasattr(self, "path"):
            shutil.rmtree(self.path, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SparkLocal, SeDisk)}
