"""Distributed LocalSearch (Algorithm 1) over the Spark substrate.

The growth loop is the shared Algorithm-1 driver
(``repro.ref.local_search.grow_top_k``) over ``SparkGraph``'s prefix-index
lookups; this module supplies the stage and its enumeration:

* Line 1 — τ₁ = weight of the (k+γ)-th vertex, from the prefix index;
* Line 3 — CountIC(G≥τ_i), by one of two routes, chosen per stage:

  - **driver**: when ``G≥τ_i`` has at most :func:`driver_rows_budget` rows,
    it is collected once (``SparkGraph.to_ref``: two capped collects) and
    peeled with the exact linear CountIC (``repro.ref.count_ic``). The
    paper's point (Lemma 3.8) is that ``G≥τ*`` is tiny, so this is the
    common case, and it costs two Spark jobs where the fixed point costs
    a few dozen (a join, an aggregate, a count and a checkpoint per
    superstep), which dominate on a subgraph of a few hundred rows;
  - **survival**: otherwise, the survival-threshold fixed point
    (``repro.kernels.survival``) on the Catalyst-filtered subgraph,
    counting vertices with ``T = ω``;

* Line 4 — τ_{i+1} from the cached prefix-size index
  (``SparkGraph.tau_for_size``), growing ``size(G≥τ)`` by the factor δ;
* Line 6 — EnumIC on the final subgraph: ``repro.ref.enum_ic`` on the
  collected graph, or ``enumerate_driver`` on the survival labelling.

Only the weight-suffix subgraph ``G≥τ_i`` is ever read — the locality that
makes LocalSearch instance-optimal carries over to both routes: a stage
processes exactly ``size(G≥τ_i)`` rows.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.graphs.storage import SparkGraph
from repro.kernels.survival import count_keynodes, survival_threshold
from repro.ref.count_ic import count_ic
from repro.ref.enum_ic import enum_ic
from repro.ref.local_search import DRIVER, LocalSearchResult, Stage, grow_top_k, growth

from .enum_ic import enumerate_driver

#: Driver memory one row of ``G≥τ`` (a vertex or an edge) is charged while a
#: stage runs on the driver. The collected frames, the ``RefGraph``, CountIC
#: and EnumIC (k = 20) peak at 300–410 B a row on the email, youtube and
#: orkut analogs at scale 0.3 (tracemalloc).
DRIVER_BYTES_PER_ROW = 512

SURVIVAL = "survival"  # the other stage route is ``DRIVER``


def driver_rows_budget(spark: SparkSession) -> int:
    """Largest ``size(G≥τ)`` a stage collects and peels on the driver.

    Worked out from ``spark.driver.maxResultSize`` (default 1g), the cap
    Spark already puts on every collect, at ``DRIVER_BYTES_PER_ROW``: about
    two million rows by default. A session that lifts the cap (``0``) is
    bounded by the driver's heap, ``spark.driver.memory``, instead.
    """
    to_bytes = spark.sparkContext._jvm.org.apache.spark.network.util.JavaUtils.byteStringAsBytes
    cap = to_bytes(spark.conf.get("spark.driver.maxResultSize", "1g"))
    if cap == 0:
        cap = to_bytes(spark.conf.get("spark.driver.memory", "1g"))
    return cap // DRIVER_BYTES_PER_ROW


def local_search_spark(
    sg: SparkGraph,
    k: int,
    gamma: int,
    delta: float = 2.0,
) -> LocalSearchResult:
    """Top-k influential γ-communities, highest influence first."""
    next_size = growth(delta)
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    budget = driver_rows_budget(sg.vertices.sparkSession)

    def stage(tau: float):
        sub = sg.subgraph_ge(tau)
        g = sub.to_ref(budget)
        if g is not None:
            peel = count_ic(g, gamma)
            return Stage(tau, g.size, peel.count, DRIVER), lambda k: enum_ic(g, peel, k)
        surv = survival_threshold(sub.vertices, sub.edges, gamma)
        return (
            Stage(tau, sg.size_at_tau(tau), count_keynodes(surv.labels),
                  SURVIVAL, surv.iterations),
            lambda k: enumerate_driver(surv.labels, sub.edges, k),
        )

    return grow_top_k(sg, k, k + gamma, next_size, stage)
