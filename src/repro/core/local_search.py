"""Distributed LocalSearch (Algorithm 1) over the Spark substrate, and the
stage router every Spark variant runs.

The growth loop is the shared Algorithm-1 driver
(``repro.ref.local_search.grow_top_k``) over ``SparkGraph``'s prefix-index
lookups; this module supplies the stage and its enumeration:

* Line 1 — τ₁ = weight of the (k+γ)-th vertex, from the prefix index;
* Line 3 — CountIC(G≥τ_i), by one of two routes, chosen per stage by
  :func:`spark_stage`:

  - **driver**: when ``G≥τ_i`` has at most :func:`driver_rows_budget` rows,
    it is collected once (``SparkGraph.to_ref``: its vertices and size are
    the prefix index's, so one collect of its edges) and the ``ref``
    variant's own stage runs on it — here ``peel_stage``, the exact linear
    CountIC (``repro.ref.count_ic``). The paper's point (Lemma 3.8) is that
    ``G≥τ*`` is tiny, so this is the common case, and it costs one Spark job
    where the fixed point costs a few dozen (a join, an aggregate, a count
    and a checkpoint per superstep), which dominate on a subgraph of a few
    hundred rows;
  - **survival**: otherwise, the survival-threshold fixed point
    (``repro.kernels.survival``) on the Catalyst-filtered subgraph,
    counting vertices with ``T = ω``;

* Line 4 — τ_{i+1} from the prefix-size index on the driver
  (``SparkGraph.tau_for_size``, no Spark job), growing ``size(G≥τ)`` by the
  factor δ;
* Line 6 — EnumIC on the final subgraph: ``repro.ref.enum_ic`` on the
  collected graph, or ``enumerate_driver`` on the survival labelling.

LocalSearch-P, non-containment and LocalSearch-Truss (``repro.core``) run
the same router with their own ``ref`` stage; non-containment and
LocalSearch-Truss also run it on the core the fixed point leaves (:func:`core_stage`).

Only the weight-suffix subgraph ``G≥τ_i`` is ever read — the locality that
makes LocalSearch instance-optimal carries over to both routes: a stage
processes exactly ``size(G≥τ_i)`` rows.
"""
from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Callable, Tuple

from pyspark.sql import SparkSession

from repro.graphs.storage import SparkGraph
from repro.kernels.survival import count_keynodes, survival_threshold
from repro.ref.graph import RefGraph
from repro.ref.local_search import LocalSearchResult, Stage, grow_top_k, growth, peel_stage

from .enum_ic import collect_live, enumerate_driver

#: Driver memory one row of ``G≥τ`` (a vertex or an edge) is charged while a
#: stage runs on the driver. The collected frames, the ``RefGraph``, CountIC
#: and EnumIC (k = 20) peak at 300–410 B a row on the email, youtube and
#: orkut analogs at scale 0.3 (tracemalloc).
DRIVER_BYTES_PER_ROW = 512

SURVIVAL = "survival"  # the fixed-point route; a ``ref`` stage runs as ``DRIVER``


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


def spark_stage(
    sg: SparkGraph,
    ref_stage: Callable[..., Tuple[Stage, Any]],
    distributed_stage: Callable[..., Tuple[Stage, Any]],
) -> Callable[..., Tuple[Stage, Any]]:
    """A growth-driver stage over ``sg`` that picks its route per stage.

    ``stage(τ, …)`` checks ``size(G≥τ)`` against the driver budget on the
    prefix index (no Spark job). When it fits, ``SparkGraph.to_ref``
    collects ``G≥τ``'s edges, the one Spark job of the stage, and
    ``ref_stage(G≥τ, τ, …)`` runs on the collected ``RefGraph``: the
    ``ref`` variant's own stage, route ``DRIVER``. Otherwise it runs
    ``distributed_stage(sg.subgraph_ge(τ), τ, …)``.
    """
    budget = driver_rows_budget(sg.vertices.sparkSession)

    def stage(tau: float, *rest):
        if sg.size_at_tau(tau) <= budget:
            return ref_stage(sg.to_ref(tau), tau, *rest)
        return distributed_stage(sg.subgraph_ge(tau), tau, *rest)

    return stage


def core_stage(
    ref_stage: Callable[..., Tuple[Stage, Any]], gamma: int
) -> Callable[..., Tuple[Stage, Any]]:
    """A survival-route stage that runs ``ref_stage`` on γ-core(G≥τ), for a
    variant whose count and enumeration there equal those on ``G≥τ``.

    Every finite T of the fixed point on ``G≥τ`` is ≥ τ, so only the live
    rows (T ≥ τ, :func:`collect_live`), its γ-core, are collected. The
    record keeps ``size(G≥τ)``, route ``SURVIVAL`` and the supersteps.
    """

    def stage(sub: SparkGraph, tau: float):
        surv = survival_threshold(sub.vertices, sub.edges, gamma)
        labels, edges = collect_live(surv.labels, sub.edges, tau)
        core = RefGraph(
            dict(zip(labels["id"].tolist(), labels["weight"].tolist())),
            edges.to_numpy(),
        )
        st, out = ref_stage(core, tau)
        return replace(
            st, size=sub.size_at_tau(tau), route=SURVIVAL, supersteps=surv.iterations
        ), out

    return stage


def local_search_spark(
    sg: SparkGraph,
    k: int,
    gamma: int,
    delta: float = 2.0,
) -> LocalSearchResult:
    """Top-k influential γ-communities, highest influence first."""

    def survival(sub: SparkGraph, tau: float):
        surv = survival_threshold(sub.vertices, sub.edges, gamma)
        return (
            Stage(tau, sub.size_at_tau(tau), count_keynodes(surv.labels),
                  SURVIVAL, surv.iterations),
            lambda k: enumerate_driver(surv.labels, sub.edges, k),
        )

    stage = spark_stage(sg, partial(peel_stage, gamma=gamma), survival)
    return grow_top_k(sg, k, k + gamma, growth(delta), stage)
