"""Top-k influential community query benchmark: one workload per process.

    python3 querybench/run.py --workload {spark-local,se-disk} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root. The workload seed relabels the input graphs
(``inputs.py``). After set-up and an untimed warm-up pass, whole rounds of
queries, at least two, run until the queries have taken ``--seconds``; every
answer is checked against the ``ref`` oracle. The last line of standard output is one JSON object:
with ``--trace 0`` it holds the end-to-end metrics of ``BENCHMARK.json``,
with ``--trace 1`` the per-layer ones.

The query times (the latencies and ``queries_per_s``) are reported at a
nominal host speed. The workload's speed probe, a fixed program-independent
piece of work (``hostinfo.SpeedProbe``), is timed before every round of
queries and after the last; each query time is scaled by the probe's
``NOMINAL_MS`` over the mean probe time of the two marks around its round.
The host's speed drifts by a quarter and more between runs, and the scaled
times drift far less (STEADINESS.md). ``setup_s`` is not scaled: set-up does
other work than the queries, which the probes do not track. The raw query
times and the probe's median are printed on the ``#`` line before the
result; per-layer times are raw, and ``host.calib_ms`` is the probe's median,
to scale them by.

In a traced run every query runs twice, untraced and traced in alternating
order, and the per-layer figures come from the traced half; the mean
difference is ``trace.overhead_ms``. The command exits with 1 when any answer
is wrong or a query raised.

Generated inputs, the oracle cache and scratch files go to ``.querybench/``
under the repository root; ``--scale`` shrinks every graph (the self-test
uses it) and ``--corrupt-oracle`` breaks one expected answer on purpose.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".querybench")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0, help="graph scale multiplier")
    p.add_argument("--corrupt-oracle", action="store_true",
                   help="drop a vertex from one expected answer (self-test)")
    return p.parse_args(argv)


def confine_scratch_files() -> None:
    """Keep Python's, Spark's and the JVM's scratch files inside the checkout."""
    tmp = os.path.join(WORK_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = os.path.join(WORK_DIR, "spark-local")
    java_opts = os.environ.get("JAVA_TOOL_OPTIONS", "")
    os.environ["JAVA_TOOL_OPTIONS"] = f"{java_opts} -Djava.io.tmpdir={tmp} -XX:-UsePerfData".strip()


def prepare_inputs(wl) -> None:
    """Fill the input cache in a child process (a no-op once it is full)."""
    for graph, scale in wl.inputs().items():
        shapes = [(q.k, q.gamma) for q in wl.queries() if q.graph == graph]
        if not wl.ctx.cache.has(graph, scale, shapes):
            subprocess.run([sys.executable, os.path.join(HERE, "inputs.py"), ROOT, WORK_DIR,
                            graph, repr(scale), json.dumps(shapes)], check=True)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile, as ``numpy.percentile`` computes it."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


class Run:
    """One workload's run: set-up, warm-up, timed rounds, checks, metrics."""

    def __init__(self, wl, seconds: float):
        self.wl, self.seconds = wl, seconds
        self.probe = None  # the workload's speed probe, made when timing starts
        self.attempted = self.failed = 0
        #: (round, raw ms) of every correct timed query, by kind
        self.latencies: Dict[str, List[Tuple[int, float]]] = {"topk": [], "first": []}
        #: speed-probe median at each mark: before each round, after the last
        self.marks: List[float] = []
        self.timed: List[Tuple[object, object]] = []  # (query, outcome), timed half
        self.overheads: List[float] = []
        self.errors_shown = 0

    def check(self, q, fn):
        """Run ``fn`` (one query); count it, check it; return (ms, outcome)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:
            self.failed += 1
            self._report(f"{q} raised:\n{traceback.format_exc()}")
            return None, None
        ms = (time.perf_counter() - t0) * 1e3
        expected = self.wl.expected[q]
        if len(out.answer) != len(expected) or set(out.answer) != set(expected):
            self.failed += 1
            self._report(f"{q}: answer differs from the ref oracle")
            return None, None
        return ms, out

    def _report(self, msg: str) -> None:
        if self.errors_shown < 5:
            print(msg, file=sys.stderr)
        self.errors_shown += 1

    def mark(self) -> None:
        self.marks.append(self.probe.sample(self.wl.probes_per_mark))

    def scales(self) -> List[float]:
        """Each round's factor to the nominal host speed."""
        return [2 * self.probe.NOMINAL_MS / (a + b) for a, b in zip(self.marks, self.marks[1:])]

    def warmup(self) -> float:
        t0 = time.perf_counter()
        for q in self.wl.warmup():
            self.check(q, lambda q=q: self.wl.run(q))
        return time.perf_counter() - t0

    def timed_rounds(self, tracer=None) -> None:
        """Whole rounds, at least two, until the queries have taken
        ``seconds``; the probe marks between rounds do not count."""
        self.probe = self.wl.speed_probe()
        spent, i = 0.0, 0
        while i < 2 or spent < self.seconds:
            self.mark()
            t0 = time.perf_counter()
            for q in self.wl.round(i):
                self._one(q, i, tracer)
            spent += time.perf_counter() - t0
            i += 1
        self.mark()

    def _one(self, q, i: int, tracer) -> None:
        if tracer is None:
            ms, out = self.check(q, lambda: self.wl.run(q))
            if out is not None:
                self.latencies[q.kind].append((i, ms))
                self.timed.append((q, out))
            return
        from tracing import Patches

        tracer.query += 1
        root = None

        def traced():
            nonlocal root
            patches = Patches()
            self.wl.trace(tracer, patches)
            try:
                with tracer.span(self.wl.roots[q.kind]) as root:
                    root.attrs["q"] = q
                    return self.wl.run(q)
            finally:
                patches.undo()

        # Untraced and traced halves alternate which runs first, so that
        # the second run's warmer caches do not bias the overhead.
        untraced_first = tracer.query % 2 == 0
        if untraced_first:
            ms, out = self.check(q, lambda: self.wl.run(q))
        _, traced_out = self.check(q, traced)
        if not untraced_first:
            ms, out = self.check(q, lambda: self.wl.run(q))
        if out is not None and traced_out is not None:
            self.latencies[q.kind].append((i, root.ms))
            self.timed.append((q, traced_out))
            self.overheads.append(root.ms - ms)


def end_to_end(run: Run, setup_s: float, rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics, query times scaled to the nominal host speed."""
    wl = run.wl
    f = run.scales()
    rounds: Dict[int, List[float]] = {}
    scaled: Dict[str, List[float]] = {}
    for kind, lat in run.latencies.items():
        scaled[kind] = [ms * f[i] for i, ms in lat]
        for (i, _), ms in zip(lat, scaled[kind]):
            rounds.setdefault(i, []).append(ms)
    topk, first = scaled["topk"], scaled["first"]
    ratios = [out.accessed / wl.tau_star[q] for q, out in run.timed if q.kind == "topk"]
    return {
        "setup_s": setup_s,
        "topk_ms.p50": percentile(topk, 50) if topk else 0.0,
        "topk_ms.p90": percentile(topk, 90) if topk else 0.0,
        "first_ms.p50": percentile(first, 50) if first else 0.0,
        # the median round's rate: a round runs every query shape once
        "queries_per_s": statistics.median(len(r) / sum(r) * 1e3 for r in rounds.values())
        if rounds else 0.0,
        "correct_ratio": (run.attempted - run.failed) / max(run.attempted, 1),
        "accessed_ratio.max": max(ratios) if ratios else 0.0,
        "peak_rss_mb": rss_mb,
    }


def per_layer(run: Run, tracer, host: Dict[str, float]) -> Dict[str, float]:
    """Per-query means over the traced queries (0 for a bypassed layer)."""
    wl = run.wl
    queries = tracer.queries()
    nq = max(len(queries), 1)
    by_name: Dict[str, List] = {}
    for sp in tracer.spans:
        by_name.setdefault(sp.name, []).append(sp)

    def total(name, attr=None):
        spans = by_name.get(name, [])
        if attr == "ms":
            return sum(sp.ms for sp in spans)
        if attr == "jobs":
            return sum(sp.jobs for sp in spans)
        if attr == "calls":
            return len(spans)
        return sum(sp.attrs.get(attr, 0) for sp in spans)

    def per_query(name, attr):
        return total(name, attr) / nq

    root_names = set(wl.roots.values())
    root_self = sum(
        own
        for spans in queries.values()
        for idx, own in tracer.self_ms(spans).items()
        if tracer.spans[idx].name in root_names
    ) / nq
    jobs = sum(sp.jobs for sp in tracer.spans)
    wall = sum(spans[0].ms for spans in queries.values())
    outs = [out for _, out in run.timed]
    topk_outs = [(q, out) for q, out in run.timed if q.kind == "topk"]

    m = {
        # graphs.storage
        "storage.load_ms": wl.setup_ms.get("storage.load_ms", 0.0),
        "storage.lookup_calls": per_query("storage.lookup", "calls"),
        "storage.lookup_ms": per_query("storage.lookup", "ms"),
        "storage.lookup_jobs": per_query("storage.lookup", "jobs"),
        # kernels.survival
        "survival.calls": per_query("survival", "calls"),
        "survival.ms": per_query("survival", "ms"),
        "survival.jobs": per_query("survival", "jobs"),
        "survival.supersteps": per_query("survival", "supersteps"),
        "survival.rows_in": total("survival", "rows_in") / max(total("survival", "calls"), 1),
        "keynodes.ms": per_query("keynodes", "ms"),
        "keynodes.jobs": per_query("keynodes", "jobs"),
        # core.enum_ic
        "enum.ms": per_query("enum", "ms"),
        "enum.jobs": per_query("enum", "jobs"),
        # core.local_search / core.progressive
        "spark.jobs_per_query": jobs / nq,
        "spark.ms_per_job": wall / jobs if jobs else 0.0,
        "core.stages": per_query("survival", "calls"),
        "core.self_ms": root_self if wl.name == "spark-local" else 0.0,
        # ref, as the semi-external engine calls it
        "ref.build_ms": wl.setup_ms.get("ref.build_ms", 0.0),
        # semi_external
        "se.write_ms": wl.setup_ms.get("se.write_ms", 0.0),
        "se.vertices_ms": per_query("se.vertices", "ms"),
        "se.read_ms": per_query("se.read", "ms"),
        "se.blocks_read": mean(out.io_blocks for out in outs),
        "se.bytes_read": mean(out.io_bytes for out in outs),
        "se.subgraph_ms": per_query("se.subgraph", "ms"),
        "se.count_ic.ms": per_query("se.count_ic", "ms"),
        "se.enum_ic.ms": per_query("se.enum_ic", "ms"),
        "se.self_ms": root_self if wl.name == "se-disk" else 0.0,
        "se.peak_resident_edges": max((out.resident_edges for out in outs), default=0),
        "io_kb_per_query": mean(out.io_bytes for _, out in topk_outs) / 1024,
        # the tracer itself, and the host
        "trace.ms": per_query("trace", "ms"),
        "trace.overhead_ms": mean(run.overheads),
        **host,
    }
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"querybench: no program sources under {ROOT}/src/repro", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    confine_scratch_files()

    import hostinfo
    from inputs import InputCache
    from tracing import Tracer, check_self_times
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"querybench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    ctx = Context(ROOT, WORK_DIR, args.seed, args.scale, InputCache(ROOT, WORK_DIR))
    wl = WORKLOADS[args.workload](ctx)
    prepare_inputs(wl)
    run = Run(wl, args.seconds)
    steal0 = hostinfo.steal_ticks()
    try:
        setup_s = wl.setup()
        if args.corrupt_oracle:
            q = next(iter(wl.expected))
            w, members = wl.expected[q][0]
            wl.expected[q][0] = (w, frozenset(sorted(members)[1:]))
        setup_s += run.warmup()
        tracer = Tracer(wl.spark_context()) if args.trace else None
        run.timed_rounds(tracer)
        rss_mb = hostinfo.peak_rss_mb()
    finally:
        wl.close()
    steal1 = hostinfo.steal_ticks()
    probe = run.probe
    host = {"host.steal_ticks": steal1 - steal0, "host.calib_ms": probe.median_ms()}

    if tracer is not None:
        check_self_times(tracer)
        metrics, names = per_layer(run, tracer, host), spec["per_layer"]
    else:
        metrics, names = end_to_end(run, setup_s, rss_mb), spec["end_to_end"]
    raw = {kind: percentile([ms for _, ms in lat], 50) if lat else 0.0
           for kind, lat in run.latencies.items()}
    f = run.scales()
    print(f"# {wl.name} seed={args.seed} trace={args.trace}: "
          f"{len(run.latencies['topk'])} top-k and {len(run.latencies['first'])} "
          f"first-community samples; raw setup {setup_s:.3f} s, topk p50 "
          f"{raw['topk']:.2f} ms, first p50 {raw['first']:.2f} ms; speed probe median "
          f"{probe.median_ms():.2f} ms over {len(probe.samples)}, scales "
          f"{min(f):.3f}-{max(f):.3f}; steal {steal1 - steal0} ticks")
    for m in names:
        print(f"{m['name']:28s} {metrics[m['name']]:14.4f} {m['unit']}")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
