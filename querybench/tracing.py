"""Spans recorded from the benchmark's own wrappers around each layer.

Nothing inside the program is instrumented. In a traced run the benchmark
replaces each layer function at the name its caller looks it up by (for
example ``repro.ref.local_search.count_ic``) with a wrapper that opens a span
around the call, and restores the originals when the run ends. Spans stay in
memory until then.

A span's self time is its duration minus the durations of its children.
Spans of one thread nest strictly, so the self times of one query sum to its
root span, which is the query's traced wall time; ``check_self_times``
asserts this. With a Spark context every span runs under its own job group,
read right after the span ends, so job counts are exact even after the
status tracker drops old jobs. That bookkeeping is itself recorded as a
``trace`` span, so it is not charged to the layer around it.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

TRACE = "trace"


@dataclass
class Span:
    idx: int
    name: str
    query: int
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    jobs: int = 0
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """In-memory span recorder; optional exact Spark job counts per span."""

    def __init__(self, spark_context=None):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._sc = spark_context
        self.query = -1

    def _job_group(self, idx: Optional[int]) -> None:
        if idx is None:
            self._sc.setLocalProperty("spark.jobGroup.id", None)
        else:
            self._sc.setJobGroup(f"querybench-span-{idx}", self.spans[idx].name)

    def _jobs_of(self, idx: int) -> int:
        # Job events reach the status store through the asynchronous
        # listener bus; drain it before reading the group.
        self._sc._jsc.sc().listenerBus().waitUntilEmpty()
        ids = self._sc.statusTracker().getJobIdsForGroup(f"querybench-span-{idx}")
        return len(ids)

    def _bookkeeping(self, parent: Optional[int], start: float, end: float) -> None:
        if parent is not None:
            self.spans.append(Span(len(self.spans), TRACE, self.query, parent, start, end))

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        sp = Span(idx, name, self.query, parent)
        self.spans.append(sp)
        if self._sc is not None:
            t0 = time.perf_counter()
            self._job_group(idx)
            self._bookkeeping(parent, t0, time.perf_counter())
        self._stack.append(idx)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if self._sc is not None:
                sp.jobs = self._jobs_of(idx)
                self._job_group(parent)
                self._bookkeeping(parent, sp.end, time.perf_counter())

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[[Span, tuple, dict, Any], None]] = None,
    ) -> Callable:
        """``fn`` inside a span; ``after(span, args, kwargs, result)`` adds attrs."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(sp, args, kwargs, out)
            return out

        return wrapped

    # ---------------------------------------------------------- aggregation
    def queries(self) -> Dict[int, List[Span]]:
        out: Dict[int, List[Span]] = {}
        for sp in self.spans:
            out.setdefault(sp.query, []).append(sp)
        return out

    def self_ms(self, spans: List[Span]) -> Dict[int, float]:
        """Self time of each span of one query, keyed by span index."""
        own = {sp.idx: sp.ms for sp in spans}
        for sp in spans:
            if sp.parent is not None:
                own[sp.parent] -= sp.ms
        return own


def check_self_times(tracer: Tracer) -> None:
    """Per query, spans nest inside their parents without overlapping, so the
    layers' self times sum to the root span: the query's traced wall time."""
    for q, spans in tracer.queries().items():
        root = spans[0]
        children: Dict[int, List[Span]] = {}
        for sp in spans[1:]:
            parent = tracer.spans[sp.parent]
            if parent.query != q or not parent.start <= sp.start <= sp.end <= parent.end:
                raise AssertionError(f"query {q}: span {sp.name} escapes {parent.name}")
            children.setdefault(sp.parent, []).append(sp)
        for sibs in children.values():
            sibs.sort(key=lambda s: s.start)
            for a, b in zip(sibs, sibs[1:]):
                if b.start < a.end:
                    raise AssertionError(f"query {q}: spans {a.name} and {b.name} overlap")
        total = sum(tracer.self_ms(spans).values())
        if root.parent is not None or abs(total - root.ms) > 1e-9 * max(1.0, root.ms):
            raise AssertionError(
                f"query {q}: self times sum to {total:.6f} ms, wall {root.ms:.6f} ms"
            )


class Patches:
    """Attribute replacements that are undone together."""

    def __init__(self):
        self._saved: List[tuple] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, tracer: Tracer, owner: Any, attr: str, name: str, after=None) -> None:
        self.set(owner, attr, tracer.wrap(name, getattr(owner, attr), after))

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
