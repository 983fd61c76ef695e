"""Host speed and diagnostics, recorded with every run.

The benchmark shares a virtual machine whose CPU speed drifts, and the VM
exposes no hardware counters. The speed probe measures the drift, so that
query times can be reported at a fixed nominal host speed; the other
readings let a slow run be explained rather than guessed at.
"""
from __future__ import annotations

import os
import random
import statistics
import time
from typing import Dict, List


def steal_ticks() -> int:
    """Cumulative CPU steal ticks of the host (``cpu`` line of /proc/stat)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) if len(fields) > 8 else 0


class SpeedProbe:
    """The host's speed, from a fixed piece of program-independent work timed
    between rounds of queries.

    The host's speed drifts within and between runs, and a probe whose time
    moves with it the way a workload's queries do lets those queries be
    reported at a nominal speed: a time measured next to the probe, scaled by
    ``NOMINAL_MS / probe time``. Each workload picks the probe that tracks
    its engine (STEADINESS.md).

    This one is pure Python, like the ref and semi-external engines: build a
    dict of 60,000 shuffled ids to seeded random weights, then sort the ids
    by weight. It allocates no new objects per element, so garbage
    collection does not time it.
    """

    N = 60_000
    NOMINAL_MS = 25.0

    def __init__(self, seed: int = 12345):
        rng = random.Random(seed)
        self._ids = list(range(self.N))
        rng.shuffle(self._ids)
        self._weights = [rng.random() for _ in range(self.N)]
        self.samples: List[float] = []

    def once(self) -> None:
        d = dict(zip(self._ids, self._weights))
        sorted(d, key=d.get)

    def sample(self, times: int) -> float:
        """Time the probe ``times`` times; returns the median, in ms."""
        batch = []
        for _ in range(times):
            t0 = time.perf_counter()
            self.once()
            batch.append((time.perf_counter() - t0) * 1e3)
        self.samples += batch
        return statistics.median(batch)

    def median_ms(self) -> float:
        """Median over every sample of the run."""
        return statistics.median(self.samples)


def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (children, grandchildren, ...)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # The command name may hold spaces; ppid follows the closing paren.
        ppid = int(stat[stat.rindex(")") + 2 :].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out: List[int] = []
    todo = [pid]
    while todo:
        for c in children.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


def peak_rss_mb() -> float:
    """Sum of VmHWM over this process and its descendants (e.g. the JVM)."""
    me = os.getpid()
    kb = sum(_status_kb(p, "VmHWM") for p in [me, *descendants(me)])
    return kb / 1024.0
