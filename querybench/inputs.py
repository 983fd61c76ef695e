"""Seeded benchmark inputs and their ``ref`` oracle.

Each graph is one of the repository's Table-1 analogs (``repro.graphs``), a
fixed structure with PageRank-rank weights. The workload seed relabels its
vertex ids by a seeded rotation, ``id -> (id + offset) mod n``, so every
seed hands the engines different ids, edge orders, hash partitions and
parquet bytes, while the search work (stages, supersteps, accessed sizes)
stays that of the same instance and the id locality of the generator is
kept. That keeps run-to-run spread down to the host and the program, not
the input.

The unrelabelled graph and its oracle answers are cached under the work
directory, keyed by a digest of the source files that produce them, so only
the first run in a checkout pays for them, and it fills the cache in a child
process so that the measuring process starts out the same on every run.
Neither counts toward ``setup_s``: they are the benchmark's inputs, not the
program's set-up.
"""
from __future__ import annotations

import glob
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Tuple

import numpy as np
import pandas as pd

Community = Tuple[float, FrozenSet[int]]

# Source files whose change must invalidate a cached graph or oracle answer.
_DIGEST_GLOBS = ("src/repro/graphs/*.py", "src/repro/ref/*.py", "querybench/inputs.py")


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    for pattern in _DIGEST_GLOBS:
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


@dataclass
class BaseGraph:
    """An analog graph before relabelling: ``weights[id]``, edges ``(m, 2)``."""

    name: str
    scale: float
    weights: np.ndarray
    edges: np.ndarray


@dataclass
class Instance:
    """What the program receives: pandas ``(id, weight)`` and ``(src, dst)``."""

    vertices: pd.DataFrame
    edges: pd.DataFrame
    perm: np.ndarray  # new id of base vertex v is perm[v]

    def map_answer(self, answer: Iterable[Tuple[float, Iterable[int]]]) -> List[Community]:
        return [(float(w), frozenset(int(self.perm[v]) for v in ids)) for w, ids in answer]


class InputCache:
    """Generated graphs and oracle answers, cached on disk per source digest."""

    def __init__(self, root: str, work_dir: str):
        self.dir = os.path.join(work_dir, "cache")
        os.makedirs(self.dir, exist_ok=True)
        self.digest = source_digest(root)

    def _path(self, stem: str, ext: str) -> str:
        return os.path.join(self.dir, f"{stem}-{self.digest}.{ext}")

    def _graph_path(self, name: str, scale: float) -> str:
        return self._path(f"{name}@{scale}", "npz")

    def _oracle_path(self, name: str, scale: float, shapes) -> str:
        key = "-".join(f"{k}x{g}" for k, g in sorted(set(shapes)))
        return self._path(f"oracle-{name}@{scale}-{key}", "json")

    def has(self, name: str, scale: float, shapes) -> bool:
        return os.path.exists(self._graph_path(name, scale)) and os.path.exists(
            self._oracle_path(name, scale, shapes)
        )

    def base_graph(self, name: str, scale: float) -> BaseGraph:
        path = self._graph_path(name, scale)
        if not os.path.exists(path):
            from repro.graphs.weights import build_dataset_pandas

            vertices, edges = build_dataset_pandas(name, scale=scale)
            vertices = vertices.sort_values("id")
            ids = vertices["id"].to_numpy()
            if not np.array_equal(ids, np.arange(len(ids))):
                raise ValueError(f"{name}: vertex ids are not 0..n-1")
            tmp = path + ".tmp.npz"
            np.savez(
                tmp,
                weights=vertices["weight"].to_numpy(np.float64),
                edges=edges[["src", "dst"]].to_numpy(np.int64),
            )
            os.replace(tmp, path)
        with np.load(path) as z:
            return BaseGraph(name, scale, z["weights"], z["edges"])

    def oracle(
        self, base: BaseGraph, shapes: Iterable[Tuple[int, int]]
    ) -> Dict[Tuple[int, int], dict]:
        """``ref`` answers on the unrelabelled graph, for every ``(k, γ)``.

        The answer is the global route, ``top_k_via_count`` (one full CountIC
        peel, then EnumIC), independent of the local searches it checks; the
        first community of γ is the head of its top-k list. ``tau_star`` is
        ``size(G≥τ*)``, the base of ``accessed_ratio.max``.
        """
        shapes = sorted(set(shapes))
        path = self._oracle_path(base.name, base.scale, shapes)
        if not os.path.exists(path):
            from repro.graphs.weights import as_ref_graph
            from repro.ref.enum_ic import top_k_via_count
            from repro.ref.local_search import tau_star_size

            g = as_ref_graph(
                pd.DataFrame(base.edges, columns=["src", "dst"]),
                pd.DataFrame({"id": np.arange(len(base.weights)), "weight": base.weights}),
            )
            out = {}
            for k, gamma in shapes:
                out[f"{k},{gamma}"] = {
                    "answer": [[w, sorted(c)] for w, c in top_k_via_count(g, k, gamma)],
                    "tau_star": tau_star_size(g, k, gamma),
                }
            tmp = path + ".tmp"
            with open(tmp, "w") as f:
                json.dump(out, f)
            os.replace(tmp, path)
        with open(path) as f:
            raw = json.load(f)
        return {tuple(int(x) for x in s.split(",")): v for s, v in raw.items()}


def relabel(base: BaseGraph, seed: int) -> Instance:
    """The seed's instance: ids rotated, edges canonical (src < dst), sorted."""
    n = len(base.weights)
    offset = int(np.random.default_rng(seed).integers(n))
    perm = (np.arange(n) + offset) % n
    weights = np.empty(n, dtype=np.float64)
    weights[perm] = base.weights
    e = perm[base.edges]
    e = np.sort(e, axis=1)
    e = e[np.lexsort((e[:, 1], e[:, 0]))]
    return Instance(
        vertices=pd.DataFrame({"id": np.arange(n, dtype=np.int64), "weight": weights}),
        edges=pd.DataFrame({"src": e[:, 0], "dst": e[:, 1]}),
        perm=perm,
    )


if __name__ == "__main__":
    # python3 inputs.py ROOT WORK_DIR GRAPH SCALE '[[k, gamma], ...]': fill
    # the cache for one graph, in a process of its own.
    import sys

    root, work_dir, graph, scale, shapes = sys.argv[1:6]
    sys.path.insert(0, os.path.join(root, "src"))
    cache = InputCache(root, work_dir)
    cache.oracle(cache.base_graph(graph, float(scale)), [tuple(s) for s in json.loads(shapes)])
