"""Disk layout for the semi-external algorithms (Eval-VI).

Following the §3.1 Remark / [27]: edges are sorted in **decreasing weight
order** — the weight of an edge being the minimum weight of its endpoints
(``w_min``) — and stored in fixed-size parquet blocks, so the edges of
``G≥τ_{i+1}`` that are not in ``G≥τ_i`` occupy a consecutive run of blocks
and are loaded sequentially. The blocks are the graph's §3.1 edge layout
(``PrefixIndex.nbr``, which ``RefGraph`` keeps): ``write`` takes its
``src < dst, w_min`` rows (``PrefixIndex.edge_rows``), in layout order —
grouped by the lower-weight endpoint's rank, each group in decreasing
weight of the other endpoint — and cuts them into blocks. Vertex-level
information is assumed memory-resident, as in the paper's semi-external
model: ``vertices.parquet``
is the graph's prefix index (``repro.ref.graph.PrefixIndex``), one row per
vertex in decreasing weight order with its ``cum_size`` = ``size(G≥weight)``.
An opened store answers Algorithm 1's lookups from that table, and the
edges of ``G≥τ`` are the first ``size_at_tau(τ) − r_for_tau(τ)`` edges of
the block sequence, so a lookup reads no edge block.

Blocks store ``src``/``dst`` as ``DELTA_BINARY_PACKED`` with no
dictionary and ``w_min`` with one (``BLOCK_ENCODING``): the ids are near
unique within a block, so parquet's default dictionary attempt on them is
written and then dropped, while ``w_min`` repeats once per edge of its
lower endpoint. The store is written from a ``RefGraph``, whose contract
was checked when it was built; nothing read back is checked again beyond
``PrefixIndex.with_edges``' layout check.

``EdgeBlockStore`` accounts every read at block granularity (bytes and
block count), which Eval-VI reports alongside wall time and peak resident
edges.
"""
from __future__ import annotations

import glob
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, List, Tuple

import pyarrow as pa
import pyarrow.parquet as pq

from repro.ref.graph import PrefixIndex, PrefixLookups, RefGraph


#: Parquet options of every edge block; the module docstring gives the reason.
BLOCK_ENCODING = dict(
    use_dictionary=["w_min"],
    column_encoding={"src": "DELTA_BINARY_PACKED", "dst": "DELTA_BINARY_PACKED"},
)


@dataclass
class IOStats:
    blocks_read: int = 0
    bytes_read: int = 0
    peak_resident_edges: int = 0
    full_scans: int = 0


@dataclass
class EdgeBlockStore(PrefixLookups):
    """Weight-sorted edge blocks on the local filesystem."""

    path: str
    block_files: List[str] = field(default_factory=list)
    stats: IOStats = field(default_factory=IOStats)

    # ------------------------------------------------------------ write side
    @staticmethod
    def write(path: str, g: RefGraph, block_edges: int = 4096) -> "EdgeBlockStore":
        """Persist ``g``: vertices.parquet (its prefix index) +
        block_%05d.parquet (its edge layout, ``src < dst``, by decreasing
        w_min)."""
        os.makedirs(path, exist_ok=True)
        idx = g.index
        pq.write_table(
            pa.table({"id": idx.ids, "weight": idx.weights, "cum_size": idx.cum_size}),
            os.path.join(path, "vertices.parquet"),
        )
        src, dst, w_min = idx.edge_rows()
        edges = pa.table({"src": src, "dst": dst, "w_min": w_min})
        del src, dst, w_min
        files = []
        for i in range(0, max(edges.num_rows, 1), block_edges):
            f = os.path.join(path, f"block_{i // block_edges:05d}.parquet")
            pq.write_table(edges.slice(i, block_edges), f, **BLOCK_ENCODING)
            files.append(f)
        return EdgeBlockStore(path=path, block_files=files)

    @staticmethod
    def open(path: str) -> "EdgeBlockStore":
        return EdgeBlockStore(
            path=path,
            block_files=sorted(glob.glob(os.path.join(path, "block_*.parquet"))),
        )

    # ------------------------------------------------------------- read side
    def vertices(self) -> pa.Table:
        """Vertex table ``(id, weight, cum_size)`` in decreasing weight order
        — memory-resident per the semi-external model (not counted as edge
        I/O)."""
        return pq.read_table(os.path.join(self.path, "vertices.parquet"))

    @cached_property
    def index(self) -> PrefixIndex:
        """The prefix index, read from the vertex table on first use."""
        vp = self.vertices()
        return PrefixIndex(vp["id"], vp["weight"], vp["cum_size"])

    @property
    def n_blocks(self) -> int:
        return len(self.block_files)

    def read_block(self, i: int) -> pa.Table:
        """Block ``i``: columns ``src``, ``dst``, ``w_min``."""
        f = self.block_files[i]
        self.stats.blocks_read += 1
        self.stats.bytes_read += os.path.getsize(f)
        return pq.read_table(f)

    def scan(self) -> Iterator[pa.Table]:
        """One sequential pass over all blocks in decreasing weight order."""
        self.stats.full_scans += 1
        for i in range(self.n_blocks):
            yield self.read_block(i)

    def note_resident(self, n_edges: int) -> None:
        self.stats.peak_resident_edges = max(self.stats.peak_resident_edges, n_edges)
