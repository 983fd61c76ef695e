"""The names the benchmark's traced run patches exist.

``querybench/run.py --trace 1`` wraps functions of the program by module
attribute (``workloads.Workload.trace``); a rename would only show when the
benchmark runs. This applies and undoes every workload's patches without
constructing the workload or starting an engine, and runs the se-disk
self-test (``querybench/selftest.py``, a few seconds) for the names only a
set-up reaches.
"""
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "querybench"))

from tracing import Patches, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from .spark_helpers import random_ref_graph  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_patches_apply_and_undo(name):
    workload = WORKLOADS[name]
    patches = Patches()
    workload.trace(workload.__new__(workload), Tracer(), patches)
    patches.undo()


def test_se_disk_patch_targets_exist():
    """se-disk patches these in its set-up and its traced run."""
    import repro.semi_external.algorithms as se_alg

    for name in ("count_ic", "enum_ic", "RefGraph"):
        assert hasattr(se_alg, name)


def test_se_subgraph_span_fires_once_per_stage(tmp_path):
    """The traced se-disk run replaces ``se_alg.RefGraph`` with a plain
    function wrapper; ``local_search_se`` must still build every stage's
    graph through that name, so the ``se.subgraph`` span counts each one."""
    from repro.ref.local_search import local_search
    from repro.semi_external.algorithms import local_search_se
    from repro.semi_external.storage import EdgeBlockStore

    g = random_ref_graph(60, 200, seed=3)
    store = EdgeBlockStore.write(str(tmp_path / "s"), g, block_edges=16)
    workload = WORKLOADS["se-disk"]
    tracer, patches = Tracer(), Patches()
    workload.trace(workload.__new__(workload), tracer, patches)
    try:
        comms, _ = local_search_se(store, 6, 2)
    finally:
        patches.undo()
    want = local_search(g, 6, 2)
    names = [sp.name for sp in tracer.spans]
    assert comms == want.communities
    assert names.count("se.subgraph") == names.count("se.count_ic") == len(want.stages) >= 2


def test_se_disk_selftest():
    """The benchmark's se-disk self-test passes: it is the only run of the
    set-up names, ``as_ref_graph``, ``EdgeBlockStore.write`` and
    ``local_search_se``'s ``(communities, store)`` return."""
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "querybench", "selftest.py"), "--workloads", "se-disk"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, (out.stdout + out.stderr)[-3000:]
