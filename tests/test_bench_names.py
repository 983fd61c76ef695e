"""The names the benchmark's traced run patches exist.

``querybench/run.py --trace 1`` wraps functions of the program by module
attribute (``workloads.Workload.trace``); a rename would only show when the
benchmark runs. This applies and undoes every workload's patches without
constructing the workload or starting an engine.
"""
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "querybench"))

from tracing import Patches, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


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
