"""Self-test of the benchmark at tiny scale.

    python3 querybench/selftest.py [--workloads se-disk spark-local]

For each workload it runs ``run.py`` untraced and traced on graphs shrunk to
a twentieth, and checks that the last line is the JSON result with every
metric of ``BENCHMARK.json`` under its name and unit, that all answers were
correct, and that the traced run counted work in the workload's own layer. It then runs
one workload with a deliberately corrupted oracle and checks that the
command fails. Exits non-zero on the first failed check.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.05"
#: a count each workload's traced run must find work in
LAYER_COUNT = {"spark-local": "spark.jobs_per_query", "se-disk": "se.blocks_read"}


def run(workload: str, trace: int, *extra: str):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", SCALE, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def expect(cond: bool, what: str, detail: str = "") -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}\n{detail}")
    print(f"ok  {what}")


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="*", default=names, choices=names)
    args = p.parse_args()

    for wl in args.workloads:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run(wl, trace)
            expect(code == 0 and result is not None, f"{wl} trace={trace} exits 0", err[-2000:])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{wl} trace={trace} result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{wl} trace={trace} answers all correct")
            got = result["metrics"]
            for m in spec[kind]:
                expect(m["name"] in got and got[m["name"]]["unit"] == m["unit"]
                       and isinstance(got[m["name"]]["value"], (int, float)),
                       f"{wl} trace={trace} reports {m['name']} in {m['unit']}")
            if trace == 0:
                expect(got["correct_ratio"]["value"] == 1.0, f"{wl} correct_ratio is 1")
                for name in ("setup_s", "topk_ms.p50", "first_ms.p50", "queries_per_s"):
                    expect(got[name]["value"] > 0, f"{wl} {name} is positive")
            elif wl in LAYER_COUNT:
                expect(got[LAYER_COUNT[wl]]["value"] > 0, f"{wl} traced {LAYER_COUNT[wl]} > 0")

    corrupt = "se-disk" if "se-disk" in args.workloads else args.workloads[0]  # the fastest
    code, result, _ = run(corrupt, 0, "--corrupt-oracle")
    expect(code != 0, f"{corrupt} with a corrupted oracle exits non-zero")
    expect(result is not None and not result["correct"] and result["failed"] > 0
           and result["metrics"]["correct_ratio"]["value"] < 1,
           "the corrupted oracle is reported as failed answers")
    print("selftest passed")


if __name__ == "__main__":
    main()
