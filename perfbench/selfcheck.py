#!/usr/bin/env python3
"""Self-check of the benchmark, run from the repository root.

    python3 perfbench/selfcheck.py

* every workload runs at a tiny size, untraced and traced, exits 0 and
  prints exactly the metrics ``BENCHMARK.json`` names, each with its unit;
* a deliberately wrong oracle value (``--corrupt``) is counted as a failed
  operation, lowers ``success_ratio`` and makes the command exit 1;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files, the command exits nonzero without printing a result;
* every results file carries its provenance.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROVENANCE = ("nproc", "python", "cpu_model", "loadavg_at_start", "seed", "ops", "git_commit")


def run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, res, proc = run("--workload", wl, "--seed", "7", "--trace", str(trace))
            where = "%s trace %d" % (wl, trace)
            if code != 0 or res is None:
                problems.append("%s: exit %d\n%s" % (where, code, proc.stderr[-2000:]))
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"} or not res["correct"]:
                problems.append("%s: bad result keys or not correct: %s" % (where, sorted(res)))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != units[trace]:
                problems.append("%s: metrics differ from BENCHMARK.json: %s" % (
                    where, sorted(set(got.items()) ^ set(units[trace].items()))))
            saved = json.loads((HERE / "results" / ("%s-seed7-trace%d.json" % (wl, trace))).read_text())
            missing = [k for k in PROVENANCE if saved["provenance"].get(k) in (None, "", [])]
            if missing:
                problems.append("%s: provenance lacks %s" % (where, missing))
        code, res, _ = run("--workload", wl, "--seed", "7", "--trace", "0", "--corrupt")
        if code != 1 or res is None or res["correct"] or res["failed"] < 1 \
                or res["metrics"]["success_ratio"]["value"] >= 1:
            problems.append("%s: a wrong oracle value was not counted (exit %d, %s)" % (wl, code, res))
    bare = HERE / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    code, res, proc = run("--workload", "catalog", "--seed", "7", cwd=bare)
    if code == 0 or proc.stdout.strip():
        problems.append("bare directory: exit %d, stdout %r" % (code, proc.stdout[-200:]))
    shutil.rmtree(bare, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("selfcheck: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
