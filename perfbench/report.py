#!/usr/bin/env python3
"""Run every workload once and print one table of its metrics with units.

    python3 perfbench/report.py --seed 1 --seconds 30 [--trace 1]

Each workload runs as its own ``perfbench/run.py`` process, one after the
other.  Exits 1 if any workload's outputs differ from the oracles.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    results = {}
    for wl in workloads:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print("%s: exit %d\n%s" % (wl, proc.returncode, proc.stderr[-2000:]), file=sys.stderr)
            return 2
        results[wl] = json.loads(lines[-1])
    names = list(results[workloads[0]]["metrics"])
    print("%-44s %-6s" % ("metric", "unit") + "".join("%16s" % wl for wl in workloads))
    rows = [("failed_ratio", "1", lambda r: r["failed"] / r["attempted"]),
            ("ops_attempted", "count", lambda r: r["attempted"])]
    rows += [(n, results[workloads[0]]["metrics"][n]["unit"], lambda r, n=n: r["metrics"][n]["value"])
             for n in names]
    for name, unit, get in rows:
        print("%-44s %-6s" % (name, unit) + "".join("%16.6g" % get(results[wl]) for wl in workloads))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
