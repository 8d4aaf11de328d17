#!/usr/bin/env python3
"""Benchmark of the lefschetz library and CLI, run from the repository root.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Workloads (see each module's docstring for the input mix and why):

* ``catalog``     in-process library pipeline on seeded catalog expressions
* ``orbit_lift``  in-process ``decompose_via_orbit`` on conjugated isomorphisms
* ``cli``         one ``python -m lefschetz.cli`` subprocess per operation

Each workload is a closed loop with one client, in one process, no threads.
Set-up (import of ``lefschetz``, generation of the warm-up inputs and their
oracles, warm-up) runs ``SETUP_REPS`` times and ``setup_s`` is the median.
Inputs are an endless seeded stream, generated between operations and
outside their times, so no input is replayed. With ``--trace 0`` the timed
loop runs for ``--seconds`` and the end-to-end metrics are printed; times
are scaled to a reference machine speed (see ``speed.py``) and the unscaled
values are printed and saved too. With ``--trace 1`` a fixed number of
inputs from the start of the stream runs untraced (warm-up), traced with
spans around every call into each module, and untraced again, and the
per-layer metrics (unscaled) are printed. Every outcome is checked against the
independent oracles; any mismatch makes the command exit 1. The last line of
stdout is one JSON object; a results file with provenance is written under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import cli_mix  # noqa: E402
import orbit_lift  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

SETUP_REPS = 5
PROBES = 7

WORKLOADS = {"catalog": catalog, "orbit_lift": orbit_lift, "cli": cli_mix}
# Operations in the traced run (the first ones of the seed's stream, so its
# counts are exact for a seed), and the same with --tiny.
TRACED_OPS = {"catalog": 2000, "orbit_lift": 2 * orbit_lift.BLOCK, "cli": 2 * cli_mix.BLOCK}
TINY_TRACED_OPS = {"catalog": 40, "orbit_lift": 12, "cli": 6}

END_TO_END_UNITS = {
    "throughput_ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "1",
}

EXPRLANG_ERRORS = {"ParseError", "SemanticError"}
ORBIT_ERRORS = {"SupportViolationError", "NotAnIsomorphismError"}


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def fresh_import():
    """Import ``lefschetz`` from the checkout's ``src``, dropping earlier imports.

    Each set-up repetition pays the import again, and module-level state
    (a cache a later change might add) starts empty every time.
    """
    for name in [n for n in sys.modules if n == "lefschetz" or n.startswith("lefschetz.")]:
        del sys.modules[name]
    lx = importlib.import_module("lefschetz")
    importlib.import_module("lefschetz.cli")
    if Path(lx.__file__).resolve().parent.parent != SRC.resolve():
        raise SetupError("imported lefschetz from %s, not from %s" % (lx.__file__, SRC))
    return lx


class Workload:
    """A workload module's input stream and operations, with ``lefschetz`` imported.

    Every workload module provides ``schedule(seed)`` (an endless stream of
    items), ``warmup()`` (fixed inputs), ``run_op(lx, item)`` (the timed operation),
    ``run_traced(lx, item)`` (the same operation in this process),
    ``check(item, out, exc)``, ``error_kind(item)``, ``corrupt(item)`` and
    ``SUBPROCESS`` (whether ``run_op`` starts a child process).
    """

    def __init__(self, module, seed, corrupt):
        self.module = module
        self.seed = seed
        self.corrupt = corrupt
        self.probe = speed.INTERPRETER if module.SUBPROCESS else speed.KERNEL
        self.lx = None
        self.items = iter(())

    def setup(self):
        """Import, build the warm-up inputs and oracles, warm up, and start the input stream."""
        self.lx = fresh_import()
        for item in self.module.warmup():
            self.call(self.module.run_op, item)
        self.items = self.module.schedule(self.seed)
        if self.corrupt:
            self.items = itertools.chain([self.module.corrupt(next(self.items))], self.items)

    def call(self, run, item):
        """One operation by ``run``; returns (outcome, exception)."""
        try:
            return run(self.lx, item), None
        except Exception as exc:  # an unexpected exception is a failed operation
            return None, exc


def latency_metrics(lat_ns):
    return {
        "throughput_ops_per_s": len(lat_ns) / (sum(lat_ns) / 1e9),
        "latency_p50_ms": statistics.median(lat_ns) / 1e6,
        "latency_p90_ms": statistics.quantiles(lat_ns, n=10)[-1] / 1e6,
    }


def timed_run(wl, seconds):
    """The closed loop: one operation after another until ``seconds`` pass.

    Returns the scaled metrics, the raw ones, ops attempted, ops failed and
    the share of ops whose input already came up earlier in the run.
    Throughput counts the time spent inside operations; input generation,
    the oracle check and the speed probe between operations are excluded.
    """
    failed = i = 0
    keys = array("q")  # a hash per input, for the repeat share after the loop
    module = wl.module
    gc.collect()
    scaler = speed.Scaler(wl.probe)
    end = time.perf_counter_ns() + int(seconds * 1e9)
    while True:
        item = next(wl.items)
        keys.append(hash(repr(item[:2])))
        t0 = time.perf_counter_ns()
        out, exc = wl.call(module.run_op, item)
        t1 = time.perf_counter_ns()
        failed += not module.check(item, out, exc)
        scaler.add(t1 - t0)
        i += 1
        if t1 >= end:
            break
    scaler.flush()
    # Read the peak before sorting the latencies, which allocates per op.
    who = resource.RUSAGE_CHILDREN if module.SUBPROCESS else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    metrics = latency_metrics(scaler.scaled)
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["success_ratio"] = (i - failed) / i
    raw = latency_metrics(scaler.raw)
    raw["speed_probe_ms"] = statistics.median(scaler.probes) / 1e6
    return metrics, raw, i, failed, 1 - len(set(keys)) / i


def probe_ms(code):
    """Median wall time of ``python -c code`` over PROBES runs, with ``src`` on the path."""
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", code], env=cli_mix.ENV, cwd=ROOT, check=True,
                       stdin=subprocess.DEVNULL, capture_output=True, timeout=cli_mix.SUBPROCESS_TIMEOUT_S)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e6


def traced_run(wl, count):
    """The next ``count`` inputs, untraced then traced; per-layer metrics."""
    module = wl.module
    items = list(itertools.islice(wl.items, count))
    failed = attempted = 0
    sub_ns = []
    if module.SUBPROCESS:
        for item in items:
            t0 = time.perf_counter_ns()
            out, exc = wl.call(module.run_op, item)
            sub_ns.append(time.perf_counter_ns() - t0)
            failed += not module.check(item, out, exc)
        attempted += count

    def run_pass(tr=None):
        """Scaled op times of one in-process pass, traced when ``tr`` is given."""
        nonlocal failed
        gc.collect()
        scaler = speed.Scaler(speed.KERNEL)
        for item in items:
            t0 = time.perf_counter_ns()
            idx = tr.open(tracer.ROOT) if tr else None
            try:
                out, exc = wl.call(module.run_traced, item)
            finally:
                if tr:
                    tr.close(idx)
            scaler.add(time.perf_counter_ns() - t0)
            failed += not module.check(item, out, exc)
        scaler.flush()
        return scaler

    # The first untraced pass only warms up; the overhead ratio compares the
    # traced pass with the untraced pass after it, both speed-scaled.
    run_pass()
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = run_pass(tr)
    finally:
        tr.uninstall()
    plain = run_pass()
    attempted += 3 * count
    summary = tr.summary(traced.raw)
    for problem in summary["problems"]:
        print("trace check failed: %s" % problem, file=sys.stderr)
    failed += bool(summary["problems"])
    errors = [module.error_kind(item) for item in items]
    start_ms = probe_ms("pass")
    import_ms = probe_ms("import lefschetz.cli") - start_ms
    metrics = layer_metrics(summary)
    metrics.update({
        "exprlang.errors_expected": (sum(e in EXPRLANG_ERRORS for e in errors), "count"),
        "orbit.errors_expected": (sum(e in ORBIT_ERRORS for e in errors), "count"),
        "cli.interpreter_start_ms": (start_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.process_overhead_ms": (
            statistics.median(s - p for s, p in zip(sub_ns, plain.raw)) / 1e6 if sub_ns else 0.0, "ms"),
        "trace.overhead_ratio": (sum(traced.scaled) / sum(plain.scaled), "1"),
    })
    return metrics, attempted, failed, tr


def layer_metrics(summary):
    metrics = {}
    for layer, funcs in tracer.TRACED.items():
        for func in funcs:
            name = "%s.%s" % (layer, func)
            metrics[name + ".calls"] = (summary["calls"].get(name, 0), "count")
            metrics[name + ".self_s"] = (summary["self_ns"].get(name, 0) / 1e9, "s")
        metrics[layer + ".self_share"] = (summary["layer_self_ns"][layer] / summary["wall_ns"], "1")
    metrics.update({
        "varieties.motive_of.calls_per_op": (summary["motive_calls_per_op"], "1"),
        "varieties.opaque_parts": (summary["opaque_parts"], "count"),
        "orbit.OrbitMorphism.constructions": (summary["calls"].get("orbit.OrbitMorphism", 0), "count"),
        "orbit.OrbitMorphism.construct_s": (summary["self_ns"].get("orbit.OrbitMorphism", 0) / 1e9, "s"),
        "orbit.verify_share": (summary["verify_share"], "1"),
        "trace.harness_share": (summary["harness_ns"] / summary["wall_ns"], "1"),
    })
    return metrics


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args):
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
        "cpu_model": cpu,
        "loadavg_at_start": _read("/proc/loadavg").split()[:3],
        "git_commit": git_commit(),
        "setup_reps": SETUP_REPS if not args.tiny else 1,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="a short traced run and one set-up (self-check only)")
    p.add_argument("--corrupt", action="store_true",
                   help="give the first operation a wrong expected value (self-check only)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lefschetz" / "__init__.py").is_file():
        print("error: no lefschetz package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    prov = provenance(args)
    wl = Workload(WORKLOADS[args.workload], args.seed, args.corrupt)
    try:
        setups = [speed.scaled_call(wl.setup, wl.probe) for _ in range(1 if args.tiny else SETUP_REPS)]
        raw = {"setup_s_each": [s[0] for s in setups]}
        if args.trace:
            count = (TINY_TRACED_OPS if args.tiny else TRACED_OPS)[args.workload]
            metrics, attempted, failed, tr = traced_run(wl, count)
            prov["traced_ops"] = count
        else:
            scaled, raw_loop, attempted, failed, prov["repeat_share"] = timed_run(wl, args.seconds)
            scaled["setup_s"] = statistics.median(s[1] for s in setups)
            raw.update(raw_loop, setup_s=statistics.median(raw["setup_s_each"]))
            metrics = {k: (scaled[k], u) for k, u in END_TO_END_UNITS.items()}
    except SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    prov["ops"] = attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(RESULTS / (stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "raw": raw, **result}, fh, indent=1)
    if args.trace:
        names = sorted(set(tr.names))
        index = {n: i for i, n in enumerate(names)}
        spans = [[index[n], s, e, p] for n, s, e, p in zip(tr.names, tr.starts, tr.ends, tr.parents)]
        with open(RESULTS / (stem + "-spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": spans}, fh, separators=(",", ":"))
    print("# %s" % json.dumps(prov, sort_keys=True))
    if not args.trace:
        n = attempted
        print("# latency_p90_ms from %d samples, %d beyond it" % (n, n - int(0.9 * n)))
        print("%-36s %16s %s" % ("failed_ratio", "%.6g" % (failed / n), "1"))
    for k, (v, u) in metrics.items():
        print("%-36s %16s %s" % (k, "%.6g" % v, u))
    for k, v in raw.items():
        if not isinstance(v, list):
            print("%-36s %16s (unscaled)" % ("raw." + k, "%.6g" % v))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
