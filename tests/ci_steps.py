"""Run the steps of the CI workflow on this machine, without a network.

The workflow file, ``.github/workflows/tests.yml``, stays the one
definition of CI: this runner holds no step of its own.  It reads the file
with PyYAML and runs every ``run:`` block of every job in order, as
GitHub's runner does, under ``bash --noprofile --norc -eo pipefail``, from
the repository root or the step's ``working-directory``.  What the runner
would provide, it stands in for:

* ``${{ runner.temp }}`` is a fresh directory for each job;
* the package is not installed: ``src`` goes on ``PYTHONPATH``, and a
  ``lefschetz`` script on ``PATH`` runs ``exec python -m lefschetz.cli``,
  which calls the same process entry as the console script;
* ``python`` and ``python3`` on ``PATH`` are this interpreter, so a job's
  ``strategy.matrix`` runs once, on it.

Steps that need the network are skipped and named: every ``uses:`` step
(checkout and interpreter set-up) and every ``run:`` block that calls
``pip install``.  A step that the runner cannot run as written (a key or a
``${{ }}`` expression it does not know) fails; it is never skipped.

    PYTHONPATH=src python tests/ci_steps.py [--job NAME]... [--step TEXT]...

``--job`` keeps the named jobs and ``--step`` the steps whose name holds
the text.  It prints one line per step, with its status and time, the
last lines of each failed step's output, and a summary per job, and exits
1 if any step failed.
"""

from __future__ import annotations

import argparse
import os
import platform
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
# GitHub's default shell for run: blocks on Linux
SHELL = ("bash", "--noprofile", "--norc", "-eo", "pipefail")
STEP_KEYS = {"name", "run", "uses", "with", "env", "working-directory", "timeout-minutes"}
EXPRESSION = re.compile(r"\$\{\{\s*(.*?)\s*\}\}")
SHIM = '#!/bin/sh\nexec python -m lefschetz.cli "$@"\n'
# lines of a failed step's output that are printed
TAIL = 30


def step_name(step) -> str:
    if "name" in step:
        return str(step["name"])
    if "uses" in step:
        return "uses %s" % step["uses"]
    return "Run %s" % str(step.get("run", "")).strip().splitlines()[0]


def substitute(text: str, values: dict) -> str:
    """``text`` with each ``${{ name }}`` replaced; KeyError names an unknown one."""
    return EXPRESSION.sub(lambda m: values[m.group(1)], text)


def run_step(step, job_env, values, seconds):
    """One step: ``("PASS" | "FAIL" | "SKIP", note, output)``."""
    unknown = sorted(set(step) - STEP_KEYS)
    if unknown:
        return "FAIL", "cannot run: unknown key %s" % ", ".join(unknown), ""
    if "uses" in step:
        return "SKIP", "needs the network", ""
    if "run" not in step:
        return "FAIL", "cannot run: neither run nor uses", ""
    if re.search(r"\bpip install\b", step["run"]):
        return "SKIP", "pip install: needs the network", ""
    try:
        script = substitute(step["run"], values)
        cwd = ROOT / substitute(str(step.get("working-directory", ".")), values)
        env = {k: substitute(str(v), values) for k, v in {**job_env, **step.get("env", {})}.items()}
    except KeyError as exc:
        return "FAIL", "cannot run: unknown expression ${{ %s }}" % exc.args[0], ""
    if "timeout-minutes" in step:
        seconds = min(seconds, 60 * float(step["timeout-minutes"]))
    # a session of its own, so a timeout stops everything the step started
    proc = subprocess.Popen(
        [*SHELL, "-c", script],
        cwd=cwd,
        env={**os.environ, **env},
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        start_new_session=True,
    )
    try:
        output = proc.communicate(timeout=max(seconds, 0))[0].decode(errors="replace")
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        output = proc.communicate()[0].decode(errors="replace")
        return "FAIL", "timed out after %.0f s" % seconds, output
    return ("PASS", "", output) if proc.returncode == 0 else ("FAIL", "exit %d" % proc.returncode, output)


def run_job(name, job, steps, bin_dir) -> int:
    """Run ``steps`` of the job; the number that failed."""
    matrix = job.get("strategy", {}).get("matrix")
    if matrix:
        axes = "; ".join("%s %s" % (k, ", ".join(map(str, v))) for k, v in matrix.items())
        print("%s: matrix (%s) runs once, on %s %s" % (
            name, axes, platform.python_implementation(), platform.python_version()))
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}
    start = time.perf_counter()
    # GitHub's default job limit is 360 minutes
    deadline = start + 60 * float(job.get("timeout-minutes", 360))
    with tempfile.TemporaryDirectory(prefix="runner-temp-") as temp:
        env = {
            "PATH": os.pathsep.join((str(bin_dir), os.environ.get("PATH", ""))),
            "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))),
            **job.get("env", {}),
        }
        for step in steps:
            t0 = time.perf_counter()
            status, note, output = run_step(step, env, {"runner.temp": temp}, deadline - t0)
            counts[status] += 1
            line = "%-4s %7.1f s  %s / %s" % (status, time.perf_counter() - t0, name, step_name(step))
            print(line + (": " + note if note else ""), flush=True)
            if status == "FAIL":
                for text in output.splitlines()[-TAIL:]:
                    print("    | " + text)
    print("%s: %d passed, %d failed, %d skipped in %.1f s" % (
        name, counts["PASS"], counts["FAIL"], counts["SKIP"], time.perf_counter() - start), flush=True)
    return counts["FAIL"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--job", action="append", default=[], help="run only this job (repeatable)")
    parser.add_argument("--step", action="append", default=[],
                        help="run only the steps whose name holds this text (repeatable)")
    args = parser.parse_args(argv)
    jobs = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]
    unknown = [name for name in args.job if name not in jobs]
    if unknown:
        parser.error("no job %s in %s (jobs: %s)" % (", ".join(unknown), WORKFLOW.name, ", ".join(jobs)))
    selected = {
        name: [s for s in job.get("steps", []) if not args.step or any(t in step_name(s) for t in args.step)]
        for name, job in jobs.items()
        if not args.job or name in args.job
    }
    if not any(selected.values()):
        parser.error("no step matches")
    failed = 0
    with tempfile.TemporaryDirectory(prefix="ci-bin-") as bin_dir:
        bin_dir = Path(bin_dir)
        (bin_dir / "lefschetz").write_text(SHIM)
        (bin_dir / "lefschetz").chmod(0o755)
        for name in ("python", "python3"):
            (bin_dir / name).symlink_to(sys.executable)
        for name, steps in selected.items():
            if steps:
                failed += run_job(name, jobs[name], steps, bin_dir)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
