"""The lines of ``src/lefschetz`` that no claim executes, and the reviewed list of them.

The claims are the three test files that state the package's behaviour,
``tests/test_acceptance.py``, ``tests/test_cli_golden.py`` and
``tests/test_cli.py``, and the ``catalog`` and ``orbit_lift`` workloads of
``perfbench/``: ``run_op`` and ``check`` on each workload's warm-up and the
first items of a fixed seed, in this process.  Each claim runs in a
process of its own under the standard library's ``trace``, and the counts
add up in one counts file, as ``python -m trace --count --file`` merges
them: a tracer that another replaces (Hypothesis installs one) drops
counts.  A line is executable when ``trace`` says so, from the line tables
of the module's code, docstrings excluded; one that no claim ran is
reported under the innermost function or class that holds it.

``tests/unexecuted.json`` is the reviewed list.  Each entry under
``"unexecuted"`` names a function, the text of its unexecuted lines, and
its kind: ``"a"``, an input check that a verb can reach but no claim
does yet, or ``"b"``, code kept on purpose, with its reason.  Code that
no claim runs and that is not kept on purpose is removed: the entries
under ``"removed"``, of kind ``"c"``, name it, each with its reason.

    PYTHONPATH=src python tests/unexecuted.py

It prints the unexecuted lines per function, and exits 1 on an unexecuted
line that the list does not hold and on a listed line that a claim now
runs (a stale entry), naming each.  Subprocesses that
a claim starts are not traced.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import json
import os
import pickle
import subprocess
import sys
import tempfile
import trace
from collections import Counter
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lefschetz"
LIST = ROOT / "tests" / "unexecuted.json"
TEST_CLAIMS = ("test_acceptance.py", "test_cli_golden.py", "test_cli.py")
# workload -> items of the seed's stream after the warm-up
WORKLOAD_CLAIMS = {"catalog": 2000, "orbit_lift": 500}
SEED = 1


def _run_tests(name):
    import pytest

    return pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / name)]) == 0


def _run_workload(module, items):
    lx = importlib.import_module("lefschetz")
    importlib.import_module("lefschetz.cli")
    ok = True
    for item in items:
        try:
            out, exc = module.run_op(lx, item), None
        except Exception as error:
            out, exc = None, error
        ok = module.check(item, out, exc) and ok
    return ok


class _OutsidePackage(dict):
    """``trace``'s ignore test: every file but those of the package, cached by path."""

    def names(self, filename, modulename):
        if filename not in self:
            self[filename] = not os.path.realpath(filename).startswith(str(PACKAGE) + os.sep)
        return self[filename]


def run_claim(name: str, counts: str) -> int:
    """Run one claim under ``trace`` in this process, adding its counts to ``counts``."""
    tracer = trace.Trace(count=1, trace=0, infile=counts, outfile=counts)
    # only the package's lines are counted, and the rest of the code gets no
    # line trace; ``ignoredirs`` would not do, since ``trace`` caches its
    # verdict by base name, so pytest's __init__.py would hide the package's
    tracer.ignore = _OutsidePackage()
    if name in WORKLOAD_CLAIMS:
        sys.path.insert(0, str(ROOT / "perfbench"))
        module = importlib.import_module(name)
        # the items are drawn before the trace starts, and lefschetz is imported inside it
        items = module.warmup() + list(islice(module.schedule(SEED), WORKLOAD_CLAIMS[name]))
        ok = tracer.runfunc(_run_workload, module, items)
    else:
        sys.path.insert(0, str(ROOT / "tests"))
        ok = tracer.runfunc(_run_tests, name)
    results = tracer.results()
    # the format of ``--file``; ``write_results`` would also write a .cover file per module
    with open(counts, "wb") as fh:
        pickle.dump((results.counts, results.calledfuncs, results.callers), fh, 1)
    return 0 if ok else 1


def _owners(tree: ast.Module) -> dict[int, str]:
    """Line -> qualified name of the innermost function or class that holds it."""
    owner: dict[int, str] = {}
    todo = [(tree, "")]
    while todo:
        node, prefix = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                for line in range(first, child.end_lineno + 1):
                    owner[line] = name
                todo.append((child, name + "."))
            else:
                todo.append((child, prefix))
    return owner


def unexecuted(counts: dict) -> dict[str, list[tuple[int, str]]]:
    """``"<module>.py:<function>"`` -> its unexecuted (line number, stripped text), in order."""
    ran = {(os.path.realpath(path), line) for path, line in counts}
    found: dict[str, list[tuple[int, str]]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        owner = _owners(ast.parse("\n".join(source)))
        real = os.path.realpath(path)
        # the executable lines that ``python -m trace --missing`` reports
        for line in sorted(trace._find_executable_linenos(str(path))):
            # line 0 is the module code's own start
            if line and (real, line) not in ran:
                where = "%s:%s" % (path.name, owner.get(line, "<module>"))
                found.setdefault(where, []).append((line, source[line - 1].strip()))
    return found


def differences(found: dict, listed: dict) -> list[str]:
    """One line per unexecuted line the list lacks, and per listed line that now runs."""
    problems = []
    for where in sorted(set(found) | set(listed)):
        have = Counter(text for _, text in found.get(where, ()))
        want = Counter(listed.get(where, ()))
        for text in sorted((have - want).elements()):
            problems.append("unlisted: %s: %s" % (where, text))
        for text in sorted((want - have).elements()):
            problems.append("stale: %s: %s" % (where, text))
    return problems


def measure() -> dict:
    """Run every claim in its own process and read the merged counts."""
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    # a fixed hash seed, so set orders, and the lines they lead to, repeat
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory() as scratch:
        counts = os.path.join(scratch, "counts")
        for claim in (*TEST_CLAIMS, *WORKLOAD_CLAIMS):
            done = subprocess.run(
                [sys.executable, __file__, "--claim", claim, "--file", counts],
                env=env, cwd=ROOT, capture_output=True, text=True,
            )
            if done.returncode:
                raise SystemExit("%s%sthe claim %s failed under trace" % (done.stdout, done.stderr, claim))
        return trace.CoverageResults(infile=counts).counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--claim", help=argparse.SUPPRESS)
    parser.add_argument("--file", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.claim:
        return run_claim(args.claim, args.file)
    found = unexecuted(measure())
    for where, lines in found.items():
        print("%s: %d" % (where, len(lines)))
        for line, text in lines:
            print("  %4d  %s" % (line, text))
    print("%d unexecuted lines in %d functions" % (sum(map(len, found.values())), len(found)))
    entries = json.loads(LIST.read_text(encoding="utf-8"))["unexecuted"]
    listed = {entry["where"]: entry["lines"] for entry in entries}
    problems = differences(found, listed)
    problems += ["unreviewed: %s" % e["where"] for e in entries if e["kind"] not in ("a", "b") or not e["reason"]]
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
