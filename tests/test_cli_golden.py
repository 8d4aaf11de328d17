"""Exact CLI output: stdout, stderr and exit status of each pinned invocation.

``cli_golden.json`` holds one case per invocation: its arguments, the text
on stdin (read by the expression ``-``), and the exit status, stdout and
stderr it gave.  The collection files in ``files`` and the directories in
``dirs`` are created in a fresh working directory before each case.

What argparse prints itself (usage errors and ``--help``) differs between
Python versions, so for a case marked ``argparse`` the output is compared
with what ``build_parser`` prints for the same arguments, and only the exit
status comes from the file.

The file is regenerated, for an intended change of output only, with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from lefschetz.cli import build_parser, main

GOLDEN = Path(__file__).with_name("cli_golden.json")

VERBS = ("motive", "poincare", "hodge", "k0", "check-fec", "sod-solve", "orbit-demo")

# one expression per node kind, plus the opaque summands of a Fano product
EXPRS = (
    "point",
    "P(3)",
    "Q(2)",
    "Gr(2,4)",
    "toric[1,4,4]",
    "blowup(P(2); point; 2)",
    "projbundle(Q(2); 2)",
    "M0(5)",
    "fano(1; odd_trivial=true)",
    "fano(1; false)",
    "P(1) * P(1)",
    "point + P(1)",
    "fano(1; false)*P(1)*P(2)",
)

FILES = {
    "one_unknown.json": {"pieces": [{"label": "A", "kind": "opaque"}]},
    "kuznetsov_q3.json": {
        "pieces": [
            {"label": "Cl0(Q_3)", "kind": "opaque"},
            {"label": "O(-2)", "kind": "exceptional"},
            {"label": "O(-1)", "kind": "exceptional"},
            {"label": "O", "kind": "exceptional"},
        ]
    },
    "bool_rank.json": {
        "pieces": [{"label": "Cl0", "kind": "opaque", "nc_rank": True}]
    },
    "two_unknown.json": {
        "pieces": [{"label": "A", "kind": "opaque"}, {"label": "B", "kind": "opaque"}]
    },
    "one_exceptional.json": {"pieces": [{"label": "O", "kind": "exceptional"}]},
    "empty.json": {"pieces": []},
    "bad.json": "{not json",
    "long_rank.json": '{"pieces": [{"label": "A", "kind": "opaque", "nc_rank": %s}]}'
    % ("7" * 5000),
    "deep.json": "[" * 100000 + "]" * 100000,
}
DIRS = ("a_directory",)

# (arguments, stdin); each runs in text and in --json mode
ERRORS = (
    (["sod-solve", "Q(3)", "--collection", "bool_rank.json"], None),
    (["sod-solve", "Q(3)", "--collection", "/no/file"], None),
    (["sod-solve", "Q(3)", "--collection", "bad.json"], None),
    (["sod-solve", "Q(3)", "--collection", "two_unknown.json"], None),
    (["sod-solve", "Q(3)", "--collection", "one_exceptional.json"], None),
    (["sod-solve", "Q(3)", "--collection", "empty.json"], None),
    (["sod-solve", "Q(3)", "--collection", "a_directory"], None),
    (
        [
            "sod-solve",
            "fano(1; odd_trivial=false)",
            "--collection",
            "one_exceptional.json",
        ],
        None,
    ),
    (["motive", "P("], None),
    (["motive", "Q(0)"], None),
    (["poincare", "fano(1; odd_trivial=false)"], None),
    (["k0", "fano(0; odd_trivial=false)"], None),
    (["orbit-demo", "Q(2)", "--dim", "1"], None),
    (["orbit-demo", "P(1)", "--dim", "5"], None),
    (["orbit-demo", "P(1)", "--dim", "-1"], None),
    (["motive", "-"], "P(1) * P(1)\n"),
    (["check-fec", "-"], "fano(1; odd_trivial=false)\n"),
    (["motive", "P(%s)" % ("9" * 101)], None),
    (["check-fec", "-"], "toric[1,%s]\n" % ("1" * 101)),
    (["sod-solve", "Q(3)", "--collection", "long_rank.json"], None),
    (["sod-solve", "Q(3)", "--collection", "deep.json"], None),
)

# usage errors and help, printed by argparse
ARGPARSE = (
    ["sod-solve", "Q(3)"],
    ["frobnicate", "P(1)"],
    [],
    ["--help"],
    ["orbit-demo", "P(1)", "--dim", "x"],
)


def _invocations():
    for expr in EXPRS:
        for verb in VERBS:
            argv = [verb, expr]
            if verb == "sod-solve":
                argv += ["--collection", "one_unknown.json"]
            yield argv, None
    yield ["sod-solve", "Q(3)", "--collection", "kuznetsov_q3.json"], None
    yield from ERRORS


def _setup(directory):
    for name, content in FILES.items():
        text = content if isinstance(content, str) else json.dumps(content)
        Path(directory, name).write_text(text, encoding="utf-8")
    for name in DIRS:
        Path(directory, name).mkdir()


def _capture(call, stdin=None):
    """Exit status, stdout and stderr of ``call()``, which may exit."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = call()
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _load():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]


def _case_id(case):
    text = " ".join(case["argv"]) or "(no arguments)"
    return text + (" <" + case["stdin"].strip() if case["stdin"] else "")


CASES = _load() if __name__ != "__main__" else []


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_golden(case, tmp_path, monkeypatch):
    _setup(tmp_path)
    monkeypatch.chdir(tmp_path)
    got = _capture(lambda: main(list(case["argv"])), case["stdin"])
    if case["argparse"]:
        want = _capture(lambda: build_parser().parse_args(case["argv"]))
        want = (case["exit"],) + want[1:]
    else:
        want = (case["exit"], case["stdout"], case["stderr"])
    assert got == want


def _generate():
    cases = []
    runs = [
        (argv + extra, stdin, False)
        for argv, stdin in _invocations()
        for extra in ([], ["--json"])
    ]
    runs += [(argv, None, True) for argv in ARGPARSE]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        try:
            for i, (argv, stdin, by_argparse) in enumerate(runs):
                directory = os.path.join(root, str(i))
                os.mkdir(directory)
                _setup(directory)
                os.chdir(directory)
                code, out, err = _capture(lambda: main(list(argv)), stdin)
                cases.append(
                    {
                        "argv": argv,
                        "stdin": stdin,
                        "argparse": by_argparse,
                        "exit": code,
                        "stdout": None if by_argparse else out,
                        "stderr": None if by_argparse else err,
                    }
                )
        finally:
            os.chdir(cwd)
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")
    print("wrote %d cases to %s" % (len(cases), GOLDEN))


if __name__ == "__main__":
    _generate()
