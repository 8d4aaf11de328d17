"""The ``cli`` workload: cold, one-shot ``python -m lefschetz.cli`` processes.

Each operation is one subprocess, run one at a time, so interpreter start-up
and import are paid every time and no in-process cache survives.  Every block
of ``BLOCK`` invocations covers all seven verbs in text and ``--json`` mode,
reading from stdin once, with exit-1 verdicts, exit-2 input errors, a
``sod-solve`` collection file written during setup, and ``orbit-demo`` on
canonical integer isomorphisms of ranks 2 to 8.  The nine heaviest
invocations of each block are fixed (``orbit-demo`` of P(5) eight times and
Q(6) once, under a third of the block) so that the 90th percentile falls
inside the P(5) group for every seed rather than on the edge of a group, and
rests on some 40 P(5) samples in a 30 s run.
P(5) rather than P(6): a heavier group is dominated by computation, whose
speed the start-up probe of ``speed.py`` tracks less well; with P(6) the
90th percentile spread over ten seeds by up to 0.11 of its median.

Expected stdout is golden text built from the oracles in ``oracle.py``;
``--json`` output is compared as parsed JSON and validated against the
package schema in ``check``, outside the operation's time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
SUBPROCESS = True  # each operation is a child process
SUBPROCESS_TIMEOUT_S = 60
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))

LIGHT = (
    ("P", 0), ("P", 1), ("P", 2), ("P", 4), ("Q", 1), ("Q", 2), ("Q", 3), ("Q", 4),
    ("Gr", 2, 4), ("Gr", 2, 5), ("Gr", 3, 6), ("toric", (1, 4, 4)), ("toric", (1, 3, 3)),
    ("M0", 4), ("M0", 5), ("fano", 0, True), ("fano", 2, True),
    ("+", ("P", 1), ("Q", 2)), ("*", ("P", 1), ("P", 2)),
    ("blowup", ("P", 3), ("P", 1), 2), ("projbundle", ("P", 2), 2),
)
ORBIT_LIGHT = (("P", 1), ("P", 2), ("P", 3), ("Q", 1), ("Q", 2), ("Gr", 2, 4))
ORBIT_HEAVY = (("P", 5),) * 8 + (("Q", 6),)
SLOTS = (
    "motive", "motive_json", "motive_stdin", "motive_opaque",
    "poincare", "poincare_json", "hodge", "hodge_json", "k0", "k0_json",
    "check_fec", "check_fec_json", "check_fec_odd",
    "sod_solve", "sod_solve_json", "sod_inconsistent",
    "orbit", "orbit_small_dim", "syntax", "semantic", "k0_opaque",
) + ("orbit_heavy",) * len(ORBIT_HEAVY)
BLOCK = len(SLOTS)


def _facts(node):
    count, parts = oracle.motive(node)
    terms = oracle.digits(count)
    return terms, parts, oracle.render(node)


def _kz_file(work, d):
    return str(work / ("kuznetsov_q%d.json" % d))


def _over_file(work, n):
    return str(work / ("overfull_p%d.json" % n))


def write_collections(work) -> None:
    """Collection files read by ``sod-solve``."""
    work.mkdir(parents=True, exist_ok=True)
    for d in range(1, 7):
        pieces = [{"label": "Cl0(Q_%d)" % d, "kind": "opaque"}]
        pieces += [{"label": "O" if k == 0 else "O(%d)" % k, "kind": "exceptional"} for k in range(-d + 1, 1)]
        with open(_kz_file(work, d), "w", encoding="utf-8") as fh:
            json.dump({"pieces": pieces}, fh)
    for n in range(0, 5):
        pieces = [{"label": "E%d" % i, "kind": "exceptional"} for i in range(n + 3)]
        with open(_over_file(work, n), "w", encoding="utf-8") as fh:
            json.dump({"pieces": pieces}, fh)


def _motive_json(node):
    terms, parts, canon = _facts(node)
    ordered = [(name, t) for name, t in oracle.FANO_PARTS if (name, t) in parts]
    text = [] if not terms else [oracle.term_text(terms, "L")]
    text += [oracle.opaque_text(name, t) for name, t in ordered]
    return {
        "verb": "motive",
        "expr": canon,
        "terms": {str(l): c for l, c in sorted(terms.items())},
        "opaque": [{"name": name, "odd": True, "twist": t} for name, t in ordered],
        "text": " + ".join(text) if text else "0",
    }


def _fec(node):
    terms, parts, canon = _facts(node)
    if parts:
        return {"verb": "check-fec", "expr": canon, "verdict": "fails-odd-vanishing",
                "min_length": None, "bound": None, "odd_degrees": []}
    known = oracle.collection(node) is not None
    return {"verb": "check-fec", "expr": canon, "verdict": "ok",
            "min_length": max(terms.values()),
            "bound": sum(terms.values()) if known else None, "odd_degrees": []}


def _sod(node, d):
    terms, _, canon = _facts(node)
    rank = sum(terms.values())
    pieces = [{"label": "Cl0(Q_%d)" % d, "kind": "opaque", "nc_rank": rank - d}]
    pieces += [{"label": "O" if k == 0 else "O(%d)" % k, "kind": "exceptional", "nc_rank": 1}
               for k in range(-d + 1, 1)]
    return {"verb": "sod-solve", "expr": canon, "total_rank": rank, "pieces": pieces}


def _orbit(node):
    terms, _, canon = _facts(node)
    exps = [l for l in sorted(terms) for _ in range(terms[l])]
    return {"verb": "orbit-demo", "expr": canon, "dim": oracle.dimension(node), "exponents": exps}


def _text_of(doc) -> str:
    """The golden text-mode stdout for a verb, from its expected JSON document."""
    verb = doc["verb"]
    if verb in ("motive", "poincare", "k0"):
        return doc["text"] + "\n"
    if verb == "hodge":
        return "".join("h^{%s,%s} = %d\n" % (*k.split(","), c) for k, c in doc["hodge_numbers"].items())
    if verb == "check-fec":
        if doc["verdict"] == "ok":
            return "ok (min length %d)\n" % doc["min_length"]
        return doc["verdict"] + "\n"
    if verb == "sod-solve":
        return "".join("%s: n_j = %d\n" % (p["label"], p["nc_rank"]) for p in doc["pieces"])
    return "{%s}\n" % ", ".join(map(str, doc["exponents"]))


def _doc(verb, node):
    terms, _, canon = _facts(node)
    if verb == "poincare":
        return {"verb": "poincare", "expr": canon,
                "coefficients": {str(2 * l): c for l, c in sorted(terms.items())},
                "text": oracle.term_text(terms, "t", scale=2)}
    if verb == "hodge":
        return {"verb": "hodge", "expr": canon,
                "hodge_numbers": {"%d,%d" % (l, l): c for l, c in sorted(terms.items())},
                "hodge_tate": True}
    if verb == "k0":
        return {"verb": "k0", "expr": canon,
                "terms": {str(l): c for l, c in sorted(terms.items())},
                "text": oracle.term_text(terms, "Lv")}
    if verb == "motive":
        return _motive_json(node)
    if verb == "check-fec":
        return _fec(node)
    return _orbit(node)


def _call(verb, node, rng, json_mode, extra=(), stdin=False, doc=None):
    """(argv, stdin text, exit code, expected stdout or JSON, stderr prefix)."""
    text = oracle.noisy(node, rng)
    argv = [verb, "-" if stdin else text, *extra]
    doc = doc or _doc(verb, node)
    if json_mode:
        argv.append("--json")
    return argv, text if stdin else None, 0, doc if json_mode else _text_of(doc), ""


def _fail(argv, code, prefix):
    return argv, None, code, "", prefix


def schedule(seed: int):
    """Write the collection files, then return the endless invocation stream.

    The stream is generated one block of ``BLOCK`` calls at a time as it is
    read, so no invocation is replayed however long a run lasts.
    """
    write_collections(WORK)
    return _blocks(random.Random(seed), WORK)


def _blocks(rng, work):
    pure = [n for n in LIGHT if n[0] != "fano" or n[2]]
    while True:
        heavy = list(ORBIT_HEAVY)
        block = []
        for slot in SLOTS:
            node = rng.choice(pure)
            if slot.startswith("motive"):
                if slot == "motive_opaque":
                    node = ("fano", rng.randint(0, 4), False)
                block.append(_call("motive", node, rng, slot == "motive_json", stdin=slot == "motive_stdin"))
            elif slot.split("_")[0] in ("poincare", "hodge", "k0") and slot != "k0_opaque":
                block.append(_call(slot.split("_")[0], node, rng, slot.endswith("_json")))
            elif slot in ("check_fec", "check_fec_json"):
                block.append(_call("check-fec", node, rng, slot.endswith("_json")))
            elif slot == "check_fec_odd":
                node = ("fano", rng.randint(0, 4), False)
                argv, stdin, _, out, err = _call("check-fec", node, rng, rng.random() < 0.5)
                block.append((argv, stdin, 1, out, err))
            elif slot in ("sod_solve", "sod_solve_json"):
                node = ("Q", rng.randint(1, 6))
                block.append(_call("sod-solve", node, rng, slot.endswith("_json"),
                                   ("--collection", _kz_file(work, node[1])), doc=_sod(node, node[1])))
            elif slot == "sod_inconsistent":
                n = rng.randint(0, 4)
                block.append(_fail(["sod-solve", "P(%d)" % n, "--collection", _over_file(work, n)], 1,
                                   "error: piece ranks sum to %d but the total motive has rank %d" % (n + 3, n + 1)))
            elif slot == "orbit":
                block.append(_call("orbit-demo", rng.choice(ORBIT_LIGHT), rng, rng.random() < 0.5))
            elif slot == "orbit_heavy":
                block.append(_call("orbit-demo", heavy.pop(), rng, rng.random() < 0.5))
            elif slot == "orbit_small_dim":
                n = rng.randint(2, 4)
                block.append(_fail(["orbit-demo", "P(%d)" % n, "--dim", str(n - 1)], 1,
                                   "error: support outside the dimension window"))
            elif slot == "syntax":
                text = oracle.noisy(node, rng)
                verb = rng.choice(("motive", "poincare", "hodge", "k0", "check-fec", "orbit-demo"))
                block.append(_fail([verb, text + ")"], 2, "error: syntax error at byte %d: " % len(text)))
            elif slot == "semantic":
                bad = rng.choice((("Q", 0), ("Gr", 3, 3), ("M0", 6)))
                tree = ("+", node, bad)
                verb = rng.choice(("motive", "poincare", "k0"))
                block.append(_fail([verb, oracle.render(tree)], 2, "error: semantic error at $.right: "))
            else:  # k0_opaque
                node = ("fano", rng.randint(0, 4), False)
                verb = rng.choice(("k0", "poincare", "hodge"))
                block.append(_fail([verb, oracle.render(node), *(["--json"] if rng.random() < 0.5 else [])], 1,
                                   "error: "))
        rng.shuffle(block)
        yield from block


def warmup():
    """Fixed invocations, the same for every seed; their output is not checked."""
    argvs = (["motive", "P(1)"], ["orbit-demo", "P(2)", "--json"], ["hodge", "Q(2)"], ["check-fec", "fano(1; false)"])
    return [(argv, None, None, None, None) for argv in argvs]


_ERROR_KINDS = {
    "error: syntax error": "ParseError",
    "error: semantic error": "SemanticError",
    "error: support outside": "SupportViolationError",
}


def error_kind(item):
    """Exception class behind an expected error exit, where the prefix names it."""
    prefix = item[4]
    return next((k for p, k in _ERROR_KINDS.items() if prefix.startswith(p)), "error" if prefix else None)


def corrupt(item):
    """A deliberately wrong expectation, for the benchmark's self-check."""
    argv, stdin, code, out, prefix = item
    return argv, stdin, code + 1, out, prefix


def run_op(lx, item):
    """One ``python -m lefschetz.cli`` process; returns (code, stdout, stderr).

    ``lx`` is unused: the child imports ``lefschetz`` from ``src`` itself.
    """
    argv, stdin = item[0], item[1]
    proc = subprocess.run(
        [sys.executable, "-m", "lefschetz.cli", *argv],
        input=stdin,
        stdin=None if stdin is not None else subprocess.DEVNULL,
        capture_output=True,
        text=True,
        env=ENV,
        cwd=ROOT,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_traced(lx, item):
    """The same invocation as a ``lefschetz.cli.main`` call in this process."""
    argv, stdin, *_ = item
    out, err = io.StringIO(), io.StringIO()
    old_stdin = None
    if stdin is not None:
        old_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lx.cli.main(list(argv))
    finally:
        if old_stdin is not None:
            sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


_validator = None


def _schema_valid(doc) -> bool:
    """Whether a ``--json`` document validates against the package schema."""
    global _validator
    if _validator is None:
        import jsonschema

        with open(SRC / "lefschetz" / "schemas" / "cli_output.json", encoding="utf-8") as fh:
            _validator = jsonschema.Draft202012Validator(json.load(fh))
    return _validator.is_valid(doc)


def check(item, out, exc) -> bool:
    """Whether one invocation's exit code, stdout and stderr match the golden ones."""
    if exc is not None:
        return False
    code, stdout, stderr = out
    _, _, want_code, want_out, prefix = item
    if code != want_code or not stderr.startswith(prefix):
        return False
    if prefix:
        return stdout == "" and stderr.count("\n") == 1
    if isinstance(want_out, dict):
        try:
            doc = json.loads(stdout)
        except ValueError:
            return False
        return doc == want_out and _schema_valid(doc)
    return stdout == want_out and stderr == ""
