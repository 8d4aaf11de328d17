"""CLI behaviour: golden text output, exit codes, JSON schema conformance."""

import ast
import gc
import io
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from lefschetz.cli import EXIT_BROKEN_PIPE, EXIT_INTERNAL, main
from lefschetz.tate import LISTED

SCHEMA = json.loads(
    resources.files("lefschetz").joinpath("schemas/cli_output.json").read_text()
)
VALIDATOR = Draft202012Validator(SCHEMA)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    payload = json.loads(out)
    VALIDATOR.validate(payload)
    return code, payload, err


def test_schema_is_itself_valid():
    Draft202012Validator.check_schema(SCHEMA)


class TestGoldenText:
    def test_motive(self, capsys):
        assert run(capsys, "motive", "P(3)") == (0, "1 + L + L^2 + L^3\n", "")

    def test_motive_with_opaque(self, capsys):
        code, out, _ = run(capsys, "motive", "fano(1; odd_trivial=false)")
        assert code == 0
        assert out == "1 + L + L^2 + L^3 + [M^1(X)] + [M^1(J)*L] + [M^5(X)]\n"

    def test_orbit_demo(self, capsys):
        assert run(capsys, "orbit-demo", "P(1)") == (0, "{0, 1}\n", "")

    def test_orbit_demo_with_multiplicity(self, capsys):
        code, out, _ = run(capsys, "orbit-demo", "Q(2)")
        assert (code, out) == (0, "{0, 1, 1, 2}\n")

    def test_check_fec_failure(self, capsys):
        code, out, _ = run(capsys, "check-fec", "fano(1; odd_trivial=false)")
        assert (code, out) == (1, "fails-odd-vanishing\n")

    def test_check_fec_ok(self, capsys):
        code, out, _ = run(capsys, "check-fec", "P(2)")
        assert (code, out) == (0, "ok (min length 1)\n")

    def test_poincare(self, capsys):
        code, out, _ = run(capsys, "poincare", "Gr(2,4)")
        assert (code, out) == (0, "1 + t^2 + 2*t^4 + t^6 + t^8\n")

    def test_hodge(self, capsys):
        code, out, _ = run(capsys, "hodge", "Q(2)")
        assert (code, out) == (0, "h^{0,0} = 1\nh^{1,1} = 2\nh^{2,2} = 1\n")

    def test_k0(self, capsys):
        code, out, _ = run(capsys, "k0", "P(2)")
        assert (code, out) == (0, "1 + Lv + Lv^2\n")

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("P(1) * P(1)\n"))
        code, out, _ = run(capsys, "motive", "-")
        assert (code, out) == (0, "1 + 2*L + L^2\n")

    def test_stdin_long_chain(self):
        # a 10000-summand union: every stage walks the tree without recursing
        proc = subprocess.run(
            [sys.executable, "-m", "lefschetz.cli", "motive", "-"],
            input="+".join(["point"] * 10000),
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (0, "10000\n")
        assert "Traceback" not in proc.stderr


class TestSodSolve:
    def write_collection(self, tmp_path, pieces):
        path = tmp_path / "collection.json"
        path.write_text(json.dumps({"pieces": pieces}))
        return str(path)

    def kuznetsov(self, tmp_path, d):
        pieces = [{"label": "Cl0(Q_%d)" % d, "kind": "opaque"}]
        pieces += [
            {"label": "O" if k == 0 else "O(%d)" % k, "kind": "exceptional"}
            for k in range(-d + 1, 1)
        ]
        return self.write_collection(tmp_path, pieces)

    def test_solves_clifford_rank(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "sod-solve", "Q(3)", "--collection", self.kuznetsov(tmp_path, 3)
        )
        assert code == 0
        assert out == "Cl0(Q_3): n_j = 1\nO(-2): n_j = 1\nO(-1): n_j = 1\nO: n_j = 1\n"

    def test_json_mode(self, capsys, tmp_path):
        code, payload, _ = run_json(
            capsys,
            "sod-solve",
            "Q(4)",
            "--collection",
            self.kuznetsov(tmp_path, 4),
            "--json",
        )
        assert code == 0
        assert payload["total_rank"] == 6
        assert payload["pieces"][0] == {
            "label": "Cl0(Q_4)",
            "kind": "opaque",
            "nc_rank": 2,
        }

    def test_bool_rank_rejected(self, capsys, tmp_path):
        path = self.write_collection(
            tmp_path, [{"label": "Cl0", "kind": "opaque", "nc_rank": True}]
        )
        for extra in ((), ("--json",)):
            code, out, err = run(
                capsys, "sod-solve", "Q(3)", "--collection", path, *extra
            )
            assert code == 2 and out == ""
            assert err == "error: nc_rank must be a non-negative integer or None\n"

    @pytest.mark.parametrize(
        "rank, status, message",
        [
            ("7" * 100, 1, "piece ranks sum to " + "7" * 100),
            ("-" + "7" * 100, 2, "nc_rank must be"),
            ("7" * 101, 2, "integer literal too long (more than 100 digits)"),
            ("-" + "7" * 5000, 2, "integer literal too long (more than 100 digits)"),
        ],
        ids=["100-digits", "minus-100-digits", "101-digits", "minus-5000-digits"],
    )
    def test_long_rank_literal(self, capsys, tmp_path, rank, status, message):
        # JSON integers have the same digit cap as expression literals
        path = tmp_path / "collection.json"
        piece = '{"label": "A", "kind": "opaque", "nc_rank": %s}' % rank
        path.write_text('{"pieces": [%s]}' % piece)
        for extra in ((), ("--json",)):
            code, out, err = run(
                capsys, "sod-solve", "Q(3)", "--collection", str(path), *extra
            )
            assert (code, out) == (status, "")
            assert message in err and err.count("\n") == 1

    def test_deeply_nested_collection(self, capsys, tmp_path):
        # the JSON decoder recurses once per level; the overflow is an input error
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        for extra in ((), ("--json",)):
            got = run(capsys, "sod-solve", "Q(3)", "--collection", str(path), *extra)
            assert got == (2, "", "error: collection JSON is nested too deeply\n")

    @pytest.mark.parametrize(
        "text, status, message",
        [
            ('{"pieces": [{"label": "", "kind": "exceptional"}]}', 2, "piece label must be a non-empty string"),
            ('{"pieces": [{"label": "O", "kind": "spherical"}]}', 2, "piece kind must be 'exceptional' or 'opaque'"),
            ('{"pieces": [{"label": "O", "kind": "exceptional", "nc_rank": 2}]}', 2, "an exceptional piece has rank 1"),
            ('{"pieces": [{"label": "O"}]}', 2, "piece JSON needs 'label' and 'kind'"),
            ('{"pieces": {}}', 2, "collection JSON needs a 'pieces' list"),
            (
                json.dumps({"pieces": [{"label": "C", "kind": "opaque"}] + [{"label": "O", "kind": "exceptional"}] * 5}),
                1,
                "known ranks already sum to 5, more than the total rank 4",
            ),
        ],
        ids=["empty-label", "unknown-kind", "exceptional-rank-2", "no-kind", "pieces-object", "ranks-past-total"],
    )
    def test_refused_collection(self, capsys, tmp_path, text, status, message):
        # each check of a collection file, as sod-solve meets it
        path = tmp_path / "collection.json"
        path.write_text(text)
        for extra in ((), ("--json",)):
            got = run(capsys, "sod-solve", "Q(3)", "--collection", str(path), *extra)
            assert got == (status, "", "error: %s\n" % message)

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sod-solve", "Q(3)")
        assert code == 2
        assert "--collection" in err

    @pytest.mark.parametrize(
        "argv",
        [["motive", "-P(3)"], [], ["frobnicate", "P(1)"], ["sod-solve", "Q(3)"],
         ["orbit-demo", "P(1)", "--dim", "x"]],
        ids=["expression-like-an-option", "no-verb", "unknown-verb", "missing-flag", "bad-dim"],
    )
    def test_usage_error_is_one_line(self, capsys, argv):
        # argparse would print its usage text too
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "sod-solve", "Q(3)", "--collection", "/no/file")
        assert code == 2 and err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "sod-solve", "Q(3)", "--collection", str(path))
        assert code == 2 and err

    def test_underdetermined(self, capsys, tmp_path):
        path = self.write_collection(
            tmp_path,
            [{"label": "A", "kind": "opaque"}, {"label": "B", "kind": "opaque"}],
        )
        code, _, err = run(capsys, "sod-solve", "Q(3)", "--collection", path)
        assert code == 1 and "refusing to guess" in err

    def test_inconsistent(self, capsys, tmp_path):
        path = self.write_collection(
            tmp_path, [{"label": "O", "kind": "exceptional"}]
        )
        code, _, err = run(capsys, "sod-solve", "Q(3)", "--collection", path)
        assert code == 1 and err

    def test_opaque_total_rejected(self, capsys, tmp_path):
        path = self.write_collection(
            tmp_path, [{"label": "O", "kind": "exceptional"}]
        )
        code, _, err = run(
            capsys, "sod-solve", "fano(1; odd_trivial=false)", "--collection", path
        )
        assert code == 1 and "opaque" in err


class TestExitCodes:
    def test_syntax_error(self, capsys):
        code, _, err = run(capsys, "motive", "P(")
        assert code == 2 and "syntax error" in err

    def test_long_integer_literal(self, capsys):
        # no interpreter int-to-string limit message leaks out
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, "motive", "P(%s)" % ("9" * 5000), *extra)
            assert (code, out) == (2, "")
            assert err == (
                "error: syntax error at byte 2: "
                "integer literal too long (more than 100 digits)\n"
            )

    def test_stdin_nested_3000(self):
        # past the recursion limit that bounded the recursive parser, which
        # made this an input error; the parser holds no frame per level now
        proc = subprocess.run(
            [sys.executable, "-m", "lefschetz.cli", "motive", "-"],
            input="(" * 3000 + "point" + ")" * 3000,
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("fano(1; odd_trivial x)", "syntax error at byte 20: expected '=', got 'x'"),
            ("fano(1; 3)", "syntax error at byte 8: expected 'odd_trivial' or a boolean, got '3'"),
            ("fano(1; x)", "syntax error at byte 8: expected 'true' or 'false', got 'x'"),
            ("P(1) + )", "syntax error at byte 7: expected an expression, got ')'"),
            ("blowup(P(2); P(2); 0)", "semantic error at $: blowup center must have codimension >= 2"),
            # argparse leaves it over as an unknown option, and it is read as
            # the expression, since no other was given
            ("-P(3)", "syntax error at byte 0: unexpected character '-'"),
        ],
        ids=["no-equals", "int-for-flag", "name-for-flag", "no-operand", "blowup-codim-0", "leading-minus"],
    )
    def test_refused_expression(self, capsys, text, message):
        # parser and constructor checks that crafted text reaches
        for extra in ((), ("--json",)):
            assert run(capsys, "motive", text, *extra) == (2, "", "error: %s\n" % message)

    def test_semantic_error(self, capsys):
        code, _, err = run(capsys, "motive", "Q(0)")
        assert code == 2 and "semantic error" in err

    def test_domain_failure_poincare_on_opaque(self, capsys):
        code, _, err = run(capsys, "poincare", "fano(1; odd_trivial=false)")
        assert code == 1 and "opaque" in err

    @pytest.mark.parametrize("verb", ["poincare", "hodge", "orbit-demo"])
    @pytest.mark.parametrize("extra", [(), ("--json",)], ids=["text", "json"])
    def test_opaque_parts_listed_up_to_the_cap(self, capsys, verb, extra):
        # 3000 opaque parts: the message names the first LISTED, then the rest's count
        code, out, err = run(capsys, verb, "fano(1; false)*P(999)", *extra)
        assert (code, out) == (1, "")
        prefix = "error: motive of fano(1; odd_trivial=false) * P(999) has opaque summands: "
        assert err.startswith(prefix) and err.count("\n") == 1 and len(err) < 1000
        parts = err[len(prefix):-1].split(", ")
        assert parts[:2] == ["[M^1(X)]", "[M^1(X)*L]"]
        assert parts[LISTED - 1] == "[M^1(X)*L^%d]" % (LISTED - 1)
        assert parts[LISTED:] == ["and %d more" % (3000 - LISTED)]

    @pytest.mark.parametrize(
        "argv, code, prefix",
        [
            (["poincare", "P(1) + " * 2999 + "fano(1; false)"], 1, "error: motive of P(1) + P(1) + "),
            (["motive", "point + (" * 3000 + "Gr(3,2)" + ")" * 3000], 2, "error: semantic error at $.right.right."),
            (["motive", "P(1) " + "x" * 3000], 2, "error: syntax error at byte 5: unexpected trailing input 'xxx"),
            (["motive", "a" * 3000], 2, "error: syntax error at byte 0: unknown constructor 'aaa"),
            (["motive", "P(1)", "y" * 3000], 2, "error: unrecognized arguments: yyy"),
            (["orbit-demo", "P(1)", "--dim", "z" * 3000], 2, "error: argument --dim: invalid integer value: 'zzz"),
            (["motive", "toric[1,%s]" % ",".join(["1"] * 250)], 2, "error: cone counts (1, 1, 1,"),
        ],
        ids=["chain-3000", "path-3000", "trailing-token-3000", "name-3000", "leftover-3000", "dim-3000", "toric-250"],
    )
    @pytest.mark.parametrize("extra", [(), ("--json",)], ids=["text", "json"])
    def test_long_echoes_are_elided(self, capsys, argv, code, prefix, extra):
        # the expression, node path, token or argument keeps its head and
        # its tail, and the line counts the characters it left out
        got, out, err = run(capsys, *argv, *extra)
        assert (got, out) == (code, "")
        assert err.startswith(prefix) and err.count("\n") == 1 and len(err) < 1000
        assert re.search(r"[^.] \.\.\. \(\d+ characters elided\) \.\.\. [^.]", err)

    def test_domain_failure_k0_on_opaque(self, capsys):
        code, _, err = run(capsys, "k0", "fano(0; odd_trivial=false)")
        assert code == 1

    def test_orbit_demo_dim_too_small(self, capsys):
        code, _, err = run(capsys, "orbit-demo", "Q(2)", "--dim", "1")
        assert code == 1 and "support" in err

    def test_orbit_demo_dim_override_ok(self, capsys):
        code, out, _ = run(capsys, "orbit-demo", "P(1)", "--dim", "5")
        assert (code, out) == (0, "{0, 1}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["motive"], "the following arguments are required: expr"),
            (["motive", "--json"], "the following arguments are required: expr"),
            (["motive", "--jsn", "P(1)"], "unrecognized arguments: --jsn"),
            (["motive", "P(1)", "extra"], "unrecognized arguments: extra"),
            (["motive", "P(1)", "-P(3)"], "unrecognized arguments: -P(3)"),
            # a leftover that starts with "--" is a mistyped option, never the expression
            (["motive", "--jsn"], "the following arguments are required: expr"),
            (["motive", "--jsn", "--json"], "the following arguments are required: expr"),
        ],
        ids=[
            "no-expression", "json-no-expression", "unknown-option", "extra-argument",
            "second-expression", "unknown-option-no-expression", "unknown-option-no-expression-json",
        ],
    )
    def test_usage_error_message(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", "error: %s\n" % message)

    def test_unknown_verb(self, capsys):
        assert run(capsys, "frobnicate", "P(1)")[0] == 2

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


class TestDimArgument:
    """``--dim`` reads an integer as the JSON decoders do: ASCII ``-?[0-9]+``,
    at most 100 digits; any other text is a usage error."""

    @pytest.mark.parametrize(
        "text",
        ["\u0661", "1_0", " 2 ", "2 ", "+3", "1.0", "", "-", "x", "1" * 101, "-" + "1" * 101],
        ids=["arabic-indic-one", "underscore", "spaces", "trailing-space", "plus",
             "decimal", "empty", "minus", "letter", "101-digits", "minus-101-digits"],
    )
    def test_refused(self, capsys, text):
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, "orbit-demo", "P(1)", "--dim", text, *extra)
            assert (code, out) == (2, "")
            assert "argument --dim: invalid integer value" in err

    @pytest.mark.parametrize(
        "text, status, out, err",
        [
            ("5", 0, "{0, 1}\n", ""),
            ("9" * 100, 0, "{0, 1}\n", ""),
            ("0", 1, "", "error: support outside the dimension window "
             "[-0..0]/[0..0]: f at [-1], g at [1]\n"),
            ("-1", 2, "", "error: dim must be a non-negative integer\n"),
            ("-" + "9" * 100, 2, "", "error: dim must be a non-negative integer\n"),
        ],
        ids=["5", "100-digits", "0", "minus-1", "minus-100-digits"],
    )
    def test_accepted(self, capsys, text, status, out, err):
        assert run(capsys, "orbit-demo", "P(1)", "--dim", text) == (status, out, err)


class TestJsonMode:
    def test_motive(self, capsys):
        code, payload, _ = run_json(capsys, "motive", "fano(1; odd_trivial=false)", "--json")
        assert code == 0
        assert payload["verb"] == "motive"
        assert payload["expr"] == "fano(1; odd_trivial=false)"
        assert payload["terms"] == {"0": 1, "1": 1, "2": 1, "3": 1}
        assert [p["name"] for p in payload["opaque"]] == ["M^1(X)", "M^1(J)", "M^5(X)"]

    def test_poincare(self, capsys):
        code, payload, _ = run_json(capsys, "poincare", "P(2)", "--json")
        assert code == 0
        assert payload["coefficients"] == {"0": 1, "2": 1, "4": 1}

    def test_hodge(self, capsys):
        code, payload, _ = run_json(capsys, "hodge", "Q(2)", "--json")
        assert code == 0
        assert payload["hodge_numbers"] == {"0,0": 1, "1,1": 2, "2,2": 1}
        assert payload["hodge_tate"] is True

    def test_k0(self, capsys):
        code, payload, _ = run_json(capsys, "k0", "Gr(2,4)", "--json")
        assert code == 0
        assert payload["terms"] == {"0": 1, "1": 1, "2": 2, "3": 1, "4": 1}

    def test_check_fec_ok(self, capsys):
        code, payload, _ = run_json(capsys, "check-fec", "Q(2)", "--json")
        assert code == 0
        assert payload["verdict"] == "ok"
        assert payload["min_length"] == 2
        assert payload["bound"] == 4

    def test_check_fec_failure_still_emits_json(self, capsys):
        code, payload, _ = run_json(
            capsys, "check-fec", "fano(2; odd_trivial=false)", "--json"
        )
        assert code == 1
        assert payload["verdict"] == "fails-odd-vanishing"
        assert payload["min_length"] is None

    def test_orbit_demo(self, capsys):
        code, payload, _ = run_json(capsys, "orbit-demo", "Q(2)", "--json")
        assert code == 0
        assert payload == {
            "verb": "orbit-demo",
            "expr": "Q(2)",
            "dim": 2,
            "exponents": [0, 1, 1, 2],
        }


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lefschetz.cli", "motive", "P(3)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 + L + L^2 + L^3\n"


# Run the module as ``python -m`` does, and report the exit status and
# whether the heap was frozen by the time the process would exit.
MAIN_PROBE = """
import gc
import runpy
import sys

sys.argv = ["lefschetz", *sys.argv[1:]]
try:
    runpy.run_module("lefschetz.cli", run_name="__main__")
except SystemExit as exc:
    print(exc.code, gc.get_freeze_count() > 0)
"""


class TestProcessEntry:
    @pytest.mark.parametrize(
        "expr, status, out, err",
        [
            ("P(1)", 0, "1 + L\n", ""),
            ("P(1))", 2, "", "error: syntax error at byte 4: unexpected trailing input ')'\n"),
        ],
        ids=["ok", "syntax-error"],
    )
    def test_module_run_freezes_after_main(self, expr, status, out, err):
        proc = subprocess.run(
            [sys.executable, "-c", MAIN_PROBE, "motive", expr], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out + "%d True\n" % status, err)

    def test_main_never_freezes(self, capsys):
        # the in-process API: pytest and the benchmark's traced run call it
        # in a process that goes on collecting
        before = gc.get_freeze_count()
        assert run(capsys, "motive", "P(1)") == (0, "1 + L\n", "")
        assert gc.get_freeze_count() == before

    def test_console_script_is_the_module_entry(self):
        root = Path(__file__).resolve().parent.parent
        (target,) = re.findall(
            r'^lefschetz = "lefschetz\.cli:(\w+)"$',
            (root / "pyproject.toml").read_text(encoding="utf-8"),
            re.M,
        )
        tree = ast.parse((root / "src" / "lefschetz" / "cli.py").read_text(encoding="utf-8"))
        (block,) = [
            node for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        assert [ast.unparse(node) for node in block.body] == ["sys.exit(%s())" % target]


# Run in a child without ``site``: the modules each import pulls in, and
# whether every layer module is loaded, as the benchmark's tracer needs.
IMPORT_PROBE = """
import sys
import lefschetz.cli

status = lefschetz.cli.main(sys.argv[1:])
layers = ("tate", "orbit", "sod", "varieties", "measures", "exprlang")
print(repr((
    status,
    sorted({"dataclasses", "inspect", "typing", "fractions", "decimal", "json"} & set(sys.modules)),
    [name for name in layers if "lefschetz." + name not in sys.modules],
)))
"""


@pytest.mark.parametrize(
    "extra, loaded", [((), []), (("--json",), ["json"])], ids=["text", "json"]
)
def test_import_contract(extra, loaded):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE, "motive", "P(3)", *extra],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.stderr == ""
    *out, probe = proc.stdout.splitlines()
    assert out
    # status 0, no heavy module but json under --json, no layer module missing
    assert ast.literal_eval(probe) == (0, loaded, [])


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "expr, extra, read",
    [
        # more output than a pipe holds, so writing goes on after the reader left
        ("P(50000)", [], 10),
        ("P(50000)", ["--json"], 10),
        # the reader is gone before the first byte
        ("P(3)", [], 0),
    ],
)
def test_closed_stdout_pipe_exits_quietly(expr, extra, read, buffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, *([] if buffered else ["-u"]), "-m", "lefschetz.cli"]
        + ["hodge", "-", *extra],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    if not read:
        proc.stdout.close()
    proc.stdin.write(expr.encode())
    proc.stdin.close()
    if read:
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE == 141
    assert err == b""


class TestExitStatusRule:
    DOMAIN = (
        "NonEffectiveError",
        "CompositionError",
        "LiftError",
        "InconsistentRanksError",
        "UnderdeterminedError",
        "OpaqueMotiveError",
        "CollectionUnavailableError",
        "VirtualClassError",
    )

    def test_domain_errors_share_one_base(self):
        import lefschetz

        for name in self.DOMAIN:
            cls = getattr(lefschetz, name)
            assert issubclass(cls, lefschetz.DomainError)
            assert issubclass(cls, ValueError)
            assert not issubclass(cls, lefschetz.InputError)
        for name in ("ParseError", "SemanticError", "InvalidParameterError"):
            assert not issubclass(getattr(lefschetz, name), lefschetz.DomainError)
            assert issubclass(getattr(lefschetz, name), lefschetz.InputError)
        assert issubclass(lefschetz.InputError, ValueError)
        assert not issubclass(lefschetz.InputError, lefschetz.DomainError)

    def test_plain_value_error_exits_internal(self, capsys, monkeypatch):
        # only the type decides: a ValueError that is no InputError is a bug
        import lefschetz.cli

        def fail(e):
            raise ValueError("a library bug")

        monkeypatch.setattr(lefschetz.cli, "motive_of", fail)
        for extra in ((), ("--json",)):
            got = run(capsys, "motive", "P(1)", *extra)
            assert got == (EXIT_INTERNAL, "", "error: internal error: ValueError: a library bug\n")

    def test_any_input_error_exits_2(self, capsys, monkeypatch):
        import lefschetz.cli
        from lefschetz import InputError

        def fail(e):
            raise InputError("a new input check", offset=3, path="$.left")

        monkeypatch.setattr(lefschetz.cli, "motive_of", fail)
        for extra in ((), ("--json",)):
            got = run(capsys, "motive", "P(1)", *extra)
            assert got == (2, "", "error: a new input check\n")

    def test_closed_stdin(self, capsys, monkeypatch):
        # the interpreter sets sys.stdin to None when descriptor 0 is closed
        monkeypatch.setattr(sys, "stdin", None)
        for extra in ((), ("--json",)):
            got = run(capsys, "motive", "-", *extra)
            assert got == (2, "", "error: stdin is closed, so there is no expression to read\n")
        # an expression on the command line needs no stdin
        assert run(capsys, "motive", "P(1)") == (0, "1 + L\n", "")

    def test_undecodable_stdin(self, capsys, monkeypatch):
        for extra in ((), ("--json",)):
            stdin = io.TextIOWrapper(io.BytesIO(b"P(\xff)"), encoding="utf-8", errors="strict")
            monkeypatch.setattr(sys, "stdin", stdin)
            code, out, err = run(capsys, "motive", "-", *extra)
            assert (code, out) == (2, "")
            assert err.startswith("error: 'utf-8' codec can't decode byte 0xff") and err.count("\n") == 1

    def test_closed_stdin_in_a_process(self):
        # as ``lefschetz motive - <&-`` starts it: descriptor 0 closed
        proc = subprocess.run(
            [sys.executable, "-m", "lefschetz.cli", "motive", "-"],
            capture_output=True,
            text=True,
            preexec_fn=lambda: os.close(0),
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: stdin is closed, so there is no expression to read\n"

    def test_any_domain_error_exits_1(self, capsys, monkeypatch):
        import lefschetz.cli
        from lefschetz import DomainError

        class NewVerdict(DomainError):
            pass

        def fail(e):
            raise NewVerdict("a new verdict")

        monkeypatch.setattr(lefschetz.cli, "motive_of", fail)
        for extra in ((), ("--json",)):
            got = run(capsys, "motive", "P(1)", *extra)
            assert got == (1, "", "error: a new verdict\n")

    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError(), "error: internal error: MemoryError\n"),
            (RuntimeError("it broke\n  here"), "error: internal error: RuntimeError: it broke here\n"),
        ],
        ids=["memory", "runtime"],
    )
    def test_any_other_exception_exits_internal(self, capsys, monkeypatch, exc, line):
        import lefschetz.cli

        def fail(e):
            raise exc

        monkeypatch.setattr(lefschetz.cli, "motive_of", fail)
        assert EXIT_INTERNAL not in (0, 1, 2, EXIT_BROKEN_PIPE)
        for extra in ((), ("--json",)):
            got = run(capsys, "motive", "P(1)", *extra)
            assert got == (EXIT_INTERNAL, "", line)
