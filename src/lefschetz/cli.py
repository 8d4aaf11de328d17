"""Command line front end.

Every verb takes one catalog expression (or ``-`` to read it from stdin) and
prints a deterministic text form; ``--json`` switches to a JSON document that
validates against ``schemas/cli_output.json``.  Each verb is one function
from the parsed expression and the arguments to ``(out, status)``: with
``--json``, ``out`` is the dict of the verb's JSON fields, and otherwise the
text to print.  A verb builds only the form that ``args.json`` asks for,
never the other to drop it.  ``run`` loads the expression and prints
``out``, or the JSON document that wraps it, in one ``print``.  ``main``
maps an exception to an exit status by its type alone:

* 0 on success;
* 1 for a ``DomainError``: the computation ran but the domain verdict is
  negative (an obstruction fired, ranks cannot be reconciled, opaque
  summands block the request);
* 2 for a usage error that argparse finds (no verb or an unknown one, a
  missing argument, an unknown option next to an expression, a bad
  ``--dim``), an ``InputError`` (syntax, out-of-range parameters, malformed
  collection JSON, a closed stdin), an ``OSError`` (a file that cannot be
  read) or a ``UnicodeError`` (stdin or a file that is not UTF-8);
* ``EXIT_BROKEN_PIPE`` (141, 128 + SIGPIPE, as a shell reports a process
  killed by the signal), with nothing on stderr, when the reader of stdout
  closes it early;
* ``EXIT_INTERNAL`` (70, ``EX_SOFTWARE`` of sysexits.h) for anything else,
  a plain ``ValueError`` and ``MemoryError`` included.

Every status but 0 and 141 comes with one ``error:`` line on stderr.  A
refusal for opaque summands names the first ``tate.LISTED`` of them and
counts the rest (``tate.listing``), and echoes the expression through
``tate.elided``, so its line stays short whatever the number of parts and
the length of the expression.
A text that starts with ``-`` (other than ``-`` itself) reads to argparse
as an option; where no expression was read, a first leftover that starts
with a single ``-`` is the expression, so ``motive "-P(3)"`` is a syntax
error at byte 0, while ``motive --jsn`` still lacks its expression.

``process_main`` is the process entry: the ``lefschetz`` console script
and ``python -m lefschetz.cli`` both call it.  It runs ``main``, then
``gc.freeze()`` moves every object to the collector's permanent
generation, so the collections that the interpreter runs over the whole
heap while it shuts down find nothing to traverse; in a process about to
exit they free nothing worth the few milliseconds they take.  The exit
flush of stdout and stderr, ``atexit`` handlers and the freeing of objects
by their reference counts still run.  ``main`` itself never freezes: it is
the in-process API, and a long-lived caller (a test run, the benchmark's
traced run, a library) keeps collecting.

``json`` is imported by the two paths that use it, ``--json`` output and
``sod-solve``, so a text-mode run does not pay for it.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .exprlang import parse_expr, render_expr
from .measures import HodgeDelignePoly, hodge_numbers, hodge_tate, k0_class
from .orbit import block_unit_iso, decompose_via_orbit
from .sod import Collection, solve_nc_ranks
from .tate import DomainError, InputError, elided, integer, listing, poincare
from .varieties import OpaqueMotiveError, dimension_of, fec_verdict, motive_of

EXIT_BROKEN_PIPE = 141
EXIT_INTERNAL = 70


def _pure_tate(e):
    gm = motive_of(e)
    if gm.opaque:
        raise OpaqueMotiveError(
            "motive of %s has opaque summands: %s"
            % (elided(render_expr(e)), listing((p.text() for p in gm.opaque), len(gm.opaque)))
        )
    return gm.tate


def cmd_motive(e, args):
    gm = motive_of(e)
    if not args.json:
        return gm.text(), 0
    opaque = [p.to_json() for p in gm.opaque]
    return {"terms": gm.tate.to_json()["terms"], "opaque": opaque, "text": gm.text()}, 0


def cmd_poincare(e, args):
    p = poincare(_pure_tate(e))
    return ({"coefficients": p.to_json()["terms"], "text": p.text()} if args.json else p.text()), 0


def cmd_hodge(e, args):
    table = hodge_numbers(_pure_tate(e))
    if not args.json:
        return "\n".join("h^{%d,%d} = %d" % (p, q, c) for (p, q), c in table.items()), 0
    # the table is (l, l) keys ascending, the polynomial's own term order
    poly = HodgeDelignePoly._trusted(table)
    return {"hodge_numbers": poly.to_json()["terms"], "hodge_tate": hodge_tate(poly)}, 0


def cmd_k0(e, args):
    c = k0_class(e)
    return ({"terms": c.to_json()["terms"], "text": c.text()} if args.json else c.text()), 0


def cmd_check_fec(e, args):
    v = fec_verdict(e)
    status = 0 if v.ok else 1
    if args.json:
        return {
            "verdict": v.status,
            "min_length": v.min_length,
            "bound": v.bound,
            "odd_degrees": list(v.odd_degrees),
        }, status
    # the bound is the Tate rank, which is the catalog collection's length
    # by the paper's first theorem, so no collection is built; no Betti
    # number exceeds it, so a failing verdict is printed as its status
    return ("ok (min length %d)" % v.min_length if v.ok else v.status), status


def cmd_sod_solve(e, args):
    import json

    with open(args.collection, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_int=integer)
        except RecursionError:
            # the decoder recurses once per nesting level
            raise InputError("collection JSON is nested too deeply") from None
        except ValueError as exc:
            # malformed JSON, or text that is not UTF-8: the file is at fault
            raise InputError(str(exc)) from exc
    collection = Collection.from_json(data)
    total = _pure_tate(e)
    solved = solve_nc_ranks(collection, total)
    if args.json:
        return {"total_rank": total.rank, "pieces": solved.to_json()["pieces"]}, 0
    return "\n".join("%s: n_j = %d" % (p.label, p.nc_rank) for p in solved.pieces), 0


def cmd_orbit_demo(e, args):
    m = _pure_tate(e)
    dim = args.dim if args.dim is not None else dimension_of(e)
    f, g = block_unit_iso(m)
    exponents = decompose_via_orbit(m, f, g, dim)
    if args.json:
        return {"dim": dim, "exponents": list(exponents)}, 0
    return "{%s}" % ", ".join(str(l) for l in exponents), 0


def run(verb, args) -> int:
    """Load the expression, run ``verb`` on it, print its output or the JSON document."""
    if args.expr == "-" and sys.stdin is None:
        # the interpreter found descriptor 0 closed at start-up
        raise InputError("stdin is closed, so there is no expression to read")
    e = parse_expr(sys.stdin.read() if args.expr == "-" else args.expr)
    out, status = verb(e, args)
    if args.json:
        import json

        out = json.dumps({"verb": args.verb, "expr": render_expr(e), **out}, indent=2)
    print(out)
    return status


class _Parser(argparse.ArgumentParser):
    """Prints a usage error as one ``error:`` line, without the usage text.

    argparse echoes a refused value or leftover whole, so the line goes
    through ``tate.elided``.
    """

    def error(self, message):
        self.exit(2, "error: %s\n" % elided(message))


def build_parser() -> argparse.ArgumentParser:
    # subparsers are made with the class of their parent
    parser = _Parser(
        prog="lefschetz",
        description="Exact computations with Tate motives of catalog varieties.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name: str, help_text: str, func):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("expr", nargs="?", help="catalog expression, or '-' to read stdin")
        sp.add_argument(
            "--json", action="store_true", help="emit JSON instead of text"
        )
        sp.set_defaults(func=func)
        return sp

    add("motive", "print the motivic decomposition", cmd_motive)
    add("poincare", "print the Poincare polynomial", cmd_poincare)
    add("hodge", "print the Hodge numbers", cmd_hodge)
    add("k0", "print the class in the Grothendieck ring of varieties", cmd_k0)
    add("check-fec", "check the full-exceptional-collection obstructions", cmd_check_fec)
    sp = add("sod-solve", "solve for unknown piece ranks in a decomposition", cmd_sod_solve)
    sp.add_argument(
        "--collection",
        required=True,
        metavar="FILE",
        help="JSON file with the decomposition pieces",
    )
    sp = add(
        "orbit-demo",
        "round-trip the motive through the orbit category and print the exponents",
        cmd_orbit_demo,
    )
    sp.add_argument(
        "--dim",
        type=integer,
        help="twist window bound (defaults to the dimension of the expression)",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, rest = parser.parse_known_args(argv)
        # "-P(3)" is a text argparse took for an option; "--jsn" a mistyped option
        if args.expr is None and rest and rest[0][:1] == "-" and rest[0][:2] != "--":
            args.expr = rest.pop(0)
        if args.expr is None:
            parser.error("the following arguments are required: expr")
        if rest:
            parser.error("unrecognized arguments: %s" % " ".join(rest))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        status = run(args.func, args)
        # flush here, so a closed pipe raises inside this try
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader has gone: say nothing, and point stdout at devnull so
        # the interpreter's own flush at exit has no pipe to fail on
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except DomainError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (InputError, OSError, UnicodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        # neither an input error nor a verdict: name it, on one line
        detail = " ".join(str(exc).split())
        if detail:
            detail = ": " + detail
        print("error: internal error: %s%s" % (type(exc).__name__, detail), file=sys.stderr)
        return EXIT_INTERNAL


def process_main() -> int:
    """``main`` for a process about to exit: freeze the heap once it returns."""
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(process_main())
