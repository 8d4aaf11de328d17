"""Command line front end.

Every verb takes one catalog expression (or ``-`` to read it from stdin) and
prints a deterministic text form; ``--json`` switches to a JSON document that
validates against ``schemas/cli_output.json``.  Each verb is one function
from the parsed expression and the arguments to its JSON fields, its text
lines and its exit status; ``run`` loads the expression and emits one of the
two forms.  Exit codes: 0 on success, 1 when the computation ran but the
domain verdict is negative (a ``DomainError``: an obstruction fired, ranks
cannot be reconciled, opaque summands block the request), 2 on input errors
(syntax, out-of-range parameters, unreadable files), and ``EXIT_BROKEN_PIPE``
(141, 128 + SIGPIPE, as a shell reports a process killed by the signal),
with nothing on stderr, when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import json
import sys

from .exprlang import INT_TOO_LONG, MAX_INT_DIGITS, parse_expr, render_expr
from .measures import hodge_numbers, k0_class
from .orbit import block_unit_iso, decompose_via_orbit
from .sod import Collection, solve_nc_ranks
from .tate import DomainError, poincare
from .varieties import OpaqueMotiveError, dimension_of, fec_verdict, motive_of

EXIT_BROKEN_PIPE = 141


def _pure_tate(e):
    gm = motive_of(e)
    if gm.opaque:
        raise OpaqueMotiveError(
            "motive of %s has opaque summands: %s"
            % (render_expr(e), ", ".join(p.text() for p in gm.opaque))
        )
    return gm.tate


def cmd_motive(e, args):
    gm = motive_of(e)
    text = gm.text()
    fields = {
        "terms": gm.tate.to_json()["terms"],
        "opaque": [p.to_json() for p in gm.opaque],
        "text": text,
    }
    return fields, [text], 0


def cmd_poincare(e, args):
    p = poincare(_pure_tate(e))
    text = p.text()
    return {"coefficients": p.to_json()["terms"], "text": text}, [text], 0


def cmd_hodge(e, args):
    table = hodge_numbers(_pure_tate(e))
    fields = {
        "hodge_numbers": {"%d,%d" % pq: c for pq, c in table.items()},
        "hodge_tate": all(p == q for p, q in table),
    }
    return fields, ["h^{%d,%d} = %d" % (p, q, c) for (p, q), c in table.items()], 0


def cmd_k0(e, args):
    c = k0_class(e)
    text = c.text()
    return {"terms": c.to_json()["terms"], "text": text}, [text], 0


def cmd_check_fec(e, args):
    v = fec_verdict(e)
    fields = {
        "verdict": v.status,
        "min_length": v.min_length,
        "bound": v.bound,
        "odd_degrees": list(v.odd_degrees),
    }
    if v.status == "ok":
        line = "ok (min length %d)" % v.min_length
    elif v.status == "fails-length-bound":
        line = "fails-length-bound (min length %d > bound %d)" % (v.min_length, v.bound)
    else:
        line = v.status
    return fields, [line], 0 if v.ok else 1


def _json_int(text: str) -> int:
    """A JSON integer, capped in length as an expression's literals are."""
    if len(text) - text.startswith("-") > MAX_INT_DIGITS:
        raise ValueError(INT_TOO_LONG)
    return int(text)


def cmd_sod_solve(e, args):
    with open(args.collection, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_int=_json_int)
        except RecursionError:
            # the decoder recurses once per nesting level
            raise ValueError("collection JSON is nested too deeply") from None
    collection = Collection.from_json(data)
    total = _pure_tate(e)
    solved = solve_nc_ranks(collection, total)
    fields = {
        "total_rank": total.rank,
        "pieces": [
            {"label": p.label, "kind": p.kind, "nc_rank": p.nc_rank}
            for p in solved.pieces
        ],
    }
    return fields, ["%s: n_j = %d" % (p.label, p.nc_rank) for p in solved.pieces], 0


def cmd_orbit_demo(e, args):
    m = _pure_tate(e)
    dim = args.dim if args.dim is not None else dimension_of(e)
    f, g = block_unit_iso(m)
    exponents = decompose_via_orbit(m, f, g, dim)
    line = "{%s}" % ", ".join(str(l) for l in exponents)
    return {"dim": dim, "exponents": list(exponents)}, [line], 0


def run(verb, args) -> int:
    """Load the expression, run ``verb`` on it, emit JSON or text lines."""
    e = parse_expr(sys.stdin.read() if args.expr == "-" else args.expr)
    fields, lines, status = verb(e, args)
    if args.json:
        payload = {"verb": args.verb, "expr": render_expr(e), **fields}
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lefschetz",
        description="Exact computations with Tate motives of catalog varieties.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name: str, help_text: str, func):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("expr", help="catalog expression, or '-' to read stdin")
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
        type=int,
        default=None,
        help="twist window bound (defaults to the dimension of the expression)",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
