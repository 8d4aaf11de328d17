"""Command line front end.

Every verb takes one catalog expression (or ``-`` to read it from stdin) and
prints a deterministic text form; ``--json`` switches to a JSON document that
validates against ``schemas/cli_output.json``.  Exit codes: 0 on success, 1
when the computation ran but the domain verdict is negative (an obstruction
fired, ranks cannot be reconciled, opaque summands block the request), 2 on
input errors (syntax, out-of-range parameters, unreadable files).
"""

from __future__ import annotations

import argparse
import json
import sys

from .exprlang import ParseError, SemanticError, parse_expr, render_expr
from .measures import VirtualClassError, hodge_numbers, k0_class
from .orbit import CompositionError, LiftError, block_unit_iso, decompose_via_orbit
from .sod import Collection, InconsistentRanksError, UnderdeterminedError, solve_nc_ranks
from .tate import NonEffectiveError, poincare
from .varieties import (
    CollectionUnavailableError,
    InvalidParameterError,
    OpaqueMotiveError,
    dimension_of,
    fec_verdict,
    motive_of,
)

_DOMAIN_ERRORS = (
    OpaqueMotiveError,
    CollectionUnavailableError,
    NonEffectiveError,
    VirtualClassError,
    InconsistentRanksError,
    UnderdeterminedError,
    LiftError,
    CompositionError,
)

_INPUT_ERRORS = (ParseError, SemanticError, InvalidParameterError, OSError, ValueError)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _load_expr(arg: str):
    text = sys.stdin.read() if arg == "-" else arg
    return parse_expr(text)


def _pure_tate(e):
    gm = motive_of(e)
    if gm.opaque:
        raise OpaqueMotiveError(
            "motive of %s has opaque summands: %s"
            % (render_expr(e), ", ".join(p.text() for p in gm.opaque))
        )
    return gm.tate


def cmd_motive(args) -> int:
    e = _load_expr(args.expr)
    gm = motive_of(e)
    if args.json:
        _emit(
            {
                "verb": "motive",
                "expr": render_expr(e),
                "terms": gm.tate.to_json()["terms"],
                "opaque": [p.to_json() for p in gm.opaque],
                "text": gm.text(),
            }
        )
    else:
        print(gm.text())
    return 0


def cmd_poincare(args) -> int:
    e = _load_expr(args.expr)
    p = poincare(_pure_tate(e))
    if args.json:
        _emit(
            {
                "verb": "poincare",
                "expr": render_expr(e),
                "coefficients": p.to_json()["terms"],
                "text": p.text(),
            }
        )
    else:
        print(p.text())
    return 0


def cmd_hodge(args) -> int:
    e = _load_expr(args.expr)
    table = hodge_numbers(_pure_tate(e))
    if args.json:
        _emit(
            {
                "verb": "hodge",
                "expr": render_expr(e),
                "hodge_numbers": {"%d,%d" % pq: c for pq, c in table.items()},
                "hodge_tate": all(p == q for p, q in table),
            }
        )
    else:
        for (p, q), c in table.items():
            print("h^{%d,%d} = %d" % (p, q, c))
    return 0


def cmd_k0(args) -> int:
    e = _load_expr(args.expr)
    c = k0_class(e)
    if args.json:
        _emit(
            {
                "verb": "k0",
                "expr": render_expr(e),
                "terms": c.to_json()["terms"],
                "text": c.text(),
            }
        )
    else:
        print(c.text())
    return 0


def cmd_check_fec(args) -> int:
    e = _load_expr(args.expr)
    v = fec_verdict(e)
    if args.json:
        _emit(
            {
                "verb": "check-fec",
                "expr": render_expr(e),
                "verdict": v.status,
                "min_length": v.min_length,
                "bound": v.bound,
                "odd_degrees": list(v.odd_degrees),
            }
        )
    elif v.status == "ok":
        print("ok (min length %d)" % v.min_length)
    elif v.status == "fails-length-bound":
        print("fails-length-bound (min length %d > bound %d)" % (v.min_length, v.bound))
    else:
        print(v.status)
    return 0 if v.ok else 1


def cmd_sod_solve(args) -> int:
    e = _load_expr(args.expr)
    with open(args.collection, "r", encoding="utf-8") as fh:
        collection = Collection.from_json(json.load(fh))
    total = _pure_tate(e)
    solved = solve_nc_ranks(collection, total)
    if args.json:
        _emit(
            {
                "verb": "sod-solve",
                "expr": render_expr(e),
                "total_rank": total.rank,
                "pieces": [
                    {"label": p.label, "kind": p.kind, "nc_rank": p.nc_rank}
                    for p in solved.pieces
                ],
            }
        )
    else:
        for p in solved.pieces:
            print("%s: n_j = %d" % (p.label, p.nc_rank))
    return 0


def cmd_orbit_demo(args) -> int:
    e = _load_expr(args.expr)
    m = _pure_tate(e)
    dim = args.dim if args.dim is not None else dimension_of(e)
    f, g = block_unit_iso(m)
    exponents = decompose_via_orbit(m, f, g, dim)
    if args.json:
        _emit(
            {
                "verb": "orbit-demo",
                "expr": render_expr(e),
                "dim": dim,
                "exponents": list(exponents),
            }
        )
    else:
        print("{%s}" % ", ".join(str(l) for l in exponents))
    return 0


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
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except _INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
