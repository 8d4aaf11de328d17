"""Parsing, error reporting, and the renderer round trip."""

import copy
import pickle
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    CODE_POINT_CONTEXTS,
    char_loop_tokenize,
    constructor_from_labels,
    fold_render_expr,
    fold_repr,
    fresh_dimension,
    recursive_parse_expr,
    spelled_tokens,
    token_outcome,
    two_level_parse_expr,
)
from lefschetz.exprlang import (
    MAX_INT_DIGITS,
    ParseError,
    SemanticError,
    _parse,
    _tokenize,
    parse_expr,
    render_expr,
)
from lefschetz.tate import TateMotive
from lefschetz.varieties import (
    Blowup,
    CollectionUnavailableError,
    DisjointUnion,
    Fano3fold,
    Grassmannian,
    InvalidParameterError,
    ModuliM0,
    Point,
    Product,
    ProjBundle,
    Projective,
    Quadric,
    Toric,
    _KINDS,
    _from_labels,
    _labels,
    dimension_of,
    exceptional_collection_of,
    motive_of,
)


class TestParsing:
    def test_constructors(self):
        assert parse_expr("point") == Point()
        assert parse_expr("P(2)") == Projective(2)
        assert parse_expr("Q(4)") == Quadric(4)
        assert parse_expr("Gr(2,4)") == Grassmannian(2, 4)
        assert parse_expr("toric[1,3,3]") == Toric((1, 3, 3))
        assert parse_expr("M0(5)") == ModuliM0(5)
        assert parse_expr("blowup(P(2); point; 2)") == Blowup(
            Projective(2), Point(), 2
        )
        assert parse_expr("projbundle(P(1); 2)") == ProjBundle(Projective(1), 2)

    def test_fano_flag_forms(self):
        assert parse_expr("fano(2; odd_trivial=true)") == Fano3fold(2, True)
        assert parse_expr("fano(2; true)") == Fano3fold(2, True)
        assert parse_expr("fano(0; odd_trivial=false)") == Fano3fold(0, False)

    def test_operators_and_precedence(self):
        p1 = Projective(1)
        assert parse_expr("P(1) * P(1)") == Product(p1, p1)
        assert parse_expr("point + point") == DisjointUnion(Point(), Point())
        assert parse_expr("point + P(1) * P(1)") == DisjointUnion(
            Point(), Product(p1, p1)
        )
        assert parse_expr("(point + P(1)) * P(1)") == Product(
            DisjointUnion(Point(), p1), p1
        )

    def test_left_associative(self):
        a, b, c = Point(), Projective(1), Quadric(2)
        assert parse_expr("point + P(1) + Q(2)") == DisjointUnion(
            DisjointUnion(a, b), c
        )
        assert parse_expr("point * P(1) * Q(2)") == Product(Product(a, b), c)

    def test_whitespace_insensitive(self):
        assert parse_expr(" P( 2 )  *  point ") == parse_expr("P(2)*point")

    def test_nested_operands(self):
        got = parse_expr("blowup(P(1) * P(1); point + point; 2)")
        assert got == Blowup(
            Product(Projective(1), Projective(1)),
            DisjointUnion(Point(), Point()),
            2,
        )


class TestSyntax:
    @pytest.mark.parametrize("cls", list(_KINDS.values()), ids=lambda cls: cls.__name__)
    def test_template_matches_fields(self, cls):
        """A class's template names its head and has one slot per field."""
        head, template, binding = cls.syntax
        assert template.count("%s") == len(cls._fields)
        if binding is None:
            assert template.startswith(head)
        else:
            assert template == "%s " + head + " %s"

    def test_heads_are_distinct(self):
        heads = [cls.syntax[0] for cls in _KINDS.values()]
        assert len(set(heads)) == len(heads)


class TestParseErrors:
    def test_offset_reported(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("P(x)")
        assert exc.value.offset == 2

    def test_trailing_input(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("P(1) P(2)")
        assert exc.value.offset == 5

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("P(1) @ P(2)")
        assert exc.value.offset == 5

    def test_only_ascii_digits(self):
        for text, offset in (("Q(\u0663)", 2), ("P(\u00b2)", 2), ("P(1\u0663)", 3)):
            with pytest.raises(ParseError, match="unexpected character") as exc:
                parse_expr(text)
            assert exc.value.offset == offset

    def test_offset_counts_utf8_bytes(self):
        # U+3000 is whitespace and three bytes long in UTF-8
        with pytest.raises(ParseError, match="at byte 8: unknown constructor 'x'") as exc:
            parse_expr("P(3)\u3000+x")
        assert exc.value.offset == 8
        with pytest.raises(ParseError, match="at byte 6: unexpected character") as exc:
            parse_expr("\u00e9t\u00e9 @")
        assert exc.value.offset == 6

    def test_unknown_constructor(self):
        with pytest.raises(ParseError, match="unknown constructor"):
            parse_expr("elliptic(1)")

    def test_truncated_input(self):
        with pytest.raises(ParseError, match="end of input"):
            parse_expr("P(1) +")
        with pytest.raises(ParseError):
            parse_expr("")

    def test_bad_fano_flag(self):
        with pytest.raises(ParseError, match="'true' or 'false'"):
            parse_expr("fano(1; maybe)")


_TOO_LONG = "integer literal too long (more than %d digits)" % MAX_INT_DIGITS

# One row per punctuation slot of each constructor, a missing integer or
# expression, each bad form of a flag, and integer literals over the cap
# (an error at their first digit): (text, byte offset, message).
SLOT_ERRORS = [
    ("P", 1, "expected '(', got end of input"),
    ("P 3)", 2, "expected '(', got '3'"),
    ("P()", 2, "expected an integer, got ')'"),
    ("P(3", 3, "expected ')', got end of input"),
    ("P(3 point", 4, "expected ')', got 'point'"),
    ("Q(", 2, "expected an integer, got end of input"),
    ("Q[2]", 1, "expected '(', got '['"),
    ("Q(2", 3, "expected ')', got end of input"),
    ("M0)", 2, "expected '(', got ')'"),
    ("M0(x)", 3, "expected an integer, got 'x'"),
    ("M0(5", 4, "expected ')', got end of input"),
    ("Gr 2,4)", 3, "expected '(', got '2'"),
    ("Gr(,4)", 3, "expected an integer, got ','"),
    ("Gr(2 4)", 5, "expected ',', got '4'"),
    ("Gr(2,)", 5, "expected an integer, got ')'"),
    ("Gr(2,4", 6, "expected ')', got end of input"),
    ("toric(1)", 5, "expected '[', got '('"),
    ("toric[]", 6, "expected an integer, got ']'"),
    ("toric[1,]", 8, "expected an integer, got ']'"),
    ("toric[1;2]", 7, "expected ']', got ';'"),
    ("toric[1,2", 9, "expected ']', got end of input"),
    ("blowup P(2); point; 2)", 7, "expected '(', got 'P'"),
    ("blowup(; point; 2)", 7, "expected an expression, got ';'"),
    ("blowup(P(2) point; 2)", 12, "expected ';', got 'point'"),
    ("blowup(P(2); ; 2)", 13, "expected an expression, got ';'"),
    ("blowup(P(2); point 2)", 19, "expected ';', got '2'"),
    ("blowup(P(2); point; )", 20, "expected an integer, got ')'"),
    ("blowup(P(2); point; 2", 21, "expected ')', got end of input"),
    ("projbundle[P(1); 2]", 10, "expected '(', got '['"),
    ("projbundle(; 2)", 11, "expected an expression, got ';'"),
    ("projbundle(P(1) 2)", 16, "expected ';', got '2'"),
    ("projbundle(P(1); )", 17, "expected an integer, got ')'"),
    ("projbundle(P(1); 2", 18, "expected ')', got end of input"),
    ("fano 1; true)", 5, "expected '(', got '1'"),
    ("fano(; true)", 5, "expected an integer, got ';'"),
    ("fano(1 true)", 7, "expected ';', got 'true'"),
    ("fano(1; )", 8, "expected 'odd_trivial' or a boolean, got ')'"),
    ("fano(1; 3)", 8, "expected 'odd_trivial' or a boolean, got '3'"),
    ("fano(1; maybe)", 8, "expected 'true' or 'false', got 'maybe'"),
    ("fano(1; b=true)", 8, "expected 'true' or 'false', got 'b'"),
    ("fano(1; odd_trivial)", 19, "expected '=', got ')'"),
    ("fano(1; odd_trivial true)", 20, "expected '=', got 'true'"),
    ("fano(1; odd_trivial=)", 20, "expected 'true' or 'false', got ')'"),
    ("fano(1; odd_trivial=1)", 20, "expected 'true' or 'false', got '1'"),
    ("fano(1; odd_trivial=maybe)", 20, "expected 'true' or 'false', got 'maybe'"),
    ("fano(1; true", 12, "expected ')', got end of input"),
    ("fano(1; true; 2)", 12, "expected ')', got ';'"),
    ("fano(1; odd_trivial=true=false)", 24, "expected ')', got '='"),
    ("point(", 5, "unexpected trailing input '('"),
    ("(P(1)", 5, "expected ')', got end of input"),
    ("(P(1) point", 6, "expected ')', got 'point'"),
    ("P(1) * )", 7, "expected an expression, got ')'"),
    ("+", 0, "expected an expression, got '+'"),
    ("odd_trivial", 0, "unknown constructor 'odd_trivial'"),
    ("true", 0, "unknown constructor 'true'"),
    ("P(%s)" % ("9" * (MAX_INT_DIGITS + 1)), 2, _TOO_LONG),
    ("toric[1,%s]" % ("0" * (MAX_INT_DIGITS + 1)), 8, _TOO_LONG),
    ("point + Gr(2,%s" % ("7" * (MAX_INT_DIGITS + 1)), 13, _TOO_LONG),
]


@pytest.mark.parametrize("text,offset,message", SLOT_ERRORS)
def test_slot_errors(text, offset, message):
    with pytest.raises(ParseError) as exc:
        parse_expr(text)
    assert str(exc.value) == "syntax error at byte %d: %s" % (offset, message)
    assert exc.value.offset == offset


def test_longest_integer_literal_parses():
    b = int("9" * MAX_INT_DIGITS)
    e = parse_expr("fano(%s; true)" % ("0" + "9" * (MAX_INT_DIGITS - 1)))
    assert e == Fano3fold(b // 10, True)
    assert parse_expr(render_expr(Fano3fold(b, True))) == Fano3fold(b, True)


class TestSemanticErrors:
    def test_root_path(self):
        with pytest.raises(SemanticError) as exc:
            parse_expr("Q(0)")
        assert exc.value.path == "$"

    def test_child_paths(self):
        with pytest.raises(SemanticError) as exc:
            parse_expr("P(1) + Q(0)")
        assert exc.value.path == "$.right"
        with pytest.raises(SemanticError) as exc:
            parse_expr("P(1) * (point + Gr(3,3))")
        assert exc.value.path == "$.right.right"

    def test_blowup_paths(self):
        with pytest.raises(SemanticError) as exc:
            parse_expr("blowup(P(2); Q(0); 2)")
        assert exc.value.path == "$.center"
        # the dimension-gap violation belongs to the blowup node itself
        with pytest.raises(SemanticError) as exc:
            parse_expr("blowup(P(2); point; 3)")
        assert exc.value.path == "$"

    def test_deep_path_exact_message_elided(self):
        # ``path`` is the whole path; only the message shortens it
        path = "$" + ".right" * 3000
        with pytest.raises(SemanticError) as exc:
            parse_expr("point + (" * 3000 + "Gr(3,2)" + ")" * 3000)
        assert exc.value.path == path
        assert str(exc.value) == "semantic error at %s ... (%d characters elided) ... %s: Grassmannian needs 0 < k < n" % (
            path[:100], len(path) - 200, path[-100:]
        )
        # a short path is echoed whole
        with pytest.raises(SemanticError) as exc:
            parse_expr("point + (" * 10 + "Gr(3,2)" + ")" * 10)
        assert str(exc.value) == "semantic error at $%s: Grassmannian needs 0 < k < n" % (".right" * 10)


CANONICAL = [
    "point",
    "P(3)",
    "Q(2)",
    "Gr(2,4)",
    "toric[1,4,4]",
    "M0(4)",
    "fano(2; odd_trivial=true)",
    "fano(0; odd_trivial=false)",
    "blowup(P(2); point; 2)",
    "projbundle(Q(2); 2)",
    "P(1) * P(1)",
    "point + point",
    "point + P(1) * P(1)",
    "(point + P(1)) * P(1)",
    "point + (point + point)",
    "point * (point * point)",
    "blowup(P(1) * P(1); point + point; 2)",
]


class TestRenderer:
    def test_canonical_strings_are_fixed_points(self):
        for s in CANONICAL:
            assert render_expr(parse_expr(s)) == s

    def test_parse_inverts_render(self):
        for s in CANONICAL:
            e = parse_expr(s)
            assert parse_expr(render_expr(e)) == e

    def test_bare_fano_flag_normalized(self):
        assert render_expr(parse_expr("fano(1; true)")) == "fano(1; odd_trivial=true)"


_leaves = st.sampled_from(
    [
        Point(),
        Projective(1),
        Projective(3),
        Quadric(2),
        Quadric(3),
        Grassmannian(2, 4),
        Toric((1, 4, 4)),
        ModuliM0(5),
        Fano3fold(1, True),
        Fano3fold(0, False),
        Blowup(Projective(2), Point(), 2),
        ProjBundle(Projective(1), 2),
    ]
)
_exprs = st.recursive(
    _leaves,
    lambda inner: st.builds(Product, inner, inner)
    | st.builds(DisjointUnion, inner, inner),
    max_leaves=8,
)


@given(_exprs)
def test_render_round_trip_property(e):
    assert parse_expr(render_expr(e)) == e


class TestDeepInputs:
    """Every stage handles long chains and deep nesting.

    No stage recurses on a child, the parser included, so chains and
    nesting pass at the default recursion limit at any length, and the
    parser needs no more of the stack at 100000 parentheses than at one.
    Operator nesting goes through every stage at 10000 levels, and
    through ``render_expr`` and ``repr``, which copy each piece of text
    once, at 100000.
    """

    @pytest.mark.parametrize(
        "text",
        [
            "+".join(["point"] * 900),
            "*".join(["point"] * 900),
            "+".join(["point"] * 10000),
            "*".join(["point"] * 10000),
            "point+(" * 299 + "point" + ")" * 299,
            "point+(" * 10000 + "point" + ")" * 10000,
            "point*(" * 10000 + "point" + ")" * 10000,
            "(" * 100000 + "point" + ")" * 100000,
        ],
        ids=[
            "sum-chain-900",
            "product-chain-900",
            "sum-chain-10000",
            "product-chain-10000",
            "nested-300",
            "nested-sum-10000",
            "nested-product-10000",
            "parentheses-100000",
        ],
    )
    def test_every_stage(self, text):
        e = parse_expr(text)
        canon = render_expr(e)
        assert render_expr(parse_expr(canon)) == canon
        assert render_expr(pickle.loads(pickle.dumps(e))) == canon
        assert dimension_of(e) == 0
        rank = 1 if "*" in text else text.count("point")
        assert motive_of(e).tate == TateMotive({0: rank})
        if "*" in text:
            with pytest.raises(CollectionUnavailableError):
                exceptional_collection_of(e)
        else:
            assert len(exceptional_collection_of(e)) == rank
        twin = parse_expr(canon)
        assert twin == e and hash(twin) == hash(e)
        assert repr(e).count("Point()") == text.count("point")

    @pytest.mark.parametrize(
        "text",
        ["+".join(["point"] * 10000), "*".join(["point"] * 10000)],
        ids=["sum-chain-10000", "product-chain-10000"],
    )
    def test_copy_and_pickle(self, text):
        # a node is its own copy; a pickle holds the flat post-order labels
        e = parse_expr(text)
        assert copy.copy(e) is e
        assert copy.deepcopy(e) is e
        assert copy.deepcopy([e, e])[0] is e
        twin = pickle.loads(pickle.dumps(e))
        assert twin is not e
        assert twin == e and hash(twin) == hash(e)
        assert render_expr(twin) == render_expr(e)

    @pytest.mark.parametrize(
        "text,cls",
        [
            ("(" * 3000 + "point" + ")" * 3000, Point),
            ("point*(" * 3000 + "point" + ")" * 3000, Product),
        ],
        ids=["parentheses-3000", "nested-product-3000"],
    )
    def test_nested_3000(self, text, cls):
        # past the recursion limit that bounded the nesting of the recursive
        # parser, which gave the syntax error ``expression nested too deeply``
        e = parse_expr(text)
        assert type(e) is cls and dimension_of(e) == 0
        assert motive_of(e).tate == TateMotive({0: 1})
        assert parse_expr(render_expr(e)) == e
        assert _labels(e) == _parse(_tokenize(text))

    def test_parentheses_100000_at_a_low_recursion_limit(self):
        # 50 frames above the caller's suffice for the parser and the
        # builder; the recursive parser gives up at that limit
        text = "(" * 100000 + "point" + ")" * 100000
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            e = parse_expr(text)
            with pytest.raises(ParseError, match="expression nested too deeply"):
                recursive_parse_expr(text)
        finally:
            sys.setrecursionlimit(limit)
        assert e == Point()

    def test_render_and_repr_100000(self):
        # each level is a right operand of '+', so each needs parentheses
        e = Point()
        for _ in range(100000):
            e = DisjointUnion(Point(), e)
        assert render_expr(e) == "point + (" * 99999 + "point + point" + ")" * 99999
        text = repr(e)
        assert text.startswith("DisjointUnion(left=Point(), right=DisjointUnion(left=Point(), ")
        assert text.endswith("right=Point()" + ")" * 100000)
        assert text.count("Point()") == 100001

    def test_nested_blowups_10000(self):
        # each blowup of the plane at a point is the base of the next
        e = Projective(2)
        for _ in range(10000):
            e = Blowup(e, Point(), 2)
        assert parse_expr("blowup(" * 10000 + "P(2)" + "; point; 2)" * 10000) == e
        twin = pickle.loads(pickle.dumps(e))
        assert twin is not e and twin == e and hash(twin) == hash(e)
        assert e.base.center == Point()
        assert dimension_of(e) == dimension_of(twin) == fresh_dimension(e) == 2
        assert motive_of(e).tate == TateMotive({0: 1, 1: 10001, 2: 1})


def _random_text(rng, depth):
    """A valid expression with mixed '+', '*' and parentheses, its tokens
    separated by single spaces."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        return rng.choice(["point", "P ( %d )", "Q ( %d )"]).replace("%d", str(rng.randint(1, 4)))
    if r < 0.45:
        return "( %s )" % _random_text(rng, depth - 1)
    if r < 0.55:
        return "projbundle ( %s ; %d )" % (_random_text(rng, depth - 1), rng.randint(1, 3))
    parts = [_random_text(rng, depth - 1) for _ in range(rng.randint(2, 4))]
    out = parts[0]
    for part in parts[1:]:
        out += rng.choice([" + ", " * "]) + part
    return out


def _mutations(rng, text):
    """``text`` with one token dropped, one doubled and two swapped."""
    toks = text.split()
    i, j = rng.randrange(len(toks)), rng.randrange(len(toks))
    dropped = toks[:i] + toks[i + 1:]
    doubled = toks[:i] + [toks[i]] + toks[i:]
    swapped = list(toks)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    return [" ".join(t) for t in (dropped, doubled, swapped)]


def _outcome(parse, text):
    try:
        return "tree", _labels(parse(text))
    except ParseError as exc:
        return "error", str(exc), exc.offset


def _text_outcome(write, e):
    try:
        return "text", write(e)
    except TypeError as exc:
        return TypeError, str(exc)


@pytest.mark.parametrize("seed", range(3))
def test_render_and_repr_match_the_fold_oracles(seed):
    # the fold steps that built a parent's text from its children's texts
    rng = random.Random(1832 + seed)
    trees = []
    while len(trees) < 200:
        try:
            trees.append(parse_expr(_random_catalog_text(rng, 4)))
        except SemanticError:
            pass
    outcomes = [_text_outcome(render_expr, e) for e in trees]
    assert outcomes == [_text_outcome(fold_render_expr, e) for e in trees]
    assert [repr(e) for e in trees] == [fold_repr(e) for e in trees]
    assert [o[0] for o in outcomes] == ["text"] * len(trees)
    # no node at all
    assert _text_outcome(render_expr, 5) == _text_outcome(fold_render_expr, 5)


def test_precedence_loop_matches_two_level_parser():
    # the parser before operators were read off the node classes is the oracle
    rng = random.Random(1973)
    valid = [_random_text(rng, 4) for _ in range(300)]
    texts = valid + [m for text in valid for m in _mutations(rng, text)]
    outcomes = [_outcome(parse_expr, text) for text in texts]
    assert outcomes == [_outcome(two_level_parse_expr, text) for text in texts]
    mixed = [t for t in valid if "+" in t and "*" in t and "(" in t]
    assert len(mixed) > 50
    kinds = [o[0] for o in outcomes[len(valid):]]
    assert kinds.count("tree") > 50 and kinds.count("error") > 500


def _random_catalog_text(rng, depth):
    """An expression over every constructor, its tokens separated by single
    spaces; one parameter in ten, and most blowups, are out of range."""

    def n(low, high):
        return str(rng.randint(0, 5) if rng.random() < 0.1 else rng.randint(low, high))

    r = rng.random()
    if depth == 0 or r < 0.35:
        k = rng.randint(1, 3)
        return rng.choice(
            [
                "point",
                "P ( %s )" % n(0, 4),
                "Q ( %s )" % n(1, 4),
                "Gr ( %s , %s )" % (n(k, k), n(k + 1, 5)),
                "toric [ %s ]" % " , ".join([n(1, 1)] + [n(1, 6) for _ in range(rng.randint(0, 2))]),
                "M0 ( %s )" % n(3, 5),
                "fano ( %s ; %s )" % (n(0, 3), rng.choice(["true", "false", "odd_trivial = true"])),
            ]
        )
    if r < 0.45:
        return "( %s )" % _random_catalog_text(rng, depth - 1)
    if r < 0.55:
        return "projbundle ( %s ; %s )" % (_random_catalog_text(rng, depth - 1), n(1, 3))
    if r < 0.6:
        base, center = _random_catalog_text(rng, depth - 1), _random_catalog_text(rng, depth - 1)
        return "blowup ( %s ; %s ; %s )" % (base, center, n(2, 3))
    parts = [_random_catalog_text(rng, depth - 1) for _ in range(rng.randint(2, 4))]
    return rng.choice([" + ", " * "]).join(parts)


# stray tokens: punctuation out of place, integer literals of 100 and 101
# digits, non-ASCII letters and digits
_STRAY = [
    "=", ";", "]", ",", "[", "9" * 100, "9" * 101, "\u00e9", "P\u00e9", "\u0663", "Q\u0663", "\u03a9"
]


def _insertions(rng, text):
    """``text`` with a stray token put in and with a number made long."""
    toks = text.split()
    i = rng.randrange(len(toks) + 1)
    stray = toks[:i] + [rng.choice(_STRAY)] + toks[i:]
    numbers = [k for k, tok in enumerate(toks) if tok.isdigit()]
    long = list(toks)
    if numbers:
        long[rng.choice(numbers)] = rng.choice(["9" * 100, "1" + "0" * 100])
    return [" ".join(stray), " ".join(long)]


def _label_outcome(parse, text):
    try:
        return "tree", _labels(parse(text))
    except (ParseError, SemanticError) as exc:
        return type(exc), str(exc), getattr(exc, "offset", None), getattr(exc, "path", None)


@pytest.mark.parametrize("seed", range(4))
def test_stack_parser_matches_recursive_parser(seed):
    # the recursive descent into JSON, typed by the frame builder, is the oracle
    rng = random.Random(2026 + seed)
    valid = [_random_text(rng, 4) for _ in range(100)]
    wide = [_random_catalog_text(rng, 4) for _ in range(200)]
    texts = valid + wide
    texts += [m for text in texts for m in _mutations(rng, text) + _insertions(rng, text)]
    outcomes = [_label_outcome(parse_expr, text) for text in texts]
    assert outcomes == [_label_outcome(recursive_parse_expr, text) for text in texts]
    kinds = [o[0] for o in outcomes]
    assert kinds.count("tree") > 150
    assert kinds.count(SemanticError) > 100 and kinds.count(ParseError) > 500
    paths = {o[3] for o in outcomes if o[0] is SemanticError}
    assert any(path.count(".") >= 2 for path in paths)


@pytest.mark.parametrize(
    "value", [b"P(3)", bytearray(b"P(3)"), None, ["P"]], ids=["bytes", "bytearray", "None", "list"]
)
def test_parse_expr_refuses_anything_but_text(value):
    # one TypeError naming the type, not whatever the tokenizer trips on
    with pytest.raises(TypeError) as info:
        parse_expr(value)
    assert str(info.value) == "expression text must be a str, not %r" % type(value).__name__


def _parser_corpus(seed):
    """The texts of ``test_stack_parser_matches_recursive_parser`` for ``seed``."""
    rng = random.Random(2026 + seed)
    valid = [_random_text(rng, 4) for _ in range(100)]
    wide = [_random_catalog_text(rng, 4) for _ in range(200)]
    texts = valid + wide
    return texts + [m for text in texts for m in _mutations(rng, text) + _insertions(rng, text)]


@pytest.mark.parametrize("seed", range(4))
def test_tokenizer_matches_the_character_loop(seed):
    # the same kinds, texts and byte offsets, or the same message and offset
    texts = _parser_corpus(seed)
    outcomes = [token_outcome(spelled_tokens, text) for text in texts]
    assert outcomes == [token_outcome(char_loop_tokenize, text) for text in texts]
    messages = {o[1].partition(": ")[2] for o in outcomes if o[0] == "error"}
    assert _TOO_LONG in messages and "unexpected character %r" % "\u0663" in messages

# One code point of each class of (isalpha, isalnum, isspace, isdecimal,
# isdigit, isnumeric, isascii, in exprlang._PUNCT), the smallest of its
# class, found once by a scan of every code point, and two more that the
# tokenizers read apart from the rest of their class.
CODE_POINTS = [
    "\x00",  # ASCII and none of the rest, as '@' is
    "\t",  # an ASCII space
    "(",  # punctuation
    "0",  # an ASCII digit
    "A",  # an ASCII letter
    "\x80",  # none at all, as a symbol, a surrogate or an unassigned point is
    "\x85",  # a space outside ASCII
    "\u00aa",  # a letter outside ASCII
    "\u00b2",  # a digit but no decimal, superscript two
    "\u00bc",  # numeric only, a vulgar fraction
    "\u0660",  # a decimal outside ASCII, Arabic-Indic zero
    "\u3405",  # a numeric letter, a CJK ideograph
    "_",  # ASCII like the first, but it starts a name
    "\ud800",  # a lone surrogate, which has no UTF-8 form
]


@pytest.mark.parametrize("context", CODE_POINT_CONTEXTS)
def test_tokenizer_on_each_class_of_code_point(context):
    for ch in CODE_POINTS:
        text = context % ch
        assert token_outcome(spelled_tokens, text) == token_outcome(char_loop_tokenize, text), text


# values to set one field of a label to: of every type a field can hold,
# some in range for some fields and out of range or of the wrong type for others
BAD_VALUES = [None, -1, 0, 7, True, "x", [], [1, "a"], {}, {"kind": "point"}]


def _build_outcome(build, labels):
    try:
        e = build(labels)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "path", None)
    return "tree", _labels(e), e.dim


@pytest.mark.parametrize("seed", range(2))
def test_builder_matches_the_constructor_builder(seed):
    # one positional store per label against ``cls(*args)`` per label: the
    # same labels and dimension, or the same error class, message and path
    rng = random.Random(1848 + seed)
    lists = []
    for text in _parser_corpus(seed):
        try:
            parse_expr(text)
        except ParseError:
            continue
        except SemanticError:
            pass
        lists.append(_parse(_tokenize(text)))
    # one label list in four again, with one field of one label set to each
    # bad value
    mutated = []
    for labels in lists[::4]:
        k = rng.randrange(len(labels))
        if len(labels[k]) > 1:
            i = rng.randrange(1, len(labels[k]))
            name, typ, _ = labels[k][i]
            for value in BAD_VALUES:
                label = labels[k][:i] + ((name, typ, value),) + labels[k][i + 1:]
                mutated.append(labels[:k] + [label] + labels[k + 1:])
    lists += mutated
    outcomes = [_build_outcome(_from_labels, labels) for labels in lists]
    assert outcomes == [_build_outcome(constructor_from_labels, labels) for labels in lists]
    kinds = [o[0] for o in outcomes]
    assert kinds.count("tree") > 300 and kinds.count(InvalidParameterError) > 300
    assert kinds.count(TypeError) > 10
