"""The input boundary: every reader of outside input raises ``InputError``.

The JSON decoders of the library (``from_json`` of ``SODPiece`` and
``Collection``), the collection loader of
``sod-solve`` and ``tate.integer``, the one reader of integer text, refuse
malformed input with ``InputError`` and nothing else: no TypeError,
AttributeError or KeyError leaks out of them, so the CLI can map exactly
this class to exit status 2.
"""

import copy
import io
import json
import pickle
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lefschetz import (
    Collection,
    InputError,
    InvalidParameterError,
    ParseError,
    SODPiece,
    SemanticError,
    TateMotive,
    motive_of,
    parse_expr,
    render_expr,
)
from lefschetz.cli import main
from lefschetz.tate import INT_TOO_LONG, MAX_INT_DIGITS, integer
from lefschetz.varieties import _KINDS, Point, Product, Quadric, VarietyExpr, _from_labels

def _piece_cases():
    pieces = (5, [], None, {}, {"label": "O"}, {"kind": "exceptional"},
              {"label": "", "kind": "exceptional"}, {"label": 3, "kind": "exceptional"},
              {"label": "O", "kind": "spherical"}, {"label": "O", "kind": []},
              {"label": "O", "kind": "exceptional", "nc_rank": 2})
    for data in pieces:
        yield "piece-%r" % (data,), data
    for rank in (-1, True, "1", 1.0, [], {}):
        yield "opaque-rank-%r" % (rank,), {"label": "C", "kind": "opaque", "nc_rank": rank}


def _collection_cases():
    for data in ([], 5, None, {}, {"pieces": []}, {"pieces": 5}, {"pieces": {}}, {"pieces": ["O"]}):
        yield "collection-%r" % (data,), data
    for _, piece in _piece_cases():
        yield "collection-of-%r" % (piece,), {"pieces": [{"label": "O", "kind": "exceptional"}, piece]}


def _key_cases():
    # ``TateMotive.to_json`` writes exponent keys as text, which reads back
    # only through ``integer``
    for key in ("x", "1_0", "٣", " 2 ", "+2", "", "-", "9" * (MAX_INT_DIGITS + 1)):
        yield "TateMotive-key-%r" % (key,), key
    yield "TateMotive-int-key", 3


DECODER_CASES = [
    *[pytest.param(integer, key, id=name) for name, key in _key_cases()],
    *[pytest.param(SODPiece.from_json, data, id=name) for name, data in _piece_cases()],
    *[pytest.param(Collection.from_json, data, id=name) for name, data in _collection_cases()],
]


@pytest.mark.parametrize("decode, data", DECODER_CASES)
def test_every_decoder_refuses_with_input_error(decode, data):
    with pytest.raises(InputError) as info:
        decode(data)
    # one line, as the CLI prints it
    assert str(info.value) and "\n" not in str(info.value)


def test_decoded_round_trips_still_build():
    c = Collection((SODPiece("O"), SODPiece("C", "opaque", 2)))
    assert Collection.from_json(c.to_json()) == c


def test_keys_that_spell_one_number_merge():
    # ``integer`` reads "7" and "07" as one number, and the constructor
    # merges equal exponents
    assert TateMotive([(integer("7"), 1), (integer("07"), 2)]) == TateMotive({7: 3})


# the labels of ``point * Q(0)``, as a pickle holds them
BAD_QUADRIC_LABELS = [
    (Point,),
    (Quadric, ("d", int, 0)),
    (Product, ("left", VarietyExpr, None), ("right", VarietyExpr, None)),
]


def test_semantic_errors_keep_their_class_and_path():
    with pytest.raises(InvalidParameterError) as info:
        _from_labels(BAD_QUADRIC_LABELS)
    assert isinstance(info.value, InputError)
    assert (info.value.path, info.value.offset) == ("$.right", None)


class TestInteger:
    """``tate.integer`` is the one reader of integer text."""

    @pytest.mark.parametrize(
        "text, value",
        [("0", 0), ("-0", 0), ("07", 7), ("-12", -12), ("9" * 100, int("9" * 100)),
         ("-" + "9" * 100, -int("9" * 100))],
    )
    def test_accepted(self, text, value):
        assert integer(text) == value

    @pytest.mark.parametrize(
        "text",
        ["", "-", "--1", "+1", " 1", "1 ", "1_0", "1.0", "1e3", "١", "x", "1/2", 3, None, b"1"],
        ids=repr,
    )
    def test_refused(self, text):
        with pytest.raises(InputError) as info:
            integer(text)
        assert str(info.value) == "invalid integer %r" % (text,)

    @pytest.mark.parametrize("text", ["9" * 101, "-" + "9" * 101, "1" * 5000], ids=["101", "-101", "5000"])
    def test_too_long(self, text):
        # a JSON number, already matched as digits, can only be too long
        with pytest.raises(InputError) as info:
            integer(text)
        assert str(info.value) == INT_TOO_LONG

    def test_input_error_attributes(self):
        exc = InputError("bad", offset=4, path="$.left")
        assert (str(exc), exc.offset, exc.path) == ("bad", 4, "$.left")
        exc = InputError("bad")
        assert (exc.offset, exc.path) == (None, None)
        assert isinstance(exc, ValueError)


def _raised(build):
    try:
        build()
    except InputError as exc:
        return exc
    raise AssertionError("no InputError raised")


def _input_errors():
    """One error of each class, with the attributes its raiser sets."""
    return [
        InputError("bad", offset=4, path="$.left"),
        InputError("bad"),
        ParseError("unexpected character '!'", 3),
        _raised(lambda: parse_expr("P(1) + !")),
        SemanticError("quadric needs dimension d >= 1", "$.right"),
        _raised(lambda: parse_expr("P(1) * Q(0)")),
        InvalidParameterError("bundle rank must be >= 1"),
        # ``_from_labels`` sets ``path`` after the constructor raised
        _raised(lambda: _from_labels(BAD_QUADRIC_LABELS)),
    ]


COPIERS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{
        "pickle-%d" % protocol: lambda exc, protocol=protocol: pickle.loads(pickle.dumps(exc, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    },
}


@pytest.mark.parametrize("copier", COPIERS.values(), ids=COPIERS.keys())
def test_input_errors_copy_and_pickle(copier):
    # a subclass's __init__ takes the parts of the message, not the message,
    # so a twin is rebuilt from ``args`` and the attributes
    errors = _input_errors()
    assert {type(exc) for exc in errors} == {InputError, ParseError, SemanticError, InvalidParameterError}
    for exc in errors:
        twin = copier(exc)
        assert type(twin) is type(exc) and twin is not exc
        assert (str(twin), twin.args, twin.offset, twin.path) == (str(exc), exc.args, exc.offset, exc.path)
    assert errors[3].offset == 7 and errors[5].path == errors[7].path == "$.right"


@pytest.mark.parametrize(
    "content",
    [b"{not json", b'{"pieces": [{"label": "O", "kind": "exceptional", "nc_rank": 1e999}]}',
     b'{"pieces": [{"label": "\xff", "kind": "exceptional"}]}', b"[" * 100000 + b"]" * 100000,
     b'{"pieces": [{"label": "A", "kind": "opaque", "nc_rank": ' + b"7" * 101 + b"}]}",
     b'{"pieces": {}}', b"5"],
    ids=["syntax", "float-rank", "not-utf8", "nested", "101-digits", "pieces-object", "number"],
)
def test_collection_loader_exits_2(capsys, tmp_path, content):
    path = tmp_path / "collection.json"
    path.write_bytes(content)
    for extra in ((), ("--json",)):
        code = main(["sod-solve", "Q(3)", "--collection", str(path), *extra])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


# Drawn text for the front end and the CLI: catalog texts with small
# parameters, written from each class's ``syntax`` with every child in
# parentheses; each with one character inserted, deleted or replaced, from
# an alphabet of punctuation, ASCII and other letters, digits and spaces;
# and any text at all.
_SMALL = {
    int: lambda name: st.integers(0, 4).map(str),
    tuple: lambda name: st.lists(st.integers(0, 4), min_size=1, max_size=3).map(
        lambda counts: ",".join(map(str, counts))
    ),
    bool: lambda name: st.sampled_from(["true", "false", name + "=true", name + " = false"]),
}


def _catalog_text(cls, children):
    """The text of a ``cls`` node, each child's text drawn from ``children``."""
    fields = [
        children.map("(%s)".__mod__) if typ is VarietyExpr else _SMALL[typ](name)
        for name, typ in cls._fields
    ]
    return st.tuples(*fields).map(cls.syntax[1].__mod__)


_catalog_texts = st.recursive(
    st.one_of([_catalog_text(cls, None) for cls in _KINDS.values() if not cls._children]),
    lambda inner: st.one_of([_catalog_text(cls, inner) for cls in _KINDS.values() if cls._children]),
    max_leaves=4,
)
_EDIT_CHARACTERS = st.sampled_from(
    list("()[],;=+*_ Px09") + ["\u00e9", "\u03a9", "\u0663", "\u00b2", "\u00bd", "\u3000", "\u00a0"]
)


@st.composite
def _edited(draw, texts):
    text = draw(texts)
    i = draw(st.integers(0, len(text)))
    ch = draw(_EDIT_CHARACTERS)
    return draw(st.sampled_from([text[:i] + ch + text[i:], text[:i] + text[i + 1:], text[:i] + ch + text[i + 1:]]))


_texts = _catalog_texts | _edited(_catalog_texts) | st.text()


@given(_texts)
def test_parse_expr_gives_a_tree_or_an_input_error(text):
    # a tree that its canonical text gives again, or a ParseError inside the
    # UTF-8 text, or a SemanticError at a node path
    try:
        e = parse_expr(text)
    except ParseError as exc:
        assert 0 <= exc.offset <= len(text.encode("utf-8", "surrogatepass"))
    except SemanticError as exc:
        assert exc.path.startswith("$")
    else:
        assert parse_expr(render_expr(e)) == e


# every verb that takes nothing but the expression
_VERBS = ["motive", "poincare", "hodge", "k0", "check-fec", "orbit-demo"]


@given(_texts, st.sampled_from(_VERBS), st.booleans())
def test_cli_exits_0_1_or_2_with_at_most_one_error_line(text, verb, as_json):
    # '-' reads stdin; any other text that starts with '-' is left over by
    # argparse as an unknown option and then read as the expression
    assume(text != "-")
    if verb == "orbit-demo":
        # its time is quadratic in the rank, and one edit can make a
        # Grassmannian of rank a thousand
        try:
            assume(motive_of(parse_expr(text)).tate.rank <= 100)
        except ValueError:  # an InputError or a DomainError
            pass
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([verb, *["--json"] * as_json, text])
    assert code in (0, 1, 2), (verb, text, err.getvalue())
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
