"""CLI fuzz property: on any argv or tableau document, affins exits 0, 1 or
2 and lets no exception out of cli.main."""

import contextlib
import io
import json
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from affine_insertion.affperm import elements_by_length, from_reduced_word, identity
from affine_insertion.cli import CONVERT_KINDS, main
from affine_insertion.serialize import strong_tableau_to_json, weak_tableau_to_json
from affine_insertion.strong import strong_tableaux
from affine_insertion.weak import weak_tableaux

_JUNK = st.text(alphabet="()[], -0123456789x.", max_size=10)


def _text(left, right, parts):
    """The drawn lists of parts as comma-separated text between brackets."""
    return parts.map(lambda xs: left + ",".join(map(str, xs)) + right)


def _or_junk(draw, valid):
    """Three times in four a draw of valid, else junk text."""
    return draw(valid) if draw(st.integers(0, 3)) else draw(_JUNK)


_PARTITION = _text("(", ")", st.lists(st.integers(1, 3), max_size=4).map(lambda xs: sorted(xs, reverse=True)))
_WINDOWS = {n: [w.window for level in elements_by_length(n, 3) for w in level] for n in range(2, 6)}


def _code(xs):
    """A weakly increasing sequence from 0, as the code of a Grassmannian element."""
    return [0] + sorted(xs)


@st.composite
def _argv(draw):
    """Argv for convert, kschur or insert; each value is well formed for
    its flag three times in four and junk text otherwise."""
    n = draw(st.integers(2, 5))
    window = _text("[", "]", st.sampled_from(_WINDOWS[n]))
    command = draw(st.sampled_from(("convert", "kschur", "insert")))
    argv = [command, "--n", _or_junk(draw, st.just(str(n)))]
    if command == "convert":
        kinds = st.sampled_from(CONVERT_KINDS)
        src, dst = draw(kinds), draw(kinds)
        values = {
            "window": window,
            "core": _PARTITION,
            "bounded": _PARTITION,
            "offsets": _text("(", ")", st.lists(st.integers(-2, 3), min_size=n, max_size=n)),
            "code": _text("(", ")", st.lists(st.integers(0, 4), min_size=n - 1, max_size=n - 1).map(_code)),
        }
        argv += ["--from", _or_junk(draw, st.just(src)), "--to", dst, _or_junk(draw, values[src])]
    elif command == "kschur":
        argv += ["--shape", _or_junk(draw, _PARTITION)] + draw(st.sampled_from(([], ["--spin"])))
    else:
        matrix = st.lists(st.lists(st.integers(0, 1), max_size=3), max_size=3).map(json.dumps)
        argv += ["--matrix", _or_junk(draw, matrix), "--l", _or_junk(draw, st.integers(-1, n).map(str))]
        if draw(st.booleans()):
            u = _or_junk(draw, window)
            argv += ["--u", u, "--v", u if draw(st.booleans()) else _or_junk(draw, window)]
        argv += draw(st.sampled_from(([], ["--audit"], ["--format", "json"], ["--format", "xml"])))
    return argv


_E = identity(3)
_SHAPES = [w for level in elements_by_length(3, 4)[1:] for w in level]
_TABLEAUX = {
    "strong": [strong_tableau_to_json(t) for u in _SHAPES for t in strong_tableaux(_E, u, 0)],
    "weak": [weak_tableau_to_json(t) for u in _SHAPES for t in weak_tableaux(_E, u)],
}
_KEYS = ("inside", "strips", "covers", "i", "j", "outside", "residues")
_ATOMS = st.none() | st.booleans() | st.integers(-3, 9) | st.text("[]0123,-", max_size=6)
_JSON = st.recursive(
    _ATOMS | _text("[", "]", st.sampled_from(_WINDOWS[3])),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(_KEYS), kids, max_size=3),
    max_leaves=8,
)


def _paths(doc, path=()):
    """The path of every value inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@st.composite
def _documents(draw):
    """(kind, text) of a tableau document at n = 3: kept whole, with one
    value replaced or removed, random JSON, or truncated text."""
    kind = draw(st.sampled_from(("strong", "weak")))
    doc = json.loads(json.dumps(draw(st.sampled_from(_TABLEAUX[kind]))))
    how = draw(st.sampled_from(("keep", "replace", "remove", "random", "truncate")))
    text = json.dumps(doc)
    if how == "keep":
        return kind, text
    if how == "random":
        return kind, json.dumps(draw(_JSON))
    if how == "truncate":
        return kind, text[: draw(st.integers(0, len(text) - 1))]
    *parent, key = draw(st.sampled_from(list(_paths(doc))))
    node = doc
    for step in parent:
        node = node[step]
    if how == "remove":
        del node[key]
    else:
        node[key] = draw(_JSON)
    return kind, json.dumps(doc)


def _exit_code(argv, stdin=""):
    """main's exit code, argparse's SystemExit included; nothing else may
    escape and nothing may print a traceback."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    assert "Traceback" not in err.getvalue()
    return code


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_argv())
def test_any_argv_exits_0_1_or_2(argv):
    assert _exit_code(argv) in (0, 1, 2)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_documents(), st.sampled_from(("3", "3", "3", "4", "1", "x")), st.sampled_from(("0", "1", "-1")))
def test_any_tableau_document_exits_0_1_or_2(case, n, l):
    kind, text = case
    assert _exit_code(["render", "--kind", kind, "--tableau", "-", "--n", n, "--l", l], text) in (0, 1, 2)
