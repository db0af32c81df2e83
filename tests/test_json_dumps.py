"""``microdata.json_dumps`` against the encoder it stands in for:
``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, which runs json's
pure-Python encoder. Every artifact and the manifest's hashes cover these
bytes, so they must be the same for every document, and an unencodable one
must raise the same error."""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from sdckit.microdata import json_dumps


def _reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _same_outcome(doc):
    try:
        want = _reference(doc)
    except (TypeError, ValueError) as e:
        want = e
    try:
        got = json_dumps(doc)
    except (TypeError, ValueError) as e:
        got = e
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert got == want


# strings an indented dump could confuse with its own layout: newlines,
# braces and brackets, item and key separators, quotes, escapes, non-ASCII
TRICKY_TEXT = [
    "", "a\nb", "},\n    {", "],\n  [", '"', "\\", "{", "}", "[", "]", ": ", ",", "\u00e9", "e\u0301",
    "\u212b", " ", "\x00", "\U0001f600", "  ", "\r\n",
]
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 5e-324, 0.1]),
    st.text(max_size=6),
    st.sampled_from(TRICKY_TEXT),
)
# keys json accepts: a str, or a number, bool or None that it writes as text;
# one kind of key per dict, since sorting mixed kinds fails in both encoders
KEY_KINDS = st.sampled_from([
    st.text(max_size=4) | st.sampled_from(TRICKY_TEXT),
    st.integers(-20, 20) | st.booleans(),
    st.floats(allow_nan=False, width=16),
])


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        KEY_KINDS.flatmap(lambda keys: st.dictionaries(keys, children, max_size=4)),
    )


DOCS = st.recursive(SCALARS, _containers, max_leaves=30)
# the shapes artifacts hold: lists of flat dicts (per-record reports), lists of
# flat lists (partitions), flat lists (row ids), and objects of those
FLAT_ROWS = st.one_of(
    st.lists(st.dictionaries(st.text(max_size=3) | st.sampled_from(TRICKY_TEXT), SCALARS, max_size=4), max_size=5),
    st.lists(st.lists(SCALARS, max_size=4) | st.lists(SCALARS, max_size=4).map(tuple), max_size=5),
)


@settings(max_examples=500, deadline=None)
@given(DOCS)
def test_json_dumps_writes_the_indented_encoders_bytes(doc):
    _same_outcome(doc)


@settings(max_examples=300, deadline=None)
@given(FLAT_ROWS, st.integers(0, 3))
def test_json_dumps_of_nested_rows_matches_at_every_depth(rows, depth):
    doc = rows
    for level in range(depth):
        doc = {"level": level, "rows": doc} if level % 2 else [doc]
    _same_outcome(doc)


def test_json_dumps_edge_documents():
    docs = [
        None, True, 0, -0.0, math.nan, "x\ny", [], {}, (), [[]], [{}], [(), []], [{}, {"a": 1}, {}],
        {"a": [1, {"b": []}], "c": {}}, {2: [1], 10: {}}, {True: {"a": 1}, False: [1]}, {None: [1], "x": 2},
        {1.5: [1], -0.0: {}}, [{"k": "},\n    {"}, {"k": "]"}], [[1, "],\n    ["], [], ["}"]],
        {"per_record": [{"gain": math.inf, "row_id": 0}, {"gain": -math.inf, "row_id": 1}]},
        ([1, 2], {"x": (3,)}), [[[1]], [[2, 3]]], {"\u00e9": {"\u212b": ["e\u0301"]}},
    ]
    for doc in docs:
        _same_outcome(doc)


def test_json_dumps_raises_as_json_does():
    class Opaque:
        pass

    for doc in ({"a": {1, 2}}, [Opaque()], {(1, 2): [1]}, {"a": [1], 2: [2]}, {"x": [Opaque()]}, [[Opaque()]]):
        _same_outcome(doc)
