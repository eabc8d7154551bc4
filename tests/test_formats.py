import json
import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinberg import (
    FormatError, build_graph, counterexample_report, decode, encode, sniff_format,
)
from steinberg.formats import (
    FORMATS,
    decode_graph6,
    dump_json,
    pack_graph6,
    parse_json_payload,
    quote,
    strict_bool,
)
from steinberg.gadgets import lemmas_report
from steinberg.graphs import remove_edge
from steinberg.stock import seed_data_path

from support import graph6_reference, reference_dump_json


def graphs(max_n: int = 12):
    """Strategy: a random simple graph as (n, edge list)."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
        return build_graph(n, sorted(chosen))

    return build()


def test_triangle_graph6_matches_independent_reference():
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert encode(tri, "graph6") == b"Bw"
    assert graph6_reference(3, tri.edges) == b"Bw"


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_graph6_agrees_with_reference_encoder(g):
    assert encode(g, "graph6") == graph6_reference(g.n, g.edges)


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_round_trips_are_byte_stable(g):
    for fmt in FORMATS:
        data = encode(g, fmt)
        back = decode(data, fmt)
        assert back.n == g.n and back.edges == g.edges
        assert encode(back, fmt) == data


def test_json_preserves_labels():
    g = build_graph(3, [(0, 1)], labels={0: "a", 2: "c'"})
    back = decode(encode(g, "json"), "json")
    assert back == g
    assert dict(back.labels) == {0: "a", 2: "c'"}


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(),
    st.sampled_from(
        [-0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf, 2.0**64, 0.1]
    ),
    st.text(),
    st.text(alphabet='"\\/\x00\x1f\x7f\u2028\xe9\U0001f600 ab'),
)
JSON_KEYS = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\n", "\xe9", "\U0001f600"]
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(JSON_KEYS, inner, max_size=5),
    ),
    max_leaves=30,
)


@given(JSON_VALUES)
@settings(max_examples=500, deadline=None)
def test_dump_json_agrees_with_the_standard_library(value):
    assert dump_json(value) == reference_dump_json(value)


def test_dump_json_agrees_on_the_documents_the_package_writes(
    seed_gadget, final_graph
):
    data = seed_data_path().read_bytes()
    assert dump_json(json.loads(data)) == data
    lemmas = lemmas_report(seed_gadget).to_json_dict()
    assert dump_json(lemmas) == reference_dump_json(lemmas)
    at = final_graph.vertex_by_label
    colorable = counterexample_report(remove_edge(final_graph, at("d"), at("e")))
    doc = colorable.to_json_dict()
    assert not colorable.passed  # the report carries a coloring witness
    assert dump_json(doc) == reference_dump_json(doc)


def test_dump_json_writes_special_floats_and_refuses_what_json_refuses():
    specials = [math.nan, math.inf, -math.inf]
    assert dump_json(specials) == b"[\n  NaN,\n  Infinity,\n  -Infinity\n]\n"
    assert dump_json(specials) == reference_dump_json(specials)
    assert dump_json({}) == b"{}\n" and dump_json([]) == b"[]\n"
    refused = {"set": {1, 2}, "bytes": b"ab", "object": object(),
               "frozenset": {"a": [frozenset()]}}
    for name, bad in refused.items():
        message = f"Object of type {name} is not JSON serializable"
        with pytest.raises(TypeError, match=message):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError, match=message):
            dump_json(bad)
    # json would write an int key as its text; the package's writer
    # takes string keys only
    for bad in ({1: "a"}, {"a": {2: None}}):
        with pytest.raises(TypeError, match="keys must be str, not int"):
            dump_json(bad)


def test_graph6_optional_header_accepted():
    g = build_graph(4, [(0, 1), (2, 3)])
    data = encode(g, "graph6")
    assert decode(b">>graph6<<" + data, "graph6") == g
    assert decode(data + b"\n", "graph6") == g
    # trailing newlines are stripped a window at a time
    assert decode(data + b"\n" * 10_000, "graph6") == g
    with pytest.raises(FormatError, match="empty graph6 payload"):
        decode(b"\n" * 10_000, "graph6")


def test_a_large_sparse_graph6_decodes_in_memory_that_grows_with_its_edges():
    # 20,000 vertices and 40,000 edges take a 33 MB body; the decoder
    # visits only its bytes that are not "?", and holds no copy of it
    rng = random.Random(20_000)
    n = 20_000
    pairs = set()
    while len(pairs) < 40_000:
        u, v = sorted(rng.sample(range(n), 2))
        pairs.add((u, v))
    data = pack_graph6(n, pairs) + b"\n"
    assert len(data) > 33_000_000
    tracemalloc.start()
    try:
        g = decode_graph6(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == n and g.edges == tuple(sorted(pairs))
    assert peak < 32_000_000, peak


def test_graph6_large_n_uses_long_form():
    # 63 vertices and up take four header bytes; the dense and complete
    # 70-vertex graphs put a set bit in every body byte and column
    rng = random.Random(70)
    dense = [(u, v) for v in range(70) for u in range(v) if rng.random() < 0.4]
    complete = [(u, v) for v in range(70) for u in range(v)]
    for n, pairs in ((63, [(0, 62)]), (70, dense), (70, complete)):
        g = build_graph(n, pairs)
        data = encode(g, "graph6")
        assert data.startswith(b"~")
        assert decode(data, "graph6") == g


def test_graph6_errors_carry_byte_offsets():
    with pytest.raises(FormatError) as exc:
        decode(b"", "graph6")
    assert exc.value.offset == 0

    # body shorter than the header demands
    with pytest.raises(FormatError) as exc:
        decode_graph6(b"D")
    assert exc.value.offset == 1

    # byte below the printable graph6 range
    with pytest.raises(FormatError) as exc:
        decode_graph6(bytes([30]))
    assert exc.value.offset == 0

    # the first bad body byte is the one reported
    with pytest.raises(FormatError, match="invalid graph6 byte 127") as exc:
        decode_graph6(b">>graph6<<E?" + bytes([127, 30]))
    assert exc.value.offset == 12


def test_graph6_rejects_nonzero_padding():
    # B? is the empty 3-vertex graph: 3 data bits, then 3 padding bits
    good = b"B?"
    assert decode(good, "graph6").m == 0
    # the last padding bit, and the first one, right after the data bits
    for padding in (1, 4):
        bad = bytes([good[0], 63 + padding])
        with pytest.raises(FormatError, match="padding") as exc:
            decode(bad, "graph6")
        assert exc.value.offset == 1


def test_dimacs_shape():
    g = build_graph(3, [(0, 2), (1, 2)])
    assert encode(g, "dimacs") == b"p edge 3 2\ne 1 3\ne 2 3\n"


def test_dimacs_accepts_comments_and_blank_lines():
    data = b"c a comment\n\np edge 3 1\nc another\ne 1 2\n"
    g = decode(data, "dimacs")
    assert g.n == 3 and g.edges == ((0, 1),)


@pytest.mark.parametrize(
    "data, fragment",
    [
        (b"e 1 2\n", "before problem line"),
        (b"p edge 2 1\np edge 2 1\n", "duplicate problem line"),
        (b"p vertex 2 1\n", "expected 'p edge"),
        (b"p edge 2 x\n", "non-integer"),
        (b"p edge 2 1\ne 1 5\n", "outside"),
        (b"p edge 2 2\ne 1 2\n", "declares 2 edges"),
        (b"q 1 2\n", "unknown line kind"),
        (b"p edge 2 1\ne 1 x\n", "non-integer edge line"),
    ],
)
def test_dimacs_rejects_malformed_input(data, fragment):
    with pytest.raises(FormatError, match=fragment):
        decode(data, "dimacs")


@pytest.mark.parametrize(
    "data, kind, offset",
    [
        pytest.param(b"p edge 3 " + b"9" * 5000 + b"\n", "problem", 0, id="m"),
        pytest.param(b"p edge " + b"1_0" * 2500 + b" 0\n", "problem", 0, id="n"),
        pytest.param(b"p edge 3 1\ne 1 " + b"9" * 5000 + b"\n", "edge", 11, id="v"),
        pytest.param(b"p edge 3 1\ne -" + b"9" * 5000 + b" 1\n", "edge", 11, id="u"),
    ],
)
def test_dimacs_names_the_digit_limit(data, kind, offset):
    # an integer past the interpreter's digit limit is named as such, not
    # as a non-integer
    most = sys.get_int_max_str_digits()
    with pytest.raises(FormatError) as exc:
        decode(data, "dimacs")
    assert str(exc.value) == (
        f"{kind} line: an integer has more than {most} digits (byte offset {offset})"
    )


def test_quote_cuts_long_values_and_marks_the_cut():
    for short in ("abc", "x" * 78, 7, [1, 2, 3], None, "\u00e9"):
        assert quote(short) == repr(short)
    assert quote("x" * 79) == repr("x" * 79)[:80] + "... (81 characters)"
    long = "x" * 200_000
    assert quote(long) == repr(long)[:80] + "... (200002 characters)"
    numbers = list(range(100_000))
    assert quote(numbers) == repr(numbers)[:80] + f"... ({len(repr(numbers))} characters)"


def test_dimacs_error_offset_points_at_bad_line():
    data = b"c leading comment\np edge 2 1\ne 1 5\n"
    with pytest.raises(FormatError) as exc:
        decode(data, "dimacs")
    assert exc.value.offset == data.index(b"e 1 5")


def test_json_error_offsets_count_bytes():
    # the error sits at the end of the 19-byte file, the 16th character
    data = '{"name": "ééé", '.encode()
    assert len(data) == 19
    with pytest.raises(FormatError, match=r"\(byte offset 19\)") as exc:
        parse_json_payload(data)
    assert exc.value.offset == 19
    # in ASCII input bytes and characters are one
    for ascii_data in (b'{"name": "eee", ', b'{"n": 2, "edges": [[0', b"[1, 2"):
        with pytest.raises(FormatError) as exc:
            parse_json_payload(ascii_data)
        assert exc.value.offset == len(ascii_data)


def test_json_errors():
    with pytest.raises(FormatError):
        decode(b"[1, 2]", "json")
    with pytest.raises(FormatError) as exc:
        decode(b'{"n": 2, "edges": [[0', "json")
    assert exc.value.offset is not None
    with pytest.raises(FormatError, match="'n' and 'edges'"):
        decode(b'{"n": 2}', "json")
    with pytest.raises(FormatError, match="labels"):
        decode(b'{"n": 2, "edges": [], "labels": 7}', "json")
    with pytest.raises(FormatError, match="'n' must be an integer"):
        decode(b'{"n": "x", "edges": []}', "json")
    # floats and booleans are refused, not truncated
    for bad_n in (b"2.9", b"2.0", b"true"):
        with pytest.raises(FormatError, match="'n' must be an integer"):
            decode(b'{"n": %s, "edges": []}' % bad_n, "json")
    with pytest.raises(FormatError, match="integer pairs"):
        decode(b'{"n": 2, "edges": [[0, 1.7]]}', "json")
    # label keys are plain decimal vertex ids, never parsed leniently
    for key in (b"1_0", b" 3", b"+3", b"03", b"x", b"9" * 5000):
        with pytest.raises(FormatError, match="not a plain vertex id"):
            decode(b'{"n": 12, "edges": [], "labels": {"%s": "x"}}' % key, "json")
    # label values are JSON strings, never turned into their text
    for value in (b"null", b"[1, 2]", b"7", b"true", b'{"x": 1}'):
        with pytest.raises(FormatError, match="label of vertex 1 must be a string"):
            decode(b'{"n": 2, "edges": [], "labels": {"1": %s}}' % value, "json")
    g = decode(b'{"n": 12, "edges": [], "labels": {"0": "a", "10": "b"}}', "json")
    assert g.labels == ((0, "a"), (10, "b"))


def test_strict_bool_accepts_only_json_booleans():
    assert strict_bool(True, "flag") is True
    assert strict_bool(False, "flag") is False
    for bad in ("false", "true", 0, 1, None):
        with pytest.raises(FormatError, match="flag must be true or false"):
            strict_bool(bad, "flag")


def test_unknown_format_rejected():
    g = build_graph(1, [])
    with pytest.raises(FormatError):
        encode(g, "gml")
    with pytest.raises(FormatError):
        decode(b"", "gml")


def test_sniff_format():
    assert sniff_format("x.g6") == "graph6"
    assert sniff_format("x.graph6") == "graph6"
    assert sniff_format("X.COL") == "dimacs"
    assert sniff_format("x.dimacs") == "dimacs"
    assert sniff_format("x.json") == "json"
    with pytest.raises(FormatError):
        sniff_format("x.txt")
