"""Codecs: graph6, DIMACS edge lists, and a JSON gadget format.

graph6 and DIMACS carry only the vertex count and the edge set; labels
survive only the JSON format.  All encoders are deterministic byte for
byte.
"""

from __future__ import annotations

import json
import re
import sys
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable

from .errors import FormatError
from .graphs import MAX_VERTICES, Graph, build_graph

_G6_HEADER = b">>graph6<<"
_G6_OFFSET = bytes((b + 63) & 255 for b in range(256))
# the set bits of a body byte, counted from its high bit; None for a byte
# outside the printable range 63..126
_G6_SET_BITS = [
    tuple(i for i in range(6) if (b - 63) << i & 32) if 63 <= b <= 126 else None
    for b in range(256)
]
# a run of all-zero body bytes: the next byte to visit is where it ends
_G6_ZEROS = re.compile(rb"\?*").match

# how many characters of a value an error message quotes
_QUOTE_CAP = 80


def quote(value: Any) -> str:
    """``repr(value)`` for an error message, cut after 80 characters with
    the cut marked, so that a message stays one short line whatever the
    size of the input it names."""
    text = repr(value)
    if len(text) <= _QUOTE_CAP:
        return text
    return f"{text[:_QUOTE_CAP]}... ({len(text)} characters)"


def _g6_encode_n(n: int) -> bytes:
    if n <= 62:
        return bytes([63 + n])
    if n <= MAX_VERTICES:
        return b"~" + bytes(
            [63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)]
        )
    raise FormatError(f"graph6 encoder limited to {MAX_VERTICES} vertices, got {n}")


def pack_graph6(n: int, pairs: Iterable[tuple[int, int]]) -> bytes:
    """Standard graph6 of ``n`` vertices joined by ``pairs`` (endpoints in
    either order): header byte(s), then the upper triangle of the
    adjacency matrix in column order, six bits per output byte, high bit
    first, zero-padded, each byte offset by 63."""
    header = _g6_encode_n(n)
    body = bytearray(-(-(n * (n - 1) // 2) // 6))
    for u, v in pairs:
        if u > v:
            u, v = v, u
        byte, bit = divmod(v * (v - 1) // 2 + u, 6)
        body[byte] |= 32 >> bit
    return header + body.translate(_G6_OFFSET)


def encode_graph6(g: Graph) -> bytes:
    """Standard graph6 of ``g`` (see ``pack_graph6``)."""
    return pack_graph6(g.n, g.edges)


def decode_graph6(data: bytes) -> Graph:
    """The graph in graph6 ``data``, with an optional ``>>graph6<<``
    header and trailing newlines.  Only the body bytes that are not ``?``
    (all zero bits) are visited, so time and memory beyond ``data`` grow
    with the edges rather than with the n(n-1)/12-byte body."""
    pos = 0
    if data.startswith(_G6_HEADER):
        pos = len(_G6_HEADER)
    # the end of the data without its trailing newlines, found a window
    # at a time rather than by copying all of it with rstrip
    end = len(data)
    while end and data[end - 1] == 10:
        window = data[max(0, end - 4096) : end]
        end -= len(window) - len(window.rstrip(b"\n"))
    if pos >= end:
        raise FormatError("empty graph6 payload", offset=pos)
    if data[pos] == ord("~"):
        if pos + 4 > end:
            raise FormatError("truncated graph6 vertex count", offset=pos)
        chunk = data[pos + 1 : pos + 4]
        for i, b in enumerate(chunk):
            if not (63 <= b <= 126):
                raise FormatError(
                    f"invalid graph6 byte {b!r}", offset=pos + 1 + i
                )
        n = ((chunk[0] - 63) << 12) | ((chunk[1] - 63) << 6) | (chunk[2] - 63)
        pos += 4
    else:
        b = data[pos]
        if not (63 <= b <= 126):
            raise FormatError(f"invalid graph6 byte {b!r}", offset=pos)
        n = b - 63
        pos += 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if end - pos != nbytes:
        raise FormatError(
            f"graph6 body for n={n} needs {nbytes} bytes, got {end - pos}",
            offset=pos,
        )
    # bit v*(v-1)/2 + u of the body stands for edge (u, v): walk the set
    # bits with the column v and the index `start` of its first bit
    edges = []
    v, start = 1, 0
    i = _G6_ZEROS(data, pos, end).end()
    while i < end:
        bits = _G6_SET_BITS[data[i]]
        if bits is None:
            raise FormatError(f"invalid graph6 byte {data[i]!r}", offset=i)
        base = 6 * (i - pos)
        for bit in bits:
            idx = base + bit
            if idx >= nbits:
                raise FormatError("nonzero padding bits in graph6 body", offset=pos)
            while idx >= start + v:
                start += v
                v += 1
            edges.append((idx - start, v))
        i = _G6_ZEROS(data, i + 1, end).end()
    return build_graph(n, edges)


def encode_dimacs(g: Graph) -> bytes:
    lines = [f"p edge {g.n} {g.m}"]
    for u, v in g.edges:
        lines.append(f"e {u + 1} {v + 1}")
    return ("\n".join(lines) + "\n").encode("ascii")


# a token ``int`` reads as a decimal integer; one it refuses anyway has
# more digits than the interpreter converts
_DIMACS_INT = re.compile(r"[+-]?[0-9]+(?:_[0-9]+)*")


def _dimacs_ints(tokens: list[str], kind: str, line: str, offset: int) -> list[int]:
    """The integers of a ``kind`` line, naming what is wrong with them if
    they are not all integers."""
    try:
        return [int(t) for t in tokens]
    except ValueError:
        if all(_DIMACS_INT.fullmatch(t) for t in tokens):
            most = sys.get_int_max_str_digits()
            raise FormatError(
                f"{kind} line: an integer has more than {most} digits", offset=offset
            ) from None
        raise FormatError(
            f"non-integer {kind} line {quote(line)}", offset=offset
        ) from None


def decode_dimacs(data: bytes) -> Graph:
    n = None
    m = None
    edges: list[tuple[int, int]] = []
    offset = 0
    for raw in data.split(b"\n"):
        line = raw.decode("ascii", errors="replace").strip()
        if not line or line.startswith("c"):
            offset += len(raw) + 1
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise FormatError("duplicate problem line", offset=offset)
            if len(parts) != 4 or parts[1] != "edge":
                raise FormatError(
                    f"expected 'p edge <n> <m>', got {quote(line)}", offset=offset
                )
            n, m = _dimacs_ints(parts[2:], "problem", line, offset)
        elif parts[0] == "e":
            if n is None:
                raise FormatError("edge line before problem line", offset=offset)
            if len(parts) != 3:
                raise FormatError(f"malformed edge line {quote(line)}", offset=offset)
            u, v = _dimacs_ints(parts[1:], "edge", line, offset)
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise FormatError(
                    f"edge ({quote(u)}, {quote(v)}) outside 1..{quote(n)}",
                    offset=offset,
                )
            edges.append((u - 1, v - 1))
        else:
            raise FormatError(f"unknown line kind {quote(parts[0])}", offset=offset)
        offset += len(raw) + 1
    if n is None:
        raise FormatError("missing problem line", offset=0)
    if m is not None and m != len(edges):
        raise FormatError(
            f"problem line declares {quote(m)} edges, file has {len(edges)}", offset=0
        )
    return build_graph(n, edges)


def graph_to_json_dict(g: Graph) -> dict[str, Any]:
    d: dict[str, Any] = {"n": g.n, "edges": [list(e) for e in g.edges]}
    if g.labels:
        d["labels"] = {str(v): s for v, s in g.labels}
    return d


def strict_int(value: Any, name: str) -> int:
    """``value`` if it is an integer; a float or a bool is refused, not
    truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{name} must be an integer, got {quote(value)}")
    return value


def strict_bool(value: Any, name: str) -> bool:
    """``value`` if it is JSON ``true`` or ``false``; a string such as
    ``"false"`` or a number is refused, not read as truthy."""
    if not isinstance(value, bool):
        raise FormatError(f"{name} must be true or false, got {quote(value)}")
    return value


def strict_str(value: Any, name: str) -> str:
    """``value`` if it is a JSON string; a list or a number is refused,
    not turned into its text."""
    if not isinstance(value, str):
        raise FormatError(f"{name} must be a string, got {quote(value)}")
    return value


def strict_list(value: Any, name: str) -> list:
    """``value`` if it is a JSON list; a string is refused, not read
    letter by letter."""
    if not isinstance(value, list):
        raise FormatError(f"{name} must be a list, got {quote(value)}")
    return value


def strict_object(value: Any, name: str) -> dict:
    """``value`` if it is a JSON object."""
    if not isinstance(value, dict):
        raise FormatError(f"{name} must be an object, got {quote(value)}")
    return value


def _vertex_key(key: Any) -> int:
    """A label key as a vertex id: plain decimal digits without a leading
    zero, so that ``"1_0"``, ``" 3"``, ``"+3"`` and ``"03"`` are refused."""
    if not (isinstance(key, str) and key.isascii() and key.isdigit()
            and (key == "0" or key[0] != "0")):
        raise FormatError(f"label key {quote(key)} is not a plain vertex id")
    try:
        return int(key)
    except ValueError:  # past the interpreter's digit limit
        raise FormatError(
            f"label key of {len(key)} digits is not a plain vertex id"
        ) from None


def graph_from_json_dict(d: dict[str, Any]) -> Graph:
    if not isinstance(d, dict) or "n" not in d or "edges" not in d:
        raise FormatError("JSON gadget object needs 'n' and 'edges'")
    labels = None
    if "labels" in d and d["labels"] is not None:
        if not isinstance(d["labels"], dict):
            raise FormatError("'labels' must map vertex ids to strings")
        labels = {
            _vertex_key(k): strict_str(v, f"the label of vertex {k}")
            for k, v in d["labels"].items()
        }
    n = strict_int(d["n"], "'n'")
    try:
        edges = [(strict_int(u, "u"), strict_int(v, "v")) for u, v in d["edges"]]
    except (TypeError, ValueError):
        raise FormatError("'edges' must be a list of integer pairs") from None
    return build_graph(n, edges, labels)


def dump_json(obj: Any) -> bytes:
    """The one JSON byte format of every file the package writes: the
    bytes of ``json.dumps(obj, indent=2, sort_keys=True)`` in ASCII plus
    a newline.  Each item is on its own line, two spaces deeper than its
    container, with ``,`` after all but the last, ``": "`` after each key
    and ``{}`` / ``[]`` for an empty container; NaN and the infinities
    are written ``NaN``, ``Infinity`` and ``-Infinity``, as ``json``
    writes them.  A key that is not a string (an int too) raises
    ``TypeError``, as does a value ``json`` refuses (a set, bytes, an
    object), with ``json``'s message.  With ``indent`` set ``json.dumps``
    runs its pure-Python encoder; this writer joins its pieces once."""
    out: list[str] = []
    _write_json(obj, "\n", out)
    out.append("\n")
    return "".join(out).encode("ascii")


_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write_json(o: Any, nl: str, out: list[str]) -> None:
    """Append the pieces of ``o`` to ``out``; ``nl`` is a newline and the
    indent of the line ``o`` starts on."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        text = float.__repr__(o)
        out.append(_JSON_FLOATS.get(text, text))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        sep, comma = "[" + inner, "," + inner
        for item in o:
            out.append(sep)
            _write_json(item, inner, out)
            sep = comma
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(o):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write_json(o[key], inner, out)
            sep = comma
        out.append(nl + "}")
    else:
        raise TypeError(
            f"Object of type {o.__class__.__name__} is not JSON serializable"
        )


def encode_json(g: Graph) -> bytes:
    return dump_json(graph_to_json_dict(g))


def parse_json_payload(data: bytes) -> Any:
    """The one JSON reader of every file the package reads: ``data`` as
    UTF-8 whatever the locale, decoded by ``json``.  Each caller checks
    the shape of what it gets."""
    try:
        text = data.decode("utf-8")
        return json.loads(text)
    except UnicodeDecodeError as exc:
        raise FormatError("JSON input is not UTF-8", offset=exc.start) from None
    except json.JSONDecodeError as exc:
        # ``pos`` counts characters; the offset counts bytes
        offset = len(text[: exc.pos].encode("utf-8"))
        raise FormatError(f"bad JSON: {exc.msg}", offset=offset) from None
    except ValueError:  # an integer past the interpreter's digit limit
        most = sys.get_int_max_str_digits()
        raise FormatError(f"bad JSON: an integer has more than {most} digits") from None


def decode_json(data: bytes) -> Graph:
    return graph_from_json_dict(parse_json_payload(data))


# each format by its name: its encoder, its decoder and the file suffixes
# that name it, which are also the names ``--format``, ``--from`` and
# ``--to`` take
_FORMATS = {
    "graph6": (encode_graph6, decode_graph6, ("g6", "graph6")),
    "dimacs": (encode_dimacs, decode_dimacs, ("col", "dimacs")),
    "json": (encode_json, decode_json, ("json",)),
}
FORMATS = tuple(_FORMATS)
FORMAT_NAMES = {
    suffix: fmt for fmt, (_, _, suffixes) in _FORMATS.items() for suffix in suffixes
}


def _codec(fmt: str) -> tuple:
    if fmt not in FORMATS:
        raise FormatError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return _FORMATS[fmt]


def encode(g: Graph, fmt: str) -> bytes:
    return _codec(fmt)[0](g)


def decode(data: bytes, fmt: str) -> Graph:
    return _codec(fmt)[1](data)


def sniff_format(path_name: str) -> str:
    _, dot, suffix = path_name.lower().rpartition(".")
    if dot and suffix in FORMAT_NAMES:
        return FORMAT_NAMES[suffix]
    raise FormatError(
        f"cannot infer format from file name {path_name!r}; pass it explicitly"
    )
