"""Codecs: graph6, DIMACS edge lists, and a JSON gadget format.

graph6 and DIMACS carry only the vertex count and the edge set; labels
survive only the JSON format.  All encoders are deterministic byte for
byte.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Iterable

from .errors import FormatError
from .graphs import MAX_VERTICES, Graph, build_graph

FORMATS = ("graph6", "dimacs", "json")

_G6_HEADER = b">>graph6<<"
_G6_OFFSET = bytes((b + 63) & 255 for b in range(256))
_G6_PRINTABLE = bytes(range(63, 127))
# a body byte's six bits, high bit first, as text
_G6_SIX_BITS = {b: format(b - 63, "06b") for b in _G6_PRINTABLE}


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
    pos = 0
    if data.startswith(_G6_HEADER):
        pos = len(_G6_HEADER)
    data = data.rstrip(b"\n")
    if pos >= len(data):
        raise FormatError("empty graph6 payload", offset=pos)
    if data[pos] == ord("~"):
        if pos + 4 > len(data):
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
    if len(data) - pos != nbytes:
        raise FormatError(
            f"graph6 body for n={n} needs {nbytes} bytes, got {len(data) - pos}",
            offset=pos,
        )
    body = data[pos:]
    if body.translate(None, _G6_PRINTABLE):
        i = next(i for i, b in enumerate(body) if not (63 <= b <= 126))
        raise FormatError(f"invalid graph6 byte {body[i]!r}", offset=pos + i)
    bits = "".join([_G6_SIX_BITS[b] for b in body])
    # bit v*(v-1)/2 + u stands for edge (u, v): walk the set bits with
    # the column v and the index `start` of its first bit
    edges = []
    v, start = 1, 0
    idx = bits.find("1")
    while 0 <= idx < nbits:
        while idx >= start + v:
            start += v
            v += 1
        edges.append((idx - start, v))
        idx = bits.find("1", idx + 1)
    if idx >= 0:
        raise FormatError("nonzero padding bits in graph6 body", offset=pos)
    return build_graph(n, edges)


def encode_dimacs(g: Graph) -> bytes:
    lines = [f"p edge {g.n} {g.m}"]
    for u, v in g.edges:
        lines.append(f"e {u + 1} {v + 1}")
    return ("\n".join(lines) + "\n").encode("ascii")


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
                    f"expected 'p edge <n> <m>', got {line!r}", offset=offset
                )
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise FormatError(
                    f"non-integer problem line {line!r}", offset=offset
                ) from None
        elif parts[0] == "e":
            if n is None:
                raise FormatError("edge line before problem line", offset=offset)
            if len(parts) != 3:
                raise FormatError(f"malformed edge line {line!r}", offset=offset)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError(
                    f"non-integer edge line {line!r}", offset=offset
                ) from None
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise FormatError(
                    f"edge ({u}, {v}) outside 1..{n}", offset=offset
                )
            edges.append((u - 1, v - 1))
        else:
            raise FormatError(f"unknown line kind {parts[0]!r}", offset=offset)
        offset += len(raw) + 1
    if n is None:
        raise FormatError("missing problem line", offset=0)
    if m is not None and m != len(edges):
        raise FormatError(
            f"problem line declares {m} edges, file has {len(edges)}", offset=0
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
        raise FormatError(f"{name} must be an integer, got {value!r}")
    return value


def strict_bool(value: Any, name: str) -> bool:
    """``value`` if it is JSON ``true`` or ``false``; a string such as
    ``"false"`` or a number is refused, not read as truthy."""
    if not isinstance(value, bool):
        raise FormatError(f"{name} must be true or false, got {value!r}")
    return value


def strict_str(value: Any, name: str) -> str:
    """``value`` if it is a JSON string; a list or a number is refused,
    not turned into its text."""
    if not isinstance(value, str):
        raise FormatError(f"{name} must be a string, got {value!r}")
    return value


def _vertex_key(key: Any) -> int:
    """A label key as a vertex id: plain decimal digits without a leading
    zero, so that ``"1_0"``, ``" 3"``, ``"+3"`` and ``"03"`` are refused."""
    if not (isinstance(key, str) and key.isascii() and key.isdigit()
            and (key == "0" or key[0] != "0")):
        raise FormatError(f"label key {key!r} is not a plain vertex id")
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
        labels = {_vertex_key(k): str(v) for k, v in d["labels"].items()}
    n = strict_int(d["n"], "'n'")
    try:
        edges = [(strict_int(u, "u"), strict_int(v, "v")) for u, v in d["edges"]]
    except (TypeError, ValueError):
        raise FormatError("'edges' must be a list of integer pairs") from None
    return build_graph(n, edges, labels)


def encode_json(g: Graph) -> bytes:
    text = json.dumps(graph_to_json_dict(g), indent=2, sort_keys=True)
    return (text + "\n").encode("ascii")


def parse_json_payload(data: bytes) -> dict[str, Any]:
    try:
        payload = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError("gadget JSON is not UTF-8", offset=exc.start) from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc.msg}", offset=exc.pos) from None
    except ValueError:  # an integer past the interpreter's digit limit
        most = sys.get_int_max_str_digits()
        raise FormatError(f"bad JSON: an integer has more than {most} digits") from None
    if not isinstance(payload, dict):
        raise FormatError("gadget JSON must be an object")
    return payload


def decode_json(data: bytes) -> Graph:
    return graph_from_json_dict(parse_json_payload(data))


def encode(g: Graph, fmt: str) -> bytes:
    if fmt == "graph6":
        return encode_graph6(g)
    if fmt == "dimacs":
        return encode_dimacs(g)
    if fmt == "json":
        return encode_json(g)
    raise FormatError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def decode(data: bytes, fmt: str) -> Graph:
    if fmt == "graph6":
        return decode_graph6(data)
    if fmt == "dimacs":
        return decode_dimacs(data)
    if fmt == "json":
        return decode_json(data)
    raise FormatError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def sniff_format(path_name: str) -> str:
    lower = path_name.lower()
    if lower.endswith((".g6", ".graph6")):
        return "graph6"
    if lower.endswith((".col", ".dimacs")):
        return "dimacs"
    if lower.endswith(".json"):
        return "json"
    raise FormatError(
        f"cannot infer format from file name {path_name!r}; pass it explicitly"
    )
