"""Constrained gadget search and freezing.

The search walks a layered template once, as a list of steps that each
choose one of several edge tuples.  It prunes a partial candidate as
soon as it violates a monotone contract clause (a forbidden short cycle,
a terminal distance already too small).  The walk is one loop over an
explicit stack of per-step choices, so a template of any length stays
clear of the recursion limit, and the partial graph is one adjacency
bitmask per vertex: a new edge closes a forbidden k-cycle when simple
paths grown k - 3 edges from one end meet the other end's neighbors in
one mask test, and a terminal distance is a bitset BFS.  Each complete
candidate is rejected at its cheapest failing contract clause
(:func:`first_failing_clause`).  Planarity runs only on candidates that
pass every cheaper clause, and the co-facial test and the canonical form
only on those that pass them all.  Results stream in a fixed order:
fewer edges first, then smallest canonical form, so a search is
reproducible run to run.  An optional counter records the funnel: how
many candidates each stage enumerated, pruned, rejected, dropped as
duplicates and emitted.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from . import __version__ as _tool_version
from .canon import canonical_form
from .coloring import exhaustive_color_count, pattern_fixing, terminal_behavior
from .errors import (
    ContractError,
    ImproperFixingError,
    OracleMismatchError,
    SearchSpecError,
    SizeGuardError,
)
from .formats import strict_int, strict_str
from .gadgets import (
    InterfaceContract,
    TerminalGadget,
    first_failing_clause,
    seed_contract,
    terminals_cofacial,
    save_gadget,
    verify_contract,
)
from .graphs import MAX_VERTICES, build_graph

_INTRA_KINDS = ("none", "path", "cycle", "path_or_cycle", "clique")
_LINK_KINDS = ("subsets", "pairs", "matching")
# alternatives one step may list, all held at once before the walk; the
# stock pairs step has 455, the widened subsets step 63
_STEP_CAP = 65_536

_Edges = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class LayerSpec:
    """One template layer.

    ``intra`` fixes the edges inside the layer.  ``link_kind`` says how
    each vertex attaches to the earlier layer ``link_to``: "subsets"
    tries every nonempty neighborhood, "pairs" every 2-subset with the
    layer's vertices treated as interchangeable (choices enumerated in
    strictly increasing order), "matching" joins vertex i to target
    vertex i.
    """

    name: str
    size: int
    intra: str = "none"
    link_to: str | None = None
    link_kind: str | None = None


@dataclass(frozen=True)
class TemplateSpec:
    layers: tuple[LayerSpec, ...]


@dataclass(frozen=True)
class SearchSpec:
    """What to search for: every gadget the ``template`` can build that
    satisfies ``contract``, one per isomorphism class."""

    contract: InterfaceContract
    template: TemplateSpec


def _link_alternatives(kind: str, t: int, size: int) -> int:
    """How many alternatives one link step lists, for a target layer of
    ``t`` vertices, counted exactly up to ``_STEP_CAP`` and only just
    past it: a pairs layer chooses ``size`` of the C(t, 2) target pairs,
    a subsets vertex one of the 2^t - 1 nonempty target subsets."""
    if kind == "matching":
        return 1
    if kind == "subsets":
        return (1 << min(t, _STEP_CAP.bit_length())) - 1
    pairs = t * (t - 1) // 2
    k = min(size, pairs - size)  # C(p, size) = C(p, p - size)
    if k < 0:
        return 0
    count = 1
    for i in range(k):
        count = count * (pairs - i) // (i + 1)
        if count > _STEP_CAP:
            break
    return count


def _validate_template(template: TemplateSpec, arity: int | None) -> None:
    if not template.layers:
        raise SearchSpecError("template has no layers")
    sizes: dict[str, int] = {}
    for idx, layer in enumerate(template.layers):
        if layer.size <= 0:
            raise SearchSpecError(f"layer {layer.name!r} has size {layer.size}")
        if layer.name in sizes:
            raise SearchSpecError(f"duplicate layer name {layer.name!r}")
        if layer.intra not in _INTRA_KINDS:
            raise SearchSpecError(f"unknown intra kind {layer.intra!r}")
        if (layer.link_to is None) != (layer.link_kind is None):
            raise SearchSpecError(
                f"layer {layer.name!r} needs link_to and link_kind together"
            )
        if idx == 0 and layer.link_to is not None:
            raise SearchSpecError("the terminal layer cannot link anywhere")
        if layer.link_to is not None:
            if layer.link_to not in sizes:
                raise SearchSpecError(
                    f"layer {layer.name!r} links to unknown or later layer"
                    f" {layer.link_to!r}"
                )
            if layer.link_kind not in _LINK_KINDS:
                raise SearchSpecError(f"unknown link kind {layer.link_kind!r}")
            if layer.link_kind == "matching" and sizes[layer.link_to] != layer.size:
                raise SearchSpecError(
                    f"matching layer {layer.name!r} must equal"
                    f" {layer.link_to!r} in size"
                )
            if layer.link_kind == "pairs" and sizes[layer.link_to] < 2:
                raise SearchSpecError(
                    f"pairs layer {layer.name!r} needs a target of size >= 2"
                )
        sizes[layer.name] = layer.size
    if sum(sizes.values()) > MAX_VERTICES:  # before any per-vertex step
        raise SearchSpecError(f"template has more than {MAX_VERTICES} vertices")
    for layer in template.layers:  # before any step is listed
        if layer.link_kind is not None and _link_alternatives(
            layer.link_kind, sizes[layer.link_to], layer.size
        ) > _STEP_CAP:
            raise SearchSpecError(
                f"layer {layer.name!r} has a link step of more than"
                f" {_STEP_CAP} alternatives"
            )
    if arity and template.layers[0].size != arity:
        raise SearchSpecError(
            f"terminal layer size {template.layers[0].size} != contract"
            f" arity {arity}"
        )


def _intra_variants(kind: str, verts: range) -> list[_Edges]:
    path = tuple(zip(verts, verts[1:]))
    cycle = path + ((verts[0], verts[-1]),) if len(verts) >= 3 else path
    return {
        "none": [()],
        "path": [path],
        "cycle": [cycle],
        "path_or_cycle": [path, cycle] if cycle != path else [path],
        "clique": [tuple(itertools.combinations(verts, 2))],
    }[kind]


def _closes_forbidden_cycle(
    adj: list[int], new_edges: _Edges, lengths: frozenset[int]
) -> bool:
    """Would a cycle of a forbidden length pass through one of the new
    edges?  Edge (u, v) closes a k-cycle when a simple path of k - 1
    edges joins u to v: simple paths are extended from one end to depth
    k - 3, and the last two edges close in one mask test.  Lengths are
    3..6, so paths grow at most three edges; they grow from the end
    with fewer neighbors."""
    if not lengths:
        return False
    top = max(lengths) - 3
    for u, v in new_edges:
        if adj[u].bit_count() > adj[v].bit_count():
            u, v = v, u
        target = adj[v]
        level = [(u, (1 << u) | (1 << v))]
        for depth in range(top + 1):
            if depth + 3 in lengths:
                for x, seen in level:
                    if adj[x] & target & ~seen:
                        return True
            if depth == top:
                break
            grown = []
            for x, seen in level:
                rest = adj[x] & ~seen
                while rest:
                    low = rest & -rest
                    rest ^= low
                    grown.append((low.bit_length() - 1, seen | low))
            level = grown
    return False


def _distance_floor_violated(
    adj: list[int], floors: list[tuple[int, int, int]]
) -> bool:
    """Is a required terminal distance already beaten?  Distances only
    fall as edges arrive, so a too-short partial distance is final."""
    for u, v, floor in floors:
        seen = frontier = 1 << u
        for _ in range(floor - 1):
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach |= adj[low.bit_length() - 1]
            frontier = reach & ~seen
            if frontier >> v & 1:
                return True
            if not frontier:
                break
            seen |= frontier
    return False


def _template_steps(template: TemplateSpec) -> list[list[_Edges]]:
    """The template as a list of steps, each a list of alternative edge
    tuples.  Every intra step comes first, so candidates of one edge
    count come shape by shape; then one step per link: a matching has
    one alternative, a subsets vertex every nonempty neighborhood by
    size then lexicographically, a pairs layer every strictly increasing
    sequence of 2-subsets."""
    verts: dict[str, range] = {}
    start = 0
    for layer in template.layers:
        verts[layer.name] = range(start, start + layer.size)
        start += layer.size
    steps = [
        _intra_variants(layer.intra, verts[layer.name])
        for layer in template.layers
    ]
    for layer in template.layers:
        if layer.link_to is None:
            continue
        targets = verts[layer.link_to]
        own = verts[layer.name]
        if layer.link_kind == "matching":
            steps.append([tuple(zip(targets, own))])
        elif layer.link_kind == "pairs":
            steps.append([
                tuple((t, v) for v, pair in zip(own, pairs) for t in pair)
                for pairs in itertools.combinations(
                    itertools.combinations(targets, 2), layer.size
                )
            ])
        else:
            for v in own:
                steps.append([
                    tuple((t, v) for t in subset)
                    for size in range(1, len(targets) + 1)
                    for subset in itertools.combinations(targets, size)
                ])
    return steps


def _walk(
    steps: list[list[_Edges]],
    n: int,
    lengths: frozenset[int],
    floors: list[tuple[int, int, int]],
    funnel: Counter,
) -> list[_Edges]:
    """Every choice of one alternative per step that no monotone prune
    rejects, as a sorted edge tuple, in the order of the steps'
    alternatives.  One loop over an explicit stack of next-alternative
    indices, so a template's length never meets the recursion limit;
    the partial graph is one adjacency bitmask per vertex."""
    adj = [0] * n
    chosen: list[tuple[int, int]] = []
    out: list[_Edges] = []
    nxt = [0] * len(steps)
    si = 0
    while True:
        if si == len(steps):
            out.append(tuple(sorted(chosen)))
        elif nxt[si] < len(steps[si]):
            es = steps[si][nxt[si]]
            nxt[si] += 1
            for u, v in es:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            if _closes_forbidden_cycle(adj, es, lengths):
                funnel["pruned-cycle"] += 1
            elif floors and _distance_floor_violated(adj, floors):
                funnel["pruned-distance"] += 1
            else:
                chosen.extend(es)
                si += 1
                continue
            for u, v in es:
                adj[u] &= ~(1 << v)
                adj[v] &= ~(1 << u)
            continue
        else:
            nxt[si] = 0
        # every alternative below step si is done: undo step si - 1
        if si == 0:
            return out
        si -= 1
        es = steps[si][nxt[si] - 1]
        del chosen[len(chosen) - len(es):]
        for u, v in es:
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)


def _template_candidates(
    spec: SearchSpec, funnel: Counter
) -> Iterator[tuple[int, _Edges]]:
    """Yield (vertex_count, edges) for every template candidate surviving
    the monotone prunes, in edge-count order.  Each prune is counted in
    ``funnel`` under "pruned-cycle" or "pruned-distance"."""
    template = spec.template
    contract = spec.contract
    _validate_template(template, contract.arity)
    total = sum(layer.size for layer in template.layers)

    floors: list[tuple[int, int, int]] = []
    matrix = contract.exact_terminal_distances or contract.min_terminal_distances
    if matrix is not None:
        for i in range(len(matrix)):
            for j in range(i + 1, len(matrix)):
                if matrix[i][j] > 1:
                    floors.append((i, j, matrix[i][j]))

    out = _walk(
        _template_steps(template),
        total,
        contract.forbidden_cycle_lengths,
        floors,
        funnel,
    )
    for edges in sorted(out, key=len):
        yield total, edges


_FUNNEL_HEAD = ("enumerated", "pruned-cycle", "pruned-distance")
_FUNNEL_TAIL = ("not-cofacial", "duplicates", "emitted")


def funnel_line(funnel: Counter) -> str:
    """The funnel of a search as one line: enumeration and its prunes,
    then the rejections counted by clause name, then the co-facial
    test, deduplication and emission."""
    rejected = sorted(k for k in funnel if k not in _FUNNEL_HEAD + _FUNNEL_TAIL)
    keys = (*_FUNNEL_HEAD, *rejected, *_FUNNEL_TAIL)
    return "funnel: " + ", ".join(f"{key} {funnel[key]}" for key in keys)


def search_gadget(
    spec: SearchSpec, limit: int | None = None, funnel: Counter | None = None
) -> Iterator[TerminalGadget]:
    """Stream contract-satisfying gadgets in deterministic order.

    Exhaustive within the template when run to completion.  Each
    complete candidate is rejected at its cheapest failing clause by
    :func:`first_failing_clause`; only a candidate that passes every
    clause is kept, so every emitted gadget satisfies its whole contract.
    No two emitted gadgets are isomorphic.  When the contract requires
    planarity the terminals must additionally share a face, so the
    output can later sit inside larger assemblies.

    ``funnel``, when given, receives counts that the search itself never
    reads: "enumerated" candidates, partial candidates "pruned-cycle" and
    "pruned-distance" during enumeration, rejections under the name of
    the failing clause, "not-cofacial", isomorphic "duplicates" dropped,
    and "emitted".  :func:`funnel_line` prints it.
    """
    if limit is not None and limit <= 0:
        return
    arity = spec.contract.arity
    if arity is None:
        raise SearchSpecError("contract fixes no terminal count")
    if funnel is None:
        funnel = Counter()

    seen: set[bytes] = set()
    emitted = 0

    def consider(n: int, edges: tuple[tuple[int, int], ...]) -> TerminalGadget | None:
        labels = (
            {v: chr(ord("a") + v) for v in range(n)} if n <= 26 else None
        )
        graph = build_graph(n, edges, labels)
        gadget = TerminalGadget(graph, tuple(range(arity)), spec.contract)
        funnel["enumerated"] += 1
        failed = first_failing_clause(gadget)
        if failed is not None:
            funnel[failed] += 1
            return None
        if spec.contract.require_planar and not terminals_cofacial(gadget):
            funnel["not-cofacial"] += 1
            return None
        return gadget

    def emit_bucket(bucket: list[TerminalGadget]) -> Iterator[TerminalGadget]:
        nonlocal emitted
        keyed = sorted(
            ((canonical_form(g.graph).data, g) for g in bucket),
            key=lambda pair: pair[0],
        )
        for key, gadget in keyed:
            if key in seen:
                funnel["duplicates"] += 1
                continue
            seen.add(key)
            emitted += 1
            funnel["emitted"] += 1
            yield gadget
            if limit is not None and emitted >= limit:
                return

    for _, group in itertools.groupby(
        _template_candidates(spec, funnel), key=lambda c: len(c[1])
    ):
        gadgets = (consider(n, edges) for n, edges in group)
        yield from emit_bucket([g for g in gadgets if g is not None])
        if limit is not None and emitted >= limit:
            return


def seed_search_spec() -> SearchSpec:
    """The stock seed template: three terminals, a six-vertex boundary
    ring where every ring vertex touches a terminal, three bridge
    vertices each spanning two ring vertices, and an inner triangle
    matched to the bridges."""
    template = TemplateSpec(
        layers=(
            LayerSpec("terminals", 3),
            LayerSpec("ring", 6, intra="path_or_cycle", link_to="terminals", link_kind="subsets"),
            LayerSpec("bridges", 3, link_to="ring", link_kind="pairs"),
            LayerSpec("inner", 3, intra="clique", link_to="bridges", link_kind="matching"),
        )
    )
    return SearchSpec(contract=seed_contract(), template=template)


# ---------------------------------------------------------------------------
# freezing

def certify_and_freeze(gadget: TerminalGadget, path: str | Path) -> Path:
    """Re-verify a gadget, tabulate its terminal behavior (each refutation
    in it replayed as a proof), and write the frozen JSON file.

    Forbidden patterns within the exhaustive sweep's guard also get their
    sweep count under ``exhaustive_counts``; a nonzero count raises
    :class:`OracleMismatchError`, and nothing is written.
    """
    report = verify_contract(gadget)
    if not report.passed:
        bad = next(c for c in report.checks if not c.passed)
        raise ContractError(
            f"refusing to freeze: clause {bad.name} failed", clause=bad.name
        )
    behavior = terminal_behavior(gadget)
    counts: dict[str, int] = {}
    for pattern in sorted(gadget.contract.forbidden_patterns):
        fixing = pattern_fixing(gadget.terminals, pattern)
        try:
            counts[pattern] = exhaustive_color_count(gadget.graph, fixing)
        except (ImproperFixingError, SizeGuardError):
            # equal colors on adjacent terminals, or too big to sweep
            continue
        if counts[pattern] != 0:
            raise OracleMismatchError(
                f"pattern {pattern}: exhaustive sweep found"
                f" {counts[pattern]} colorings where the solver found none"
            )
    cofacial = None
    if gadget.contract.require_planar:
        cofacial = terminals_cofacial(gadget)
        if not cofacial:
            raise ContractError(
                "refusing to freeze: terminals are not co-facial",
                clause="cofacial",
            )
    verification = {
        "digest": report.target["canonical_digest"],
        "tool_version": _tool_version,
        "checks": [c.name for c in report.checks],
        "behavior": behavior.as_dict(),
        "terminals_cofacial": cofacial,
        "exhaustive_counts": counts,
    }
    path = Path(path)
    save_gadget(gadget, path, verification=verification)
    return path


# ---------------------------------------------------------------------------
# search spec serialization

def search_spec_to_json_dict(spec: SearchSpec) -> dict[str, Any]:
    return {
        "contract": spec.contract.to_json_dict(),
        "template": {
            "layers": [
                {
                    "name": layer.name,
                    "size": layer.size,
                    "intra": layer.intra,
                    "link_to": layer.link_to,
                    "link_kind": layer.link_kind,
                }
                for layer in spec.template.layers
            ]
        },
    }


def _layer_from_json_dict(ld: dict[str, Any]) -> LayerSpec:
    def link(key: str) -> str | None:
        value = ld.get(key)
        return None if value is None else strict_str(value, key)

    return LayerSpec(
        name=strict_str(ld["name"], "a layer name"),
        size=strict_int(ld["size"], "a layer size"),
        intra=strict_str(ld.get("intra", "none"), "intra"),
        link_to=link("link_to"),
        link_kind=link("link_kind"),
    )


def search_spec_from_json_dict(d: dict[str, Any]) -> SearchSpec:
    """A spec from its JSON form; keys it does not read, such as the
    retired ``max_vertices`` and ``dedup``, are ignored."""
    try:
        contract = InterfaceContract.from_json_dict(d["contract"])
        template = d.get("template")
        if template is None:
            raise ValueError("a spec needs a template")
        layers = tuple(_layer_from_json_dict(ld) for ld in template["layers"])
        return SearchSpec(contract=contract, template=TemplateSpec(layers=layers))
    except (KeyError, TypeError, ValueError) as exc:
        raise SearchSpecError(f"bad search spec: {exc}") from exc


def load_search_spec(path: str | Path) -> SearchSpec:
    try:
        payload = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SearchSpecError(f"bad search spec JSON: {exc}") from exc
    except ValueError:  # an integer past the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise SearchSpecError(
            f"bad search spec JSON: an integer has more than {limit} digits"
        ) from None
    return search_spec_from_json_dict(payload)
