"""Constrained gadget search and freezing.

The search walks a layered template once, as a list of steps that each
choose one of several edge tuples.  It prunes a partial candidate as
soon as it violates a monotone contract clause (a forbidden short cycle,
a terminal distance already too small).  The walk is one loop over an
explicit stack of per-step choices, so a template of any length stays
clear of the recursion limit, and the partial graph is one adjacency
bitmask per vertex: a new edge closes a forbidden k-cycle when simple
paths grown k - 3 edges from one end meet the other end's neighbors in
one mask test, and a terminal distance is a bitset BFS.  A subsets
vertex's step is a hub step: every edge of it meets that vertex v, so a
forbidden cycle through its new edges runs v - t ... w - v with t a new
neighbor.  On entry to such a step the paths t ... w are grown once per
target t, and each alternative is kept or pruned by one mask test per
target it picks, instead of by regrowing those paths for every
alternative.  The walk skips orderings that only swap interchangeable
vertices (lex-leader symmetry breaking): an interchangeable pairs layer
lists its 2-subsets in strictly increasing order, and the vertices of an
interchangeable subsets layer choose their neighborhoods in
nondecreasing order (see :class:`LayerSpec`); any other pairs layer
gives its 2-subsets to its vertices in every order.  The first member
of each isomorphism class in the full walk's order is lex-least in its
orbit, so it is still walked, and the search emits the same gadgets in
the same order.  Everything the search holds before its first check,
the edges its steps list and then the edges of every candidate the walk
keeps, counts against one budget, ``_HOLD_CAP`` edges, and a template
that needs more is refused.  Each complete candidate is rejected at its
cheapest failing contract clause (:func:`first_failing_clause`).
Planarity runs only on candidates that pass every cheaper clause, and
the co-facial test and the canonical form only on those that pass them
all.  Each find carries that form's digest as its evidence, and
:func:`certify_and_freeze` writes its record from it instead of
checking the find again.  Results stream in a fixed order:
fewer edges first, then smallest canonical form, so a search is
reproducible run to run.  An optional counter records the funnel: how
many candidates each stage enumerated, pruned, rejected, dropped as
duplicates and emitted.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator

from . import __version__ as _tool_version
from .canon import canonical_form
from .coloring import terminal_behavior
from .errors import ContractError, SearchSpecError
from .formats import (
    parse_json_payload, strict_int, strict_list, strict_object, strict_str,
)
from .gadgets import (
    InterfaceContract,
    TerminalGadget,
    _contract_clauses,
    first_failing_clause,
    require_contract,
    save_gadget,
    seed_contract,
    terminals_cofacial,
)
from .graphs import MAX_VERTICES, build_graph

_INTRA_KINDS = ("none", "path", "cycle", "path_or_cycle", "clique")
_LINK_KINDS = ("subsets", "pairs", "matching")
# edges the search holds before it checks its first candidate: every edge
# its steps list, then every edge of each candidate the walk keeps, since
# the walk sorts them all by edge count first.  It bounds memory where a
# cap on alternatives or candidates cannot, as one candidate may hold
# thousands of edges.  The stock template lists 2,819 edges and holds 46,
# the widened one 665 and 2,634, the 1,201-step deep template 1,204 and
# 3,604; a template refused here peaks near 100 MB in under a second
_HOLD_CAP = 1 << 20

_Edges = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class LayerSpec:
    """One template layer.

    ``intra`` fixes the edges inside the layer.  ``link_kind`` says how
    each vertex attaches to the earlier layer ``link_to``: "subsets"
    tries every nonempty neighborhood, "pairs" gives the vertices
    distinct 2-subsets, "matching" joins vertex i to target vertex i.

    A layer is interchangeable when each of its ``intra`` variants is
    empty or complete ("none", "clique", a "cycle" on 3 vertices, a
    "path" on 2) and every layer linking to it links by "subsets", or by
    "matching" or "pairs" and is interchangeable itself: then permuting
    its vertices, and those of its matching and pairs dependents along
    with them, maps the template onto itself.  The vertices of an
    interchangeable subsets layer choose their neighborhoods in
    nondecreasing order (size, then lexicographic), and those of an
    interchangeable pairs layer take their 2-subsets in strictly
    increasing order, since every other order only swaps them.  A pairs
    layer that is not interchangeable takes them in every order.
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
    if arity and template.layers[0].size != arity:
        raise SearchSpecError(
            f"terminal layer size {template.layers[0].size} != contract"
            f" arity {arity}"
        )


def _intra_variants(kind: str, verts: range, most: int) -> list[_Edges]:
    # a clique is drawn only one edge past ``most``, enough to refuse it
    if kind == "none":
        return [()]
    if kind == "clique":
        return [tuple(itertools.islice(itertools.combinations(verts, 2), most + 1))]
    path = tuple(zip(verts, verts[1:]))
    cycle = path + ((verts[0], verts[-1]),) if len(verts) >= 3 else path
    return {
        "path": [path],
        "cycle": [cycle],
        "path_or_cycle": [path, cycle] if cycle != path else [path],
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


def _interchangeable_layers(
    template: TemplateSpec, intra: list[list[_Edges]]
) -> set[str]:
    """Names of the interchangeable layers (see :class:`LayerSpec`),
    given each layer's own edge sets.  Links point to earlier layers, so
    one pass from the last layer back decides it."""
    free: set[str] = set()
    pinned: set[str] = set()
    for layer, variants in zip(reversed(template.layers), reversed(intra)):
        whole = layer.size * (layer.size - 1) // 2
        if layer.name not in pinned and all(
            len(edges) in (0, whole) for edges in variants
        ):
            free.add(layer.name)
        if layer.link_kind in ("matching", "pairs") and layer.name not in free:
            pinned.add(layer.link_to)
    return free


def _over_budget(what: str) -> SearchSpecError:
    return SearchSpecError(
        f"template holds more than {_HOLD_CAP} edges before its first"
        f" check ({what})"
    )


def _template_steps(
    template: TemplateSpec,
) -> tuple[list[list[_Edges]], list[int | None], list[int | None], int]:
    """The template as a list of steps, each a list of alternative edge
    tuples; for each step the earlier step whose choice it starts from,
    or None; for each step the vertex every edge of it meets (its hub),
    or None; and how many edges of ``_HOLD_CAP`` the listing leaves.
    Every intra step comes first, so candidates of one edge count come
    shape by shape; then one step per link: a matching has one
    alternative, a subsets vertex every nonempty neighborhood by size
    then lexicographically, with the vertex as its hub, a pairs layer
    every sequence of distinct 2-subsets, strictly increasing when the
    layer is interchangeable.  The vertices of an interchangeable
    subsets layer choose in nondecreasing order, each from its
    predecessor's choice on, so no two candidates differ only by
    swapping them.  Each edge is counted as it is listed, and past the
    budget the template is refused, naming the layer being listed."""
    left = _HOLD_CAP

    def listed(layer: LayerSpec, alternatives: Iterable[_Edges]) -> list[_Edges]:
        nonlocal left
        step = []
        for es in alternatives:
            left -= len(es)
            if left < 0:
                raise _over_budget(f"listing layer {layer.name!r}")
            step.append(es)
        return step

    verts: dict[str, range] = {}
    start = 0
    for layer in template.layers:
        verts[layer.name] = range(start, start + layer.size)
        start += layer.size
    steps = [
        listed(layer, _intra_variants(layer.intra, verts[layer.name], left))
        for layer in template.layers
    ]
    free = _interchangeable_layers(template, steps)
    follows: list[int | None] = [None] * len(steps)
    hubs: list[int | None] = [None] * len(steps)
    for layer in template.layers:
        if layer.link_to is None:
            continue
        targets = verts[layer.link_to]
        own = verts[layer.name]
        if layer.link_kind == "matching":
            steps.append(listed(layer, [tuple(zip(targets, own))]))
            follows.append(None)
            hubs.append(None)
        elif layer.link_kind == "pairs":
            # the 2-subsets are built whole before the first alternative,
            # and a nonempty step lists at least two edges per 2-subset
            pairs = len(targets) * (len(targets) - 1) // 2
            if layer.size <= pairs and 2 * pairs > left:
                raise _over_budget(f"listing layer {layer.name!r}")
            orders = (
                itertools.combinations if layer.name in free
                else itertools.permutations
            )
            steps.append(listed(layer, (
                tuple((t, v) for v, pair in zip(own, pairs) for t in pair)
                for pairs in orders(itertools.combinations(targets, 2), layer.size)
            )))
            follows.append(None)
            hubs.append(None)
        else:
            for v in own:
                tied = v != own[0] and layer.name in free
                follows.append(len(steps) - 1 if tied else None)
                hubs.append(v)
                steps.append(listed(layer, (
                    tuple((t, v) for t in subset)
                    for size in range(1, len(targets) + 1)
                    for subset in itertools.combinations(targets, size)
                )))
    return steps, follows, hubs, left


def _hub_survivors(
    adj: list[int],
    hub: int,
    masks: list[int],
    start: int,
    lengths: frozenset[int],
) -> list[int]:
    """The alternatives from ``start`` on of a hub step, one whose every
    edge meets vertex ``hub``, that close no forbidden cycle; ``masks``
    holds each alternative's other ends S as one bitmask.  A forbidden
    k-cycle through a new edge runs hub - t ... w - hub, with t in S, w in
    S or already a neighbor of the hub, and t ... w a simple path of
    k - 2 edges that avoids the hub in the graph as it stands.  Those
    paths are found once per end t, for every w at once: they grow k - 4
    edges from t and close on w through one common neighbor in one mask
    test (a triangle needs t and w adjacent).  The w so reached make the
    mask ``reach[t]``, and an
    alternative survives when ``reach[t] & (S | adj[hub])`` is empty for
    every t in S."""
    near = adj[hub]
    ends = 0
    for mask in masks[start:]:
        ends |= mask
    top = max(lengths) - 4  # the most edges grown before the last two
    reach: dict[int, int] = {}
    rest = ends
    while rest:
        bit = rest & -rest
        rest ^= bit
        t = bit.bit_length() - 1
        closers = (ends ^ bit) | near  # every w a cycle from t could close on
        hit = adj[t] & closers if 3 in lengths else 0
        level = [(t, bit | 1 << hub)] if closers else []
        for depth in range(top + 1):
            grown = []
            for x, seen in level:
                if depth + 4 in lengths:
                    open_ = closers & ~seen & ~hit
                    while open_:
                        w = open_ & -open_
                        open_ ^= w
                        if adj[x] & adj[w.bit_length() - 1] & ~seen:
                            hit |= w
                if depth < top:
                    out = adj[x] & ~seen
                    while out:
                        low = out & -out
                        out ^= low
                        grown.append((low.bit_length() - 1, seen | low))
            level = grown
        reach[bit] = hit
    survivors = []
    for i in range(start, len(masks)):
        closing = masks[i] | near
        rest = masks[i]
        while rest:
            bit = rest & -rest
            rest ^= bit
            if reach[bit] & closing:
                break
        else:
            survivors.append(i)
    return survivors


def _walk(
    steps: list[list[_Edges]],
    follows: list[int | None],
    hubs: list[int | None],
    n: int,
    lengths: frozenset[int],
    floors: list[tuple[int, int, int]],
    funnel: Counter,
    left: int,
) -> list[_Edges]:
    """Every choice of one alternative per step that no monotone prune
    rejects, as a sorted edge tuple, in the order of the steps'
    alternatives; a step with an entry in ``follows`` starts at the
    alternative that step chose.  One loop over an explicit stack of
    per-step queues of alternatives to try, so a template's length never
    meets the recursion limit; the partial graph is one adjacency bitmask
    per vertex.  A step with an entry in ``hubs`` (a subsets vertex) is
    cycle-pruned once on entry, for all of its alternatives, by
    :func:`_hub_survivors`: its queue holds only the survivors, and the
    rest count as "pruned-cycle" in one addition.  Every other
    alternative is cycle-pruned alone by :func:`_closes_forbidden_cycle`,
    and every alternative past the cycle prune meets the distance floors.
    Each candidate kept spends its edges from the ``left`` edges of
    ``_HOLD_CAP``, and past them the walk raises
    :class:`SearchSpecError`."""
    masks = [
        None if hub is None else [sum(1 << t for t, _ in es) for es in step]
        for step, hub in zip(steps, hubs)
    ]
    adj = [0] * n
    chosen: list[tuple[int, int]] = []
    out: list[_Edges] = []
    # per step, the alternatives this entry tries and how many it has tried
    queue: list[range | list[int]] = [range(0)] * len(steps)
    tried = [0] * len(steps)

    def enter(si: int) -> None:
        lead = follows[si]
        start = 0 if lead is None else queue[lead][tried[lead] - 1]
        tried[si] = 0
        if hubs[si] is None or not lengths:
            queue[si] = range(start, len(steps[si]))
            return
        queue[si] = _hub_survivors(adj, hubs[si], masks[si], start, lengths)
        pruned = len(steps[si]) - start - len(queue[si])
        if pruned:
            funnel["pruned-cycle"] += pruned

    si = 0
    enter(si)
    while True:
        if si == len(steps):
            left -= len(chosen)
            if left < 0:
                raise _over_budget("holding candidates")
            out.append(tuple(sorted(chosen)))
        elif tried[si] < len(queue[si]):
            es = steps[si][queue[si][tried[si]]]
            tried[si] += 1
            for u, v in es:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            if hubs[si] is None and _closes_forbidden_cycle(adj, es, lengths):
                funnel["pruned-cycle"] += 1
            elif floors and _distance_floor_violated(adj, floors):
                funnel["pruned-distance"] += 1
            else:
                chosen.extend(es)
                si += 1
                if si < len(steps):
                    enter(si)
                continue
            for u, v in es:
                adj[u] &= ~(1 << v)
                adj[v] &= ~(1 << u)
            continue
        # every alternative below step si is done: undo step si - 1
        if si == 0:
            return out
        si -= 1
        es = steps[si][queue[si][tried[si] - 1]]
        del chosen[len(chosen) - len(es):]
        for u, v in es:
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)


def _template_candidates(spec: SearchSpec, funnel: Counter) -> list[_Edges]:
    """The edges of every template candidate surviving the monotone
    prunes, in edge-count order; each has the template's vertices.  Each
    prune is counted in ``funnel`` under "pruned-cycle" or
    "pruned-distance"."""
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

    steps, follows, hubs, left = _template_steps(template)
    out = _walk(
        steps,
        follows,
        hubs,
        total,
        contract.forbidden_cycle_lengths,
        floors,
        funnel,
        left,
    )
    return sorted(out, key=len)


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

    n = sum(layer.size for layer in spec.template.layers)
    labels = {v: chr(ord("a") + v) for v in range(n)} if n <= 26 else None
    seen: set[bytes] = set()
    emitted = 0

    def consider(edges: _Edges) -> TerminalGadget | None:
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
            ((canonical_form(g.graph), g) for g in bucket),
            key=lambda pair: pair[0].data,
        )
        for form, gadget in keyed:
            if form.data in seen:
                funnel["duplicates"] += 1
                continue
            seen.add(form.data)
            object.__setattr__(gadget, "search_digest", form.digest)
            emitted += 1
            funnel["emitted"] += 1
            yield gadget
            if limit is not None and emitted >= limit:
                return

    for _, group in itertools.groupby(_template_candidates(spec, funnel), key=len):
        gadgets = (consider(edges) for edges in group)
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
    """Verify a gadget, tabulate its terminal behavior, and write the
    frozen JSON file.

    A find of :func:`search_gadget` passed its clauses and, under
    planarity, the co-facial test in the search, and is not checked
    again.  Any other gadget that fails either raises
    :class:`ContractError`, and nothing is written.  The forbidden
    patterns' rows come from their clauses' refutations; the table
    solves only the other rows.  Every refutation is checked as a proof.
    """
    digest = gadget.search_digest
    if digest is None:
        digest = require_contract(gadget).target["canonical_digest"]
    behavior = terminal_behavior(gadget, gadget.contract.forbidden_patterns)
    cofacial = None
    if gadget.contract.require_planar:
        cofacial = gadget.search_digest is not None or terminals_cofacial(gadget)
        if not cofacial:
            raise ContractError(
                "refusing to freeze: terminals are not co-facial",
                clause="cofacial",
            )
    verification = {
        "digest": digest,
        "tool_version": _tool_version,
        "checks": [name for name, _ in _contract_clauses(gadget)],
        "behavior": behavior,
        "terminals_cofacial": cofacial,
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


def _layer_from_json_dict(ld: Any) -> LayerSpec:
    def link(key: str) -> str | None:
        value = ld.get(key)
        return None if value is None else strict_str(value, key)

    strict_object(ld, "a layer")
    return LayerSpec(
        name=strict_str(ld.get("name"), "a layer name"),
        size=strict_int(ld.get("size"), "a layer size"),
        intra=strict_str(ld.get("intra", "none"), "intra"),
        link_to=link("link_to"),
        link_kind=link("link_kind"),
    )


def search_spec_from_json_dict(d: Any) -> SearchSpec:
    """A spec from its JSON form; keys it does not read, such as the
    retired ``max_vertices`` and ``dedup``, are ignored."""
    try:
        template = strict_object(d, "a search spec").get("template")
        contract = InterfaceContract.from_json_dict(d.get("contract"))
        if template is None:
            raise ValueError("a spec needs a template")
        layers = strict_list(strict_object(template, "template").get("layers"), "layers")
        layers = tuple(_layer_from_json_dict(ld) for ld in layers)
        return SearchSpec(contract=contract, template=TemplateSpec(layers=layers))
    except (KeyError, TypeError, ValueError) as exc:
        raise SearchSpecError(f"bad search spec: {exc}") from exc


def load_search_spec(path: str | Path) -> SearchSpec:
    """The spec in the JSON file at ``path``; a file that is not JSON raises
    ``FormatError``, as a graph file does, and a bad shape ``SearchSpecError``."""
    return search_spec_from_json_dict(parse_json_payload(Path(path).read_bytes()))
