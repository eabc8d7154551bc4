"""Constrained gadget search and freezing.

The search walks a layered template once, as a list of steps.  A step is
one tuple ``(alternatives, tied, hub, masks)``: the edge tuples it
chooses one of; whether it is tied to the step just before it, and so
starts at the alternative that step chose; and, for a subsets vertex,
that vertex as ``hub``, which every edge of the step meets, with each
alternative's other ends as one bitmask in ``masks`` (both ``None`` on
any other step).  The steps with at most one alternative (a fixed intra
shape, a matching) are walked first, so their edges are in the partial
graph from the first choice on; they add no branch, so the candidates,
their order and the gadgets emitted are those of the walk in layer
order.  It prunes a partial candidate as soon as it violates a monotone
contract clause (a forbidden short cycle, a terminal distance already
too small).  The walk is one loop over an explicit stack of per-step
choices, so a template of any length stays clear of the recursion limit,
and the partial graph is one adjacency bitmask per vertex: a new edge
closes a forbidden k-cycle when simple paths grown k - 3 edges from one
end meet the other end's neighbors in one mask test, and a terminal
distance is a bitset BFS.  A forbidden cycle through a hub step's new
edges runs hub - t ... w - hub with t a new neighbor, so on entry to the
step the w each target t reaches are found once, the last two edges as
a union of neighbor masks; a target reaching an earlier neighbor of the
hub is a bad end, and an alternative is pruned by one mask test against
the bad ends (forward checking), else by one per target it picks.  The
walk skips orderings that only swap interchangeable vertices (lex-leader
symmetry breaking): an interchangeable pairs layer lists its 2-subsets
in strictly increasing order, and every vertex of an interchangeable
subsets layer after its first is tied, so the layer's neighborhoods
come in nondecreasing order (see :class:`LayerSpec`); any other pairs
layer gives its 2-subsets to its vertices in every order.  A tied
vertex and the one before it list the same alternatives, so walking the
forced steps first keeps them adjacent.  The first member of each
isomorphism class in the full walk's order is lex-least in its orbit,
so it is still walked, and the search emits the same gadgets in the
same order.
Everything the search holds before its first check, the edges its steps
list and then the edges of every candidate the walk keeps, counts
against one budget, ``_HOLD_CAP`` edges, and a template that needs more
is refused.  A complete candidate's distance clauses are decided on the
walk's bitmask rows, by the same bitset BFS, before any graph is built:
only a candidate that meets them all becomes a graph, rejected at its
cheapest failing other clause in :func:`first_failing_clause`'s order,
and one that fails a distance is counted under that clause's name when
its edge count comes up.  The search runs that order itself, as the
skipped distance clauses and its stored colorings are its own: a
candidate's pattern clause first tries the few colorings the search has
already found, most recently useful first, and solves only when none of
them is a proper coloring of it under the pattern: neighbouring
candidates differ by a few edges, so one coloring often serves many.
Planarity runs only on candidates that pass every cheaper clause, and
the co-facial test and the canonical form only on those that pass them
all.  Each find carries that form's digest as its evidence, and
:func:`certify_and_freeze` writes its record from it instead of checking
the find again.  Results
stream in a fixed order: fewer edges first, then smallest canonical
form, so a search is reproducible run to run.  An optional counter
records the funnel: how many candidates each stage enumerated, pruned,
rejected, dropped as duplicates and emitted.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from . import __version__ as _tool_version
from .canon import canonical_form
from .check import is_proper
from .coloring import (
    _coloring_check, _coloring_witness, pattern_fixing, terminal_behavior,
)
from .errors import ContractError, SearchSpecError
from .formats import (
    parse_json_payload, quote, strict_int, strict_list, strict_object, strict_str,
)
from .gadgets import (
    InterfaceContract,
    TerminalGadget,
    _cheapest_first,
    _clauses,
    _distance_holds,
    _measured,
    require_contract,
    save_gadget,
    seed_contract,
    terminals_cofacial,
)
from .graphs import MAX_VERTICES, Graph, build_graph

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
# colorings a search keeps for its pattern clauses: solves per wide-spec
# search by cap were 1 -> 48, 2 -> 33, 4 -> 22, 8 -> 13, unbounded -> 13,
# and with no cap a large template would try every find on every candidate
_STORED_COLORINGS = 8

_Edges = tuple[tuple[int, int], ...]
# (alternatives, tied, hub, masks), as the module docstring describes
_Step = tuple[list[_Edges], bool, int | None, list[int] | None]
# a distance clause of the contract as (name, i, j, exact, minimum)
_Distance = tuple[str, int, int, int | None, int | None]
# a walked candidate: its edges and its first failing distance clause
_Candidate = tuple[_Edges, str | None]


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
            raise SearchSpecError(
                f"layer {quote(layer.name)} has size {quote(layer.size)}"
            )
        if layer.name in sizes:
            raise SearchSpecError(f"duplicate layer name {quote(layer.name)}")
        if layer.intra not in _INTRA_KINDS:
            raise SearchSpecError(f"unknown intra kind {quote(layer.intra)}")
        if (layer.link_to is None) != (layer.link_kind is None):
            raise SearchSpecError(
                f"layer {quote(layer.name)} needs link_to and link_kind together"
            )
        if idx == 0 and layer.link_to is not None:
            raise SearchSpecError("the terminal layer cannot link anywhere")
        if layer.link_to is not None:
            if layer.link_to not in sizes:
                raise SearchSpecError(
                    f"layer {quote(layer.name)} links to unknown or later layer"
                    f" {quote(layer.link_to)}"
                )
            if layer.link_kind not in _LINK_KINDS:
                raise SearchSpecError(f"unknown link kind {quote(layer.link_kind)}")
            if layer.link_kind == "matching" and sizes[layer.link_to] != layer.size:
                raise SearchSpecError(
                    f"matching layer {quote(layer.name)} must equal"
                    f" {quote(layer.link_to)} in size"
                )
            if layer.link_kind == "pairs" and sizes[layer.link_to] < 2:
                raise SearchSpecError(
                    f"pairs layer {quote(layer.name)} needs a target of size >= 2"
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


def _grown(adj: list[int], level: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Each simple path of ``level``, given as its end and the mask of
    its vertices, extended by one edge every way it can go."""
    grown = []
    for x, seen in level:
        rest = adj[x] & ~seen
        while rest:
            low = rest & -rest
            rest ^= low
            grown.append((low.bit_length() - 1, seen | low))
    return grown


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
            if depth:
                level = _grown(adj, level)
            if depth + 3 in lengths:
                for x, seen in level:
                    if adj[x] & target & ~seen:
                        return True
    return False


def _distance_within(adj: list[int], u: int, v: int, most: int) -> int | None:
    """The distance from ``u`` to ``v`` when it is at most ``most`` edges,
    else ``None``: a bitset BFS, one frontier of vertex bits per level."""
    seen = frontier = 1 << u
    for d in range(1, most + 1):
        reach = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reach |= adj[low.bit_length() - 1]
        frontier = reach & ~seen
        if frontier >> v & 1:
            return d
        if not frontier:
            return None
        seen |= frontier
    return None


def _distance_floor_violated(
    adj: list[int], floors: list[tuple[int, int, int]]
) -> bool:
    """Is a required terminal distance already beaten?  Distances only
    fall as edges arrive, so a too-short partial distance is final."""
    for u, v, floor in floors:
        if _distance_within(adj, u, v, floor - 1) is not None:
            return True
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


def _template_steps(template: TemplateSpec) -> tuple[list[_Step], int]:
    """The template's steps, forced first, and how many edges of
    ``_HOLD_CAP`` their listing leaves.  The layers are listed intra
    steps first, so candidates of one edge count come shape by shape;
    then one step per link: a matching has one alternative, a subsets
    vertex every nonempty neighborhood by size then lexicographically,
    a pairs layer every sequence of distinct 2-subsets, strictly
    increasing when the layer is interchangeable.  Each edge is counted
    as it is listed, and past the budget the template is refused, naming
    the layer being listed.  One stable sort then puts every step with at
    most one alternative ahead of the rest: a forced step's edges prune
    every choice step (fail first), and as it adds no branch, the walk
    keeps the same candidates in the same order; only the ``pruned-*``
    counts of partial candidates move."""
    left = _HOLD_CAP

    def listed(layer: LayerSpec, alternatives: Iterable[_Edges]) -> list[_Edges]:
        nonlocal left
        step = []
        for es in alternatives:
            left -= len(es)
            if left < 0:
                raise _over_budget(f"listing layer {quote(layer.name)}")
            step.append(es)
        return step

    verts: dict[str, range] = {}
    start = 0
    for layer in template.layers:
        verts[layer.name] = range(start, start + layer.size)
        start += layer.size
    intra = [
        listed(layer, _intra_variants(layer.intra, verts[layer.name], left))
        for layer in template.layers
    ]
    free = _interchangeable_layers(template, intra)
    steps: list[_Step] = [(step, False, None, None) for step in intra]
    for layer in template.layers:
        if layer.link_to is None:
            continue
        targets = verts[layer.link_to]
        own = verts[layer.name]
        if layer.link_kind == "matching":
            steps.append((listed(layer, [tuple(zip(targets, own))]), False, None, None))
        elif layer.link_kind == "pairs":
            # the 2-subsets are built whole before the first alternative,
            # and a nonempty step lists at least two edges per 2-subset
            pairs = len(targets) * (len(targets) - 1) // 2
            if layer.size <= pairs and 2 * pairs > left:
                raise _over_budget(f"listing layer {quote(layer.name)}")
            orders = (
                itertools.combinations if layer.name in free
                else itertools.permutations
            )
            steps.append((listed(layer, (
                tuple((t, v) for v, pair in zip(own, pairs) for t in pair)
                for pairs in orders(itertools.combinations(targets, 2), layer.size)
            )), False, None, None))
        else:
            for v in own:
                alternatives = listed(layer, (
                    tuple((t, v) for t in subset)
                    for size in range(1, len(targets) + 1)
                    for subset in itertools.combinations(targets, size)
                ))
                if v == own[0]:  # every vertex of the layer has these targets
                    masks = [sum(1 << t for t, _ in es) for es in alternatives]
                tied = v != own[0] and layer.name in free
                steps.append((alternatives, tied, v, masks))
    steps.sort(key=lambda step: len(step[0]) > 1)
    return steps, left


def _hub_survivors(
    adj: list[int],
    hub: int,
    masks: list[int],
    start: int,
    lengths: frozenset[int],
) -> list[int]:
    """The indices from ``start`` on of a hub step's alternatives that
    close no forbidden cycle, given the step's ``hub`` and ``masks``.  A
    forbidden k-cycle through a new edge runs hub - t ... w - hub, with t
    in an alternative's mask S, w in S or already a neighbor of the hub,
    and t ... w a simple path of k - 2 edges that avoids the hub in the
    graph as it stands.  Those paths are found once per end t, for every
    w at once: they grow k - 4 edges from t, and the neighbors, off the
    path, of their ends' new neighbors are every w two edges on (a
    triangle needs t and w adjacent).  The w so reached make the mask
    ``reach[t]``.  An end whose reach meets ``adj[hub]`` is bad, and an
    alternative survives when S misses ``bad`` (forward checking) and
    ``reach[t] & S`` is empty for every t in S."""
    near = adj[hub]
    ends = 0
    for mask in masks[start:]:
        ends |= mask
    top = max(lengths) - 4  # the most edges grown before the last two
    reach: dict[int, int] = {}
    bad = 0
    rest = ends
    while rest:
        bit = rest & -rest
        rest ^= bit
        t = bit.bit_length() - 1
        closers = (ends ^ bit) | near  # every w a cycle from t could close on
        hit = adj[t] if 3 in lengths else 0
        level = [(t, bit | 1 << hub)] if closers else []
        for depth in range(top + 1):
            if depth:
                level = _grown(adj, level)
            if depth + 4 in lengths:
                for x, seen in level:
                    ys = adj[x] & ~seen
                    while ys:
                        y = ys & -ys
                        ys ^= y
                        hit |= adj[y.bit_length() - 1] & ~seen
        reach[bit] = hit = hit & closers
        if hit & near:
            bad |= bit
    survivors = []
    for i, mask in enumerate(masks[start:], start):
        if mask & bad:
            continue
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            if reach[bit] & mask:
                break
        else:
            survivors.append(i)
    return survivors


def _walk(
    steps: list[_Step],
    n: int,
    lengths: frozenset[int],
    distances: list[_Distance],
    funnel: Counter,
    left: int,
) -> list[_Candidate]:
    """Every choice of one alternative per step that no monotone prune
    rejects, as a sorted edge tuple with the name of its first failing
    clause of ``distances`` (``None`` when all hold), in the order of the
    steps' alternatives.  The forced steps come first, so each count in
    ``funnel`` is of partial candidates pruned with every fixed edge
    already in place.  A hub step is cycle-pruned once on entry, for all
    of its alternatives, by :func:`_hub_survivors`: its queue holds only
    the survivors, and the rest count as "pruned-cycle" in one addition.
    Every other alternative is cycle-pruned alone by
    :func:`_closes_forbidden_cycle`, and every alternative past the cycle
    prune meets the distance floors: a clause's exact distance, else its
    minimum, when it is above 1.  A complete candidate's distance clauses
    are decided on its adjacency rows, in ``distances`` order, by the
    same bitset BFS.  Each candidate kept spends its edges from the
    ``left`` edges of ``_HOLD_CAP``, and past them the walk raises
    :class:`SearchSpecError`."""
    floors = []
    for _, i, j, exact, minimum in distances:
        floor = exact or minimum or 0
        if floor > 1:
            floors.append((i, j, floor))
    adj = [0] * n
    chosen: list[tuple[int, int]] = []
    out: list[_Candidate] = []
    # per step, the alternatives this entry tries and how many it has tried
    queue: list[range | list[int]] = [range(0)] * len(steps)
    tried = [0] * len(steps)

    def flip(es: _Edges) -> None:
        # no step lists an edge that is already in place, so this adds
        # the alternative's edges, and a second flip removes them
        for u, v in es:
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u

    def enter(si: int) -> None:
        alternatives, tied, hub, masks = steps[si]
        start = queue[si - 1][tried[si - 1] - 1] if tied else 0
        tried[si] = 0
        if hub is None or not lengths:
            queue[si] = range(start, len(alternatives))
            return
        queue[si] = _hub_survivors(adj, hub, masks, start, lengths)
        pruned = len(alternatives) - start - len(queue[si])
        if pruned:
            funnel["pruned-cycle"] += pruned

    si = 0
    enter(si)
    while True:
        if si == len(steps):
            left -= len(chosen)
            if left < 0:
                raise _over_budget("holding candidates")
            failed = next((
                name for name, i, j, exact, minimum in distances
                if not _distance_holds(_distance_within(adj, i, j, n), exact, minimum)
            ), None)
            out.append((tuple(sorted(chosen)), failed))
        elif tried[si] < len(queue[si]):
            alternatives, _, hub, _ = steps[si]
            es = alternatives[queue[si][tried[si]]]
            tried[si] += 1
            flip(es)
            if hub is None and _closes_forbidden_cycle(adj, es, lengths):
                funnel["pruned-cycle"] += 1
            elif floors and _distance_floor_violated(adj, floors):
                funnel["pruned-distance"] += 1
            else:
                chosen.extend(es)
                si += 1
                if si < len(steps):
                    enter(si)
                continue
            flip(es)
            continue
        # every alternative below step si is done: undo step si - 1
        if si == 0:
            return out
        si -= 1
        es = steps[si][0][queue[si][tried[si] - 1]]
        del chosen[len(chosen) - len(es):]
        flip(es)


def _template_candidates(spec: SearchSpec, funnel: Counter) -> list[_Candidate]:
    """Every template candidate surviving the monotone prunes, as its
    edges and the name of its first failing distance clause, or ``None``,
    in edge-count order; each has the template's vertices, the terminals
    first.  Each prune is counted in ``funnel`` under "pruned-cycle" or
    "pruned-distance"."""
    template = spec.template
    contract = spec.contract
    _validate_template(template, contract.arity)
    distances = [
        (name, *ask)
        for name, kind, ask in _clauses(contract, template.layers[0].size)
        if kind == "distance"
    ]
    steps, left = _template_steps(template)
    total = sum(layer.size for layer in template.layers)
    lengths = contract.forbidden_cycle_lengths
    out = _walk(steps, total, lengths, distances, funnel, left)
    return sorted(out, key=lambda candidate: len(candidate[0]))


def _pattern_check(
    g: Graph, fixing: Mapping[int, int], colorings: list[dict[int, int]]
) -> tuple[bool, Any, Any]:
    """A pattern clause's check body as a search runs it.  The first of
    ``colorings``, the search's earlier finds, that agrees with ``fixing``
    and that :func:`is_proper` accepts on ``g`` fails the clause as its
    witness (mode ``stored-coloring``) and moves to the front; otherwise
    :func:`_coloring_check` decides, and the witness it checked joins the
    front.  The list keeps the first :data:`_STORED_COLORINGS`."""
    for k, known in enumerate(colorings):
        if all(known.get(v) == c for v, c in fixing.items()) and is_proper(g, known):
            colorings.insert(0, colorings.pop(k))
            return False, _coloring_witness(known), {"mode": "stored-coloring"}
    passed, witness, details = _coloring_check(g, fixing)
    if not passed:
        colorings.insert(0, {int(v): c for v, c in witness["coloring"].items()})
        del colorings[_STORED_COLORINGS:]
    return passed, witness, details


def _failing_clause(
    gadget: TerminalGadget, clauses: list[tuple], colorings: list[dict[int, int]]
) -> str | None:
    """The name of the first of ``clauses`` that ``gadget`` fails, or
    ``None``; a pattern clause runs :func:`_pattern_check`."""
    for name, kind, ask in clauses:
        if kind == "pattern":
            fixing = pattern_fixing(gadget.terminals, ask)
            passed = _pattern_check(gadget.graph, fixing, colorings)[0]
        else:
            passed = _measured(gadget, kind, ask)()[0]
        if not passed:
            return name
    return None


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
    complete candidate is rejected at its cheapest failing clause, in
    :func:`first_failing_clause`'s order but by the search's own loop:
    the walk decides the distance clauses, and a candidate that meets
    them becomes a graph for the rest, its pattern clauses trying the
    search's stored colorings first; only a candidate that passes every
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
    clauses = [c for c in _cheapest_first(spec.contract, arity) if c[1] != "distance"]
    colorings: list[dict[int, int]] = []  # pattern clauses try these first
    emitted = 0

    def consider(edges: _Edges, failed: str | None) -> TerminalGadget | None:
        # ``failed`` is the walk's verdict on the distance clauses, so a
        # graph is built only for a candidate that meets them all
        funnel["enumerated"] += 1
        if failed is None:
            graph = build_graph(n, edges, labels)
            gadget = TerminalGadget(graph, tuple(range(arity)), spec.contract)
            failed = _failing_clause(gadget, clauses, colorings)
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

    candidates = _template_candidates(spec, funnel)
    for _, group in itertools.groupby(candidates, key=lambda c: len(c[0])):
        gadgets = (consider(edges, failed) for edges, failed in group)
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
        "checks": [
            name for name, _, _ in _clauses(gadget.contract, len(gadget.terminals))
        ],
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
