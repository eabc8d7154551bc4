"""Constrained gadget search, freezing, and best-effort shrinking.

The search enumerates candidate graphs inside a layered template,
prunes partial candidates as soon as they violate a monotone contract
clause (a forbidden short cycle, a terminal distance already too small),
and rejects each complete candidate at its cheapest failing contract
clause (:func:`first_failing_clause`).  Planarity runs only on
candidates that pass every cheaper clause, and the co-facial test and
the canonical form only on those that pass them all.  Results stream in a fixed order:
fewer vertices first, then fewer edges, then smallest canonical form, so
a search is reproducible run to run.  An optional counter records the
funnel: how many candidates each stage enumerated, pruned, rejected,
dropped as duplicates and emitted.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterator

from . import __version__ as _tool_version
from .analysis import cycles_of_length, is_planar, validate_planarity_certificate
from .canon import canonical_form
from .coloring import (
    brute_force_3coloring,
    check_fixed,
    exhaustive_color_count,
    pattern_representative,
    solve_3coloring,
    terminal_behavior,
)
from .errors import (
    ContractError,
    ImproperFixingError,
    OracleMismatchError,
    SearchSpecError,
    SizeGuardError,
)
from .gadgets import (
    InterfaceContract,
    TerminalGadget,
    first_failing_clause,
    seed_contract,
    terminals_cofacial,
    save_gadget,
    verify_contract,
)
from .graphs import Graph, build_graph, contract_edge, delete_vertex

_RAW_VERTEX_LIMIT = 6  # raw enumeration is 2^C(n,2); past this a template is required

_INTRA_KINDS = ("none", "path", "cycle", "path_or_cycle", "clique")
_LINK_KINDS = ("subsets", "pairs", "matching")


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
    max_vertices: int
    contract: InterfaceContract
    template: TemplateSpec | None = None
    dedup: bool = True


def _validate_template(template: TemplateSpec, arity: int) -> None:
    names: list[str] = []
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
        names.append(layer.name)
        sizes[layer.name] = layer.size
    if template.layers[0].size != arity:
        raise SearchSpecError(
            f"terminal layer size {template.layers[0].size} != contract"
            f" arity {arity}"
        )


def _intra_variants(kind: str, verts: list[int]) -> list[tuple[tuple[int, int], ...]]:
    k = len(verts)
    path = tuple((verts[i], verts[i + 1]) for i in range(k - 1))
    if kind == "none":
        return [()]
    if kind == "path":
        return [path]
    if kind == "cycle":
        return [path + ((verts[0], verts[-1]),)] if k >= 3 else [path]
    if kind == "path_or_cycle":
        if k >= 3:
            return [path, path + ((verts[0], verts[-1]),)]
        return [path]
    if kind == "clique":
        return [tuple(itertools.combinations(verts, 2))]
    raise SearchSpecError(f"unknown intra kind {kind!r}")


# enumeration steps: ("edges", edge tuple) adds fixed edges,
# ("subset", vertex, target vertices) picks a nonempty neighborhood,
# ("pair", vertex, target vertices, group id) picks an increasing 2-subset
_Step = tuple


def _forms_forbidden_cycle(
    adj: dict[int, set[int]],
    new_edges: list[tuple[int, int]],
    lengths: frozenset[int],
) -> bool:
    """Would any forbidden cycle pass through one of the new edges?"""
    if not lengths:
        return False
    want = {k - 1 for k in lengths}
    depth_max = max(want)
    for u, v in new_edges:
        visited = {u}

        def dfs(x: int, depth: int) -> bool:
            for y in adj.get(x, ()):
                if y == v:
                    if depth + 1 in want and depth + 1 >= 2:
                        return True
                    continue
                if y in visited or depth + 1 >= depth_max:
                    continue
                visited.add(y)
                if dfs(y, depth + 1):
                    return True
                visited.discard(y)
            return False

        if dfs(u, 0):
            return True
    return False


def _distance_floor_violated(
    adj: dict[int, set[int]],
    floors: list[tuple[int, int, int]],
) -> bool:
    """Is a required terminal distance already beaten?  Distances only
    shrink as edges arrive, so a too-short partial distance is final."""
    for u, v, floor in floors:
        dist = {u: 0}
        frontier = [u]
        d = 0
        hit = None
        while frontier and hit is None and d < floor:
            d += 1
            nxt = []
            for x in frontier:
                for y in adj.get(x, ()):
                    if y not in dist:
                        dist[y] = d
                        if y == v:
                            hit = d
                            break
                        nxt.append(y)
                if hit is not None:
                    break
            frontier = nxt
        if hit is not None and hit < floor:
            return True
    return False


def _template_candidates(
    spec: SearchSpec, funnel: Counter
) -> Iterator[tuple[int, tuple[tuple[int, int], ...]]]:
    """Yield (edge_count, edges) for every template candidate surviving
    the monotone prunes, in edge-count order.  Each prune is counted in
    ``funnel`` under "pruned-cycle" or "pruned-distance"."""
    template = spec.template
    assert template is not None
    contract = spec.contract
    arity = contract.arity or template.layers[0].size
    _validate_template(template, arity)

    offsets: dict[str, int] = {}
    total = 0
    for layer in template.layers:
        offsets[layer.name] = total
        total += layer.size
    if total > spec.max_vertices:
        return

    floors: list[tuple[int, int, int]] = []
    matrix = contract.exact_terminal_distances or contract.min_terminal_distances
    if matrix is not None:
        for i in range(arity):
            for j in range(i + 1, arity):
                if matrix[i][j] > 1:
                    floors.append((i, j, matrix[i][j]))

    layer_verts = {
        layer.name: list(range(offsets[layer.name], offsets[layer.name] + layer.size))
        for layer in template.layers
    }

    # per-layer intra variants, in declaration order, fewest edges first
    variant_lists = [
        _intra_variants(layer.intra, layer_verts[layer.name])
        for layer in template.layers
    ]

    def build_steps(shape: tuple) -> tuple[list[_Step], int]:
        steps: list[_Step] = []
        fixed = 0
        for li, layer in enumerate(template.layers):
            intra = shape[li]
            if intra:
                steps.append(("edges", list(intra)))
                fixed += len(intra)
            if layer.link_to is None:
                continue
            targets = layer_verts[layer.link_to]
            verts = layer_verts[layer.name]
            if layer.link_kind == "matching":
                steps.append(("edges", [(verts[i], targets[i]) for i in range(layer.size)]))
                fixed += layer.size
            elif layer.link_kind == "pairs":
                for i, v in enumerate(verts):
                    steps.append(("pair", v, targets, layer.name, i))
                fixed += 2 * layer.size
            elif layer.link_kind == "subsets":
                for v in verts:
                    steps.append(("subset", v, targets))
        return steps, fixed

    shapes = list(itertools.product(*variant_lists))
    shape_steps = [build_steps(shape) for shape in shapes]

    def subset_bounds(steps: list[_Step]) -> tuple[list[int], list[int]]:
        mins = [0]
        maxs = [0]
        for step in reversed(steps):
            if step[0] == "subset":
                mins.insert(0, mins[0] + 1)
                maxs.insert(0, maxs[0] + len(step[2]))
            else:
                mins.insert(0, mins[0])
                maxs.insert(0, maxs[0])
        return mins, maxs

    lo = min(
        fixed + subset_bounds(steps)[0][0] for steps, fixed in shape_steps
    )
    hi = max(
        fixed + subset_bounds(steps)[1][0] for steps, fixed in shape_steps
    )

    lengths = contract.forbidden_cycle_lengths

    for m_total in range(lo, hi + 1):
        for (steps, fixed) in shape_steps:
            mins, maxs = subset_bounds(steps)
            budget = m_total - fixed
            if not (mins[0] <= budget <= maxs[0]):
                continue
            adj: dict[int, set[int]] = {v: set() for v in range(total)}
            chosen: list[tuple[int, int]] = []

            def add(es: list[tuple[int, int]]) -> bool:
                for u, v in es:
                    adj[u].add(v)
                    adj[v].add(u)
                    chosen.append((u, v) if u < v else (v, u))
                if _forms_forbidden_cycle(adj, es, lengths):
                    funnel["pruned-cycle"] += 1
                    return False
                if floors and _distance_floor_violated(adj, floors):
                    funnel["pruned-distance"] += 1
                    return False
                return True

            def remove(count: int) -> None:
                for _ in range(count):
                    u, v = chosen.pop()
                    adj[u].discard(v)
                    adj[v].discard(u)

            # subset-step indices for budget tracking
            def walk(si: int, budget: int, last_pair: dict[str, tuple]) -> Iterator[
                tuple[int, tuple[tuple[int, int], ...]]
            ]:
                if si == len(steps):
                    if budget == 0:
                        yield m_total, tuple(sorted(chosen))
                    return
                step = steps[si]
                if step[0] == "edges":
                    es = step[1]
                    ok = add(es)
                    if ok:
                        yield from walk(si + 1, budget, last_pair)
                    remove(len(es))
                elif step[0] == "pair":
                    _, v, targets, group, gi = step
                    prev = last_pair.get(group) if gi > 0 else None
                    for pair in itertools.combinations(targets, 2):
                        if prev is not None and pair <= prev:
                            continue
                        es = [(v, pair[0]), (v, pair[1])]
                        ok = add(es)
                        if ok:
                            saved = last_pair.get(group)
                            last_pair[group] = pair
                            yield from walk(si + 1, budget, last_pair)
                            if saved is None:
                                del last_pair[group]
                            else:
                                last_pair[group] = saved
                        remove(2)
                else:
                    _, v, targets = step
                    min_rest = mins[si + 1]
                    max_rest = maxs[si + 1]
                    for size in range(1, len(targets) + 1):
                        rest = budget - size
                        if rest < min_rest or rest > max_rest:
                            continue
                        for subset in itertools.combinations(targets, size):
                            es = [(v, t) for t in subset]
                            ok = add(es)
                            if ok:
                                yield from walk(si + 1, rest, last_pair)
                            remove(size)

            yield from walk(0, budget, {})


def _raw_candidates(
    spec: SearchSpec,
) -> Iterator[tuple[int, int, tuple[tuple[int, int], ...]]]:
    arity = spec.contract.arity or 0
    start = max(arity, 1)
    if start > spec.max_vertices:
        return
    if spec.max_vertices > _RAW_VERTEX_LIMIT:
        raise SearchSpecError(
            f"raw enumeration is limited to {_RAW_VERTEX_LIMIT} vertices"
            f" (asked for {spec.max_vertices}); provide a template"
        )
    for n in range(start, spec.max_vertices + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for m in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, m):
                yield n, m, edges


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

    Exhaustive within the template (or, template-free, within the raw
    vertex bound) when run to completion.  Each complete candidate is
    rejected at its cheapest failing clause by
    :func:`first_failing_clause`; only a candidate that passes every
    clause is kept, so every emitted gadget satisfies its whole contract.
    With ``dedup`` no two emitted gadgets are isomorphic.  When the
    contract requires planarity the terminals must additionally share a
    face, so the output can later sit inside larger assemblies.

    ``funnel``, when given, receives counts that the search itself never
    reads: "enumerated" candidates, partial candidates "pruned-cycle" and
    "pruned-distance" during enumeration, rejections under the name of
    the failing clause, "not-cofacial", "duplicates" dropped by dedup,
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
        return TerminalGadget(
            graph, gadget.terminals, replace(spec.contract, verified=True)
        )

    def emit_bucket(bucket: list[TerminalGadget]) -> Iterator[TerminalGadget]:
        nonlocal emitted
        keyed = sorted(
            ((canonical_form(g.graph).data, g) for g in bucket),
            key=lambda pair: pair[0],
        )
        for key, gadget in keyed:
            if spec.dedup and key in seen:
                funnel["duplicates"] += 1
                continue
            seen.add(key)
            emitted += 1
            funnel["emitted"] += 1
            yield gadget
            if limit is not None and emitted >= limit:
                return

    if spec.template is not None:
        bucket: list[TerminalGadget] = []
        bucket_m: int | None = None
        for m, edges in _template_candidates(spec, funnel):
            if bucket_m is not None and m != bucket_m:
                yield from emit_bucket(bucket)
                if limit is not None and emitted >= limit:
                    return
                bucket = []
            bucket_m = m
            n = sum(layer.size for layer in spec.template.layers)
            gadget = consider(n, edges)
            if gadget is not None:
                bucket.append(gadget)
        yield from emit_bucket(bucket)
        return

    bucket = []
    bucket_key: tuple[int, int] | None = None
    for n, m, edges in _raw_candidates(spec):
        if bucket_key is not None and (n, m) != bucket_key:
            yield from emit_bucket(bucket)
            if limit is not None and emitted >= limit:
                return
            bucket = []
        bucket_key = (n, m)
        gadget = consider(n, edges)
        if gadget is not None:
            bucket.append(gadget)
    yield from emit_bucket(bucket)


def seed_search_spec(max_vertices: int = 15) -> SearchSpec:
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
    return SearchSpec(
        max_vertices=max_vertices,
        contract=seed_contract(),
        template=template,
        dedup=True,
    )


# ---------------------------------------------------------------------------
# freezing

def certify_and_freeze(gadget: TerminalGadget, path: str | Path) -> Path:
    """Re-verify a gadget, cross-check the solver against brute force,
    and write the frozen JSON file.

    A solver/oracle disagreement raises :class:`OracleMismatchError`
    with both transcripts; nothing is written in that case.  Patterns
    past the brute-force guard are not cross-checked, and the record
    lists them under ``oracle_skipped``.
    """
    report = verify_contract(gadget)
    if not report.passed:
        bad = next(c for c in report.checks if not c.passed)
        raise ContractError(
            f"refusing to freeze: clause {bad.name} failed", clause=bad.name
        )
    behavior = terminal_behavior(gadget)
    counts: dict[str, int] = {}
    oracle_skipped: list[str] = []
    for pattern, feasible in behavior.entries:
        rep = pattern_representative(pattern)
        fixing = {gadget.terminals[i]: rep[i] for i in range(len(rep))}
        try:
            check_fixed(gadget.graph, fixing)
        except ImproperFixingError:
            # equal colors forced onto adjacent terminals: infeasible by
            # definition, nothing to cross-check
            if feasible:
                raise OracleMismatchError(
                    f"pattern {pattern}: reported feasible despite adjacent"
                    " terminals sharing a color"
                )
            continue
        try:
            oracle_feasible = brute_force_3coloring(gadget.graph, fixing) is not None
        except SizeGuardError:
            # too big to cross-check; the record says so
            oracle_skipped.append(pattern)
            continue
        if oracle_feasible != feasible:
            raise OracleMismatchError(
                f"pattern {pattern}: solver says"
                f" {'feasible' if feasible else 'infeasible'}, brute force"
                f" says the opposite on {gadget.graph.n} vertices"
            )
        free = gadget.graph.n - len(fixing)
        if pattern in gadget.contract.forbidden_patterns and free <= 16:
            counts[pattern] = exhaustive_color_count(gadget.graph, fixing)
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
        "oracle_skipped": oracle_skipped,
    }
    frozen = TerminalGadget(
        gadget.graph, gadget.terminals, replace(gadget.contract, verified=True)
    )
    path = Path(path)
    save_gadget(frozen, path, verification=verification)
    return path


# ---------------------------------------------------------------------------
# shrinking

def _counterexample_failure(graph: Graph) -> str | None:
    cert = is_planar(graph)
    validate_planarity_certificate(graph, cert)
    if not cert.planar:
        return "planarity"
    for k in (4, 5):
        if cycles_of_length(graph, k):
            return f"{k}-cycle"
    if solve_3coloring(graph) is not None:
        return "3-colorable"
    return None


def shrink_counterexample(graph: Graph, budget: int = 60) -> Graph:
    """Best-effort local minimization of a verified counterexample.

    Tries single vertex deletions, then single edge contractions, in
    index order, re-verifying planarity, the cycle bans, and
    non-colorability after each step; the first improving step is taken
    and the scan restarts.  ``budget`` bounds the number of candidate
    verifications.  No minimality guarantee.
    """
    failure = _counterexample_failure(graph)
    if failure is not None:
        raise ContractError(
            f"input is not a counterexample: fails {failure}", clause=failure
        )
    attempts = 0
    current = graph
    improved = True
    while improved and attempts < budget:
        improved = False
        for v in range(current.n):
            if attempts >= budget:
                break
            candidate, _ = delete_vertex(current, v)
            attempts += 1
            if _counterexample_failure(candidate) is None:
                current = candidate
                improved = True
                break
        if improved or attempts >= budget:
            continue
        for u, v in current.edges:
            if attempts >= budget:
                break
            candidate = contract_edge(current, u, v)
            attempts += 1
            if _counterexample_failure(candidate) is None:
                current = candidate
                improved = True
                break
    return current


# ---------------------------------------------------------------------------
# search spec serialization

def search_spec_to_json_dict(spec: SearchSpec) -> dict[str, Any]:
    d: dict[str, Any] = {
        "max_vertices": spec.max_vertices,
        "dedup": spec.dedup,
        "contract": spec.contract.to_json_dict(),
    }
    if spec.template is not None:
        d["template"] = {
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
        }
    return d


def search_spec_from_json_dict(d: dict[str, Any]) -> SearchSpec:
    try:
        contract = InterfaceContract.from_json_dict(d["contract"])
        template = None
        if d.get("template") is not None:
            template = TemplateSpec(
                layers=tuple(
                    LayerSpec(
                        name=str(ld["name"]),
                        size=int(ld["size"]),
                        intra=str(ld.get("intra", "none")),
                        link_to=ld.get("link_to"),
                        link_kind=ld.get("link_kind"),
                    )
                    for ld in d["template"]["layers"]
                )
            )
        return SearchSpec(
            max_vertices=int(d["max_vertices"]),
            contract=contract,
            template=template,
            dedup=bool(d.get("dedup", True)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SearchSpecError(f"bad search spec: {exc}") from exc


def load_search_spec(path: str | Path) -> SearchSpec:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SearchSpecError(f"bad search spec JSON: {exc}") from exc
    return search_spec_from_json_dict(payload)
