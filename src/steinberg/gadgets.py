"""Terminal gadgets, interface contracts, and the paste calculus.

A gadget is a graph with distinguished terminals and a contract stating
what the graph promises: forbidden short cycles, terminal distances,
infeasible terminal color patterns, planarity.  Gadgets compose by
pasting: terminals of several parts are identified through named slots,
fresh vertices and extra edges are added on top, and every structural
collision (two vertices of one part on one slot, duplicated edges) is an
error rather than a silent merge.

A recipe is a shape alone: its slot space, each part's slots, fresh
vertices and extra edges.  :func:`paste` fills it with one gadget per
part, and :func:`walk_recipe` with one behavior table per part, deriving
the pasted graph's terminal behavior without a solver.  The two stock
recipes are constants: :data:`TRIPLE_RECIPE` pastes three copies of the
seed, its terminals in (a, b, c) role order, into the composite gadget,
and :data:`COUNTEREXAMPLE_RECIPE` four composites into the final graph.
:func:`compositional_check` walks both with the seed's table, so the
seed, triple, final argument cannot drift from the construction, and
:func:`claw_skeleton` stands a small graph in for a paste's planarity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Sequence

from .analysis import (
    CycleCensus,
    distance,
    forbidden_cycle_check,
    is_planar,
    shortest_path,
    triangle_edge_conflicts,
    triangles_sharing_edge,
    validate_planarity_certificate,
)
from .canon import canonical_digest
from .check import case_tree_refutes, skeleton_facts
from .coloring import (
    _coloring_check,
    _coloring_witness,
    all_equal_pattern,
    all_patterns,
    brute_force_3coloring,
    exhaustive_color_count,
    pattern_fixing,
    pattern_of,
    terminal_behavior,
)
from .errors import ContractError, FormatError, OracleMismatchError, PasteError
from .formats import (
    dump_json, graph_from_json_dict, graph_to_json_dict, parse_json_payload,
    quote, strict_bool, strict_int, strict_list, strict_object, strict_str,
)
from .graphs import Graph, add_apex, build_graph
from .report import VerificationReport, timed_check, witness_text


# ---------------------------------------------------------------------------
# contracts and gadgets

Matrix = tuple[tuple[int, ...], ...]


def _check_matrix(mat: Matrix, what: str) -> None:
    t = len(mat)
    for row in mat:
        if len(row) != t:
            raise ValueError(f"{what} must be square")
    for i in range(t):
        if mat[i][i] != 0:
            raise ValueError(f"{what} must have a zero diagonal")
        for j in range(t):
            if mat[i][j] != mat[j][i]:
                raise ValueError(f"{what} must be symmetric")
            if mat[i][j] < 0:
                raise ValueError(f"{what} entries must be >= 0")


@dataclass(frozen=True)
class InterfaceContract:
    """What a gadget promises at its interface.

    Exact distances, when present, dominate the minimum distances: both
    are checked but exact implies the minimum clause.
    """

    forbidden_cycle_lengths: frozenset[int] = frozenset()
    min_terminal_distances: Matrix | None = None
    exact_terminal_distances: Matrix | None = None
    forbidden_patterns: frozenset[str] = frozenset()
    require_planar: bool = True

    def __post_init__(self) -> None:
        for k in self.forbidden_cycle_lengths:
            if not (3 <= k <= 6):
                raise ValueError(f"forbidden cycle length {k} outside 3..6")
        arities = set()
        if self.min_terminal_distances is not None:
            _check_matrix(self.min_terminal_distances, "min distances")
            arities.add(len(self.min_terminal_distances))
        if self.exact_terminal_distances is not None:
            _check_matrix(self.exact_terminal_distances, "exact distances")
            arities.add(len(self.exact_terminal_distances))
        if (
            self.min_terminal_distances is not None
            and self.exact_terminal_distances is not None
        ):
            t = len(self.min_terminal_distances)
            for i in range(t):
                for j in range(t):
                    if (
                        self.exact_terminal_distances[i][j]
                        < self.min_terminal_distances[i][j]
                    ):
                        raise ValueError(
                            "exact distances must dominate min distances"
                        )
        for p in self.forbidden_patterns:
            if not isinstance(p, str) or not set(p) <= set("012"):
                raise ValueError(
                    f"forbidden pattern {quote(p)} has a color other than 0, 1, 2"
                )
            if pattern_of([int(ch) for ch in p]) != p:
                raise ValueError(f"forbidden pattern {quote(p)} is not normalized")
            arities.add(len(p))
        if len(arities) > 1:
            raise ValueError(f"contract clauses disagree on arity: {arities}")

    @property
    def arity(self) -> int | None:
        if self.exact_terminal_distances is not None:
            return len(self.exact_terminal_distances)
        if self.min_terminal_distances is not None:
            return len(self.min_terminal_distances)
        for p in self.forbidden_patterns:
            return len(p)
        return None

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "forbidden_cycle_lengths": sorted(self.forbidden_cycle_lengths),
            "min_terminal_distances": (
                [list(r) for r in self.min_terminal_distances]
                if self.min_terminal_distances
                else None
            ),
            "exact_terminal_distances": (
                [list(r) for r in self.exact_terminal_distances]
                if self.exact_terminal_distances
                else None
            ),
            "forbidden_patterns": sorted(self.forbidden_patterns),
            "require_planar": self.require_planar,
        }

    @classmethod
    def from_json_dict(cls, d: dict[str, Any]) -> "InterfaceContract":
        strict_object(d, "contract")

        def mat(key: str) -> Matrix | None:
            raw = d.get(key)
            if raw is None:
                return None
            rows = [strict_list(r, f"a row of {key}") for r in strict_list(raw, key)]
            return tuple(tuple(strict_int(x, key) for x in row) for row in rows)

        def items(key: str) -> list:
            return strict_list(d.get(key, []), key)

        return cls(
            forbidden_cycle_lengths=frozenset(
                strict_int(k, "a cycle length")
                for k in items("forbidden_cycle_lengths")
            ),
            min_terminal_distances=mat("min_terminal_distances"),
            exact_terminal_distances=mat("exact_terminal_distances"),
            forbidden_patterns=frozenset(
                strict_str(p, "a forbidden pattern")
                for p in items("forbidden_patterns")
            ),
            require_planar=strict_bool(
                d.get("require_planar", True), "require_planar"
            ),
        )


@dataclass(frozen=True)
class TerminalGadget:
    graph: Graph
    terminals: tuple[int, ...]
    contract: InterfaceContract
    # a search find's canonical digest, set only by the search that passed
    # its whole contract; a constructed or replace()d gadget has None
    search_digest: str | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if len(set(self.terminals)) != len(self.terminals):
            raise ValueError("terminals must be distinct")
        for t in self.terminals:
            if not (0 <= t < self.graph.n):
                raise ValueError(f"terminal {t} outside 0..{self.graph.n - 1}")
        arity = self.contract.arity
        if arity is not None and arity != len(self.terminals):
            raise ValueError(
                f"contract arity {arity} != {len(self.terminals)} terminals"
            )


def seed_contract() -> InterfaceContract:
    """Contract of the seed gadget: terminals (a, b, c) with d(a,b) =
    d(a,c) = 3 and d(b,c) = 4, no 4- or 5-cycles, the all-equal terminal
    pattern infeasible, planar."""
    return InterfaceContract(
        forbidden_cycle_lengths=frozenset({4, 5}),
        exact_terminal_distances=((0, 3, 3), (3, 0, 4), (3, 4, 0)),
        forbidden_patterns=frozenset({all_equal_pattern(3)}),
        require_planar=True,
    )


def triple_contract() -> InterfaceContract:
    """Contract of the three-copy composite: all terminal distances 4,
    no 4- or 5-cycles, all-equal infeasible, planar."""
    return InterfaceContract(
        forbidden_cycle_lengths=frozenset({4, 5}),
        exact_terminal_distances=((0, 4, 4), (4, 0, 4), (4, 4, 0)),
        forbidden_patterns=frozenset({all_equal_pattern(3)}),
        require_planar=True,
    )


# ---------------------------------------------------------------------------
# check bodies
#
# Each body returns ``(passed, witness, details)``, as :func:`timed_check`
# expects.  The contract clauses and the counterexample battery share
# them and ``coloring._coloring_check``, so each fact is checked by one
# piece of code.

CheckBody = Callable[[], tuple[bool, Any, Any]]


def _planarity_check(g: Graph) -> tuple[bool, Any, Any]:
    """Planarity, with its certificate re-checked from scratch; the
    witness of a failure is the Kuratowski subgraph, with the kind the
    check proved."""
    cert = is_planar(g)
    kind = validate_planarity_certificate(g, cert)
    if cert.planar:
        return True, None, {"faces": "euler-checked"}
    edges = [list(e) for e in cert.obstruction_edges]
    return False, {"type": "kuratowski", "kind": kind, "edges": edges}, None


def _cycle_check(
    g: Graph, lengths: frozenset[int], *, census: CycleCensus | None = None
) -> tuple[bool, Any, Any]:
    """No cycle of a length in ``lengths``, read off ``census`` when
    given (it must cover ``lengths``)."""
    hit = forbidden_cycle_check(g, lengths, census=census)
    if hit is None:
        return True, None, None
    return False, {"type": "cycle", "vertices": list(hit)}, None


def _report(
    g: Graph, clauses: Sequence[tuple[str, CheckBody]]
) -> VerificationReport:
    """Run each clause, timed and in order, on the graph ``g``; the
    target names ``g`` by its canonical digest."""
    checks = tuple(timed_check(name, body) for name, body in clauses)
    target = {"n": g.n, "m": g.m, "canonical_digest": canonical_digest(g)}
    return VerificationReport(target=target, checks=checks)


# ---------------------------------------------------------------------------
# contract verification

def _contract_clauses(gadget: TerminalGadget) -> list[tuple[str, CheckBody]]:
    """The contract's clauses as (name, body) pairs, in report order.
    Each body runs its clause in full."""
    g = gadget.graph
    contract = gadget.contract
    clauses: list[tuple[str, CheckBody]] = []

    if contract.forbidden_cycle_lengths:
        clauses.append((
            "forbidden-cycles",
            lambda: _cycle_check(g, contract.forbidden_cycle_lengths),
        ))

    exact = contract.exact_terminal_distances
    minimum = contract.min_terminal_distances
    t = len(gadget.terminals)
    for i in range(t):
        for j in range(i + 1, t):
            want_exact = exact[i][j] if exact else None
            want_min = minimum[i][j] if minimum else None
            if want_exact is None and want_min is None:
                continue

            def distance_clause(i=i, j=j, want_exact=want_exact, want_min=want_min):
                path = shortest_path(g, gadget.terminals[i], gadget.terminals[j])
                d = None if path is None else len(path) - 1
                ok = d is not None
                if ok and want_exact is not None:
                    ok = d == want_exact
                if ok and want_min is not None:
                    ok = d >= want_min
                witness = None
                if not ok:
                    witness = {
                        "distance": d,
                        "path": path,
                        "expected_exact": want_exact,
                        "expected_min": want_min,
                    }
                return ok, witness, {"distance": d}

            clauses.append((f"distance-t{i}-t{j}", distance_clause))

    for pattern in sorted(contract.forbidden_patterns):
        fixing = pattern_fixing(gadget.terminals, pattern)
        clauses.append((
            f"pattern-{pattern}-infeasible",
            lambda fixing=fixing: _coloring_check(g, fixing),
        ))

    if contract.require_planar:
        clauses.append(("planarity", lambda: _planarity_check(g)))

    return clauses


def verify_contract(gadget: TerminalGadget) -> VerificationReport:
    """Re-check every contract clause; one report line per clause."""
    return _report(gadget.graph, _contract_clauses(gadget))


# clause kinds by the first word of their names, cheapest first: one BFS,
# one small pinned solve, a bounded cycle search, then planarity with its
# certificate (and a Kuratowski subgraph when it fails)
_CHEAPEST_FIRST = ("distance", "pattern", "forbidden", "planarity")


def first_failing_clause(gadget: TerminalGadget) -> str | None:
    """The name of the cheapest failing contract clause, or ``None`` when
    every clause passes.

    Runs the bodies :func:`verify_contract` runs, each one in full, but
    cheapest kind first, and stops at the first failure; it builds no
    report and computes no digest.  So it is ``None`` exactly when
    ``verify_contract(gadget).passed``.
    """
    clauses = sorted(
        _contract_clauses(gadget),
        key=lambda clause: _CHEAPEST_FIRST.index(clause[0].split("-")[0]),
    )
    for name, body in clauses:
        passed, _, _ = body()
        if not passed:
            return name
    return None


def require_contract(gadget: TerminalGadget) -> VerificationReport:
    """verify_contract, raising :class:`ContractError` on the first
    failing clause, with its witness rendered as the report text does."""
    report = verify_contract(gadget)
    if not report.passed:
        bad = next(c for c in report.checks if not c.passed)
        raise ContractError(
            f"contract clause {bad.name} failed: {witness_text(bad.witness)}",
            clause=bad.name,
        )
    return report


def terminals_cofacial(gadget: TerminalGadget) -> bool:
    """Can the terminals lie on one face?  Tested by joining a fresh apex
    vertex to all of them: planarity survives exactly when they can."""
    passed, _, _ = _planarity_check(add_apex(gadget.graph, gadget.terminals))
    return passed


# ---------------------------------------------------------------------------
# the counterexample battery

def _adjacent_triangles_check(
    g: Graph, *, census: CycleCensus
) -> tuple[bool, Any, Any]:
    conflicts = triangles_sharing_edge(g, census=census)
    if not conflicts:
        return True, None, {"triangle_pairs_sharing_an_edge": 0}
    edge, t1, t2 = conflicts[0]
    witness = {"edge": list(edge), "triangles": [list(t1), list(t2)]}
    return False, witness, {}


def _triangle_short_cycle_edge_check(
    g: Graph, *, census: CycleCensus
) -> tuple[bool, Any, Any]:
    conflicts = triangle_edge_conflicts(g, census=census)
    if not conflicts:
        return True, None, {"conflicts": 0}
    edge, tri, other = conflicts[0]
    witness = {
        "triangle": list(tri),
        "cycle": list(other),
        "shared_edge": list(edge),
    }
    return False, witness, {}


def counterexample_report(g: Graph, jobs: int = 1) -> VerificationReport:
    """The full battery run against a bare graph, trusting nothing about
    where it came from: planarity, no 4- or 5-cycles, no 3-coloring, and
    the two triangle conditions of the stronger conjecture variants.

    ``jobs`` is ignored: the solver runs in one process, and the keyword
    stays only so existing callers that pass it keep working.

    The three cycle and triangle checks read one census of the 3-, 4- and
    5-cycles.  Its DFS runs inside the first of them, ``no-4-or-5-cycles``,
    whose ``duration_s`` therefore carries it.
    """
    census = CycleCensus(g, (3, 4, 5))
    return _report(g, [
        ("planarity", lambda: _planarity_check(g)),
        (
            "no-4-or-5-cycles",
            lambda: _cycle_check(g, frozenset({4, 5}), census=census),
        ),
        ("not-3-colorable", lambda: _coloring_check(g, {})),
        ("no-adjacent-triangles", lambda: _adjacent_triangles_check(g, census=census)),
        (
            "no-triangle-sharing-edge-with-3-or-5-cycle",
            lambda: _triangle_short_cycle_edge_check(g, census=census),
        ),
    ])


# ---------------------------------------------------------------------------
# paste calculus

@dataclass(frozen=True)
class PasteRecipe:
    """A reproducible assembly shape over a shared slot space.

    Slots 0..num_slots-1 are identification points; extra vertices get
    ids num_slots..num_slots+extra_vertices-1; extra edges live on those
    ids.  ``parts[i]`` lists part i's slots: ``parts[i][j]`` receives the
    part's terminal j.  The parts name no gadget, so one recipe is pasted
    with gadgets by :func:`paste` and walked with behavior tables by
    :func:`walk_recipe`.
    """

    num_slots: int
    parts: tuple[tuple[int, ...], ...]
    extra_vertices: int = 0
    extra_edges: tuple[tuple[int, int], ...] = ()
    labels: tuple[tuple[int, str], ...] | None = None

    def __post_init__(self) -> None:
        s = self.num_slots
        if s < 0 or self.extra_vertices < 0:
            raise PasteError("slot and extra-vertex counts must be >= 0")
        for pi, slots in enumerate(self.parts):
            if len(set(slots)) != len(slots):
                raise PasteError(f"part {pi} would identify two of its own vertices")
            for slot in slots:
                if not (0 <= slot < s):
                    raise PasteError(f"part {pi} references unknown slot {slot}")
        dangling = set(range(s)) - {slot for slots in self.parts for slot in slots}
        if dangling:
            raise PasteError(f"dangling slot {min(dangling)}: no part is pasted to it")
        union = s + self.extra_vertices
        for u, v in self.extra_edges:
            if not (0 <= u < union) or not (0 <= v < union):
                raise PasteError(f"extra edge ({u}, {v}) outside the union space")
            if u == v:
                raise PasteError(f"extra edge ({u}, {v}) is a loop")

    @cached_property
    def walk_order(self) -> tuple[int, ...]:
        """The order :func:`walk_recipe` colors the slot and fresh
        vertices in, worked out once per recipe: next the vertex that
        decides the most extra edges and parts, smallest id first on
        ties, so branches close early and the tree stays small."""
        n = self.num_slots + self.extra_vertices
        scopes = [set(e) for e in self.extra_edges]
        scopes += [set(slots) for slots in self.parts]
        order: list[int] = []
        while len(order) < n:
            placed = set(order)
            order.append(
                max(
                    (v for v in range(n) if v not in placed),
                    key=lambda v: (
                        sum(v in sc and sc - {v} <= placed for sc in scopes),
                        -v,
                    ),
                )
            )
        return tuple(order)

    @property
    def names(self) -> list[str]:
        """The slot and fresh vertices' labels by id, an unlabeled one
        named by its id."""
        labels = dict(self.labels or ())
        n = self.num_slots + self.extra_vertices
        return [labels.get(v, str(v)) for v in range(n)]


def paste(recipe: PasteRecipe, gadgets: Sequence[TerminalGadget]) -> Graph:
    """Execute a recipe into the pasted graph, ``gadgets[i]`` as part i.

    Vertex numbering is deterministic: the slots are 0..num_slots-1,
    the extra vertices take the next extra_vertices ids, and each part's
    interior follows in part order.  Any two edges landing on the same
    final pair is a collision error, whether they come from two parts,
    from one part and an extra edge, or from two extra edges.
    """
    if len(gadgets) != len(recipe.parts):
        raise PasteError(f"{len(gadgets)} gadgets for {len(recipe.parts)} parts")
    next_vertex = recipe.num_slots + recipe.extra_vertices
    part_maps: list[dict[int, int]] = []
    for pi, (slots, gadget) in enumerate(zip(recipe.parts, gadgets)):
        if len(slots) != len(gadget.terminals):
            raise PasteError(
                f"part {pi} assigns {len(slots)} slots to"
                f" {len(gadget.terminals)} terminals"
            )
        gmap = dict(zip(gadget.terminals, slots))
        for v in range(gadget.graph.n):
            if v not in gmap:
                gmap[v] = next_vertex
                next_vertex += 1
        part_maps.append(gmap)

    edges: dict[tuple[int, int], str] = {}

    def put(u: int, v: int, origin: str) -> None:
        e = (u, v) if u < v else (v, u)
        if e in edges:
            raise PasteError(
                f"edge collision on {e}: {edges[e]} vs {origin}"
            )
        edges[e] = origin

    for pi, (gadget, gmap) in enumerate(zip(gadgets, part_maps)):
        for u, v in gadget.graph.edges:
            put(gmap[u], gmap[v], f"part {pi}")
    for u, v in recipe.extra_edges:
        put(u, v, "extra edge")

    labels = dict(recipe.labels) if recipe.labels else None
    return build_graph(next_vertex, sorted(edges), labels)


# ---------------------------------------------------------------------------
# the two stock compositions

def seed_in_roles(seed: TerminalGadget) -> TerminalGadget:
    """The seed as the triple needs it: terminals in (a, b, c) role
    order under :func:`seed_contract`.  The pair at distance 4 is
    (b, c), b the smaller vertex id, and the remaining terminal is a.
    Ordering b and c by id, not by position, keeps the pasted triple the
    same whatever order the seed lists its terminals in."""
    t = seed.terminals
    if len(t) != 3:
        raise ContractError(
            f"seed gadget needs 3 terminals, got {len(t)}", clause="arity"
        )
    dists = {
        (i, j): distance(seed.graph, t[i], t[j])
        for i in range(3)
        for j in range(i + 1, 3)
    }
    far = [(i, j) for (i, j), d in dists.items() if d == 4]
    near = [(i, j) for (i, j), d in dists.items() if d == 3]
    if len(far) != 1 or len(near) != 2:
        raise ContractError(
            f"terminal distances {dists} do not match one 4-pair and two"
            " 3-pairs",
            clause="distance",
        )
    b_pos, c_pos = far[0]
    a_pos = ({0, 1, 2} - {b_pos, c_pos}).pop()
    b, c = sorted((t[b_pos], t[c_pos]))
    return TerminalGadget(seed.graph, (t[a_pos], b, c), seed_contract())


# Three seed copies around a shared triangle.  Slots 0, 1, 2 are the new
# terminals; 3, 4, 5 ("d", "e", "f") take the three a-role terminals and
# carry the extra triangle.  Each part lists its slots in (a, b, c) role
# order: copy X spans slots (0, 1), copy Y (1, 2), copy Z (2, 0) with its
# distance-4 pair (b, c), so every new terminal pair is bridged by exactly
# one copy.  Each part is ``seed_in_roles(seed)``.
TRIPLE_RECIPE = PasteRecipe(
    num_slots=6,
    parts=((3, 0, 1), (4, 1, 2), (5, 2, 0)),
    extra_vertices=0,
    extra_edges=((3, 4), (4, 5), (3, 5)),
    labels=((0, "a"), (1, "b"), (2, "c"), (3, "d"), (4, "e"), (5, "f")),
)


def _paste_triple(roles: TerminalGadget) -> TerminalGadget:
    """Paste three copies of ``roles``, the seed in role order, by
    :data:`TRIPLE_RECIPE`, without checking the seed's contract."""
    graph = paste(TRIPLE_RECIPE, [roles] * 3)
    return TerminalGadget(graph, (0, 1, 2), triple_contract())


def build_triple_gadget(seed: TerminalGadget, jobs: int = 1) -> TerminalGadget:
    """Paste three verified seed copies into the composite gadget.

    The seed is oriented once by :func:`seed_in_roles` and re-verified
    against its full contract; any failing clause rejects the build.
    ``jobs`` is ignored: the solver runs in one process, and the keyword
    stays only so existing callers that pass it keep working.
    """
    roles = seed_in_roles(seed)
    require_contract(roles)
    return _paste_triple(roles)


# final assembly slot ids
_A, _C, _CP, _D, _F, _DP, _FP = range(7)
_B, _E, _EP = 7, 8, 9

_FINAL_LABELS = (
    (_A, "a"),
    (_C, "c"),
    (_CP, "c'"),
    (_D, "d"),
    (_F, "f"),
    (_DP, "d'"),
    (_FP, "f'"),
    (_B, "b"),
    (_E, "e"),
    (_EP, "e'"),
)

_FINAL_EXTRA_EDGES = (
    (_A, _B),
    (_B, _C),
    (_B, _CP),
    (_C, _CP),
    (_A, _E),
    (_D, _E),
    (_E, _F),
    (_D, _F),
    (_A, _EP),
    (_DP, _EP),
    (_EP, _FP),
    (_DP, _FP),
)


# Four composite copies sharing a hub vertex.  Copies P and Q meet in
# slots (a, c), copies R and S in (a, c'); their third terminals become
# d, f, d', f'.  Fresh vertices b, e, e' close the three extra triangles
# b-c-c', d-e-f, d'-e'-f', and a is joined to b, e, e'.
COUNTEREXAMPLE_RECIPE = PasteRecipe(
    num_slots=7,
    parts=(
        (_A, _C, _D),
        (_A, _C, _F),
        (_A, _CP, _DP),
        (_A, _CP, _FP),
    ),
    extra_vertices=3,
    extra_edges=_FINAL_EXTRA_EDGES,
    labels=_FINAL_LABELS,
)


def claw_skeleton(recipe: PasteRecipe, terminals: Sequence[int] = ()) -> Graph:
    """The recipe with each part replaced by a claw, a new vertex joined
    to the part's slots, numbered after the slot and fresh vertices; an
    apex joined to ``terminals``, when there are any, comes last.

    If each part is planar with its terminals on one face and the claw
    skeleton is planar, so is the paste: draw each part in a small disk
    round its claw's centre, its terminals on the boundary in the claw's
    cyclic order (with three terminals either order is a mirror image),
    and contract each claw edge.  With the apex the paste's ``terminals``
    are co-facial too, as :func:`terminals_cofacial` tests a gadget.  A
    claw fixes no cyclic order of four or more terminals, so such a part
    is a :class:`PasteError`.
    """
    n = recipe.num_slots + recipe.extra_vertices
    edges = list(recipe.extra_edges)
    for i, slots in enumerate(recipe.parts):
        if len(slots) > 3:
            raise PasteError(
                f"part {i} has {len(slots)} terminals: a claw fixes the"
                " cyclic order of at most 3"
            )
        edges += [(s, n + i) for s in slots]
    apex = n + len(recipe.parts)
    edges += [(t, apex) for t in terminals]
    return build_graph(apex + bool(terminals), edges)


def build_counterexample(triple: TerminalGadget, jobs: int = 1) -> Graph:
    """Assemble the final graph from a verified composite gadget, in
    the vertex order :func:`paste` gives it.

    ``jobs`` is ignored, as in :func:`build_triple_gadget`.
    """
    require_contract(
        TerminalGadget(triple.graph, triple.terminals, triple_contract())
    )
    return paste(COUNTEREXAMPLE_RECIPE, [triple] * 4)


# ---------------------------------------------------------------------------
# solver-free compositional argument

def walk_recipe(
    recipe: PasteRecipe,
    tables: Sequence[dict[str, bool]],
    terminals: tuple[int, ...],
) -> dict[str, Any]:
    """Decide the terminal behavior of ``paste(recipe, gadgets)`` on the
    slot or fresh vertices ``terminals`` from one behavior table per part,
    without a solver or the gadgets.

    Returns the walk as its report JSON: ``table`` is the derived
    behavior table; ``witnesses`` maps each feasible pattern to the first
    slot and fresh vertex coloring that realizes it, keyed by the
    recipe's labels.  In ``tree`` a branch reads ``{"vertex": name,
    "cases": {color: subtree}}``, a closed branch is its closing reason
    and a surviving one reads ``{"survivor": pattern}``; ``closed_by``
    counts the closing reasons.

    ``tables[i]`` reads part i in the order of its slots, keyed by
    exactly the patterns of that many terminals (``""`` for none), and
    ``terminals`` are distinct slot or fresh vertices; anything else is a
    :class:`ValueError`.  Each slot or fresh vertex, in walk order, takes
    a color already used or the next unused one.  Every coloring is a
    color permutation of exactly one such first-use coloring, and
    properness, :func:`pattern_of` and every closing reason are invariant
    under permutation, so no pattern is lost; the walk runs in
    lexicographic order and a pattern's first coloring in that order is
    first-use, so it is the pattern's witness.  A branch closes on a
    monochromatic extra edge or on a part whose terminals take a pattern
    its table marks infeasible.  Part interiors are disjoint and extra
    edges touch only slot and fresh vertices, so every surviving coloring
    extends to the whole pasted graph: the derived table is exact.  With
    no terminals the single pattern is "", feasible exactly when the
    pasted graph is 3-colorable.
    """
    if len(tables) != len(recipe.parts):
        raise ValueError(
            f"{len(tables)} behavior tables for {len(recipe.parts)} parts"
        )
    n = recipe.num_slots + recipe.extra_vertices
    if len(set(terminals) & set(range(n))) != len(terminals):
        raise ValueError(
            f"terminals {terminals} are not distinct vertices of 0..{n - 1}"
        )
    order = recipe.walk_order
    step = {v: k for k, v in enumerate(order)}
    # each extra edge and part is decided once its last vertex is colored
    edges_at: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v in recipe.extra_edges:
        edges_at[max(step[u], step[v])].append((u, v))
    parts_at: list[list[tuple]] = [[] for _ in range(n)]  # (i, slots, table)
    for i, (slots, table) in enumerate(zip(recipe.parts, tables)):
        want = set(all_patterns(len(slots))) if slots else {""}
        if set(table) != want:
            p = min(set(table) ^ want)
            raise ValueError(
                f"part {i} has {len(slots)} terminals but its behavior table"
                f" {'lists' if p in table else 'lacks'} pattern {p!r}"
            )
        parts_at[max((step[s] for s in slots), default=0)].append((i, slots, table))
    name = recipe.names
    color = [0] * n
    closed_by: dict[str, int] = {}
    witnesses: dict[str, dict[str, int]] = {}

    def closing_reason(k: int) -> str | None:
        for u, v in edges_at[k]:
            if color[u] == color[v]:
                return f"edge {name[u]}-{name[v]} monochromatic"
        for i, slots, table in parts_at[k]:
            pattern = pattern_of([color[s] for s in slots])
            if not table[pattern]:
                where = ", ".join(name[s] for s in slots)
                return f"part {i} ({where}) takes infeasible pattern {pattern}"
        return None

    def walk(k: int, used: int) -> dict[str, Any]:  # used: colors on order[:k]
        if k == n:
            pattern = pattern_of([color[t] for t in terminals])
            witnesses.setdefault(pattern, dict(zip(name, color)))
            return {"survivor": pattern}
        v = order[k]
        cases: dict[str, Any] = {}
        for c in range(min(used + 1, 3)):
            color[v] = c
            reason = closing_reason(k)
            if reason is None:
                cases[str(c)] = walk(k + 1, max(used, c + 1))
            else:
                closed_by[reason] = closed_by.get(reason, 0) + 1
                cases[str(c)] = reason
        return {"vertex": name[v], "cases": cases}

    tree = walk(0, 0)
    del walk  # walk's closure holds walk: a cycle, freed now, not by gc
    patterns = all_patterns(len(terminals)) if terminals else [""]
    return {
        "table": {p: p in witnesses for p in patterns},
        "closed_by": closed_by,
        "witnesses": witnesses,
        "tree": tree,
    }


def compositional_check(seed_behavior: dict[str, bool]) -> dict[str, Any]:
    """Prove the final graph non-3-colorable from the seed behavior
    table alone, without the solver, the seed or any pasted graph.

    ``seed_behavior`` reads the seed's terminals in (a, b, c) role order,
    the order of ``seed_in_roles(seed).terminals``.  Stage one walks
    :data:`TRIPLE_RECIPE` with the seed table on every part and derives
    the composite gadget's whole behavior table on its terminals
    (0, 1, 2).  Stage two walks :data:`COUNTEREXAMPLE_RECIPE` with that
    table on every part and no terminals; the final graph has no
    3-coloring exactly when no branch survives.

    Returns the report JSON of both walks (see :func:`walk_recipe`);
    ``counterexample`` is the final walk's surviving coloring, ``None``
    exactly when ``ok``.
    """
    triple_stage = walk_recipe(TRIPLE_RECIPE, [seed_behavior] * 3, (0, 1, 2))
    final_stage = walk_recipe(
        COUNTEREXAMPLE_RECIPE, [triple_stage["table"]] * 4, ()
    )
    counterexample = final_stage["witnesses"].get("")
    return {
        "ok": counterexample is None,
        "triple_stage": triple_stage,
        "final_stage": final_stage,
        "counterexample": counterexample,
    }


def _recipe_facts(
    recipe: PasteRecipe, distances: Matrix, terminals: tuple[int, ...],
    lengths: frozenset[int],
) -> tuple[list, Any]:
    """:func:`check.skeleton_facts` on ``recipe`` with ``distances`` on
    every part: the derived distances between ``terminals``, and a
    forbidden-cycles check body's result whose details give the cycle
    floor and the exact cycles, and whose witness names the lightest
    forbidden skeleton cycle by the recipe's labels."""
    names = recipe.names
    parts = [(slots, distances) for slots in recipe.parts]
    dist, floor, exact, bad = skeleton_facts(
        len(names), recipe.extra_edges, parts, terminals, lengths
    )
    details = {"derived": "skeleton", "part_cycles_at_least": floor,
               "extra_cycles": exact}
    if bad is None:
        return dist, (True, None, details)
    witness = {"type": "skeleton-cycle", "weight": bad[0],
               "vertices": [names[v] for v in bad[1]]}
    return dist, (False, witness, details)


def lemmas_report(seed: TerminalGadget) -> VerificationReport:
    """The paper's argument from the seed upward: the seed's contract,
    its all-equal infeasibility by an exhaustive sweep and by brute
    force, the triple's contract derived from the seed's, and the
    solver-free case tree over both recipes.

    The seed is oriented once by :func:`seed_in_roles`, and every check
    reads it in that (a, b, c) role order, so one seed gives one report
    whatever order its file lists the terminals in, and the check names
    are those of :func:`seed_contract`.  Its contract is checked once, as
    :func:`build_triple_gadget` checks it; a failing clause raises
    :class:`ContractError` before any other check runs.  The seed is the
    only graph built: no recipe is pasted.

    ``composition:case-tree`` walks both recipes with the seed's table,
    whose all-equal row is the seed contract's refutation, and
    :func:`check.case_tree_refutes` must accept both walks, or
    :class:`OracleMismatchError` is raised.  The triple's clauses are
    derived through :data:`TRIPLE_RECIPE`: its distances and forbidden
    cycles by :func:`check.skeleton_facts` from the seed's distances and
    cycle clause; its all-equal row from the checked walk's table; its
    planarity and its terminals' co-faciality from its claw skeleton
    with an apex on them (:func:`claw_skeleton`), given the seed's
    planarity and its terminals' co-faciality.  The case tree's details
    add the final graph's cycle and planarity facts, derived the same
    way through :data:`COUNTEREXAMPLE_RECIPE` from the triple's.
    """
    roles = seed_in_roles(seed)
    seed_report = require_contract(roles)
    checks = [replace(c, name=f"seed:{c.name}") for c in seed_report.checks]
    pattern = all_equal_pattern(len(roles.terminals))
    all_equal = pattern_fixing(roles.terminals, pattern)

    def seed_exhaustive():
        count = exhaustive_color_count(roles.graph, all_equal)
        swept = 3 ** (roles.graph.n - len(roles.terminals))
        return count == 0, (
            None if count == 0 else {"extensions_found": count}
        ), {"assignments_swept": swept, "extensions_found": count}

    checks.append(timed_check("seed:all-equal-exhaustive-sweep", seed_exhaustive))

    def seed_oracle():
        witness = brute_force_3coloring(roles.graph, all_equal)
        if witness is None:
            return True, None, {"oracle": "brute-force"}
        return False, _coloring_witness(witness), {}

    checks.append(timed_check("seed:all-equal-brute-force", seed_oracle))

    triple = triple_contract()
    dist, triple_cycles = _recipe_facts(
        TRIPLE_RECIPE, roles.contract.exact_terminal_distances, (0, 1, 2),
        triple.forbidden_cycle_lengths,
    )
    walked: dict[str, Any] = {}

    def composition():
        seed_table = terminal_behavior(roles, frozenset({pattern}))
        walked.update(compositional_check(seed_table))
        for recipe, table, terminals, stage in (
            (TRIPLE_RECIPE, seed_table, (0, 1, 2), walked["triple_stage"]),
            (COUNTEREXAMPLE_RECIPE, walked["triple_stage"]["table"], (),
             walked["final_stage"]),
        ):
            parts = [(slots, table) for slots in recipe.parts]
            if not case_tree_refutes(recipe.names, recipe.extra_edges, parts,
                                     terminals, stage["tree"], stage["table"]):
                raise OracleMismatchError(
                    f"the case tree over {len(parts)} parts fails its check"
                )
        _, (acyclic, cycle, cycles) = _recipe_facts(
            COUNTEREXAMPLE_RECIPE, dist, (), frozenset({4, 5})
        )
        planar, kuratowski, faces = _planarity_check(
            claw_skeleton(COUNTEREXAMPLE_RECIPE)
        )
        walked["final_stage"]["no-4-or-5-cycles"] = cycles
        walked["final_stage"]["planarity"] = (
            {"derived": "claw-skeleton", **faces} if planar else kuratowski
        )
        passed = walked["ok"] and acyclic and planar
        return passed, walked["counterexample"] or cycle or kuratowski, walked

    case_tree = timed_check("composition:case-tree", composition)

    def distance_clause(i, j):
        want = triple.exact_terminal_distances[i][j]
        details = {"derived": "skeleton", "distance": dist[i][j]}
        if dist[i][j] == want:
            return True, None, details
        return False, {**details, "expected_exact": want}, None

    def pattern_clause(p):
        row = walked["triple_stage"]["table"][p]
        witness = walked["triple_stage"]["witnesses"].get(p)
        return not row, witness, {"derived": "case-tree"}

    def planarity_clause():
        if not terminals_cofacial(roles):
            return False, {"type": "seed-terminals-not-cofacial"}, None
        planar, kuratowski, faces = _planarity_check(
            claw_skeleton(TRIPLE_RECIPE, (0, 1, 2))
        )
        return planar, kuratowski, {"derived": "claw-skeleton", **(faces or {})}

    # the triple contract's clauses, in the order _contract_clauses runs them
    clauses = [("forbidden-cycles", lambda: triple_cycles)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        clauses.append(
            (f"distance-t{i}-t{j}", lambda i=i, j=j: distance_clause(i, j))
        )
    for p in sorted(triple.forbidden_patterns):
        clauses.append((f"pattern-{p}-infeasible", lambda p=p: pattern_clause(p)))
    clauses.append(("planarity", planarity_clause))
    checks += [timed_check(f"triple:{name}", body) for name, body in clauses]
    checks.append(case_tree)
    return VerificationReport(target=seed_report.target, checks=tuple(checks))


# ---------------------------------------------------------------------------
# gadget serialization

def gadget_to_json_dict(gadget: TerminalGadget) -> dict[str, Any]:
    d = graph_to_json_dict(gadget.graph)
    d["terminals"] = list(gadget.terminals)
    d["contract"] = gadget.contract.to_json_dict()
    return d


def gadget_from_json_dict(d: dict[str, Any]) -> TerminalGadget:
    graph = graph_from_json_dict(d)
    if "terminals" not in d:
        raise FormatError("gadget JSON needs a 'terminals' list")
    terminals = tuple(
        strict_int(t, "a terminal") for t in strict_list(d["terminals"], "terminals")
    )
    try:
        contract = InterfaceContract.from_json_dict(d.get("contract", {}))
        return TerminalGadget(graph, terminals, contract)
    except ValueError as exc:  # a clause or terminal the constructors refuse
        raise FormatError(str(exc)) from exc


def save_gadget(
    gadget: TerminalGadget,
    path: str | Path,
    verification: dict[str, Any] | None = None,
) -> None:
    d = gadget_to_json_dict(gadget)
    if verification is not None:
        d["verification"] = verification
    Path(path).write_bytes(dump_json(d))


def load_gadget(path: str | Path) -> TerminalGadget:
    return gadget_from_json_dict(parse_json_payload(Path(path).read_bytes()))
