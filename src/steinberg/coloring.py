"""3-coloring: a clause-learning solver plus independent brute force.

The solver encodes the coloring as clauses over (vertex, color)
variables and runs textbook conflict-driven clause learning on them.
The input's vertex order sets its cost (the final graph takes 67
conflicts in paste order and a few hundred under seeded relabelings)
but neither its verdict nor whether its proof is valid.  The edge clauses
are implication lists read off the sorted adjacency, not clause
objects: "v takes c" makes each neighbour's "takes c" false.  It is
deterministic: each decision sets the unassigned variable of highest
activity false, ties to the smallest variable.  On UNSAT its learnt
clauses, each with the clauses that derive it, form a hinted proof that
:func:`_coloring_check` checks with :mod:`check`, which checks
witnesses too and shares no code with the solver.  Every verdict of the
solver goes through that function: the contracts' pattern clauses,
``verify``'s colorability check and each row of a
:func:`terminal_behavior` table that no passing contract clause has
already refuted (those come from the clause, not a solve).  The other
coloring verdicts take no solve: ``lemmas`` has the seed's all-equal row
from the brute force and from the exhaustive sweep, and the triple's
pattern clause and the final stage from the checked case tree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .check import hints_refute, is_proper
from .errors import ImproperFixingError, OracleMismatchError, SizeGuardError
from .graphs import Graph

if TYPE_CHECKING:  # pragma: no cover
    from .gadgets import TerminalGadget

ColorAssignment = dict[int, int]

_BRUTE_FORCE_LIMIT = 25  # 3^25 assignment space; beyond this, refuse
_EXHAUSTIVE_LIMIT = 16  # full bitset sweep, all 3^k rows touched
_SWEEP_CHUNK_VERTICES = 9  # a chunk spans 3^9 rows, one bit each (fastest of 8..11)
_BEHAVIOR_ARITIES = range(2, 5)  # terminal counts a behavior table covers
_ACTIVITY_LIMIT = 1e100  # past this, every solver activity is divided by it
_ACTIVITY_DECAY = 0.95  # each conflict's bump is the last one divided by this


def _check_fixed_range(g: Graph, fixed: Mapping[int, int]) -> None:
    """Reject a pre-assignment with a vertex outside ``g`` or a color
    outside 0..2."""
    for v, c in fixed.items():
        if not (0 <= v < g.n):
            raise ImproperFixingError(f"fixed vertex {v} outside 0..{g.n - 1}")
        if c not in (0, 1, 2):
            raise ImproperFixingError(f"fixed color {c} on vertex {v} not in 0..2")


def check_fixed(g: Graph, fixed: Mapping[int, int]) -> None:
    """Reject a pre-assignment that is out of range or already violates
    one of its own edges.  Distinct from an UNSAT outcome."""
    _check_fixed_range(g, fixed)
    for u, v in g.edges:
        if u in fixed and v in fixed and fixed[u] == fixed[v]:
            raise ImproperFixingError(
                f"fixed assignment is monochromatic on edge ({u}, {v})"
            )


@dataclass
class SolveStats:
    """Counters of one solve, plus the clauses it learnt.

    ``nodes`` counts decisions and ``propagations`` the literals unit
    propagation processed.  ``proof`` lists the learnt clauses in the
    order they were learnt, in the literal encoding of
    :func:`solve_3coloring_with_stats`; after an UNSAT verdict each of
    them, and then the empty clause, follows from the encoding and the
    clauses before it by unit propagation alone (a RUP proof).
    ``steps`` holds that proof with its order given, as the ``(clause,
    hints)`` pairs that :func:`check.hints_refute` reads.
    """

    nodes: int = 0
    propagations: int = 0
    conflicts: int = 0
    proof: list[tuple[int, ...]] = field(
        default_factory=list, compare=False, repr=False
    )
    steps: list[tuple[tuple[int, ...], tuple[Any, ...]]] = field(
        default_factory=list, compare=False, repr=False
    )


def _cdcl(
    n: int, adj: Sequence[Sequence[int]], units: Sequence[int], stats: SolveStats
) -> list[int] | None:
    """Conflict-driven clause learning on the 3-coloring of the n-vertex
    graph with sorted adjacency lists ``adj``, over literals ``2 * var``
    (true) and ``2 * var + 1`` (false) of the variables ``3 * v + c``;
    ``units`` are literals of distinct variables that hold from the
    start.  Returns the literal values of a total model (1 true, -1
    false), or None when no model exists.

    Each vertex's at-least-one clause is watched like a learnt clause.
    The edge clauses "not both ends take c" are implication lists: a
    true "v takes c" makes "w takes c" false for each neighbour w in
    ``adj[v]`` order, before the watched clauses of "v does not take c"
    are visited, which is the order of binary clauses listed edge by
    edge ahead of everything learnt.  A binary reason is kept as its
    false literal and read as the pair (implied literal, false literal),
    and a binary conflict is the pair (false neighbour literal, false
    literal).

    Two watched literals per clause, first-UIP learning, and branching
    on the unassigned variable of highest activity (ties to the smallest
    variable), set false.  Every variable in a conflict's analysis gains
    activity, and later conflicts weigh more.  A decision takes the first
    open variable of a list kept in that order: the first decision after
    a conflict sorts every variable afresh by the new activities, a
    stable sort that keeps ties smallest first.  No restarts and no
    clause deletion, so the learnt clauses only grow.

    Each learnt clause is a step of ``stats.steps`` whose hints are the
    reasons its analysis resolved, in trail order, then the conflict.
    Each literal set at level 0 from a clause is a unit step citing that
    clause, and a conflict at level 0 the empty clause citing it.
    """
    num_vars = 3 * n
    value = [0] * (2 * num_vars)
    level = [0] * num_vars
    reason: list[Sequence[int] | int | None] = [None] * num_vars
    watches: list[list[list[int]]] = []
    implied: list[list[int]] = []  # by vertex: "w lacks color 0", w adjacent
    for v, nbrs in enumerate(adj):
        at_least_one = [6 * v, 6 * v + 2, 6 * v + 4]
        watches += [at_least_one], [], [at_least_one], [], [], []
        implied.append([6 * w + 1 for w in nbrs])
    trail = list(units)
    push = trail.append
    for lit in units:
        value[lit] = 1
        value[lit ^ 1] = -1
    trail_lim: list[int] = []
    depth = 0  # len(trail_lim)
    activity = [0.0] * num_vars
    bump = 1.0
    limit = _ACTIVITY_LIMIT
    decay = _ACTIVITY_DECAY
    order = list(range(num_vars))  # by activity, highest first
    pos = 0  # no variable before order[pos] is open until the next conflict
    resort = False  # whether a conflict came since order was sorted
    nodes = propagations = 0
    qhead = 0
    steps = stats.steps
    proof = stats.proof
    step_of: dict[int, int] = {}  # id of a kept learnt clause -> its step

    def hint(clause: Sequence[int]) -> Any:
        k = step_of.get(id(clause))
        return tuple(clause) if k is None else k

    fact = 0  # trail[:fact] at level 0 has its steps
    while True:
        # unit propagation: the implications of each newly true literal,
        # then the clauses watching its negation, moving the watch or
        # propagating the other watched literal; only a true "v takes c"
        # has implications, and only a false one is watched by the
        # at-least-one clauses
        conflict = None
        start = qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            if lit & 1:
                false_lit = lit - 1
            else:
                false_lit = lit + 1
                color = lit % 6  # twice the color, as a literal offset
                for q in implied[lit // 6]:
                    q += color
                    x = value[q]
                    if not x:
                        value[q] = 1
                        value[q - 1] = -1
                        level[q >> 1] = depth
                        reason[q >> 1] = false_lit
                        push(q)
                    elif x < 0:
                        conflict = (q, false_lit)
                        break
                if conflict is not None:
                    break
            watching = watches[false_lit]
            if not watching:
                continue
            watches[false_lit] = kept = []
            for k, c in enumerate(watching):
                if c[0] == false_lit:
                    c[0] = other = c[1]
                    c[1] = false_lit
                else:
                    other = c[0]
                if value[other] == 1:
                    kept.append(c)
                    continue
                if len(c) == 3:  # every at-least-one clause: one literal to try
                    q = c[2]
                    if value[q] != -1:
                        c[1] = q
                        c[2] = false_lit
                        watches[q].append(c)
                        continue
                else:
                    for i in range(2, len(c)):
                        q = c[i]
                        if value[q] != -1:
                            c[1] = q
                            c[i] = false_lit
                            watches[q].append(c)
                            break
                    else:
                        i = 0  # nothing to watch instead: unit or conflict
                    if i:
                        continue
                kept.append(c)
                if value[other] == -1:
                    kept.extend(watching[k + 1 :])
                    conflict = c
                    break
                value[other] = 1
                value[other ^ 1] = -1
                level[other >> 1] = depth
                reason[other >> 1] = c
                push(other)
            if conflict is not None:
                break
        propagations += qhead - start
        if not depth:
            for lit in trail[fact:]:
                r = reason[lit >> 1]
                if r.__class__ is int:
                    r = (lit, r)
                if r is not None:
                    steps.append(((lit,), (hint(r),)))
            fact = len(trail)
        if conflict is None:
            if resort:  # stable, so ties keep the smallest variable first
                order = sorted(range(num_vars), key=activity.__getitem__, reverse=True)
                resort = False
                pos = 0
            while pos < num_vars and value[2 * order[pos]]:
                pos += 1
            if pos == num_vars:
                stats.nodes += nodes
                stats.propagations += propagations
                return value
            nodes += 1
            trail_lim.append(len(trail))
            depth += 1
            v = order[pos]
            lit = 2 * v + 1
            value[lit] = 1
            value[lit ^ 1] = -1
            level[v] = depth
            reason[v] = None
            push(lit)
            continue
        stats.conflicts += 1
        if not trail_lim:
            steps.append(((), (hint(conflict),)))
            stats.nodes += nodes
            stats.propagations += propagations
            return None
        # first-UIP analysis: resolve the conflict with the reasons of
        # current-level literals, latest first, until one is left
        learnt = [0]
        seen = set()
        pending = 0
        i = len(trail)
        clause = conflict
        hints = []
        while True:
            k = step_of.get(id(clause))
            hints.append(tuple(clause) if k is None else k)
            for q in clause:
                v = q >> 1
                if v in seen or not level[v]:
                    continue
                seen.add(v)
                a = activity[v] = activity[v] + bump
                if a > limit:
                    scale = 1 / limit
                    activity = [x * scale for x in activity]
                    bump *= scale
                if level[v] == depth:
                    pending += 1
                else:
                    learnt.append(q)
            while True:
                i -= 1
                lit = trail[i]
                if lit >> 1 in seen:
                    break
            pending -= 1
            if not pending:
                break
            clause = reason[lit >> 1]
            if clause.__class__ is int:
                clause = (lit, clause)
        learnt[0] = lit ^ 1
        bump /= decay
        resort = True
        proof.append(tuple(learnt))
        hints.reverse()
        steps.append((proof[-1], tuple(hints)))
        if len(learnt) > 1:  # kept as a reason, so its id stays its own
            step_of[id(learnt)] = len(steps) - 1
        # backjump to the second-highest level in the clause, which then
        # asserts its first-UIP literal; the next decision sorts again
        back = 0
        for k in range(1, len(learnt)):
            if level[learnt[k] >> 1] > back:
                back = level[learnt[k] >> 1]
                learnt[1], learnt[k] = learnt[k], learnt[1]
        for q in trail[trail_lim[back] :]:
            value[q] = value[q ^ 1] = 0
        del trail[trail_lim[back] :]
        del trail_lim[back:]
        depth = back
        qhead = len(trail)
        lit = learnt[0]
        if len(learnt) > 1:
            watches[lit].append(learnt)
            watches[learnt[1]].append(learnt)
        value[lit] = 1
        value[lit ^ 1] = -1
        level[lit >> 1] = depth
        reason[lit >> 1] = learnt if len(learnt) > 1 else None
        push(lit)


def _symmetry_pin(g: Graph, fixed: Mapping[int, int]) -> Mapping[int, int]:
    """``fixed``, or vertex 0 at color 0 when nothing is fixed: permuting
    the colors maps proper colorings to proper colorings."""
    return fixed if fixed or not g.n else {0: 0}


def solve_3coloring_with_stats(
    g: Graph, fixed: Mapping[int, int] | None = None
) -> tuple[ColorAssignment | None, SolveStats]:
    """Like :func:`solve_3coloring` but also returns the solver's
    counters and learnt clauses.

    The encoding has a variable ``3 * v + c`` for "vertex v takes color
    c", with literal ``2 * (3 * v + c)`` and its negation one above: one
    at-least-one clause per vertex, one binary clause per edge and
    color, kept as implication lists, and for each fixed vertex three
    units, its own color true and the other two false.
    """
    fixed = dict(fixed or {})
    check_fixed(g, fixed)
    units = [
        6 * v + 2 * c + (c != col)
        for v, col in sorted(_symmetry_pin(g, fixed).items())
        for c in range(3)
    ]
    stats = SolveStats()
    model = _cdcl(g.n, g.adj, units, stats)
    if model is None:
        return None, stats
    # no clause forbids two true colors on one vertex; any true one is
    # proper, since every edge forbids each color at one of its ends
    colors = {v: model[6 * v : 6 * v + 6 : 2].index(1) for v in range(g.n)}
    return colors, stats


def solve_3coloring(
    g: Graph, fixed: Mapping[int, int] | None = None
) -> ColorAssignment | None:
    """Find a proper 3-coloring extending ``fixed``, or None when no
    extension exists.

    A ``fixed`` assignment that already violates one of its own edges
    raises :class:`ImproperFixingError`; that situation is reported as an
    input error, never as UNSAT.  The empty graph is satisfiable with the
    empty assignment.  With nothing fixed, vertex 0 gets color 0.
    """
    result, _ = solve_3coloring_with_stats(g, fixed)
    return result


def revalidate_unsat(g: Graph, fixed: Mapping[int, int] | None = None) -> dict:
    """Re-derive an UNSAT verdict by a symmetry split and return its
    transcript.

    The smallest free vertex is pinned to each color in turn and solved;
    the transcript gives the ``root`` and one entry per branch.  A
    satisfiable branch, or a total fixing that is itself a proper
    coloring, means the original verdict was wrong and raises
    :class:`OracleMismatchError` at once.  This repeats the solver, so it
    is opt-in evidence, not part of any report.
    """
    fixed = dict(fixed or {})
    check_fixed(g, fixed)
    free = [v for v in range(g.n) if v not in fixed]
    if not free:
        # check_fixed passed, so a total fixing is a proper coloring
        raise OracleMismatchError(
            "UNSAT claimed but the fixing itself is a proper coloring"
        )
    root = free[0]
    branches = []
    for c in (0, 1, 2):
        split = dict(fixed)
        split[root] = c
        try:
            result, stats = solve_3coloring_with_stats(g, split)
        except ImproperFixingError:
            branches.append({"color": c, "verdict": "conflict", "nodes": 0})
            continue
        if result is not None:
            raise OracleMismatchError(
                f"UNSAT claimed overall but SAT with vertex {root} pinned"
                f" to color {c}"
            )
        branches.append({"color": c, "verdict": "unsat", "nodes": stats.nodes})
    return {"root": root, "branches": branches}


def brute_force_3coloring(
    g: Graph, fixed: Mapping[int, int] | None = None
) -> ColorAssignment | None:
    """Exhaustive check over every extension of ``fixed``.

    Enumerates assignments of the free vertices in index order,
    lexicographically by color, abandoning a prefix only when it already
    violates an edge, so the returned witness is the lexicographically
    first proper extension.  Guard: at most 3^25 extensions.
    """
    fixed = dict(fixed or {})
    check_fixed(g, fixed)
    free = [v for v in range(g.n) if v not in fixed]
    if len(free) > _BRUTE_FORCE_LIMIT:
        raise SizeGuardError(
            f"{len(free)} free vertices exceed the 3^{_BRUTE_FORCE_LIMIT}"
            " brute-force guard"
        )
    colors: dict[int, int] = dict(fixed)
    nbrs = g.adj

    def extend(i: int) -> bool:
        if i == len(free):
            return True
        v = free[i]
        for c in (0, 1, 2):
            if all(colors.get(w) != c for w in nbrs[v]):
                colors[v] = c
                if extend(i + 1):
                    return True
                del colors[v]
        return False

    found = extend(0)
    del extend  # extend's closure holds extend: a cycle, freed now, not by gc
    return colors if found else None


def _tile(block: int, width: int, total: int) -> int:
    """``block``, ``width`` bits wide, repeated to fill ``total`` bits (a
    multiple of ``width``) by shift-and-OR doubling."""
    while width < total:
        block |= block << width
        width *= 2
    return block & ((1 << total) - 1)


def exhaustive_color_count(
    g: Graph, fixed: Mapping[int, int] | None = None
) -> int:
    """Count proper 3-colorings extending ``fixed`` by sweeping the full
    3^k assignment space in bitset chunks; every row is examined.

    The first (at most 9) free vertices span the rows of one chunk: bit
    r of an integer stands for row r, and ``masks[v][c]`` holds the rows
    that give vertex v color c.  Each coloring of the remaining free
    vertices is one chunk, in which they and the fixed vertices are
    colored.  Every edge ORs in the rows it violates and the chunk adds
    the rows left over.

    Guard: at most 16 free vertices, 3^16 rows (the sweep has no pruning
    at all).
    """
    fixed = dict(fixed or {})
    check_fixed(g, fixed)
    free = [v for v in range(g.n) if v not in fixed]
    k = len(free)
    if k > _EXHAUSTIVE_LIMIT:
        raise SizeGuardError(
            f"{k} free vertices exceed the 3^{_EXHAUSTIVE_LIMIT}"
            " exhaustive-sweep guard"
        )
    inner = free[:_SWEEP_CHUNK_VERTICES]
    outer = free[_SWEEP_CHUNK_VERTICES:]
    rows = 3 ** len(inner)
    every_row = (1 << rows) - 1
    masks: dict[int, list[int]] = {}
    stride = 1
    for v in inner:
        # color 1's rows are color 0's moved up one stride, within each
        # block of 3 strides, so no row leaves the chunk
        zero = _tile((1 << stride) - 1, 3 * stride, rows)
        one = zero << stride
        masks[v] = [zero, one, every_row ^ zero ^ one]
        stride *= 3
    base = 0  # rows violating an edge between two row-spanning vertices
    half_edges = []  # (row-spanning vertex, colored vertex)
    colored_edges = []
    for u, v in g.edges:
        if u in masks and v in masks:
            a, b = masks[u], masks[v]
            base |= a[0] & b[0] | a[1] & b[1] | a[2] & b[2]
        elif u in masks:
            half_edges.append((u, v))
        elif v in masks:
            half_edges.append((v, u))
        else:
            colored_edges.append((u, v))
    count = 0
    color = dict(fixed)
    for chunk in itertools.product((0, 1, 2), repeat=len(outer)):
        color.update(zip(outer, chunk))
        bad = base
        for u, w in half_edges:
            bad |= masks[u][color[w]]
        if any(color[u] == color[w] for u, w in colored_edges):
            bad = every_row
        count += rows - bad.bit_count()
    return count


# ---------------------------------------------------------------------------
# verdicts

def _coloring_witness(coloring: Mapping[int, int]) -> dict[str, Any]:
    """A coloring as a report witness, keyed by vertex string in order."""
    return {"coloring": {str(v): c for v, c in sorted(coloring.items())}}


def _coloring_check(g: Graph, fixing: Mapping[int, int]) -> tuple[bool, Any, Any]:
    """No proper 3-coloring extends ``fixing``; a report check body.

    A fixing monochromatic on one of its own edges passes (mode
    ``adjacent-terminals``); one with a vertex outside ``g`` or a color
    outside 0..2 raises :class:`ImproperFixingError`, as
    :func:`check_fixed` words it.  A solver witness is checked with
    :func:`is_proper`, and an UNSAT verdict by checking its hinted steps
    with :func:`hints_refute` under ``fixing`` and the solver's pin.  A
    failed check raises :class:`OracleMismatchError`, not an
    assertion, so ``python -O`` keeps it.
    """
    _check_fixed_range(g, fixing)  # the solver's refusal is then an edge's
    try:
        solution, stats = solve_3coloring_with_stats(g, fixing)
    except ImproperFixingError:
        return True, None, {"mode": "adjacent-terminals"}
    if solution is not None:
        if not is_proper(g, solution):
            raise OracleMismatchError(
                f"solver returned an improper coloring with fixing {fixing!r}"
            )
        return False, _coloring_witness(solution), {"solver_nodes": stats.nodes}
    if not hints_refute(g.n, g.edges, _symmetry_pin(g, fixing), stats.steps):
        raise OracleMismatchError(
            f"the solver's UNSAT proof fails the RUP check with fixing {fixing!r}"
        )
    return True, None, {
        "solver_nodes": stats.nodes,
        "conflicts": stats.conflicts,
        "proof_clauses": len(stats.proof),
        "proof_literals": sum(map(len, stats.proof)),
        "proof": "rup-checked",
    }


# ---------------------------------------------------------------------------
# terminal patterns

def pattern_of(colors: Sequence[int]) -> str:
    """Normalize a color tuple to its partition pattern string.

    First occurrences are renumbered 0, 1, 2 in order, so (2, 2, 0)
    and (1, 1, 2) both become "001".  Tuples of 1 to 4 colors are read
    from a table that this function's own loop filled at import.
    """
    colors = tuple(colors)
    pattern = _PATTERN_TABLE.get(colors)
    if pattern is not None:
        return pattern
    seen: dict[int, int] = {}
    out = []
    for c in colors:
        if c not in seen:
            seen[c] = len(seen)
        out.append(seen[c])
    return "".join(str(d) for d in out)


# filled through pattern_of itself: a tuple not yet in it takes the loop
_PATTERN_TABLE: dict[tuple[int, ...], str] = {}
_PATTERN_TABLE.update(
    (colors, pattern_of(colors))
    for t in range(1, 5)
    for colors in itertools.product(range(3), repeat=t)
)


def all_patterns(t: int) -> list[str]:
    """Every partition pattern of t positions using at most 3 blocks,
    in lexicographic order."""
    if not (1 <= t <= 4):
        raise ValueError(f"pattern arity must be 1..4, got {t}")
    return sorted({pattern_of(c) for c in itertools.product(range(3), repeat=t)})


def pattern_representative(pattern: str) -> list[int]:
    """The canonical coloring for a pattern: block index = color."""
    digits = [int(ch) for ch in pattern]
    if pattern_of(digits) != pattern:
        raise ValueError(f"{pattern!r} is not a normalized pattern")
    return digits


def pattern_fixing(terminals: Sequence[int], pattern: str) -> dict[int, int]:
    """The fixing that colors ``terminals`` by ``pattern``'s
    representative: terminal i takes color ``pattern[i]``."""
    return dict(zip(terminals, pattern_representative(pattern)))


def all_equal_pattern(t: int) -> str:
    return "0" * t


def terminal_behavior(
    gadget: "TerminalGadget", refuted: frozenset[str]
) -> dict[str, bool]:
    """Decide every terminal pattern of a gadget with 2 to 4 terminals:
    the feasibility of each, in :func:`all_patterns` order.

    Feasibility under one representative coloring decides the whole
    pattern class because permuting the three colors maps proper
    colorings to proper colorings.

    ``refuted`` holds patterns, in ``gadget.terminals`` order, that a
    passing contract clause on the same graph has already refuted; they
    are recorded infeasible without a second solve.  Pass ``frozenset()``
    to decide every row here.  Any other pattern is infeasible exactly
    when :func:`_coloring_check` passes on its fixing, so equal colors on
    adjacent terminals are infeasible, not an error.
    """
    terminals = gadget.terminals
    t = len(terminals)
    if t not in _BEHAVIOR_ARITIES:
        raise ValueError(f"terminal behavior needs 2..4 terminals, got {t}")
    table = {}
    for pattern in all_patterns(t):
        infeasible = pattern in refuted or _coloring_check(
            gadget.graph, pattern_fixing(terminals, pattern)
        )[0]
        table[pattern] = not infeasible
    return table
