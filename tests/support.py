"""Reference implementations the tests use as oracles.

Everything here is deliberately naive and shares no code with the
package: an oracle that reuses the implementation under test cannot
catch its bugs.  The graph6 encoder follows the published format
definition directly, the cycle finder enumerates vertex subsets, the
coloring check enumerates assignments, the isomorphism test tries
every permutation, and the canonical form encodes every leaf of the
refinement tree.  The JSON writer's reference is the standard library's
indenting encoder.  The solver reference runs the package solver's search
over an explicit clause list, with a clause object per edge and color,
so that the package's implication lists must reproduce it step for step.
The hinted-proof reference looks every input clause up in a table.
"""

from __future__ import annotations

import heapq
import itertools
import json
import random
import sys
from collections import deque

from steinberg import Graph, build_graph, canonical_digest


def graph6_reference(n: int, edges) -> bytes:
    """graph6 straight from the format definition, for n <= 62.

    Header byte 63+n, then the column-major upper triangle of the
    adjacency matrix packed six bits per byte, high bit first, padded
    with zeros, each byte offset by 63.
    """
    if not 0 <= n <= 62:
        raise ValueError("reference encoder handles n <= 62 only")
    present = {tuple(sorted(e)) for e in edges}
    bits = []
    for col in range(1, n):
        for row in range(col):
            bits.append(1 if (row, col) in present else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [63 + n]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k : k + 6]:
            value = (value << 1) | b
        out.append(63 + value)
    return bytes(out)


def reference_dump_json(obj) -> bytes:
    """The package's JSON byte format as the standard library writes it."""
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("ascii")


def normalize_cycle(seq) -> tuple[int, ...]:
    """Canonical tuple for a cyclic sequence: smallest vertex first,
    then whichever direction gives the lexicographically smaller tuple."""
    k = len(seq)
    i = seq.index(min(seq))
    fwd = tuple(seq[(i + d) % k] for d in range(k))
    rev = tuple(seq[(i - d) % k] for d in range(k))
    return min(fwd, rev)


def subset_cycles(g: Graph, k: int) -> set[tuple[int, ...]]:
    """All k-cycles of g, by checking every subset and every ordering."""
    es = g.edge_set
    found = set()
    for sub in itertools.combinations(range(g.n), k):
        first = sub[0]
        for perm in itertools.permutations(sub[1:]):
            seq = (first,) + perm
            if all(
                tuple(sorted((seq[i], seq[(i + 1) % k]))) in es
                for i in range(k)
            ):
                found.add(normalize_cycle(seq))
    return found


def reference_triangle_conflicts(g: Graph):
    """(triangle pairs, triangle conflicts) from :func:`subset_cycles`.

    Every pair of cycles is intersected edge set against edge set: two
    distinct triangles, then a triangle and a 5-cycle, each tagged with
    its smallest shared edge.  Each part is sorted by that edge, then by
    the pair; the conflicts are the triangle pairs followed by the
    triangle/5-cycle pairs, as vertex tuples.
    """

    def edges(cycle):
        k = len(cycle)
        return {tuple(sorted((cycle[i], cycle[(i + 1) % k]))) for i in range(k)}

    def sharing(cycle_pairs):
        out = []
        for a, b in cycle_pairs:
            shared = edges(a) & edges(b)
            if shared:
                out.append((min(shared), a, b))
        return sorted(out)

    triangles = sorted(subset_cycles(g, 3))
    fives = sorted(subset_cycles(g, 5))
    pairs = sharing(itertools.combinations(triangles, 2))
    return pairs, pairs + sharing(itertools.product(triangles, fives))


def replace_at(tree, path, value):
    """``tree`` (nested dicts and lists) with the item at ``path`` set to
    ``value``; returns ``tree``, changed in place."""
    *parents, last = path
    target = tree
    for key in parents:
        target = target[key]
    target[last] = value
    return tree


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism by trying every vertex bijection (tiny graphs only)."""
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(map(len, g.adj)) != sorted(map(len, h.adj)):
        return False
    hs = h.edge_set
    for perm in itertools.permutations(range(g.n)):
        if all(tuple(sorted((perm[u], perm[v]))) in hs for u, v in g.edges):
            return True
    return False


def product_3coloring_exists(g: Graph, fixed=None) -> bool:
    """SAT/UNSAT by enumerating every assignment, no pruning at all."""
    fixed = dict(fixed or {})
    free = [v for v in range(g.n) if v not in fixed]
    colors = dict(fixed)
    for combo in itertools.product(range(3), repeat=len(free)):
        colors.update(zip(free, combo))
        if all(colors[u] != colors[v] for u, v in g.edges):
            return True
    return False


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def random_sparse_graph(rng: random.Random, n: int, m: int) -> Graph:
    """A uniformly random simple graph with exactly ``m`` edges."""
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < m:
        u, v = rng.sample(range(n), 2)
        pairs.add((min(u, v), max(u, v)))
    return build_graph(n, sorted(pairs))


def triangulated_grid(w: int) -> Graph:
    """The w x w grid, row by row, with the diagonal v - (v + w + 1) in
    every square: 2 (w - 1)^2 triangles, every inner edge on two."""
    edges = []
    for r in range(w):
        for c in range(w):
            v = r * w + c
            if c + 1 < w:
                edges.append((v, v + 1))
            if r + 1 < w:
                edges.append((v, v + w))
            if c + 1 < w and r + 1 < w:
                edges.append((v, v + w + 1))
    return build_graph(w * w, edges)


def stack_depth() -> int:
    """Frames on the caller's stack, for setting a tight recursion limit."""
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def deep_template_spec() -> dict:
    """A search spec, as JSON, whose template is 1,201 link steps long:
    two terminals, a hub joined to a nonempty subset of them, and 1,200
    leaves each joined to the hub.  Its three candidates are trees with
    the terminals at distance 2 or apart."""
    return {
        "contract": {
            "forbidden_cycle_lengths": [4],
            "min_terminal_distances": [[0, 2], [2, 0]],
            "require_planar": False,
        },
        "template": {"layers": [
            {"name": "t", "size": 2},
            {"name": "hub", "size": 1, "link_to": "t", "link_kind": "subsets"},
            {"name": "x", "size": 1200, "link_to": "hub", "link_kind": "subsets"},
        ]},
    }


def random_conflict_free_fixing(
    rng: random.Random, g: Graph, max_fixed: int | None = None
) -> dict[int, int]:
    """A random partial coloring that is proper on its own edges.

    Vertices are visited in random order; each picks a random color not
    used by an already-fixed neighbor, or is skipped if all three are
    taken, so the result never violates an edge by construction.
    """
    order = list(range(g.n))
    rng.shuffle(order)
    if max_fixed is None:
        max_fixed = rng.randrange(g.n + 1)
    fixing: dict[int, int] = {}
    for v in order[:max_fixed]:
        banned = {fixing[u] for u in g.neighbor_sets[v] if u in fixing}
        open_colors = [c for c in range(3) if c not in banned]
        if open_colors:
            fixing[v] = rng.choice(open_colors)
    return fixing


EXPECTED_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def iso_classes_upto(n_max: int) -> dict[int, list[Graph]]:
    """One representative per isomorphism class, for 1..n_max vertices.

    Built by vertex extension with canonical-form deduplication.  The
    per-size class counts are a published sequence, so callers assert
    them; a wrong count would expose a canonical form that merges or
    splits classes it should not.
    """
    levels: dict[int, list[Graph]] = {1: [build_graph(1, [])]}
    for n in range(2, n_max + 1):
        seen: dict[str, Graph] = {}
        for g in levels[n - 1]:
            for mask in range(1 << (n - 1)):
                extra = [(v, n - 1) for v in range(n - 1) if mask >> v & 1]
                h = build_graph(n, list(g.edges) + extra)
                seen.setdefault(canonical_digest(h), h)
        levels[n] = [seen[key] for key in sorted(seen)]
    return levels


def reference_solve(g: Graph, fixed=None, *, limit=1e100, decay=0.95):
    """The package solver's search over an explicit clause list, as
    ``(coloring or None, (nodes, propagations, conflicts), proof)``.

    The encoding is built in full: one at-least-one clause per vertex,
    one binary clause per edge and color in ``g.edges`` order, and three
    units per fixed vertex in vertex order, with vertex 0 pinned to color
    0 when nothing is fixed.  The search is conflict-driven clause
    learning with two watched literals per clause, first-UIP learning and
    the highest-activity open variable set false (ties to the smallest),
    so the package solver, which keeps the edge clauses as implication
    lists instead, must make exactly the same decisions, propagations
    and learnt clauses.  Once an activity passes ``limit``, every
    activity and the bump are multiplied by ``1 / limit``, and after each
    conflict the bump is divided by ``decay``, as the package solver does
    at ``coloring._ACTIVITY_LIMIT`` and ``coloring._ACTIVITY_DECAY``.
    ``fixed`` must be proper on its own edges.
    """
    fixed = dict(fixed or {})
    if not fixed and g.n:
        fixed = {0: 0}
    num_vars = 3 * g.n
    clauses = [[6 * v, 6 * v + 2, 6 * v + 4] for v in range(g.n)]
    for u, v in g.edges:
        clauses.extend([6 * u + 2 * c + 1, 6 * v + 2 * c + 1] for c in range(3))
    for v, col in sorted(fixed.items()):
        clauses.extend([6 * v + 2 * c + (c != col)] for c in range(3))
    nodes = propagations = conflicts = 0
    proof: list[tuple[int, ...]] = []

    value = [0] * (2 * num_vars)
    level = [0] * num_vars
    reason: list[list[int] | None] = [None] * num_vars
    watches: list[list[list[int]]] = [[] for _ in range(2 * num_vars)]
    trail: list[int] = []
    trail_lim: list[int] = []
    activity = [0.0] * num_vars
    bump = 1.0
    heap = [(-0.0, v) for v in range(num_vars)]

    def assign(lit: int, why: list[int] | None) -> None:
        value[lit] = 1
        value[lit ^ 1] = -1
        level[lit >> 1] = len(trail_lim)
        reason[lit >> 1] = why
        trail.append(lit)

    def result(model):
        if model is None:
            return None, (nodes, propagations, conflicts), proof
        colors = {v: model[6 * v : 6 * v + 6 : 2].index(1) for v in range(g.n)}
        return colors, (nodes, propagations, conflicts), proof

    for c in clauses:
        if len(c) > 1:
            watches[c[0]].append(c)
            watches[c[1]].append(c)
        elif value[c[0]] == -1:
            return result(None)
        elif not value[c[0]]:
            assign(c[0], None)
    qhead = 0
    while True:
        conflict = None
        while qhead < len(trail) and conflict is None:
            false_lit = trail[qhead] ^ 1
            qhead += 1
            propagations += 1
            watching = watches[false_lit]
            watches[false_lit] = kept = []
            for k, c in enumerate(watching):
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                other = c[0]
                if value[other] == 1:
                    kept.append(c)
                    continue
                for i in range(2, len(c)):
                    if value[c[i]] != -1:
                        c[1], c[i] = c[i], false_lit
                        watches[c[1]].append(c)
                        break
                else:
                    kept.append(c)
                    if value[other] == -1:
                        kept.extend(watching[k + 1 :])
                        conflict = c
                        break
                    assign(other, c)
        if conflict is None:
            while heap and value[2 * heap[0][1]]:
                heapq.heappop(heap)
            if not heap:
                return result(value)
            nodes += 1
            trail_lim.append(len(trail))
            assign(2 * heapq.heappop(heap)[1] + 1, None)
            continue
        conflicts += 1
        if not trail_lim:
            return result(None)
        here = len(trail_lim)
        learnt = [0]
        seen = set()
        pending = 0
        i = len(trail)
        clause = conflict
        while True:
            for q in clause:
                v = q >> 1
                if v in seen or not level[v]:
                    continue
                seen.add(v)
                activity[v] += bump
                if activity[v] > limit:
                    activity = [a * (1 / limit) for a in activity]
                    bump *= 1 / limit
                    heap = [(-activity[u], u) for u in range(num_vars)]
                    heapq.heapify(heap)
                if level[v] == here:
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
        learnt[0] = lit ^ 1
        bump /= decay
        proof.append(tuple(learnt))
        back = 0
        for k in range(1, len(learnt)):
            if level[learnt[k] >> 1] > back:
                back = level[learnt[k] >> 1]
                learnt[1], learnt[k] = learnt[k], learnt[1]
        for q in trail[trail_lim[back] :]:
            value[q] = value[q ^ 1] = 0
            heapq.heappush(heap, (-activity[q >> 1], q >> 1))
        del trail[trail_lim[back] :]
        del trail_lim[back:]
        qhead = len(trail)
        if len(learnt) > 1:
            watches[learnt[0]].append(learnt)
            watches[learnt[1]].append(learnt)
        assign(learnt[0], learnt if len(learnt) > 1 else None)


def rup_refutes(g: Graph, fixed, proof) -> bool:
    """Check a RUP refutation of "g is 3-colorable extending ``fixed``".

    The encoding is rebuilt from ``g.edges``: literal 2*(3v + c) says
    vertex v takes color c, literal + 1 says it does not; one
    at-least-one clause per vertex, one clause per edge and color, and
    three units per fixed vertex.  Each proof clause, then the empty
    clause, must make unit propagation hit a conflict once its literals
    are assumed false; it is then added to the formula.
    """
    clauses = [[6 * v, 6 * v + 2, 6 * v + 4] for v in range(g.n)]
    for c in range(3):
        clauses += [[6 * u + 2 * c + 1, 6 * v + 2 * c + 1] for u, v in g.edges]
        clauses += [[6 * v + 2 * c + (c != col)] for v, col in fixed.items()]
    occurs: dict[int, list[list[int]]] = {}
    for clause in clauses:
        for lit in clause:
            occurs.setdefault(lit, []).append(clause)

    def propagates_to_conflict(assumed) -> bool:
        true: set[int] = set()
        queue = list(assumed) + [c[0] for c in clauses if len(c) == 1]
        while queue:
            lit = queue.pop()
            if lit ^ 1 in true:
                return True
            if lit in true:
                continue
            true.add(lit)
            for clause in occurs.get(lit ^ 1, []):
                if not any(x in true for x in clause):
                    open_lits = [x for x in clause if x ^ 1 not in true]
                    if not open_lits:
                        return True
                    if len(open_lits) == 1:
                        queue.append(open_lits[0])
        return False

    for clause in [*proof, ()]:
        if not propagates_to_conflict([lit ^ 1 for lit in clause]):
            return False
        clauses.append(list(clause))
        for lit in clause:
            occurs.setdefault(lit, []).append(clauses[-1])
    return True


def reference_hints_refute(n, edges, fixing, steps) -> bool:
    """:func:`steinberg.check.hints_refute` over an explicit table of input
    clauses: every at-least-one triple and every edge pair for each color
    goes in a set, each tuple hint is looked up there sorted, and each
    hint's open literals are listed in full.  The package checker, which
    recognizes input clauses by arithmetic and stops at a hint's second
    open literal, must give the same verdict on every proof."""
    inputs = {(6 * v, 6 * v + 2, 6 * v + 4) for v in range(n)}
    inputs.update(
        (6 * u + c, 6 * w + c) for u, w in map(sorted, edges) for c in (1, 3, 5)
    )
    true = bytearray(6 * n)  # true[lit] is set when lit holds
    for v, col in fixing.items():
        for c in range(3):
            true[6 * v + 2 * c + (c != col)] = 1
    for k, (clause, hints) in enumerate(steps):
        if not all(0 <= lit < 6 * n for lit in clause):
            return False
        trail = [lit ^ 1 for lit in clause if not true[lit ^ 1]]
        for lit in trail:
            true[lit] = 1
        for hint in hints:
            if isinstance(hint, int):
                if not 0 <= hint < k:
                    return False
                hint = steps[hint][0]
            elif tuple(sorted(hint)) not in inputs:
                return False
            open_lits = [lit for lit in hint if not true[lit ^ 1]]
            if len(open_lits) != 1:
                break
            if not true[open_lits[0]]:
                true[open_lits[0]] = 1
                trail.append(open_lits[0])
        else:
            return False  # no hint left every literal false
        for lit in trail:  # undo what this step assumed and derived
            true[lit] = 0
        if open_lits:
            return False
        if not clause:
            return True
        if len(clause) == 1:
            true[clause[0]] = 1
    return False


# contract clause kinds, cheapest first, by the first word of a check name
CHEAPEST_CLAUSE_FIRST = ("distance", "pattern", "forbidden", "planarity")


def cheapest_failing_check(report) -> str | None:
    """The name of the first failing check of a full contract report,
    taken in cost order (report order within one kind), or None when
    every check passes."""
    failing = [c.name for c in report.checks if not c.passed]
    return min(
        failing,
        key=lambda name: CHEAPEST_CLAUSE_FIRST.index(name.split("-")[0]),
        default=None,
    )


def reference_refine(cells, nbrs):
    """Refine to the coarsest stable partition.

    Worklist color refinement: cells split by neighbor counts into a
    splitter set, fragments are enqueued as further splitters.  Fragment
    order within a split is by count, which depends only on structure,
    never on the input labeling, so the final cell sequence is
    isomorphism-invariant.
    """
    cells = [sorted(c) for c in cells]
    work = deque(frozenset(c) for c in cells)
    while work:
        sset = work.popleft()
        new_cells = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups = {}
            for v in cell:
                groups.setdefault(len(nbrs[v] & sset), []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                fragments = [sorted(groups[k]) for k in sorted(groups)]
                new_cells.extend(fragments)
                work.extend(frozenset(f) for f in fragments)
        cells = new_cells
    return cells


def _reference_cells_relate_trivially(cells, nbrs) -> bool:
    multi = [frozenset(c) for c in cells if len(c) > 1]
    for i, ci in enumerate(multi):
        u = next(iter(ci))
        if len(nbrs[u] & ci) not in (0, len(ci) - 1):
            return False
        for cj in multi[i + 1 :]:
            if len(nbrs[u] & cj) not in (0, len(cj)):
                return False
    return True


def reference_canonical_form(g: Graph) -> bytes:
    """The canonical form as the minimum over the whole refinement tree.

    The package's algorithm before automorphism pruning, with the same
    refinement and target-cell rule, but every cell is a splitter at
    every node, every leaf is encoded, and the encoder is
    ``graph6_reference``.  The pruned search must reproduce its bytes
    exactly (n <= 62 only).
    """
    if g.n == 0:
        return graph6_reference(0, [])
    nbrs = g.neighbor_sets
    best = None

    def descend(cells) -> None:
        nonlocal best
        cells = reference_refine(cells, nbrs)
        target = None
        for idx, cell in enumerate(cells):
            if len(cell) > 1 and (
                target is None or len(cell) < len(cells[target])
            ):
                target = idx
        if target is None or _reference_cells_relate_trivially(cells, nbrs):
            order = [v for c in cells for v in c]
            position = {v: pos for pos, v in enumerate(order)}
            candidate = graph6_reference(
                g.n, [(position[u], position[v]) for u, v in g.edges]
            )
            if best is None or candidate < best:
                best = candidate
            return
        for v in cells[target]:
            rest = [w for w in cells[target] if w != v]
            descend(cells[:target] + [[v], rest] + cells[target + 1 :])

    descend([list(range(g.n))])
    return best
