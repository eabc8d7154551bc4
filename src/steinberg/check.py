"""The checks that verdicts rest on: a hinted refutation of 3-coloring,
whose steps are reverse unit propagation (Goldberg and Novikov, DATE
2003) in a given order, a coloring, a planarity certificate, a recipe's
case tree and what a recipe inherits from its parts' terminal distances.
Standard library only; graphs and certificates are read by attribute,
recipes and trees are plain data."""

from collections import Counter
from heapq import heappop, heappush
from itertools import product


class InvalidCertificate(ValueError):
    """A planarity certificate does not validate against its graph."""


def hints_refute(n, edges, fixing, steps) -> bool:
    """Do the hinted ``steps`` refute a proper 3-coloring of the n-vertex
    graph on ``edges`` that extends ``fixing``?  Literal ``2 * (3 * v +
    c)`` says v has color c, the one above it that v has not; the
    fixing's literals hold from the start.  A step is a clause and its
    hints, as in LRAT (Cruz-Filipe et al., CADE 2017): each hint is an
    earlier step's index or an input clause, v's at-least-one triple or
    "u or w lacks c" for an edge u-w.  With the clause's literals assumed
    false, each hint in turn must leave exactly one literal open, which
    then holds, or none, which proves the clause; a proved unit holds
    from then on.  The steps must reach the empty clause.

    Input clauses are recognized by arithmetic, not looked up: a triple
    sorts to 6v, 6v + 2, 6v + 4 with 0 <= v < n, and a pair holds two odd
    literals of one color (equal modulo 6) whose vertices are an edge.
    Each hint is read once, up to its second open literal, so a step
    costs its clause and hints, never a pass over the graph; literals and
    step indices are ints."""
    top = 6 * n
    pairs = {(u, w) if u < w else (w, u) for u, w in edges}
    false = bytearray(top)  # false[lit] is set when lit is false
    for v, col in fixing.items():
        for c in range(3):
            false[6 * v + 2 * c + (c == col)] = 1
    for k, (clause, hints) in enumerate(steps):
        trail = []  # what this step assumes and derives, to undo
        for lit in clause:
            if not 0 <= lit < top:
                return False
            if not false[lit]:
                false[lit] = 1
                trail.append(lit)
        for hint in hints:
            # each kind of hint finds its one open literal, -1 for none
            if isinstance(hint, int):
                if not 0 <= hint < k:
                    return False
                unit = -1
                for lit in steps[hint][0]:
                    if not false[lit]:
                        if unit >= 0:
                            return False  # a second open literal
                        unit = lit
            elif len(hint) == 2:
                a, b = hint
                if not (a & 1 and (a - b) % 6 == 0 and (
                    (a // 6, b // 6) if a < b else (b // 6, a // 6)
                ) in pairs):
                    return False
                if false[a]:
                    unit = -1 if false[b] else b
                elif false[b]:
                    unit = a
                else:
                    return False
            elif len(hint) == 3:
                a, b, c = sorted(hint)
                if a % 6 or b != a + 2 or c != a + 4 or not 0 <= a < top:
                    return False
                if false[a]:
                    if false[b]:
                        unit = -1 if false[c] else c
                    elif false[c]:
                        unit = b
                    else:
                        return False
                elif false[b] and false[c]:
                    unit = a
                else:
                    return False
            else:
                return False
            if unit < 0:
                break  # every literal false: the clause is proved
            unit ^= 1  # the unit holds, so its negation is false
            if not false[unit]:
                false[unit] = 1
                trail.append(unit)
        else:
            return False  # no hint left every literal false
        for lit in trail:  # undo what this step assumed and derived
            false[lit] = 0
        if not clause:
            return True
        if len(clause) == 1:
            false[clause[0] ^ 1] = 1
    return False


def is_proper(g, assignment) -> bool:
    """Check a total assignment; partial or out-of-range input is an error."""
    if len(assignment) != g.n or set(assignment) != set(range(g.n)):
        raise ValueError("assignment must color every vertex exactly once")
    for v, c in assignment.items():
        if c not in (0, 1, 2):
            raise ValueError(f"vertex {v} has color {c}, not in 0..2")
    return all(assignment[u] != assignment[v] for u, v in g.edges)


def _component_roots(adj) -> list[int]:
    """For each vertex, the smallest vertex of its connected component."""
    root = [-1] * len(adj)
    for s in range(len(adj)):
        if root[s] < 0:
            root[s] = s
            stack = [s]
            while stack:
                for w in adj[stack.pop()]:
                    if root[w] < 0:
                        root[w] = s
                        stack.append(w)
    return root


def _faces_per_component(rotation, root) -> Counter:
    """How many faces the rotation system traces on each component, by
    the component's ``root``.  Dart k is the k-th entry of the rotation
    read vertex by vertex, from its vertex to that neighbor."""
    n = len(rotation)
    tail = [v for v, ring in enumerate(rotation) for _ in ring]
    head = [w for ring in rotation for w in ring]
    dart = {v * n + w: k for k, (v, w) in enumerate(zip(tail, head))}
    after = []  # the next dart around the same tail, cyclically
    for ring in rotation:
        k = len(after)
        after.extend(range(k + 1, k + len(ring)))
        if ring:
            after.append(k)
    # the dart v -> w continues from w along the edge after w -> v
    succ = [after[dart[w * n + v]] for v, w in zip(tail, head)]
    faces: Counter = Counter()
    seen = bytearray(len(head))
    for k, v in enumerate(tail):
        if not seen[k]:
            faces[root[v]] += 1
            d = k
            while not seen[d]:
                seen[d] = 1
                d = succ[d]
    return faces


def _smooth_subdivision(edges) -> str:
    """Suppress the degree-2 vertices of a loopless edge list; name the
    remaining core, "K5" or "K3,3"."""
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    # suppressing x keeps every other degree, so one sorted pass
    # suppresses each degree-2 vertex of the input in turn
    for x in sorted(adj):
        if len(adj[x]) == 2:
            u, w = adj.pop(x)
            if w in adj[u]:
                raise InvalidCertificate("obstruction smooths to a doubled edge")
            adj[u].remove(x)
            adj[w].remove(x)
            adj[u].add(w)
            adj[w].add(u)
    core = sorted(adj)
    degs = sorted(len(adj[v]) for v in core)
    if len(core) == 5 and degs == [4] * 5:
        for v in core:
            if adj[v] != set(core) - {v}:
                raise InvalidCertificate("core is 4-regular but not complete")
        return "K5"
    if len(core) == 6 and degs == [3] * 6:
        side = {core[0]: 0}
        queue = [core[0]]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in side:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    raise InvalidCertificate("3-regular core is not bipartite")
        part0 = {v for v in core if side[v] == 0}
        part1 = set(core) - part0
        if len(part0) != 3 or any(adj[v] != part1 for v in part0):
            raise InvalidCertificate("core is not a complete bipartite 3+3")
        return "K3,3"
    raise InvalidCertificate(
        f"smoothed obstruction has {len(core)} branch vertices of degrees"
        f" {degs}; neither a K5 nor a K3,3 subdivision"
    )


def planarity_certificate_kind(g, cert) -> str | None:
    """Re-check a certificate from first principles; return the kind of
    obstruction it proved, "K5" or "K3,3", or None for a planar one.

    Planar: the rotation system must list each vertex's exact neighbor
    set, and tracing its faces must satisfy n - m + f = 2 on every
    connected component with at least one edge.  Nonplanar: the
    obstruction must be a loopless subgraph that smooths to K5 or K3,3.

    Raises :class:`InvalidCertificate` when anything fails.
    """
    if cert.planar:
        rotation = cert.rotation
        if rotation is None or len(rotation) != g.n:
            raise InvalidCertificate("rotation system missing or wrong length")
        for v, nbrs in enumerate(g.neighbor_sets):
            ring = rotation[v]
            if len(ring) != len(nbrs) or set(ring) != nbrs:
                raise InvalidCertificate(
                    f"rotation at vertex {v} does not list its neighbors"
                )
        # n, m and f per component, keyed by its smallest vertex
        root = _component_roots(g.adj)
        n_c = Counter(root)
        m_c = Counter(root[u] for u, _ in g.edges)
        f_c = _faces_per_component(rotation, root)
        for r in n_c:
            if m_c[r] and n_c[r] - m_c[r] + f_c[r] != 2:
                raise InvalidCertificate(
                    f"Euler check failed on a component: n={n_c[r]}"
                    f" m={m_c[r]} f={f_c[r]}"
                )
        return None
    edges = cert.obstruction_edges
    if not edges:
        raise InvalidCertificate("nonplanar certificate carries no obstruction")
    for u, v in edges:
        if u == v:
            raise InvalidCertificate("obstruction contains a loop")
        if not g.has_edge(u, v):
            raise InvalidCertificate(
                f"obstruction edge ({u}, {v}) is not in the graph"
            )
    return _smooth_subdivision(edges)


def _first_use(colors) -> str:
    """Colors renamed in order of first use: (2, 2, 0) reads "001"."""
    seen: dict = {}
    return "".join([str(seen.setdefault(c, len(seen))) for c in colors])


def case_tree_refutes(names, extra_edges, parts, terminals, tree, table) -> bool:
    """Does ``tree`` prove ``table`` the terminal behavior of an assembly?

    The assembly's vertices are ``names`` by index; ``extra_edges`` join
    them, and ``parts`` pairs each part's vertices, its terminals in
    order, with its behavior table, keyed by first-use patterns.  A
    branch ``{"vertex": name, "cases": {color: subtree}}`` colors an
    uncolored vertex; its cases are exactly the colors 0 to
    min(used + 1, 3) - 1, ``used`` counted along the path, so every
    coloring is a color permutation of one path (Van Hentenryck et al.,
    IJCAI 2003).  A string closes a case: the color must make an extra
    edge monochromatic or give a fully colored part a pattern its table
    marks False; the string itself is not read.  Any other case must
    violate nothing, so ``{"survivor": pattern}`` is a full coloring
    with that pattern on ``terminals``.  ``table`` has exactly the
    patterns of that many terminals, true exactly where a survivor has
    it: cover, then each case alone, as cube-and-conquer proofs are
    checked (Heule, Kullmann and Marek, SAT 2016)."""
    vertex = {name: v for v, name in enumerate(names)}
    want = {""}  # the first-use patterns on the terminals
    for _ in terminals:
        want = {p + str(c) for p in want for c in range(min(len(set(p)) + 1, 3))}
    if len(vertex) != len(names) or set(table) != want:
        return False
    nbrs: list[list[int]] = [[] for _ in names]
    owned: list[list] = [[] for _ in names]
    for u, w in extra_edges:
        nbrs[u].append(w)
        nbrs[w].append(u)
    for slots, rows in parts:
        for s in slots or range(len(names)):  # no slots: checked at every vertex
            owned[s].append((slots, rows))
    patterns: dict[tuple, str] = {}
    found = set()
    keys = ({"0"}, {"0", "1"}, {"0", "1", "2"})

    def violated(v, color) -> bool:  # by v's color, on an edge or a part at v
        c = color[v]
        for u in nbrs[v]:
            if color[u] == c:
                return True
        for slots, rows in owned[v]:
            key = tuple([color[s] for s in slots])
            if -1 not in key:
                if key not in patterns:
                    patterns[key] = _first_use(key)
                if rows.get(patterns[key]) is False:
                    return True
        return False

    # each node with the colors on its path, -1 where none is given yet
    stack = [(tree, 0, [-1] * len(names))]
    while stack:
        node, used, color = stack.pop()
        if not isinstance(node, dict):
            return False
        if "survivor" in node:
            pattern = _first_use([color[t] for t in terminals])
            if -1 in color or node["survivor"] != pattern:
                return False
            found.add(pattern)
            continue
        v = vertex.get(node.get("vertex"))
        cases = node.get("cases")
        if v is None or color[v] >= 0 or not isinstance(cases, dict) or (
            cases.keys() != keys[min(used, 2)]
        ):
            return False
        for c in range(min(used + 1, 3)):
            case = cases["012"[c]]
            colored = color.copy()
            colored[v] = c
            closed = isinstance(case, str)
            if violated(v, colored) != closed:
                return False
            if not closed:
                stack.append((case, max(used, c + 1), colored))
    return all(table[p] is (p in found) for p in want)


def skeleton_facts(n, extra_edges, parts, terminals, lengths):
    """What an assembly on vertices 0..n-1 inherits from its parts'
    terminal distances.  Its skeleton weighs each extra edge 1 and joins
    each two vertices of a part, in terminal order, at the part's
    distance between those terminals; ``parts`` pairs the vertices with
    that matrix, None where unreachable.  Part interiors are disjoint
    and meet the rest at terminals only, so a path splits there into
    extra edges and segments through one part, each at least its part's
    distance and each realized at exactly it: skeleton distances are the
    assembly's.  A cycle that leaves a part maps to a skeleton cycle with
    two or more owners (a part, or one extra edge) and is at least its
    weight; one of extra edges alone is exactly its weight.

    Returns ``(dist, floor, exact, bad)``: the distances between the
    vertices ``terminals``, None where unreachable; a lower bound on
    every cycle that runs through a part and leaves it; the weights,
    lightest first, of the cycles of extra edges up to ``max(lengths) +
    1``; and the lightest skeleton cycle, as ``(weight, vertices)``, that
    could give a cycle of a length in ``lengths`` (not empty), or None.
    One through a part edge could exactly when it weighs at most
    ``max(lengths)``, so None, with each part free of those lengths,
    proves the assembly free of them."""
    edges = [(u, v, 1, ~k) for k, (u, v) in enumerate(extra_edges)]
    for i, (slots, dist) in enumerate(parts):
        for x, y in product(range(len(slots)), repeat=2):
            if x < y and dist[x][y] is not None:
                edges.append((slots[x], slots[y], dist[x][y], i))
    at: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, (u, v, _, _) in enumerate(edges):
        at[u].append((e, v))
        at[v].append((e, u))
    dist = []
    for t in terminals:  # Dijkstra from each terminal
        reached: dict[int, int] = {}
        heap = [(0, t)]
        while heap:
            w, v = heappop(heap)
            if v not in reached:
                reached[v] = w
                for e, x in at[v]:
                    heappush(heap, (w + edges[e][2], x))
        dist.append([reached.get(u) for u in terminals])
    cap = max(lengths) + 1
    cycles: dict[frozenset, tuple[int, list[int]]] = {}
    # simple paths up to cap from their least vertex: (path, edge ids, weight)
    stack = [([s], [], 0) for s in range(n)]
    while stack:
        path, ids, weight = stack.pop()
        for e, x in at[path[-1]]:
            w = weight + edges[e][2]
            if w > cap or e in ids:
                continue
            if x == path[0]:
                cycles.setdefault(frozenset(ids + [e]), (w, path))
            elif x > path[0] and x not in path:
                stack.append((path + [x], ids + [e], w))
    floor, exact, bad = cap + 1, [], None
    for ids, (w, path) in sorted(cycles.items(), key=lambda c: c[1]):
        owners = {edges[e][3] for e in ids}
        if len(owners) < 2:
            continue  # a cycle inside one part is that part's own clause
        if max(owners) < 0:
            exact.append(w)
        else:
            floor = min(floor, w)
        if bad is None and (w in lengths if max(owners) < 0 else w < cap):
            bad = (w, path)
    return dist, floor, exact, bad
