"""The checks that verdicts rest on: a hinted refutation of 3-coloring,
whose steps are reverse unit propagation (Goldberg and Novikov, DATE
2003) in a given order, a coloring and a planarity certificate.
Standard library only; graphs and certificates are read by attribute."""

from collections import Counter


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
    from then on.  The steps must reach the empty clause; each step costs
    its clause and hints, never a pass over the graph."""
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
