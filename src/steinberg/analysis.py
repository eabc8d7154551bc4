"""Structural facts with checkable witnesses.

Distances come from plain BFS.  Short cycles are enumerated exhaustively
with a bounded DFS.  Planarity verdicts come from networkx, but every
verdict is wrapped in a certificate (a rotation system or a Kuratowski
subdivision) that :func:`validate_planarity_certificate` re-checks from
scratch, so the library's answer is never taken on faith.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import networkx as nx

from .errors import CertificateError
from .graphs import Edge, Graph, normalize_edge


# ---------------------------------------------------------------------------
# distances

def bfs_distances(g: Graph, source: int) -> list[int | None]:
    """Distances from ``source``; None marks unreachable vertices."""
    dist: list[int | None] = [None] * g.n
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in g.adj[v]:
                if dist[w] is None:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def distance(g: Graph, u: int, v: int) -> int | None:
    """Length of a shortest u-v path, or None if none exists."""
    return bfs_distances(g, u)[v]


def shortest_path(g: Graph, u: int, v: int) -> list[int] | None:
    """One shortest u-v path as a vertex list, or None."""
    parent: dict[int, int | None] = {u: None}
    frontier = [u]
    while frontier and v not in parent:
        nxt = []
        for x in frontier:
            for w in g.adj[x]:
                if w not in parent:
                    parent[w] = x
                    nxt.append(w)
        frontier = nxt
    if v not in parent:
        return None
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])  # type: ignore[arg-type]
    path.reverse()
    return path


# ---------------------------------------------------------------------------
# short cycles

@dataclass(frozen=True, order=True)
class CycleWitness:
    """A simple cycle in canonical orientation.

    ``vertices`` starts at the smallest vertex on the cycle and runs in
    the direction whose second vertex is smaller than its last, so each
    cycle has exactly one witness form.
    """

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[Edge]:
        vs = self.vertices
        return [
            normalize_edge(vs[i], vs[(i + 1) % len(vs)])
            for i in range(len(vs))
        ]


def cycles_of_length(g: Graph, k: int) -> list[CycleWitness]:
    """All simple cycles of length exactly k, 3 <= k <= 6.

    DFS from each start vertex, visiting only larger vertices, with the
    reflection broken by requiring second < last.  Output is sorted.
    """
    if not (3 <= k <= 6):
        raise ValueError(f"cycle length must be in 3..6, got {k}")
    out: list[CycleWitness] = []
    adj = g.adj
    nbrs = g.neighbor_sets
    path = [0] * k
    in_path = [False] * g.n

    def extend(depth: int) -> None:
        last = path[depth - 1]
        if depth == k:
            if path[0] in nbrs[last] and path[1] < last:
                out.append(CycleWitness(tuple(path)))
            return
        for w in adj[last]:
            if w > path[0] and not in_path[w]:
                path[depth] = w
                in_path[w] = True
                extend(depth + 1)
                in_path[w] = False

    for s in range(g.n):
        path[0] = s
        in_path[s] = True
        extend(1)
        in_path[s] = False
    return out


def forbidden_cycle_check(
    g: Graph, lengths: Iterable[int]
) -> CycleWitness | None:
    """Return None when no cycle of any given length exists, else the
    first witness (smallest length, then lexicographic)."""
    for k in sorted(set(lengths)):
        found = cycles_of_length(g, k)
        if found:
            return found[0]
    return None


# ---------------------------------------------------------------------------
# triangle adjacency predicates

# a shared edge, a triangle on it and a second cycle on it
Conflict = tuple[Edge, CycleWitness, CycleWitness]


def _triangle_pairs(g: Graph) -> tuple[dict[Edge, list[CycleWitness]], list[Conflict]]:
    """Each edge on a triangle with its triangles in sorted order, and
    every pair of triangles on one edge, sorted by edge, then by pair."""
    by_edge: dict[Edge, list[CycleWitness]] = {}
    for tri in cycles_of_length(g, 3):
        for e in tri.edges():
            by_edge.setdefault(e, []).append(tri)
    pairs = [
        (e, t1, t2)
        for e in sorted(by_edge)
        for t1, t2 in itertools.combinations(by_edge[e], 2)
    ]
    return by_edge, pairs


def triangles_sharing_edge(g: Graph) -> list[Conflict]:
    """Every unordered pair of distinct triangles with a common edge."""
    return _triangle_pairs(g)[1]


def triangle_edge_conflicts(g: Graph) -> list[Conflict]:
    """Pairs (triangle, 3- or 5-cycle) sharing an edge.

    The triangle pairs come first, exactly as :func:`triangles_sharing_edge`
    lists them (two distinct triangles share at most one edge).  Then each
    (triangle, 5-cycle) pair appears once, tagged with its smallest shared
    edge, sorted by that edge, then by the pair.
    """
    by_edge, pairs = _triangle_pairs(g)
    shared: dict[tuple[CycleWitness, CycleWitness], Edge] = {}
    for five in cycles_of_length(g, 5):
        for e in sorted(five.edges()):
            for tri in by_edge.get(e, ()):
                shared.setdefault((tri, five), e)
    fives = sorted((e, tri, five) for (tri, five), e in shared.items())
    return pairs + fives


# ---------------------------------------------------------------------------
# planarity

@dataclass(frozen=True)
class PlanarityCertificate:
    """Either a rotation system (planar) or a Kuratowski subdivision."""

    planar: bool
    rotation: tuple[tuple[int, ...], ...] | None = None
    obstruction_edges: tuple[Edge, ...] | None = None
    kind: str | None = None  # "K5" or "K3,3" when nonplanar


def is_planar(g: Graph) -> PlanarityCertificate:
    """Planarity test; the verdict always carries a certificate."""
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    ok, cert = nx.check_planarity(G, counterexample=True)
    if ok:
        data = cert.get_data()
        rotation = tuple(tuple(data.get(v, ())) for v in range(g.n))
        return PlanarityCertificate(planar=True, rotation=rotation)
    edges = tuple(sorted(normalize_edge(u, v) for u, v in cert.edges()))
    _, kind = _smooth_subdivision(edges)
    return PlanarityCertificate(
        planar=False, obstruction_edges=edges, kind=kind
    )


def _component_roots(n: int, edges: Iterable[Edge]) -> list[int]:
    """One representative vertex per connected component, for each vertex."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return [find(v) for v in range(n)]


def _trace_faces(rotation: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """Face orbits of the rotation system, as dart cycles, each starting
    at its smallest dart, in order of those darts."""
    succ: dict[tuple[int, int], tuple[int, int]] = {}
    for v, ring in enumerate(rotation):
        deg = len(ring)
        for i, u in enumerate(ring):
            # the dart (u, v) continues along the next edge after u in
            # the cyclic order around v
            w = ring[(i + 1) % deg]
            succ[(u, v)] = (v, w)
    faces = []
    seen: set[tuple[int, int]] = set()
    for dart in sorted(succ):
        face = []
        while dart not in seen:
            seen.add(dart)
            face.append(dart[0])
            dart = succ[dart]
        if face:
            faces.append(face)
    return faces


def _smooth_subdivision(edges: tuple[Edge, ...]) -> tuple[dict[int, set[int]], str]:
    """Suppress degree-2 vertices; classify the remaining core."""
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        if u == v:
            raise CertificateError("obstruction contains a loop")
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    # suppressing x keeps every other degree, so one sorted pass
    # suppresses each degree-2 vertex of the input in turn
    for x in sorted(adj):
        if len(adj[x]) == 2:
            u, w = adj.pop(x)
            if w in adj[u]:
                raise CertificateError("obstruction smooths to a doubled edge")
            adj[u].remove(x)
            adj[w].remove(x)
            adj[u].add(w)
            adj[w].add(u)
    core = sorted(adj)
    degs = sorted(len(adj[v]) for v in core)
    if len(core) == 5 and degs == [4] * 5:
        for v in core:
            if adj[v] != set(core) - {v}:
                raise CertificateError("core is 4-regular but not complete")
        return adj, "K5"
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
                    raise CertificateError("3-regular core is not bipartite")
        part0 = {v for v in core if side[v] == 0}
        part1 = set(core) - part0
        if len(part0) != 3 or any(adj[v] != part1 for v in part0):
            raise CertificateError("core is not a complete bipartite 3+3")
        return adj, "K3,3"
    raise CertificateError(
        f"smoothed obstruction has {len(core)} branch vertices of degrees"
        f" {degs}; neither a K5 nor a K3,3 subdivision"
    )


def validate_planarity_certificate(
    g: Graph, cert: PlanarityCertificate
) -> None:
    """Re-check a certificate from first principles.

    Planar: the rotation system must list each vertex's exact neighbor
    set, and tracing its faces must satisfy n - m + f = 2 on every
    connected component with at least one edge.  Nonplanar: the
    obstruction must be a subgraph that smooths to K5 or K3,3.

    Raises :class:`CertificateError` when anything fails.
    """
    if cert.planar:
        rotation = cert.rotation
        if rotation is None or len(rotation) != g.n:
            raise CertificateError("rotation system missing or wrong length")
        for v in range(g.n):
            ring = rotation[v]
            if len(set(ring)) != len(ring) or set(ring) != set(g.adj[v]):
                raise CertificateError(
                    f"rotation at vertex {v} does not list its neighbors"
                )
        # n, m and f per component, keyed by its root and ordered by
        # its smallest vertex
        root = _component_roots(g.n, g.edges)
        n_c = Counter(root)
        m_c = Counter(root[u] for u, _ in g.edges)
        f_c = Counter(root[face[0]] for face in _trace_faces(rotation))
        for r in n_c:
            if m_c[r] and n_c[r] - m_c[r] + f_c[r] != 2:
                raise CertificateError(
                    f"Euler check failed on a component: n={n_c[r]}"
                    f" m={m_c[r]} f={f_c[r]}"
                )
        return
    edges = cert.obstruction_edges
    if not edges:
        raise CertificateError("nonplanar certificate carries no obstruction")
    for u, v in edges:
        if not g.has_edge(u, v):
            raise CertificateError(
                f"obstruction edge ({u}, {v}) is not in the graph"
            )
    _, kind = _smooth_subdivision(edges)
    if cert.kind is not None and cert.kind != kind:
        raise CertificateError(
            f"certificate says {cert.kind}, obstruction smooths to {kind}"
        )
