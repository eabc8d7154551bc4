"""Immutable simple-graph values used by every other module.

Vertices are dense integers 0..n-1.  Human-readable names ("a", "c'", ...)
are carried as optional label metadata and never participate in any
algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import GraphConstructionError, quote

Edge = tuple[int, int]
MAX_VERTICES = 258047  # graph6's limit, so every graph fits every format


def normalize_edge(u: int, v: int) -> Edge:
    """Order an endpoint pair; loops are rejected."""
    if u == v:
        raise GraphConstructionError(f"loop at vertex {quote(u)} is not allowed")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph.

    ``edges`` is always sorted with u < v in each pair, so two equal
    graphs compare equal field-by-field.  Instances are immutable; all
    "mutations" below return new graphs.
    """

    n: int
    edges: tuple[Edge, ...]
    labels: tuple[tuple[int, str], ...] | None = None

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(map(frozenset, self.adj))

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Sorted adjacency lists, from one pass over the sorted edges:
        v meets its smaller neighbors as (u, v), in increasing u, before
        its larger ones as (v, w), in increasing w."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(map(tuple, adj))

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.edge_set

    def vertex_by_label(self, name: str) -> int:
        for v, label in self.labels or ():
            if label == name:
                return v
        raise KeyError(f"no vertex labeled {name!r}")

    def relabeled(self, perm: Mapping[int, int] | list[int]) -> "Graph":
        """Return the graph with vertex v renamed to perm[v]."""
        mapping = {v: perm[v] for v in range(self.n)}
        if sorted(mapping.values()) != list(range(self.n)):
            raise GraphConstructionError("relabeling is not a permutation")
        edges = [normalize_edge(mapping[u], mapping[v]) for u, v in self.edges]
        labels = None
        if self.labels is not None:
            labels = tuple(sorted((mapping[v], s) for v, s in self.labels))
        return Graph(self.n, tuple(sorted(edges)), labels)


def build_graph(
    n: int,
    edges: Iterable[tuple[int, int]],
    labels: Mapping[int, str] | None = None,
) -> Graph:
    """Validate and construct a :class:`Graph`.

    Raises :class:`GraphConstructionError` naming the offending pair on a
    loop, an out-of-range endpoint, or a duplicate edge.
    """
    if not 0 <= n <= MAX_VERTICES:  # before any memory is spent per vertex
        raise GraphConstructionError(
            f"vertex count must be in 0..{MAX_VERTICES}, got {quote(n)}"
        )
    seen: set[Edge] = set()
    normalized: list[Edge] = []
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphConstructionError(
                f"edge ({quote(u)}, {quote(v)}) has an endpoint outside 0..{n - 1}"
            )
        e = (u, v) if u < v else normalize_edge(u, v)
        if e in seen:
            raise GraphConstructionError(f"duplicate edge ({u}, {v})")
        seen.add(e)
        normalized.append(e)
    label_tuple = None
    if labels is not None:
        for v in labels:
            if not (0 <= v < n):
                raise GraphConstructionError(f"label on unknown vertex {quote(v)}")
        label_tuple = tuple(sorted(labels.items()))
    normalized.sort()
    return Graph(n, tuple(normalized), label_tuple)


def remove_edge(g: Graph, u: int, v: int) -> Graph:
    e = normalize_edge(u, v)
    if e not in g.edge_set:
        raise GraphConstructionError(f"edge ({quote(u)}, {quote(v)}) not present")
    return Graph(g.n, tuple(x for x in g.edges if x != e), g.labels)


def add_apex(g: Graph, targets: Iterable[int]) -> Graph:
    """Add one new vertex adjacent to ``targets``.

    Used to test whether a set of vertices can share a face: the graph
    stays planar after adding an apex joined to all of them exactly when
    they are co-facial in some embedding.
    """
    apex = g.n
    edges = list(g.edges) + [(t, apex) for t in targets]
    labels = dict(g.labels) if g.labels else None
    return build_graph(g.n + 1, edges, labels)
