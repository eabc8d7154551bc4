"""Exact canonical forms via individualization and refinement.

Two graphs are isomorphic exactly when their canonical forms are equal.
The form is the lexicographically smallest graph6 encoding over every
leaf of the equitable-refinement search tree, which is the full orbit
of labelings up to automorphism, so the result is exact rather than a
hash heuristic.

Each node's partition comes from worklist refinement: a cell splits by
its vertices' neighbour counts into a splitter cell, and splitters are
taken first in, first out.  Of each split only the fragments before the
last are enqueued, since the last can split nothing (see ``_split``):
the partitions are those of enqueuing every fragment, from about half
the splitters.

The search keeps one partition and refines it in place, as nauty does
(McKay and Piperno, "Practical graph isomorphism, II", 2014): every
split pushes the cell it broke onto a trail, and returning to a node
undoes the trail to the length it had there, so no node copies the
partition.  The starts of the cells of more than one vertex are kept
as cells split and merge back, so choosing the target cell and testing
whether cells relate trivially look at those cells only.  A leaf is
compared by its key, its relabeled edges sorted as numbers that order
as their graph6 bit positions do (see ``_leaf_key``): graph6 orders
leaves as the reverse of their keys, so the smallest encoding is the
greatest key, a comparison stops at the first edge that differs, and
only the best leaf is packed.

The search still returns the minimum over the whole tree but does not
visit all of it.  A leaf whose encoding equals the first or the best
leaf's gives an automorphism: the map from one leaf's vertex order to
the other's.  Refinement and the choice of target cell depend only on
structure, so an automorphism that fixes a node's individualized
vertices maps the subtree below one child onto the subtree below
another, leaf encoding for leaf encoding.  Pruned subtrees therefore
hold exactly the encodings of subtrees already searched, and the
minimum is unchanged:

- a child in the orbit of an explored child, under the automorphisms
  found that fix the node's individualized vertices, is skipped;
- after a leaf repeats an earlier one, the search returns to the
  deepest node the two leaves share, since the rest of the current
  child's subtree is the image of the earlier leaf's, already searched.

A digest is the first 16 hex digits of the SHA-256 of the form.  The
hash comes from the interpreter's built-in module (``_sha2`` from
Python 3.12, ``_sha256`` before), as ``random`` takes its ``sha512``:
``hashlib`` loads OpenSSL's libcrypto, which costs every process about
3.5 MB of memory and a few milliseconds, to hash a form of a few
kilobytes.  ``hashlib`` is the fallback for an interpreter built
without those modules; every implementation gives the same digest.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .formats import encode_graph6, pack_graph6
from .graphs import Graph

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

Cells = list[list[int]]
Adjacency = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical representative of an isomorphism class."""

    data: bytes

    @cached_property
    def digest(self) -> str:
        return sha256(self.data).hexdigest()[:16]


class _Partition:
    """An ordered partition kept as one vertex array and refined in place.

    ``order`` lists the vertices cell by cell, each cell sorted;
    ``start[v]`` is the position where the cell holding v begins,
    ``end[s]`` is one past the last position of the cell beginning at s,
    and ``multi`` holds the starts of the cells of more than one vertex.
    Every split pushes the split cell's bounds and vertices onto
    ``trail``, so :meth:`undo` can return to any earlier partition.
    ``count`` is all zeros between splitters (see ``_split``).
    """

    __slots__ = ("order", "start", "end", "multi", "trail", "count")

    def __init__(self, cells: Cells, n: int) -> None:
        self.order: list[int] = []
        self.start = [0] * n
        self.end = [0] * n
        self.multi: set[int] = set()
        self.trail: list[tuple[int, int, list[int]]] = []
        self.count = [0] * n
        for cell in cells:
            s = len(self.order)
            self.order.extend(sorted(cell))
            self.end[s] = len(self.order)
            if len(cell) > 1:
                self.multi.add(s)
            for v in cell:
                self.start[v] = s

    def individualize(self, t: int, v: int) -> None:
        """Split ``v`` off the front of the cell starting at ``t``; the
        rest of that cell follows it as one cell."""
        order, e = self.order, self.end[t]
        cell = order[t:e]
        self.trail.append((t, e, cell))
        rest = [w for w in cell if w != v]
        order[t] = v
        order[t + 1 : e] = rest
        self.end[t], self.end[t + 1] = t + 1, e
        for w in rest:
            self.start[w] = t + 1
        self.multi.discard(t)
        if len(rest) > 1:
            self.multi.add(t + 1)

    def undo(self, mark: int) -> None:
        """Merge back every split made since ``trail`` was ``mark`` long,
        latest first."""
        order, start, end, multi, trail = (
            self.order, self.start, self.end, self.multi, self.trail
        )
        while len(trail) > mark:
            c, ce, cell = trail.pop()
            s = end[c]
            for v in order[s:ce]:
                start[v] = c
            while s < ce:
                multi.discard(s)
                s = end[s]
            order[c:ce] = cell
            end[c] = ce
            multi.add(c)

    def ranges(self) -> list[tuple[int, int]]:
        out = []
        s, end, n = 0, self.end, len(self.order)
        while s < n:
            out.append((s, end[s]))
            s = end[s]
        return out


def _split(p: _Partition, adj: Adjacency, work: deque[tuple[int, int]]) -> None:
    """Refine ``p`` in place until no splitter on ``work`` splits a cell.

    A splitter is the position range of a cell at the time it was
    enqueued.  Splitting only permutes vertices inside a cell, so the
    range keeps the same vertex set.  Neighbour counts come from walking
    the splitter's adjacency and are kept only for vertices in cells of
    more than one vertex, and only the cells they touch are visited, in
    position order.  A split cell becomes its fragments in increasing
    order of count, each sorted.  The order depends only on structure,
    never on the input labeling, so the final cell sequence is
    isomorphism-invariant.

    Every fragment but the last is enqueued; the last could split
    nothing.  Call a cell settled when every cell has uniform counts into
    it.  A cell is settled once its own splitter is processed, and the
    last fragment of a split cell once the splitters that settle that
    cell and its other fragments are: counts into it are counts into the
    cell less counts into the others.  Those splitters were all enqueued
    before the last fragment's would have been, and the queue is first
    in, first out, so that splitter would change nothing, and skipping it
    leaves every partition, leaf and form exactly as they were.  At a
    child node the cells of the equitable parent are settled from the
    start, and the rest of the target cell is once ``{v}`` is processed.

    Each split goes onto ``p.trail`` and keeps ``p.multi`` current.
    """
    order, start, end, multi, trail, count = (
        p.order, p.start, p.end, p.multi, p.trail, p.count
    )
    while work:
        s, e = work.popleft()
        touched: dict[int, list[int]] = {}
        for v in order[s:e]:
            for w in adj[v]:
                if count[w]:
                    count[w] += 1
                    continue
                c = start[w]
                if c in multi:
                    count[w] = 1
                    if c in touched:
                        touched[c].append(w)
                    else:
                        touched[c] = [w]
        for c in sorted(touched):
            ce = end[c]
            ws = touched[c]
            k = count[ws[0]]
            for w in ws:
                if count[w] != k:
                    break
            else:
                # one count among the touched: unless every vertex is
                # touched, the general split below makes two fragments,
                # the untouched vertices and then ``ws``; build them
                # directly, with the same trail entry and splitter
                mid = ce - len(ws)
                if mid == c:
                    continue
                cell = order[c:ce]
                trail.append((c, ce, cell))
                if mid - c == 1:
                    multi.discard(c)
                if ce - c == 2:
                    # w, the one vertex touched, goes behind the other
                    order[c], order[mid] = cell[cell[0] == w], w
                    start[w] = mid
                else:
                    if ce - mid > 1:
                        multi.add(mid)
                    ws.sort()
                    order[c:mid] = [v for v in cell if not count[v]]
                    order[mid:ce] = ws
                    for w in ws:
                        start[w] = mid
                end[c], end[mid] = mid, ce
                work.append((c, mid))
                continue
            cell = order[c:ce]
            groups: dict[int, list[int]] = {}
            for v in cell:
                groups.setdefault(count[v], []).append(v)
            trail.append((c, ce, cell))
            pos = c
            for k in sorted(groups):
                fragment = groups[k]
                nxt = pos + len(fragment)
                order[pos:nxt] = fragment
                end[pos] = nxt
                if pos != c:
                    for v in fragment:
                        start[v] = pos
                if nxt - pos > 1:
                    multi.add(pos)
                elif pos == c:
                    multi.discard(c)
                if nxt != ce:
                    work.append((pos, nxt))
                pos = nxt
        for ws in touched.values():
            for w in ws:
                count[w] = 0


def _refine(cells: Cells, adj: Adjacency) -> _Partition:
    """Refine the ordered partition ``cells`` to the coarsest stable one,
    starting with every cell as a splitter."""
    p = _Partition(cells, len(adj))
    _split(p, adj, deque(p.ranges()))
    return p


def _target(p: _Partition) -> int | None:
    """Start of the first smallest cell with more than one vertex."""
    end = p.end
    return min(p.multi, key=lambda s: (end[s] - s, s), default=None)


def _cells_relate_trivially(p: _Partition, adj: Adjacency) -> bool:
    """True when adjacency depends only on which cells two vertices lie in.

    For a stable partition this needs checking only between multi-vertex
    cells (singletons are uniform against everything by equitability):
    each such cell must induce an empty or complete subgraph, and each
    pair must be empty or complete bipartite.  One vertex of each cell
    stands for all of it, and counting its neighbours by cell finds
    every cell it meets.  Then every cell-respecting order encodes to
    the same bytes, so one leaf stands for the whole subtree.  Without
    this, highly symmetric graphs (edgeless, complete, complete
    multipartite) degenerate to n! leaves.
    """
    order, start, end, multi = p.order, p.start, p.end, p.multi
    for c in multi:
        met: dict[int, int] = {}
        for w in adj[order[c]]:
            s = start[w]
            if s in multi:
                met[s] = met.get(s, 0) + 1
        for s, k in met.items():
            if k != end[s] - s - (s == c):
                return False
    return True


def _leaf_key(edges: tuple[tuple[int, int], ...], order: list[int]) -> list[int]:
    """The edges of the graph with vertex ``order[i]`` renamed to ``i``,
    each pair i < j as ``j * n + i``, sorted.  These numbers order as
    graph6's bit positions do, so of two leaves the greater key is the
    smaller graph6 encoding, and equal keys are equal encodings."""
    n = len(order)
    position = [0] * n
    for i, v in enumerate(order):
        position[v] = i
    key = [
        a * n + b if (a := position[u]) > (b := position[v]) else b * n + a
        for u, v in edges
    ]
    key.sort()
    return key


@dataclass
class _Node:
    """An inner node of the search tree on the current path."""

    mark: int  # the trail's length when the node's partition was refined
    target: int  # start of the cell whose vertices are the children
    children: list[int]
    prefix: list[int]  # vertices individualized on the way here
    fixing: list[dict[int, int]]  # automorphisms found that fix ``prefix``
    explored: list[int] = field(default_factory=list)
    orbit: dict[int, int] = field(init=False)  # union-find over ``children``
    merged: int = 0  # how many of ``fixing`` ``orbit`` accounts for
    next: int = 0

    def __post_init__(self) -> None:
        self.orbit = {v: v for v in self.children}

    def find(self, v: int) -> int:
        orbit = self.orbit
        while orbit[v] != v:
            orbit[v] = v = orbit[orbit[v]]
        return v

    def in_explored_orbit(self, v: int) -> bool:
        """Whether an explored child shares v's orbit.  The automorphisms
        in ``fixing`` permute ``children``; only those not merged yet are
        unioned, so the orbits grow incrementally."""
        orbit = self.orbit
        for gamma in self.fixing[self.merged :]:
            for u, w in gamma.items():
                if u in orbit:
                    a, b = self.find(u), self.find(w)
                    if a != b:
                        orbit[a] = b
        self.merged = len(self.fixing)
        root = self.find(v)
        return any(self.find(u) == root for u in self.explored)


def canonical_form(g: Graph) -> CanonicalForm:
    """Compute the canonical form of ``g``."""
    if g.n == 0:
        return CanonicalForm(encode_graph6(g))
    adj = g.adj
    # Leaves are (key, vertex order, individualized vertices).
    first: tuple[list[int], list[int], list[int]] | None = None
    best: tuple[list[int], list[int], list[int]] | None = None
    path: list[_Node] = []
    p = _refine([list(range(g.n))], adj)

    def visit(prefix: list[int], fixing: list[dict[int, int]]) -> None:
        nonlocal first, best
        target = _target(p)
        if target is not None and not _cells_relate_trivially(p, adj):
            children = p.order[target : p.end[target]]
            path.append(_Node(len(p.trail), target, children, prefix, fixing))
            return
        key = _leaf_key(g.edges, p.order)
        if first is None:
            first = best = (key, p.order[:], prefix)
            return
        for known in (first, best):
            if key == known[0]:
                # The map between the two orders is an automorphism.  It
                # fixes the vertices individualized above the deepest node
                # the leaves share and maps the child holding ``known``
                # onto the one holding this leaf, so the rest of this
                # child's subtree repeats one already searched: return to
                # that node.  The automorphism fixes the prefix of every
                # node left on the path.
                shared = 0
                for u, v in zip(known[2], prefix):
                    if u != v:
                        break
                    shared += 1
                del path[shared + 1 :]
                gamma = {u: v for u, v in zip(known[1], p.order) if u != v}
                for node in path:
                    node.fixing.append(gamma)
                return
        if key > best[0]:  # the greater key is the smaller encoding
            best = (key, p.order[:], prefix)

    visit([], [])
    while path:
        node = path[-1]
        if node.next == len(node.children):
            path.pop()
            continue
        v = node.children[node.next]
        node.next += 1
        if node.explored and node.in_explored_orbit(v):
            continue
        node.explored.append(v)
        t = node.target
        p.undo(node.mark)
        p.individualize(t, v)
        # The parent is equitable, so its cells and the rest of the target
        # cell split nothing: starting from {v} alone gives the same cells
        # as starting from every cell.
        _split(p, adj, deque([(t, t + 1)]))
        visit(node.prefix + [v], [gamma for gamma in node.fixing if v not in gamma])
    n = g.n
    return CanonicalForm(pack_graph6(n, [(k % n, k // n) for k in best[0]]))


def canonical_digest(g: Graph) -> str:
    return canonical_form(g).digest
