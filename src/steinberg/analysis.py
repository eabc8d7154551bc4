"""Structural facts with checkable witnesses.

A distance is the length of a shortest path, found by a BFS that stops
at its target.  Short cycles are enumerated exhaustively by one bounded
DFS per :class:`CycleCensus`, which finds every requested length in
3..6 in one pass and hands out each cycle as its canonical vertex tuple;
a verify report takes one census of its 3-, 4- and 5-cycles and reads
its cycle check and both triangle checks off it.
Planarity verdicts come from an iterative left-right planarity test,
and every verdict is wrapped in a certificate (a rotation system or a
Kuratowski subdivision) that :func:`validate_planarity_certificate`
re-checks from scratch with the checker in :mod:`check`, which shares
no code with the test, so the test's answer is never taken on faith.
Only the checker names an obstruction's kind, K5 or K3,3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .check import InvalidCertificate, planarity_certificate_kind
from .errors import CertificateError
from .graphs import Edge, Graph, normalize_edge


# ---------------------------------------------------------------------------
# distances

def shortest_path(g: Graph, u: int, v: int) -> list[int] | None:
    """One shortest u-v path as a vertex list, or None.  The BFS stops
    at the level that reaches ``v``."""
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


def distance(g: Graph, u: int, v: int) -> int | None:
    """Length of a shortest u-v path, or None if none exists."""
    path = shortest_path(g, u, v)
    return None if path is None else len(path) - 1


# ---------------------------------------------------------------------------
# short cycles

# A cycle is its vertex tuple in canonical orientation: it starts at its
# smallest vertex and runs in the direction whose second vertex is
# smaller than its last, so each cycle has exactly one form.
Cycle = tuple[int, ...]


def _cycle_edges(vs: Cycle) -> list[Edge]:
    return [normalize_edge(vs[i - 1], vs[i]) for i in range(len(vs))]


def _cycle_dfs(g: Graph, lengths: frozenset[int]) -> dict[int, list[Cycle]]:
    """Every simple cycle of each length in ``lengths``, in one DFS.

    The DFS starts at each vertex s, visits only vertices larger than s
    and goes as deep as the largest length, one nested loop per vertex
    of the path after s, so no function is called per path.  At each
    depth in ``lengths`` it tests whether the path closes back to s,
    breaking the reflection by requiring second < last.  The sorted
    adjacency makes the DFS meet the paths of each length in
    lexicographic order, so each list comes out sorted.
    """
    out: dict[int, list[Cycle]] = {k: [] for k in sorted(lengths)}
    top = max(lengths)
    c3, c4, c5, c6 = (out.get(k) for k in (3, 4, 5, 6))
    adj = g.adj
    # mark[w] == s when w is a neighbour of s, so a path closes at w;
    # near[w] == s when w is adjacent to a neighbour of s larger than s:
    # only from such a w can the path close with one more vertex, so the
    # loop over the last vertex runs from it alone
    mark = [-1] * g.n
    near = [-1] * g.n
    for s in range(g.n):
        for x in adj[s]:
            mark[x] = s
            if top > 4 and x > s:
                for w in adj[x]:
                    near[w] = s
        for a in adj[s]:
            if a < s:
                continue
            for b in adj[a]:
                if b <= s:
                    continue
                if c3 is not None and mark[b] == s and a < b:
                    c3.append((s, a, b))
                if top == 3:
                    continue
                for c in adj[b]:
                    if c <= s or c == a:
                        continue
                    if c4 is not None and mark[c] == s and a < c:
                        c4.append((s, a, b, c))
                    if top == 4 or (top == 5 and near[c] != s):
                        continue
                    for d in adj[c]:
                        if d <= s or d == a or d == b:
                            continue
                        if c5 is not None and mark[d] == s and a < d:
                            c5.append((s, a, b, c, d))
                        if top == 5 or near[d] != s:
                            continue
                        for e in adj[d]:
                            if mark[e] == s and a < e and e != b and e != c:
                                c6.append((s, a, b, c, d, e))
    return out


# a shared edge, a triangle on it and a second cycle on it
Conflict = tuple[Edge, Cycle, Cycle]


class CycleCensus:
    """The simple cycles of each requested length in 3..6 of one graph.

    ``census[k]`` lists the k-cycles in sorted order.  One bounded DFS
    finds every length the first time any list is read, so a census that
    nobody reads, or one of no lengths, runs no DFS.  The triangle index
    the triangle predicates share is built once per census, too.
    """

    def __init__(self, g: Graph, lengths: Iterable[int]) -> None:
        self.lengths = frozenset(lengths)
        for k in sorted(self.lengths):
            if not (3 <= k <= 6):
                raise ValueError(f"cycle length must be in 3..6, got {k}")
        self.graph = g

    def __getitem__(self, k: int) -> list[Cycle]:
        return self._cycles[k]

    @cached_property
    def _cycles(self) -> dict[int, list[Cycle]]:
        if not self.lengths:
            return {}
        return _cycle_dfs(self.graph, self.lengths)

    @cached_property
    def triangle_pairs(self) -> tuple[dict[Edge, list[Cycle]], list[Conflict]]:
        """Each edge on a triangle with its triangles in sorted order, and
        every pair of triangles on one edge, sorted by edge, then by pair."""
        by_edge: dict[Edge, list[Cycle]] = {}
        for tri in self[3]:
            a, b, c = tri  # a < b < c in canonical orientation
            for e in ((a, b), (a, c), (b, c)):
                if e in by_edge:
                    by_edge[e].append(tri)
                else:
                    by_edge[e] = [tri]
        shared = sorted(e for e, tris in by_edge.items() if len(tris) > 1)
        pairs = [
            (e, t1, t2)
            for e in shared
            for t1, t2 in itertools.combinations(by_edge[e], 2)
        ]
        return by_edge, pairs


def cycles_of_length(g: Graph, k: int) -> list[Cycle]:
    """All simple cycles of length exactly k, 3 <= k <= 6, sorted."""
    return CycleCensus(g, (k,))[k]


def forbidden_cycle_check(
    g: Graph, lengths: Iterable[int], *, census: CycleCensus | None = None
) -> Cycle | None:
    """Return None when no cycle of any given length exists, else the
    first cycle (smallest length, then lexicographic).  ``census``,
    when given, must cover ``lengths``; otherwise one is built."""
    lengths = sorted(set(lengths))
    if census is None:
        census = CycleCensus(g, lengths)
    for k in lengths:
        found = census[k]
        if found:
            return found[0]
    return None


# ---------------------------------------------------------------------------
# triangle adjacency predicates
#
# Each takes an optional ``census`` covering the lengths it reads (3, and
# 5 for the conflicts); without one it builds its own.

def triangles_sharing_edge(
    g: Graph, *, census: CycleCensus | None = None
) -> list[Conflict]:
    """Every unordered pair of distinct triangles with a common edge."""
    if census is None:
        census = CycleCensus(g, (3,))
    return list(census.triangle_pairs[1])


def triangle_edge_conflicts(
    g: Graph, *, census: CycleCensus | None = None
) -> list[Conflict]:
    """Pairs (triangle, 3- or 5-cycle) sharing an edge.

    The triangle pairs come first, exactly as :func:`triangles_sharing_edge`
    lists them (two distinct triangles share at most one edge).  Then each
    (triangle, 5-cycle) pair appears once, tagged with its smallest shared
    edge, sorted by that edge, then by the pair.
    """
    if census is None:
        census = CycleCensus(g, (3, 5))
    by_edge, pairs = census.triangle_pairs
    fives = []
    for five in census[5]:
        # a triangle may share two edges with a 5-cycle; keep the smaller
        seen = set()
        for e in sorted(_cycle_edges(five)):
            for tri in by_edge.get(e, ()):
                if tri not in seen:
                    seen.add(tri)
                    fives.append((e, tri, five))
    fives.sort()
    return pairs + fives


# ---------------------------------------------------------------------------
# planarity

@dataclass(frozen=True)
class PlanarityCertificate:
    """Either a rotation system (planar) or a Kuratowski subdivision."""

    planar: bool
    rotation: tuple[tuple[int, ...], ...] | None = None
    obstruction_edges: tuple[Edge, ...] | None = None


class _LeftRight:
    """Brandes' left-right planarity test ("The Left-Right Planarity
    Test", 2009) on the adjacency lists of vertices 0..n-1.

    Construction runs the first two phases, the orientation DFS (heights,
    lowpoints and nesting depths) and the testing DFS (the conflict-pair
    stack), and sets ``planar``.  :meth:`rotation` runs the third, the
    embedding DFS.  Every DFS keeps an explicit stack, so no input depth
    reaches the recursion limit.

    Edges are numbered in the order the orientation DFS meets them and
    kept as parallel lists indexed by that number.  A conflict pair is a
    list ``[left.low, left.high, right.low, right.high]`` of edge
    numbers, None marking an empty end.
    """

    def __init__(self, adj: Sequence[Sequence[int]]) -> None:
        self.adj = adj
        n = len(adj)
        m = sum(map(len, adj)) // 2
        # Euler's bound: a simple planar graph on n >= 3 vertices has at
        # most 3n - 6 edges
        self.planar = not (n >= 3 and m > 3 * n - 6)
        if self.planar:
            self._orient()
            self.planar = self._test()

    def _orient(self) -> None:
        """Phase one: orient every edge away from the DFS roots (tree
        edges down, back edges up), with each edge's two lowest return
        heights and its nesting depth."""
        adj = self.adj
        n = len(adj)
        height = [-1] * n
        parent_edge = [-1] * n
        src: list[int] = []
        dst: list[int] = []
        lowpt: list[int] = []
        lowpt2: list[int] = []
        nesting: list[int] = []
        out: list[list[int]] = [[] for _ in range(n)]
        roots = []

        for s in range(n):
            if height[s] >= 0:
                continue
            height[s] = 0
            roots.append(s)
            # each vertex on the DFS path with the rest of its adjacency
            stack = [(s, iter(adj[s]))]
            while stack:
                v, rest = stack[-1]
                hv, e = height[v], parent_edge[v]
                parent = src[e] if e >= 0 else -1
                for w in rest:
                    hw = height[w]
                    # an edge to a finished descendant or along the tree
                    # edge from the parent is already oriented
                    if hw >= hv or w == parent:
                        continue
                    k = len(src)
                    src.append(v)
                    dst.append(w)
                    out[v].append(k)
                    lowpt2.append(hv)
                    if hw < 0:  # tree edge
                        lowpt.append(hv)
                        nesting.append(0)
                        parent_edge[w] = k
                        height[w] = hv + 1
                        stack.append((w, iter(adj[w])))
                        break
                    # a back edge returns to hw and then to hv, so its
                    # nesting depth is 2 hw; folded into e, whose return
                    # heights are both below hv, only hw can count
                    lowpt.append(hw)
                    nesting.append(2 * hw)
                    le = lowpt[e]
                    if hw < le:
                        lowpt2[e] = le
                        lowpt[e] = hw
                    elif le < hw < lowpt2[e]:
                        lowpt2[e] = hw
                else:
                    stack.pop()
                    if e < 0:
                        continue
                    # e's return heights are final: fix its nesting depth
                    # and fold its lowpoints into the parent edge of its
                    # tail, the parent, at height hv - 1
                    lk, lk2 = lowpt[e], lowpt2[e]
                    nesting[e] = 2 * lk + (lk2 < hv - 1)
                    f = parent_edge[parent]
                    if f >= 0:
                        lf = lowpt[f]
                        if lk < lf:
                            lowpt2[f] = lf if lf < lk2 else lk2
                            lowpt[f] = lk
                        elif lk > lf:
                            if lk < lowpt2[f]:
                                lowpt2[f] = lk
                        elif lk2 < lowpt2[f]:
                            lowpt2[f] = lk2

        self.height, self.parent_edge, self.roots = height, parent_edge, roots
        self.src, self.dst, self.lowpt, self.nesting = src, dst, lowpt, nesting
        self.out = out

    def _test(self) -> bool:
        """Phase two: assign back edges to the left or right side through
        the conflict-pair stack; False as soon as no assignment fits."""
        height, parent_edge = self.height, self.parent_edge
        src, dst, lowpt = self.src, self.dst, self.lowpt
        depth = self.nesting.__getitem__
        ordered = [sorted(o, key=depth) if len(o) > 1 else o for o in self.out]
        m = len(src)
        ref: list[int | None] = [None] * m
        side = [1] * m
        lowpt_edge: list[int | None] = [None] * m
        stack_bottom: list[list | None] = [None] * m
        S: list[list] = []

        def add_constraints(ei: int, e: int) -> bool:
            P: list = [None, None, None, None]
            # merge the return edges of ei into P's right interval
            while True:
                Q = S.pop()
                if Q[0] is not None or Q[1] is not None:
                    Q[:] = Q[2], Q[3], Q[0], Q[1]
                if Q[0] is not None or Q[1] is not None:
                    return False
                if lowpt[Q[2]] > lowpt[e]:
                    if P[2] is None and P[3] is None:
                        P[2], P[3] = Q[2], Q[3]
                    else:
                        ref[P[2]] = Q[3]
                    P[2] = Q[2]
                else:
                    ref[Q[2]] = lowpt_edge[e]
                if (S[-1] if S else None) is stack_bottom[ei]:
                    break
            # merge the return edges of earlier siblings that conflict
            # with ei into P's left interval: those of an interval whose
            # highest edge returns above ei's lowpoint
            low = lowpt[ei]
            while S:
                Q = S[-1]
                left, right = Q[1], Q[3]
                if right is not None and lowpt[right] > low:
                    if left is not None and lowpt[left] > low:
                        return False
                    Q[:] = Q[2], right, Q[0], left
                elif left is None or lowpt[left] <= low:
                    break
                S.pop()
                if P[2] is not None:
                    ref[P[2]] = Q[3]
                if Q[2] is not None:
                    P[2] = Q[2]
                if P[0] is None and P[1] is None:
                    P[0], P[1] = Q[0], Q[1]
                else:
                    ref[P[0]] = Q[1]
                P[0] = Q[0]
            if P.count(None) < 4:
                S.append(P)
            return True

        def remove_back_edges(e: int) -> None:
            u = src[e]
            hu = height[u]
            # drop the conflict pairs whose every edge returns to u
            while S:
                P = S[-1]
                if P[0] is None and P[1] is None:
                    lowest = lowpt[P[2]]
                elif P[2] is None and P[3] is None:
                    lowest = lowpt[P[0]]
                else:
                    lowest = min(lowpt[P[0]], lowpt[P[2]])
                if lowest != hu:
                    break
                S.pop()
                if P[0] is not None:
                    side[P[0]] = -1
            if S:
                # trim the edges returning to u off the next pair
                P = S[-1]
                while P[1] is not None and dst[P[1]] == u:
                    P[1] = ref[P[1]]
                if P[1] is None and P[0] is not None:
                    ref[P[0]] = P[2]
                    side[P[0]] = -1
                    P[0] = None
                while P[3] is not None and dst[P[3]] == u:
                    P[3] = ref[P[3]]
                if P[3] is None and P[2] is not None:
                    ref[P[2]] = P[0]
                    side[P[2]] = -1
                    P[2] = None
            # e takes the side of its highest return edge
            if lowpt[e] < hu:
                hl, hr = S[-1][1], S[-1][3]
                if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]):
                    ref[e] = hl
                else:
                    ref[e] = hr

        # Each edge ei out of v, once its subtree is done, has its return
        # edges folded into v's parent edge e: the first edge in nesting
        # order hands e its lowpoint edge, each later one adds constraints.
        # A back edge always returns above v; a tree edge may not.
        for s in self.roots:
            stack = [(s, iter(ordered[s]))]
            while stack:
                v, rest = stack[-1]
                e = parent_edge[v]
                for ei in rest:
                    stack_bottom[ei] = S[-1] if S else None
                    w = dst[ei]
                    if parent_edge[w] == ei:  # tree edge
                        stack.append((w, iter(ordered[w])))
                        break
                    lowpt_edge[ei] = ei
                    S.append([None, None, ei, ei])
                    if ordered[v][0] == ei:
                        lowpt_edge[e] = ei
                    elif not add_constraints(ei, e):
                        return False
                else:
                    stack.pop()
                    if e < 0:
                        continue
                    remove_back_edges(e)
                    u = src[e]
                    if lowpt[e] < height[u]:
                        if ordered[u][0] == e:
                            lowpt_edge[parent_edge[u]] = lowpt_edge[e]
                        elif not add_constraints(e, parent_edge[u]):
                            return False
        self.ref, self.side, self.ordered = ref, side, ordered
        return True

    def rotation(self) -> tuple[tuple[int, ...], ...]:
        """Phase three, for a planar input: each vertex's neighbors in
        clockwise order.  It resolves the sides in place, so it runs
        once per test."""
        n = len(self.adj)
        src, dst, parent_edge = self.src, self.dst, self.parent_edge
        ref, side, nesting = self.ref, self.side, self.nesting
        # resolve each side relative to its reference chain: an edge's
        # side times its reference's resolved side.  Most references
        # point to later edges, so going backwards most are resolved
        # already; a chain that is not is resolved first, from its end.
        for k in range(len(ref) - 1, -1, -1):
            e = ref[k]
            if e is None:
                continue
            if ref[e] is not None:
                chain = []
                while ref[e] is not None:
                    chain.append(e)
                    e = ref[e]
                s = side[e]
                for x in reversed(chain):
                    s *= side[x]
                    side[x] = s
                    ref[x] = None
                e = ref[k]
            side[k] *= side[e]
            ref[k] = None
        # an edge on the left negates its nesting depth; the test's order
        # stays where no out-edge turned left, and a stable sort of it by
        # signed depth keeps ties in edge order elsewhere
        turned = set()
        for k, x in enumerate(side):
            if x < 0:
                nesting[k] = -nesting[k]
                turned.add(src[k])
        ordered = self.ordered
        for v in turned:
            if len(ordered[v]) > 1:
                ordered[v] = sorted(ordered[v], key=nesting.__getitem__)
        # a vertex's ring starts at its parent, then takes its out-edges
        # in order of signed nesting depth: a back edge's head, or a tree
        # edge's child, with the back edges returning to the vertex from
        # the child's subtree on the left before it and on the right
        # after it, each side latest first
        rings: list[list[int]] = [[] for _ in range(n)]
        left: list[list[int]] = [[] for _ in range(n)]
        right: list[list[int]] = [[] for _ in range(n)]
        for s in self.roots:
            stack = [(s, iter(ordered[s]))]
            while stack:
                v, rest = stack[-1]
                for ei in rest:
                    w = dst[ei]
                    if parent_edge[w] == ei:
                        rings[w].append(v)
                        stack.append((w, iter(ordered[w])))
                        break
                    rings[v].append(w)
                    (right if side[ei] == 1 else left)[w].append(v)
                else:
                    stack.pop()
                    if stack:  # v's subtree is done: close its segment
                        u = stack[-1][0]
                        ring = rings[u]
                        ring.extend(reversed(left[u]))
                        ring.append(v)
                        ring.extend(reversed(right[u]))
                        left[u].clear()
                        right[u].clear()
        return tuple(map(tuple, rings))


def _adjacency(n: int, edges: Iterable[Edge]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _kernel(g: Graph) -> dict[Edge, list[Edge]]:
    """What is left of ``g`` after deleting vertices of degree at most
    one and suppressing degree-2 vertices whose neighbors are not
    adjacent, until neither applies: each kernel edge maps to the path
    of ``g``'s edges it stands for.

    Neither step changes planarity, and the paths are internally
    disjoint, so a Kuratowski subdivision in the kernel expands to one
    in ``g``.
    """
    nbrs = [set(s) for s in g.adj]
    paths = {e: [e] for e in g.edges}
    queue = [v for v in range(g.n) if len(nbrs[v]) <= 2]
    while queue:
        x = queue.pop()
        if len(nbrs[x]) == 1:
            (u,) = nbrs[x]
            nbrs[x].clear()
            nbrs[u].remove(x)
            del paths[normalize_edge(u, x)]
            if len(nbrs[u]) <= 2:
                queue.append(u)
        elif len(nbrs[x]) == 2:
            u, w = nbrs[x]
            if w in nbrs[u]:
                continue
            nbrs[x].clear()
            nbrs[u].remove(x)
            nbrs[w].remove(x)
            nbrs[u].add(w)
            nbrs[w].add(u)
            p = paths.pop(normalize_edge(u, x))
            q = paths.pop(normalize_edge(x, w))
            if len(p) < len(q):
                p, q = q, p
            p.extend(q)
            paths[normalize_edge(u, w)] = p
    return paths


def _kuratowski_edges(g: Graph) -> tuple[Edge, ...]:
    """A K5 or K3,3 subdivision in the nonplanar ``g``, as sorted edges.

    Walks the sorted edges of the kernel (see :func:`_kernel`),
    tentatively deleting a chunk at a time and keeping the deletion only
    while the rest stays nonplanar (delta debugging; Zeller and
    Hildebrandt, TSE 2002).  A chunk halves when its deletion would make
    the rest planar and doubles when the deletion is kept.  An edge
    survives only when deleting it alone made the rest planar, and
    deleting more edges later cannot undo that, so every surviving edge
    is needed: what is left is edge-minimal nonplanar, which by
    Kuratowski's theorem is a K5 or K3,3 subdivision.  The kernel keeps
    a long subdivided path from costing one planarity test per edge.
    """
    paths = _kernel(g)
    keep = sorted(paths)
    i, chunk = 0, 1
    while i < len(keep):
        trial = keep[:i] + keep[i + chunk:]
        if _LeftRight(_adjacency(g.n, trial)).planar:
            if chunk == 1:
                i += 1
            else:
                chunk //= 2
        else:
            keep = trial
            chunk *= 2
    return tuple(sorted(e for k in keep for e in paths[k]))


def is_planar(g: Graph) -> PlanarityCertificate:
    """Planarity test; the verdict always carries a certificate.  The
    certificate does not name its obstruction's kind: only
    :func:`validate_planarity_certificate` classifies one."""
    lr = _LeftRight(g.adj)
    if lr.planar:
        return PlanarityCertificate(planar=True, rotation=lr.rotation())
    edges = _kuratowski_edges(g)
    return PlanarityCertificate(planar=False, obstruction_edges=edges)


def validate_planarity_certificate(g: Graph, cert: PlanarityCertificate) -> str | None:
    """The :mod:`check` verdict, failing as :class:`CertificateError`."""
    try:
        return planarity_certificate_kind(g, cert)
    except InvalidCertificate as exc:
        raise CertificateError(str(exc)) from exc
