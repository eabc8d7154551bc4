"""3-coloring: a propagating backtracker plus independent brute force.

The solver is deterministic in sequential mode: it branches on the
unassigned vertex with the fewest remaining colors (ties to the smallest
index) and tries colors in the order 0, 1, 2.  The brute-force routines
share no search logic with it and exist to keep the solver honest.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from .errors import ImproperFixingError, OracleMismatchError, SizeGuardError
from .graphs import Graph

if TYPE_CHECKING:  # pragma: no cover
    from .gadgets import TerminalGadget

ColorAssignment = dict[int, int]

_BRUTE_FORCE_LIMIT = 25  # 3^25 assignment space; beyond this, refuse
_EXHAUSTIVE_LIMIT = 16  # vectorized full sweep, all 3^k rows touched

_COLOR_BITS = (1, 2, 4)
_BIT_COLOR = {1: 0, 2: 1, 4: 2}
_POPCOUNT = (0, 1, 1, 2, 1, 2, 2, 3)


def is_proper(g: Graph, assignment: Mapping[int, int]) -> bool:
    """Check a total assignment; partial or out-of-range input is an error."""
    if len(assignment) != g.n or set(assignment) != set(range(g.n)):
        raise ValueError("assignment must color every vertex exactly once")
    for v, c in assignment.items():
        if c not in (0, 1, 2):
            raise ValueError(f"vertex {v} has color {c}, not in 0..2")
    return all(assignment[u] != assignment[v] for u, v in g.edges)


def check_fixed(g: Graph, fixed: Mapping[int, int]) -> None:
    """Reject a pre-assignment that is out of range or already violates
    one of its own edges.  Distinct from an UNSAT outcome."""
    for v, c in fixed.items():
        if not (0 <= v < g.n):
            raise ImproperFixingError(f"fixed vertex {v} outside 0..{g.n - 1}")
        if c not in (0, 1, 2):
            raise ImproperFixingError(f"fixed color {c} on vertex {v} not in 0..2")
    for u, v in g.edges:
        if u in fixed and v in fixed and fixed[u] == fixed[v]:
            raise ImproperFixingError(
                f"fixed assignment is monochromatic on edge ({u}, {v})"
            )


@dataclass
class SolveStats:
    nodes: int = 0
    propagations: int = 0


_PAIRS = (0b011, 0b101, 0b110)


def _pair_classes(
    nb: Sequence[int],
    dom: list[int],
    pending: list[int],
) -> bool | None:
    """Reason about vertices stuck on the same two colors.

    Adjacent vertices sharing a two-color domain alternate, so each
    connected class of them two-colors like a path: an odd cycle inside
    one class is a wipeout, and any vertex adjacent to both parities of
    a single class sees both colors and loses the pair.  Returns None on
    wipeout, else whether any domain shrank (shrunk vertices are queued).

    ``nb[v]`` is the neighborhood of ``v`` as a bitmask.  Each class is
    grown by a layered flood fill over the masks, so an edge inside one
    layer is the odd cycle, and a vertex sees both parities exactly when
    it lies in the neighborhoods of both the even and the odd layers.
    Stripping a pair never leaves a new pair behind (what is left is a
    singleton or nothing), so one bucketing pass up front serves all
    three pairs; a bucketed vertex an earlier pair shrank is skipped.
    Pairs go in ``_PAIRS`` order and strips in index order.
    """
    buckets = dict.fromkeys(_PAIRS, 0)
    for s, ds in enumerate(dom):
        if _POPCOUNT[ds] == 2:
            buckets[ds] |= 1 << s
    stripped = 0
    for p in _PAIRS:
        members = left = buckets[p] & ~stripped
        hits = 0
        while left:
            seen = layer = left & -left
            # neighborhoods of the layers with the next layer's parity,
            # and of those with the other parity
            ahead = behind = 0
            while layer:
                # most classes are single edges, so most layers are one
                # vertex, whose mask needs no bit walk
                if layer & (layer - 1):
                    reach = 0
                    rest = layer
                    while rest:
                        low = rest & -rest
                        reach |= nb[low.bit_length() - 1]
                        rest ^= low
                else:
                    reach = nb[layer.bit_length() - 1]
                if reach & layer:
                    return None  # odd cycle two-colored
                ahead, behind = behind, ahead | reach
                layer = reach & left & ~seen
                seen |= layer
            hits |= ahead & behind
            left &= ~seen
        hits &= ~members
        while hits:
            low = hits & -hits
            hits ^= low
            w = low.bit_length() - 1
            dw = dom[w]
            if not (dw & p):
                continue
            dw &= ~p
            if not dw:
                return None
            dom[w] = dw
            pending.append(w)
            stripped |= low
    return stripped != 0


def _fixpoint(
    adj: Sequence[Sequence[int]],
    nb: Sequence[int],
    dom: list[int],
    pending: list[int],
    stats: SolveStats,
) -> bool:
    """Push shrunken domains through their neighborhoods.  In place;
    returns False on a wiped-out domain.

    A singleton leaves its neighbors' domains; two adjacent vertices
    stuck on the same two colors must use both, so their common
    neighbors lose the pair.  Once the queue drains, the whole-class
    parity rules of :func:`_pair_classes` run, and the two alternate to
    a fixpoint.
    """
    i = 0
    while True:
        while i < len(pending):
            v = pending[i]
            i += 1
            dv = dom[v]
            size = _POPCOUNT[dv]
            if size == 1:
                for w in adj[v]:
                    dw = dom[w]
                    if dw & dv:
                        dw &= ~dv
                        if not dw:
                            return False
                        dom[w] = dw
                        if _POPCOUNT[dw] <= 2:
                            pending.append(w)
            elif size == 2:
                for u in adj[v]:
                    if dom[u] != dv:
                        continue
                    nu = nb[u]
                    for w in adj[v]:
                        if not nu >> w & 1:
                            continue
                        dw = dom[w]
                        if dw & dv:
                            dw &= ~dv
                            if not dw:
                                return False
                            dom[w] = dw
                            pending.append(w)
            stats.propagations += 1
        shrank = _pair_classes(nb, dom, pending)
        if shrank is None:
            return False
        if not shrank:
            return True


def _propagate(
    adj: Sequence[Sequence[int]],
    nb: Sequence[int],
    dom: list[int],
    pending: list[int],
    stats: SolveStats,
) -> bool:
    """Propagation with failed-literal probing on top of the fixpoint
    rules: a color whose trial assignment propagates to a wipeout is
    stripped outright.  This is what surfaces a gadget's interface
    constraints (some vertex cannot take some color) without search."""
    if not _fixpoint(adj, nb, dom, pending, stats):
        return False
    while True:
        stripped = False
        for v in range(len(dom)):
            dv = dom[v]
            if _POPCOUNT[dv] == 1:
                continue
            for bit in _COLOR_BITS:
                if not dv & bit:
                    continue
                trial = dom[:]
                trial[v] = bit
                if not _fixpoint(adj, nb, trial, [v], stats):
                    dv &= ~bit
                    if not dv:
                        return False
                    dom[v] = dv
                    stripped = True
                    if not _fixpoint(adj, nb, dom, [v], stats):
                        return False
                    dv = dom[v]
                    if _POPCOUNT[dv] == 1:
                        break
        if not stripped:
            return True


def _search(
    adj: Sequence[Sequence[int]],
    nb: Sequence[int],
    dom: list[int],
    stats: SolveStats,
) -> list[int] | None:
    """Depth-first search over propagated domains, with an explicit stack
    so the branching depth is not bounded by Python's recursion limit.

    Each node branches on the unassigned vertex with the fewest colors
    (ties to the smallest index) and tries its colors in order 0, 1, 2.
    """
    stack: list[tuple[list[int], int, Iterator[int]]] = []
    while True:
        stats.nodes += 1
        best_v = -1
        best_size = 4
        for v, d in enumerate(dom):
            size = _POPCOUNT[d]
            if 1 < size < best_size:
                best_v = v
                best_size = size
                if size == 2:
                    break
        if best_v < 0:
            return dom[:]
        stack.append((dom, best_v, iter(_COLOR_BITS)))
        # descend into the next child that survives propagation, backing
        # out of every node whose colors are exhausted
        nxt: list[int] | None = None
        while nxt is None:
            if not stack:
                return None
            parent, v, bits = stack[-1]
            for bit in bits:
                if parent[v] & bit:
                    child = parent[:]
                    child[v] = bit
                    if _propagate(adj, nb, child, [v], stats):
                        nxt = child
                        break
            else:
                stack.pop()
        dom = nxt


def _solve_sequential(
    n: int,
    edges: Sequence[tuple[int, int]],
    fixed: Mapping[int, int],
    stats: SolveStats,
) -> ColorAssignment | None:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    nb = [sum(1 << w for w in ns) for ns in adj]
    dom = [0b111] * n
    pending = []
    for v, c in fixed.items():
        dom[v] = _COLOR_BITS[c]
        pending.append(v)
    pending.sort()
    if not _propagate(adj, nb, dom, pending, stats):
        return None
    final = _search(adj, nb, dom, stats)
    if final is None:
        return None
    return {v: _BIT_COLOR[d] for v, d in enumerate(final)}


def _solve_worker(
    args: tuple[int, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]],
) -> tuple[ColorAssignment | None, SolveStats]:
    n, edges, fixed_items = args
    stats = SolveStats()
    return _solve_sequential(n, edges, dict(fixed_items), stats), stats


def solve_3coloring_with_stats(
    g: Graph, fixed: Mapping[int, int] | None = None, jobs: int = 1
) -> tuple[ColorAssignment | None, SolveStats]:
    """Like :func:`solve_3coloring` but also returns search statistics."""
    fixed = dict(fixed or {})
    check_fixed(g, fixed)
    stats = SolveStats()
    if jobs <= 1 or g.n == 0:
        return _solve_sequential(g.n, g.edges, fixed, stats), stats
    # parallel mode: split the smallest-index free vertex across workers;
    # the verdict matches sequential mode, the witness may not
    free = [v for v in range(g.n) if v not in fixed]
    if not free:
        return _solve_sequential(g.n, g.edges, fixed, stats), stats
    root = free[0]
    tasks = []
    for c in (0, 1, 2):
        sub = dict(fixed)
        sub[root] = c
        try:
            check_fixed(g, sub)
        except ImproperFixingError:
            continue
        tasks.append((g.n, g.edges, tuple(sorted(sub.items()))))
    with ProcessPoolExecutor(max_workers=min(jobs, 3)) as pool:
        results = list(pool.map(_solve_worker, tasks))
    # every branch runs to completion, so the counts cover all of them
    for _, branch in results:
        stats.nodes += branch.nodes
        stats.propagations += branch.propagations
    for res, _ in results:
        if res is not None:
            return res, stats
    return None, stats


def solve_3coloring(
    g: Graph, fixed: Mapping[int, int] | None = None, jobs: int = 1
) -> ColorAssignment | None:
    """Find a proper 3-coloring extending ``fixed``, or None when no
    extension exists.

    A ``fixed`` assignment that already violates one of its own edges
    raises :class:`ImproperFixingError`; that situation is reported as an
    input error, never as UNSAT.  The empty graph is satisfiable with the
    empty assignment.
    """
    result, _ = solve_3coloring_with_stats(g, fixed, jobs=jobs)
    return result


def split_3coloring(
    g: Graph, fixed: Mapping[int, int] | None = None, jobs: int = 1
) -> tuple[ColorAssignment | None, dict]:
    """Decide colorability by a symmetry split and return the transcript.

    The smallest free vertex is pinned to each color in turn, stopping at
    the first satisfiable branch, whose coloring is returned; None means
    every branch is UNSAT or conflicts with a fixed neighbor.  The
    transcript gives the ``root`` and one entry per branch tried.

    With nothing fixed the solver's rules are color-symmetric and it
    branches first on vertex 0, so this replays :func:`solve_3coloring`
    branch for branch and returns the same coloring, one node cheaper.
    """
    fixed = dict(fixed or {})
    check_fixed(g, fixed)
    free = [v for v in range(g.n) if v not in fixed]
    if not free:
        # check_fixed passed, so a total fixing is a proper coloring
        return fixed, {"root": None, "branches": []}
    root = free[0]
    branches = []
    for c in (0, 1, 2):
        split = dict(fixed)
        split[root] = c
        try:
            result, stats = solve_3coloring_with_stats(g, split, jobs=jobs)
        except ImproperFixingError:
            branches.append({"color": c, "verdict": "conflict", "nodes": 0})
            continue
        verdict = "unsat" if result is None else "sat"
        branches.append({"color": c, "verdict": verdict, "nodes": stats.nodes})
        if result is not None:
            return result, {"root": root, "branches": branches}
    return None, {"root": root, "branches": branches}


def revalidate_unsat(
    g: Graph, fixed: Mapping[int, int] | None = None, jobs: int = 1
) -> dict:
    """Re-derive an UNSAT verdict by :func:`split_3coloring` and return
    its transcript.

    A satisfiable branch means the original verdict was wrong and raises
    :class:`OracleMismatchError`.  Mostly useful past the brute-force
    guard, where no full enumeration can back the solver up.
    """
    result, split = split_3coloring(g, fixed, jobs=jobs)
    if result is not None:
        if split["root"] is None:
            raise OracleMismatchError(
                "UNSAT claimed but the fixing itself is a proper coloring"
            )
        raise OracleMismatchError(
            f"UNSAT claimed overall but SAT with vertex {split['root']} pinned"
            f" to color {split['branches'][-1]['color']}"
        )
    return split


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
    nbrs = g.neighbor_sets

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

    if extend(0):
        return colors
    return None


def exhaustive_color_count(
    g: Graph, fixed: Mapping[int, int] | None = None
) -> int:
    """Count proper 3-colorings extending ``fixed`` by sweeping the full
    3^k assignment space in vectorized chunks; every row is examined.

    Guard: at most 3^16 free vertices (the sweep has no pruning at all).
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
    index_of = {v: i for i, v in enumerate(free)}
    free_edges = []
    half_edges = []
    for u, v in g.edges:
        if u in index_of and v in index_of:
            free_edges.append((index_of[u], index_of[v]))
        elif u in index_of:
            half_edges.append((index_of[u], fixed[v]))
        elif v in index_of:
            half_edges.append((index_of[v], fixed[u]))
    total = 3**k
    if k == 0:
        return 1
    chunk = 3**11
    count = 0
    powers = np.array([3**i for i in range(k)], dtype=np.int64)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        codes = np.arange(start, stop, dtype=np.int64)
        digits = (codes[:, None] // powers[None, :]) % 3
        bad = np.zeros(stop - start, dtype=bool)
        for i, j in free_edges:
            bad |= digits[:, i] == digits[:, j]
        for i, c in half_edges:
            bad |= digits[:, i] == c
        count += int(np.count_nonzero(~bad))
    return count


# ---------------------------------------------------------------------------
# terminal patterns

def pattern_of(colors: Sequence[int]) -> str:
    """Normalize a color tuple to its partition pattern string.

    First occurrences are renumbered 0, 1, 2 in order, so (2, 2, 0)
    and (1, 1, 2) both become "001".
    """
    seen: dict[int, int] = {}
    out = []
    for c in colors:
        if c not in seen:
            seen[c] = len(seen)
        out.append(seen[c])
    return "".join(str(d) for d in out)


def all_patterns(t: int) -> list[str]:
    """Every partition pattern of t positions using at most 3 blocks,
    in lexicographic order."""
    if not (1 <= t <= 4):
        raise ValueError(f"pattern arity must be 1..4, got {t}")
    result: list[str] = []

    def grow(prefix: list[int]) -> None:
        if len(prefix) == t:
            result.append("".join(str(d) for d in prefix))
            return
        top = max(prefix) if prefix else -1
        for d in range(min(top + 1, 2) + 1):
            grow(prefix + [d])

    grow([])
    return result


def pattern_representative(pattern: str) -> list[int]:
    """The canonical coloring for a pattern: block index = color."""
    digits = [int(ch) for ch in pattern]
    if pattern_of(digits) != pattern:
        raise ValueError(f"{pattern!r} is not a normalized pattern")
    return digits


def all_equal_pattern(t: int) -> str:
    return "0" * t


@dataclass(frozen=True)
class TerminalBehavior:
    """Feasibility of each terminal partition pattern for a gadget.

    Feasibility under one representative coloring decides the whole
    pattern class because permuting the three colors maps proper
    colorings to proper colorings.
    """

    arity: int
    entries: tuple[tuple[str, bool], ...]

    def feasible(self, pattern: str) -> bool:
        for p, ok in self.entries:
            if p == pattern:
                return ok
        raise KeyError(f"unknown pattern {pattern!r}")

    def as_dict(self) -> dict[str, bool]:
        return dict(self.entries)

    @property
    def feasible_patterns(self) -> tuple[str, ...]:
        return tuple(p for p, ok in self.entries if ok)


def terminal_behavior(gadget: "TerminalGadget", jobs: int = 1) -> TerminalBehavior:
    """Decide every terminal pattern of a gadget with 2 to 4 terminals.

    A pattern whose representative coloring is improper on the terminal
    subgraph (two equal terminals joined by an edge) is infeasible, not
    an error.
    """
    terminals = gadget.terminals
    t = len(terminals)
    if not (2 <= t <= 4):
        raise ValueError(f"terminal behavior needs 2..4 terminals, got {t}")
    entries = []
    for pattern in all_patterns(t):
        rep = pattern_representative(pattern)
        fixing = {terminals[i]: rep[i] for i in range(t)}
        try:
            check_fixed(gadget.graph, fixing)
        except ImproperFixingError:
            entries.append((pattern, False))
            continue
        result = solve_3coloring(gadget.graph, fixing, jobs=jobs)
        if result is not None and not is_proper(gadget.graph, result):
            raise OracleMismatchError(
                f"pattern {pattern}: solver returned an improper coloring"
            )
        entries.append((pattern, result is not None))
    return TerminalBehavior(t, tuple(entries))


def forced_unequal(gadget: "TerminalGadget") -> bool:
    """True when no proper 3-coloring gives all three terminals one color."""
    terminals = gadget.terminals
    if len(terminals) != 3:
        raise ValueError(f"forced_unequal needs 3 terminals, got {len(terminals)}")
    fixing = {v: 0 for v in terminals}
    try:
        check_fixed(gadget.graph, fixing)
    except ImproperFixingError:
        return True
    return solve_3coloring(gadget.graph, fixing) is None
