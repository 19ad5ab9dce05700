"""Ground-truth rainbow verification and exact minimum color search.

A coloring is k-rainbow exactly when every k-cycle carries k distinct
edge colors, which is the same as a proper coloring of the conflict
graph whose nodes are the edges of Q_n, joined when two edges appear in
a common k-cycle. XOR by a vertex maps k-cycles to k-cycles, so the
conflict neighbourhood of edge (b, d) is the translate by b of that of
edge (0, d), and the k-cycles through vertex 0 give all of those.
Verification scans every edge against its translated neighbourhood; if
some edges clash, it recovers the canonical witness from the cycles
through a cover of the clashing pairs. Exact minimum color counts come
from branch-and-bound chromatic search on the conflict graph, built
from the same neighbourhoods.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional

from .coloring import Color, EdgeColoring
from .errors import BudgetError, InternalError, UsageError
from .hypercube import (
    Edge,
    build_cycle_same_level,
    canonical_cycle,
    count_level_edges,
    cycle_keys,
    cycle_problem,
    edge_key,
    edge_level,
    edges_of_cycle,
    enumerate_cycles,
    enumerate_edges,
    _check_cycle_length,
    _check_dim,
)

VERIFY_DIM_LIMIT = 14


@dataclass(frozen=True)
class Violation:
    """A k-cycle carrying two identically colored edges."""

    cycle: tuple
    e1: Edge
    e2: Edge
    color: Color


@dataclass(frozen=True)
class ConflictGraph:
    """Edges of Q_n, adjacent when they share some k-cycle.

    ``adj[i]`` is a bitmask over node indices.
    """

    n: int
    k: int
    edges: tuple[Edge, ...]
    adj: tuple[int, ...]

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def is_complete(self) -> bool:
        m = len(self.edges)
        full = (1 << m) - 1
        return all(self.adj[i] == full ^ (1 << i) for i in range(m))


@dataclass(frozen=True)
class BoundCertificate:
    """All edges of one level plus a witness cycle for every pair."""

    level: int
    edges: tuple[Edge, ...]
    witnesses: dict


def _check_k(n: int, k: int) -> None:
    _check_cycle_length(n, k)
    if k % 2:
        raise UsageError(f"cycle length must be even, got {k}")


def _check_deadline(deadline: Optional[float], n: int) -> None:
    """Raise the conflict-graph timeout once ``deadline`` has passed."""
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetError(
            "conflict graph construction timed out",
            bounds=(1, n << n - 1),
            kind="timeout",
        )


def _neighbourhoods(
    n: int, k: int, deadline: Optional[float] = None
) -> list[tuple[tuple[int, int, int], ...]]:
    """For each direction d, the edges sharing a k-cycle with edge (0, d).

    Entry d - 1 lists them as sorted (bottom, clear, dir - 1) triples;
    ``clear`` is the vertex mask of Q_n without the bit of that direction.
    XOR by b maps k-cycles to k-cycles, so the neighbours of edge (b, d)
    have the keys ((bottom ^ b) & clear) << 5 | dir - 1. A cycle through
    edge (0, d) has 0 as its minimum vertex, so the cycles from start 0
    are all it takes.
    """
    full = (1 << n) - 1
    near: list[set[int]] = [set() for _ in range(n)]
    for count, cyc in enumerate(enumerate_cycles(n, k, starts=(0,)), 1):
        if count % 1024 == 0:
            _check_deadline(deadline, n)
        keys = cycle_keys(cyc)
        near[keys[0]].update(keys)  # the two edges at vertex 0 have key dir - 1
        near[keys[-1]].update(keys)
    return [
        tuple(
            sorted(
                (key >> 5, full ^ 1 << (key & 31), key & 31) for key in keys if key != d
            )
        )
        for d, keys in enumerate(near)
    ]


def _pair_cover(clashing: dict[int, list[int]]) -> list[int]:
    """Sorted keys of clashing edges that meet every clashing pair.

    ``clashing`` maps each clashing edge key to the keys of its equally
    colored neighbours. Greedy, most partners first: a key joins unless
    all its partners already did. One planted clash gives one key.
    """
    cover: set[int] = set()
    for key in sorted(clashing, key=lambda e: (-len(clashing[e]), e)):
        if any(p not in cover for p in clashing[key]):
            cover.add(key)
    return sorted(cover)


def _smallest_violation(n: int, k: int, table: dict, cover: list[int]) -> Optional[tuple]:
    """The canonically smallest non-rainbow k-cycle through an edge of ``cover``.

    With at most n cover edges, one walk of the start-0 cycles translates
    each cycle through edge (0, d) by every cover bottom b of direction d:
    XOR by b maps it to a cycle through edge (b, d). Every translate is
    checked, none skipped by a bound on the best so far, so the cost is
    the same wherever the clashes are: at most about three walks of the
    start-0 block.
    With more cover edges, some clash usually sits near vertex 0, so the
    cycles are enumerated in ascending start blocks instead, only from
    the possible minimum vertices of a cycle through a cover edge, up to
    the first block that holds a non-rainbow cycle.
    """
    worst: Optional[tuple] = None
    if len(cover) > n:
        starts = _candidate_starts(sorted({key >> 5 for key in cover}), k // 2)
        for cyc in enumerate_cycles(n, k, starts=starts):
            if worst is not None and cyc[0] > worst[0]:
                break
            if len({table[key] for key in cycle_keys(cyc)}) < k and (
                worst is None or cyc < worst
            ):
                worst = cyc
        return worst
    bottoms: list[list[int]] = [[] for _ in range(n)]
    for key in cover:
        bottoms[key & 31].append(key >> 5)
    for cyc in enumerate_cycles(n, k, starts=(0,)):
        for end in (cyc[1], cyc[-1]):
            for b in bottoms[end.bit_length() - 1]:
                moved = [v ^ b for v in cyc]
                if len({table[key] for key in cycle_keys(moved)}) == k:
                    continue
                cand = canonical_cycle(moved)
                if worst is None or cand < worst:
                    worst = cand
    return worst


def _candidate_starts(bottoms: list[int], half: int) -> Iterator[int]:
    """Ascending vertices s with s <= x and popcount(s ^ x) <= ``half`` for
    some x in the ascending list ``bottoms``: every k-cycle through such
    an x (k = 2 * half) has its minimum vertex among them."""
    lo = 0
    for s in range(bottoms[-1] + 1):
        while bottoms[lo] < s:
            lo += 1
        if any((s ^ bottoms[i]).bit_count() <= half for i in range(lo, len(bottoms))):
            yield s


def verify_rainbow(coloring: EdgeColoring, k: int) -> Optional[Violation]:
    """None when every k-cycle is rainbow, else the canonical violation.

    The reported violation carries the canonically smallest offending
    cycle and its lexicographically first pair of equally colored edges.
    A coloring is k-rainbow when no edge shares its color with an edge of
    its translated neighbourhood (see ``_neighbourhoods``). Otherwise every
    non-rainbow cycle holds a clashing pair, so the witness is the
    smallest non-rainbow cycle through an edge of a cover of those pairs
    (see ``_smallest_violation``).
    """
    n = coloring.n
    _check_k(n, k)
    if n > VERIFY_DIM_LIMIT:
        raise BudgetError(f"verification supports n <= {VERIFY_DIM_LIMIT}", kind="class")
    table = coloring.key_table()
    nbrs = _neighbourhoods(n, k)
    partners: dict[int, list[int]] = {}
    for key, color in table.items():
        b = key >> 5
        if any(
            table[((x ^ b) & clear) << 5 | d] == color for x, clear, d in nbrs[key & 31]
        ):
            near = (((x ^ b) & clear) << 5 | d for x, clear, d in nbrs[key & 31])
            partners[key] = [p for p in near if table[p] == color]
    if not partners:
        return None
    worst = _smallest_violation(n, k, table, _pair_cover(partners))
    if worst is None:
        raise InternalError("clashing edges share no k-cycle")
    ordered = sorted(edges_of_cycle(worst))
    for e1, e2 in combinations(ordered, 2):
        c1 = table[e1.key()]
        if c1 == table[e2.key()]:
            return Violation(worst, e1, e2, c1)
    raise InternalError("violating cycle lost its clash")


def _conflict_class_ok(n: int, k: int) -> bool:
    return (k <= 8 and n <= 6) or (k <= 12 and n <= 5) or n <= 4


def conflict_graph(n: int, k: int, deadline: Optional[float] = None) -> ConflictGraph:
    """Co-occurrence graph of Q_n edges over k-cycles, from the translated
    neighbourhoods of ``_neighbourhoods``; the deadline is checked at least
    every 1,024 cycles or edges."""
    _check_dim(n)
    _check_k(n, k)
    if deadline is None and not _conflict_class_ok(n, k):
        raise BudgetError(
            f"conflict graph for n={n}, k={k} is outside the supported class",
            kind="class",
        )
    nbrs = _neighbourhoods(n, k, deadline)
    edges = []
    index = {}
    for i, e in enumerate(enumerate_edges(n)):
        if i % 1024 == 1023:
            _check_deadline(deadline, n)
        edges.append(e)
        index[e.key()] = i
    adj = []
    for i, e in enumerate(edges):
        if i % 1024 == 1023:
            _check_deadline(deadline, n)
        b = e.bottom
        near = nbrs[e.dir - 1]
        adj.append(sum(1 << index[((x ^ b) & clear) << 5 | d] for x, clear, d in near))
    return ConflictGraph(n, k, tuple(edges), tuple(adj))


def _greedy_clique(adj: tuple[int, ...]) -> list[int]:
    m = len(adj)
    order = sorted(range(m), key=lambda i: (-adj[i].bit_count(), i))
    clique: list[int] = []
    mask = (1 << m) - 1
    for i in order:
        if mask >> i & 1:
            clique.append(i)
            mask &= adj[i]
    return clique


def _try_color(
    adj: tuple[int, ...],
    limit: int,
    clique: list[int],
    deadline: Optional[float],
) -> Optional[list[int]]:
    """A proper coloring with at most ``limit`` colors, or None.

    DSATUR search on an explicit stack. With ``limit = len(adj)`` and no
    clique its first descent never backtracks: the DSATUR greedy coloring.
    """
    m = len(adj)
    colors = [-1] * m
    forbidden = [0] * m  # bitmask of colors blocked at each node
    if len(clique) > limit:
        return None
    for c, i in enumerate(clique):
        colors[i] = c
        mask = adj[i]
        while mask:
            low = mask & -mask
            forbidden[low.bit_length() - 1] |= 1 << c
            mask ^= low
    uncolored = [i for i in range(m) if colors[i] < 0]
    degree = [a.bit_count() for a in adj]
    stack = []  # (node, color, used before it, neighbors it blocked)
    used = len(clique)
    while len(stack) < len(uncolored):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetError("chromatic search timed out", kind="timeout")
        pick = max(
            (i for i in uncolored if colors[i] < 0),
            key=lambda i: (forbidden[i].bit_count(), degree[i], -i),
        )
        c = 0
        while True:  # lowest allowed color, backtracking when none is left
            cap = min(limit, used + 1)
            while c < cap and forbidden[pick] >> c & 1:
                c += 1
            if c < cap:
                break
            if not stack:
                return None
            pick, c, used, touched = stack.pop()
            colors[pick] = -1
            for j in touched:
                forbidden[j] &= ~(1 << c)
            c += 1
        colors[pick] = c
        touched = []
        mask = adj[pick]
        while mask:
            low = mask & -mask
            j = low.bit_length() - 1
            if not forbidden[j] >> c & 1:
                forbidden[j] |= 1 << c
                touched.append(j)
            mask ^= low
        stack.append((pick, c, used, touched))
        used = max(used, c + 1)
    return colors


def exact_min_colors(
    n: int, k: int, time_limit: Optional[float] = None
) -> tuple[int, EdgeColoring]:
    """Chromatic number of the conflict graph plus an optimal coloring.

    Branch and bound: greedy clique lower bound (seeded by the one-level
    edge count when n > k and k = 0 mod 4), the DSATUR greedy coloring as
    upper bound (the first descent of the search), then backtracking at
    each candidate count. ``time_limit`` must be finite; it covers the
    conflict graph, the greedy coloring and the search. On timeout raises
    BudgetError with certified (lower, upper) bounds; before the greedy
    coloring completes the upper bound is the edge count.
    """
    _check_dim(n)
    _check_k(n, k)
    if time_limit is not None and not math.isfinite(time_limit):
        raise UsageError(f"time limit must be finite, got {time_limit!r}")
    deadline = None if time_limit is None else time.monotonic() + time_limit
    if not _conflict_class_ok(n, k) and time_limit is None:
        raise BudgetError(
            f"exact search for n={n}, k={k} is outside the supported class",
            kind="class",
        )
    graph = conflict_graph(n, k, deadline=deadline)

    clique = _greedy_clique(graph.adj)
    target = len(clique)
    if k % 4 == 0 and n > k:
        target = max(target, count_level_edges(n, k // 4))
    upper = len(graph.adj)
    try:
        best_assign = _try_color(graph.adj, upper, [], deadline)
        upper = max(best_assign) + 1 if best_assign else 0
        while target < upper:
            found = _try_color(graph.adj, target, clique, deadline)
            if found is not None:
                best_assign = found
                upper = target
                break
            target += 1  # exhausted: chromatic number exceeds target
    except BudgetError as exc:
        raise BudgetError(
            f"exact search timed out between {target} and {upper} colors",
            bounds=(target, upper),
            kind="timeout",
        ) from exc

    table = {
        e.key(): (best_assign[i], 0) for i, e in enumerate(graph.edges)
    }
    return upper, EdgeColoring(n, k, "explicit", {}, table)


def lower_bound_clique(n: int, k: int) -> tuple[int, BoundCertificate]:
    """Edge count of level k/4 with a witness k-cycle for every pair.

    Every two edges on level k/4 lie in a common k-cycle when n > k, so
    all of them need distinct colors in any k-rainbow coloring. Witnesses
    are built constructively and validated; a failure aborts loudly.
    """
    _check_dim(n)
    if not isinstance(k, int) or k < 4 or k % 4:
        raise UsageError(f"cycle length must be divisible by 4, got {k!r}")
    if n <= k:
        raise UsageError(f"the level argument needs n > k, got n={n}, k={k}")
    level = k // 4
    edges = tuple(e for e in enumerate_edges(n) if edge_level(e) == level)
    expected = count_level_edges(n, level)
    if len(edges) != expected:
        raise InternalError(
            f"level {level} edge scan found {len(edges)}, expected {expected}"
        )
    witnesses = {}
    for e1, e2 in combinations(edges, 2):
        cyc = build_cycle_same_level(n, k, e1, e2)
        pair_edges = set(edges_of_cycle(cyc))
        if cycle_problem(n, cyc) or e1 not in pair_edges or e2 not in pair_edges:
            raise InternalError(f"witness for {e1} and {e2} failed validation")
        witnesses[(e1, e2)] = cyc
    return expected, BoundCertificate(level, edges, witnesses)


def verify_q3_equivalence(coloring: EdgeColoring) -> tuple[bool, bool]:
    """(every 6-cycle rainbow, every 3-subcube fully colored).

    The two predicates agree on every coloring: two edges of a 3-subcube
    always share a 6-cycle, and every 6-cycle sits in some 3-subcube.
    Disagreement indicates a bug and raises.
    """
    n = coloring.n
    if n < 3:
        raise UsageError(f"needs n >= 3, got {n}")
    c6 = verify_rainbow(coloring, 6) is None

    table = coloring.key_table()
    q3 = True
    dims = range(n)
    for trio in combinations(dims, 3):
        tmask = sum(1 << d for d in trio)
        bits3 = [1 << d for d in trio]
        corners = [
            (bits3[0] if p & 1 else 0)
            | (bits3[1] if p & 2 else 0)
            | (bits3[2] if p & 4 else 0)
            for p in range(8)
        ]
        base = 0
        while True:
            colors = set()
            distinct = True
            for corner in corners:
                v = base | corner
                for d in trio:
                    if not v >> d & 1:
                        color = table[edge_key(v, d + 1)]
                        if color in colors:
                            distinct = False
                            break
                        colors.add(color)
                if not distinct:
                    break
            if not distinct:
                q3 = False
                break
            # next base outside the trio coordinates
            base = (base | tmask) + 1
            base &= ~tmask
            if base >= 1 << n:
                break
        if not q3:
            break

    if c6 != q3:
        raise InternalError(
            f"6-cycle check ({c6}) and 3-subcube check ({q3}) disagree"
        )
    return c6, q3
