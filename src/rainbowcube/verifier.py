"""Ground-truth rainbow verification and exact minimum color search.

A coloring is k-rainbow exactly when every k-cycle carries k distinct
edge colors, which is the same as a proper coloring of the conflict
graph whose nodes are the edges of Q_n, joined when two edges appear in
a common k-cycle. Verification enumerates cycles exhaustively; exact
minimum color counts come from branch-and-bound chromatic search on the
conflict graph.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .coloring import Color, EdgeColoring
from .errors import BudgetError, InternalError, UsageError
from .hypercube import (
    Edge,
    build_cycle_same_level,
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


def verify_rainbow(coloring: EdgeColoring, k: int) -> Optional[Violation]:
    """None when every k-cycle is rainbow, else the canonical violation.

    The reported violation carries the canonically smallest offending
    cycle and its lexicographically first pair of equally colored edges.
    """
    n = coloring.n
    _check_k(n, k)
    if n > VERIFY_DIM_LIMIT:
        raise BudgetError(f"verification supports n <= {VERIFY_DIM_LIMIT}", kind="class")
    table = coloring.key_table()
    worst: Optional[tuple] = None
    for cyc in enumerate_cycles(n, k):
        if len({table[key] for key in cycle_keys(cyc)}) < k and (
            worst is None or cyc < worst
        ):
            worst = cyc
    if worst is None:
        return None
    ordered = sorted(edges_of_cycle(worst))
    for e1, e2 in combinations(ordered, 2):
        c1 = table[e1.key()]
        if c1 == table[e2.key()]:
            return Violation(worst, e1, e2, c1)
    raise InternalError("violating cycle lost its clash")


def _conflict_class_ok(n: int, k: int) -> bool:
    return (k <= 8 and n <= 6) or (k <= 12 and n <= 5) or n <= 4


def conflict_graph(n: int, k: int, deadline: Optional[float] = None) -> ConflictGraph:
    """Co-occurrence graph of Q_n edges over k-cycles."""
    _check_dim(n)
    _check_k(n, k)
    if deadline is None and not _conflict_class_ok(n, k):
        raise BudgetError(
            f"conflict graph for n={n}, k={k} is outside the supported class",
            kind="class",
        )
    edges = tuple(enumerate_edges(n))
    index = {e.key(): i for i, e in enumerate(edges)}
    adj = [0] * len(edges)
    checked = 0
    for cyc in enumerate_cycles(n, k):
        if deadline is not None:
            checked += 1
            if checked % 1024 == 0 and time.monotonic() > deadline:
                raise BudgetError(
                    "conflict graph construction timed out",
                    bounds=(1, len(edges)),
                    kind="timeout",
                )
        ids = [index[key] for key in cycle_keys(cyc)]
        for i in ids:
            for j in ids:
                if i != j:
                    adj[i] |= 1 << j
    return ConflictGraph(n, k, edges, tuple(adj))


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
