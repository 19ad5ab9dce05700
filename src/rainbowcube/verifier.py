"""Ground-truth rainbow verification and exact minimum color search.

A coloring is k-rainbow exactly when every k-cycle carries k distinct
edge colors, which is the same as a proper coloring of the conflict
graph whose nodes are the edges of Q_n, joined when two edges appear in
a common k-cycle. Two distinct edges share a k-cycle exactly when their
span, the coordinates where their bottoms differ plus both directions,
has at most k/2 of them (``_conflicts``, which holds the proof).
Verification groups the edges by color and tests each class pair by
pair, or, for a class larger than a conflict neighbourhood, scans each
member's translated neighbourhood, a Hamming ball around the edge. If
some edges clash, the canonical witness is the smallest cycle through a
clashing pair, from one pass over the pairs that keeps only the best
cycle so far. Exact minimum color counts come from branch-and-bound
chromatic search on the conflict graph, built from the same
neighbourhoods.
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
    count_level_edges,
    cycles_containing_pair,
    edge_key,
    edges_of_cycle,
    enumerate_edges,
    _check_cycle_length,
    _check_dim,
    _cycle_keys_or_problem,
    _same_level_cycle,
)

# Not called here. perfbench/spans.py wraps verifier.build_cycle_same_level
# and verifier.enumerate_cycles, and its installer raises KeyError when
# either name is missing from this module.
from .hypercube import build_cycle_same_level, enumerate_cycles  # noqa: F401

VERIFY_DIM_LIMIT = 14
# Adjacency bytes (one m-bit int per edge) a conflict graph may take:
# Q_12 (75.5 MB) builds, Q_13 (354 MB) is refused.
CONFLICT_GRAPH_BYTES = 128 << 20
# Seconds ``exact_min_colors`` runs when no time limit is given.
EXACT_TIME_LIMIT = 20.0
# Most level-edge pairs ``lower_bound_clique`` holds a witness for:
# (13, 12) with 367,653 pairs builds, (16, 12) with 1.41M is refused.
CLIQUE_PAIR_LIMIT = 500_000


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


def _conflicts(a: int, b: int, half: int) -> bool:
    """Whether the distinct edges with keys ``a`` and ``b`` share a k-cycle,
    k = 2 * ``half``, 4 <= k <= 2^n: exactly when their span, the
    coordinates where the bottoms differ plus both directions, has at
    most k/2 of them.

    Only if: a k-cycle flips each coordinate it uses an even number of
    times, so it uses at most k/2 coordinates, and a cycle through both
    edges uses the whole span.

    If, by induction on n; n <= 3 is checked against the every-cycle
    enumeration in the tests. Let the edges be (x, d) and (y, e) with span
    s <= k/2. Split Q_n along a coordinate c into halves H0 and H1, and
    write g^c for an edge g moved across c.

    (a) s <= n - 1, k <= 2^(n-1). Take c outside the span: both edges lie
        in one half, a Q_(n-1), and induction gives the cycle there.
    (b) s <= n - 1, k > 2^(n-1). With c as in (a), say both edges lie in
        H0. Take a 2^(n-1)-cycle of H0 through both and another edge
        g = (u, v) of it, and replace g by the route u, u^c, ..., v^c, v
        whose middle is a path of odd length l in H1. l = 1 is g^c; a
        longer l is an (l + 1)-cycle of H1 through g^c, by induction, less
        g^c. The lengths run over the even numbers in [2^(n-1) + 2, 2^n].
    (c) s = n. Take c outside {d, e}: c is a bit of x ^ y, so the edges
        lie in opposite halves, say (x, d) in H0, and (y, e)^c = (p, q).
        For k <= 2^(n-1) + 2, take a (k - 2)-cycle of H0 through (x, d)
        and (p, q), whose span n - 1 is at most (k - 2)/2, and replace
        (p, q) by p, p^c, q^c, q, which uses (y, e). For k >= 2n + 2, take
        an edge g of H0 at q other than (p, q) and (x, d), a k0-cycle of
        H0 through (x, d) and g and a k1-cycle of H1 through g^c and
        (y, e). Deleting g and g^c and adding the two c-edges between
        their ends joins them into one cycle of length k0 + k1, with k0
        in [2n - 2, 2^(n-1)] and k1 in [4, 2^(n-1)].
    """
    return ((a ^ b) >> 5 | 1 << (a & 31) | 1 << (b & 31)).bit_count() <= half


def _neighbourhood_size(n: int, half: int) -> int:
    """Number of edges of Q_n sharing a k-cycle (k = 2 * ``half``) with
    edge (0, d): bottoms of at most half - 1 ones off d in direction d,
    less the edge itself, and in each other direction bottoms of any bit
    d and at most half - 2 other ones."""
    return (
        sum(math.comb(n - 1, w) for w in range(half))
        + 2 * (n - 1) * sum(math.comb(n - 2, w) for w in range(half - 1))
        - 1
    )


def _neighbourhoods(
    n: int, half: int, deadline: Optional[float] = None
) -> list[tuple[tuple[int, int, int], ...]]:
    """For each direction d, the edges sharing a k-cycle (k = 2 * ``half``)
    with edge (0, d).

    Entry d - 1 lists them as sorted (bottom, clear, dir - 1) triples;
    ``clear`` is the vertex mask of Q_n without the bit of that direction.
    XOR by b maps k-cycles to k-cycles, so the neighbours of edge (b, d)
    have the keys ((bottom ^ b) & clear) << 5 | dir - 1. A neighbour's
    bottom lies in the Hamming ball of radius min(n, half) - 1 around 0,
    since its direction adds one more coordinate to the span
    (``_conflicts``), so only that ball is scanned; the deadline is
    checked every 1,024 edges.
    """
    full = (1 << n) - 1
    near: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    count = 0
    for ones in range(min(n, half)):
        for coords in combinations(range(n), ones):
            y = sum(1 << c for c in coords)
            for e in range(n):
                if y >> e & 1:
                    continue
                count += 1
                if count % 1024 == 0:
                    _check_deadline(deadline, n)
                key = y << 5 | e
                for d in range(n):  # d is also the key of edge (0, d + 1)
                    if d != key and _conflicts(d, key, half):
                        near[d].append((y, full ^ 1 << e, e))
    return [tuple(sorted(entries)) for entries in near]


def _clashes(n: int, half: int, classes) -> Iterator[tuple[int, int]]:
    """Pairs a < b of equally colored edge keys that share a k-cycle,
    k = 2 * ``half``.

    ``classes`` holds the edge keys of each color. A class of s edges
    with s - 1 <= |N|, N the neighbourhood of one edge, is tested pair by
    pair with ``_conflicts``; a larger one scans each member's translated
    neighbourhood. Either way no class costs more tests than s * |N|.
    """
    size = _neighbourhood_size(n, half)
    nbrs = None
    for keys in classes:
        if len(keys) - 1 <= size:
            for i, a in enumerate(keys):
                for b in keys[i + 1 :]:
                    if _conflicts(a, b, half):
                        yield (a, b) if a < b else (b, a)
            continue
        if nbrs is None:
            nbrs = _neighbourhoods(n, half)
        members = set(keys)
        for a in keys:
            x = a >> 5
            for y, clear, d in nbrs[a & 31]:
                b = ((x ^ y) & clear) << 5 | d
                if a < b and b in members:
                    yield a, b


def _smallest_cycle(n: int, k: int) -> tuple:
    """The canonically smallest k-cycle of Q_n, 4 <= k <= 2^n, k even.

    Its vertices begin 0, 1, 3, 2, each the least a cycle can take after
    the ones before it, as some k-cycle begins so: take a path P of
    k/2 - 1 steps from 0, first to 1, in the subcube with coordinate 2
    clear (a Gray code of its 2^(n-1) vertices has room, as k <= 2^n).
    P and then P with coordinate 2 set walked back is a k-cycle through
    3, 2, 0, 1; XOR by 3 maps it to one through 0, 1, 3, 2. So the
    smallest k-cycle is the smallest one through the edges (0, 1) and
    (2, 1).
    """
    return cycles_containing_pair(n, k, Edge(0, 1), Edge(2, 1))[1]


def verify_rainbow(coloring: EdgeColoring, k: int) -> Optional[Violation]:
    """None when every k-cycle is rainbow, else the canonical violation:
    the canonically smallest offending cycle and its lexicographically
    first pair of equally colored edges.

    Two equally colored edges clash when they share a k-cycle (see
    ``_clashes``). Every cycle through a clashing pair is non-rainbow and
    every non-rainbow cycle holds one, so the witness is the least of the
    smallest cycles through each pair (``cycles_containing_pair``). One
    pass keeps only the least so far, ``worst``, so memory stays O(1)
    however dense the clashes; two rules spare most searches.

    Floor. Let the pair be (x, d) and (y, e), and s its span: the bits of
    x ^ y and both directions. A k-cycle through both flips each
    coordinate it uses an even number of times, so it uses at most k/2,
    s among them, and its vertices agree with x on the others. So its
    minimum vertex is at least x with the bits of s and then its highest
    k/2 - |s| remaining ones cleared; a pair whose floor lies above
    ``worst[0]`` is skipped.

    Stop. No cycle is smaller than ``_smallest_cycle``, so the pass ends
    once ``worst`` is that cycle. It is looked up only when a pair passes
    the floor while ``worst`` starts at 0, so one clash never pays for it.
    """
    n = coloring.n
    _check_k(n, k)
    if n > VERIFY_DIM_LIMIT:
        raise BudgetError(f"verification supports n <= {VERIFY_DIM_LIMIT}", kind="class")
    table = coloring.key_table()
    classes: dict = {}
    for key, color in table.items():
        classes.setdefault(color, []).append(key)
    worst = first = None
    for a, b in _clashes(n, k // 2, classes.values()):
        x = a >> 5
        span = x ^ b >> 5 | 1 << (a & 31) | 1 << (b & 31)
        floor = x & ~span
        for _ in range(min(k // 2 - span.bit_count(), floor.bit_count())):
            floor ^= 1 << floor.bit_length() - 1
        if worst and floor > worst[0]:
            continue
        if worst and not worst[0]:
            first = first or _smallest_cycle(n, k)
            if worst == first:
                break
        cyc = cycles_containing_pair(
            n, k, Edge(x, (a & 31) + 1), Edge(b >> 5, (b & 31) + 1)
        )[1]
        if cyc is None:
            raise InternalError("clashing edges share no k-cycle")
        if worst is None or cyc < worst:
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
    """Co-occurrence graph of Q_n edges over k-cycles, from the translated
    neighbourhoods of ``_neighbourhoods``; the deadline is checked every
    1,024 edges. Without a deadline only the supported class is built;
    with one, any n whose adjacency (m ints of m bits, m = n 2^(n-1)
    edges) fits in ``CONFLICT_GRAPH_BYTES``."""
    _check_dim(n)
    _check_k(n, k)
    m = n << n - 1
    if m * m // 8 > CONFLICT_GRAPH_BYTES:
        raise BudgetError(
            f"conflict graph for n={n} needs about {m * m >> 23} MB of adjacency,"
            f" over the {CONFLICT_GRAPH_BYTES >> 20} MB cap",
            kind="class",
        )
    if deadline is None and not _conflict_class_ok(n, k):
        raise BudgetError(
            f"conflict graph for n={n}, k={k} is outside the supported class",
            kind="class",
        )
    nbrs = _neighbourhoods(n, k // 2, deadline)
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

    DSATUR search on an explicit stack: the ``clique`` nodes take colors
    0, 1, ... and stay fixed; then each step colors the uncolored node
    with the most distinct neighbour colors (its saturation), ties to
    higher degree then lower index, with its lowest allowed color at
    most one above the largest in use, and backtracks when none is left.
    With ``limit = len(adj)`` and no clique its first descent never
    backtracks: the DSATUR greedy coloring.

    Nothing is rescanned per node. The nodes are relabelled once in
    (-degree, index) order and every set below is a bitmask over labels:
    ``blocked[c]`` holds the nodes with a neighbour of color c, and
    ``level[s]`` the uncolored nodes of saturation s, so the pick is the
    lowest bit of the highest non-empty level. Coloring a node with c moves
    its uncolored neighbours outside ``blocked[c]`` (``touched``) up one
    level; uncoloring it moves them back. The stack uncolors every node
    colored after a node before that node, so colored nodes need no
    updates.
    """
    m = len(adj)
    if len(clique) > limit:
        return None
    order = sorted(range(m), key=lambda i: (-adj[i].bit_count(), i))
    label = [0] * m
    for p, i in enumerate(order):
        label[i] = p
    nbrs = []  # neighbour mask of each label
    for i in order:
        mask = adj[i]
        near = 0
        while mask:
            low = mask & -mask
            near |= 1 << label[low.bit_length() - 1]
            mask ^= low
        nbrs.append(near)
    blocked = [0] * min(limit, m)
    free = (1 << m) - 1  # uncolored labels
    for c, i in enumerate(clique):
        p = label[i]
        free ^= 1 << p
        blocked[c] |= nbrs[p]
    level = [0] * (min(limit, m) + 2)  # a spare one for ``top += 1``
    for p in range(m):
        if free >> p & 1:
            level[sum(blocked[c] >> p & 1 for c in range(len(clique)))] |= 1 << p
    top = len(level) - 1  # no non-empty level lies above it
    stack = []  # (node bit, color, used before it, nodes it touched, its level)
    used = len(clique)
    while len(stack) < m - len(clique):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetError("chromatic search timed out", kind="timeout")
        while not level[top]:
            top -= 1
        sat = top
        bit = level[top] & -level[top]
        level[top] ^= bit
        c = 0
        while True:  # lowest allowed color, backtracking when none is left
            cap = min(limit, used + 1)
            while c < cap and blocked[c] & bit:
                c += 1
            if c < cap:
                break
            # A fresh pick fails only with all ``limit`` colors blocked, at
            # the highest level there is, so no node returned before the
            # next pick lies above ``top``.
            level[sat] |= bit
            if not stack:
                return None
            bit, c, used, touched, sat = stack.pop()
            free |= bit
            blocked[c] ^= touched
            s = 1
            while touched:  # bottom up, so nothing moves twice
                moved = level[s] & touched
                level[s] ^= moved
                level[s - 1] |= moved
                touched ^= moved
                s += 1
            c += 1
        free ^= bit
        touched = rest = nbrs[bit.bit_length() - 1] & free & ~blocked[c]
        blocked[c] |= touched
        s = top
        while rest:  # top down, so nothing moves twice
            moved = level[s] & rest
            level[s] ^= moved
            level[s + 1] |= moved
            rest ^= moved
            s -= 1
        if touched:
            top += 1
        stack.append((bit, c, used, touched, sat))
        used = max(used, c + 1)
    colors = [0] * m
    for c, i in enumerate(clique):
        colors[i] = c
    for bit, c, *_ in stack:
        colors[order[bit.bit_length() - 1]] = c
    return colors


def exact_min_colors(
    n: int, k: int, time_limit: Optional[float] = None
) -> tuple[int, EdgeColoring]:
    """Chromatic number of the conflict graph plus an optimal coloring.

    Branch and bound: greedy clique lower bound (seeded by the one-level
    edge count when n > k and k = 0 mod 4), the DSATUR greedy coloring as
    upper bound (the first descent of the search), then backtracking at
    each candidate count; ``_try_color`` keeps the uncolored nodes in one
    bitmask per saturation level, so no step rescans them. ``time_limit``
    must be finite and defaults to ``EXACT_TIME_LIMIT`` seconds; it covers
    the conflict graph, the greedy coloring and the search. On timeout raises
    BudgetError with certified (lower, upper) bounds; before the greedy
    coloring completes the upper bound is the edge count. Without a time
    limit only the supported class is searched.
    """
    _check_dim(n)
    _check_k(n, k)
    if time_limit is not None and not math.isfinite(time_limit):
        raise UsageError(f"time limit must be finite, got {time_limit!r}")
    deadline = time.monotonic() + (
        EXACT_TIME_LIMIT if time_limit is None else time_limit
    )
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
    all of them need distinct colors in any k-rainbow coloring. The
    certificate lists the level's edges in ``enumerate_edges`` order and
    maps each pair (e1, e2), e1 first in that order, to the cycle
    ``build_cycle_same_level(n, k, e1, e2)`` returns.

    Each witness comes from the router of ``build_cycle_same_level``,
    ``hypercube._same_level_cycle``, called on int bottoms and direction
    bits, and is checked once: the rules of ``cycle_problem`` and both
    edge keys of the pair among its edges, in one walk on int keys. A
    failure is an InternalError. The router checks nothing, and it needs
    none of the argument checks of ``build_cycle_same_level``, as the
    level scan already ensures each of them:

    - 1 <= n <= MAX_DIM by ``_check_dim``; 4 | k and 4 <= k < n by the
      checks below, so k is even and k <= 2^n;
    - each edge has a bottom below 2^n with its direction bit clear and a
      direction in [1, n], so it lies inside Q_n;
    - the two edges of a pair are distinct, as ``combinations`` pairs
      distinct positions of a list without repeats;
    - both edges sit on level k/4, as every bottom has k/4 - 1 ones;
    - for a disjoint pair, k is divisible by 4, and two bottoms of
      k/4 - 1 ones each differ in at most 2(k/4 - 1) = k/2 - 2
      coordinates, so |v xor x| <= k/2 - 2.

    A certificate of more than ``CLIQUE_PAIR_LIMIT`` pairs is refused with
    a class BudgetError before any witness is built.
    """
    _check_dim(n)
    if not isinstance(k, int) or k < 4 or k % 4:
        raise UsageError(f"cycle length must be divisible by 4, got {k!r}")
    if n <= k:
        raise UsageError(f"the level argument needs n > k, got n={n}, k={k}")
    level = k // 4
    expected = count_level_edges(n, level)
    pairs = math.comb(expected, 2)
    if pairs > CLIQUE_PAIR_LIMIT:
        raise BudgetError(
            f"a level-{level} certificate for n={n}, k={k} holds {pairs} "
            f"witness cycles (limit {CLIQUE_PAIR_LIMIT})",
            kind="class",
        )
    # bottoms with level - 1 ones, ascending, then free directions ascending:
    # the level's edges in enumerate_edges order, without building the rest
    edges = tuple(
        Edge(b, d)
        for b in range(1 << n)
        if b.bit_count() == level - 1
        for d in range(1, n + 1)
        if not b >> d - 1 & 1
    )
    if len(edges) != expected:
        raise InternalError(
            f"level {level} edge scan found {len(edges)}, expected {expected}"
        )
    witnesses = {}
    routed = [(e, e.key(), e.bottom, 1 << e.dir - 1) for e in edges]
    for (e1, key1, v, bi), (e2, key2, x, bj) in combinations(routed, 2):
        cyc = _same_level_cycle(n, k, v, bi, x, bj, True)
        keys, problem = _cycle_keys_or_problem(n, cyc)
        if problem or key1 not in keys or key2 not in keys:
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
