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
chromatic search on the conflict graph, with an upper bound lifted from
its quotient by a code. One kernel builds both graphs from the same
neighbourhoods, by translation, the conflict graph being the quotient by
the trivial code, and emits their nodes in the order the search takes.
"""

from __future__ import annotations

import math
import time
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, islice
from numbers import Real
from operator import or_
from typing import Iterator, Optional

from .coloring import Color, EdgeColoring
from .errors import BudgetError, InternalError, UsageError
from .hypercube import (
    Edge,
    count_level_edges,
    _check_cycle_length,
    _check_dim,
    _cycle_keys_or_problem,
    _pair_cycle,
    _span_cycle,
    _witness_problem,
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
# Most level-edge pairs ``lower_bound_clique`` checks, a bound on time (about
# 2 s for the 367,653 of (13, 12)), not memory: (16, 12) with 1.41M is refused.
CLIQUE_PAIR_LIMIT = 500_000
# Witnesses ``lower_bound_clique`` checks at once, one 64-bit lane each.
WITNESS_CHUNK = 4096


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

    ``keys[i]`` is the int key of node i, in ``enumerate_edges`` order;
    ``adj[i]`` is a bitmask over node indices.
    """

    n: int
    k: int
    keys: tuple[int, ...]
    adj: tuple[int, ...]


@dataclass(frozen=True)
class BoundCertificate:
    """All edges of one level plus a witness cycle for every pair (e1, e2),
    e1 first, in pair order. The certificates of ``lower_bound_clique``
    build and check each witness when it is read."""

    level: int
    edges: tuple[Edge, ...]
    witnesses: Mapping


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

    If: for n >= k/2, ``hypercube._span_cycle`` builds such a cycle, and
    its docstring holds the proof. For n < k/2, by induction on n; n <= 3
    is checked against the every-cycle enumeration in the tests. Let the
    edges be (x, d) and (y, e) with span s <= k/2. Split Q_n along a
    coordinate c into halves H0 and H1, and write g^c for an edge g moved
    across c.

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
    return _pair_cycle(n, k, 0, 2 << 5)


def verify_rainbow(coloring: EdgeColoring, k: int) -> Optional[Violation]:
    """None when every k-cycle is rainbow, else the canonical violation:
    the canonically smallest offending cycle and its lexicographically
    first pair of equally colored edges.

    Two equally colored edges clash when they share a k-cycle (see
    ``_clashes``). Every cycle through a clashing pair is non-rainbow and
    every non-rainbow cycle holds one, so the witness is the least of the
    smallest cycles through each pair (``hypercube._pair_cycle``). One
    pass keeps only the least so far, ``worst``, so memory stays O(1)
    however dense the clashes; two rules spare most searches.

    Floor. Let the pair be (x, d) and (y, e), and s its span. The minimum
    vertex of a k-cycle through both differs from x in at most k/2 - |s|
    coordinates outside s (``hypercube._pair_starts``, which holds the
    proof). The floor is the least vertex that rule allows, ignoring the
    bound by the bottoms: x with the bits of s and then its highest
    k/2 - |s| remaining ones cleared. A pair whose floor lies above
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
        cyc = _pair_cycle(n, k, a, b)
        if cyc is None:
            raise InternalError("clashing edges share no k-cycle")
        if worst is None or cyc < worst:
            worst = cyc
    if worst is None:
        return None
    keys, problem = _cycle_keys_or_problem(n, worst)
    if problem is not None:
        raise InternalError(f"violating cycle invalid: {problem}")
    # key order is (bottom, dir) order, the order of Edge
    for a, b in combinations(sorted(keys), 2):
        if table[a] == table[b]:
            e1, e2 = Edge(a >> 5, (a & 31) + 1), Edge(b >> 5, (b & 31) + 1)
            return Violation(worst, e1, e2, table[a])
    raise InternalError("violating cycle lost its clash")


def _compress_steps(mask: int, width: int) -> list[tuple[int, int, int]]:
    """The steps that compress a ``width``-bit int to the bits of ``mask``,
    kept in order and packed at the bottom (Hacker's Delight, 2nd ed.,
    section 7-4). Each mask bit moves right by the number of clear mask
    bits below it, written in binary: step (shift, move, stay) moves the
    bits of ``move``, those whose distance has the bit ``shift``, and keeps
    those of ``stay``. Apply as x &= mask, then, per step,
    x = x & stay | (x & move) >> shift. Steps that move nothing are left
    out."""
    full = (1 << width) - 1
    below = ~mask << 1 & full  # clear mask bits, counted at the bit above
    steps = []
    shift = 1
    while shift < width:
        parity = below  # bit p: parity of the bits of ``below`` up to p
        s = 1
        while s < width:
            parity ^= parity << s & full
            s <<= 1
        move = parity & mask
        if move:
            steps.append((shift, move, full ^ move))
        mask = mask ^ move | move >> shift
        below &= ~parity
        shift <<= 1
    return steps


def conflict_graph(n: int, k: int, deadline: Optional[float] = None) -> ConflictGraph:
    """Co-occurrence graph of Q_n edges over k-cycles, for any n whose
    adjacency (m ints of m bits, m = n 2^(n-1) edges) fits in
    ``CONFLICT_GRAPH_BYTES``; built under ``deadline``, else
    ``EXACT_TIME_LIMIT`` seconds from the call. It is ``_orbit_graph``
    under the trivial code, whose coset ranks are the vertices: every
    orbit is one edge, keyed by its edge key, in ``enumerate_edges`` order.
    """
    _check_dim(n)
    _check_k(n, k)
    m = n << n - 1
    if m * m // 8 > CONFLICT_GRAPH_BYTES:
        raise BudgetError(
            f"conflict graph for n={n} needs about {m * m >> 23} MB of adjacency,"
            f" over the {CONFLICT_GRAPH_BYTES >> 20} MB cap",
            kind="class",
        )
    if deadline is None:
        deadline = time.monotonic() + EXACT_TIME_LIMIT
    return ConflictGraph(n, k, *_orbit_graph(n, k // 2, list(range(1 << n)), deadline))


def _orbit_graph(
    n: int, half: int, syn, deadline: Optional[float]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The orbit graph G/W of the conflict graph G (k = 2 * ``half``) under
    a linear code W of minimum distance at least 3, given by the coset rank
    ``syn[x]`` of every vertex x (``_syndromes``), as (key s << 5 | d of
    each orbit, its adjacency over orbits); the clock is read every 64
    coset ranks.

    XOR by a vertex maps k-cycles to k-cycles, so it is an automorphism of
    G. With h_d = syn[2^d] (not 0, as 2^d is not in W), the ends of edge
    (x, d) have the ranks syn[x] and syn[x] ^ h_d. Its orbit under W, the
    edges of direction d between those two cosets, is orbit (s, d),
    s = min(syn[x], syn[x] ^ h_d), with the darts s n + d and
    (s ^ h_d) n + d among n 2^r slots, 2^r cosets.

    Rows. The base row of d sets both darts of the orbit of each edge that
    shares a k-cycle with (0, d) (``_neighbourhoods``): by the
    automorphisms, the row of the orbit of (0, d). A dart of that orbit
    itself raises InternalError. For W of distance at least k/2 + 1 it
    cannot occur, as a translate of an edge by w in W differs from it in
    |w \\ {d}| + 1 >= k/2 + 1 span coordinates (``_conflicts``), and then a
    proper coloring of G/W lifts to one of G. XOR by a vertex of rank t
    maps dart s n + e to (s ^ t) n + e (syn is linear), moving each n-bit
    block s to block s ^ t whole, and so takes the base row of d to the
    row of orbit (min(t, t ^ h_d), d). XOR by 2^j swaps the blocks s and
    s ^ 2^j: (a & M_j) << n 2^j | (a >> n 2^j) & M_j, M_j the blocks with
    bit j clear. The ranks are walked in Gray-code order, i ^ i >> 1, which
    at step i flips the lowest set bit of i: one swap per row a step.

    Node order. Orbit (s, d) owns the lower dart, s n + d: the top bit of
    h_d is clear in s. The translations act transitively on the orbits of
    one direction, so the degree depends on d only, and the nodes are the
    orbits in (-degree, s, d) order: each row is compressed
    (``_compress_steps``) to the lower darts of each degree in turn,
    highest first, and the pieces are concatenated. Within one degree this
    is the order in which the orbits first appear in ``enumerate_edges``
    order: each word z of the two cosets of orbit (s, d) is an end of its
    edge (z, d), so the orbit's least bottom is the least word of the two
    cosets, that of coset s, as the least words of the cosets are in rank
    order. For W = {0}, syn[x] = x, the orbits are the edges, key for key,
    all of one degree, in ``enumerate_edges`` order. The finished rows are
    checked in that order once (``_check_degree_order``).
    """
    h = [syn[1 << d] for d in range(n)]
    top = [c.bit_length() - 1 for c in h]
    bits = max(h).bit_length()  # 2^bits coset ranks, spanned by the h_d
    width = n << bits
    rows = []
    for d, near in enumerate(_neighbourhoods(n, half, deadline)):
        darts = bytearray(width + 7 >> 3)
        for y, _, e in near:
            s = syn[y]
            for slot in (s * n + e, (s ^ h[e]) * n + e):
                darts[slot >> 3] |= 1 << (slot & 7)
        row = int.from_bytes(darts, "little")
        if row >> d & 1 or row >> h[d] * n + d & 1:
            raise InternalError(f"edge (0, {d + 1}) shares a k-cycle with its orbit")
        rows.append(row)
    # M_j holds the low 2^j blocks of every 2^(j+1): P = n 2^(j+1) divides
    # the width, so (2^width - 1) / (2^P - 1) has a one every P bits
    full = (1 << width) - 1
    swaps = [
        (n << j, full // ((1 << (n << j + 1)) - 1) * ((1 << (n << j)) - 1))
        for j in range(bits)
    ]
    ones = full // ((1 << n) - 1)  # the first slot of every block
    lower = sum(swaps[top[e]][1] & ones << e for e in range(n))
    degree = [(row & lower).bit_count() for row in rows]
    pieces = []  # (lower darts of one degree, compress steps, first node)
    keys: list[int] = []
    for value in sorted(set(degree), reverse=True):
        dirs = [d for d in range(n) if degree[d] == value]
        mask = lower & sum(ones << d for d in dirs)
        pieces.append((mask, _compress_steps(mask, width), len(keys)))
        keys += [
            s << 5 | d for s in range(1 << bits) for d in dirs if not s >> top[d] & 1
        ]
    by_key = [0] * (32 << bits)
    for i in range(1 << bits):
        if i % 64 == 63:
            _check_deadline(deadline, n)
        if i:
            shift, low = swaps[(i & -i).bit_length() - 1]
            rows = [(a & low) << shift | a >> shift & low for a in rows]
        t = i ^ i >> 1
        for d, row in enumerate(rows):
            if not t >> top[d] & 1:
                out = 0
                for mask, steps, offset in pieces:
                    piece = row & mask
                    for shift, move, stay in steps:
                        piece = piece & stay | (piece & move) >> shift
                    out |= piece << offset
                by_key[t << 5 | d] = out
    adj = tuple(map(by_key.__getitem__, keys))
    _check_degree_order(adj)
    return tuple(keys), adj


def _check_degree_order(adj: tuple[int, ...]) -> None:
    """Raise InternalError unless the nodes come in (-degree, index) order,
    the order ``_try_color`` and ``_greedy_clique`` rely on: no row has
    more neighbours than the row before it. ``_orbit_graph`` checks each
    graph it builds once, so the searches on it need not."""
    degree = [row.bit_count() for row in adj]
    if degree != sorted(degree, reverse=True):
        raise InternalError("nodes are not in (-degree, index) order")


def _greedy_clique(adj: tuple[int, ...]) -> list[int]:
    """A clique taken greedily over the nodes in their given order, which
    for every graph built here is (-degree, index) order."""
    clique: list[int] = []
    mask = (1 << len(adj)) - 1
    for i, row in enumerate(adj):
        if mask >> i & 1:
            clique.append(i)
            mask &= row
    return clique


def _try_color(
    adj: tuple[int, ...],
    limit: int,
    clique: list[int],
    deadline: Optional[float],
) -> Optional[list[int]]:
    """A proper coloring with at most ``limit`` colors, or None.

    DSATUR search on an explicit stack: the ``clique`` nodes are the first
    picks, node ``clique[j]`` with color j, and are never uncolored; then
    each step colors the uncolored node with the most distinct neighbour
    colors (its saturation), ties to higher degree then lower index, with
    its lowest allowed color at most one above the largest in use, and
    backtracks when none is left. With ``limit = len(adj)`` and no clique
    its first descent never backtracks: the DSATUR greedy coloring.

    Nothing is rescanned per node. The nodes must come in (-degree, index)
    order, as ``_orbit_graph`` emits them and checks once per graph
    (``_check_degree_order``), so the pick below meets the tie-break.
    Every set below is a bitmask over nodes:
    ``blocked[c]`` holds the nodes with a neighbour of color c, and
    ``level[s]`` the uncolored nodes of saturation s, so the pick is the
    lowest bit of the highest non-empty level. Coloring a node with c moves
    its uncolored neighbours outside ``blocked[c]`` (``touched``) up one
    level; uncoloring it moves them back. The stack uncolors every node
    colored after a node before that node, so colored nodes need no
    updates. Pick j of the clique sits on level j, as it sees colors 0 to
    j - 1, and takes color j at the first test of the color scan: no node
    has that color yet, and with j colors in use it is allowed.
    """
    m = len(adj)
    if len(clique) > limit:
        return None
    blocked = [0] * min(limit, m)
    free = (1 << m) - 1  # uncolored nodes
    level = [0] * (min(limit, m) + 2)  # a spare one for ``top += 1``
    level[0] = free
    top = 0  # no non-empty level lies above it
    stack = []  # (node bit, color, used before it, nodes it touched, its level)
    used = 0
    while len(stack) < m:
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetError("chromatic search timed out", kind="timeout")
        while not level[top]:
            top -= 1
        if len(stack) < len(clique):
            sat = c = len(stack)
            bit = 1 << clique[c]
        else:
            sat, c = top, 0
            bit = level[top] & -level[top]
        level[sat] ^= bit
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
            if len(stack) == len(clique):
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
        touched = rest = adj[bit.bit_length() - 1] & free & ~blocked[c]
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
    for bit, c, *_ in stack:
        colors[bit.bit_length() - 1] = c
    return colors


def _lexicode(n: int, dist: int, deadline: Optional[float]) -> list[int]:
    """The lexicode of length n and minimum distance ``dist``: the words
    0, 1, ..., 2^n - 1 in turn, each kept when no word kept before it lies
    within distance dist - 1 (Conway and Sloane, IEEE Trans. IT 32, 1986,
    prove the result linear). ``covered`` marks the words inside those
    balls; the deadline is checked every 1,024 words."""
    ball = [
        sum(1 << c for c in coords)
        for r in range(min(dist, n + 1))
        for coords in combinations(range(n), r)
    ]
    covered = bytearray(1 << n)
    code = []
    for x in range(1 << n):
        if x % 1024 == 1023:
            _check_deadline(deadline, n)
        if not covered[x]:
            code.append(x)
            for y in ball:
                covered[x ^ y] = 1
    return code


def _syndromes(n: int, code: list[int]) -> list[int]:
    """The coset rank of every word x of length n under the linear code W
    whose words are ``code``: syn[x] is the rank of min(x ^ W) among the
    least words of the cosets, which the scan meets in ascending order.

    syn is linear. Call the top bits of the nonzero words of W pivots. A
    word with no pivot set is the least of its coset, as any other word
    of the coset differs from it by a nonzero word of W, so agrees with it
    above that word's top bit, a pivot, and has that bit set. Clearing the
    pivots of x from the top down with words of W reaches such a word, so
    the least words are the words with no pivot set: they are closed under
    XOR, so x -> min(x ^ W) is linear, and their ranks are their other
    bits packed in order, a linear map too. W = {0} gives syn[x] = x.
    """
    syn = [-1] * (1 << n)
    rank = 0
    for x in range(1 << n):
        if syn[x] < 0:
            for w in code:
                syn[x ^ w] = rank
            rank += 1
    return syn


def _lift(graph: ConflictGraph, orbit: list[int], qcolors: list[int]) -> list[int]:
    """The coloring of the conflict graph that gives node i the color of
    its orbit ``orbit[i]`` in ``qcolors``, checked proper against
    ``graph.adj``, one mask per color; a failure raises InternalError."""
    colors = [qcolors[o] for o in orbit]
    classes = [0] * (max(colors) + 1)
    for i, c in enumerate(colors):
        classes[c] |= 1 << i
    if any(adj & classes[c] for adj, c in zip(graph.adj, colors)):
        raise InternalError("a coloring lifted from G/W is not proper")
    return colors


def _code_quotient_coloring(
    graph: ConflictGraph, target: int, upper: int, deadline: Optional[float]
) -> Optional[list[int]]:
    """A proper coloring of the conflict graph G with fewer than ``upper``
    colors, lifted from its orbit graph G/W (``_orbit_graph``), or None
    when W = {0} or no such coloring of G/W is found.

    W is the lexicode of length n and minimum distance k/2 + 1. G/W gets
    its DSATUR greedy coloring and then a ``_try_color``, seeded with its
    greedy clique, at each limit from ``target``, or the clique size if
    larger (no coloring has fewer colors), up to one below the greedy
    count or ``upper``, whichever is less; the first coloring found is
    kept, and a search that runs out of time keeps the best one so far.
    Each coloring kept is lifted (``_lift``; edge (x, d) lies in orbit
    min(syn[x], syn[x] ^ h_d) << 5 | d) when it is found, so a search cut
    off by the deadline leaves no work behind it. Since G/W has |W| times
    fewer nodes than G, those searches are often short where the one on G
    is not: with the shortened Hamming codes the lexicode gives at k = 4,
    G/W has an n-coloring for n = 6, 7, 9 and 11, and at n = 8 a
    9-coloring.
    """
    n = graph.n
    code = _lexicode(n, graph.k // 2 + 1, deadline)
    if len(code) == 1:
        return None
    syn = _syndromes(n, code)
    keys, qadj = _orbit_graph(n, graph.k // 2, syn, deadline)
    index = {key: i for i, key in enumerate(keys)}
    orbit = []
    for key in graph.keys:
        s, d = syn[key >> 5], key & 31
        orbit.append(index[min(s, s ^ syn[1 << d]) << 5 | d])
    qcolors = _try_color(qadj, len(qadj), [], deadline)
    colors = _lift(graph, orbit, qcolors) if max(qcolors) + 1 < upper else None
    clique = _greedy_clique(qadj)
    try:
        for limit in range(max(target, len(clique)), min(max(qcolors) + 1, upper)):
            found = _try_color(qadj, limit, clique, deadline)
            if found is not None:
                colors = _lift(graph, orbit, found)
                break
    except BudgetError:
        pass  # the best coloring so far stands; the search on G times out next
    return colors


def exact_min_colors(
    n: int, k: int, time_limit: Optional[float] = None
) -> tuple[int, EdgeColoring]:
    """Chromatic number of the conflict graph plus an optimal coloring.

    Branch and bound: the clique-coclique lower bound of the greedy
    clique C (below; raised to the one-level edge count when n > k and
    k = 0 mod 4), the DSATUR greedy coloring as upper bound (the first
    descent of the search), then backtracking at each candidate count;
    ``_try_color`` keeps the uncolored nodes in one bitmask per saturation
    level, so no step rescans them.

    The clique-coclique bound is ceil(m / floor(m / |C|)) for the m nodes
    of G. G is vertex-transitive: Aut(Q_n) is transitive on edges and
    preserves spans, hence the conflicts of ``_conflicts``. In a
    vertex-transitive graph an independent set I and a clique C satisfy
    |I| |C| <= m: over the automorphisms s of a transitive group, every
    node lies in s(C) equally often, so the mean of |s(C) & I| is
    |C| |I| / m, and each term is at most 1. So alpha <= floor(m / |C|),
    and as each color class is independent, chi >= ceil(m / alpha) >=
    ceil(m / floor(m / |C|)). It closes (5, 8) at 40 and (6, 10) at 96.

    Where the greedy bound lies above the lower bound, so that the
    backtracking would start, a coloring lifted from the orbit graph under
    a lexicode (``_code_quotient_coloring``) is tried first and becomes
    the upper bound when it uses fewer colors; instances the greedy
    coloring closes never build it. Both graphs come from one kernel,
    ``_orbit_graph``, in the node order the search takes. At k = 4 the
    seed meets the lower bound n of f(n, 4) = n for n > 5 (Faudree,
    Gyarfas, Lesniak and Schelp):
    (6, 4) closes with no search on the conflict graph, and (7, 4),
    (9, 4) and (11, 4) close within 1.3 s. (8, 4) still times out,
    with bounds [8, 9], where the greedy coloring alone gave 11; the
    extended Hamming code, whose quotient has an 8-coloring, is not tried.

    ``time_limit`` is a finite number of seconds (not a bool), at least 0,
    ``EXACT_TIME_LIMIT`` when not given; it covers the conflict graph
    (clock read every 64 bottoms), the greedy coloring and search
    (per node) and the seed (every 64 coset ranks, then per node). On
    timeout raises BudgetError
    with certified (lower, upper) bounds; before the greedy coloring
    completes the upper bound is the edge count. The only size refusal
    is the adjacency cap of ``conflict_graph``.
    """
    _check_dim(n)
    _check_k(n, k)
    if time_limit is not None and not (
        isinstance(time_limit, Real)
        and not isinstance(time_limit, bool)
        and 0 <= time_limit < math.inf
    ):
        raise UsageError(f"time limit must be finite and >= 0, got {time_limit!r}")
    deadline = time.monotonic() + (
        EXACT_TIME_LIMIT if time_limit is None else time_limit
    )
    graph = conflict_graph(n, k, deadline=deadline)

    clique = _greedy_clique(graph.adj)
    m = len(graph.adj)
    target = math.ceil(m / (m // len(clique)))  # at least len(clique)
    if k % 4 == 0 and n > k:
        target = max(target, count_level_edges(n, k // 4))
    upper = m
    try:
        best_assign = _try_color(graph.adj, upper, [], deadline)
        upper = max(best_assign) + 1
        if target < upper:
            seed = _code_quotient_coloring(graph, target, upper, deadline)
            if seed is not None:
                best_assign, upper = seed, max(seed) + 1
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

    table = {key: (c, 0) for key, c in zip(graph.keys, best_assign)}
    return upper, EdgeColoring(n, k, "explicit", {}, table)


def lower_bound_clique(n: int, k: int) -> tuple[int, BoundCertificate]:
    """Edge count of level k/4 with a witness k-cycle for every pair.

    Every two edges on level k/4 lie in a common k-cycle when n > k, so
    all of them need distinct colors in any k-rainbow coloring. The
    certificate lists the level's edges in ``enumerate_edges`` order and
    maps each pair (e1, e2), e1 first in that order, to the cycle
    ``build_cycle_same_level(n, k, e1, e2)`` returns.

    Each witness comes from ``hypercube._span_cycle`` on the pair's int
    keys, as in ``build_cycle_same_level``. Two bottoms of k/4 - 1 ones
    differ in at most k/2 - 2 coordinates, so with the two directions a
    pair spans at most k/2, and n > k, so the router applies. Each
    witness is checked once: length k, the rules of ``cycle_problem``,
    and both edge keys of the pair among its edges. The pairs come in
    chunks of ``WITNESS_CHUNK``, and ``_lanes_hold`` checks a chunk at
    once, one 64-bit lane per witness. A chunk it does not pass goes
    through the scalar walk on int keys (``hypercube._witness_problem``,
    the check of ``build_cycle_same_level``), whose first failing pair
    is an InternalError.

    No witness is kept: the certificate's ``witnesses`` (``_Witnesses``)
    builds and checks a pair's witness again each time it is read.

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
    ones = combinations(range(n), level - 1)
    bottoms = sorted(sum(1 << c for c in cs) for cs in ones)
    edges = tuple(
        Edge(b, d) for b in bottoms for d in range(1, n + 1) if not b >> d - 1 & 1
    )
    if len(edges) != expected:
        raise InternalError(
            f"level {level} edge scan found {len(edges)}, expected {expected}"
        )
    key_pairs = combinations([e.key() for e in edges], 2)
    while chunk := list(islice(key_pairs, WITNESS_CHUNK)):
        cycs = [_span_cycle(n, k, a, b) for a, b in chunk]
        if not _lanes_hold(n, k, chunk, cycs):
            for (a, b), cyc in zip(chunk, cycs):
                if _witness_problem(n, k, cyc, a, b):
                    e1, e2 = (Edge(c >> 5, (c & 31) + 1) for c in (a, b))
                    raise InternalError(f"witness for {e1} and {e2} failed validation")
    return expected, BoundCertificate(level, edges, _Witnesses(n, k, edges))


class _Witnesses(Mapping):
    """The witnesses of a level certificate as a rule: the pairs of
    ``edges``, e1 first, in ``combinations`` order, each mapped to the
    cycle ``_span_cycle`` routes for it, checked by ``_witness_problem``
    on every access. Any other key is missing."""

    def __init__(self, n: int, k: int, edges: tuple[Edge, ...]):
        self._n, self._k = n, k
        # edges come in enumerate_edges order, which is ascending key order
        self._keys = {e: e.key() for e in edges}

    def __iter__(self):
        return combinations(self._keys, 2)

    def __len__(self) -> int:
        return math.comb(len(self._keys), 2)

    def __getitem__(self, pair) -> tuple:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            raise KeyError(pair)
        e1, e2 = pair
        a, b = self._keys.get(e1), self._keys.get(e2)
        if a is None or b is None or a >= b:
            raise KeyError(pair)
        n, k = self._n, self._k
        cyc = _span_cycle(n, k, a, b)
        if _witness_problem(n, k, cyc, a, b):
            raise InternalError(f"witness for {e1} and {e2} failed validation")
        return cyc


def _lanes_hold(n: int, k: int, pairs: list, cycs: list) -> bool:
    """Whether every ``cycs[j]`` is a valid canonical k-cycle of Q_n through
    both edges of the key pair ``pairs[j]``: the check of
    ``_witness_problem``, for a whole chunk at once. False only sends the chunk to that scalar walk, which names the
    first failing pair.

    Broadword lane tests (Knuth, TAOCP 7.1.3). Vertex column i packs into
    one int Vi with a 64-bit lane per witness. Let L be the lane ones and
    H = L << n the guard bits. Once every vertex lies in [0, 2^n), a lane
    of X | H is 2^n + x, so (X | H) - L keeps the guard of exactly the
    lanes with x >= 1, and no subtraction below borrows across a lane.
    The rules, in the terms of ``_cycle_keys_or_problem``:

    - length k, and range: packing refuses a vertex outside [0, 2^64),
      and no lane may hold a bit at n or above;
    - distinct: Vi ^ Vj has no zero lane, for every i < j;
    - adjacent: each step Si = Vi ^ Vi+1 (indices mod k) has at most one
      bit per lane, S & ((S | H) - L) == 0, and at least one as its ends
      are distinct;
    - canonical: (Vi | H) - V0 keeps every guard (v0 is the minimum), and
      so does (Vk-1 | H) - V1 - L (v1 < vk-1);
    - both edges: edge i is (x, d) exactly when the lane of
      ((Vi & Vi+1) ^ X) | (Si ^ D) is zero, for X the bottoms and D the
      direction bits of one side of the pairs; for each side, every lane
      must see a zero.
    """
    if set(map(len, cycs)) != {k}:
        return False

    def pack(col) -> int:
        return int.from_bytes(array("Q", col).tobytes(), "little")

    try:
        v = [pack(col) for col in zip(*cycs)]
    except OverflowError:
        return False
    lanes = pack([1] * len(cycs))
    guard = lanes << n
    low = guard - lanes
    if reduce(or_, v) & ~low:
        return False
    nxt = v[1:] + v[:1]
    step = [u ^ w for u, w in zip(v, nxt)]
    if any(s & (s | guard) - lanes for s in step):
        return False
    kept = guard  # ANDs the results that keep their guards when a rule holds
    for u, w in combinations(v, 2):
        kept &= (u ^ w | guard) - lanes
    for u in v[1:]:
        kept &= (u | guard) - v[0]
    kept &= (v[-1] | guard) - v[1] - lanes
    if kept & guard != guard:
        return False
    bottoms = [u & w for u, w in zip(v, nxt)]
    for side in zip(*pairs):
        x = pack(side) >> 5 & low
        d = pack([1 << (c & 31) for c in side])
        missed = guard
        for b, s in zip(bottoms, step):
            missed &= (b ^ x | s ^ d | guard) - lanes
        if missed & guard:
            return False
    return True
