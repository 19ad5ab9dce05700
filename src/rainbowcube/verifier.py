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
neighbourhoods, with an upper bound lifted from its quotient by a code.
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
    _check_cycle_length,
    _check_dim,
    _cycle_keys_or_problem,
    _pair_cycle,
    _span_cycle,
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

    ``keys[i]`` is the int key of node i, in ``enumerate_edges`` order;
    ``adj[i]`` is a bitmask over node indices.
    """

    n: int
    k: int
    keys: tuple[int, ...]
    adj: tuple[int, ...]


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
    ``EXACT_TIME_LIMIT`` seconds from the call, with the clock read every
    64 bottoms.

    Every row is a translate of one of n base rows, those of the edges
    (0, d), from ``_neighbourhoods``. Rows are built over n 2^n slots, the
    darts: slot y n + e is vertex y with direction e (0-based), and edge
    (x, e) has the two darts x n + e and (x ^ 2^e) n + e. The base row of
    d sets both darts of every edge sharing a k-cycle with (0, d).

    Translation. XOR by b maps vertices to vertices, edges to edges and
    k-cycles to k-cycles, so it is an automorphism of the conflict graph,
    and it maps (0, d) to (b, d) when bit d of b is clear: the neighbours of
    (b, d) are the images of those of (0, d). It maps dart y n + e to
    (y ^ b) n + e, so it moves each n-bit block y of a row to block y ^ b
    whole, and, as it maps the two darts of an edge to the two darts of its
    image, the base row moved so holds both darts of every neighbour of
    (b, d). XOR by b is XOR by each bit 2^j of b in turn, and XOR by 2^j
    swaps the blocks y and y ^ 2^j, n 2^j bits apart: one masked swap
    (a & M_j) << n 2^j | (a >> n 2^j) & M_j, M_j the blocks with bit j
    clear. The bottoms are walked in Gray-code order, i ^ i >> 1, which at
    step i flips the lowest set bit of i, so one swap per direction moves
    the n translated rows on to the next bottom.

    Compression. Slot x n + e is the lower dart x of an edge exactly when
    bit e of x is clear, and these edge slots, in ascending order, run
    through x ascending and then e ascending: the ``enumerate_edges`` order
    of ``keys``. So the i-th edge slot is node i, and compressing a
    translated row to its edge slots, in order (``_compress_steps``), gives
    its adjacency over node indices.
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
    width = n << n
    rows = []
    for near in _neighbourhoods(n, k // 2, deadline):
        darts = bytearray(width + 7 >> 3)
        for y, _, e in near:
            for slot in (y * n + e, (y ^ 1 << e) * n + e):
                darts[slot >> 3] |= 1 << (slot & 7)
        rows.append(int.from_bytes(darts, "little"))
    # M_j holds the low 2^j blocks of every 2^(j+1): P = n 2^(j+1) divides
    # the width, so (2^width - 1) / (2^P - 1) has a one every P bits
    full = (1 << width) - 1
    swaps = [
        (n << j, full // ((1 << (n << j + 1)) - 1) * ((1 << (n << j)) - 1))
        for j in range(n)
    ]
    edge_slots = sum(((1 << n) - 1 ^ x) << x * n for x in range(1 << n))
    steps = _compress_steps(edge_slots, width)
    by_bottom: list[list[int]] = [[] for _ in range(1 << n)]
    for i in range(1 << n):
        if i % 64 == 63:
            _check_deadline(deadline, n)
        if i:
            shift, low = swaps[(i & -i).bit_length() - 1]
            rows = [(a & low) << shift | a >> shift & low for a in rows]
        b = i ^ i >> 1
        for d, row in enumerate(rows):
            if not b >> d & 1:
                row &= edge_slots
                for shift, move, stay in steps:
                    row = row & stay | (row & move) >> shift
                by_bottom[b].append(row)
    keys = tuple(b << 5 | d for b in range(1 << n) for d in range(n) if not b >> d & 1)
    return ConflictGraph(n, k, keys, tuple(row for at in by_bottom for row in at))


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

    Nothing is rescanned per node. The nodes are labelled in
    (-degree, index) order and every set below is a bitmask over labels:
    ``blocked[c]`` holds the nodes with a neighbour of color c, and
    ``level[s]`` the uncolored nodes of saturation s, so the pick is the
    lowest bit of the highest non-empty level. Coloring a node with c moves
    its uncolored neighbours outside ``blocked[c]`` (``touched``) up one
    level; uncoloring it moves them back. The stack uncolors every node
    colored after a node before that node, so colored nodes need no
    updates. The clique's colors fill the levels the same way, one move
    per color and level.

    Where the label order is the identity, as on every conflict graph,
    which is regular (XOR translations and coordinate permutations act
    transitively on the edges of Q_n and keep k-cycles), the labels are
    the indices and ``adj`` is used as it is. Otherwise, as on a quotient
    graph, the rows are relabelled once, with the clock read per row.
    """
    m = len(adj)
    if len(clique) > limit:
        return None
    order = sorted(range(m), key=lambda i: (-adj[i].bit_count(), i))
    label = order  # the identity, its own inverse, unless relabelled below
    nbrs = adj  # neighbour mask of each label
    if order != list(range(m)):
        label = [0] * m
        for p, i in enumerate(order):
            label[i] = p
        nbrs = []
        for i in order:
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetError("chromatic search timed out", kind="timeout")
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
    level[0] = free
    for c in range(len(clique)):  # color c lifts the nodes it blocks
        rest, s = blocked[c] & free, c
        while rest:  # top down, so nothing moves twice
            moved = level[s] & rest
            level[s] ^= moved
            level[s + 1] |= moved
            rest ^= moved
            s -= 1
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


def _code_quotient(
    graph: ConflictGraph, code: list[int], deadline: Optional[float]
) -> tuple[tuple[int, ...], list[int]]:
    """The orbit graph G/W of the conflict graph G under a linear code W of
    minimum distance at least k/2 + 1, as (adjacency over orbits, orbit
    index of each node of G).

    The orbit of edge key (x, d) is {((x ^ w) & ~bit_d, d) : w in W}, the
    images of the edge under the vertex maps v -> v ^ w. Each such map
    keeps k-cycles k-cycles, so it is an automorphism of G; W is closed
    under XOR, so the orbits partition the nodes and two orbits are
    adjacent exactly when one member of the first, its representative, is
    adjacent to some member of the second. A translate by w != 0 differs
    from its edge in the span coordinates w minus {d}, and the direction
    d adds one more: |w \\ {d}| + 1 >= |w| >= k/2 + 1, so by
    ``_conflicts`` it does not share a k-cycle with the edge, and by the
    automorphisms no two members of one orbit do. Hence a proper coloring
    of G/W, lifted to the nodes, is a proper coloring of G. A
    representative adjacent to a member of its own orbit raises
    InternalError. The deadline is checked once per orbit in each pass.
    """
    index = {key: i for i, key in enumerate(graph.keys)}
    orbit = [-1] * len(graph.keys)
    reps = []
    for i, key in enumerate(graph.keys):
        if orbit[i] >= 0:
            continue
        _check_deadline(deadline, graph.n)
        x, d = key >> 5, key & 31
        clear = ~(1 << d)
        members = 0
        for w in code:
            j = index[((x ^ w) & clear) << 5 | d]
            orbit[j] = len(reps)
            members |= 1 << j
        if graph.adj[i] & members:
            raise InternalError(f"edge key {key:#x} shares a k-cycle with its orbit")
        reps.append(i)
    qadj = []
    for i in reps:
        _check_deadline(deadline, graph.n)
        mask, near = graph.adj[i], 0
        while mask:
            low = mask & -mask
            near |= 1 << orbit[low.bit_length() - 1]
            mask ^= low
        qadj.append(near)
    return tuple(qadj), orbit


def _code_quotient_coloring(
    graph: ConflictGraph, target: int, deadline: Optional[float]
) -> Optional[list[int]]:
    """A proper coloring of the conflict graph G lifted from its orbit
    graph G/W (``_code_quotient``), or None when W = {0}.

    W is the lexicode of length n and minimum distance k/2 + 1. G/W gets
    its DSATUR greedy coloring and then a ``_try_color``, seeded with its
    greedy clique, at each limit from ``target``, or the clique size if
    larger (no coloring has fewer colors), up to one below the greedy
    count; the first coloring found is kept, and a search that
    runs out of time keeps the best one so far. Since G/W has |W| times
    fewer nodes than G, those searches are often short where the one on
    G is not: with the shortened Hamming codes the lexicode gives at
    k = 4, G/W has an n-coloring for n = 6, 7, 9 and 11, and at n = 8
    a 9-coloring. The lifted coloring is checked proper against
    ``graph.adj``, one mask per color, and a failure raises InternalError.
    """
    code = _lexicode(graph.n, graph.k // 2 + 1, deadline)
    if len(code) == 1:
        return None
    qadj, orbit = _code_quotient(graph, code, deadline)
    qcolors = _try_color(qadj, len(qadj), [], deadline)
    clique = _greedy_clique(qadj)
    try:
        for limit in range(max(target, len(clique)), max(qcolors) + 1):
            found = _try_color(qadj, limit, clique, deadline)
            if found is not None:
                qcolors = found
                break
    except BudgetError:
        pass  # the best coloring so far stands; the search on G times out next
    colors = [qcolors[o] for o in orbit]
    classes = [0] * (max(colors) + 1)
    for i, c in enumerate(colors):
        classes[c] |= 1 << i
    if any(adj & classes[c] for adj, c in zip(graph.adj, colors)):
        raise InternalError("a coloring lifted from G/W is not proper")
    return colors


def exact_min_colors(
    n: int, k: int, time_limit: Optional[float] = None
) -> tuple[int, EdgeColoring]:
    """Chromatic number of the conflict graph plus an optimal coloring.

    Branch and bound: greedy clique lower bound (seeded by the one-level
    edge count when n > k and k = 0 mod 4), the DSATUR greedy coloring as
    upper bound (the first descent of the search), then backtracking at
    each candidate count; ``_try_color`` keeps the uncolored nodes in one
    bitmask per saturation level, so no step rescans them.

    Where the greedy bound lies above the lower bound, so that the
    backtracking would start, a coloring lifted from the orbit graph under
    a lexicode (``_code_quotient_coloring``) is tried first and becomes
    the upper bound when it uses fewer colors; instances the greedy
    coloring closes never build it. At k = 4 it meets the lower bound
    n of f(n, 4) = n for n > 5 (Faudree, Gyarfas, Lesniak and Schelp):
    (6, 4) closes with no search on the conflict graph, and (7, 4),
    (9, 4) and (11, 4) close within 1.3 s. (8, 4) still times out,
    with bounds [8, 9], where the greedy coloring alone gave 11; the
    extended Hamming code, whose quotient has an 8-coloring, is not tried.

    ``time_limit`` is a finite number of seconds, at least 0,
    ``EXACT_TIME_LIMIT`` when not given; it covers the conflict graph
    (clock read every 64 bottoms), the greedy coloring and search
    (per node) and the seed (per orbit). On timeout raises BudgetError
    with certified (lower, upper) bounds; before the greedy coloring
    completes the upper bound is the edge count. The only size refusal
    is the adjacency cap of ``conflict_graph``.
    """
    _check_dim(n)
    _check_k(n, k)
    if time_limit is not None and not 0 <= time_limit < math.inf:
        raise UsageError(f"time limit must be finite and >= 0, got {time_limit!r}")
    deadline = time.monotonic() + (
        EXACT_TIME_LIMIT if time_limit is None else time_limit
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
        if target < upper:
            seed = _code_quotient_coloring(graph, target, deadline)
            if seed is not None and max(seed) + 1 < upper:
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
    witness is checked once: the rules of ``cycle_problem`` and both edge
    keys of the pair among its edges, in one walk on int keys. A failure
    is an InternalError.

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
    witnesses = {}
    for (e1, a), (e2, b) in combinations([(e, e.key()) for e in edges], 2):
        cyc = _span_cycle(n, k, a, b)
        keys, problem = _cycle_keys_or_problem(n, cyc)
        if problem or a not in keys or b not in keys:
            raise InternalError(f"witness for {e1} and {e2} failed validation")
        witnesses[(e1, e2)] = cyc
    return expected, BoundCertificate(level, edges, witnesses)
