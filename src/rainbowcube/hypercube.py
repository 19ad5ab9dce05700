"""Bitmask model of the n-dimensional hypercube graph Q_n.

Vertices are ints in [0, 2**n); bit i-1 encodes coordinate i, so a vertex
doubles as a subset of {1, ..., n}. Directions are 1-based throughout. An
edge is identified by its bottom vertex (the endpoint with the direction
bit clear) and its direction index; the top vertex has that bit set. An
edge whose bottom vertex has j ones sits on level j + 1.

Color tables and conflict graphs key edges by the dense int
``bottom << 5 | dir - 1`` (five bits hold a direction up to MAX_DIM).
``edge_key`` builds it, and ``_cycle_keys_or_problem`` for the edges of a
cycle; ``cli.load_coloring`` builds it inline, once per record of a
coloring file, and so does ``EdgeColoring.key_table``, once per edge of a
scheme coloring. ``EdgeColoring`` reads it inline: its constructor, once
per key, to check that an explicit table holds the edges of Q_n, and
``_rows``, to turn a key back into (bottom, direction). Both pair
kernels take two keys and rest on their span, the coordinates where the
bottoms differ plus both directions: ``_pair_cycle``, one depth-first
loop, searches from the starts it allows (``_pair_starts``), and
``_span_cycle``, the one router, joins two edges of span at most k/2 into
a k-cycle for n >= k/2, the witnesses of ``build_cycle_same_level`` and
``verifier.lower_bound_clique``.

Cycles are canonical vertex tuples: the minimum vertex comes first and the
orientation is chosen so the second vertex is smaller than the last. Cycle
enumeration is a depth-first search from each vertex in ascending order,
as the minimum vertex, pruned by the Hamming distance back to the start;
the start/orientation rule makes every cycle appear exactly once, in a
deterministic order. Both cycle searches walk an explicit stack, so their
depth is not bounded by the interpreter's recursion limit, and keep the
vertices of the current path in one set, so their memory does not grow
with 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb
from operator import xor
from typing import Iterator, Optional

from .errors import InternalError, UsageError

MAX_DIM = 32

Cycle = tuple  # canonical vertex tuple


def _check_dim(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise UsageError(f"dimension must be an int, got {n!r}")
    if not 1 <= n <= MAX_DIM:
        raise UsageError(f"dimension must be in [1, {MAX_DIM}], got {n}")


def _check_cycle_length(n: int, k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool):
        raise UsageError(f"cycle length must be an int, got {k!r}")
    if k < 4 or k > 1 << n:
        raise UsageError(f"cycle length must be in [4, 2^{n}], got {k}")


@dataclass(frozen=True, order=True)
class Edge:
    """Edge of Q_n, stored as (bottom vertex, 1-based direction)."""

    bottom: int
    dir: int

    def __post_init__(self):
        if not 1 <= self.dir <= MAX_DIM:
            raise UsageError(f"direction must be in [1, {MAX_DIM}], got {self.dir}")
        if self.bottom < 0:
            raise UsageError(f"bottom vertex must be >= 0, got {self.bottom}")
        if self.bottom >> (self.dir - 1) & 1:
            raise UsageError(
                f"direction bit {self.dir} already set in bottom {self.bottom:#x}"
            )

    @property
    def top(self) -> int:
        return self.bottom | 1 << (self.dir - 1)

    def key(self) -> int:
        """Dense int key; cheaper dict key than the dataclass itself."""
        return edge_key(self.bottom, self.dir)


def edge_key(bottom: int, dir: int) -> int:
    """Dense int key of the edge (bottom, dir); see the module docstring."""
    return bottom << 5 | dir - 1


def validate_edge(n: int, e: Edge) -> None:
    """Check that ``e`` fits inside Q_n."""
    _check_dim(n)
    if not isinstance(e, Edge):
        raise UsageError(f"expected an Edge, got {e!r}")
    if e.dir > n:
        raise UsageError(f"direction {e.dir} out of range for Q_{n}")
    if e.bottom >> n:
        raise UsageError(f"bottom {e.bottom:#x} has bits above position {n}")


def edge_between(u: int, v: int) -> Edge:
    """The edge joining two adjacent vertices."""
    d = u ^ v
    if d == 0 or d & (d - 1):
        raise UsageError(f"vertices {u:#x} and {v:#x} are not adjacent")
    return Edge(u & v, d.bit_length())


def edge_level(e: Edge) -> int:
    """Level of an edge: popcount of the bottom vertex plus one."""
    return e.bottom.bit_count() + 1


def count_level_edges(n: int, level: int) -> int:
    """Number of edges of Q_n on the given level: C(n, l-1) * (n - l + 1)."""
    _check_dim(n)
    if not 1 <= level <= n:
        raise UsageError(f"level must be in [1, {n}], got {level}")
    return comb(n, level - 1) * (n - level + 1)


def enumerate_edges(n: int) -> Iterator[Edge]:
    """All n * 2^(n-1) edges, bottom ascending then direction ascending."""
    _check_dim(n)
    return _edge_gen(n)


def _edge_gen(n: int) -> Iterator[Edge]:
    for bottom in range(1 << n):
        for d in range(1, n + 1):
            if not bottom >> (d - 1) & 1:
                yield Edge(bottom, d)


def canonical_cycle(verts) -> Cycle:
    """Rotate to the minimum vertex, orient so second < last."""
    verts = tuple(verts)
    i = verts.index(min(verts))
    rot = verts[i:] + verts[:i]
    if len(rot) > 2 and rot[1] > rot[-1]:
        rot = rot[:1] + rot[:0:-1]
    return rot


def edges_of_cycle(verts) -> tuple[Edge, ...]:
    verts = tuple(verts)
    return tuple(
        edge_between(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))
    )


def cycle_problem(n: int, verts) -> Optional[str]:
    """Why ``verts`` is not a valid canonical cycle of Q_n, or None if it is.

    The checks run in this order: length even and at least 4, length at
    most 2^n, no repeated vertex, then along the walk each vertex inside
    Q_n and adjacent to the next, then canonical form. The first failure
    is reported.
    """
    _check_dim(n)
    return _cycle_keys_or_problem(n, tuple(verts))[1]


def _cycle_keys_or_problem(n: int, verts) -> tuple[Optional[list[int]], Optional[str]]:
    """``(keys, None)`` when the tuple ``verts`` is a valid canonical cycle
    of Q_n, with ``keys`` the edge keys in walk order (those of
    ``edges_of_cycle``), else ``(None, why)``: ``cycle_problem`` in one
    walk, for an ``n`` the caller has checked.

    A closed walk of single-bit steps uses every direction an even number
    of times (the steps XOR to v_0 ^ v_0 = 0), so that needs no check of
    its own. With distinct vertices the tuple is canonical exactly when
    the first vertex is the minimum and the second is below the last. The
    walk stops at the first vertex outside Q_n, if min/max finds one.
    """
    k = len(verts)
    if k < 4 or k % 2:
        return None, f"length {k} is not an even number >= 4"
    if k > 1 << n:
        return None, f"length {k} exceeds the vertex count of Q_{n}"
    if len(set(verts)) != k:
        return None, "repeated vertex"
    lo, end = min(verts), k
    if lo < 0 or max(verts) >> n:
        end = next(i for i, u in enumerate(verts) if not 0 <= u < 1 << n)
    keys = []
    u = verts[0]
    for w in (verts[1:] + verts[:1])[:end]:
        d = u ^ w
        if d == 0 or d & (d - 1):
            return None, f"vertices {u:#x} and {w:#x} not adjacent"
        keys.append((u & w) << 5 | d.bit_length() - 1)
        u = w
    if end < k:
        return None, f"vertex {verts[end]:#x} outside Q_{n}"
    if verts[0] != lo or verts[1] > verts[-1]:
        return None, "not in canonical form"
    return keys, None


def enumerate_cycles(n: int, k: int) -> Iterator[Cycle]:
    """Every k-cycle of Q_n exactly once, canonical, deterministic order:
    by ascending minimum vertex, so the cycles with one minimum vertex
    come as one run.

    Odd k yields nothing (Q_n is bipartite); k outside [4, 2^n] is an
    error.
    """
    _check_dim(n)
    _check_cycle_length(n, k)
    if k % 2:
        return iter(())
    return _cycle_gen(n, k)


def _cycle_gen(n: int, k: int) -> Iterator[Cycle]:
    bits = [1 << d for d in range(n)]
    onpath = set()
    add, discard = onpath.add, onpath.discard
    leaf = k - 1  # depth at which the only move left is closing to the start
    for start in range(1 << n):
        path = [start]
        nexts = [0]
        while path:
            v = path[-1]
            if len(path) - 1 == leaf:
                if (v ^ start).bit_count() == 1 and path[1] < v:
                    yield tuple(path)
                path.pop()
                nexts.pop()
                discard(v)
                continue
            d = nexts[-1]
            if d == n:
                path.pop()
                nexts.pop()
                discard(v)
                continue
            nexts[-1] = d + 1
            w = v ^ bits[d]
            if w <= start or w in onpath:
                continue
            if (w ^ start).bit_count() > leaf - (len(path) - 1):
                continue
            add(w)
            path.append(w)
            nexts.append(0)


def cycles_containing_pair(
    n: int, k: int, e1: Edge, e2: Edge
) -> tuple[bool, Optional[Cycle]]:
    """Whether some k-cycle of Q_n contains both edges.

    Returns (exists, witness); the witness is the canonically smallest
    such cycle. The minimum vertices the span allows (``_pair_starts``)
    are tried in ascending order, and from each a depth-first search
    steps to the neighbours in ascending order, so the first cycle it
    closes is the answer. The search stops there, so its cost does not
    grow with the number of cycles through the pair.
    """
    _check_dim(n)
    _check_cycle_length(n, k)
    validate_edge(n, e1)
    validate_edge(n, e2)
    if e1 == e2:
        raise UsageError("edges must be distinct")
    if k % 2:
        return False, None
    cyc = _pair_cycle(n, k, e1.key(), e2.key())
    return cyc is not None, cyc


def _pair_cycle(n: int, k: int, a: int, b: int) -> Optional[Cycle]:
    """The smallest canonical k-cycle of Q_n through the distinct edges
    with keys ``a`` and ``b``, or None. Nothing is checked: the caller
    stands for an even k in [4, 2^n] and both edges inside Q_n.

    The minimum vertices the span allows (``_pair_starts``) are tried in
    ascending order. From each, ``start``, one depth-first loop walks an
    explicit stack, one entry per path vertex: the index of its next step
    and the mask of the edges still missing (bit 0 for ``a``, bit 1 for
    ``b``). The index runs over the down-steps, highest bit first, then
    the up-steps, lowest bit first, so neighbours come in ascending order
    and the first cycle closed is the smallest; its orientation is
    canonical, as the reverse walk is larger. From ``start`` only
    up-steps are tried, as every down-step leads below it. A step to w is
    pruned when w <= ``start`` or w is on the path; when it leaves an
    endpoint other than ``start`` of an edge it leaves missing (that
    endpoint is on the path now, so the edge can no longer be used); or
    when the shortest tour from w through the edges still missing and
    back to ``start`` (see ``tours``) is not shorter than ``left``, the
    steps of the cycle still to take from v. The vertices of the
    path are kept in one set, so the search holds O(k) of them whatever
    n is, and its depth is not bounded by the interpreter's stack.

    A path of k vertices closes without a test: the step to its last
    vertex w passed the prune at left = 2, so an entry (x, c) of its
    tours has |w ^ x| + c <= 1. Both edges missing gives c >= 2, pruned;
    only e1 missing gives x an endpoint of e1 other than ``start`` and
    c = 1 + |y ^ start| for the other endpoint y, so w = x, y = start and
    the closing edge is e1 (likewise e2); none missing gives the entry
    (start, 0), so w is adjacent to ``start``.
    """
    b1, b2 = a >> 5, b >> 5
    d1, d2 = 1 << (a & 31), 1 << (b & 31)
    span = b1 ^ b2 | d1 | d2
    e1, e2 = (b1, b1 | d1), (b2, b2 | d2)
    for start in _pair_starts(n, k // 2 - span.bit_count(), b1, span, min(b1, b2)):
        # (entry endpoint x, length c of the rest of the tour from x)
        rest1, rest2 = (
            [(x, 1 + (y ^ start).bit_count()) for x, y in (e, e[::-1]) if x != start]
            for e in (e1, e2)
        )
        via = [
            (x, 1 + min((y ^ z).bit_count() + c for z, c in rest))
            for e, rest in ((e1, rest2), (e2, rest1))
            if start not in e
            for x, y in (e, e[::-1])
        ]
        # tours[mask of the edges missing]: the tour from w is at least
        # min(|w ^ x| + c) over its (x, c); an empty list means none exists
        tours = ([(start, 0)], rest1, rest2, via)
        path, onpath, stack = [start], set(), [(n, 3)]
        while stack:
            v, (i, miss) = path[-1], stack[-1]
            left = k + 1 - len(path)
            ends = 0 if v == start else (v in e1) | (v in e2) << 1
            for i in range(i, 2 * n):
                d = n - 1 - i if i < n else i - n
                w = v ^ 1 << d
                if (w < v) != (i < n) or w <= start or w in onpath:
                    continue
                key = (v & w) << 5 | d
                m = miss & ~((key == a) | (key == b) << 1)
                if m & ends or not tours[m]:
                    continue
                if min((w ^ x).bit_count() + c for x, c in tours[m]) >= left:
                    continue
                stack[-1] = (i + 1, miss)
                stack.append((0, m))
                path.append(w)
                if len(path) == k:  # the prune at left = 2 proved it closes
                    return tuple(path)
                onpath.add(w)
                break
            else:
                stack.pop()
                onpath.discard(path.pop())
    return None


def _pair_starts(n: int, spare: int, x: int, span: int, top: int) -> Iterator[int]:
    """Ascending vertices s <= ``top`` that differ from ``x`` in at most
    ``spare`` coordinates outside ``span``, fixing the bits of s from the
    highest down, 0 before 1. For two edges of span S, x the first
    bottom, spare = k/2 - |S| and top the lesser bottom, they hold every
    minimum vertex of a k-cycle through both edges (none when spare < 0).

    Proof. The cycle flips each coordinate it uses an even number of
    times, so it uses at most k/2, S among them (the "only if" half of
    ``verifier._conflicts``); on the others its vertices all equal x.
    """

    def walk(bit: int, prefix: int, room: int) -> Iterator[int]:
        if not bit:
            yield prefix
            return
        for s in (prefix, prefix | bit):
            if s > top:
                return
            left = room - ((s ^ x) & bit & ~span != 0)
            if left >= 0:
                yield from walk(bit >> 1, s, left)

    return walk(1 << n - 1, 0, spare)


def build_cycle_same_level(n: int, k: int, e1: Edge, e2: Edge) -> Cycle:
    """Construct a k-cycle through two distinct edges on a common level.

    Needs n > k and even k; a pair with no shared endpoint also needs k
    divisible by 4 and bottoms with |v xor x| <= k/2 - 2. These refusals
    define the domain, which acceptance criterion 8c checks, though the
    router would route more: an incident pair spans its two directions
    and an accepted disjoint pair at most k/2 coordinates, so
    ``_span_cycle`` routes every pair accepted here.

    Every argument check above comes first. The constructed cycle is then
    checked by ``_witness_problem``: length k, the rules of
    ``cycle_problem``, and both edges among its edges; a failure is an
    InternalError.
    """
    _check_dim(n)
    _check_cycle_length(n, k)
    if k % 2:
        raise UsageError(f"cycle length must be even, got {k}")
    if n <= k:
        raise UsageError(f"construction needs n > k, got n={n}, k={k}")
    validate_edge(n, e1)
    validate_edge(n, e2)
    if e1 == e2:
        raise UsageError("edges must be distinct")
    if edge_level(e1) != edge_level(e2):
        raise UsageError(
            f"edges must sit on the same level, got {edge_level(e1)} and {edge_level(e2)}"
        )
    if not {e1.bottom, e1.top} & {e2.bottom, e2.top}:
        if k % 4:
            raise UsageError(
                "disjoint same-level edges need k divisible by 4 (path parity)"
            )
        if (e1.bottom ^ e2.bottom).bit_count() > k // 2 - 2:
            raise UsageError(
                "bottom vertices too far apart: need |v xor x| <= k/2 - 2"
            )

    cyc = _span_cycle(n, k, e1.key(), e2.key())
    problem = _witness_problem(n, k, cyc, e1.key(), e2.key())
    if problem is not None:
        raise InternalError(f"constructed cycle invalid: {problem}")
    return cyc


def _witness_problem(n: int, k: int, cyc, a: int, b: int) -> Optional[str]:
    """Why the tuple ``cyc`` is not a k-cycle witness for the edges with
    keys ``a`` and ``b``, or None if it is: its length must be k, it must
    pass ``_cycle_keys_or_problem`` for Q_n, and both keys must be among
    its edge keys, checked in that order."""
    if len(cyc) != k:
        return f"length {len(cyc)}, not {k}"
    keys, problem = _cycle_keys_or_problem(n, cyc)
    if problem is None and (a not in keys or b not in keys):
        return "misses a required edge"
    return problem


def _span_cycle(n: int, k: int, a: int, b: int) -> Cycle:
    """A canonical k-cycle of Q_n through the distinct edges with keys ``a``
    and ``b``, whose span (``verifier._conflicts``) has at most m = k/2
    coordinates. Nothing is checked: the caller stands for an even k,
    n >= m and both edges inside Q_n. The pair is routed as
    (min(a, b), max(a, b)), so the cycle depends only on the unordered
    pair.

    Let the edges be (x, d) and (y, e), P = x ^ y, Q = P less {d, e}, and
    R the m - |span| smallest coordinates outside the span (n >= m leaves
    that many). The cycle walks from x through the coordinate word W W,
    with W = (d, Q, e, R) if d is in P and (d, R, e, Q) if not; when
    d = e, through (d, P, d, R, P, R) instead. Each word has k letters.

    Proof. The vertex after t steps is x ^ s, with s the letters taken an
    odd number of times so far. With d != e, W holds m distinct letters,
    so W W closes; its sets s are the prefixes of W (which hold W's first
    letter, but for the empty one) and the nonempty proper suffixes (which
    lack it), each told apart by size, so the k vertices are distinct. The
    first step is the edge (x, d). If d is in P, the walk reaches
    x ^ d ^ Q, which is y or y ^ e, and then flips e; if not, the second
    pass flips e between x ^ Q ^ e and x ^ Q, one of which is y. With
    d = e, both bottoms lack d and differ, so P is nonempty and lacks d.
    The sets are {d} plus a prefix of P; P plus a prefix of R, which hold
    P's first letter; R plus a proper suffix of P, not empty; a nonempty
    proper suffix of R; and the empty set. The last three lack P's first
    letter, only the third holds R's first letter, and each group is told
    apart by size, so again the vertices are distinct. The steps on d are
    (x, d) and the one from x ^ d ^ P = y ^ d to y.
    """
    if a > b:
        a, b = b, a
    x, d, e = a >> 5, 1 << (a & 31), 1 << (b & 31)
    p = x ^ b >> 5
    span = p | d | e
    q, rest = [], p & ~(d | e)
    while rest:
        q.append(rest & -rest)
        rest &= rest - 1
    r, rest = [], ~span & (1 << n) - 1
    for _ in range(k // 2 - span.bit_count()):
        r.append(rest & -rest)
        rest &= rest - 1
    if d == e:
        word = [d, *q, d, *r, *q, *r]
    elif p & d:
        word = [d, *q, e, *r] * 2
    else:
        word = [d, *r, e, *q] * 2
    return canonical_cycle(accumulate(word[:-1], xor, initial=x))
