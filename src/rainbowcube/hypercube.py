"""Bitmask model of the n-dimensional hypercube graph Q_n.

Vertices are ints in [0, 2**n); bit i-1 encodes coordinate i, so a vertex
doubles as a subset of {1, ..., n}. Directions are 1-based throughout. An
edge is identified by its bottom vertex (the endpoint with the direction
bit clear) and its direction index; the top vertex has that bit set. An
edge whose bottom vertex has j ones sits on level j + 1.

Color tables and conflict graphs key edges by the dense int
``bottom << 5 | dir - 1`` (five bits hold a direction up to MAX_DIM).
``edge_key`` and ``cycle_keys`` build it; ``cli.load_coloring`` builds it
inline, once per record of a coloring file, and so does
``EdgeColoring.key_table``, once per edge of a scheme coloring.

Cycles are canonical vertex tuples: the minimum vertex comes first and the
orientation is chosen so the second vertex is smaller than the last. Cycle
enumeration is a depth-first search from each candidate minimum vertex,
pruned by the Hamming distance back to the start; the start/orientation
rule makes every cycle appear exactly once, in a deterministic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional

from .errors import InternalError, UsageError

MAX_DIM = 32

Cycle = tuple  # canonical vertex tuple


class _SetBlocked:
    """Visited-vertex store for dimensions too large for a flat bytearray."""

    __slots__ = ("members",)

    def __init__(self):
        self.members = set()

    def __getitem__(self, i):
        return i in self.members

    def __setitem__(self, i, v):
        if v:
            self.members.add(i)
        else:
            self.members.discard(i)


def _blocked_store(n: int):
    return bytearray(1 << n) if n <= 24 else _SetBlocked()


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


def cycle_keys(cyc) -> list[int]:
    """Edge keys of a vertex cycle in walk order, as ``edges_of_cycle`` gives them."""
    keys = []
    prev = cyc[0]
    for u in cyc[1:] + cyc[:1]:
        keys.append((prev & u) << 5 | (prev ^ u).bit_length() - 1)
        prev = u
    return keys


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


def complement_edge(n: int, e: Edge) -> Edge:
    """Image of an edge under complementing every vertex of Q_n."""
    validate_edge(n, e)
    full = (1 << n) - 1
    return Edge(full ^ e.top, e.dir)


def _bitmasks(mask: int) -> list[int]:
    """Single-bit masks of ``mask``, ascending."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b)
        mask ^= b
    return out


def _free_coord_masks(n: int, used: int) -> list[int]:
    return [1 << d for d in range(n) if not used >> d & 1]


def _walk(start: int, masks) -> list[int]:
    """``start`` and every vertex reached from it by XOR-ing each mask in turn."""
    path = [start]
    for b in masks:
        start ^= b
        path.append(start)
    return path


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
    """``(cycle_keys(verts), None)`` when the tuple ``verts`` is a valid
    canonical cycle of Q_n, else ``(None, why)``: ``cycle_problem`` in one
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


def enumerate_cycles(n: int, k: int, starts=None) -> Iterator[Cycle]:
    """Every k-cycle of Q_n exactly once, canonical, deterministic order.

    Odd k yields nothing (Q_n is bipartite); k outside [4, 2^n] is an
    error. ``starts``, an ascending iterable of vertices, keeps only the
    cycles whose minimum vertex is in it, in the same order; None means
    every vertex. Each start is checked when it is reached: one outside
    [0, 2^n), or not above the one before it, is a UsageError.
    """
    _check_dim(n)
    _check_cycle_length(n, k)
    if k % 2:
        return iter(())
    return _cycle_gen(n, k, range(1 << n) if starts is None else starts)


def _cycle_gen(n: int, k: int, starts) -> Iterator[Cycle]:
    bits = [1 << d for d in range(n)]
    blocked = _blocked_store(n)
    leaf = k - 1  # depth at which the only move left is closing to the start
    prev = -1
    for start in starts:
        if not isinstance(start, int) or not prev < start < 1 << n:
            raise UsageError(
                f"start {start!r} is outside [0, 2^{n}) or not above the one before"
            )
        prev = start
        path = [start]
        nexts = [0]
        while path:
            v = path[-1]
            if len(path) - 1 == leaf:
                if (v ^ start).bit_count() == 1 and path[1] < v:
                    yield tuple(path)
                path.pop()
                nexts.pop()
                blocked[v] = 0
                continue
            d = nexts[-1]
            if d == n:
                path.pop()
                nexts.pop()
                blocked[v] = 0
                continue
            nexts[-1] = d + 1
            w = v ^ bits[d]
            if w <= start or blocked[w]:
                continue
            if (w ^ start).bit_count() > leaf - (len(path) - 1):
                continue
            blocked[w] = 1
            path.append(w)
            nexts.append(0)


def cycles_containing_pair(
    n: int, k: int, e1: Edge, e2: Edge
) -> tuple[bool, Optional[Cycle]]:
    """Whether some k-cycle of Q_n contains both edges.

    Returns (exists, witness); the witness is the canonically smallest
    such cycle. The possible minimum vertices are tried in ascending
    order (``_pair_starts``), and from each a depth-first search steps to
    the neighbours in ascending order, so the first cycle it closes is
    the answer. The search stops there, so its cost does not grow with
    the number of cycles through the pair.
    """
    _check_dim(n)
    _check_cycle_length(n, k)
    validate_edge(n, e1)
    validate_edge(n, e2)
    if e1 == e2:
        raise UsageError("edges must be distinct")
    if k % 2:
        return False, None
    blocked = _blocked_store(n)
    for start in _pair_starts(n, k, e1, e2):
        cyc = _first_cycle_from(n, k, start, e1, e2, blocked)
        if cyc is not None:
            return True, cyc
    return False, None


def _pair_starts(n: int, k: int, e1: Edge, e2: Edge) -> Iterator[int]:
    """Ascending vertices s, at most both bottoms, from which a closed walk
    of length at most k runs through both edges: every minimum vertex of
    a k-cycle through the edges is among them.

    The shortest such walk leaves s for an endpoint u of e1 and returns
    from an endpoint w of e2 (or the reverse), so it is
    |s ^ u| + |s ^ w| + 2 + |u' ^ w'| long, with u', w' the other
    endpoints. That is |u ^ w| plus twice the bits where s differs from
    both u and w, which bounds those bits by a budget per choice of
    (u, w). The bits of s are fixed from the highest down, 0 before 1,
    and a prefix is dropped once every budget is spent or its least
    completion exceeds the bottoms; so the walk meets no dead end but
    those the bottoms cause.
    """
    full = (1 << n) - 1
    top = min(e1.bottom, e2.bottom)
    ends1, ends2 = (e1.bottom, e1.top), (e2.bottom, e2.top)
    agree, budgets = [], []
    for i, u in enumerate(ends1):
        for j, w in enumerate(ends2):
            other = (ends1[1 - i] ^ ends2[1 - j]).bit_count()
            spare = k - 2 - other - (u ^ w).bit_count()
            if spare >= 0:
                agree.append((u, full & ~(u ^ w)))
                budgets.append(spare // 2)

    def walk(bit: int, prefix: int, room: list[int]) -> Iterator[int]:
        if not bit:
            yield prefix
            return
        for s in (prefix, prefix | bit):
            if s > top:
                return
            left = [r - ((s ^ u) & same & bit != 0) for (u, same), r in zip(agree, room)]
            if max(left) >= 0:
                yield from walk(bit >> 1, s, left)

    return walk(1 << n - 1, 0, budgets) if budgets else iter(())


def _first_cycle_from(
    n: int, k: int, start: int, e1: Edge, e2: Edge, blocked
) -> Optional[Cycle]:
    """The smallest canonical k-cycle with minimum vertex ``start`` through
    both edges, or None.

    Neighbours are tried in ascending order, so the first cycle closed is
    the smallest; its orientation is canonical, as the reverse walk is
    larger. A step is pruned when the shortest tour from it through the
    edges still missing and back to ``start`` is too long (see ``tours``),
    or when it leaves an endpoint of a missing edge other than ``start``:
    that endpoint is on the path now, so the edge can no longer be used.
    ``blocked`` is all zero on entry and on return.
    """
    b1, t1, b2, t2 = e1.bottom, e1.top, e2.bottom, e2.top
    up = [1 << d for d in range(n)]
    down = up[::-1]

    def rest(b: int, t: int) -> list[tuple[int, int]]:
        # (entry endpoint, length of the rest of the tour from it)
        ends = ((b, t), (t, b))
        return [(x, 1 + (y ^ start).bit_count()) for x, y in ends if x != start]

    def via(pairs, rest2) -> list[tuple[int, int]]:
        return [
            (x, 1 + min((y ^ a).bit_count() + c for a, c in rest2))
            for x, y in pairs
            if x != start and y != start and rest2
        ]

    rest1, rest2 = rest(b1, t1), rest(b2, t2)
    # tours[missing e1, missing e2]: the tour from v is at least
    # min(|v ^ x| + c) over its (x, c); an empty list means none exists
    tours = {
        (True, True): via(((b1, t1), (t1, b1)), rest2)
        + via(((b2, t2), (t2, b2)), rest1),
        (True, False): rest1,
        (False, True): rest2,
        (False, False): [(start, 0)],
    }
    path = [start]

    def rec(v: int, left: int, miss1: bool, miss2: bool) -> bool:
        if left == 1:
            if (v ^ start).bit_count() != 1:
                return False
            lo, hi = v & start, v | start
            return not (miss1 and (lo, hi) != (b1, t1) or miss2 and (lo, hi) != (b2, t2))
        end1 = miss1 and v != start and (v == b1 or v == t1)
        end2 = miss2 and v != start and (v == b2 or v == t2)
        for w in [v ^ b for b in down if v & b] + [v | b for b in up if not v & b]:
            if w <= start or blocked[w]:
                continue
            lo, hi = v & w, v | w
            m1 = miss1 and not (lo == b1 and hi == t1)
            m2 = miss2 and not (lo == b2 and hi == t2)
            if m1 and end1 or m2 and end2:
                continue
            entries = tours[m1, m2]
            if not entries or min((w ^ x).bit_count() + c for x, c in entries) >= left:
                continue
            blocked[w] = 1
            path.append(w)
            found = rec(w, left - 1, m1, m2)
            blocked[w] = 0
            if found:
                return True
            path.pop()
        return False

    return tuple(path) if rec(start, k, True, True) else None


def build_cycle_same_level(n: int, k: int, e1: Edge, e2: Edge) -> Cycle:
    """Construct a k-cycle through two distinct edges on a common level.

    Needs n > k. Incident pairs (shared bottom or shared top) are joined
    by two parallel chains over fresh coordinates. Disjoint pairs need
    k divisible by 4 and bottom vertices with |v xor x| <= k/2 - 2; they
    are joined by a bottom route of length k/2 - 2 between the bottoms
    and a top route of length k/2 between the tops. Fresh coordinates are
    always the smallest unused indices. When no unused coordinates remain
    above, the construction is applied to the complemented cube and
    mirrored back.

    Every argument check above comes first. The constructed cycle is then
    checked by the rules of ``cycle_problem`` in one walk that also yields
    its edge keys, and both edges must be among them; either failure is
    an InternalError.
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

    cyc = _same_level_cycle(
        n, k, e1.bottom, 1 << e1.dir - 1, e2.bottom, 1 << e2.dir - 1, True
    )
    keys, problem = _cycle_keys_or_problem(n, cyc)
    if problem is not None:
        raise InternalError(f"constructed cycle invalid: {problem}")
    if e1.key() not in keys or e2.key() not in keys:
        raise InternalError("constructed cycle misses a required edge")
    return cyc


def _same_level_cycle(
    n: int, k: int, v: int, bi: int, x: int, bj: int, may_flip: bool
) -> Cycle:
    """The routing of ``build_cycle_same_level`` for the edges with bottoms
    ``v`` and ``x`` and direction bits ``bi`` and ``bj`` (1 << dir - 1).

    Nothing is checked here: the caller stands for the preconditions of
    ``build_cycle_same_level`` and validates the cycle it gets back.
    """
    full = (1 << n) - 1
    w, y = v | bi, x | bj

    def flipped() -> Cycle:
        if not may_flip:
            raise UsageError("not enough unused coordinates to route the cycle")
        # complementing the cube maps the edge (v, bi) to (full ^ w, bi)
        mirror = _same_level_cycle(n, k, full ^ w, bi, full ^ y, bj, False)
        return canonical_cycle(tuple(full ^ u for u in mirror))

    if v == x:
        # shared bottom: climb the e1 side, cross at the top, descend to e2
        r = k // 2 - 2
        pool = _free_coord_masks(n, w | y)
        if len(pool) < r:
            return flipped()
        fresh = pool[:r]
        return canonical_cycle(tuple(_walk(v, [bi, *fresh, bj, bi, *fresh[::-1]])))

    if w == y:
        # shared top: descend to both bottoms, rejoin above fresh coordinates
        r = k // 2 - 2
        if r == 0:
            return canonical_cycle((w, v, v & x, x))
        pool = _free_coord_masks(n, w)
        if len(pool) < r:
            return flipped()
        fresh = pool[:r]
        return canonical_cycle(tuple(_walk(w, [bi, *fresh, bi, bj, *fresh[::-1]])))

    # disjoint: bottom route between v and x, top route between w and y
    dvx = (v ^ x).bit_count()
    m = (w ^ y).bit_count() // 2
    r = k // 4 - m
    pad = k // 4 - 1 - dvx // 2
    if r < 0 or pad < 0:
        raise InternalError("disjoint routing infeasible")
    inter = v & x
    pad_down = pad <= inter.bit_count()
    pool = _free_coord_masks(n, w | y)
    need = r + (0 if pad_down else pad)
    if len(pool) < need:
        return flipped()
    s_masks = pool[:r]
    leave, enter = _bitmasks(v & ~x), _bitmasks(x & ~v)
    if pad_down:
        # clear `pad` shared coordinates on the way, set them again at the end
        pads = _bitmasks(inter)[:pad]
        path_vx = _walk(v, leave + pads + enter + pads)
    else:
        # set `pad` fresh coordinates first, clear them again at the end
        pads = pool[r : r + pad]
        path_vx = _walk(v, pads + leave + enter + pads)
    path_wy = _walk(
        w, s_masks + _bitmasks(y & ~w) + _bitmasks(w & ~y)[::-1] + s_masks[::-1]
    )
    return canonical_cycle(tuple(path_vx + path_wy[::-1]))
