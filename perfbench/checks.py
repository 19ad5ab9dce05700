"""Independent checks for benchmark outputs.

Nothing here imports the package under test: every expected value is
either a published reference or recomputed by brute force, so a bug in
the program cannot also hide itself in the check.

Edges are (bottom vertex, 1-based direction) tuples and cycles are vertex
lists, following the file format rather than the program's own types.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement
from math import comb

# OEIS A005282, the Mian-Chowla sequence: the greedy B_2 (Sidon) sequence.
MIAN_CHOWLA = (
    1, 2, 4, 8, 13, 21, 31, 45, 66, 81, 97, 123, 148, 182, 204, 252, 290,
    361, 401, 475, 565, 593, 662, 775, 822, 916, 970, 1016, 1159, 1312,
)

# f(n, k): fewest colors in a k-rainbow edge coloring of Q_n.
# f(4,4) = 4 and f(5,4) = f(6,4) = 6: Faudree, Gyarfas, Lesniak and Schelp,
# "Rainbow coloring the cube", J. Graph Theory 17 (1993): f(n, 4) = n iff
# n = 4 or n > 5. f(3,6) = 12: every two edges of Q_3 share a 6-cycle.
# f(4,8) = f(4,12) = 32: every two of Q_4's 32 edges share an 8-cycle and
# a 12-cycle, so the conflict graph is complete.
EXACT_REFERENCE = {(4, 4): 4, (5, 4): 6, (6, 4): 6, (3, 6): 12, (4, 8): 32, (4, 12): 32}


def level_edge_count(n: int, level: int) -> int:
    """Edges of Q_n on a level: C(n, level - 1) * (n - level + 1)."""
    return comb(n, level - 1) * (n - level + 1)


def is_bt(elems, t: int) -> bool:
    """All sums of t-element multisets of ``elems`` are distinct."""
    seen = set()
    for multi in combinations_with_replacement(sorted(elems), t):
        total = sum(multi)
        if total in seen:
            return False
        seen.add(total)
    return True


def is_3ap_free(elems) -> bool:
    """No three distinct elements x < y < z with x + z = 2y.

    For each x the shifted bitset of the set meets the bitset of doubled
    elements exactly at the sums x + z = 2y; only z = x may appear.
    """
    members = 0
    doubled = 0
    for e in elems:
        members |= 1 << e
        doubled |= 1 << 2 * e
    return all((members << x) & doubled == 1 << 2 * x for x in elems)


def greedy_3ap_free(limit: int, size: int, rng: random.Random) -> list[int]:
    """A random 3-AP-free subset of [1, limit] with ``size`` elements."""
    while True:
        order = list(range(1, limit + 1))
        rng.shuffle(order)
        kept: list[int] = []
        for cand in order:
            if is_3ap_free(kept + [cand]):
                kept.append(cand)
                if len(kept) == size:
                    return sorted(kept)


def random_bt(t: int, size: int, limit: int, rng: random.Random) -> list[int]:
    """A random B_t set of ``size`` distinct elements of [1, limit]."""
    while True:
        cand = rng.sample(range(1, limit + 1), size)
        if is_bt(cand, t):
            return sorted(cand)


def random_edge(n: int, rng: random.Random) -> tuple[int, int]:
    bottom = rng.randrange(1 << n)
    free = [d for d in range(1, n + 1) if not bottom >> (d - 1) & 1]
    while not free:
        bottom = rng.randrange(1 << n)
        free = [d for d in range(1, n + 1) if not bottom >> (d - 1) & 1]
    return bottom, rng.choice(free)


def random_cycle_through(n: int, k: int, edge, rng: random.Random) -> list[int]:
    """A k-cycle of Q_n through ``edge``, found by a randomized DFS.

    The walk leaves the edge's top vertex and must come back to its bottom
    vertex after k - 1 steps, pruned by the Hamming distance home.
    """
    bottom, d = edge
    top = bottom | 1 << (d - 1)
    path = [bottom, top]
    on_path = {bottom, top}

    def rec(v: int, left: int) -> bool:
        if left == 1:
            return (v ^ bottom).bit_count() == 1
        dirs = list(range(n))
        rng.shuffle(dirs)
        for b in dirs:
            w = v ^ 1 << b
            if w in on_path or (w ^ bottom).bit_count() > left - 1:
                continue
            path.append(w)
            on_path.add(w)
            if rec(w, left - 1):
                return True
            path.pop()
            on_path.discard(w)
        return False

    if not rec(top, k - 1):
        raise ValueError(f"no {k}-cycle of Q_{n} through edge {edge}")
    return path


def edge_between(u: int, v: int) -> tuple[int, int]:
    return u & v, (u ^ v).bit_length()


def cycle_edges(cycle) -> list[tuple[int, int]]:
    return [edge_between(u, cycle[(i + 1) % len(cycle)]) for i, u in enumerate(cycle)]


def plant_clash(n: int, k: int, rng: random.Random):
    """Pick the edge to recolor and the edge whose color it takes.

    Both lie on one k-cycle, so copying the partner's color onto the
    planted edge makes that cycle non-rainbow whatever the coloring.
    Returns (planted edge, partner edge).
    """
    planted = random_edge(n, rng)
    cycle = random_cycle_through(n, k, planted, rng)
    others = [e for e in cycle_edges(cycle) if e != planted]
    return planted, rng.choice(others)


def cycle_problem(n: int, k: int, cycle) -> str | None:
    """Why ``cycle`` is not a canonical k-cycle of Q_n, or None."""
    if len(cycle) != k:
        return f"length {len(cycle)} is not {k}"
    if len(set(cycle)) != k:
        return "repeated vertex"
    if any(not 0 <= v < 1 << n for v in cycle):
        return "vertex outside the cube"
    for i, u in enumerate(cycle):
        if (u ^ cycle[(i + 1) % k]).bit_count() != 1:
            return f"vertices {u:#x} and {cycle[(i + 1) % k]:#x} not adjacent"
    if cycle[0] != min(cycle) or cycle[1] > cycle[-1]:
        return "not in canonical form"
    return None


def witness_problem(n: int, k: int, table, planted, cycle, e1, e2) -> str | None:
    """Why a reported violation is wrong for a coloring with one planted clash.

    ``table`` maps (bottom, dir) to the color the file holds. Only cycles
    through the planted edge can clash, and the clashing pair includes it.
    """
    problem = cycle_problem(n, k, cycle)
    if problem is not None:
        return problem
    on_cycle = set(cycle_edges(cycle))
    if planted not in on_cycle:
        return f"cycle misses the planted edge {planted}"
    if e1 == e2 or e1 not in on_cycle or e2 not in on_cycle:
        return f"reported edges {e1}, {e2} are not two edges of the cycle"
    if table[e1] != table[e2]:
        return f"reported edges {e1}, {e2} have different colors"
    if planted not in (e1, e2):
        return "clashing pair does not include the planted edge"
    return None


def solution_in(eq, elems):
    """A nontrivial solution of sum(a_i x_i) = 0 over ``elems``, or None.

    A solution is trivial when, for every value, the coefficients of the
    variables holding it sum to zero.
    """
    vals = sorted(elems)
    if not vals:
        return None
    lo, hi = vals[0], vals[-1]
    k = len(eq)
    # reach[i] = (min, max) of sum(a_j x_j) over j >= i
    reach = [(0, 0)] * (k + 1)
    for i in range(k - 1, -1, -1):
        a = eq[i]
        ends = (a * lo, a * hi)
        reach[i] = (reach[i + 1][0] + min(ends), reach[i + 1][1] + max(ends))
    chosen: list[int] = []

    def rec(i: int, partial: int):
        if i == k:
            if partial:
                return None
            weight: dict[int, int] = {}
            for a, x in zip(eq, chosen):
                weight[x] = weight.get(x, 0) + a
            return None if not any(weight.values()) else tuple(chosen)
        for x in vals:
            nxt = partial + eq[i] * x
            if not reach[i + 1][0] <= -nxt <= reach[i + 1][1]:
                continue
            chosen.append(x)
            found = rec(i + 1, nxt)
            chosen.pop()
            if found:
                return found
        return None

    return rec(0, 0)


def genus_brute(eq) -> int:
    """Most parts in a partition of the coefficients into zero-sum parts.

    0 when no such partition exists. Plain recursion over set partitions.
    """
    best = 0

    def rec(rest: tuple[int, ...], parts: int) -> None:
        nonlocal best
        if not rest:
            best = max(best, parts)
            return
        first, others = rest[0], rest[1:]
        m = len(others)
        for mask in range(1 << m):
            part = [first] + [others[i] for i in range(m) if mask >> i & 1]
            if sum(eq[i] for i in part) == 0:
                rec(tuple(others[i] for i in range(m) if not mask >> i & 1), parts + 1)

    rec(tuple(range(len(eq))), 0)
    return best
