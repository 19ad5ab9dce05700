"""Independent brute-force oracles used to derive expected test values.

These deliberately avoid the library's own algorithms: cycle counting
goes through networkx or raw permutation scans, maximum progression-free
sizes come from a full subset scan, chromatic numbers from a plain
backtracking colorer, and the greedy B_t oracle recomputes every multiset
sum from scratch at each step. The slow paths of the verifier, which walk
every k-cycle of the library's own enumerator, serve as the ground truth
for its translated-neighbourhood fast paths, and a DSATUR search that
finds each pick by scanning every node is the ground truth for the
saturation-level search of ``_try_color``. The additive-set kernels are
checked against the loops they replaced: sphere shells built by walking
every digit vector, and the 3-AP check by its O(s^2) pair loop. The
one-walk cycle check of ``hypercube._cycle_keys_or_problem`` is checked
against the validator it replaced, which counts each direction and
compares with a full canonical rotation, and ``lower_bound_clique``
against its pair loop over sets of ``Edge`` objects; the int router
of ``build_cycle_same_level`` is checked against the ``Edge``-based
routing it replaced. The orbit search
of ``addsets._creates_solution`` is checked against the scan over every
assignment that it replaced. The streaming ``cli.save_coloring`` is
checked byte for byte against one ``json.dumps`` of the whole document,
with scheme colors taken from the paper's formulas edge by edge.
"""

from __future__ import annotations

import collections
import itertools
import json

import networkx as nx

from rainbowcube.hypercube import (
    Edge,
    build_cycle_same_level,
    canonical_cycle,
    complement_edge,
    cycle_keys,
    edge_level,
    edges_of_cycle,
    enumerate_cycles,
    enumerate_edges,
    edge_key,
    _bitmasks,
    _check_dim,
    _free_coord_masks,
    _walk,
)
from rainbowcube.errors import BudgetError, InternalError, UsageError
from rainbowcube.verifier import BoundCertificate, Violation


def cube_graph(n: int) -> nx.Graph:
    g = nx.Graph()
    for v in range(1 << n):
        for d in range(n):
            if not v >> d & 1:
                g.add_edge(v, v | 1 << d)
    return g


def count_cycles_nx(n: int, k: int) -> int:
    """Number of k-cycles of Q_n via networkx simple cycle enumeration."""
    g = cube_graph(n)
    return sum(1 for c in nx.simple_cycles(g, length_bound=k) if len(c) == k)


def canonical_cycles_nx(n: int, k: int) -> list[tuple[int, ...]]:
    """Canonical k-cycles of Q_n, sorted: networkx cycles rotated to their
    minimum vertex and oriented so the second vertex is below the last."""
    out = []
    for c in nx.simple_cycles(cube_graph(n), length_bound=k):
        if len(c) != k:
            continue
        i = c.index(min(c))
        c = c[i:] + c[:i]
        if c[1] > c[-1]:
            c = c[:1] + c[:0:-1]
        out.append(tuple(c))
    return sorted(out)


def cycle_edge_pairs(cyc) -> list[tuple[int, int]]:
    """(bottom, 1-based direction) of each edge of a vertex cycle, walk order."""
    out = []
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        lo, hi = sorted((a, b))
        out.append((lo, (hi - lo).bit_length()))
    return out


def conflict_adjacency_nx(n: int, k: int) -> tuple[list, list[set[int]]]:
    """Edges of Q_n as (bottom, dir), sorted, and for each the set of indices
    of edges sharing a networkx-enumerated k-cycle with it."""
    edges = sorted(
        (v, d + 1) for v in range(1 << n) for d in range(n) if not v >> d & 1
    )
    index = {e: i for i, e in enumerate(edges)}
    adj: list[set[int]] = [set() for _ in edges]
    for c in canonical_cycles_nx(n, k):
        ids = [index[e] for e in cycle_edge_pairs(c)]
        for i in ids:
            adj[i].update(j for j in ids if j != i)
    return edges, adj


def verify_rainbow_enum(coloring, k: int):
    """``verify_rainbow`` by walking every k-cycle: None, or the Violation
    on the smallest non-rainbow canonical cycle and its first equally
    colored pair of edges."""
    table = coloring.key_table()
    worst = None
    for cyc in enumerate_cycles(coloring.n, k):
        if len({table[key] for key in cycle_keys(cyc)}) < k and (
            worst is None or cyc < worst
        ):
            worst = cyc
    if worst is None:
        return None
    ordered = sorted(edges_of_cycle(worst))
    for e1, e2 in itertools.combinations(ordered, 2):
        if table[e1.key()] == table[e2.key()]:
            return Violation(worst, e1, e2, table[e1.key()])
    raise AssertionError("violating cycle lost its clash")


def neighbourhoods_enum(n: int, k: int) -> list[tuple[tuple[int, int, int], ...]]:
    """For each direction d, the edges sharing a k-cycle with edge (0, d), in
    the format of ``verifier._neighbourhoods``, from every k-cycle through
    vertex 0 (0 is the minimum vertex of each, so they are the start-0
    cycles of the library's enumerator)."""
    full = (1 << n) - 1
    near: list[set[int]] = [set() for _ in range(n)]
    for cyc in enumerate_cycles(n, k, starts=(0,)):
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


def conflict_adjacency_enum(n: int, k: int) -> list[int]:
    """Conflict-graph neighbor bitmasks over ``enumerate_edges`` order, from
    every k-cycle of the library's enumerator."""
    index = {e.key(): i for i, e in enumerate(enumerate_edges(n))}
    adj = [0] * len(index)
    for cyc in enumerate_cycles(n, k):
        ids = [index[key] for key in cycle_keys(cyc)]
        for i in ids:
            for j in ids:
                if i != j:
                    adj[i] |= 1 << j
    return adj


def cycles_by_permutation(n: int, k: int) -> set[tuple[int, ...]]:
    """Canonical k-cycles of Q_n by scanning vertex subsets and orderings."""
    out = set()
    for subset in itertools.combinations(range(1 << n), k):
        first = subset[0]
        rest = subset[1:]
        for perm in itertools.permutations(rest):
            seq = (first,) + perm
            if seq[1] > seq[-1]:
                continue
            if all(
                ((seq[i] ^ seq[(i + 1) % k]).bit_count() == 1) for i in range(k)
            ):
                out.add(seq)
    return out


def brute_r3(limit: int) -> int:
    """Maximum size of a 3-AP-free subset of [1, limit], full subset scan."""
    triples = []
    for x in range(1, limit + 1):
        for y in range(x + 1, limit + 1):
            z = 2 * y - x
            if z <= limit:
                triples.append((1 << (x - 1)) | (1 << (y - 1)) | (1 << (z - 1)))
    best = 0
    for mask in range(1 << limit):
        if mask.bit_count() <= best:
            continue
        if all(mask & t != t for t in triples):
            best = mask.bit_count()
    return best


def brute_chromatic(adj: tuple[int, ...]) -> int:
    """Chromatic number by plain backtracking, for up to ~16 nodes."""
    m = len(adj)

    def colorable(limit: int) -> bool:
        colors = [-1] * m

        def rec(i: int) -> bool:
            if i == m:
                return True
            used = set()
            mask = adj[i]
            while mask:
                low = mask & -mask
                j = low.bit_length() - 1
                if colors[j] >= 0:
                    used.add(colors[j])
                mask ^= low
            cap = min(limit, max(colors[:i], default=-1) + 2)
            for c in range(cap):
                if c not in used:
                    colors[i] = c
                    if rec(i + 1):
                        return True
                    colors[i] = -1
            return False

        return rec(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def dsatur_greedy(adj: tuple[int, ...]) -> list[int]:
    """DSATUR greedy coloring (Brelaz 1979) of a graph given as neighbor
    bitmasks: color next the uncolored node with the most distinct neighbor
    colors, ties to higher degree then lower index, with the least color
    absent from its neighbors. Saturation is recounted from scratch."""
    m = len(adj)
    nbrs = [[j for j in range(m) if a >> j & 1] for a in adj]
    colors = [-1] * m
    for _ in range(m):
        pick = max(
            (i for i in range(m) if colors[i] < 0),
            key=lambda i: (len({colors[j] for j in nbrs[i]} - {-1}), len(nbrs[i]), -i),
        )
        taken = {colors[j] for j in nbrs[pick]}
        colors[pick] = min(c for c in range(m + 1) if c not in taken)
    return colors


def dsatur_search_scan(
    adj: tuple[int, ...], limit: int, clique: list[int]
) -> list[int] | None:
    """The DSATUR backtracking search of ``verifier._try_color`` with its
    pick found by a full scan: every node it colors is the uncolored one
    of largest (saturation, degree, -index), saturation the popcount of
    its ``forbidden`` color mask. Colors are tried lowest first, at most
    one above the largest in use; the ``clique`` nodes are colored 0, 1, ...
    first and never revisited. Returns the first coloring with at most
    ``limit`` colors in that order, or None."""
    m = len(adj)
    nbrs = [[j for j in range(m) if a >> j & 1] for a in adj]
    colors = [-1] * m
    forbidden = [0] * m
    if len(clique) > limit:
        return None
    for c, i in enumerate(clique):
        colors[i] = c
        for j in nbrs[i]:
            forbidden[j] |= 1 << c
    uncolored = [i for i in range(m) if colors[i] < 0]
    degree = [a.bit_count() for a in adj]
    stack = []  # (node, color, used before it, neighbors it blocked)
    used = len(clique)
    while len(stack) < len(uncolored):
        pick = max(
            (i for i in uncolored if colors[i] < 0),
            key=lambda i: (forbidden[i].bit_count(), degree[i], -i),
        )
        c = 0
        while True:
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
        touched = [j for j in nbrs[pick] if not forbidden[j] >> c & 1]
        for j in touched:
            forbidden[j] |= 1 << c
        stack.append((pick, c, used, touched))
        used = max(used, c + 1)
    return colors


def greedy_bt_oracle(t: int, size: int) -> list[int]:
    """Greedy B_t set recomputing all multiset sums from scratch each step."""
    elems = [1]
    cand = 1
    while len(elems) < size:
        cand += 1
        trial = elems + [cand]
        sums = [
            sum(m) for m in itertools.combinations_with_replacement(trial, t)
        ]
        if len(set(sums)) == len(sums):
            elems.append(cand)
    return elems


def digit_01_shifted(limit: int) -> list[int]:
    """{ m + 1 <= limit : every base-3 digit of m is 0 or 1 }."""
    out = []
    for m in range(limit):
        x = m
        while x and x % 3 != 2:
            x //= 3
        if x == 0:
            out.append(m + 1)
    return out


def best_sphere_shell_enum(limit: int) -> list[int]:
    """The largest sphere shell, by walking every digit vector of every
    (d, digits) with (2d - 1)^digits <= limit, 2 <= d <= 64; norms ascend
    within each, and a shell replaces the best only when strictly larger."""
    best: list[int] = []
    for d in range(2, 65):
        base = 2 * d - 1
        digits = 1
        span = base
        while span <= limit:
            shells: dict[int, list[int]] = {}
            for vec in itertools.product(range(d), repeat=digits):
                norm = sum(c * c for c in vec)
                if norm == 0:
                    continue
                val = 0
                for c in reversed(vec):
                    val = val * base + c
                if val <= limit:
                    shells.setdefault(norm, []).append(val)
            for norm in sorted(shells):
                if len(shells[norm]) > len(best):
                    best = sorted(shells[norm])
            digits += 1
            span *= base
    return best


def verify_3ap_free_pairs(elems):
    """(True, None) or (False, (x, y, 2y - x)) for the first pair x < y of
    the sorted set, in (x, y) order, whose 2y - x is in the set."""
    s = sorted(elems)
    members = set(s)
    for i, xval in enumerate(s):
        for yval in s[i + 1 :]:
            if 2 * yval - xval in members:
                return False, (xval, yval, 2 * yval - xval)
    return True, None


def cycle_problem_slow(n: int, verts):
    """Why ``verts`` is not a valid canonical cycle of Q_n, or None if it
    is: ``cycle_problem`` with a count per direction for the parity check
    and a comparison with ``canonical_cycle`` for canonical form. The
    counts sit in a dict, as a step to a vertex outside Q_n can run along
    a direction above n before that vertex's own check reports it."""
    _check_dim(n)
    verts = tuple(verts)
    k = len(verts)
    if k < 4 or k % 2:
        return f"length {k} is not an even number >= 4"
    if k > 1 << n:
        return f"length {k} exceeds the vertex count of Q_{n}"
    if len(set(verts)) != k:
        return "repeated vertex"
    dir_counts = collections.Counter()
    for i, u in enumerate(verts):
        if not 0 <= u < 1 << n:
            return f"vertex {u:#x} outside Q_{n}"
        d = u ^ verts[(i + 1) % k]
        if d == 0 or d & (d - 1):
            return f"vertices {u:#x} and {verts[(i + 1) % k]:#x} not adjacent"
        dir_counts[d.bit_length() - 1] += 1
    if any(c % 2 for c in dir_counts.values()):
        return "some direction used an odd number of times"
    if verts != canonical_cycle(verts):
        return "not in canonical form"
    return None


def lower_bound_clique_edges(n: int, k: int):
    """``lower_bound_clique`` for valid (n, k) as a pair loop over ``Edge``
    objects: the level's edges filtered from every edge of Q_n, each
    witness checked by ``cycle_problem_slow`` and a set of its edges."""
    level = k // 4
    edges = tuple(e for e in enumerate_edges(n) if edge_level(e) == level)
    witnesses = {}
    for e1, e2 in itertools.combinations(edges, 2):
        cyc = build_cycle_same_level(n, k, e1, e2)
        pair_edges = set(edges_of_cycle(cyc))
        if cycle_problem_slow(n, cyc) or e1 not in pair_edges or e2 not in pair_edges:
            raise AssertionError(f"witness for {e1} and {e2} failed validation")
        witnesses[(e1, e2)] = cyc
    return len(edges), BoundCertificate(level, edges, witnesses)


def same_level_cycle_edges(
    n: int, k: int, e1: Edge, e2: Edge, may_flip: bool
) -> tuple:
    """``hypercube._same_level_cycle`` as it routed ``Edge`` objects, with
    tops, direction bits and the free-coordinate pool read off the edges
    and the mirrored case built from ``complement_edge``."""
    full = (1 << n) - 1
    v, x = e1.bottom, e2.bottom
    w, y = e1.top, e2.top
    bi = 1 << e1.dir - 1
    bj = 1 << e2.dir - 1

    def flipped() -> tuple:
        if not may_flip:
            raise UsageError("not enough unused coordinates to route the cycle")
        mirror = same_level_cycle_edges(
            n, k, complement_edge(n, e1), complement_edge(n, e2), may_flip=False
        )
        return canonical_cycle(tuple(full ^ u for u in mirror))

    if v == x:
        r = k // 2 - 2
        pool = _free_coord_masks(n, w | y)
        if len(pool) < r:
            return flipped()
        fresh = pool[:r]
        return canonical_cycle(tuple(_walk(v, [bi, *fresh, bj, bi, *fresh[::-1]])))

    if w == y:
        r = k // 2 - 2
        if r == 0:
            return canonical_cycle((w, v, v & x, x))
        pool = _free_coord_masks(n, w)
        if len(pool) < r:
            return flipped()
        fresh = pool[:r]
        return canonical_cycle(tuple(_walk(w, [bi, *fresh, bi, bj, *fresh[::-1]])))

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
        pads = _bitmasks(inter)[:pad]
        path_vx = _walk(v, leave + pads + enter + pads)
    else:
        pads = pool[r : r + pad]
        path_vx = _walk(v, pads + leave + enter + pads)
    path_wy = _walk(
        w, s_masks + _bitmasks(y & ~w) + _bitmasks(w & ~y)[::-1] + s_masks[::-1]
    )
    return canonical_cycle(tuple(path_vx + path_wy[::-1]))


def creates_solution_scan(system, kept, cand: int, max_nodes: int) -> bool:
    """``addsets._creates_solution`` as a scan over every assignment: each
    position, in the equation's own order, tries every value of the kept
    set with ``cand``, pruned only by the least and greatest sums the
    remaining positions can reach. ``max_nodes`` bounds the values tried
    per equation, and exceeding it raises BudgetError."""
    values = sorted(list(kept) + [cand])
    for eq in system:
        k = len(eq)
        suffix_min = [0] * (k + 1)
        suffix_max = [0] * (k + 1)
        for i in range(k - 1, -1, -1):
            lo, hi = sorted((eq[i] * values[0], eq[i] * values[-1]))
            suffix_min[i] = suffix_min[i + 1] + lo
            suffix_max[i] = suffix_max[i + 1] + hi
        assignment = [0] * k
        nodes = 0

        def trivial() -> bool:
            classes = collections.Counter()
            for a, v in zip(eq, assignment):
                classes[v] += a
            return not any(classes.values())

        def rec(pos: int, partial: int, used: bool) -> bool:
            nonlocal nodes
            if pos == k:
                return partial == 0 and used and not trivial()
            for val in values:
                nodes += 1
                if nodes > max_nodes:
                    raise BudgetError(f"solution check exceeded {max_nodes} nodes")
                nxt = partial + eq[pos] * val
                if nxt + suffix_min[pos + 1] > 0 or nxt + suffix_max[pos + 1] < 0:
                    continue
                assignment[pos] = val
                if rec(pos + 1, nxt, used or val == cand):
                    return True
            return False

        if rec(0, 0, False):
            return True
    return False


def scheme_color_table(col) -> dict:
    """Edge key -> color of a construction1 or construction2 coloring,
    from the formulas edge by edge: (a(v) + M j, (|v| + 1) mod k/2) and
    ((a(v) + 2 s_j) mod 2N, (|v| + 1) mod 3)."""
    s = col.params["S"]
    table = {}
    for e in enumerate_edges(col.n):
        a = sum(s[i] for i in range(col.n) if e.bottom >> i & 1)
        level = bin(e.bottom).count("1") + 1
        if col.scheme == "construction1":
            color = (a + col.params["M"] * e.dir, level % (col.k // 2))
        else:
            color = ((a + 2 * s[e.dir - 1]) % (2 * col.params["N"]), level % 3)
        table[edge_key(e.bottom, e.dir)] = color
    return table


def k10_mod_table(n: int) -> dict:
    """Edge key -> color of the k=10 analogue of construction 2 that is
    not 10-rainbow for n = 6..10: with S the greedy
    ``conjecture_system(10)``-free set cut to n elements and N = max S,
    edge (v, d) gets ((a(v) + 2 s_d) mod 2N, (|v| + 1) mod 5)."""
    s = (1, 2, 5, 14, 33, 72, 113, 168, 259, 352)[:n]
    table = {}
    for e in enumerate_edges(n):
        a = sum(s[i] for i in range(n) if e.bottom >> i & 1)
        table[edge_key(e.bottom, e.dir)] = (
            (a + 2 * s[e.dir - 1]) % (2 * s[-1]),
            (e.bottom.bit_count() + 1) % 5,
        )
    return table


def save_coloring_dumps(col, path: str) -> None:
    """``cli.save_coloring`` as it was before it streamed: one dict per
    edge record and one ``json.dumps`` of the whole document."""
    if col.scheme == "explicit":
        table = col.key_table()
    else:
        table = scheme_color_table(col)
    edges = [
        {"b": hex(key >> 5), "dir": (key & 31) + 1, "color": list(table[key])}
        for key in sorted(table)
    ]
    doc = {
        "n": col.n,
        "k": col.k,
        "scheme": col.scheme,
        "params": {
            key: (list(val) if isinstance(val, tuple) else val)
            for key, val in col.params.items()
        },
        "edges": edges,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
        fh.write("\n")
