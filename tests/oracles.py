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
checked against the loops they replaced: the 3-AP check by its O(s^2)
pair loop and by the bitset scan over doubled elements that its parity
split replaced. The paper's sphere-shell construction, built by walking
every digit vector, is kept here as the reference that ``behrend_set``'s
digit set is never smaller. The one-walk cycle check of
``hypercube._cycle_keys_or_problem`` is checked against the validator it
replaced, which counts each direction and compares with a full canonical
rotation, and its edge keys against ``cycle_keys``; ``lower_bound_clique``
against its pair loop over sets of ``Edge`` objects. The split test of
``addsets.equation_free_subset`` is checked against the scan over every
assignment, ``creates_solution_scan``, and the sets it grows against
``equation_free_subset_orbits``, which checks each candidate by the
orbit search the split test replaced (``creates_solution_orbits`` over
``solution_search_orbits``); that search is itself checked against the
scan it once replaced. The streaming ``cli.save_coloring`` is
checked byte for byte against one ``json.dumps`` of the whole document,
with scheme colors taken from the paper's formulas edge by edge.
``addsets.bose_chowla``, which reads its logs off one walk over the
powers of theta, is checked against a table of every power's log, and
the bitset color count of ``coloring._count_bits`` against the walk over
every edge and, for construction2, against the set of (sum, size) pairs
it once kept beside the bitsets. The key check of an explicit
``EdgeColoring`` is judged by ``is_edge_key``, which builds the ``Edge``
and runs ``validate_edge``, and ``addsets._smallest_irreducible`` by the
set of every product of two monic polynomials. The covering scan of
``verifier._lexicode`` is checked against the greedy scan that measures
each word's distance to every word kept before it, and the orbit graph
that ``verifier._orbit_graph`` translates from base rows against
``orbit_graph_scan``, which groups the edges into orbits word by word and
joins two orbits by testing every pair of their edges. The start rule of
``hypercube._pair_starts``, one budget of coordinates outside the span,
is checked against ``pair_starts_endpoint_budgets``, the walk it
replaced, which bounds closed walks with one budget per choice of
endpoints.

One helper lives here because only the tests use it:
``verify_q3_equivalence``, which checks that every-6-cycle-rainbow
agrees with every-3-subcube-rainbow (for k = 6 the span rule of
``verifier._conflicts`` is "share a Q_3", so the library needs no such
check at runtime).
"""

from __future__ import annotations

import collections
import itertools
import json

import networkx as nx

from rainbowcube import addsets
from rainbowcube.hypercube import (
    Edge,
    build_cycle_same_level,
    canonical_cycle,
    edge_level,
    edges_of_cycle,
    enumerate_cycles,
    enumerate_edges,
    edge_key,
    _check_dim,
    validate_edge,
)
from rainbowcube.errors import BudgetError, InternalError, UsageError
from rainbowcube.verifier import BoundCertificate, Violation, _conflicts, verify_rainbow


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


def cycle_keys(cyc) -> list[int]:
    """Edge keys of a vertex cycle in walk order, as ``edges_of_cycle`` gives them."""
    keys = []
    prev = cyc[0]
    for u in cyc[1:] + cyc[:1]:
        keys.append((prev & u) << 5 | (prev ^ u).bit_length() - 1)
        prev = u
    return keys


def lexicode_scan(n: int, dist: int) -> list[int]:
    """The words 0, 1, ..., 2^n - 1 in turn, each kept when it lies at
    distance at least ``dist`` from every word kept before it."""
    code: list[int] = []
    for x in range(1 << n):
        if all((x ^ w).bit_count() >= dist for w in code):
            code.append(x)
    return code


def orbit_graph_scan(n: int, k: int, code: list[int]) -> tuple[dict, list[int]]:
    """The orbit graph of the conflict graph under the maps v -> v ^ w, w
    in ``code``, as (orbit index of every edge key, adjacency over
    orbits). The orbit of (x, d) is {((x ^ w) & ~2^d, d)}; orbits are
    numbered as they first appear in ``enumerate_edges`` order, two are
    joined when some two of their edges share a k-cycle by ``_conflicts``,
    tested for every pair of edges, and the orbits are then relabelled in
    (-degree, index) order."""
    keys = [e.key() for e in enumerate_edges(n)]
    first: dict[int, int] = {}
    count = 0
    for a in keys:
        if a not in first:
            x, d = a >> 5, a & 31
            for w in code:
                first[((x ^ w) & ~(1 << d)) << 5 | d] = count
            count += 1
    rows = [0] * count
    for a, b in itertools.permutations(keys, 2):
        if _conflicts(a, b, k // 2):
            rows[first[a]] |= 1 << first[b]
    order = sorted(range(len(rows)), key=lambda i: (-rows[i].bit_count(), i))
    label = {i: p for p, i in enumerate(order)}
    relabelled = [
        sum(1 << label[j] for j in range(len(rows)) if rows[i] >> j & 1) for i in order
    ]
    return {a: label[i] for a, i in first.items()}, relabelled


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
    vertex 0 (0 is the minimum vertex of each, so they are the first run
    of the library's enumerator)."""
    full = (1 << n) - 1
    near: list[set[int]] = [set() for _ in range(n)]
    for cyc in itertools.takewhile(lambda c: c[0] == 0, enumerate_cycles(n, k)):
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


def greedy_bt_scan(t: int, size: int) -> tuple[int, ...]:
    """``addsets.greedy_bt`` without its sieve or budget: every candidate
    in turn gets the layer scan, which forms the sums s + (t - r) c over
    the sums s of r-multisets of the set, r < t, and rejects c on a sum
    already a t-sum of the set or formed before."""
    elems = [1]
    subs = [{0}] + [{r} for r in range(1, t)]
    full = {t}
    cand = 1
    while len(elems) < size:
        cand += 1
        fresh: set[int] = set()
        ok = True
        for r in range(t):
            for s in subs[r]:
                val = s + (t - r) * cand
                if val in full or val in fresh:
                    ok = False
                    break
                fresh.add(val)
            if not ok:
                break
        if not ok:
            continue
        full |= fresh
        for r in range(t - 1, 0, -1):
            subs[r] |= {s + j * cand for j in range(1, r + 1) for s in subs[r - j]}
        elems.append(cand)
    return tuple(elems)


def smallest_irreducible_products(t: int, q: int) -> tuple:
    """``addsets._smallest_irreducible`` by its definition: the lower
    coefficients of the first monic polynomial of degree t over GF(q), in
    base-q order, that no product of two monic polynomials of positive
    degree equals."""

    def monic(degree):
        for low in itertools.product(range(q), repeat=degree):
            yield (*low, 1)

    products = set()
    for d in range(1, t // 2 + 1):
        for a in monic(d):
            for b in monic(t - d):
                prod = [0] * (t + 1)
                for i, x in enumerate(a):
                    for j, y in enumerate(b):
                        prod[i + j] = (prod[i + j] + x * y) % q
                products.add(tuple(prod))
    for m in range(q**t):
        low = tuple(m // q**i % q for i in range(t))
        if (*low, 1) not in products:
            return low
    raise InternalError(f"no irreducible of degree {t} over GF({q})")


def bose_chowla_table(t: int, q: int) -> tuple[int, ...]:
    """``addsets.bose_chowla`` as it was with a table of logs: the same
    primitive element theta, then a dict from each of the q^t - 1 powers
    of theta to its exponent, read at theta + a for every a in GF(q)."""
    order = q**t - 1
    modpoly = addsets._smallest_irreducible(t, q)
    one = tuple([1] + [0] * (t - 1))
    factors = addsets._prime_factors(order)
    for m in range(2, order + 1):
        theta = addsets._decode_element(m, q, t)
        if all(
            addsets._poly_pow(theta, order // p, modpoly, q, t) != one
            for p in factors
        ):
            break
    log = {}
    power = one
    for e in range(order):
        log[power] = e
        power = addsets._poly_mul(power, theta, modpoly, q, t)
    return tuple(sorted(log[((theta[0] + a) % q, *theta[1:])] for a in range(q)))


def count_c2_sets(s, mod: int, n: int) -> int:
    """Distinct construction2 colors from a set of (sum mod ``mod``, size
    mod 3) pairs per direction: the pair-set kernel that
    ``coloring.count_colors`` ran when 2N >= 2^n."""
    colors = set()
    for j in range(1, n + 1):
        reach = {(0, 0)}
        for i in range(1, n + 1):
            if i == j:
                continue
            step = s[i - 1] % mod
            reach |= {((a + step) % mod, (c + 1) % 3) for a, c in reach}
        off = (2 * s[j - 1]) % mod
        colors |= {((a + off) % mod, (c + 1) % 3) for a, c in reach}
    return len(colors)


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


def verify_3ap_free_doubles(elems):
    """The bitset scan that the parity split of ``verify_3ap_free``
    replaced: with M = sum 2^v and D = sum 2^(2v) over the set, bit
    z - x - 1 of ((D >> x) & M) >> (x + 1) is set exactly when z = 2y - x
    is in the set for some y > x; x ascends, and the lowest bit gives the
    smallest z, hence the smallest y."""
    s = sorted(elems)
    members = sum(1 << v for v in s)
    doubles = sum(1 << 2 * v for v in s)
    for xval in s:
        hit = ((doubles >> xval) & members) >> (xval + 1)
        if hit:
            zval = xval + (hit & -hit).bit_length()
            return False, (xval, (xval + zval) // 2, zval)
    return True, None


def pair_starts_endpoint_budgets(
    n: int, k: int, b1: int, t1: int, b2: int, t2: int
):
    """Ascending vertices s, at most both bottoms, from which a closed walk
    of length at most k runs through the edges (b1, t1) and (b2, t2),
    given by their endpoints: every minimum vertex of a k-cycle through
    the edges is among them.

    The shortest such walk leaves s for an endpoint u of one edge and
    returns from an endpoint w of the other, so it is
    |s ^ u| + |s ^ w| + 2 + |u' ^ w'| long, with u', w' the other
    endpoints. That is |u ^ w| plus twice the bits where s differs from
    both u and w, which bounds those bits by a budget per choice of
    (u, w). The bits of s are fixed from the highest down, 0 before 1,
    and a prefix is dropped once every budget is spent or its least
    completion exceeds the bottoms; so the walk meets no dead end but
    those the bottoms cause.
    """
    full = (1 << n) - 1
    top = min(b1, b2)
    ends1, ends2 = (b1, t1), (b2, t2)
    agree, budgets = [], []
    for i, u in enumerate(ends1):
        for j, w in enumerate(ends2):
            other = (ends1[1 - i] ^ ends2[1 - j]).bit_count()
            spare = k - 2 - other - (u ^ w).bit_count()
            if spare >= 0:
                agree.append((u, full & ~(u ^ w)))
                budgets.append(spare // 2)

    def walk(bit: int, prefix: int, room: list[int]):
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


def creates_solution_scan(system, kept, cand: int, max_nodes: int) -> bool:
    """Whether adding ``cand`` to the kept set yields a nontrivial solution,
    as a scan over every assignment: each position, in the equation's own
    order, tries every value of the kept set with ``cand``, pruned only by
    the least and greatest sums the remaining positions can reach.
    ``max_nodes`` bounds the values tried per equation, and exceeding it
    raises BudgetError."""
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


def creates_solution_orbits(system, kept, cand: int, max_nodes: int) -> bool:
    """Whether adding ``cand`` to the kept set yields a nontrivial solution
    of an equation of the system, by the orbit search that
    ``addsets.equation_free_subset`` ran before its split test;
    ``max_nodes`` bounds the search nodes of each equation
    (``solution_search_orbits``), and exceeding it raises BudgetError.
    Unlike the split test it needs no solution-free kept set."""
    return any(solution_search_orbits((eq,), kept, cand, max_nodes)[0] for eq in system)


def solution_search_orbits(system, kept, cand: int, budget: int) -> tuple[bool, int]:
    """(whether adding ``cand`` to the kept set yields a nontrivial
    solution, search nodes visited).

    Only assignments using ``cand`` at least once are searched.

    The search visits one assignment per orbit under permutations of
    positions with equal coefficients. Such a permutation keeps the sum
    a_1 x_1 + ... + a_k x_k, since it only swaps equal terms a x_i and
    a x_j; it keeps the coefficient sum of each value class, so it keeps
    triviality; and it keeps the set of values used, so it keeps whether
    ``cand`` is used. The answer is therefore the same on a whole orbit.
    The positions are sorted by coefficient, so equal coefficients form
    runs, and within a run each position takes a value at least that of
    the position before it: sorting the values within each run maps
    every assignment to exactly one such representative of its orbit.

    A node is one value tried at one position; ``budget`` bounds the
    nodes of all equations together, and exceeding it raises BudgetError.
    Admitting 8 after 1, 2 against ``conjecture_system(22)`` takes 2,185
    nodes here and 176,271 in ``creates_solution_scan``.
    """
    values = sorted(list(kept) + [cand])
    spent = 0
    for coeffs in system:
        eq = sorted(coeffs)
        k = len(eq)
        suffix_min, suffix_max = addsets._suffix_bounds(eq, values[0], values[-1])
        # run_start[pos]: whether pos begins a run of equal coefficients
        run_start = [pos == 0 or eq[pos] != eq[pos - 1] for pos in range(k)]
        assignment = [0] * k
        nodes = 0
        cap = budget - spent

        def rec(pos: int, partial: int, used: bool, first: int) -> bool:
            nonlocal nodes
            if pos == k:
                return (
                    partial == 0 and used and not addsets._is_trivial(eq, assignment)
                )
            a = eq[pos]
            for idx in range(0 if run_start[pos] else first, len(values)):
                nodes += 1
                if nodes > cap:
                    raise BudgetError(f"solution check exceeded {budget} nodes")
                val = values[idx]
                nxt = partial + a * val
                if nxt + suffix_min[pos + 1] > 0 or nxt + suffix_max[pos + 1] < 0:
                    continue
                assignment[pos] = val
                if rec(pos + 1, nxt, used or val == cand, idx):
                    return True
            return False

        found = rec(0, 0, False, 0)
        spent += nodes
        if found:
            return True, spent
    return False, spent


def equation_free_subset_orbits(system, limit: int, mode: str):
    """``addsets.equation_free_subset`` with every candidate checked by
    ``creates_solution_orbits``, under no budget: the greedy scan keeps
    each element that stays solution-free, and the exhaustive search
    backtracks to a largest such set. Returns (elements, optimal_flag)."""
    if mode == "greedy":
        kept = []
        for cand in range(1, limit + 1):
            if not creates_solution_orbits(system, kept, cand, 10**12):
                kept.append(cand)
        return tuple(kept), False
    best: list[int] = []
    kept = []

    def rec(cand: int) -> None:
        nonlocal best
        if cand > limit:
            if len(kept) > len(best):
                best = list(kept)
            return
        if len(kept) + (limit - cand + 1) <= len(best):
            return
        if not creates_solution_orbits(system, kept, cand, 10**12):
            kept.append(cand)
            rec(cand + 1)
            kept.pop()
        rec(cand + 1)

    rec(1)
    return tuple(best), True


def is_edge_key(n: int, key) -> bool:
    """Whether ``key`` is ``Edge.key()`` of an edge of Q_n, by building the
    Edge it reads as and checking it with ``validate_edge``."""
    if type(key) is not int:
        return False
    try:
        e = Edge(key >> 5, (key & 31) + 1)
        validate_edge(n, e)
    except UsageError:
        return False
    return e.key() == key


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


def verify_q3_equivalence(coloring) -> tuple[bool, bool]:
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
    for trio in itertools.combinations(dims, 3):
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
