import random
import time
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from rainbowcube.addsets import greedy_bt
from rainbowcube.coloring import (
    EdgeColoring,
    construction1,
    construction2,
    count_colors,
    derive_c2_params,
)
from rainbowcube import verifier
from rainbowcube.errors import BudgetError, InternalError, UsageError
from rainbowcube.hypercube import (
    Edge,
    cycle_keys,
    cycles_containing_pair,
    edges_of_cycle,
    enumerate_cycles,
    enumerate_edges,
)
from rainbowcube.verifier import (
    Violation,
    _clashes,
    _conflicts,
    _greedy_clique,
    _neighbourhood_size,
    _neighbourhoods,
    _smallest_cycle,
    _try_color,
    conflict_graph,
    exact_min_colors,
    lower_bound_clique,
    verify_q3_equivalence,
    verify_rainbow,
)

import oracles


def explicit(n, k, table):
    return EdgeColoring(n, k, "explicit", {}, table)


def distinct_coloring(n, k=6):
    return explicit(
        n, k, {e.key(): (i, 0) for i, e in enumerate(enumerate_edges(n))}
    )


def monochrome(n, k=6):
    return explicit(n, k, {e.key(): (0, 0) for e in enumerate_edges(n)})


def random_coloring(n, k, palette, rng):
    return explicit(
        n, k, {e.key(): (rng.randrange(palette), 0) for e in enumerate_edges(n)}
    )


class TestVerifyRainbow:
    def test_distinct_colors_ok(self):
        assert verify_rainbow(distinct_coloring(2, 4), 4) is None

    def test_monochrome_violation_witness(self):
        vio = verify_rainbow(monochrome(3), 6)
        assert isinstance(vio, Violation)
        assert vio.cycle == (0, 1, 3, 2, 6, 4)  # canonically smallest 6-cycle
        assert (vio.e1, vio.e2) == (Edge(0, 1), Edge(0, 3))
        assert vio.color == (0, 0)

    def test_violation_edges_live_on_cycle(self):
        rng = random.Random(7)
        vio = verify_rainbow(random_coloring(3, 6, 4, rng), 6)
        assert vio is not None
        edges = set(edges_of_cycle(vio.cycle))
        assert vio.e1 in edges and vio.e2 in edges
        assert vio.e1 < vio.e2

    @pytest.mark.parametrize("seed", range(12))
    def test_witness_is_smallest_clashing_cycle(self, seed):
        rng = random.Random(seed)
        col = random_coloring(4, 6, rng.choice((24, 96, 400, 4000)), rng)
        table = col.key_table()
        expected = None
        for cyc in oracles.canonical_cycles_nx(4, 6):
            pairs = sorted(oracles.cycle_edge_pairs(cyc))
            colors = [table[Edge(b, d).key()] for b, d in pairs]
            clash = next(
                (
                    (pairs[i], pairs[j], colors[i])
                    for i in range(6)
                    for j in range(i + 1, 6)
                    if colors[i] == colors[j]
                ),
                None,
            )
            if clash is not None:
                expected = (cyc, *clash)
                break
        vio = verify_rainbow(col, 6)
        got = vio and (
            vio.cycle, (vio.e1.bottom, vio.e1.dir), (vio.e2.bottom, vio.e2.dir), vio.color
        )
        assert got == expected

    def test_construction2_small_cubes(self):
        for n in (3, 4):
            s, cap, _ = derive_c2_params(n, 1)
            assert verify_rainbow(construction2(n, s, cap), 6) is None

    def test_partial_coloring_rejected(self):
        table = {e.key(): (0, 0) for e in enumerate_edges(3)}
        table.pop(Edge(0, 2).key())
        with pytest.raises(UsageError):
            verify_rainbow(explicit(3, 6, table), 6)

    def test_odd_k_rejected(self):
        with pytest.raises(UsageError):
            verify_rainbow(distinct_coloring(3), 5)


# Every (n, k) with n <= 5 whose conflict graph is in the supported class.
SMALL_CLASSES = [
    (n, k)
    for n in range(2, 6)
    for k in range(4, 17, 2)
    if k <= 1 << n and (n <= 4 or k <= 12)
]


def planted(col, k, rng):
    """``col`` as a table where one edge of a random k-cycle takes the
    color of another edge of that cycle."""
    cycles = list(enumerate_cycles(col.n, k, starts=(rng.randrange(8),)))
    a, b = rng.sample(cycle_keys(rng.choice(cycles)), 2)
    table = col.key_table()
    table[a] = table[b]
    return explicit(col.n, col.k, table)


class TestFastPathMatchesEnumeration:
    """verify_rainbow and conflict_graph against the every-cycle slow paths."""

    @pytest.mark.parametrize("n,k", [c for c in SMALL_CLASSES if c != (5, 12)])
    def test_seeded_palettes(self, n, k):
        m = n << n - 1
        rng = random.Random(f"palettes {n} {k}")
        for palette in (1, 2, max(m // 2, 1), 3 * m, 50 * m):
            col = random_coloring(n, k, palette, rng)
            assert verify_rainbow(col, k) == oracles.verify_rainbow_enum(col, k)

    def test_largest_small_class(self):
        col = random_coloring(5, 12, 3 * 80, random.Random(512))
        assert verify_rainbow(col, 12) == oracles.verify_rainbow_enum(col, 12)

    @pytest.mark.parametrize("n,k", [(6, 8), (8, 6)])
    def test_planted_clash_and_monochrome(self, n, k):
        if k == 6:
            s, cap, _ = derive_c2_params(n, 1)
            col = construction2(n, s, cap)
        else:
            col = construction1(n, k, greedy_bt(k // 4 - 1, n))
        assert verify_rainbow(col, k) is None
        rng = random.Random(n * 100 + k)
        cases = [planted(col, k, rng) for _ in range(2)] + [monochrome(n, k)]
        for case in cases:
            vio = verify_rainbow(case, k)
            assert vio is not None
            assert vio == oracles.verify_rainbow_enum(case, k)

    @pytest.mark.parametrize("n,k", [(4, 6), (5, 6), (4, 8), (5, 8)])
    def test_clash_at_every_start(self, n, k):
        # a clash on a cycle from each start block, so the witness is
        # recovered from every region of the cube
        col = random_coloring(n, k, 10**9, random.Random(n * 10 + k))
        assert verify_rainbow(col, k) is None
        rng = random.Random(k)
        for start in range(1 << n):
            cycles = list(enumerate_cycles(n, k, starts=(start,)))
            if not cycles:
                continue
            a, b = rng.sample(cycle_keys(rng.choice(cycles)), 2)
            table = col.key_table()
            table[a] = table[b]
            case = explicit(n, k, table)
            assert verify_rainbow(case, k) == oracles.verify_rainbow_enum(case, k)

    @pytest.mark.parametrize("n,k", [c for c in SMALL_CLASSES if c[1] <= 10])
    def test_conflict_graph_matches_enumeration(self, n, k):
        assert list(conflict_graph(n, k).adj) == oracles.conflict_adjacency_enum(n, k)

    def test_few_color_tables_take_both_scan_branches(self):
        # 1-, 2- and 3-color tables hold classes on both sides of |N| + 1,
        # so both the pair test and the neighbourhood scan find clashes
        branches = set()
        for n, k in [(3, 4), (4, 4), (4, 6), (4, 8), (5, 4), (5, 6)]:
            size = _neighbourhood_size(n, k // 2)
            rng = random.Random(f"few colors {n} {k}")
            for palette in (1, 2, 3):
                for _ in range(2):
                    col = random_coloring(n, k, palette, rng)
                    sizes = Counter(col.key_table().values()).values()
                    branches.update(s - 1 <= size for s in sizes)
                    assert verify_rainbow(col, k) == oracles.verify_rainbow_enum(col, k)
        assert branches == {True, False}

    @pytest.mark.parametrize("n,k", [(4, 6), (5, 6), (4, 8), (5, 8)])
    def test_edge_with_more_than_n_partners(self, n, k):
        # n + 1 neighbours of one edge take its color: more than n clashing
        # pairs, all through that edge
        rng = random.Random(f"hub {n} {k}")
        col = random_coloring(n, k, 10**9, rng)
        assert verify_rainbow(col, k) is None
        table = col.key_table()
        hub = rng.choice(sorted(table))
        near = _neighbourhoods(n, k // 2)[hub & 31]
        x = hub >> 5
        for y, clear, d in rng.sample(near, n + 1):
            table[((x ^ y) & clear) << 5 | d] = table[hub]
        case = explicit(n, k, table)
        assert verify_rainbow(case, k) == oracles.verify_rainbow_enum(case, k)

    @pytest.mark.parametrize("n,k", [(6, 4), (7, 4)])
    def test_one_clash_in_a_large_class(self, n, k):
        # a class of |N| + 2 edges, too large for the pair test, holding a
        # single clashing pair a < b where the bottom of a has the
        # direction bit of b set, so only the neighbourhood scan from a
        # (translated and masked) can find it
        half = k // 2
        rng = random.Random(f"large class {n} {k}")
        keys = [e.key() for e in enumerate_edges(n)]
        rng.shuffle(keys)
        members = next(
            [a, b]
            for a in keys
            for b in keys
            if a < b and a >> 5 >> (b & 31) & 1 and _conflicts(a, b, half)
        )
        for c in keys:
            if all(c != m and not _conflicts(m, c, half) for m in members):
                members.append(c)
        assert len(members) >= _neighbourhood_size(n, half) + 2
        table = {key: (i, 0) for i, key in enumerate(keys)}
        for key in members:
            table[key] = (-1, 0)
        col = explicit(n, k, table)
        vio = verify_rainbow(col, k)
        assert vio is not None
        assert vio == oracles.verify_rainbow_enum(col, k)

    @pytest.mark.parametrize("n,k", [(4, 6), (5, 6), (4, 8), (5, 8), (4, 12)])
    def test_near_monochrome(self, n, k):
        # one color but on the smallest k-cycle, whose edges are rainbow:
        # the floor prunes, and the stop rule never fires, as the smallest
        # cycle is no witness
        table = {e.key(): (0, 0) for e in enumerate_edges(n)}
        for i, key in enumerate(cycle_keys(min(enumerate_cycles(n, k)))):
            table[key] = (i + 1, 0)
        col = explicit(n, k, table)
        vio = verify_rainbow(col, k)
        assert vio is not None
        assert vio == oracles.verify_rainbow_enum(col, k)

    def test_k10_table_with_more_than_n_clashing_pairs(self):
        # the oracle takes seconds here, so its witness is written out
        col = explicit(6, 10, oracles.k10_mod_table(6))
        classes = {}
        for key, color in col.key_table().items():
            classes.setdefault(color, []).append(key)
        assert len(list(_clashes(6, 5, classes.values()))) == 8
        assert verify_rainbow(col, 10) == Violation(
            (0, 1, 3, 2, 6, 4, 36, 32, 40, 8), Edge(1, 2), Edge(4, 6), (5, 2)
        )


@st.composite
def few_color_tables(draw):
    """(coloring, k): an explicit table on Q_n, n <= 4, in 1 to 4 colors,
    and an even k <= 2^n. Hypothesis leans to tiny draws, so the table
    comes from a seeded generator."""
    n = draw(st.integers(2, 4))
    k = draw(st.sampled_from(range(4, (1 << n) + 1, 2)))
    palette = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return random_coloring(n, k, palette, rng), k


@settings(max_examples=150, deadline=None)
@given(few_color_tables())
def test_witness_matches_enumeration_on_few_color_tables(case):
    col, k = case
    assert verify_rainbow(col, k) == oracles.verify_rainbow_enum(col, k)


@pytest.mark.parametrize(
    "n,k",
    [(n, k) for n in range(2, 6) for k in range(4, 13, 2) if k <= 1 << n]
    + [(6, k) for k in (4, 6, 8)],
)
def test_smallest_cycle(n, k):
    assert _smallest_cycle(n, k) == min(enumerate_cycles(n, k))


NEIGHBOURHOOD_CLASSES = SMALL_CLASSES + [(6, 8), (6, 10), (7, 6), (8, 6), (9, 8)]
neighbourhoods_enum = lru_cache(maxsize=None)(oracles.neighbourhoods_enum)


@lru_cache(maxsize=None)
def relation(n, k):
    """Conflict-graph node index by edge key, and the adjacency."""
    g = conflict_graph(n, k)
    return {e.key(): i for i, e in enumerate(g.edges)}, g.adj


def moved(key, v, perm):
    """Edge key after XOR by ``v``, then the coordinate permutation ``perm``."""
    x, d = key >> 5, key & 31
    x = (x ^ v) & ~(1 << d)
    return sum(1 << perm[c] for c in range(len(perm)) if x >> c & 1) << 5 | perm[d]


def orbit_type(a, b):
    """Type (same_dir, bit, weight) of edge key ``b`` seen from edge key
    ``a``: XOR by the bottom of a and the transposition of coordinates 1 and
    d + 1 (d = a's direction - 1) move a to edge (0, 1), and the
    permutations of coordinates 2..n, which fix it, sort every other edge
    by whether it has a's direction, bit d of its bottom and the number of
    its other ones."""
    d, e = a & 31, b & 31
    z = (a ^ b) >> 5 & ~(1 << e)
    bit = z >> d & 1
    return e == d, bit, z.bit_count() - bit


def cube_types(m):
    """The 3m - 2 orbit types of the edges of Q_m."""
    return {(True, 0, w) for w in range(m)} | {
        (False, bit, w) for bit in (0, 1) for w in range(m - 1)
    }


def span_representatives(n):
    """(span, edge) for one edge of each orbit type of Q_n but the self
    type, as seen from edge (0, 1): its span with (0, 1) is the number of
    coordinates among both directions and the bits of its bottom."""
    for s in range(2, n + 1):
        yield s, Edge((1 << s) - 2, 1)  # the direction of (0, 1)
        for bit in (0, 1):  # direction 2, with or without coordinate 1 set
            yield s, Edge((1 << s) - 4 | bit, 2)


@st.composite
def symmetry_cases(draw):
    """(n, k, a, b, v, perm): two distinct edge keys of Q_n, a vertex and a
    permutation of the coordinates."""
    n, k = draw(st.sampled_from(SMALL_CLASSES))
    keys = [e.key() for e in enumerate_edges(n)]
    a, b = draw(st.lists(st.sampled_from(keys), min_size=2, max_size=2, unique=True))
    v = draw(st.integers(0, (1 << n) - 1))
    perm = draw(st.permutations(range(n)))
    return n, k, a, b, v, perm


class TestConflictTypes:
    """The orbit-type relation against the every-cycle enumeration."""

    @pytest.mark.parametrize("n,k", NEIGHBOURHOOD_CLASSES)
    def test_neighbourhoods_match_enumeration(self, n, k):
        nbrs = _neighbourhoods(n, k // 2)
        assert nbrs == neighbourhoods_enum(n, k)
        assert {len(near) for near in nbrs} == {_neighbourhood_size(n, k // 2)}

    @pytest.mark.parametrize("n,k", [c for c in SMALL_CLASSES if c[1] <= 10])
    def test_type_test_matches_enumeration(self, n, k):
        keys = [e.key() for e in enumerate_edges(n)]
        adj = oracles.conflict_adjacency_enum(n, k)
        for i, a in enumerate(keys):
            got = [j for j, b in enumerate(keys) if j != i and _conflicts(a, b, k // 2)]
            assert got == [j for j in range(len(keys)) if adj[i] >> j & 1]

    def test_types_from_the_smallest_cube(self):
        # a k-cycle spans at most k/2 coordinates: the types of the edges
        # sharing one with edge (0, 1) never exceed the 3m - 2 types of
        # Q_m, m = min(n, k/2), and by the span rule they are all of them
        # but the self type, which only the edge itself has
        for n, k in NEIGHBOURHOOD_CLASSES:
            m = min(n, k // 2)
            types = {
                orbit_type(0, y << 5 | e)
                for y, _, e in neighbourhoods_enum(n, k)[0]
            }
            assert (True, 0, 0) not in types
            assert types | {(True, 0, 0)} == cube_types(m)
            assert len(types) == 3 * m - 3
            assert all(weight <= m - 1 - (not same) for same, _, weight in types)

    @settings(max_examples=200, deadline=None)
    @given(symmetry_cases())
    def test_relation_invariant_under_translation(self, case):
        n, k, a, b, v, _ = case
        index, adj = relation(n, k)
        identity = list(range(n))
        a2, b2 = moved(a, v, identity), moved(b, v, identity)
        assert adj[index[a]] >> index[b] & 1 == adj[index[a2]] >> index[b2] & 1
        assert _conflicts(a, b, k // 2) == _conflicts(a2, b2, k // 2)

    @settings(max_examples=200, deadline=None)
    @given(symmetry_cases())
    def test_relation_invariant_under_coordinate_permutation(self, case):
        n, k, a, b, _, perm = case
        index, adj = relation(n, k)
        a2, b2 = moved(a, 0, perm), moved(b, 0, perm)
        assert adj[index[a]] >> index[b] & 1 == adj[index[a2]] >> index[b2] & 1
        assert _conflicts(a, b, k // 2) == _conflicts(a2, b2, k // 2)


class TestSpanRule:
    """Two edges share a k-cycle iff their span has at most k/2
    coordinates, checked by first-hit cycle search on one edge of each
    orbit type against edge (0, 1)."""

    @pytest.mark.parametrize("m", range(2, 15))
    def test_spans_up_to_half_and_one_above(self, m):
        k = 2 * m
        for s, edge in span_representatives(m):
            assert cycles_containing_pair(m, k, Edge(0, 1), edge)[0]
            assert _conflicts(0, edge.key(), m)
        for s, edge in span_representatives(m + 1):
            if s == m + 1:
                assert not cycles_containing_pair(m + 1, k, Edge(0, 1), edge)[0]
                assert not _conflicts(0, edge.key(), m)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_every_even_length_in_small_cubes(self, n):
        for k in range(4, (1 << n) + 1, 2):
            for s, edge in span_representatives(n):
                exists = cycles_containing_pair(n, k, Edge(0, 1), edge)[0]
                assert exists == (s <= k // 2) == _conflicts(0, edge.key(), k // 2)


class TestConflictGraph:
    def test_q3_c6_complete(self):
        g = conflict_graph(3, 6)
        assert len(g.edges) == 12 and g.is_complete()

    def test_q2_c4_complete(self):
        g = conflict_graph(2, 4)
        assert len(g.edges) == 4 and g.is_complete()

    def test_q3_c4_six_regular(self):
        g = conflict_graph(3, 4)
        assert len(g.edges) == 12
        assert all(g.degree(i) == 6 for i in range(12))

    @pytest.mark.parametrize("n,k", [(3, 4), (3, 6), (4, 4), (4, 6), (4, 8)])
    def test_adjacency_matches_networkx_cycles(self, n, k):
        edges, adj = oracles.conflict_adjacency_nx(n, k)
        g = conflict_graph(n, k)
        assert [(e.bottom, e.dir) for e in g.edges] == edges
        assert [
            {j for j in range(len(edges)) if g.adj[i] >> j & 1}
            for i in range(len(edges))
        ] == adj

    def test_deadline_checked_while_expanding_neighbourhoods(self):
        start = time.monotonic()
        with pytest.raises(BudgetError) as info:
            # every edge of Q_12 is in the ball: about 0.5 s of expansion
            conflict_graph(12, 24, deadline=start + 0.05)
        assert time.monotonic() - start < 1
        assert info.value.kind == "timeout"
        assert info.value.bounds == (1, 12 << 11)

    def test_budget_class(self):
        with pytest.raises(BudgetError):
            conflict_graph(7, 4)
        with pytest.raises(BudgetError):
            conflict_graph(6, 12)

    @pytest.mark.parametrize("n,k", [(3, 4), (3, 6), (4, 4), (4, 6)])
    def test_properness_equals_rainbow(self, n, k):
        g = conflict_graph(n, k)
        rng = random.Random(1234 + n * 10 + k)
        edge_count = len(g.edges)
        for trial in range(60):
            palette = rng.choice((2, 4, 8, 16, edge_count))
            col = random_coloring(n, k, palette, rng)
            table = col.key_table()
            values = [table[e.key()] for e in g.edges]
            proper = all(
                not g.adj[i] >> j & 1 or values[i] != values[j]
                for i in range(edge_count)
                for j in range(i + 1, edge_count)
            )
            assert proper == (verify_rainbow(col, k) is None)


class TestExactMinColors:
    def test_q2_c4(self):
        value, col = exact_min_colors(2, 4)
        assert value == 4
        assert verify_rainbow(col, 4) is None

    def test_q3_c6_complete_graph(self):
        value, col = exact_min_colors(3, 6)
        assert value == 12
        assert count_colors(col) == 12

    @pytest.mark.parametrize("n,k", [(2, 4), (3, 4), (3, 6), (3, 8)])
    def test_matches_brute_chromatic(self, n, k):
        g = conflict_graph(n, k)
        value, col = exact_min_colors(n, k)
        assert value == oracles.brute_chromatic(g.adj)
        assert verify_rainbow(col, k) is None
        assert count_colors(col) == value

    def test_observed_monotonicity_in_n(self):
        values = [exact_min_colors(n, 4)[0] for n in (2, 3, 4)]
        assert values == sorted(values)
        assert values[-1] == 4

    def test_timeout_reports_bounds(self):
        with pytest.raises(BudgetError) as info:
            exact_min_colors(4, 6, time_limit=0.0)
        assert info.value.kind == "timeout"

    def test_class_budget_without_timeout(self):
        with pytest.raises(BudgetError) as info:
            exact_min_colors(10, 12)
        assert info.value.kind == "class"

    def test_timeout_before_greedy_reports_edge_count(self):
        with pytest.raises(BudgetError) as info:
            exact_min_colors(4, 6, time_limit=0.0)
        assert info.value.bounds == (10, 32)  # greedy clique, edges of Q_4

    def test_timeout_covers_conflict_graph_build(self):
        start = time.monotonic()
        with pytest.raises(BudgetError) as info:
            exact_min_colors(12, 4, time_limit=0.05)  # about 1.1 s to build
        assert time.monotonic() - start < 1
        assert info.value.kind == "timeout"
        assert info.value.bounds == (1, 12 << 11)

    def test_oversized_conflict_graph_refused_before_building(self):
        start = time.monotonic()
        with pytest.raises(BudgetError) as info:
            exact_min_colors(16, 4, time_limit=1000)  # about 32 GB of adjacency
        assert time.monotonic() - start < 1
        assert info.value.kind == "class"
        with pytest.raises(BudgetError) as info:
            conflict_graph(13, 4, deadline=time.monotonic() + 1000)
        assert info.value.kind == "class"

    def test_default_time_limit(self, monkeypatch):
        monkeypatch.setattr(verifier, "EXACT_TIME_LIMIT", 0.5)
        start = time.monotonic()
        with pytest.raises(BudgetError) as info:
            exact_min_colors(4, 6)  # needs tens of seconds to close
        assert time.monotonic() - start < 3
        assert info.value.kind == "timeout"
        lo, hi = info.value.bounds
        assert lo <= 16 <= hi  # f(4, 6) = 16 by the independence bound

    def test_timeout_covers_greedy_phase(self):
        start = time.monotonic()
        with pytest.raises(BudgetError) as info:
            exact_min_colors(10, 4, time_limit=0.5)
        assert time.monotonic() - start < 5
        assert info.value.kind == "timeout"
        lo, hi = info.value.bounds
        assert lo <= 10 <= hi  # f(10, 4) = 10

    @pytest.mark.parametrize("limit", [float("nan"), float("inf"), float("-inf")])
    def test_time_limit_must_be_finite(self, limit):
        with pytest.raises(UsageError):
            exact_min_colors(3, 6, time_limit=limit)


class TestTryColor:
    def test_long_descent_does_not_recurse(self):
        assert _try_color(tuple([0] * 1500), 1, [], None) == [0] * 1500

    def test_infeasible_limit(self):
        g = conflict_graph(3, 6)  # complete on 12 nodes
        assert _try_color(g.adj, 11, [], None) is None
        assert _try_color(g.adj, 11, list(range(12)), None) is None

    @pytest.mark.parametrize("n,k", [(3, 4), (4, 4), (4, 6), (5, 4), (5, 6)])
    def test_first_descent_is_dsatur_greedy(self, n, k):
        adj = conflict_graph(n, k).adj
        assert _try_color(adj, len(adj), [], None) == oracles.dsatur_greedy(adj)

    @pytest.mark.parametrize(
        "n,k", [(3, 4), (4, 4), (5, 4), (6, 4), (3, 6), (4, 8), (5, 6)]
    )
    def test_matches_scan_search(self, n, k):
        adj = conflict_graph(n, k).adj
        clique = _greedy_clique(adj)
        assert _try_color(adj, len(adj), [], None) == oracles.dsatur_search_scan(
            adj, len(adj), []
        )
        # (5, 6) at clique + 2 = 15 runs for minutes either way
        top = len(clique) + (1 if (n, k) == (5, 6) else 2)
        for limit in range(len(clique) - 1, top + 1):
            for seed in ([], clique):
                assert _try_color(adj, limit, seed, None) == (
                    oracles.dsatur_search_scan(adj, limit, seed)
                ), (limit, seed)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.integers(-1, 3), st.booleans())
    def test_matches_scan_search_on_random_graphs(self, graph_seed, offset, seeded):
        # Hypothesis leans to tiny sizes and densities, so the graph comes
        # from a seeded generator; uneven node weights spread the degrees,
        # which conflict graphs (all regular) never do, so the degree
        # tie-break is exercised
        rng = random.Random(graph_seed)
        m = rng.randint(2, 40)
        density = rng.random()
        weight = [rng.random() for _ in range(m)]
        adj = [0] * m
        for j in range(m):
            for i in range(j):
                if rng.random() < density * (weight[i] + weight[j]) / 2:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        adj = tuple(adj)
        clique = _greedy_clique(adj)
        limit = max(0, len(clique) + offset)
        seed = clique if seeded else []
        assert _try_color(adj, limit, seed, None) == oracles.dsatur_search_scan(
            adj, limit, seed
        )


class TestLowerBoundClique:
    def test_q5_c4(self):
        count, cert = lower_bound_clique(5, 4)
        assert count == 5
        assert len(cert.edges) == 5
        assert len(cert.witnesses) == 10

    def test_requires_n_above_k(self):
        with pytest.raises(UsageError):
            lower_bound_clique(8, 8)

    def test_requires_k_divisible_by_four(self):
        with pytest.raises(UsageError):
            lower_bound_clique(9, 6)

    @pytest.mark.parametrize(
        "n,k", [(5, 4), (6, 4), (7, 4), (8, 4), (9, 8), (10, 8), (11, 8), (13, 12)]
    )
    def test_matches_edge_set_oracle(self, n, k):
        def fingerprint(count, cert):
            # witness items hashed in order, so two 367,653-pair
            # certificates of (13, 12) are never held at once
            items = tuple(cert.witnesses.items())
            return count, cert.level, cert.edges, len(items), hash(items)

        want = fingerprint(*oracles.lower_bound_clique_edges(n, k))
        assert fingerprint(*lower_bound_clique(n, k)) == want

    @pytest.mark.parametrize("n,k", [(16, 12), (17, 16)])
    def test_oversized_certificate_refused_at_once(self, monkeypatch, n, k):
        def never(*args):
            raise AssertionError("a witness was built")

        monkeypatch.setattr(verifier, "_same_level_cycle", never)
        start = time.monotonic()
        with pytest.raises(BudgetError, match="witness cycles") as info:
            lower_bound_clique(n, k)
        assert info.value.kind == "class"
        assert time.monotonic() - start < 0.5

    @pytest.mark.parametrize(
        "cycle",
        [
            (0, 4, 12, 8),  # a valid 4-cycle through neither edge of the pair
            (4, 12, 8, 0),  # the same cycle, not canonical
            (0, 1, 3, 6),  # 3 and 6 not adjacent
        ],
    )
    def test_witness_check_is_live(self, monkeypatch, cycle):
        # the router checks nothing, so its output reaches the one check
        monkeypatch.setattr(
            verifier, "_same_level_cycle", lambda n, k, v, bi, x, bj, may_flip: cycle
        )
        with pytest.raises(InternalError, match="failed validation"):
            lower_bound_clique(5, 4)


class TestQ3Equivalence:
    def test_fully_distinct_q3(self):
        assert verify_q3_equivalence(distinct_coloring(3)) == (True, True)

    def test_monochrome_q3(self):
        assert verify_q3_equivalence(monochrome(3)) == (False, False)

    def test_construction2_q4(self):
        s, cap, _ = derive_c2_params(4, 1)
        assert verify_q3_equivalence(construction2(4, s, cap)) == (True, True)

    def test_needs_three_dimensions(self):
        with pytest.raises(UsageError):
            verify_q3_equivalence(distinct_coloring(2))

    @pytest.mark.parametrize("n", [3, 4])
    def test_booleans_agree_on_random_colorings(self, n):
        rng = random.Random(99 + n)
        for trial in range(40):
            palette = rng.choice((3, 6, 12, 24))
            col = random_coloring(n, 6, palette, rng)
            a, b = verify_q3_equivalence(col)
            assert a == b
