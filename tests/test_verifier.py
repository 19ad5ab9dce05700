import itertools
import math
import random
import time
from array import array
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
from rainbowcube import lanes, verifier
from rainbowcube.errors import BudgetError, InternalError, UsageError
from rainbowcube.hypercube import (
    Edge,
    _witness_problem,
    cycles_containing_pair,
    edge_level,
    edges_of_cycle,
    enumerate_cycles,
    enumerate_edges,
)
from rainbowcube.lanes import _lanes_hold
from rainbowcube.verifier import (
    Violation,
    _check_degree_order,
    _clashes,
    _code_quotient_coloring,
    _conflicts,
    _greedy_clique,
    _lexicode,
    _neighbourhood_size,
    _neighbourhoods,
    _orbit_graph,
    _smallest_cycle,
    _syndromes,
    _try_color,
    conflict_graph,
    exact_min_colors,
    lower_bound_clique,
    verify_rainbow,
)

import oracles
from oracles import cycle_keys, verify_q3_equivalence


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

    def test_long_cycle_witness(self):
        # the witness search walks 1,000 vertices deep without recursing
        vio = verify_rainbow(monochrome(12, 1000), 1000)
        assert (vio.e1, vio.e2) == (Edge(0, 1), Edge(0, 12))
        assert vio.cycle == _smallest_cycle(12, 1000)

    def test_invalid_witness_raises(self, monkeypatch):
        # the pair search is patched to hand back a walk that is no cycle
        monkeypatch.setattr(verifier, "_pair_cycle", lambda *args: (0, 1, 2, 3, 4, 5))
        with pytest.raises(InternalError, match="violating cycle invalid"):
            verify_rainbow(monochrome(3), 6)


# Every (n, k) with n <= 5 whose every-cycle slow paths stay cheap: k <= 12
# at n = 5, any k at n <= 4.
SMALL_CLASSES = [
    (n, k)
    for n in range(2, 6)
    for k in range(4, 17, 2)
    if k <= 1 << n and (n <= 4 or k <= 12)
]


def planted(col, k, rng):
    """``col`` as a table where one edge of a random k-cycle takes the
    color of another edge of that cycle."""
    start = rng.randrange(8)
    cycles = [
        c
        for c in itertools.takewhile(lambda c: c[0] <= start, enumerate_cycles(col.n, k))
        if c[0] == start
    ]
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
        # a clash on a cycle from each minimum vertex, so the witness is
        # recovered from every region of the cube
        col = random_coloring(n, k, 10**9, random.Random(n * 10 + k))
        assert verify_rainbow(col, k) is None
        rng = random.Random(k)
        for _, run in itertools.groupby(enumerate_cycles(n, k), lambda c: c[0]):
            a, b = rng.sample(cycle_keys(rng.choice(list(run))), 2)
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
    return {key: i for i, key in enumerate(g.keys)}, g.adj


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


def assert_degree_order_is_the_identity(adj):
    # ``_try_color`` and ``_greedy_clique`` take the rows in the order given,
    # which must be (-degree, index) order
    m = len(adj)
    assert sorted(range(m), key=lambda i: (-adj[i].bit_count(), i)) == list(range(m))


def in_degree_order(adj):
    """``adj`` relabelled in (-degree, index) order, the node order that
    ``_try_color`` and ``_greedy_clique`` take."""
    m = len(adj)
    order = sorted(range(m), key=lambda i: (-adj[i].bit_count(), i))
    label = {i: p for p, i in enumerate(order)}
    return tuple(sum(1 << label[j] for j in range(m) if adj[i] >> j & 1) for i in order)


class TestConflictGraph:
    def test_q3_c6_complete(self):
        g = conflict_graph(3, 6)
        assert len(g.keys) == 12
        assert all(a.bit_count() == 11 and not a >> i & 1 for i, a in enumerate(g.adj))

    def test_q2_c4_complete(self):
        g = conflict_graph(2, 4)
        assert len(g.keys) == 4
        assert all(a.bit_count() == 3 and not a >> i & 1 for i, a in enumerate(g.adj))

    def test_q3_c4_six_regular(self):
        g = conflict_graph(3, 4)
        assert len(g.keys) == 12
        assert all(g.adj[i].bit_count() == 6 for i in range(12))

    @pytest.mark.parametrize("n,k", [(3, 4), (3, 6), (4, 4), (4, 6), (4, 8)])
    def test_adjacency_matches_networkx_cycles(self, n, k):
        edges, adj = oracles.conflict_adjacency_nx(n, k)
        g = conflict_graph(n, k)
        assert [(key >> 5, (key & 31) + 1) for key in g.keys] == edges
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
        # the adjacency cap is the only size class; below it the default
        # deadline bounds the build
        assert len(conflict_graph(7, 4).keys) == 7 << 6
        g = conflict_graph(6, 12)  # every span has at most 6 coordinates
        assert all(row.bit_count() == len(g.keys) - 1 for row in g.adj)
        with pytest.raises(BudgetError) as info:
            conflict_graph(13, 4)
        assert info.value.kind == "class"

    def test_deadline_checked_between_dense_edges(self):
        # every two edges of Q_12 conflict at k = 24: the neighbourhood
        # expansion and the base rows take about two expansion times, the
        # rows of the 24,576 edges about five more, so a deadline three
        # expansion times in falls among the rows
        start = time.monotonic()
        _neighbourhoods(12, 12)
        limit = 3 * (time.monotonic() - start)
        start = time.monotonic()
        with pytest.raises(BudgetError) as info:
            conflict_graph(12, 24, deadline=start + limit)
        assert time.monotonic() - start < limit + 0.5
        assert info.value.kind == "timeout"
        assert info.value.bounds == (1, 12 << 11)
        assert info.traceback[-2].name == "_orbit_graph"  # the row loop

    @pytest.mark.parametrize(
        "n,k", [(n, k) for n in range(2, 8) for k in range(4, min(1 << n, 16) + 1, 2)]
    )
    def test_rows_match_pair_scan(self, n, k):
        g = conflict_graph(n, k)
        assert g.keys == tuple(e.key() for e in enumerate_edges(n))
        for a, row in zip(g.keys, g.adj):
            assert row == sum(
                1 << j for j, b in enumerate(g.keys) if b != a and _conflicts(a, b, k // 2)
            )
        assert_degree_order_is_the_identity(g.adj)

    @pytest.mark.parametrize("n,k", [(10, 12), (12, 4), (12, 8)])
    def test_sampled_rows_match_pair_scan(self, n, k):
        g = conflict_graph(n, k)
        rng = random.Random(f"rows {n} {k}")
        for i in rng.sample(range(len(g.keys)), 40):
            a = g.keys[i]
            assert g.adj[i] == sum(
                1 << j for j, b in enumerate(g.keys) if j != i and _conflicts(a, b, k // 2)
            ), i
        assert_degree_order_is_the_identity(g.adj)

    @pytest.mark.parametrize("n,k", [(3, 4), (3, 6), (4, 4), (4, 6)])
    def test_properness_equals_rainbow(self, n, k):
        g = conflict_graph(n, k)
        rng = random.Random(1234 + n * 10 + k)
        edge_count = len(g.keys)
        for trial in range(60):
            palette = rng.choice((2, 4, 8, 16, edge_count))
            col = random_coloring(n, k, palette, rng)
            table = col.key_table()
            values = [table[key] for key in g.keys]
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

    def test_class_budget_without_timeout(self, monkeypatch):
        monkeypatch.setattr(verifier, "EXACT_TIME_LIMIT", 0.5)
        start = time.monotonic()
        with pytest.raises(BudgetError) as info:
            exact_min_colors(10, 12)
        assert time.monotonic() - start < 1.5
        assert info.value.kind == "timeout"
        lo, hi = info.value.bounds
        assert lo <= hi

    def test_timeout_before_greedy_reports_edge_count(self):
        with pytest.raises(BudgetError) as info:
            exact_min_colors(4, 6, time_limit=0.0)
        # clique-coclique bound of the greedy 10-clique, edges of Q_4
        assert info.value.bounds == (11, 32)

    def test_timeout_covers_conflict_graph_build(self):
        start = time.monotonic()
        with pytest.raises(BudgetError) as info:
            exact_min_colors(12, 4, time_limit=0.05)  # about 0.7 s to build
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

    @pytest.mark.parametrize(
        "limit",
        [float("nan"), float("inf"), float("-inf"), -1.0, "5", [1.0], 1j, True, False],
    )
    def test_time_limit_must_be_finite(self, limit):
        with pytest.raises(UsageError, match="time limit must be finite and >= 0"):
            exact_min_colors(3, 6, time_limit=limit)


# every (n, k) of SMALL_CLASSES, and (6, 4) to (6, 8), whose lexicode of
# distance k/2 + 1 has a nonzero word, that is k/2 < n
SEEDED = [(3, 4), (4, 4), (4, 6), (5, 4), (5, 6), (5, 8), (6, 4), (6, 6), (6, 8)]


class TestCodeQuotientSeed:
    @pytest.mark.parametrize("k", [4, 6, 8])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_lexicode_is_linear_with_its_distance(self, n, k):
        code = _lexicode(n, k // 2 + 1, None)
        assert code == oracles.lexicode_scan(n, k // 2 + 1)
        words = set(code)
        assert all(a ^ b in words for a in code for b in code)
        assert all(
            (a ^ b).bit_count() >= k // 2 + 1 for a, b in itertools.combinations(code, 2)
        )

    @pytest.mark.parametrize("n,k", SEEDED)
    def test_lifted_coloring_is_proper(self, n, k):
        g = conflict_graph(n, k)
        clique = _greedy_clique(g.adj)
        colors = _code_quotient_coloring(g, len(clique), len(g.adj), None)
        assert all(
            colors[i] != colors[j]
            for i in range(len(g.adj))
            for j in range(i + 1, len(g.adj))
            if g.adj[i] >> j & 1
        )
        table = {key: (c, 0) for key, c in zip(g.keys, colors)}
        col = EdgeColoring(n, k, "explicit", {}, table)
        assert verify_rainbow(col, k) is None
        assert count_colors(col) == max(colors) + 1

    def test_trivial_code_gives_no_seed(self):
        g = conflict_graph(4, 12)
        assert _lexicode(4, 7, None) == [0]
        assert _code_quotient_coloring(g, 32, 32, None) is None

    @pytest.mark.parametrize("n,k", [(3, 4), (4, 4), (5, 4), (6, 4), (3, 6), (4, 8)])
    def test_values_unchanged_without_seed(self, monkeypatch, n, k):
        seeded = exact_min_colors(n, k)[0]
        monkeypatch.setattr(verifier, "_code_quotient_coloring", lambda *args: None)
        assert exact_min_colors(n, k)[0] == seeded

    def test_q6_c4_closes_without_backtracking(self, monkeypatch):
        calls = []

        def counted(adj, limit, clique, deadline):
            calls.append((len(adj), limit))
            return _try_color(adj, limit, clique, deadline)

        monkeypatch.setattr(verifier, "_try_color", counted)
        value, col = exact_min_colors(6, 4)
        assert value == 6
        assert verify_rainbow(col, 4) is None
        assert [call for call in calls if call[0] == 192] == [(192, 192)]  # greedy only

    @pytest.mark.parametrize("n", [7, 9])
    def test_fgls_values_by_default(self, n):
        start = time.monotonic()
        value, col = exact_min_colors(n, 4)
        assert time.monotonic() - start < 1
        assert value == n  # Faudree, Gyarfas, Lesniak and Schelp
        assert verify_rainbow(col, 4) is None

    def test_q8_c4_seed_tries_each_limit(self):
        # the lexicode quotient has no 8-coloring; the next limit finds 9,
        # below the greedy count
        deadline = time.monotonic() + 30
        g = conflict_graph(8, 4, deadline)
        colors = _code_quotient_coloring(g, 8, len(g.adj), deadline)
        assert max(colors) + 1 == 9
        assert all(
            colors[i] != colors[j]
            for i in range(len(g.adj))
            for j in range(i + 1, len(g.adj))
            if g.adj[i] >> j & 1
        )

    def test_no_seed_unless_below_the_upper_bound(self):
        # the (5, 6) quotient's best coloring uses 24 colors, more than the
        # greedy 20 on G: it is lifted only for an upper bound above 24
        g = conflict_graph(5, 6)
        assert _code_quotient_coloring(g, 15, 24, None) is None
        colors = _code_quotient_coloring(g, 15, 25, None)
        assert max(colors) + 1 == 24

    def test_planted_orbit_conflict_raises(self):
        with pytest.raises(InternalError):
            _orbit_graph(4, 2, _syndromes(4, [0, 0b11]), None)  # distance 2 < k/2 + 1

    def test_deadline_checked_per_orbit(self):
        # the (8, 8) lexicode has 64 cosets, and the 512 edges of the
        # neighbourhoods pass no clock read, so the rank walk raises
        syn = _syndromes(8, _lexicode(8, 5, None))
        with pytest.raises(BudgetError) as info:
            _orbit_graph(8, 4, syn, time.monotonic() - 1)
        assert info.value.kind == "timeout"
        assert info.traceback[-2].name == "_orbit_graph"

    def test_improper_lift_raises(self, monkeypatch):
        g = conflict_graph(5, 4)
        keys, qadj = _orbit_graph(5, 2, _syndromes(5, _lexicode(5, 3, None)), None)
        monkeypatch.setattr(
            verifier, "_orbit_graph", lambda *args: (keys, (0,) * len(qadj))
        )
        with pytest.raises(InternalError):
            _code_quotient_coloring(g, 5, len(g.adj), None)


class TestOrbitGraph:
    @pytest.mark.parametrize("k", [4, 6, 8])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_syndromes_rank_the_coset_minima(self, n, k):
        code = _lexicode(n, k // 2 + 1, None)
        syn = _syndromes(n, code)
        least = [min(x ^ w for w in code) for x in range(1 << n)]
        rank = {z: r for r, z in enumerate(sorted(set(least)))}
        assert syn == [rank[z] for z in least]
        assert all(
            syn[x ^ 1 << j] == syn[x] ^ syn[1 << j]
            for x in range(1 << n)
            for j in range(n)
        )

    def test_trivial_code_ranks_are_the_words(self):
        assert _syndromes(6, [0]) == list(range(64))

    @pytest.mark.parametrize("n,k", SEEDED + [(7, 6), (8, 8)])
    def test_lexicode_quotient_matches_orbit_pair_scan(self, n, k):
        code = _lexicode(n, k // 2 + 1, None)
        syn = _syndromes(n, code)
        keys, rows = _orbit_graph(n, k // 2, syn, None)
        orbit, want = oracles.orbit_graph_scan(n, k, code)
        assert rows == tuple(want)
        assert_degree_order_is_the_identity(rows)
        # the lift's rule sends each edge to the orbit that holds it
        node = {key: i for i, key in enumerate(keys)}
        for e in enumerate_edges(n):
            s, d = syn[e.bottom], e.dir - 1
            assert node[min(s, s ^ syn[1 << d]) << 5 | d] == orbit[e.key()]

    def test_rows_out_of_degree_order_raise(self):
        path = (0b010, 0b101, 0b010)  # node 1 has more neighbours than node 0
        with pytest.raises(InternalError):
            _check_degree_order(path)
        _check_degree_order(in_degree_order(path))
        assert _try_color(in_degree_order(path), 3, [], None) == [0, 1, 1]

    def test_each_graph_is_checked_once(self, monkeypatch):
        # the order is a property of the graph: G and G/W are checked when
        # built, and the searches on them, one per limit, check nothing
        checked, colored = [], []

        def check(adj):
            checked.append(len(adj))
            _check_degree_order(adj)

        def color(adj, *args):
            colored.append(len(adj))
            return _try_color(adj, *args)

        monkeypatch.setattr(verifier, "_check_degree_order", check)
        monkeypatch.setattr(verifier, "_try_color", color)
        assert exact_min_colors(5, 4)[0] == 6
        assert checked == [80, 20]
        assert colored == [80, 20, 20, 80]


class TestTryColor:
    def test_long_descent_does_not_recurse(self):
        assert _try_color(tuple([0] * 1500), 1, [], None) == [0] * 1500

    def test_seeded_levels_before_the_first_clock_read(self):
        # a complete graph keeps its labels; the 2,000 clique nodes are the
        # search's first picks, and the loop reads the clock before the
        # first of them, so a passed deadline raises before any mask moves
        m = 4000
        full = (1 << m) - 1
        adj = tuple(full ^ 1 << i for i in range(m))
        start = time.monotonic()
        with pytest.raises(BudgetError) as info:
            _try_color(adj, m, list(range(2000)), start)
        assert time.monotonic() - start < 0.25
        assert info.value.kind == "timeout"

    def test_clique_nodes_keep_their_pick_colors(self):
        adj = conflict_graph(4, 6).adj
        clique = _greedy_clique(adj)
        colors = _try_color(adj, 16, clique, None)
        assert max(colors) == 15
        assert all(
            colors[i] != colors[j]
            for i, row in enumerate(adj)
            for j in range(i)
            if row >> j & 1
        )
        assert [colors[i] for i in clique] == list(range(len(clique)))

    def test_seeded_search_exhausts_below_fifteen(self):
        # certifies f(5, 6) >= 15: no 14-coloring extends the clique's colors
        adj = conflict_graph(5, 6).adj
        assert _try_color(adj, 14, _greedy_clique(adj), None) is None

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
        # as in quotient graphs, and the nodes are put in the (-degree,
        # index) order ``_try_color`` takes
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
        adj = in_degree_order(adj)
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

    @pytest.mark.parametrize(
        "n,k", [(n, k) for k in (4, 8) for n in range(k + 1, 11)]
    )
    def test_edges_are_the_level_of_enumerate_edges(self, n, k):
        want = tuple(e for e in enumerate_edges(n) if edge_level(e) == k // 4)
        assert lower_bound_clique(n, k)[1].edges == want

    def test_wide_cube_scans_only_the_level(self):
        # a scan of all 2^32 bottoms would take minutes
        start = time.monotonic()
        count, cert = lower_bound_clique(32, 4)
        assert count == len(cert.edges) == 32
        assert len(cert.witnesses) == 496
        assert time.monotonic() - start < 1

    @pytest.mark.parametrize("n,k", [(16, 12), (17, 16)])
    def test_oversized_certificate_refused_at_once(self, monkeypatch, n, k):
        def never(*args):
            raise AssertionError("a witness was built")

        monkeypatch.setattr(verifier, "_span_cycle", never)
        monkeypatch.setattr(verifier, "_span_columns", never)
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
        # the routers check nothing, so their output reaches the checks
        route_both(monkeypatch, lambda n, k, a, b: cycle)
        with pytest.raises(InternalError, match="failed validation"):
            lower_bound_clique(5, 4)

    def test_witness_of_the_wrong_length_is_refused(self, monkeypatch):
        # a valid 6-cycle through both edges of the first pair only
        route = verifier._span_cycle

        def router(n, k, a, b):
            return (0, 1, 3, 7, 6, 2) if (a, b) == (0, 1) else route(n, k, a, b)

        route_both(monkeypatch, router)
        with pytest.raises(InternalError) as info:
            lower_bound_clique(5, 4)
        want = f"witness for {Edge(0, 1)} and {Edge(0, 2)} failed validation"
        assert str(info.value) == want

    def test_witnesses_answer_only_the_certificate_pairs(self):
        cert = lower_bound_clique(5, 4)[1]
        e = cert.edges
        off_level = Edge(1, 2)
        for key in [(e[1], e[0]), (e[0], e[0]), (e[0], off_level), 5, e[:3]]:
            with pytest.raises(KeyError):
                cert.witnesses[key]
            assert key not in cert.witnesses
            assert cert.witnesses.get(key) is None
        assert (e[0], e[1]) in cert.witnesses
        assert cert.witnesses.get((e[0], e[1])) == (0, 1, 3, 2)

    def test_witnesses_are_built_once_by_the_certificate_then_on_access(
        self, monkeypatch
    ):
        route, columns = verifier._span_cycle, verifier._span_columns
        calls, routed = [], []

        def counted(n, k, a, b):
            calls.append((a, b))
            return route(n, k, a, b)

        def counted_columns(n, k, count, ka, kb):
            routed.append(count)
            return columns(n, k, count, ka, kb)

        monkeypatch.setattr(verifier, "_span_cycle", counted)
        monkeypatch.setattr(verifier, "_span_columns", counted_columns)
        count, cert = lower_bound_clique(9, 8)
        assert sum(routed) == math.comb(count, 2) == 2556
        assert calls == []  # every pair routed once, in lanes
        assert len(cert.witnesses) == 2556
        assert calls == []  # len builds nothing
        first, last = cert.edges[0], cert.edges[-1]
        assert len(cert.witnesses[first, last]) == 8
        assert cert.witnesses[first, last] == route(9, 8, first.key(), last.key())
        assert calls == [(first.key(), last.key())] * 2
        assert sum(routed) == 2556  # a read routes no lanes

    def test_witness_read_after_the_build_is_checked(self, monkeypatch):
        cert = lower_bound_clique(5, 4)[1]
        e1, e2 = cert.edges[:2]
        monkeypatch.setattr(verifier, "_span_cycle", lambda n, k, a, b: (0, 4, 12, 8))
        with pytest.raises(InternalError) as info:
            cert.witnesses[e1, e2]
        assert str(info.value) == f"witness for {e1} and {e2} failed validation"


def pack(values):
    return int.from_bytes(array("Q", values).tobytes(), "little")


def unpack(count, col):
    return array("Q", col.to_bytes(8 * count, "little")).tolist()


def lanes_hold(n, k, pairs, cycs):
    """``_lanes_hold`` on witnesses given as tuples. Packing refuses a
    vertex outside [0, 2^64), and a walk shorter than the longest leaves 0
    in the columns it lacks."""
    try:
        cols = [pack(col) for col in itertools.zip_longest(*cycs, fillvalue=0)]
    except OverflowError:
        return False
    firsts, seconds = zip(*pairs)
    return _lanes_hold(n, k, len(pairs), pack(firsts), pack(seconds), cols)


def lane_router(route):
    """A lane router, in place of ``verifier._span_columns``, that packs
    ``route(n, k, a, b)`` for each pair, 0 past the end of a shorter
    witness."""

    def columns(n, k, count, ka, kb):
        pairs = zip(unpack(count, ka), unpack(count, kb))
        cycs = [route(n, k, a, b) for a, b in pairs]
        return [pack(col) for col in itertools.zip_longest(*cycs, fillvalue=0)]

    return columns


def route_both(monkeypatch, route):
    """Route a certificate's pairs through ``route`` in both routers: the
    lanes of ``_span_columns`` and the scalar walk's ``_span_cycle``."""
    monkeypatch.setattr(verifier, "_span_cycle", route)
    monkeypatch.setattr(verifier, "_span_columns", lane_router(route))


def scalar_holds(n, k, pairs, cycs):
    """The reference for ``_lanes_hold``: the witness check of
    ``build_cycle_same_level`` on each witness and its pair."""
    return not any(
        _witness_problem(n, k, tuple(cyc), a, b) for (a, b), cyc in zip(pairs, cycs)
    )


def level_witnesses(n, k):
    keys = [e.key() for e in enumerate_edges(n) if edge_level(e) == k // 4]
    pairs = list(itertools.combinations(keys, 2))
    return pairs, [verifier._span_cycle(n, k, a, b) for a, b in pairs]


def corruptions(n, pair, cyc):
    """One broken witness per kind, each rejected by the scalar check."""
    a, b = pair
    on = set(cycle_keys(cyc))
    off = next(e.key() for e in enumerate_edges(n) if e.key() not in on)
    c = list(cyc)
    turns = [c[i:] + c[:i] for i in range(1, len(c))]
    k01, k02 = Edge(0, 1).key(), Edge(0, 2).key()
    w = list(verifier._span_cycle(n, 8, k01, k02))  # (0, 1, 5, 13, 15, 14, 10, 2)
    return {
        "flipped bit": (pair, c[:3] + [c[3] ^ 1] + c[4:]),
        # a rotation that keeps the second vertex below the last
        "rotation": (pair, next(r for r in turns if r[1] < r[-1])),
        "longer walk": (pair, c + c[:2]),
        "shorter walk": (pair, c[:-2]),
        "reversal": (pair, c[::-1]),
        "second above last": (pair, c[:1] + c[:0:-1]),
        "repeated vertex": (pair, c[:2] + [c[0]] + c[3:]),
        "vertex 2^n": (pair, c[:3] + [c[3] | 1 << n] + c[4:]),
        "every vertex above 2^n": (pair, [u | 1 << n + 1 for u in c]),
        "vertex 2^64": (pair, c[:3] + [1 << 64] + c[4:]),
        "negative vertex": (pair, c[:3] + [-1] + c[4:]),
        "wrong first key": ((off, b), c),
        "wrong partner key": ((a, off), c),
        # breaks only its own rule: a backtracking closed walk, and a
        # witness with one vertex moved off the cycle by an unused bit
        "backtracking walk": ((k01, k02), [0, 1, 0, 2, 0, 4, 0, 8]),
        "two-bit steps": ((k01, k02), w[:3] + [w[3] | 1 << n - 1] + w[4:]),
    }


CORRUPTIONS = list(corruptions(9, (0, 1), (0, 1, 3, 2, 6, 7, 5, 4)))


class TestWitnessLanes:
    """``_lanes_hold`` against the scalar check it stands in for."""

    @pytest.mark.parametrize("n,k", [(9, 8), (10, 4)])
    def test_agrees_on_every_level_witness(self, n, k):
        pairs, cycs = level_witnesses(n, k)
        assert scalar_holds(n, k, pairs, cycs)
        assert lanes_hold(n, k, pairs, cycs)
        for pair, cyc in zip(pairs, cycs):
            assert lanes_hold(n, k, [pair], [cyc])

    @pytest.mark.parametrize("lane", [0, -1])
    @pytest.mark.parametrize("kind", CORRUPTIONS)
    def test_agrees_on_one_corrupted_lane(self, kind, lane):
        pairs, cycs = level_witnesses(9, 8)
        pairs[lane], cycs[lane] = corruptions(9, pairs[lane], cycs[lane])[kind]
        assert not scalar_holds(9, 8, [pairs[lane]], [cycs[lane]])
        assert not lanes_hold(9, 8, pairs, cycs)

    def test_agrees_on_a_valid_cycle_of_the_wrong_length(self):
        pairs, cycs = [(0, 1)], [(0, 1, 3, 7, 6, 2)]
        assert not scalar_holds(5, 4, pairs, cycs)
        assert not lanes_hold(5, 4, pairs, cycs)
        assert scalar_holds(5, 6, pairs, cycs)
        assert lanes_hold(5, 6, pairs, cycs)

    def test_failure_in_a_later_chunk_names_its_first_pair(self, monkeypatch):
        route = verifier._span_cycle
        pairs = list(itertools.combinations(lower_bound_clique(6, 4)[1].edges, 2))
        broken = {pairs[9], pairs[10]}  # the third chunk of four

        def router(n, k, a, b):
            cyc = route(n, k, a, b)
            e1, e2 = (Edge(c >> 5, (c & 31) + 1) for c in (a, b))
            return cyc[1:] + cyc[:1] if (e1, e2) in broken else cyc

        monkeypatch.setattr(verifier, "WITNESS_CHUNK", 4)
        route_both(monkeypatch, router)
        e1, e2 = pairs[9]
        with pytest.raises(InternalError) as info:
            lower_bound_clique(6, 4)
        assert str(info.value) == f"witness for {e1} and {e2} failed validation"

    def test_refuses_a_bit_past_the_last_lane(self):
        pairs, cycs = level_witnesses(9, 8)
        count, cols = len(pairs), [pack(col) for col in zip(*cycs)]
        firsts, seconds = (pack(side) for side in zip(*pairs))
        assert _lanes_hold(9, 8, count, firsts, seconds, cols)
        cols[3] |= 1 << 64 * count
        assert not _lanes_hold(9, 8, count, firsts, seconds, cols)


def level_keys(n, k):
    """The keys of the edges on level k/4, from the coordinate sets of their
    bottoms, so that n = 32 needs no scan of 2^32 vertices."""
    bottoms = sorted(
        sum(1 << c for c in cs) for cs in itertools.combinations(range(n), k // 4 - 1)
    )
    return [
        Edge(b, d).key() for b in bottoms for d in range(1, n + 1) if not b >> d - 1 & 1
    ]


def lane_cycles(n, k, pairs):
    """The witnesses ``_span_columns`` routes for ``pairs`` in one chunk, as
    tuples."""
    count, (firsts, seconds) = len(pairs), zip(*pairs)
    cols = lanes._span_columns(n, k, count, pack(firsts), pack(seconds))
    return list(zip(*(unpack(count, col) for col in cols)))


class TestLaneRouter:
    """``_span_columns`` against ``_span_cycle``, the router it stands in for."""

    @pytest.mark.parametrize(
        "n,k", [(n, 4) for n in range(5, 13)] + [(n, 8) for n in (9, 10, 11)]
    )
    def test_agrees_on_every_level_pair(self, n, k):
        keys = level_keys(n, k)
        assert keys == [e.key() for e in enumerate_edges(n) if edge_level(e) == k // 4]
        got = []
        for count, ka, kb in lanes._pair_chunks(keys, verifier.WITNESS_CHUNK):
            cols = lanes._span_columns(n, k, count, ka, kb)
            got += zip(*(unpack(count, col) for col in cols))
        pairs = itertools.combinations(keys, 2)
        assert got == [verifier._span_cycle(n, k, a, b) for a, b in pairs]

    @pytest.mark.parametrize("size", [1, 3, 7, 4096])
    def test_chunks_hold_every_pair_in_order(self, size):
        keys = level_keys(6, 4) + [1 << 36]
        got = []
        for count, ka, kb in lanes._pair_chunks(keys, size):
            assert 0 < count <= size
            got += zip(unpack(count, ka), unpack(count, kb))
        assert got == list(itertools.combinations(keys, 2))

    @pytest.mark.parametrize("n,k", [(13, 12), (32, 8)])
    def test_agrees_on_sampled_level_pairs(self, n, k):
        # at n = 32 the guard bit is bit 32 of each 64-bit lane
        keys, rng, pairs = level_keys(n, k), random.Random(n * 100 + k), set()
        while len(pairs) < 4096:
            pairs.add(tuple(sorted(rng.sample(keys, 2))))
        pairs = sorted(pairs)
        assert lane_cycles(n, k, pairs) == [
            verifier._span_cycle(n, k, a, b) for a, b in pairs
        ]

    @pytest.mark.parametrize(
        "n,k",
        [(2, 4), (3, 4), (3, 6), (5, 6), (4, 8), (7, 10), (16, 14), (32, 20), (32, 64)],
    )
    def test_agrees_on_random_pairs_of_small_span(self, n, k):
        # any pair spanning at most k/2 coordinates, in all three cases
        rng, pairs = random.Random(n * 1000 + k), set()
        for _ in range(1000):
            x, d, e = rng.randrange(1 << n), rng.randrange(n), rng.randrange(n)
            y = x ^ sum({1 << rng.randrange(n) for _ in range(rng.randrange(k // 2))})
            a, b = sorted([(x & ~(1 << d)) << 5 | d, (y & ~(1 << e)) << 5 | e])
            span = (a ^ b) >> 5 | 1 << (a & 31) | 1 << (b & 31)
            if a != b and span.bit_count() <= k // 2:
                pairs.add((a, b))
        pairs = sorted(pairs)
        assert lane_cycles(n, k, pairs) == [
            verifier._span_cycle(n, k, a, b) for a, b in pairs
        ]

    def test_rotated_lanes_are_named(self, monkeypatch):
        columns = verifier._span_columns
        e1, e2 = lower_bound_clique(5, 4)[1].edges[:2]

        def rotated(*chunk):
            cols = columns(*chunk)
            return cols[1:] + cols[:1]

        monkeypatch.setattr(verifier, "_span_columns", rotated)
        with pytest.raises(InternalError) as info:
            lower_bound_clique(5, 4)
        want = f"lane witness for {e1} and {e2} differs from _span_cycle"
        assert str(info.value) == want

    def test_first_differing_lane_is_named(self, monkeypatch):
        # the scalar router is sound, so the lanes are at fault
        route = verifier._span_cycle
        pairs = list(itertools.combinations(lower_bound_clique(6, 4)[1].edges, 2))

        def router(n, k, a, b):
            cyc = route(n, k, a, b)
            e1, e2 = (Edge(c >> 5, (c & 31) + 1) for c in (a, b))
            return cyc[1:] + cyc[:1] if (e1, e2) == pairs[10] else cyc

        monkeypatch.setattr(verifier, "WITNESS_CHUNK", 4)
        monkeypatch.setattr(verifier, "_span_columns", lane_router(router))
        e1, e2 = pairs[10]
        with pytest.raises(InternalError) as info:
            lower_bound_clique(6, 4)
        want = f"lane witness for {e1} and {e2} differs from _span_cycle"
        assert str(info.value) == want

    def test_a_refused_chunk_of_sound_lanes_is_named(self, monkeypatch):
        e1, e2 = lower_bound_clique(5, 4)[1].edges[:2]
        monkeypatch.setattr(verifier, "_lanes_hold", lambda *args: False)
        with pytest.raises(InternalError) as info:
            lower_bound_clique(5, 4)
        assert str(info.value) == (
            f"lane check refused the chunk from {e1} and {e2}, whose lanes hold "
            "the scalar witnesses"
        )


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
