import itertools
import random
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from rainbowcube import hypercube
from rainbowcube.errors import InternalError, UsageError
from rainbowcube.hypercube import (
    Edge,
    build_cycle_same_level,
    canonical_cycle,
    count_level_edges,
    cycle_problem,
    cycles_containing_pair,
    edge_between,
    edge_key,
    edge_level,
    edges_of_cycle,
    enumerate_cycles,
    enumerate_edges,
    _cycle_keys_or_problem,
    _pair_cycle,
    _pair_starts,
    _span_cycle,
)
from rainbowcube.verifier import _conflicts

import oracles


def test_edge_level_examples():
    assert edge_level(Edge(0, 3)) == 1
    assert edge_level(Edge(0b10010, 1)) == 3  # bottom {2, 5}, direction 1


def test_edge_rejects_dir_bit_set():
    with pytest.raises(UsageError):
        Edge(0b1, 1)


def test_edge_between():
    assert edge_between(0b101, 0b111) == Edge(0b101, 2)
    assert edge_between(0b111, 0b101) == Edge(0b101, 2)
    with pytest.raises(UsageError):
        edge_between(0b101, 0b110)
    with pytest.raises(UsageError):
        edge_between(3, 3)


@pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (4, 32), (5, 80)])
def test_enumerate_edges_count(n, count):
    edges = list(enumerate_edges(n))
    assert len(edges) == count
    assert len(set(edges)) == count
    assert edges == sorted(edges)


def test_enumerate_edges_first_for_q1():
    assert list(enumerate_edges(1)) == [Edge(0, 1)]


@pytest.mark.parametrize(
    "n,level,expected", [(4, 1, 4), (9, 2, 72), (5, 5, 5), (6, 3, 60)]
)
def test_count_level_edges(n, level, expected):
    assert count_level_edges(n, level) == expected


def test_count_level_edges_matches_scan():
    for n in (4, 5):
        for level in range(1, n + 1):
            scanned = sum(1 for e in enumerate_edges(n) if edge_level(e) == level)
            assert count_level_edges(n, level) == scanned


def test_count_level_edges_range_error():
    with pytest.raises(UsageError):
        count_level_edges(4, 5)
    with pytest.raises(UsageError):
        count_level_edges(4, 0)


class TestEnumerateCycles:
    def test_q2_single_square(self):
        assert list(enumerate_cycles(2, 4)) == [(0, 1, 3, 2)]

    def test_q3_six_cycles(self):
        assert sum(1 for _ in enumerate_cycles(3, 6)) == 16

    def test_odd_length_empty(self):
        assert list(enumerate_cycles(3, 5)) == []
        assert list(enumerate_cycles(3, 7)) == []

    def test_out_of_range_errors(self):
        with pytest.raises(UsageError):
            enumerate_cycles(3, 2)
        with pytest.raises(UsageError):
            enumerate_cycles(3, 10)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_six_cycle_formula(self, n):
        # every 6-cycle spans exactly 3 directions
        expected = 16 * len(list(itertools.combinations(range(n), 3))) * 2 ** (n - 3)
        assert sum(1 for _ in enumerate_cycles(n, 6)) == expected

    @pytest.mark.parametrize("n,k", [(3, 4), (3, 6), (3, 8), (4, 4), (4, 6), (4, 8)])
    def test_against_networkx(self, n, k):
        assert sum(1 for _ in enumerate_cycles(n, k)) == oracles.count_cycles_nx(n, k)

    def test_against_permutation_scan(self):
        mine = set(enumerate_cycles(3, 6))
        assert mine == oracles.cycles_by_permutation(3, 6)

    @pytest.mark.parametrize("n,k", [(3, 6), (4, 6), (5, 8)])
    def test_minimum_vertex_ascends(self, n, k):
        # tests take the cycles of one minimum vertex as a run of this order
        firsts = [c[0] for c in enumerate_cycles(n, k)]
        assert firsts == sorted(firsts)

    @pytest.mark.parametrize("n,k", [(3, 6), (4, 6), (4, 8), (3, 8)])
    def test_all_valid_canonical_unique(self, n, k):
        seen = set()
        for cyc in enumerate_cycles(n, k):
            assert cycle_problem(n, cyc) is None
            assert cyc not in seen
            seen.add(cyc)


@pytest.mark.parametrize(
    "n,k", [(n, k) for n in range(2, 6) for k in (4, 6, 8) if k <= 1 << n]
)
def test_cycle_keys_match_edges_of_cycle(n, k):
    for cyc in enumerate_cycles(n, k):
        assert oracles.cycle_keys(cyc) == [e.key() for e in edges_of_cycle(cyc)]


def test_edge_key_is_injective_on_q5():
    keys = {edge_key(e.bottom, e.dir) for e in enumerate_edges(5)}
    assert len(keys) == 5 << 4
    assert all(edge_key(e.bottom, e.dir) == e.key() for e in enumerate_edges(5))


def test_canonical_cycle_rotation_reflection():
    cyc = (0, 1, 3, 7, 6, 4)
    for shift in range(6):
        rotated = cyc[shift:] + cyc[:shift]
        assert canonical_cycle(rotated) == cyc
        assert canonical_cycle(rotated[::-1]) == cyc


def test_cycle_problem_catches_breakage():
    assert cycle_problem(3, (0, 1, 3, 2)) is None
    assert cycle_problem(3, (0, 1, 3)) is not None  # odd
    assert cycle_problem(3, (0, 1, 3, 5)) is not None  # 5 not adjacent to 0
    assert cycle_problem(3, (0, 1, 0, 1)) is not None  # repeats
    assert cycle_problem(3, (1, 3, 2, 0)) is not None  # not canonical


@lru_cache(maxsize=None)
def _cycles(n, k):
    return tuple(enumerate_cycles(n, k))


@st.composite
def perturbed_cycles(draw):
    """A canonical cycle of Q_n (3 <= n <= 5) with up to three of: one
    vertex bit flipped (bit n leaves the cube), a rotation, a reversal, a
    repeated vertex, a vertex dropped or inserted (odd length) and a
    vertex moved outside [0, 2^n)."""
    n = draw(st.integers(3, 5))
    k = draw(st.sampled_from((4, 6, 8)))
    cycles = _cycles(n, k)
    verts = list(cycles[draw(st.integers(0, len(cycles) - 1))])
    for kind in draw(st.lists(st.sampled_from(
        ("flip", "rotate", "reverse", "repeat", "odd", "outside")
    ), max_size=3)):
        i = draw(st.integers(0, len(verts) - 1))
        if kind == "flip":
            verts[i] ^= 1 << draw(st.integers(0, n))
        elif kind == "rotate":
            verts = verts[i:] + verts[:i]
        elif kind == "reverse":
            verts.reverse()
        elif kind == "repeat":
            verts[i] = draw(st.sampled_from(verts))
        elif kind == "odd" and draw(st.booleans()):
            del verts[i]
        elif kind == "odd":
            verts.insert(i, draw(st.integers(0, (1 << n) - 1)))
        else:
            verts[i] = draw(
                st.sampled_from((-1, -verts[i] - 1, 1 << n, verts[i] + (1 << n)))
            )
    return n, tuple(verts)


class TestOneWalkCycleCheck:
    """``_cycle_keys_or_problem`` against the validator it replaced."""

    @settings(max_examples=600, deadline=None)
    @given(perturbed_cycles())
    def test_matches_slow_validator(self, case):
        n, verts = case
        want = oracles.cycle_problem_slow(n, verts)
        assert cycle_problem(n, verts) == want
        keys, problem = _cycle_keys_or_problem(n, verts)
        assert problem == want
        assert keys == (oracles.cycle_keys(verts) if want is None else None)

    def test_step_to_outside_along_a_direction_above_n(self):
        # 1 -> 9 is a single-bit step of Q_4; the check once indexed its
        # per-direction counts with it and raised IndexError
        assert cycle_problem(3, (1, 9, 3, 2)) == "vertex 0x9 outside Q_3"

    @pytest.mark.parametrize("n,k", [(3, 4), (3, 6), (3, 8), (4, 6), (4, 8)])
    def test_every_cycle_and_its_rotations(self, n, k):
        for cyc in enumerate_cycles(n, k):
            assert _cycle_keys_or_problem(n, cyc) == (oracles.cycle_keys(cyc), None)
            for i in range(1, k):
                turned = cyc[i:] + cyc[:i]
                assert cycle_problem(n, turned) == oracles.cycle_problem_slow(
                    n, turned
                ) == "not in canonical form"
            assert cycle_problem(n, cyc[::-1]) == "not in canonical form"


class TestSameLevelWitnessCheck:
    """A broken cycle from the router must not get past the validation in
    ``build_cycle_same_level``."""

    e1, e2 = Edge(0, 1), Edge(0, 2)

    def break_router(self, monkeypatch, breakage):
        route = hypercube._span_cycle

        def broken(*args, **kwargs):
            return breakage(route(*args, **kwargs))

        monkeypatch.setattr(hypercube, "_span_cycle", broken)

    def test_router_output_is_valid_unpatched(self):
        cyc = hypercube._span_cycle(9, 8, self.e1.key(), self.e2.key())
        assert cycle_problem(9, cyc) is None
        assert {self.e1, self.e2} <= set(edges_of_cycle(cyc))

    def test_non_adjacent_step(self, monkeypatch):
        self.break_router(monkeypatch, lambda c: c[:2] + (c[2] ^ 1 << 8,) + c[3:])
        with pytest.raises(InternalError, match="not adjacent"):
            build_cycle_same_level(9, 8, self.e1, self.e2)

    def test_non_canonical_rotation(self, monkeypatch):
        self.break_router(monkeypatch, lambda c: c[1:] + c[:1])
        with pytest.raises(InternalError, match="not in canonical form"):
            build_cycle_same_level(9, 8, self.e1, self.e2)

    def test_valid_cycle_missing_an_edge(self, monkeypatch):
        other = (0, 1, 5, 13, 29, 28, 24, 16)
        assert cycle_problem(9, other) is None
        assert self.e1 in edges_of_cycle(other)
        assert self.e2 not in edges_of_cycle(other)
        self.break_router(monkeypatch, lambda c: other)
        with pytest.raises(InternalError, match="misses a required edge"):
            build_cycle_same_level(9, 8, self.e1, self.e2)

    def test_valid_cycle_of_the_wrong_length(self, monkeypatch):
        six = (0, 1, 3, 7, 6, 2)
        assert cycle_problem(5, six) is None
        assert {self.e1, self.e2} <= set(edges_of_cycle(six))
        self.break_router(monkeypatch, lambda c: six)
        with pytest.raises(InternalError, match="length 6, not 4"):
            build_cycle_same_level(5, 4, self.e1, self.e2)


def _assert_span_witness(n, k, a, b):
    cyc = _span_cycle(n, k, a, b)
    assert _span_cycle(n, k, b, a) == cyc
    assert len(cyc) == k and canonical_cycle(cyc) == cyc
    keys, problem = _cycle_keys_or_problem(n, cyc)
    assert problem is None, (n, k, a, b, cyc, problem)
    assert a in keys and b in keys


class TestSpanCycle:
    """The one certificate router on every pair it is given: a canonical
    k-cycle through both edges whenever their span is at most k/2 <= n."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_conflicting_pair(self, n):
        for k in range(4, min(2 * n, 1 << n) + 1, 2):
            pairs = 0
            keys = [e.key() for e in enumerate_edges(n)]
            for a, b in itertools.combinations(keys, 2):
                if _conflicts(a, b, k // 2):
                    _assert_span_witness(n, k, a, b)
                    pairs += 1
            assert pairs

    def test_random_pairs_in_large_cubes(self):
        rng = random.Random(20261019)
        made = 0
        while made < 2000:
            n = rng.randint(16, 32)
            half = rng.randint(2, n)
            d, e = rng.randrange(n), rng.randrange(n)
            x = rng.getrandbits(n) & ~(1 << d)
            flips = sum(1 << c for c in rng.sample(range(n), rng.randint(0, half)))
            y = (x ^ flips) & ~(1 << e)
            a, b = edge_key(x, d + 1), edge_key(y, e + 1)
            if a == b or not _conflicts(a, b, half):
                continue
            _assert_span_witness(n, 2 * half, a, b)
            made += 1


def _both_start_walks(n, k, a, b, first=None):
    """The starts of ``_pair_starts`` and of the endpoint-budget walk it
    replaced for the edges with keys ``a`` and ``b``, each cut at
    ``first`` when given."""
    b1, b2 = a >> 5, b >> 5
    d1, d2 = 1 << (a & 31), 1 << (b & 31)
    span = b1 ^ b2 | d1 | d2
    new = _pair_starts(n, k // 2 - span.bit_count(), b1, span, min(b1, b2))
    old = oracles.pair_starts_endpoint_budgets(n, k, b1, b1 | d1, b2, b2 | d2)
    return list(itertools.islice(new, first)), list(itertools.islice(old, first))


class TestPairStarts:
    """The span rule's one budget gives the starts of the four endpoint
    budgets it replaced."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_pair_of_small_cubes(self, n):
        keys = [e.key() for e in enumerate_edges(n)]
        for k in range(4, min(2 * n + 2, 1 << n) + 1, 2):
            for a, b in itertools.combinations(keys, 2):
                new, old = _both_start_walks(n, k, a, b)
                assert new == old, (n, k, a, b)
                assert new == sorted(new)

    def test_random_pairs_in_large_cubes(self):
        rng = random.Random(20261020)
        for _ in range(300):
            n = rng.randint(8, 32)
            half = rng.randint(2, n + 1)
            d, e = rng.randrange(n), rng.randrange(n)
            x = rng.getrandbits(n) & ~(1 << d)
            flips = sum(1 << c for c in rng.sample(range(n), rng.randint(0, half - 1)))
            y = (x ^ flips) & ~(1 << e)
            a, b = edge_key(x, d + 1), edge_key(y, e + 1)
            if a == b:
                continue
            new, old = _both_start_walks(n, 2 * half, a, b, first=300)
            assert new == old, (n, 2 * half, a, b)
            assert new == sorted(new)

    @pytest.mark.parametrize("n,k", [(4, 4), (5, 6), (6, 8), (8, 8), (12, 10)])
    def test_span_above_half_has_no_cycle(self, n, k):
        # bottoms 0 and 2^(k/2-1) - 1 differ in k/2 - 1 coordinates, and
        # directions k/2 and k/2 + 1 lie outside them: a span of k/2 + 1
        a, b = edge_key(0, k // 2), edge_key((1 << k // 2 - 1) - 1, k // 2 + 1)
        assert not _conflicts(a, b, k // 2)
        assert _pair_cycle(n, k, a, b) is None


class TestCyclesContainingPair:
    def test_q3_witness(self):
        found, witness = cycles_containing_pair(3, 6, Edge(0, 1), Edge(0b100, 2))
        assert found
        assert cycle_problem(3, witness) is None
        edges = set(edges_of_cycle(witness))
        assert Edge(0, 1) in edges and Edge(0b100, 2) in edges

    def test_witness_is_canonical_minimum(self):
        e1, e2 = Edge(0, 1), Edge(0, 2)
        found, witness = cycles_containing_pair(4, 6, e1, e2)
        assert found
        holding = [
            c
            for c in enumerate_cycles(4, 6)
            if {e1, e2} <= set(edges_of_cycle(c))
        ]
        assert witness == min(holding)

    @pytest.mark.parametrize("k", [4, 6])
    def test_matches_enumeration_for_all_q3_pairs(self, k):
        cycles = list(enumerate_cycles(3, k))
        for e1, e2 in itertools.combinations(enumerate_edges(3), 2):
            holding = [c for c in cycles if {e1, e2} <= set(edges_of_cycle(c))]
            found, witness = cycles_containing_pair(3, k, e1, e2)
            assert found == bool(holding)
            assert witness == (min(holding) if holding else None)

    @pytest.mark.parametrize("n,k", [(3, 8), (4, 8), (4, 12), (4, 16), (5, 8)])
    def test_matches_enumeration_for_all_pairs(self, n, k):
        least = {}
        for cyc in enumerate_cycles(n, k):
            for pair in itertools.combinations(sorted(edges_of_cycle(cyc)), 2):
                if pair not in least or cyc < least[pair]:
                    least[pair] = cyc
        for e1, e2 in itertools.combinations(enumerate_edges(n), 2):
            witness = least.get((e1, e2))
            assert cycles_containing_pair(n, k, e1, e2) == (witness is not None, witness)
            assert cycles_containing_pair(n, k, e2, e1) == (witness is not None, witness)

    def test_c4_levels_too_far(self):
        # edges of any 4-cycle sit on two consecutive levels
        found, witness = cycles_containing_pair(4, 4, Edge(0, 1), Edge(0b110, 1))
        assert not found and witness is None

    def test_same_edge_rejected(self):
        with pytest.raises(UsageError):
            cycles_containing_pair(3, 6, Edge(0, 1), Edge(0, 1))

    def test_memory_does_not_grow_with_the_cube(self):
        tracemalloc.start()
        try:
            found, _ = cycles_containing_pair(24, 8, Edge(0, 1), Edge(4, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found
        assert peak < 1 << 20  # a 2^24-byte visited array would be 16 MiB

    @pytest.mark.parametrize("n", [12, 32])
    def test_long_cycle_needs_no_recursion(self, n):
        # one stack entry per path vertex, not one interpreter frame
        e1, e2 = Edge(0, 1), Edge(2, 1)
        found, witness = cycles_containing_pair(n, 1000, e1, e2)
        assert found and len(witness) == 1000
        assert cycle_problem(n, witness) is None
        assert {e1, e2} <= set(edges_of_cycle(witness))

    def test_large_cubes_match_q8(self):
        # pairs inside Q_7, k <= 12: larger cubes give the smallest cycle of Q_8
        rng = random.Random(20261019)
        cases = []
        while len(cases) < 100:
            (x, d), (y, e) = [(rng.randrange(64), rng.randint(1, 7)) for _ in "12"]
            if (x, d) != (y, e) and not x >> d - 1 & 1 and not y >> e - 1 & 1:
                cases.append((rng.choice((6, 8, 10, 12)), Edge(x, d), Edge(y, e)))
        for k, e1, e2 in cases:
            expected = cycles_containing_pair(8, k, e1, e2)
            for n in (20, 24, 25, 32):
                assert cycles_containing_pair(n, k, e1, e2) == expected


class TestBuildCycleSameLevel:
    def test_shared_bottom_golden(self):
        cyc = build_cycle_same_level(7, 6, Edge(0, 1), Edge(0, 2))
        assert cyc == (0, 0b1, 0b101, 0b111, 0b110, 0b10)

    def test_argument_order_is_irrelevant(self):
        a = build_cycle_same_level(7, 6, Edge(0, 1), Edge(0, 2))
        b = build_cycle_same_level(7, 6, Edge(0, 2), Edge(0, 1))
        assert a == b

    def test_shared_top_confirmed_by_search(self):
        e1, e2 = Edge(0b10, 1), Edge(0b01, 2)  # tops both {1,2}
        cyc = build_cycle_same_level(7, 6, e1, e2)
        edges = set(edges_of_cycle(cyc))
        assert e1 in edges and e2 in edges
        found, _ = cycles_containing_pair(7, 6, e1, e2)
        assert found

    @pytest.mark.parametrize("k", [4, 6])
    def test_exhaustive_incident_pairs_q5_q7(self, k):
        n = k + 1
        by_bottom = {}
        by_top = {}
        for e in enumerate_edges(n):
            by_bottom.setdefault(e.bottom, []).append(e)
            by_top.setdefault(e.top, []).append(e)
        pairs = [
            p
            for group in itertools.chain(by_bottom.values(), by_top.values())
            for p in itertools.combinations(group, 2)
        ]
        assert pairs
        for e1, e2 in pairs:
            cyc = build_cycle_same_level(n, k, e1, e2)
            assert len(cyc) == k
            assert cycle_problem(n, cyc) is None
            edges = set(edges_of_cycle(cyc))
            assert e1 in edges and e2 in edges

    def test_disjoint_pairs_level_two_q9(self):
        level2 = [e for e in enumerate_edges(9) if edge_level(e) == 2]
        sample = [
            (e1, e2)
            for e1, e2 in itertools.combinations(level2, 2)
            if not {e1.bottom, e1.top} & {e2.bottom, e2.top}
        ][::37]
        assert sample
        for e1, e2 in sample:
            cyc = build_cycle_same_level(9, 8, e1, e2)
            assert len(cyc) == 8
            assert cycle_problem(9, cyc) is None
            edges = set(edges_of_cycle(cyc))
            assert e1 in edges and e2 in edges

    def test_disjoint_level_three_pair_q13(self):
        e1, e2 = Edge(0b0011, 5), Edge(0b0101, 6)  # level 3 in Q_13, k=12
        cyc = build_cycle_same_level(13, 12, e1, e2)
        assert cycle_problem(13, cyc) is None
        assert {e1, e2} <= set(edges_of_cycle(cyc))

    def test_disjoint_level_two_pair_q13(self):
        e1, e2 = Edge(0b01, 3), Edge(0b10, 4)  # level 2 in Q_13, k=12
        cyc = build_cycle_same_level(13, 12, e1, e2)
        assert cycle_problem(13, cyc) is None
        assert {e1, e2} <= set(edges_of_cycle(cyc))

    def test_levels_six_and_seven_q7(self):
        full = (1 << 7) - 1
        v = full ^ 0b11  # five ones
        cyc = build_cycle_same_level(7, 6, Edge(v, 1), Edge(v, 2))
        assert cycle_problem(7, cyc) is None
        e1, e2 = Edge(full ^ 0b1, 1), Edge(full ^ 0b10, 2)  # tops = full
        cyc = build_cycle_same_level(7, 4, e1, e2)
        assert cycle_problem(7, cyc) is None
        assert {e1, e2} <= set(edges_of_cycle(cyc))

    @pytest.mark.parametrize("n,k", [(9, 8), (13, 12)])
    def test_random_pairs_all_levels(self, n, k):
        import random

        rng = random.Random(11 * n + k)
        made = 0
        tries = 0
        while made < 150 and tries < 10000:
            tries += 1
            v = rng.randrange(1 << n)
            free = [d for d in range(1, n + 1) if not v >> (d - 1) & 1]
            if not free:
                continue
            e1 = Edge(v, rng.choice(free))
            ones = edge_level(e1) - 1
            x = sum(1 << b for b in rng.sample(range(n), ones))
            free2 = [d for d in range(1, n + 1) if not x >> (d - 1) & 1]
            if not free2:
                continue
            e2 = Edge(x, rng.choice(free2))
            if e1 == e2:
                continue
            if (
                not {e1.bottom, e1.top} & {e2.bottom, e2.top}
                and (e1.bottom ^ e2.bottom).bit_count() > k // 2 - 2
            ):
                continue
            cyc = build_cycle_same_level(n, k, e1, e2)
            assert cycle_problem(n, cyc) is None
            assert {e1, e2} <= set(edges_of_cycle(cyc))
            made += 1
        assert made == 150

    def test_disjoint_level_eight_pair_q9(self):
        e1 = Edge(0b001111111, 9)  # bottoms with seven ones in Q_9
        e2 = Edge(0b010111111, 9)
        cyc = build_cycle_same_level(9, 8, e1, e2)
        assert cycle_problem(9, cyc) is None
        assert {e1, e2} <= set(edges_of_cycle(cyc))

    def test_precondition_errors(self):
        with pytest.raises(UsageError):  # needs n > k
            build_cycle_same_level(6, 6, Edge(0, 1), Edge(0, 2))
        with pytest.raises(UsageError):  # different levels
            build_cycle_same_level(7, 6, Edge(0, 1), Edge(0b1, 2))
        with pytest.raises(UsageError):  # identical edges
            build_cycle_same_level(7, 6, Edge(0, 1), Edge(0, 1))
        with pytest.raises(UsageError):  # disjoint pair too far apart for k=4
            build_cycle_same_level(7, 4, Edge(0b01, 3), Edge(0b10, 4))
        with pytest.raises(UsageError):  # disjoint needs k divisible by 4
            build_cycle_same_level(13, 6, Edge(0b01, 3), Edge(0b10, 4))
