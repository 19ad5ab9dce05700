import itertools
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from rainbowcube import hypercube
from rainbowcube.errors import InternalError, UsageError
from rainbowcube.hypercube import (
    Edge,
    build_cycle_same_level,
    canonical_cycle,
    complement_edge,
    count_level_edges,
    cycle_keys,
    cycle_problem,
    cycles_containing_pair,
    edge_between,
    edge_key,
    edge_level,
    edges_of_cycle,
    enumerate_cycles,
    enumerate_edges,
    _cycle_keys_or_problem,
    _walk,
)

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

    @pytest.mark.parametrize(
        "n,k,starts",
        [
            (3, 6, (0,)),
            (3, 6, (1, 2, 5)),
            (4, 4, ()),
            (4, 6, (0, 3, 7, 9)),
            (4, 8, range(16)),
            (4, 8, (6, 15)),
            (5, 6, (0, 17, 30, 31)),
            (5, 8, range(0, 32, 3)),
        ],
    )
    def test_starts_filter_full_enumeration(self, n, k, starts):
        full = [c for c in enumerate_cycles(n, k) if c[0] in starts]
        assert list(enumerate_cycles(n, k, starts=starts)) == full
        assert list(enumerate_cycles(n, k, starts=iter(starts))) == full

    @pytest.mark.parametrize("bad", [-1, 8, 2**40, 1.0, "0"])
    def test_start_outside_cube_raises_when_reached(self, bad):
        it = enumerate_cycles(3, 6, starts=(0, bad))
        first = list(itertools.islice(it, 4))
        assert first == [c for c in enumerate_cycles(3, 6) if c[0] == 0][:4]
        with pytest.raises(UsageError):
            list(it)

    @pytest.mark.parametrize("starts", [(2, 1), (1, 1)])
    def test_starts_must_ascend(self, starts):
        with pytest.raises(UsageError):
            list(enumerate_cycles(3, 6, starts=starts))

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
        assert cycle_keys(cyc) == [e.key() for e in edges_of_cycle(cyc)]


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
        assert keys == (cycle_keys(verts) if want is None else None)

    def test_step_to_outside_along_a_direction_above_n(self):
        # 1 -> 9 is a single-bit step of Q_4; the check once indexed its
        # per-direction counts with it and raised IndexError
        assert cycle_problem(3, (1, 9, 3, 2)) == "vertex 0x9 outside Q_3"

    @pytest.mark.parametrize("n,k", [(3, 4), (3, 6), (3, 8), (4, 6), (4, 8)])
    def test_every_cycle_and_its_rotations(self, n, k):
        for cyc in enumerate_cycles(n, k):
            assert _cycle_keys_or_problem(n, cyc) == (cycle_keys(cyc), None)
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
        route = hypercube._same_level_cycle

        def broken(*args, **kwargs):
            return breakage(route(*args, **kwargs))

        monkeypatch.setattr(hypercube, "_same_level_cycle", broken)

    def test_router_output_is_valid_unpatched(self):
        cyc = hypercube._same_level_cycle(9, 8, 0, 0b1, 0, 0b10, True)
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
        other = canonical_cycle(_walk(0, [1, 4, 8, 16, 1, 4, 8, 16])[:-1])
        assert cycle_problem(9, other) is None
        assert self.e1 in edges_of_cycle(other)
        assert self.e2 not in edges_of_cycle(other)
        self.break_router(monkeypatch, lambda c: other)
        with pytest.raises(InternalError, match="misses a required edge"):
            build_cycle_same_level(9, 8, self.e1, self.e2)


def _route_branch(n, k, v, bi, x, bj):
    """(branch, mirrored): the case of ``_same_level_cycle`` a pair takes,
    and whether it runs out of free coordinates and routes in the
    complemented cube."""
    w, y = v | bi, x | bj
    if v == x:
        branch, used, need = "bottom", w | y, k // 2 - 2
    elif w == y:
        branch, used, need = "top" if k > 4 else "top k=4", w, k // 2 - 2
    else:
        pad = k // 4 - 1 - (v ^ x).bit_count() // 2
        down = pad <= (v & x).bit_count()
        branch, used = "pads down" if down else "pads up", w | y
        need = k // 4 - (w ^ y).bit_count() // 2 + (0 if down else pad)
    return branch, n - used.bit_count() < need


@st.composite
def same_level_pairs(draw, branch, mirrored):
    """(n, k, e1, e2): two distinct same-level edges of Q_n, n > k, that
    meet the preconditions of ``build_cycle_same_level`` and take
    ``branch`` of the router, mirrored or not. Edges near the top of the
    cube leave too few free coordinates and reach the mirrored case."""
    if branch == "top k=4":
        k = 4
    elif branch in ("pads down", "pads up"):
        # disjoint pairs need 4 | k; pads go up only below level k/4
        k = draw(st.sampled_from((12, 16) if branch == "pads up" else (8, 12, 16)))
    else:
        k = 2 * draw(st.integers(3 if mirrored else 2, 8))
    n = draw(st.integers(k + 1, k + 6))
    order = draw(st.permutations(range(n)))
    bit = [1 << d for d in order]
    if branch == "bottom":
        # pool n - ones - 2 against k/2 - 2 fresh coordinates
        lo, hi = (n - k // 2 + 1, n - 2) if mirrored else (0, n - k // 2)
        ones = draw(st.integers(lo, hi))
        v = x = sum(bit[:ones])
        bi, bj = bit[ones], bit[ones + 1]
    elif branch in ("top", "top k=4"):
        # pool n - |top| against k/2 - 2 fresh coordinates
        lo, hi = (n - k // 2 + 3, n) if mirrored else (2, min(n, n - k // 2 + 2))
        top = sum(bit[: draw(st.integers(lo, hi))])
        bi, bj = bit[0], bit[1]
        v, x = top ^ bi, top ^ bj
    else:
        # x trades t of the ones of v for t others: |v ^ x| = 2t <= k/2 - 2
        up = branch == "pads up"
        t = draw(st.integers(1, k // 4 - (2 if up else 1)))
        if up:
            lo, hi = t, k // 4 - 2
        else:
            # near the top, v | x leaves at most two coordinates free
            lo, hi = (n - t - 2 if mirrored else max(t, k // 4 - 1)), n - t - 1
        ones = draw(st.integers(lo, hi))
        v = sum(bit[:ones])
        x = v ^ sum(bit[:t]) ^ sum(bit[ones : ones + t])
        bi = draw(st.sampled_from([b for b in bit if not v & b]))
        bj = draw(st.sampled_from([b for b in bit if not x & b]))
        assume(v | bi != x | bj)
    assume(_route_branch(n, k, v, bi, x, bj) == (branch, mirrored))
    return n, k, Edge(v, bi.bit_length()), Edge(x, bj.bit_length())


class TestSameLevelRouter:
    """The int router against the ``Edge``-based routing it replaced."""

    @pytest.mark.parametrize(
        "branch,mirrored",
        [
            ("bottom", False),
            ("bottom", True),
            ("top", False),
            ("top", True),
            ("top k=4", False),
            ("pads down", False),
            ("pads down", True),
            # pads go up only below level k/4, where coordinates never run out
            ("pads up", False),
        ],
    )
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_edge_oracle(self, branch, mirrored, data):
        n, k, e1, e2 = data.draw(same_level_pairs(branch, mirrored))
        for a, b in ((e1, e2), (e2, e1)):
            got = hypercube._same_level_cycle(
                n, k, a.bottom, 1 << a.dir - 1, b.bottom, 1 << b.dir - 1, True
            )
            assert got == oracles.same_level_cycle_edges(n, k, a, b, True)
            assert got == build_cycle_same_level(n, k, a, b)


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

    def test_disjoint_above_quarter_level_pads_through_common(self):
        e1, e2 = Edge(0b0011, 5), Edge(0b0101, 6)  # level 3 in Q_13, k=12
        cyc = build_cycle_same_level(13, 12, e1, e2)
        assert cycle_problem(13, cyc) is None
        assert {e1, e2} <= set(edges_of_cycle(cyc))

    def test_disjoint_below_quarter_level_pads_fresh(self):
        e1, e2 = Edge(0b01, 3), Edge(0b10, 4)  # level 2 in Q_13, k=12
        cyc = build_cycle_same_level(13, 12, e1, e2)
        assert cycle_problem(13, cyc) is None
        assert {e1, e2} <= set(edges_of_cycle(cyc))

    def test_top_levels_use_complement_route(self):
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

    def test_top_level_disjoint_uses_complement(self):
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


def test_complement_edge_roundtrip():
    for e in enumerate_edges(4):
        back = complement_edge(4, complement_edge(4, e))
        assert back == e
