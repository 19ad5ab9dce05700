import collections
import functools
import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import rainbowcube.addsets as addsets
from rainbowcube.addsets import (
    AP_BITSET_DENSITY,
    BEHREND_LIMIT,
    BT_SCAN_LIMIT,
    behrend_set,
    bose_chowla,
    conjecture_system,
    equation_free_subset,
    find_solutions,
    genus,
    greedy_bt,
    is_trivial_solution,
    verify_3ap_free,
    verify_bt,
)
from rainbowcube.coloring import C2_CAP_LIMIT
from rainbowcube.errors import BudgetError, UsageError

import oracles


class TestVerifyBt:
    def test_sidon_set_passes(self):
        ok, witness = verify_bt([1, 2, 5, 11], 2)
        assert ok and witness is None

    def test_collision_witness(self):
        ok, witness = verify_bt([1, 2, 3], 2)
        assert not ok
        assert witness == ((1, 3), (2, 2))

    def test_t1_any_distinct_set(self):
        ok, _ = verify_bt([3, 17, 40, 41], 1)
        assert ok

    def test_witness_is_lex_smallest(self):
        ok, witness = verify_bt([1, 2, 3, 4], 2)
        assert not ok
        pairs = []
        sums = {}
        for multi in itertools.combinations_with_replacement((1, 2, 3, 4), 2):
            total = sum(multi)
            if total in sums:
                pairs.append((sums[total], multi))
            else:
                sums[total] = multi
        assert witness == min(pairs)

    def test_rejects_bad_input(self):
        with pytest.raises(UsageError):
            verify_bt([0, 1], 2)
        with pytest.raises(UsageError):
            verify_bt([1, 1, 2], 2)
        with pytest.raises(UsageError):
            verify_bt([1, 2], 0)


@pytest.mark.parametrize(
    "func,args,name",
    [
        pytest.param(verify_bt, ((1, 2, 3), True), "t", id="verify_bt-t"),
        pytest.param(greedy_bt, (True, 5), "t", id="greedy_bt-t"),
        pytest.param(greedy_bt, (2, True), "size", id="greedy_bt-size"),
        pytest.param(behrend_set, (True,), "limit", id="behrend_set"),
        pytest.param(
            equation_free_subset,
            ([(1, 1, -2)], True),
            "limit",
            id="equation_free_subset",
        ),
    ],
)
def test_bool_is_not_a_positive_int(func, args, name):
    with pytest.raises(UsageError) as info:
        func(*args)
    assert str(info.value) == f"{name} must be a positive int, got True"


@functools.lru_cache(maxsize=None)
def greedy_scan(t):
    """The candidate-by-candidate scan, to the largest size tested at t."""
    return oracles.greedy_bt_scan(t, {1: 8, 2: 100, 3: 40, 4: 14}[t])


class TestGreedyBt:
    def test_t1_is_initial_segment(self):
        assert greedy_bt(1, 4) == (1, 2, 3, 4)

    def test_t2_matches_from_scratch_oracle(self):
        assert list(greedy_bt(2, 8)) == oracles.greedy_bt_oracle(2, 8)

    def test_t3_first_elements(self):
        # 3 fails since 1+1+3 = 1+2+2, 4 fails since 1+1+4 = 2+2+2
        assert greedy_bt(3, 3) == (1, 2, 5)
        assert list(greedy_bt(3, 6)) == oracles.greedy_bt_oracle(3, 6)

    def test_prefix_stability(self):
        assert greedy_bt(2, 5) == greedy_bt(2, 9)[:5]

    @pytest.mark.parametrize("t,size", [(1, 40), (2, 40), (3, 40)])
    def test_output_is_bt(self, t, size):
        elems = greedy_bt(t, size)
        assert len(elems) == size
        ok, _ = verify_bt(elems, t)
        assert ok

    @pytest.mark.parametrize(
        "t,size",
        [(t, size) for t in range(1, 5) for size in range(1, 9)]
        + [(3, 12), (3, 20), (2, 30), (2, 100), (4, 14), (3, 40)],
    )
    def test_sieve_matches_candidate_scan(self, t, size):
        # the scan is prefix-stable, so one run per t serves every size
        assert greedy_bt(t, size) == greedy_scan(t)[:size]


class TestBtLimits:
    @pytest.mark.parametrize(
        "size,t",
        [(1, BT_SCAN_LIMIT + 1), (2, 10**9), (10**9, 2), (4, 199), (10**30, 10**30)],
    )
    def test_oversized_greedy_is_class_error_at_once(self, size, t):
        start = time.monotonic()
        with pytest.raises(BudgetError) as info:
            greedy_bt(t, size)
        assert info.value.kind == "class"
        assert time.monotonic() - start < 1

    @pytest.mark.parametrize("size,t", [(1, BT_SCAN_LIMIT + 1), (2, 10**9), (4, 199)])
    def test_oversized_check_is_class_error_at_once(self, size, t):
        start = time.monotonic()
        with pytest.raises(BudgetError) as info:
            verify_bt(range(1, size + 1), t)
        assert info.value.kind == "class"
        assert time.monotonic() - start < 1

    def test_limit_counts_every_element_of_every_multiset(self):
        # 2 * C(1001, 2) = 1,001,000 elements; 2 * C(1000, 2) = 999,000
        with pytest.raises(BudgetError):
            verify_bt(range(1, 1001), 2)
        assert verify_bt(range(1, 1000), 2)[0] is False

    def test_single_element_with_large_t(self):
        assert greedy_bt(BT_SCAN_LIMIT, 1) == (1,)
        assert verify_bt([7], 1000) == (True, None)

    def test_greedy_scan_budget(self, monkeypatch):
        monkeypatch.setattr(addsets, "DEFAULT_SEARCH_NODES", 1000)
        assert greedy_bt(2, 10) == tuple(oracles.greedy_bt_oracle(2, 10))
        with pytest.raises(BudgetError) as info:
            greedy_bt(2, 40)
        assert info.value.kind == "budget"

    def test_sieve_leaves_few_survivors(self, monkeypatch):
        # (3, 20) charges 7,162 units: 22 survivors are scanned, out of the
        # 10,986 candidates up to 10,987
        monkeypatch.setattr(addsets, "DEFAULT_SEARCH_NODES", 10_000)
        assert greedy_bt(3, 20) == greedy_scan(3)[:20]

    def test_default_budget_stops_the_sieve(self):
        # a rebuild is charged per 2^SIEVE_UNIT_BITS bits shifted, which pins
        # where the default budget stops: t = 4 at 27 elements, where a scan
        # of every candidate, one unit per sum tested, stopped at 18
        with pytest.raises(BudgetError) as info:
            greedy_bt(4, 30)
        assert info.value.kind == "budget"
        assert "at 27 of 30 elements" in str(info.value)


class TestBoseChowla:
    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
    def test_size_range_and_property(self, t, q):
        s = bose_chowla(t, q)
        assert len(s) == q
        assert 1 <= s[0] and s[-1] <= q**t - 1
        ok, _ = verify_bt(s, t)
        assert ok

    def test_matches_log_table_oracle(self):
        pairs = [
            (t, q)
            for q in range(2, 101)
            if addsets._is_prime(q)
            for t in range(2, 14)
            if q**t <= 10**4
        ]
        assert len(pairs) == 51
        for t, q in pairs:
            assert bose_chowla(t, q) == oracles.bose_chowla_table(t, q), (t, q)

    def test_irreducible_matches_product_oracle(self):
        pairs = [
            (t, q)
            for q in range(2, 101)
            if addsets._is_prime(q)
            for t in range(2, 14)
            if q**t <= 10**4
        ]
        for t, q in pairs:
            found = addsets._smallest_irreducible(t, q)
            assert found == oracles.smallest_irreducible_products(t, q), (t, q)

    def test_gf9_golden(self):
        # theta = x + 1 over x^2 + 1; logs of theta, theta + 1, theta + 2
        assert bose_chowla(2, 3) == (1, 6, 7)

    def test_non_prime_rejected(self):
        with pytest.raises(UsageError):
            bose_chowla(2, 4)
        with pytest.raises(UsageError):
            bose_chowla(2, 9)
        with pytest.raises(UsageError):
            bose_chowla(2, 1)

    def test_t_below_two_rejected(self):
        with pytest.raises(UsageError):
            bose_chowla(1, 5)

    @pytest.mark.parametrize(
        "t,q", [(2, 2**61 - 1), (2, 10**30), (10**9, 3), (21, 2), (3, 127)]
    )
    def test_oversized_table_refused_before_primality(self, t, q):
        # 2^61 - 1 is prime: trial division would run ~7.6e8 steps
        start = time.monotonic()
        with pytest.raises(BudgetError) as info:
            bose_chowla(t, q)
        assert info.value.kind == "class"
        assert time.monotonic() - start < 1


class TestProgressionFree:
    def test_verify_examples(self):
        assert verify_3ap_free([1, 2, 4, 5]) == (True, None)
        ok, witness = verify_3ap_free([1, 2, 3])
        assert not ok and witness == (1, 2, 3)
        ok, witness = verify_3ap_free([3, 7, 11])
        assert not ok and witness == (3, 7, 11)

    def test_behrend_small(self):
        assert len(behrend_set(3)) == 2
        assert behrend_set(14) == (1, 2, 4, 5, 10, 11, 13, 14)

    def test_behrend_14_is_optimal(self):
        assert len(behrend_set(14)) == oracles.brute_r3(14) == 8

    @pytest.mark.parametrize("limit", [1, 2, 7, 50, 121, 122, 365, 1000])
    def test_behrend_always_ap_free(self, limit):
        s = behrend_set(limit)
        assert s and s[-1] <= limit
        ok, _ = verify_3ap_free(s)
        assert ok

    def test_behrend_limit_covers_construction2(self):
        assert BEHREND_LIMIT >= C2_CAP_LIMIT

    @pytest.mark.parametrize("limit", [BEHREND_LIMIT + 1, 10**12, 10**100])
    def test_behrend_above_limit_is_class_error(self, limit):
        start = time.monotonic()
        with pytest.raises(BudgetError) as info:
            behrend_set(limit)
        assert info.value.kind == "class"
        assert time.monotonic() - start < 1

    @pytest.mark.parametrize("limit,floor", [(10_000, 512), (100_000, 2048)])
    def test_behrend_large_sample(self, limit, floor):
        s = behrend_set(limit)
        ok, _ = verify_3ap_free(s)
        assert ok and len(s) >= floor

    def test_behrend_solutions_empty(self):
        for limit in (14, 100, 365):
            assert list(find_solutions((1, 1, -2), behrend_set(limit))) == []


def _shell_limits():
    """p - 1 and p for every carry-free span p = (2d - 1)^j <= 3000, where a
    new (d, digits) pair enters the scan, and two large limits."""
    out = {10**4, 10**5}
    for d in range(2, 65):
        p = 2 * d - 1
        while p <= 3000:
            out |= {p - 1, p}
            p *= 2 * d - 1
    return sorted(out)


class TestKernelsMatchOracles:
    def test_no_sphere_shell_beats_behrend_set(self):
        # the paper's construction, searched in full, never has more elements
        for limit in _shell_limits():
            shell = oracles.best_sphere_shell_enum(limit)
            assert len(shell) <= len(behrend_set(limit)), limit

    def test_3ap_every_subset_of_1_14(self):
        for mask in range(1, 1 << 14):
            s = [v + 1 for v in range(14) if mask >> v & 1]
            want = oracles.verify_3ap_free_pairs(s)
            assert verify_3ap_free(s) == oracles.verify_3ap_free_doubles(s) == want, s

    def test_3ap_parity_split_matches_doubles_kernel(self):
        rng = random.Random(15)
        free = 0
        for _ in range(150):
            size = rng.randint(3, 2000)
            s = set(rng.sample(range(1, rng.randint(2, 64) * size + 1), size))
            assert verify_3ap_free(s) == oracles.verify_3ap_free_doubles(s), sorted(s)
        # progression-free sets, alone and with one or two planted elements,
        # so that the first witness may lie anywhere in the scan
        for limit in (1000, 3000, 10_000, 60_000):
            scale, shift = rng.randint(1, 3), rng.randint(0, 5)  # affine: stays free
            base = [scale * v + shift for v in behrend_set(limit)]
            for extra in range(40):
                s = set(base) | {rng.randint(1, base[-1]) for _ in range(extra % 3)}
                got = verify_3ap_free(s)
                assert got == oracles.verify_3ap_free_doubles(s), (limit, extra)
                free += got[0]
        assert 0 < free < 160

    def test_behrend_matches_unpruned_rule(self):
        for limit in range(1, 3001):
            assert behrend_set(limit) == tuple(oracles.digit_01_shifted(limit)), limit
        # the binary digits of i = 0, 1, 2, ... read in base 3, plus one
        for limit in (10**4, 10**5, 1 << 20, BEHREND_LIMIT):
            want = []
            for i in itertools.count():
                v = int(format(i, "b"), 3) + 1
                if v > limit:
                    break
                want.append(v)
            assert behrend_set(limit) == tuple(want), limit

    def test_shell_count_bound(self):
        # at most d^(D-1) digit vectors share one sum of squares
        for d in range(2, 65):
            digits = 1
            while (2 * d - 1) ** digits <= 10**5:
                counts = collections.Counter(
                    sum(c * c for c in vec)
                    for vec in itertools.product(range(d), repeat=digits)
                )
                assert max(counts.values()) <= d ** (digits - 1), (d, digits)
                digits += 1

    def test_no_shell_beats_the_fallback_in_range(self):
        # the bound d^(D-1) never exceeds the digit set's size where D digits
        # first fit, so no shell beats behrend_set up to its limit
        for d in range(2, 65):
            base = 2 * d - 1
            digits, span = 1, base
            while span <= BEHREND_LIMIT:
                assert d ** (digits - 1) <= len(behrend_set(span)), (d, digits)
                digits, span = digits + 1, span * base

    @pytest.mark.parametrize("density", [4, AP_BITSET_DENSITY, 4 * AP_BITSET_DENSITY])
    def test_3ap_random_sets_either_side_of_switch(self, density):
        rng = random.Random(density)
        for _ in range(300):
            size = rng.randint(3, 40)
            s = rng.sample(range(1, density * size + 1), size)
            assert verify_3ap_free(s) == oracles.verify_3ap_free_pairs(s), s
        base = behrend_set(1000)  # progression-free, so both scans run through
        for scale in (1, density):
            s = [scale * v for v in base]
            assert verify_3ap_free(s) == oracles.verify_3ap_free_pairs(s) == (True, None)

    def test_3ap_sparse_set_answers_at_once(self):
        start = time.perf_counter()
        ok, witness = verify_3ap_free([1, 10**12, 2 * 10**12 - 1])
        assert not ok and witness == (1, 10**12, 2 * 10**12 - 1)
        assert time.perf_counter() - start < 1


class TestGenus:
    def test_examples(self):
        assert genus((1, 1, -1, -1)) == (2, ((1, 3), (2, 4)))
        assert genus((1, -1)) == (1, ((1, 2),))
        assert genus((1, 1, 1, -1, -2)) == (2, ((1, 2, 5), (3, 4)))
        assert genus((1, 1, -3)) == (0, None)

    def test_witness_is_valid_partition(self):
        for eq in [(1, 1, -1, -1), (2, -1, -1), (1, 1, 1, -1, -1, -1)]:
            g, parts = genus(eq)
            if g == 0:
                assert parts is None
                continue
            assert len(parts) == g
            flat = [i for part in parts for i in part]
            assert sorted(flat) == list(range(1, len(eq) + 1))
            for part in parts:
                assert sum(eq[i - 1] for i in part) == 0

    def test_arity_budget(self):
        with pytest.raises(BudgetError):
            genus((1,) * 13)

    def test_bad_equation(self):
        with pytest.raises(UsageError):
            genus((1, 0, -1))
        with pytest.raises(UsageError):
            genus((5,))


class TestTrivialSolutions:
    def test_examples(self):
        assert is_trivial_solution((1, 1, -1, -1), (3, 7, 7, 3))
        assert not is_trivial_solution((1, 1, -1, -1), (1, 4, 2, 3))
        assert is_trivial_solution((1, 1, -2), (5, 5, 5))

    def test_rejects_non_solutions(self):
        with pytest.raises(UsageError):
            is_trivial_solution((1, 1, -2), (1, 2, 3))
        with pytest.raises(UsageError):
            is_trivial_solution((1, 1, -2), (1, 1))


class TestFindSolutions:
    def test_ap_solutions_ordered(self):
        assert list(find_solutions((1, 1, -2), [1, 2, 3])) == [(1, 3, 2), (3, 1, 2)]

    def test_powers_of_two_ap_free(self):
        assert list(find_solutions((1, 1, -2), [1, 2, 4, 8])) == []

    def test_sidon_set_has_none(self):
        assert list(find_solutions((1, 1, -1, -1), [1, 2, 5, 11])) == []

    def test_lex_order(self):
        got = list(find_solutions((1, 2, -3), [1, 2, 3, 4, 5]))
        assert got == sorted(got)
        for sol in got:
            assert sol[0] + 2 * sol[1] - 3 * sol[2] == 0
            assert not is_trivial_solution((1, 2, -3), sol)

    def test_budget(self):
        with pytest.raises(BudgetError):
            list(find_solutions((1, 1, 1, -1, -2), list(range(1, 25)), max_nodes=50))


class TestEquationFreeSubset:
    def test_matches_r3_brute_force(self):
        for limit in range(1, 17):
            elems, optimal = equation_free_subset(
                [(1, 1, -2)], limit, mode="exhaustive"
            )
            assert optimal
            assert len(elems) == oracles.brute_r3(limit)

    def test_greedy_is_shifted_digit_set(self):
        elems, optimal = equation_free_subset([(1, 1, -2)], 30, mode="greedy")
        assert not optimal
        assert list(elems) == oracles.digit_01_shifted(30)

    def test_conjecture_system_golden(self):
        # brute force over every subset of [1, 20] confirms both values
        elems, optimal = equation_free_subset(
            conjecture_system(10), 20, mode="exhaustive"
        )
        assert optimal
        assert elems == (1, 2, 5, 14)
        for eq in conjecture_system(10):
            assert list(find_solutions(eq, elems)) == []

    def test_result_is_solution_free(self):
        system = [(1, 1, -2), (1, 1, -1, -1)]
        elems, _ = equation_free_subset(system, 16, mode="exhaustive")
        for eq in system:
            assert list(find_solutions(eq, elems)) == []

    def test_empty_system_rejected(self):
        with pytest.raises(UsageError):
            equation_free_subset([], 10, mode="exhaustive")

    def test_mode_validation(self):
        with pytest.raises(UsageError):
            equation_free_subset([(1, 1, -2)], 10, mode="fast")

    def test_class_budgets(self):
        with pytest.raises(BudgetError):
            equation_free_subset([(1, 1, -2)], 31, mode="exhaustive")
        with pytest.raises(BudgetError):
            equation_free_subset([(1, 1, -2)], 100_001, mode="greedy")

    def test_greedy_budget_covers_the_whole_scan(self):
        # the scan to 200 costs 10,131 units; no candidate check takes more
        # than 324, so only a scan-wide budget stops it
        system = conjecture_system(14)
        golden = (1, 2, 6, 22, 56, 154)
        assert equation_free_subset(system, 200, max_nodes=10**6) == (golden, False)
        with pytest.raises(BudgetError) as info:
            equation_free_subset(system, 200, max_nodes=5_000)
        best, optimal = info.value.best
        assert info.value.kind == "budget" and not optimal
        assert best == golden[: len(best)] and len(best) >= 3

    def test_tiny_budget_stops_the_longest_scan(self):
        start = time.monotonic()
        with pytest.raises(BudgetError) as info:
            equation_free_subset(conjecture_system(22), 100_000, max_nodes=1000)
        assert time.monotonic() - start < 1
        assert info.value.kind == "budget"
        assert info.value.best == ((1, 2, 8), False)

    def test_default_budget_bounds_the_longest_scan_memory(self):
        # the scan runs out of its 2e7 units at 9 elements, holding sums
        # of up to six of them: about 0.8 MiB at its peak
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError) as info:
                equation_free_subset(conjecture_system(22), 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.best == ((1, 2, 8, 44, 155, 669, 2215, 6877, 16865), False)
        assert peak < 4 << 20

    @pytest.mark.parametrize("eq", [(1,) * 7 + (-1,) * 6, tuple(range(1, 21)) + (-210,)])
    def test_arity_refused_before_any_split(self, eq):
        # 2^21 splits for the second: only a refusal before they are built
        # answers at once
        start = time.monotonic()
        with pytest.raises(BudgetError) as info:
            equation_free_subset([(1, 1, -2), eq], 10)
        assert time.monotonic() - start < 1
        assert info.value.kind == "class"
        assert str(info.value) == "solution search supports up to 12 variables"

    def test_node_budget_carries_best(self):
        with pytest.raises(BudgetError) as info:
            equation_free_subset([(1, 1, -2)], 24, mode="exhaustive", max_nodes=10)
        assert info.value.best is not None


@st.composite
def solution_checks(draw):
    """(system, kept, cand): 1 to 3 equations of arity 2..7 with
    coefficients in +-1..+-3, a kept set and a candidate outside it. Half
    the draws plant a solution of the first equation that uses cand."""
    coeff = st.sampled_from((-3, -2, -1, 1, 2, 3))
    eq = st.lists(coeff, min_size=2, max_size=7).map(tuple)
    system = draw(st.lists(eq, min_size=1, max_size=3))
    kept = draw(st.sets(st.integers(1, 30), max_size=5))
    first = system[0]
    if draw(st.booleans()) and first[-1] in (-1, 1):
        head = draw(st.lists(st.integers(1, 12), min_size=len(first) - 1,
                             max_size=len(first) - 1))
        last = -first[-1] * sum(a * x for a, x in zip(first, head))
        if last >= 1:
            cand = draw(st.sampled_from(head + [last]))
            return system, sorted((kept | set(head) | {last}) - {cand}), cand
    cand = draw(st.integers(1, 30).filter(lambda c: c not in kept))
    return system, sorted(kept), cand


class TestCreatesSolution:
    """The orbit search of ``oracles.creates_solution_orbits``, which the
    split test replaced, against the scan over every assignment."""

    @settings(max_examples=300, deadline=None)
    @given(solution_checks())
    @example((((1, 1, -1, -1),), [1, 2, 3], 4))  # 1 + 4 = 2 + 3
    @example((((1, 1, 1, -1, -1, -1),), [1, 2, 4, 5], 6))  # 1 + 4 + 6 = 2 + 4 + 5
    @example((((1, 1, 1, 1, -1, -1, -2),), [1, 2], 3))  # 1 + 1 + 1 + 3 = 2 + 2 + 2 * 1
    @example((((1, 1, -2), (1, -1)), [1, 2, 4, 5], 7))  # only the 3-AP 1, 4, 7
    @example((((2, -1, -1),), [3, 5], 4))  # the 3-AP 3, 4, 5, cand in the middle
    @example((((1, 1, -1, -1),), [1, 2, 4, 8], 16))  # powers of two stay Sidon
    def test_matches_scan_oracle(self, case):
        system, kept, cand = case
        try:
            expected = oracles.creates_solution_scan(system, kept, cand, 10**6)
        except BudgetError:
            assume(False)
        assert oracles.creates_solution_orbits(system, kept, cand, 10**6) is expected

    def test_true_examples_are_true(self):
        # the explicit examples above include both answers
        orbits = oracles.creates_solution_orbits
        assert orbits(((1, 1, -1, -1),), [1, 2, 3], 4, 10**6)
        assert orbits(((1, 1, -2), (1, -1)), [1, 2, 4, 5], 7, 10**6)
        assert not orbits(((1, 1, -1, -1),), [1, 2, 4, 8], 16, 10**6)

    def test_budget_still_raises(self):
        with pytest.raises(BudgetError):
            oracles.creates_solution_orbits(
                conjecture_system(14), list(range(1, 30)), 30, 10
            )

    def test_orbit_search_finishes_where_the_scan_gives_up(self):
        # admitting 8 after 1, 2 takes the scan 176,271 nodes on one
        # equation and the orbit search 2,185
        system = conjecture_system(22)
        with pytest.raises(BudgetError):
            oracles.creates_solution_scan(system, [1, 2], 8, 10_000)
        assert oracles.creates_solution_orbits(system, [1, 2], 8, 10_000) is False


def split_test(system, kept, cand, budget=10**6) -> bool:
    """The split test of ``equation_free_subset`` for one candidate."""
    check = addsets._KeptSums(addsets._splits(system), tuple(sorted(kept)), budget)
    return check.creates_solution(cand)


@st.composite
def solution_free_checks(draw):
    """(system, kept, cand): 1 to 3 equations of arity 2..6 with
    coefficients in +-1..+-3, a kept set grown solution-free (each drawn
    element is admitted only when the scan over every assignment finds
    no solution) and a candidate outside it."""
    coeff = st.sampled_from((-3, -2, -1, 1, 2, 3))
    eq = st.lists(coeff, min_size=2, max_size=6).map(tuple)
    system = draw(st.lists(eq, min_size=1, max_size=3))
    kept: list[int] = []
    try:
        for elem in draw(st.lists(st.integers(1, 40), unique=True, max_size=8)):
            if not oracles.creates_solution_scan(system, sorted(kept), elem, 10**5):
                kept.append(elem)
    except BudgetError:
        assume(False)
    cand = draw(st.integers(1, 40).filter(lambda c: c not in kept))
    return system, sorted(kept), cand


class TestSplitTest:
    @settings(max_examples=300, deadline=None)
    @given(solution_free_checks())
    @example((((1, 1, -2), (1, -1)), [1, 2, 4, 5], 7))  # only the 3-AP 1, 4, 7
    @example((((2, -1, -1),), [3, 5], 4))  # the 3-AP 3, 4, 5, cand in the middle
    @example((((1, 1, -1, -1),), [1, 2, 4, 8], 16))  # powers of two stay Sidon
    @example((((1, 1, -1, -1),), [1, 2, 5], 3))  # 1 + 5 = 3 + 3, class of 3 sums to -2
    @example((((1, 1, -3),), [2, 5, 6], 1))  # cand below all of K: 1 + 5 = 3 * 2
    def test_matches_scan_oracle(self, case):
        system, kept, cand = case
        try:
            expected = oracles.creates_solution_scan(system, kept, cand, 10**6)
        except BudgetError:
            assume(False)
        assert split_test(system, kept, cand) is expected

    def test_needs_a_solution_free_kept_set(self):
        # 1 + 3 = 2 + 2 already lies in K: the orbit search finds
        # 1 + 3 + 100 = 2 + 2 + 100, where the class of 100 sums to 0
        case = (((1, 1, 1, -1, -1, -1),), [1, 2, 3], 100)
        assert oracles.creates_solution_orbits(*case, 10**6) is True
        assert split_test(*case) is False

    def test_budget_raises(self):
        with pytest.raises(BudgetError):
            split_test(conjecture_system(14), [1, 2, 6, 22], 30, budget=10)


class TestMatchesOrbitSearch:
    """``equation_free_subset`` against the orbit search it replaced."""

    @pytest.mark.parametrize("k", [10, 14, 18, 22])
    def test_greedy_every_limit_to_200(self, k):
        system = conjecture_system(k)
        scan, _ = oracles.equation_free_subset_orbits(system, 200, "greedy")
        for limit in range(1, 201):
            # the orbit scan to 200 passes through each limit on its way
            want = tuple(v for v in scan if v <= limit)
            assert equation_free_subset(system, limit) == (want, False), limit

    @pytest.mark.parametrize("k,top", [(10, 15), (14, 12)])
    def test_exhaustive_every_limit(self, k, top):
        system = conjecture_system(k)
        for limit in range(1, top + 1):
            want = oracles.equation_free_subset_orbits(system, limit, "exhaustive")
            assert equation_free_subset(system, limit, mode="exhaustive") == want


class TestConjectureGolden:
    """Sets and optimal flags computed by the scan over every assignment,
    and at limit 2,000 by the orbit search
    (``oracles.equation_free_subset_orbits``, 5-6 s each)."""

    @pytest.mark.parametrize(
        "k,limit,mode,expected,optimal",
        [
            (14, 40, "greedy", (1, 2, 6, 22), False),
            (14, 12, "exhaustive", (1, 2, 6), True),
            (14, 200, "greedy", (1, 2, 6, 22, 56, 154), False),
            (10, 400, "greedy", (1, 2, 5, 14, 33, 72, 113, 168, 259, 352), False),
            (18, 60, "greedy", (1, 2, 7, 32), False),
            (22, 40, "greedy", (1, 2, 8), False),
            (
                10,
                2000,
                "greedy",
                (1, 2, 5, 14, 33, 72, 113, 168, 259, 352, 452, 747, 821, 1063,
                 1657, 1789),
                False,
            ),
            (14, 2000, "greedy", (1, 2, 6, 22, 56, 154, 369, 857, 1317), False),
        ],
    )
    def test_golden(self, k, limit, mode, expected, optimal):
        got = equation_free_subset(conjecture_system(k), limit, mode=mode)
        assert got == (expected, optimal)


class TestConjectureSystem:
    def test_k10(self):
        assert conjecture_system(10) == (
            (1, 1, -1, -1),
            (1, 1, 1, -1, -2),
            (1, 2, -1, -2),
        )

    def test_k14(self):
        assert conjecture_system(14) == (
            (1, 1, 1, -1, -1, -1),
            (1, 1, 1, 1, -1, -1, -2),
            (1, 1, 2, -1, -1, -2),
        )

    @pytest.mark.parametrize("k,m", [(10, 2), (14, 3)])
    def test_genus_matches_quarter(self, k, m):
        for eq in conjecture_system(k):
            assert genus(eq)[0] == m

    @pytest.mark.parametrize("k", [8, 9, 12, 6])
    def test_rejects_wrong_k(self, k):
        with pytest.raises(UsageError):
            conjecture_system(k)
