import decimal
import random
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from rainbowcube import coloring
from rainbowcube.addsets import behrend_set, greedy_bt
from rainbowcube.coloring import (
    C2_CAP_LIMIT,
    COUNT_BITS_LEAD,
    EdgeColoring,
    _ceil_power,
    _count_bits,
    _iroot,
    construction1,
    construction2,
    count_colors,
    derive_c2_params,
    weight_a,
)
from rainbowcube.errors import BudgetError, UsageError
from rainbowcube.hypercube import Edge, edge_key, enumerate_edges


def kernel(col) -> int:
    """``_count_bits`` forced on a scheme coloring, whatever its width."""
    s, offsets, mod, levels = col._form()
    return _count_bits(s, offsets, mod or sum(s) + max(offsets) + 1, levels)


def walk(col) -> int:
    """Distinct colors over every edge of the ``_rows`` walk."""
    return len({color for _, _, color in col._rows()})


def test_weight_a():
    assert weight_a(0, (1, 2, 5, 11)) == 0
    assert weight_a(0b101, (1, 2, 5, 11)) == 6  # bits {1, 3}
    assert weight_a(0b1111, (1, 2, 5, 11)) == 19
    with pytest.raises(UsageError):
        weight_a(0b10000, (1, 2, 5, 11))


class TestConstruction1:
    def test_example_colors(self):
        col = construction1(4, 8, [1, 2, 3, 4])
        assert col.params["M"] == 9  # (k/4) * max(S) + 1
        assert col.color_of(Edge(0, 1)) == (9, 1)
        assert col.color_of(Edge(0, 4)) == (36, 1)
        assert col.color_of(Edge(0b11, 3)) == (1 + 2 + 27, 3)

    def test_shared_bottom_edges_distinct(self):
        col = construction1(5, 8, [1, 2, 3, 4, 5])
        for v in range(1 << 5):
            colors = [
                col.color_of(Edge(v, d))
                for d in range(1, 6)
                if not v >> (d - 1) & 1
            ]
            assert len(set(colors)) == len(colors)

    def test_preconditions(self):
        with pytest.raises(UsageError):
            construction1(4, 6, [1, 2, 3, 4])  # k not divisible by 4
        with pytest.raises(UsageError):
            construction1(4, 4, [1, 2, 3, 4])  # k too small
        with pytest.raises(UsageError):
            construction1(4, 8, [1, 2, 3])  # fewer than n elements
        with pytest.raises(UsageError):
            construction1(3, 12, [1, 2, 3])  # {1,2,3} is not B_2

    def test_count_bound(self):
        col = construction1(5, 8, [1, 2, 3, 4, 5])
        max_d = max(c[0] for _, c in col.items())
        assert count_colors(col) <= (8 // 2) * (max_d + 1)

    def test_count_kernel_matches_walk(self):
        # B_1 and greedy B_2 / B_3 sets, scaled and jittered; k up to 40,
        # so the k/2 levels exceed n in many cases
        rng = random.Random(19)
        seen_levels_above_n = 0
        for _ in range(150):
            n, k = rng.randint(1, 9), rng.choice(range(8, 41, 4))
            t = rng.choice((1, 2, 3))
            scale = rng.choice((1, 3, 50, 1000))
            s = [scale * x + rng.randint(0, scale - 1) for x in greedy_bt(t, n)]
            params = {"S": s, "M": k // 4 * max(s) + 1}
            col = EdgeColoring(n, k, "construction1", params)
            assert kernel(col) == walk(col) == count_colors(col)
            seen_levels_above_n += k // 2 > n
        assert seen_levels_above_n > 50
        for n in range(1, 8):
            for k in (8, 12, 16):
                col = construction1(n, k, greedy_bt(k // 4 - 1, n))
                assert kernel(col) == walk(col)


class TestConstruction2:
    def test_example_colors(self):
        col = construction2(4, [1, 2, 4, 5], 5)
        assert col.color_of(Edge(0, 2)) == (4, 1)
        assert col.color_of(Edge(0b1, 2)) == (5, 2)

    def test_count_at_most_6n(self):
        col = construction2(4, [1, 2, 4, 5], 5)
        assert count_colors(col) <= 30

    def test_shared_bottom_edges_distinct(self):
        s, cap, _ = derive_c2_params(5, 1)
        col = construction2(5, s, cap)
        for v in range(1 << 5):
            colors = [
                col.color_of(Edge(v, d))
                for d in range(1, 6)
                if not v >> (d - 1) & 1
            ]
            assert len(set(colors)) == len(colors)

    def test_count_dp_matches_direct(self):
        for n in range(1, 9):
            s, cap, _ = derive_c2_params(n, 1)
            col = construction2(n, s, cap)
            direct = len(set(col.key_table().values()))
            assert count_colors(col) == direct
            assert kernel(col) == direct
            assert oracles.count_c2_sets(s, 2 * cap, n) == direct

    def test_count_paths_agree(self):
        for n in range(9, 17):
            s, cap, _ = derive_c2_params(n, 1)
            col = construction2(n, s, cap)
            assert kernel(col) == walk(col) == oracles.count_c2_sets(s, 2 * cap, n)
        rng = random.Random(8)
        for _ in range(200):
            n, cap = rng.randint(1, 10), rng.randint(1, 300)
            s = [rng.randint(1, 3 * cap) for _ in range(n)]
            col = EdgeColoring(n, 6, "construction2", {"S": s, "N": cap})
            expected = oracles.count_c2_sets(s, 2 * cap, n)
            assert kernel(col) == walk(col) == count_colors(col) == expected

    def test_preconditions(self):
        with pytest.raises(UsageError):
            construction2(3, [1, 2, 3], 5)  # progression
        with pytest.raises(UsageError):
            construction2(3, [1, 2, 4], 3)  # cap below max element
        with pytest.raises(UsageError):
            construction2(4, [1, 2, 4], 10)  # fewer than n elements


@pytest.mark.parametrize(
    "func,args,name",
    [
        pytest.param(construction2, (1, (1,), True), "cap", id="construction2-cap"),
        pytest.param(derive_c2_params, (True, 1), "n", id="derive_c2_params-n"),
    ],
)
def test_bool_is_not_a_positive_int(func, args, name):
    with pytest.raises(UsageError) as info:
        func(*args)
    assert str(info.value) == f"{name} must be a positive int, got True"


def fail(*args):
    raise AssertionError("this path should not run")


class TestCountRouting:
    def test_large_c2_elements_take_the_walk(self, monkeypatch):
        # 2N = 2^21 bits is past 2^(n + COUNT_BITS_LEAD) for n <= 13
        big = behrend_set(C2_CAP_LIMIT)
        cols = [construction2(n, big[-n:], C2_CAP_LIMIT) for n in (5, 12, 13)]
        expected = [oracles.count_c2_sets(c.params["S"], 2 << 20, c.n) for c in cols]
        monkeypatch.setattr(coloring, "_count_bits", fail)
        assert [count_colors(c) for c in cols] == expected
        assert 13 + COUNT_BITS_LEAD < 21

    def test_c2_within_the_limit_takes_the_kernel(self, monkeypatch):
        # the derive_c2_params sums stay short; the largest elements wrap
        # mod 2N, whose 2^21 bits are within 2^(14 + COUNT_BITS_LEAD)
        cols = [
            construction2(n, *derive_c2_params(n, eps)[:2])
            for n, eps in ((12, 3), (16, 4))
        ]
        big = behrend_set(C2_CAP_LIMIT)
        cols.append(construction2(14, big[-14:], C2_CAP_LIMIT))
        expected = [
            oracles.count_c2_sets(c.params["S"], 2 * c.params["N"], c.n) for c in cols
        ]
        monkeypatch.setattr(EdgeColoring, "_rows", fail)
        assert [count_colors(c) for c in cols] == expected

    def test_c2_with_a_huge_modulus_counts_in_short_bitsets(self, monkeypatch):
        # every sum stays below 2N = 2^41, so the bitsets need only cover
        # the sums; 2N-bit bitsets would take 256 GiB each
        col = construction2(12, behrend_set(100)[:12], 2**40)
        expected = oracles.count_c2_sets(col.params["S"], 2**41, 12)
        monkeypatch.setattr(EdgeColoring, "_rows", fail)
        tracemalloc.start()
        try:
            assert count_colors(col) == expected
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    def test_wide_c1_above_n20_refused(self):
        col = construction1(24, 12, [10**6 * x for x in greedy_bt(2, 24)])
        start = time.perf_counter()
        with pytest.raises(BudgetError) as info:
            count_colors(col)
        assert info.value.kind == "class"
        assert time.perf_counter() - start < 1

    def test_wide_c1_above_the_table_limit_refused(self, monkeypatch):
        # the walk keeps up to one int per edge, as a color table does
        col = construction1(19, 12, [10**6 * x for x in greedy_bt(2, 19)])
        monkeypatch.setattr(EdgeColoring, "_rows", fail)
        start = time.perf_counter()
        with pytest.raises(BudgetError) as info:
            count_colors(col)
        assert info.value.kind == "class"
        assert time.perf_counter() - start < 1

    def test_c1_n32_counted(self, monkeypatch):
        monkeypatch.setattr(EdgeColoring, "_rows", fail)
        for k, s in ((8, range(1, 33)), (12, greedy_bt(2, 32))):
            col = construction1(32, k, s)
            t, used = k // 4 - 1, col.params["S"]
            bound = k * k * (used[-1] // 32**t + 1) * 32 ** (k // 4)
            # the edges from 0 add 32 colors (M j, 1) to the 32 * 31 colors
            # (s_i + M j, 2) of the edges from the bits i != j, as s_i < M
            assert 32 * 32 <= count_colors(col) <= bound


class TestDeriveC2Params:
    def test_square_cap(self):
        s, cap, eps = derive_c2_params(4, 1)
        assert cap == 16 and len(s) == 4 and s == (1, 2, 4, 5)

    def test_single_dimension(self):
        s, cap, _ = derive_c2_params(1, 7)
        assert cap == 1 and s == (1,)

    def test_exact_rational_cap(self):
        # 1000^(6/5) = 3981.07..., so the cap must round up to 3982; the
        # generator cannot reach 1000 elements there, and the error names
        # the computed cap
        with pytest.raises(UsageError, match="below 3982"):
            derive_c2_params(1000, Fraction(1, 5))

    def test_construction_still_enforces_mask_cap(self):
        with pytest.raises(UsageError):
            construction2(40, list(range(1, 50)), 100)

    def test_infeasible_advises_larger_eps(self):
        with pytest.raises(UsageError, match="larger eps"):
            derive_c2_params(16, Fraction(1, 4))

    def test_eps_must_be_positive(self):
        with pytest.raises(UsageError):
            derive_c2_params(4, 0)

    def test_cap_limit_is_inclusive(self):
        # 32^4 = 2^20 sits on the limit; 33^4 is past it
        assert _ceil_power(32, Fraction(4)) == C2_CAP_LIMIT
        with pytest.raises(BudgetError):
            derive_c2_params(33, 3)

    @pytest.mark.parametrize("eps", ["1/1000000", "1e-12", "1e-400", "1e-1000"])
    def test_tiny_eps_advises_larger_eps(self, eps):
        # 8^(1 + eps) is just above 8, so N = 9
        with pytest.raises(UsageError, match="below 9; retry with a larger eps"):
            derive_c2_params(8, eps)

    @pytest.mark.parametrize("eps", ["1e-1001", "1e-10000000", " 5.5E-0099999999 "])
    def test_huge_negative_exponent_advises_larger_eps(self, eps):
        start = time.monotonic()
        with pytest.raises(UsageError, match="retry with a larger eps"):
            derive_c2_params(8, eps)
        assert time.monotonic() - start < 1

    @pytest.mark.parametrize(
        "eps",
        ["1e400", "1e1000", "1e1001", "1e10000000", "2.E+0010000", "9" * 5000 + "e2000"],
    )
    def test_huge_positive_exponent_is_class_error(self, eps):
        start = time.monotonic()
        with pytest.raises(BudgetError) as info:
            derive_c2_params(8, eps)
        assert info.value.kind == "class"
        assert time.monotonic() - start < 1

    @pytest.mark.parametrize(
        "eps", ["0e99999999", "-1e5000", "-.5e-10000000", "+00.000e2000", "-0e-2000"]
    )
    def test_huge_exponent_still_needs_positive_eps(self, eps):
        with pytest.raises(UsageError, match="eps must be positive"):
            derive_c2_params(8, eps)

    @pytest.mark.parametrize("eps", ["1/2e99999999", "1e99999999x", "e99999999"])
    def test_non_decimal_text_is_not_rational(self, eps):
        with pytest.raises(UsageError, match="rational number"):
            derive_c2_params(8, eps)

    @pytest.mark.parametrize(
        "eps,expected",
        [("1/2", Fraction(1, 2)), ("1.0", 1), ("2.5e-0000000001", Fraction(1, 4))],
    )
    def test_exponent_guard_keeps_ordinary_values(self, eps, expected):
        assert derive_c2_params(8, eps) == derive_c2_params(8, expected)


def _eps_below_three(delta, places):
    """eps with 2^(1+eps) = 3 - 10^-delta, to ``places`` digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = places
        return Fraction((3 - Decimal(10) ** -delta).ln() / Decimal(2).ln() - 1)


def _counting_localcontext(monkeypatch):
    passes = []

    def counted(*args, **kwargs):
        passes.append(1)
        return decimal.localcontext(*args, **kwargs)

    monkeypatch.setattr(coloring, "localcontext", counted)
    return passes


def test_ceil_power_raises_its_precision(monkeypatch):
    # 2^(1+eps) lies 10^-30 below 3, past what 32 digits resolve
    passes = _counting_localcontext(monkeypatch)
    s, cap, _ = derive_c2_params(2, _eps_below_three(30, 80))
    assert cap == 3 and s == (1, 2)
    assert len(passes) == 2


def test_ceil_power_gives_up_past_its_precision(monkeypatch):
    # 10^-1100 below 3 is past the 1,024 digits of the last pass
    passes = _counting_localcontext(monkeypatch)
    with pytest.raises(BudgetError) as info:
        derive_c2_params(2, _eps_below_three(1100, 1200))
    assert info.value.kind == "class"
    assert len(passes) == 6


def test_iroot_is_exact_on_large_ints():
    for value in (10**400, 3**500 - 1, 3**500, 2**4000 + 1):
        for degree in (1, 2, 3, 7, 64, 5000):
            r = _iroot(value, degree)
            assert r**degree <= value < (r + 1) ** degree


def test_ceil_power_is_exact():
    """Against the least c with c^q >= n^p, on small powers."""
    for n in range(1, 40):
        for q in range(1, 7):
            for p in range(q + 1, 4 * q + 1):
                expo = Fraction(p, q)
                if expo.denominator != q or n**expo > 2**21:
                    continue
                lo, hi = 0, 2**22  # lo^q < n^p <= hi^q
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    lo, hi = (lo, mid) if mid**q >= n**p else (mid, hi)
                assert _ceil_power(n, expo) == hi, (n, expo)


def foreign_keys(n):
    """Ints and other values that are not the key of an edge of Q_n."""
    bottom = st.integers(0, (1 << n) - 1)
    low = st.integers(0, n - 1)
    return st.one_of(
        st.builds(lambda b, d: b << 5 | d, bottom, st.integers(n, 31)),
        st.builds(lambda b, d: b << 5 | d, st.integers(1 << n, 1 << n + 3), low),
        st.builds(lambda b, d: (b | 1 << d) << 5 | d, bottom, low),
        # a negative bottom whose bits up to the direction are clear
        st.builds(lambda b, d: (-(b + 1) << d + 1) << 5 | d, st.integers(0, 99), low),
        st.booleans(),
        st.text(max_size=3),
    )


@st.composite
def explicit_tables(draw):
    """(n, table, change): a total table on Q_n, n <= 4, or one with a key dropped,
    a foreign key added, or a key replaced by a foreign one."""
    n = draw(st.integers(1, 4))
    table = {e.key(): (draw(st.integers(0, 3)), 0) for e in enumerate_edges(n)}
    change = draw(st.sampled_from(["none", "drop", "extra", "replace"]))
    if change in ("drop", "replace"):
        del table[draw(st.sampled_from(sorted(table)))]
    if change in ("extra", "replace"):
        # False and True equal the keys 0 and 1, which a dict would overwrite
        table[draw(foreign_keys(n).filter(lambda key: key not in table))] = (0, 0)
    return n, table, change


@settings(max_examples=400, deadline=None)
@given(case=explicit_tables())
def test_explicit_table_checked_when_built(case):
    n, table, change = case
    total = len(table) == n << n - 1 and all(oracles.is_edge_key(n, k) for k in table)
    assert total == (change == "none")
    if not total:
        with pytest.raises(UsageError):
            EdgeColoring(n, 6, "explicit", {}, table)
        return
    col = EdgeColoring(n, 6, "explicit", {}, table)
    assert col.key_table() == table
    assert [col.color_of(e) for e in enumerate_edges(n)] == [c for _, c in col.items()]


class TestEdgeColoring:
    def test_recomputation_determinism(self):
        a = construction2(4, [1, 2, 4, 5], 5)
        b = construction2(4, [1, 2, 4, 5], 5)
        assert a.key_table() == b.key_table()

    def test_items_cover_every_edge_once(self):
        col = construction1(4, 8, [1, 2, 3, 4])
        edges = [e for e, _ in col.items()]
        assert edges == list(enumerate_edges(4))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_walk_matches_formula_oracle(self, n):
        schemes = [
            construction1(n, 8, greedy_bt(1, n)),
            construction1(n, 12, [3 * x + 7 for x in greedy_bt(2, n)]),
            construction2(n, behrend_set(40)[:n], 41),
            construction2(n, behrend_set(40)[-n:], 40),  # sums wrap mod 80
        ]
        for col in schemes:
            expected = oracles.scheme_color_table(col)
            assert col.key_table() == expected
            pairs = list(col.items())
            assert [e for e, _ in pairs] == list(enumerate_edges(n))
            assert all(c == expected[e.key()] == col.color_of(e) for e, c in pairs)
            assert count_colors(col) == len(set(expected.values()))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_scheme_key_table_is_the_walk(self, n):
        s, cap, _ = derive_c2_params(n, 1)
        for col in (construction1(n, 8, greedy_bt(1, n)), construction2(n, s, cap)):
            want = {edge_key(b, d): c for b, d, c in col._rows()}
            assert col.key_table() == want

    def test_explicit_requires_table(self):
        with pytest.raises(UsageError):
            EdgeColoring(3, 6, "explicit")

    def test_explicit_partial_table_fails_materialization(self):
        table = {e.key(): (0, 0) for e in enumerate_edges(3)}
        table.pop(Edge(0, 1).key())
        with pytest.raises(UsageError):
            EdgeColoring(3, 6, "explicit", {}, table)

    def test_explicit_foreign_key_fails_materialization(self):
        table = {e.key(): (0, 0) for e in enumerate_edges(3)}
        table.pop(Edge(0, 1).key())
        table[edge_key(1, 1)] = (0, 0)  # direction bit set: not an edge
        with pytest.raises(UsageError):
            EdgeColoring(3, 6, "explicit", {}, table)

    def test_unknown_scheme(self):
        with pytest.raises(UsageError):
            EdgeColoring(3, 6, "mystery", {})

    def test_large_cube_is_lazy(self):
        s, cap, _ = derive_c2_params(32, Fraction(1, 2))
        col = construction2(32, s, cap)
        assert count_colors(col) <= 6 * cap
        with pytest.raises(BudgetError):
            col.key_table()
