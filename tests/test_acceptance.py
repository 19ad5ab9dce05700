"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.
"""

import itertools
import random
from fractions import Fraction

from rainbowcube.addsets import (
    behrend_set,
    bose_chowla,
    conjecture_system,
    equation_free_subset,
    genus,
    greedy_bt,
    verify_3ap_free,
    verify_bt,
)
from rainbowcube.coloring import (
    EdgeColoring,
    construction1,
    construction2,
    count_colors,
    derive_c2_params,
)
from rainbowcube.errors import UsageError
from rainbowcube.hypercube import (
    build_cycle_same_level,
    cycle_problem,
    edge_level,
    edges_of_cycle,
    enumerate_cycles,
    enumerate_edges,
)
from rainbowcube.verifier import (
    conflict_graph,
    exact_min_colors,
    lower_bound_clique,
    verify_rainbow,
)

import oracles
from oracles import verify_q3_equivalence


def check(cid: str, cond: bool, detail: str = "") -> None:
    print(f"[criterion {cid}] {'PASS' if cond else 'FAIL'} {detail}".rstrip())
    assert cond, f"criterion {cid} failed: {detail}"


def test_criterion_1_construction2_rainbow():
    details = []
    ok = True
    for n in (3, 4, 5, 6):
        s, cap, _ = derive_c2_params(n, 1)
        col = construction2(n, s, cap)
        violation = verify_rainbow(col, 6)
        colors = count_colors(col)
        ok = ok and violation is None and colors <= 6 * cap
        details.append(f"n={n}: colors={colors}<=6N={6 * cap} rainbow={violation is None}")
    check("1", ok, "; ".join(details))


def test_criterion_2_construction1_rainbow():
    details = []
    ok = True
    for n in (4, 5, 6):
        col = construction1(n, 8, list(range(1, n + 1)))
        good = verify_rainbow(col, 8) is None
        ok = ok and good
        details.append(f"k=8 n={n}: rainbow={good}")
    for n in (4, 5):
        col = construction1(n, 12, greedy_bt(2, n))
        good = verify_rainbow(col, 12) is None
        ok = ok and good
        details.append(f"k=12 n={n}: rainbow={good}")
    check("2", ok, "; ".join(details))


def test_criterion_3_exact_values():
    # f(n, 4) = n for n = 4 and n > 5 (Faudree, Gyarfas, Lesniak and Schelp);
    # f(5, 4) = 6 comes from the exhaustive search here. f(5, 8) = 40 and
    # f(6, 10) = 96 meet the clique-coclique bound m / floor(m / omega).
    want = {
        (2, 4): 4, (4, 4): 4, (5, 4): 6, (6, 4): 6, (7, 4): 7, (9, 4): 9,
        (11, 4): 11, (3, 6): 12, (5, 8): 40, (6, 10): 96,
    }
    got, rainbow = {}, {}
    for n, k in want:
        got[n, k], col = exact_min_colors(n, k)
        rainbow[n, k] = verify_rainbow(col, k) is None
    ok = got == want and all(rainbow.values())
    check("3", ok, f"got {got}, want {want}, rainbow {rainbow}")


def test_criterion_4_lower_bound_certificate():
    count, cert = lower_bound_clique(9, 8)
    pair_total = count * (count - 1) // 2
    witnessed = len(cert.witnesses)
    valid = all(
        cycle_problem(9, cyc) is None
        and e1 in set(edges_of_cycle(cyc))
        and e2 in set(edges_of_cycle(cyc))
        for (e1, e2), cyc in cert.witnesses.items()
    )
    ok = count == 72 and witnessed == pair_total and valid
    check("4", ok, f"count={count}, witnesses={witnessed}/{pair_total}, valid={valid}")


def test_criterion_5_bose_chowla():
    details = []
    ok = True
    for t, qs in ((2, (3, 5, 7, 11)), (3, (3, 5))):
        for q in qs:
            s = bose_chowla(t, q)
            good = len(s) == q and s[-1] <= q**t - 1 and verify_bt(s, t)[0]
            ok = ok and good
            details.append(f"t={t} q={q}: ok={good}")
    check("5", ok, "; ".join(details))


def test_criterion_6_progression_free_sets():
    ap_ok = all(verify_3ap_free(behrend_set(n))[0] for n in range(1, 1001))
    size14 = len(behrend_set(14))
    matches = []
    for limit in range(1, 17):
        elems, optimal = equation_free_subset([(1, 1, -2)], limit, mode="exhaustive")
        matches.append(optimal and len(elems) == oracles.brute_r3(limit))
    ok = ap_ok and size14 >= 8 and all(matches)
    check(
        "6",
        ok,
        f"apfree<=1000={ap_ok}, |behrend(14)|={size14}>=8, r3 match 1..16={all(matches)}",
    )


def test_criterion_7_genus():
    g10 = [genus(eq)[0] for eq in conjecture_system(10)]
    g14 = [genus(eq)[0] for eq in conjecture_system(14)]
    ok = g10 == [2, 2, 2] and g14 == [3, 3, 3]
    check("7", ok, f"k=10 genera {g10}, k=14 genera {g14}")


def test_criterion_8a_rainbow_equals_conflict_properness():
    rng = random.Random(20260809)
    samples = 0
    agree = True
    for n, k in ((3, 4), (3, 6), (4, 4), (4, 6)):
        graph = conflict_graph(n, k)
        edges = list(enumerate_edges(n))
        count = len(edges)
        for _ in range(55):
            palette = rng.choice((2, 4, 8, 16, count))
            table = {e.key(): (rng.randrange(palette), 0) for e in edges}
            col = EdgeColoring(n, k, "explicit", {}, table)
            values = [table[key] for key in graph.keys]
            proper = all(
                not graph.adj[i] >> j & 1 or values[i] != values[j]
                for i in range(count)
                for j in range(i + 1, count)
            )
            agree = agree and proper == (verify_rainbow(col, k) is None)
            samples += 1
    check("8a", agree and samples >= 200, f"{samples} colorings, agreement={agree}")


def test_criterion_8b_q3_equivalence_booleans_agree():
    rng = random.Random(4096)
    agree = True
    samples = 0
    for n in (3, 4):
        edges = list(enumerate_edges(n))
        for _ in range(30):
            palette = rng.choice((3, 6, 12, len(edges)))
            table = {e.key(): (rng.randrange(palette), 0) for e in edges}
            a, b = verify_q3_equivalence(EdgeColoring(n, 6, "explicit", {}, table))
            agree = agree and a == b
            samples += 1
    for n in (3, 4, 5):
        s, cap, _ = derive_c2_params(n, 1)
        a, b = verify_q3_equivalence(construction2(n, s, cap))
        agree = agree and a == b and a
        samples += 1
    check("8b", agree, f"{samples} colorings, booleans agree={agree}")


def test_criterion_8c_constructed_cycles_confirmed_by_enumeration():
    confirmed = True
    pairs_checked = 0
    for k in (4, 6):
        all_cycles = set(enumerate_cycles(7, k))
        by_bottom = {}
        by_top = {}
        for e in enumerate_edges(7):
            by_bottom.setdefault(e.bottom, []).append(e)
            by_top.setdefault(e.top, []).append(e)
        for group in itertools.chain(by_bottom.values(), by_top.values()):
            for e1, e2 in itertools.combinations(group, 2):
                cyc = build_cycle_same_level(7, k, e1, e2)
                inside = cyc in all_cycles
                holds = {e1, e2} <= set(edges_of_cycle(cyc))
                confirmed = confirmed and inside and holds
                pairs_checked += 1
        # incident pairs are the only valid ones for k <= 6: same-level
        # bottoms differ in an even positive number of coordinates, which
        # already exceeds k/2 - 2, so disjoint pairs must be rejected
        sample_disjoint = [
            (e1, e2)
            for e1, e2 in itertools.combinations(
                (e for e in enumerate_edges(7) if edge_level(e) == 2), 2
            )
            if not {e1.bottom, e1.top} & {e2.bottom, e2.top}
        ][:20]
        for e1, e2 in sample_disjoint:
            try:
                build_cycle_same_level(7, k, e1, e2)
                confirmed = False
            except UsageError:
                pass
    check("8c", confirmed, f"{pairs_checked} incident same-level pairs in Q_7 confirmed")


def test_criterion_9_growth_smoke_numbers():
    details = []
    ok = True
    for n in (8, 16, 32):
        for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)):
            try:
                s, cap, _ = derive_c2_params(n, eps)
            except UsageError:
                continue
            colors = count_colors(construction2(n, s, cap))
            ratio = colors / n**1.3
            ok = ok and ratio < 100
            details.append(f"c2 n={n} eps={eps}: colors={colors} ratio={ratio:.2f}")
            break
        else:
            ok = False
            details.append(f"c2 n={n}: no feasible eps")
    c1 = [(n, 8, list(range(1, n + 1))) for n in (8, 12, 16, 24, 32)]
    c1 += [(n, 12, greedy_bt(2, n)) for n in (24, 32)]
    for n, k, s in c1:
        col = construction1(n, k, s)
        colors = count_colors(col)
        ratio = colors / n ** (k // 4)
        used, t = col.params["S"], k // 4 - 1
        shape_bound = k * k * (used[-1] // n**t + 1) * n ** (k // 4)
        ok = ok and ratio < 100 and colors <= shape_bound
        details.append(f"c1 k={k} n={n}: colors={colors} ratio={ratio:.2f}")
    check("9", ok, "; ".join(details))
