"""Tests for the benchmark's own code.

Run from the repository root: python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import sys
from itertools import combinations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def all_cycles(n, k):
    """Every k-cycle of Q_n as a vertex list, by plain DFS from its minimum."""
    out = []
    for start in range(1 << n):
        path = [start]

        def rec(v):
            if len(path) == k:
                if (v ^ start).bit_count() == 1 and path[1] < path[-1]:
                    out.append(list(path))
                return
            for d in range(n):
                w = v ^ 1 << d
                if w > start and w not in path:
                    path.append(w)
                    rec(w)
                    path.pop()

        rec(start)
    return out


@pytest.fixture(scope="module")
def pkg():
    return run.Program()


def colorings(pkg, n, k, rng):
    """A coloring with all colors distinct, and the program's scheme coloring."""
    yield {e: i for i, e in enumerate(_edges(n))}
    if k == 6:
        col = pkg.coloring.construction2(n, tuple(checks.greedy_3ap_free(n * n, n, rng)), n * n)
    else:
        col = pkg.coloring.construction1(n, k, tuple(sorted(rng.sample(range(1, 8 * n), n))))
    yield {(e.bottom, e.dir): c for e, c in col.items()}


def _edges(n):
    return [(b, d) for b in range(1 << n) for d in range(1, n + 1) if not b >> (d - 1) & 1]


@pytest.mark.parametrize("n,k", [(3, 6), (4, 6), (5, 6), (4, 8), (5, 8)])
def test_planted_clash_always_breaks_a_cycle(pkg, n, k):
    cycles = all_cycles(n, k)
    rng = random.Random(f"{n}-{k}")
    for _ in range(4):
        planted, partner = checks.plant_clash(n, k, rng)
        for table in colorings(pkg, n, k, rng):
            assert all(
                len({table[e] for e in checks.cycle_edges(c)}) == k for c in cycles
            ), "the coloring must start out rainbow"
            table[planted] = table[partner]
            bad = [c for c in cycles if len({table[e] for e in checks.cycle_edges(c)}) < k]
            assert bad
            assert all(planted in checks.cycle_edges(c) for c in bad)


def test_random_cycle_through_is_a_cycle_on_the_edge():
    rng = random.Random(5)
    for n, k in [(3, 6), (4, 8), (4, 12), (6, 8)]:
        for _ in range(5):
            edge = checks.random_edge(n, rng)
            cyc = checks.random_cycle_through(n, k, edge, rng)
            assert checks.cycle_problem(n, k, _canonical(cyc)) is None
            assert edge in checks.cycle_edges(cyc)


def _canonical(cyc):
    i = cyc.index(min(cyc))
    rot = cyc[i:] + cyc[:i]
    return rot if rot[1] < rot[-1] else rot[:1] + rot[:0:-1]


def test_witness_check_rejects_wrong_witnesses():
    n, k = 3, 6
    table = {e: i for i, e in enumerate(_edges(n))}
    cyc = _canonical(checks.random_cycle_through(n, k, (0, 1), random.Random(1)))
    edges = checks.cycle_edges(cyc)
    planted, partner = (0, 1), next(e for e in edges if e != (0, 1))
    table[planted] = table[partner]
    e1, e2 = sorted([planted, partner])
    assert checks.witness_problem(n, k, table, planted, cyc, e1, e2) is None
    assert checks.witness_problem(n, k, table, planted, cyc[::-1], e1, e2)
    assert checks.witness_problem(n, k, table, planted, cyc[:-1], e1, e2)
    other = next(e for e in edges if e not in (planted, partner))
    assert checks.witness_problem(n, k, table, planted, cyc, e1, other)


def test_set_checks_match_brute_force():
    rng = random.Random(2)
    for _ in range(200):
        s = sorted(rng.sample(range(1, 40), rng.randrange(1, 8)))
        aps = any(2 * y == x + z for x, y, z in combinations(s, 3))
        assert checks.is_3ap_free(s) == (not aps)
        pairs = [a + b for i, a in enumerate(s) for b in s[i:]]
        assert checks.is_bt(s, 2) == (len(pairs) == len(set(pairs)))
    assert checks.is_bt(checks.MIAN_CHOWLA, 2)
    assert checks.genus_brute((1, 1, -2)) == 1
    assert checks.genus_brute((1, -1, 1, -1)) == 2
    assert checks.genus_brute((1, 2, 4)) == 0
    assert checks.solution_in((1, 1, -2), [1, 2, 3]) == (1, 3, 2)
    assert checks.solution_in((1, 1, -2), [1, 2, 4]) is None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_lists_are_seeded(workload):
    a = workloads.make_rounds(workload, 7)
    assert a == workloads.make_rounds(workload, 7)
    assert run.job_digest(a) == run.job_digest(workloads.make_rounds(workload, 7))
    other = workloads.make_rounds(workload, 8)
    assert run.job_digest(a) != run.job_digest(other)
    mix = sorted(workloads.job_class(j) for j in a[0])
    for rounds in (a, other):
        for jobs in rounds:
            assert sorted(workloads.job_class(j) for j in jobs) == mix


def test_self_time_arithmetic():
    # outer [0, 10] has a call child [1, 4] (itself with a child of 1)
    # and a generator child busy for 2 in total.
    s = [
        spans.Span("outer", 0, 10, -1, "j", 10),
        spans.Span("call", 1, 4, 0, "j", 3),
        spans.Span("inner", 2, 3, 1, "j", 1),
        spans.Span("gen", 4, 9, 0, "j", 2, count=5),
    ]
    assert spans.self_times(s) == [5, 2, 1, 2]


def test_tracer_spans(monkeypatch):
    ticks = iter(range(1000))
    monkeypatch.setattr(spans, "perf_counter", lambda: next(ticks))
    tracer = spans.Tracer()
    items = tracer.generator("gen", lambda: iter([10, 20]))
    leaf = tracer.call("leaf", lambda x: x + 1, count=lambda args, result: result)

    def body():
        return sum(leaf(x) for x in items())

    outer = tracer.call("outer", body)
    tracer.job = "job-1"
    assert outer() == 32
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "gen", "leaf", "leaf"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, 0]
    assert {s.job for s in tracer.spans} == {"job-1"}
    gen = tracer.spans[1]
    assert gen.count == 2 and gen.busy == 4  # creation + three next() calls
    assert tracer.spans[2].count == 11
    assert tracer.spans[0].busy == 13
    assert spans.self_times(tracer.spans)[0] == 13 - 4 - 1 - 1
    assert not tracer.stack


def test_layer_metrics_ratios():
    s = [
        spans.Span("verifier.conflict_graph", 0, 4, -1, "a", 4, count=10),
        spans.Span("hypercube.enumerate_cycles", 0, 3, 0, "a", 3, count=30),
        spans.Span("hypercube.enumerate_cycles", 5, 6, -1, "b", 1, count=10),
    ]
    m = spans.layer_metrics(s, rounds=2)
    assert m["verifier.conflict_graph.cycles_per_pair"] == 3
    assert m["hypercube.enumerate_cycles.cycles"] == 20
    assert m["hypercube.enumerate_cycles.us_per_cycle"] == 4 / 40 * 1e6
    assert set(m) == set(spans.LAYER_UNITS)


def _declared(kind):
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke(workload):
    result = run.measure(workload, 3, 0, trace=False, max_rounds=1, max_jobs=3)
    assert result["correct"], result
    assert result["attempted"] == run.SETUP_REPEATS + 3
    metrics = {name: m["unit"] for name, m in result["metrics"].items()}
    assert metrics == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = run.measure(workload, 3, 0, trace=True, max_rounds=2, max_jobs=2)
    assert traced["correct"], traced
    assert {name: m["unit"] for name, m in traced["metrics"].items()} == _declared("per_layer")
