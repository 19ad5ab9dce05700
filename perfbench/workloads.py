"""The four workloads: seeded job lists, set-up, and checked job runs.

A job list is ROUNDS rounds. Every round holds the same fixed mix of job
classes; the seed picks the order inside each round and the parameters
that do not change the amount of work (the random sets of the verify
colorings, the planted clash, the sampled certificate witnesses). So runs
with different seeds do the same work, and per-round throughputs can be
compared across rounds, seeds and commits.

Each job calls the program in-process through the public module
attributes (``pkg.cli.load_coloring``, ``pkg.verifier.verify_rainbow``,
...), so a traced run can wrap those names. Only the program calls are
timed; the bench's own checks run after the clock stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import shutil
from math import comb
from time import perf_counter

import checks

ROUNDS = 4

# In every mix the copies per round are counted so that, over whole rounds,
# the median and the 90th percentile of job latency fall in the middle of
# one job class's block of latencies, not on the boundary between two
# classes, where a run-to-run reordering would make them jump. A
# percentile reads that class's median latency (see run.py), so it gets
# many copies: a median of fewer than about 15 samples moved by more than
# 5% from run to run. Verify: 15 jobs, p50 on 3 copies of c1 n=5, p90 on
# 3 copies of c1 n=6, the slowest class. Exact: 25 jobs, p50 on 6 copies
# of (4,8), p90 on 3 copies of the n=11 certificate. Build: 55 jobs, p50
# on 19 copies of the k=14 greedy genus run, p90 on 5 copies of behrend
# N=10^5.

# (scheme, n, k, copies per round). Small cubes repeat so that per-job
# fixed costs (JSON load, color table) show in job_p50_ms.
VERIFY_MIX = (
    ("c2", 5, 6, 2),
    ("c1", 4, 8, 2),
    ("c2", 6, 6, 2),
    ("c1", 5, 8, 3),
    ("c1", 4, 12, 1),
    ("c2", 7, 6, 1),
    ("c2", 8, 6, 1),
    ("c1", 6, 8, 3),
)

# (kind, n, k, copies per round). The cheap instances repeat so a run
# holds enough jobs for a 90th percentile.
EXACT_MIX = (
    ("exact", 4, 4, 4),
    ("exact", 3, 6, 5),
    ("exact", 4, 8, 6),
    ("exact", 5, 4, 2),
    ("exact", 6, 4, 1),
    ("exact", 4, 12, 1),
    ("certificate", 9, 8, 2),
    ("certificate", 10, 8, 1),
    ("certificate", 11, 8, 3),
)
WITNESS_SAMPLE = 16

# (copies per round, job), cheapest first.
BUILD_MIX = (
    *((2, {"kind": "greedy", "t": t, "size": size}) for t, size in ((2, 30), (3, 12))),
    (2, {"kind": "greedy", "t": 3, "size": 8}),
    *((2, {"kind": "bose-chowla", "t": t, "q": q}) for t, q in ((2, 13), (2, 31), (3, 11))),
    (1, {"kind": "bose-chowla", "t": 3, "q": 7}),
    (2, {"kind": "behrend", "N": 1000}),
    (2, {"kind": "genus", "conjecture": 10, "N": 40, "mode": "greedy"}),
    (1, {"kind": "behrend", "N": 3000}),
    (19, {"kind": "genus", "conjecture": 14, "N": 40, "mode": "greedy"}),
    (1, {"kind": "construct", "scheme": "c2", "n": 10, "k": 6}),
    (1, {"kind": "construct", "scheme": "c1", "n": 10, "k": 12, "sidon": "greedy"}),
    (1, {"kind": "behrend", "N": 10000}),
    (1, {"kind": "greedy", "t": 3, "size": 20}),
    (1, {"kind": "genus", "conjecture": 10, "N": 15, "mode": "exhaustive"}),
    (1, {"kind": "construct", "scheme": "c1", "n": 11, "k": 8, "sidon": "greedy"}),
    (1, {"kind": "count", "n": 24}),
    (1, {"kind": "genus", "conjecture": 14, "N": 12, "mode": "exhaustive"}),
    (1, {"kind": "construct", "scheme": "c2", "n": 12, "k": 6}),
    (1, {"kind": "construct", "scheme": "c1", "n": 12, "k": 12, "sidon": "bose-chowla"}),
    (5, {"kind": "behrend", "N": 100000}),
    (1, {"kind": "count", "n": 32}),
    (1, {"kind": "refuse", "n": 15}),
    (1, {"kind": "construct", "scheme": "c2", "n": 14, "k": 6}),
)

WORKLOADS = ("verify-pass", "verify-clash", "exact", "build")

# Job fields the seed picks; every other field is fixed by the mix.
SEEDED_KEYS = ("id", "S", "planted", "partner", "sample")


def _verify_job(scheme, n, k, clash, rng):
    job = {"kind": "verify", "scheme": scheme, "n": n, "k": k}
    if scheme == "c2":
        job["N"] = n * n
        job["S"] = checks.greedy_3ap_free(n * n, n, rng)
    elif k == 8:
        job["S"] = sorted(rng.sample(range(1, 8 * n + 1), n))  # any set is B_1
    else:
        job["S"] = checks.random_bt(k // 4 - 1, n, 12 * n, rng)
    if clash:
        planted, partner = checks.plant_clash(n, k, rng)
        job["planted"] = list(planted)
        job["partner"] = list(partner)
    return job


def _exact_job(kind, n, k, rng):
    job = {"kind": kind, "n": n, "k": k}
    if kind == "certificate":
        pairs = comb(checks.level_edge_count(n, k // 4), 2)
        job["sample"] = sorted(rng.sample(range(pairs), WITNESS_SAMPLE))
    return job


def make_rounds(workload: str, seed: int) -> list[list[dict]]:
    """The job list for a workload and seed: ROUNDS rounds of the mix."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    rounds = []
    for r in range(ROUNDS):
        if workload == "exact":
            jobs = [
                _exact_job(kind, n, k, rng)
                for kind, n, k, copies in EXACT_MIX
                for _ in range(copies)
            ]
        elif workload == "build":
            jobs = [dict(job) for copies, job in BUILD_MIX for _ in range(copies)]
        else:
            clash = workload == "verify-clash"
            jobs = [
                _verify_job(scheme, n, k, clash, rng)
                for scheme, n, k, copies in VERIFY_MIX
                for _ in range(copies)
            ]
        rng.shuffle(jobs)
        for i, job in enumerate(jobs):
            job["id"] = f"{r}.{i}"
        rounds.append(jobs)
    return rounds


def job_class(job: dict) -> str:
    """What fixes a job's amount of work; the same for every seed."""
    return " ".join(f"{key}={val}" for key, val in job.items() if key not in SEEDED_KEYS)


def _write_coloring(path: str, n: int, k: int, table: dict) -> None:
    """Write a coloring document in the documented file format."""
    edges = [
        {"b": hex(b), "dir": d, "color": list(color)}
        for (b, d), color in sorted(table.items())
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": n, "k": k, "scheme": "explicit", "params": {}, "edges": edges}, fh)


def _write_blank_coloring(path: str, n: int) -> None:
    """A well-formed one-color coloring of Q_n in the documented format."""
    records = (
        f'{{"b": "{b:#x}", "dir": {d}, "color": [0, 0]}}'
        for b in range(1 << n)
        for d in range(1, n + 1)
        if not b >> (d - 1) & 1
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"n": {n}, "k": 6, "scheme": "explicit", "params": {{}}, "edges": [')
        fh.write(", ".join(records))
        fh.write("]}\n")


def setup_inputs(workload: str, rounds, pkg, workdir: str) -> dict:
    """Write every input file the job list needs; returns per-job context."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ctx: dict = {"workdir": workdir}
    if workload == "build":
        ctx["refuse"] = os.path.join(workdir, "refuse.json")
        _write_blank_coloring(ctx["refuse"], 15)
    if not workload.startswith("verify"):
        return ctx
    for jobs in rounds:
        for job in jobs:
            n, k = job["n"], job["k"]
            if job["scheme"] == "c2":
                col = pkg.coloring.construction2(n, tuple(job["S"]), job["N"])
            else:
                col = pkg.coloring.construction1(n, k, tuple(job["S"]))
            table = {(e.bottom, e.dir): color for e, color in col.items()}
            if "planted" in job:
                table[tuple(job["planted"])] = table[tuple(job["partner"])]
            path = os.path.join(workdir, f"{job['id']}.json")
            _write_coloring(path, n, k, table)
            ctx[job["id"]] = (path, table)
    return ctx


def warmup_job(workload: str, rounds) -> dict:
    """The cheapest job of round 0, run once during set-up."""
    if workload == "exact":
        return next(j for j in rounds[0] if (j["n"], j["k"]) == (3, 6))
    if workload == "build":
        return next(j for j in rounds[0] if j["kind"] == "bose-chowla")
    return next(j for j in rounds[0] if j["n"] == 5 and j["k"] == 6)


def run_job(job: dict, pkg, ctx: dict):
    """(seconds spent in the program, problem or None)."""
    return _RUNNERS[job["kind"]](job, pkg, ctx)


# --- verify-pass / verify-clash ------------------------------------------


def _run_verify(job, pkg, ctx):
    path, table = ctx[job["id"]]
    t0 = perf_counter()
    col = pkg.cli.load_coloring(path)
    vio = pkg.verifier.verify_rainbow(col, job["k"])
    dt = perf_counter() - t0
    if "planted" not in job:
        return dt, None if vio is None else f"unexpected violation {vio}"
    if vio is None:
        return dt, "planted clash not reported"
    e1 = (vio.e1.bottom, vio.e1.dir)
    e2 = (vio.e2.bottom, vio.e2.dir)
    problem = checks.witness_problem(
        job["n"], job["k"], table, tuple(job["planted"]), list(vio.cycle), e1, e2
    )
    if problem is None and tuple(vio.color) != table[e1]:
        problem = f"reported color {vio.color} is not the edges' color {table[e1]}"
    return dt, problem


# --- exact ---------------------------------------------------------------


def _all_edges(n):
    return [(b, d) for b in range(1 << n) for d in range(1, n + 1) if not b >> (d - 1) & 1]


def _exact_coloring_problem(n, k, colors: dict):
    """Check a returned coloring of a reference instance is k-rainbow.

    k = 4: every 2-dimensional face has four colors. The other reference
    instances have a complete conflict graph, so every edge differs.
    """
    if k != 4:
        return None if len(set(colors.values())) == len(colors) else "colors repeat"
    for v in range(1 << n):
        for i in range(n):
            for j in range(i + 1, n):
                bi, bj = 1 << i, 1 << j
                if v & (bi | bj):
                    continue
                face = {colors[(v, i + 1)], colors[(v, j + 1)],
                        colors[(v | bi, j + 1)], colors[(v | bj, i + 1)]}
                if len(face) != 4:
                    return f"face at {v:#x} in directions {i + 1}, {j + 1} repeats a color"
    return None


def _run_exact(job, pkg, ctx):
    n, k = job["n"], job["k"]
    t0 = perf_counter()
    value, col = pkg.verifier.exact_min_colors(n, k)
    dt = perf_counter() - t0
    expected = checks.EXACT_REFERENCE[(n, k)]
    if value != expected:
        return dt, f"f({n},{k}) = {value}, expected {expected}"
    Edge = pkg.hypercube.Edge
    colors = {(b, d): col.color_of(Edge(b, d)) for b, d in _all_edges(n)}
    if len(set(colors.values())) != value:
        return dt, f"coloring uses {len(set(colors.values()))} colors, reported {value}"
    return dt, _exact_coloring_problem(n, k, colors)


def _run_certificate(job, pkg, ctx):
    n, k = job["n"], job["k"]
    level = k // 4
    t0 = perf_counter()
    count, cert = pkg.verifier.lower_bound_clique(n, k)
    dt = perf_counter() - t0
    expected = checks.level_edge_count(n, level)
    if count != expected or len(cert.edges) != expected:
        return dt, f"certificate size {count}/{len(cert.edges)}, expected {expected}"
    if any(e.bottom.bit_count() + 1 != level for e in cert.edges):
        return dt, f"certificate edge off level {level}"
    if len(cert.witnesses) != comb(expected, 2):
        return dt, f"{len(cert.witnesses)} witnesses for {comb(expected, 2)} pairs"
    items = list(cert.witnesses.items())
    for pos in job["sample"]:
        (e1, e2), cyc = items[pos]
        problem = checks.cycle_problem(n, k, list(cyc))
        on_cycle = set(checks.cycle_edges(list(cyc)))
        if problem is None and not {(e1.bottom, e1.dir), (e2.bottom, e2.dir)} <= on_cycle:
            problem = "witness misses one of its edges"
        if problem is not None:
            return dt, f"witness {pos}: {problem}"
    return dt, None


# --- build ---------------------------------------------------------------


def _cli(pkg, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        rc = pkg.cli.main(argv)
        dt = perf_counter() - t0
    return dt, rc, out.getvalue(), err.getvalue()


def _elements(stdout):
    m = re.search(r"^elements: \[([\d, ]*)\]$", stdout, re.M)
    return None if m is None else [int(x) for x in m.group(1).split(",") if x.strip()]


def _run_construct(job, pkg, ctx):
    n, k = job["n"], job["k"]
    out_path = os.path.join(ctx["workdir"], f"construct-{job['id']}.json")
    argv = ["construct", "--n", str(n), "--scheme", job["scheme"], "--out", out_path]
    if job["scheme"] == "c2":
        argv += ["--eps", "1"]
    else:
        argv += ["--k", str(k), "--sidon", job["sidon"]]
    dt, rc, out, err = _cli(pkg, argv)
    if rc != 0:
        return dt, f"exit {rc}: {err.strip()}"
    m = re.search(r"^colors used: (\d+)", out, re.M)
    if m is None:
        return dt, "no color count printed"
    printed = int(m.group(1))
    with open(out_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    os.remove(out_path)
    edges = {(int(rec["b"], 16), rec["dir"]) for rec in doc["edges"]}
    colors = {tuple(rec["color"]) for rec in doc["edges"]}
    if (doc["n"], doc["k"]) != (n, k):
        return dt, f"file holds n={doc['n']}, k={doc['k']}"
    if len(doc["edges"]) != n << (n - 1) or edges != set(_all_edges(n)):
        return dt, f"file does not hold the {n << (n - 1)} edges of Q_{n} once each"
    if len(colors) != printed:
        return dt, f"printed {printed} colors, file has {len(colors)}"
    if job["scheme"] == "c2":
        cap = re.search(r"N = (\d+)\)", out)
        if cap is None or int(cap.group(1)) != n * n or printed > 6 * n * n:
            return dt, f"c2 color count {printed} breaks the 6N bound"
    return dt, None


def _run_behrend(job, pkg, ctx):
    limit = job["N"]
    dt, rc, out, err = _cli(pkg, ["sets", "--kind", "behrend", "--N", str(limit)])
    elems = _elements(out)
    if rc != 0 or elems is None:
        return dt, f"exit {rc}, elements {elems is not None}"
    floor = _digit_set_size(limit)
    if len(elems) < floor or not all(1 <= e <= limit for e in elems):
        return dt, f"{len(elems)} elements, need {floor} inside [1, {limit}]"
    if not checks.is_3ap_free(elems) or "progression free: true" not in out:
        return dt, "set has a 3-term progression"
    return dt, None


def _digit_set_size(limit):
    """Size of {m + 1 <= limit : base-3 digits of m all 0 or 1}, a 3-AP-free
    set, so a floor on the size of the best one.

    Reading the binary digits of i in base 3 lists those m in increasing
    order.
    """
    i = 0
    while int(bin(i)[2:], 3) < limit:
        i += 1
    return i


def _run_bt(job, pkg, ctx):
    t = job["t"]
    if job["kind"] == "greedy":
        argv = ["sets", "--kind", "bt", "--t", str(t), "--size", str(job["size"])]
        size, top = job["size"], None
    else:
        argv = ["sets", "--kind", "bt", "--t", str(t), "--q", str(job["q"])]
        size, top = job["q"], job["q"] ** t - 1
    dt, rc, out, err = _cli(pkg, argv)
    elems = _elements(out)
    if rc != 0 or elems is None:
        return dt, f"exit {rc}, elements {elems is not None}"
    if len(elems) != size or len(set(elems)) != size:
        return dt, f"{len(elems)} elements, expected {size} distinct"
    if top is not None and not all(1 <= e <= top for e in elems):
        return dt, f"elements outside [1, {top}]"
    if not checks.is_bt(elems, t) or f"B_{t} sums distinct: true" not in out:
        return dt, f"set is not B_{t}"
    if job["kind"] == "greedy" and t == 2 and elems != list(checks.MIAN_CHOWLA[:size]):
        return dt, "greedy B_2 set is not the Mian-Chowla prefix"
    return dt, None


def _run_genus(job, pkg, ctx):
    argv = ["genus", "--conjecture", str(job["conjecture"]), "--freeset", str(job["N"]),
            "--mode", job["mode"]]
    dt, rc, out, err = _cli(pkg, argv)
    if rc != 0:
        return dt, f"exit {rc}: {err.strip()}"
    eqs = re.findall(r"^equation \d+: \[([-\d, ]+)\] genus (\d+)", out, re.M)
    if len(eqs) != 3:
        return dt, f"{len(eqs)} equations printed, expected 3"
    system = [[int(a) for a in coeffs.split(",")] for coeffs, _ in eqs]
    for eq, (_, g) in zip(system, eqs):
        if checks.genus_brute(eq) != int(g):
            return dt, f"genus of {eq} printed as {g}"
    m = re.search(r"subset of \[1, \d+\]: \[([\d, ]*)\] \(size (\d+), optimal (\w+)\)", out)
    if m is None:
        return dt, "no solution-free subset printed"
    elems = [int(x) for x in m.group(1).split(",") if x.strip()]
    if len(elems) != int(m.group(2)) or not all(1 <= e <= job["N"] for e in elems):
        return dt, "subset size or range wrong"
    if m.group(3) != str(job["mode"] == "exhaustive").lower():
        return dt, f"optimal flag {m.group(3)} in {job['mode']} mode"
    for eq in system:
        sol = checks.solution_in(eq, elems)
        if sol is not None:
            return dt, f"subset has the nontrivial solution {sol} of {eq}"
    return dt, None


def _run_count(job, pkg, ctx):
    n = job["n"]
    t0 = perf_counter()
    s, cap, _ = pkg.coloring.derive_c2_params(n, 1)
    col = pkg.coloring.construction2(n, s, cap)
    colors = pkg.coloring.count_colors(col)
    dt = perf_counter() - t0
    if cap != n * n or len(s) != n or max(s) > cap or not checks.is_3ap_free(s):
        return dt, f"parameters S={s}, N={cap} are not a 3-AP-free n-set in [1, n^2]"
    if not 1 <= colors <= 6 * cap:
        return dt, f"{colors} colors breaks the 6N = {6 * cap} bound"
    return dt, None


def _run_refuse(job, pkg, ctx):
    dt, rc, out, err = _cli(pkg, ["verify", "--coloring", ctx["refuse"]])
    return dt, None if rc == 2 else f"verify on Q_{job['n']} exited {rc}, expected 2"


_RUNNERS = {
    "verify": _run_verify,
    "exact": _run_exact,
    "certificate": _run_certificate,
    "construct": _run_construct,
    "behrend": _run_behrend,
    "greedy": _run_bt,
    "bose-chowla": _run_bt,
    "genus": _run_genus,
    "count": _run_count,
    "refuse": _run_refuse,
}
