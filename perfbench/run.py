"""rainbowcube benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process as a closed loop: one client, one
thread, the next job only after the previous one finished and was
checked. ``--workload all`` runs each workload in its own process, one
after the other, and prints every metric by name.

With ``--trace 0`` the last line of stdout is the end-to-end result:
jobs_per_s, job_p50_ms, job_p90_ms, setup_s and peak_rss_mb. With
``--trace 1`` it is the per-layer result: untraced and traced rounds
alternate, spans from the traced rounds give the layer metrics and the
round times give trace.overhead_pct. The spans are written to
perfbench/out/. See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import workloads  # noqa: E402

PROGRAM_MODULES = ("hypercube", "coloring", "verifier", "addsets", "cli")
SETUP_REPEATS = 5
MIN_ROUNDS = 3
MIN_JOBS = 100  # ten samples beyond the 90th percentile
MAX_LOOP_SECONDS = 120.0
# Set aside for confirming a claimed gain; not for use while tuning a change.
HELD_OUT_SEED = 90417
# Times are reported in reference seconds: wall seconds scaled by the ratio
# of this value to the pace measured around the timed work (see pace()).
# The pace measured 0.52 to 0.74 ms on the 2-vCPU Intel Xeon virtual
# machine, Python 3.11.7, where the benchmark was written, so there
# reference seconds stay within about 15% of wall seconds.
CALIBRATION_REFERENCE_S = 0.0006


class NoResult(Exception):
    """The run cannot produce metrics: no program, or no job finished."""


class Program:
    """The program's layer modules, freshly imported from ``src/``."""

    def __init__(self):
        for name in [m for m in sys.modules if m.split(".")[0] == "rainbowcube"]:
            del sys.modules[name]
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        try:
            package = importlib.import_module("rainbowcube")
        except ImportError as exc:
            raise NoResult(f"cannot import rainbowcube from {SRC}: {exc}") from exc
        if SRC.resolve() not in Path(package.__file__).resolve().parents:
            raise NoResult(f"rainbowcube was imported from {package.__file__}, not {SRC}")
        for name in PROGRAM_MODULES:
            setattr(self, name, importlib.import_module(f"rainbowcube.{name}"))


def job_digest(rounds) -> str:
    blob = json.dumps(rounds, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def commit() -> str:
    """The checkout's commit from .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
    }


def calibration_s() -> float:
    """Time of a fixed pure-Python loop (dict and tuple building, int ops)."""
    t0 = perf_counter()
    table = {}
    for i in range(2000):
        table[i << 5 | i % 7] = (i * i % 97, i & 3)
    sum(a for a, _ in table.values())
    return perf_counter() - t0


def pace() -> float:
    """The machine's current pace: the fastest of nine calibration loops.

    The minimum follows the slow drifts of a shared machine's speed but
    not the short stalls of single loops, so it is the steadiest of the
    estimates tried (median of five or nine, mean, minimum).
    """
    return min(calibration_s() for _ in range(9))


def reference_scale(before: float, after: float) -> float:
    """Reference seconds per wall second for work timed between two paces.

    ``before`` and ``after`` are the paces measured right before and right
    after the work.
    """
    return 2 * CALIBRATION_REFERENCE_S / (before + after)


def _set_up(workload: str, seed: int, workdir: str):
    """Import, input generation and one warm-up job; all of it is timed."""
    before = pace()
    t0 = perf_counter()
    pkg = Program()
    rounds = workloads.make_rounds(workload, seed)
    ctx = workloads.setup_inputs(workload, rounds, pkg, workdir)
    warm = workloads.warmup_job(workload, rounds)
    _, problem = _checked(warm, pkg, ctx)
    elapsed = perf_counter() - t0
    setup = (elapsed, elapsed * reference_scale(before, pace()))
    return setup, pkg, rounds, ctx, (warm["id"], problem)


def _checked(job, pkg, ctx):
    """(latency or None, problem); an exception counts as a failed job.

    A full collection first gives every job the same garbage-collector
    state, as a fresh process would have, whatever ran before it.
    """
    gc.collect()
    try:
        return workloads.run_job(job, pkg, ctx)
    except Exception as exc:  # any crash of a job is a counted failure
        return None, f"{type(exc).__name__}: {exc}"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            max_rounds: int | None = None, max_jobs: int | None = None) -> dict:
    """Run one workload; returns the result object printed as the last line.

    ``max_rounds`` and ``max_jobs`` cut the run short (smoke tests).
    """
    workdir = str(OUT_DIR / f"work-{workload}-{os.getpid()}")
    try:
        return _measure(workload, seed, seconds, trace, max_rounds, max_jobs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _quantiles(times: list[float]) -> tuple[float, float]:
    """Median and 90th percentile."""
    if len(times) < 2:
        return times[0], times[0]
    return statistics.median(times), statistics.quantiles(times, n=10, method="inclusive")[8]


def _by_class(timed: list, column: int) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for row in timed:
        out.setdefault(row[0], []).append(row[column])
    return out


def _end_to_end(timed: list, ok: int, column: int) -> dict:
    """End-to-end metrics from (job class, reference s, wall s) rows.

    Each job counts with its class's median latency over the run, so one
    slow moment on a shared machine moves one sample of one class rather
    than a whole round or the job that happens to sit at a percentile.
    """
    typical = [
        statistics.median(times)
        for times in _by_class(timed, column).values()
        for _ in times
    ]
    p50, p90 = _quantiles(typical)
    return {"jobs_per_s": ok / sum(typical), "job_p50_ms": p50 * 1e3, "job_p90_ms": p90 * 1e3}


def _measure(workload, seed, seconds, trace, max_rounds, max_jobs, workdir):
    setups = []
    failures = []
    attempted = 0
    for _ in range(SETUP_REPEATS):
        setup, pkg, rounds, ctx, (warm_id, problem) = _set_up(workload, seed, workdir)
        setups.append(setup)
        attempted += 1
        if problem is not None:
            failures.append((warm_id, problem))

    tracer = spans.Tracer()
    job_scale = {}  # traced job tag -> reference seconds per wall second
    round_times = {False: [], True: []}
    timed = []  # (job class, reference seconds, wall seconds) of untraced jobs
    timed_ok = 0
    index = 0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if max_rounds is not None:
            if index >= max_rounds:
                break
        elif elapsed > MAX_LOOP_SECONDS or (
            elapsed >= seconds and index >= MIN_ROUNDS
            and (len(round_times[True]) >= 2 if trace else len(timed) >= MIN_JOBS)
        ):
            break
        traced = trace and index % 2 == 1
        saved = spans.install(tracer, pkg) if traced else None
        round_s = 0.0
        before = pace()
        try:
            for job in rounds[index % len(rounds)][:max_jobs]:
                tracer.job = f"{index}:{job['id']}"
                latency, problem = _checked(job, pkg, ctx)
                after = pace()
                attempted += 1
                if problem is not None:
                    failures.append((job["id"], problem))
                if latency is not None:
                    job_scale[tracer.job] = reference_scale(before, after)
                    scaled = latency * job_scale[tracer.job]
                    round_s += scaled
                    if not traced:
                        timed.append((workloads.job_class(job), scaled, latency))
                        timed_ok += problem is None
                before = after
        finally:
            if saved is not None:
                spans.uninstall(saved)
        round_times[traced].append(round_s)
        index += 1

    for job_id, problem in failures:
        print(f"FAILED job {job_id}: {problem}", file=sys.stderr)

    if not timed:
        raise NoResult("no job finished in an untraced round")
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(str(OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"))
        metrics = spans.layer_metrics(tracer.spans, len(round_times[True]), job_scale)
        overhead = statistics.median(round_times[True]) / statistics.median(round_times[False])
        metrics["trace.overhead_pct"] = (overhead - 1) * 100
        wall = {}
    else:
        metrics = _end_to_end(timed, timed_ok, 1)
        metrics["setup_s"] = statistics.median(s[1] for s in setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wall = _end_to_end(timed, timed_ok, 2)
        wall["setup_s"] = statistics.median(s[0] for s in setups)
    by_class = _by_class(timed, 1)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
        "info": {
            **environment(),
            "workload": workload,
            "seed": seed,
            "held_out_seed": seed == HELD_OUT_SEED,
            "job_digest": job_digest(rounds),
            "rounds": index,
            "timed_jobs": len(timed),
            "error_rate": len(failures) / attempted,
            "wall_clock": wall,
            "class_median_ms": {
                name: round(statistics.median(times) * 1e3, 3)
                for name, times in sorted(by_class.items(), key=lambda kv: statistics.median(kv[1]))
            },
        },
    }


UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "trace.overhead_pct": "%",
    **spans.LAYER_UNITS,
}


def print_result(result: dict) -> None:
    """Human-readable lines, then the result object as the last line."""
    info = result.pop("info")
    classes = info.pop("class_median_ms")
    print("env " + json.dumps(info, sort_keys=True))
    for name, ms in classes.items():
        print(f"  {info['workload']:>12}  class median {ms:>10.3f} ms  {name}")
    for name, metric in result["metrics"].items():
        print(f"  {info['workload']:>12}  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {info['workload']:>12}  {'error_rate':<44} {info['error_rate']:>14.6g} "
          f"({result['failed']} of {result['attempted']} jobs)")
    print(json.dumps(result))


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own process, one after the other."""
    combined = {}
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-1]))
        combined[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": combined}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except NoResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
