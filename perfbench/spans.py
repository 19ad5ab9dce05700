"""Span tracing from outside the program.

A traced run replaces the module-level names through which one layer of
the package calls the next with wrappers that record a span per call:
name, start, end, parent span and job id. For a generator the span's busy
time adds up the time spent inside ``next()``, so the consumer's own work
between items is not charged to it. Spans stay in memory and are written
out once, when the run ends.

All spans come from one thread, so sibling spans never overlap and a
span's self time is its busy time minus its children's busy time.
"""

from __future__ import annotations

import json
import os
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "busy", "count")

    def __init__(self, name, start, end, parent, job, busy, count=0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index into the span list, or -1
        self.job = job
        self.busy = busy
        self.count = count


class Tracer:
    """Collects spans; ``job`` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = None

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.job, 0.0))
        return len(self.spans) - 1

    def call(self, name: str, fn, count=None):
        """Wrap ``fn``; ``count(args, result)`` gives the span's work count."""

        def traced(*args, **kwargs):
            idx = self._open(name)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span = self.spans[idx]
                span.end = perf_counter()
                span.busy = span.end - span.start
            if count is not None:
                span.count = count(args, result)
            return result

        return traced

    def generator(self, name: str, fn):
        """Wrap a function returning an iterator; count is items yielded."""

        def traced(*args, **kwargs):
            idx = self._open(name)
            span = self.spans[idx]
            self.stack.append(idx)
            try:
                it = iter(fn(*args, **kwargs))
            finally:
                self.stack.pop()
                span.end = perf_counter()
                span.busy = span.end - span.start
            return self._drive(idx, it)

        return traced

    def _drive(self, idx: int, it):
        span = self.spans[idx]
        stack = self.stack
        while True:
            t0 = perf_counter()
            stack.append(idx)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                stack.pop()
                t1 = perf_counter()
                span.busy += t1 - t0
                span.end = t1
            span.count += 1
            yield item

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "job": s.job,
                            "busy": s.busy,
                            "count": s.count,
                        }
                    )
                )
                fh.write("\n")


def self_times(spans: list[Span]) -> list[float]:
    """Busy time of each span minus the busy time of its direct children."""
    out = [s.busy for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.busy
    return out


def _result_len(args, result):
    return len(result)


def _pairs(args, graph):
    return sum(a.bit_count() for a in graph.adj) // 2


def _file_bytes(path_arg: int):
    return lambda args, result: os.path.getsize(args[path_arg])


# (module, attribute, span name, kind, count). The attributes are the names
# the calling layer looks up at call time, so patching them intercepts the
# call from the caller's side without touching the callee.
WRAPS = (
    ("verifier", "enumerate_cycles", "hypercube.enumerate_cycles", "gen", None),
    ("verifier", "build_cycle_same_level", "hypercube.build_cycle_same_level", "call", None),
    ("coloring.EdgeColoring", "key_table", "coloring.key_table", "call", _result_len),
    ("coloring.EdgeColoring", "items", "coloring.items", "gen", None),
    ("coloring", "count_colors", "coloring.count_colors", "call", None),
    ("verifier", "verify_rainbow", "verifier.verify_rainbow", "call", None),
    ("verifier", "conflict_graph", "verifier.conflict_graph", "call", _pairs),
    ("verifier", "exact_min_colors", "verifier.exact_min_colors", "call", None),
    ("verifier", "lower_bound_clique", "verifier.lower_bound_clique", "call",
     lambda args, result: len(result[1].witnesses)),
    ("addsets", "behrend_set", "addsets.behrend_set", "call", _result_len),
    ("coloring", "behrend_set", "addsets.behrend_set", "call", _result_len),
    ("addsets", "greedy_bt", "addsets.greedy_bt", "call", _result_len),
    ("addsets", "bose_chowla", "addsets.bose_chowla", "call", _result_len),
    ("addsets", "equation_free_subset", "addsets.equation_free_subset", "call",
     lambda args, result: len(result[0])),
    ("addsets", "verify_bt", "addsets.verify_bt", "call", None),
    ("coloring", "verify_bt", "addsets.verify_bt", "call", None),
    ("addsets", "verify_3ap_free", "addsets.verify_3ap_free", "call", None),
    ("coloring", "verify_3ap_free", "addsets.verify_3ap_free", "call", None),
    ("cli", "save_coloring", "cli.save_coloring", "call", _file_bytes(1)),
    ("cli", "load_coloring", "cli.load_coloring", "call", _file_bytes(0)),
    ("cli", "main", "cli.main", "call", None),
)


def _owner(pkg, dotted: str):
    obj = pkg
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def install(tracer: Tracer, pkg) -> list:
    """Patch every name in WRAPS; returns what ``uninstall`` restores."""
    saved = []
    for owner_name, attr, name, kind, count in WRAPS:
        owner = _owner(pkg, owner_name)
        original = owner.__dict__[attr]
        if kind == "gen":
            wrapped = tracer.generator(name, original)
        else:
            wrapped = tracer.call(name, original, count)
        setattr(owner, attr, wrapped)
        saved.append((owner, attr, original))
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


LAYER_UNITS = {
    "hypercube.enumerate_cycles.cycles": "count",
    "hypercube.enumerate_cycles.busy_s": "s",
    "hypercube.enumerate_cycles.us_per_cycle": "us",
    "hypercube.build_cycle_same_level.calls": "count",
    "hypercube.build_cycle_same_level.busy_s": "s",
    "coloring.key_table.busy_s": "s",
    "coloring.key_table.us_per_edge": "us",
    "coloring.items.busy_s": "s",
    "coloring.count_colors.busy_s": "s",
    "verifier.verify_rainbow.busy_s": "s",
    "verifier.verify_rainbow.self_s": "s",
    "verifier.conflict_graph.busy_s": "s",
    "verifier.conflict_graph.pairs": "count",
    "verifier.conflict_graph.cycles_per_pair": "count",
    "verifier.exact_min_colors.busy_s": "s",
    "verifier.exact_min_colors.search_s": "s",
    "verifier.lower_bound_clique.busy_s": "s",
    "verifier.lower_bound_clique.us_per_pair": "us",
    "addsets.behrend_set.busy_s": "s",
    "addsets.greedy_bt.busy_s": "s",
    "addsets.bose_chowla.busy_s": "s",
    "addsets.equation_free_subset.busy_s": "s",
    "addsets.verify.busy_s": "s",
    "addsets.elements": "count",
    "cli.save_coloring.busy_s": "s",
    "cli.save_coloring.bytes": "B",
    "cli.save_coloring.mb_per_s": "MB/s",
    "cli.load_coloring.busy_s": "s",
    "cli.load_coloring.mb_per_s": "MB/s",
    "cli.main.self_s": "s",
}


def layer_metrics(spans: list[Span], rounds: int, scale=None) -> dict[str, float]:
    """Per-layer metrics from spans; times and counts are per round.

    ``scale`` maps a span's job to the factor that turns its wall seconds
    into reference seconds; a job missing from it keeps wall seconds.
    """
    scale = scale or {}
    selfs = self_times(spans)
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    count: dict[str, int] = {}
    calls: dict[str, int] = {}
    for s, own in zip(spans, selfs):
        factor = scale.get(s.job, 1.0)
        busy[s.name] = busy.get(s.name, 0.0) + s.busy * factor
        self_s[s.name] = self_s.get(s.name, 0.0) + own * factor
        count[s.name] = count.get(s.name, 0) + s.count
        calls[s.name] = calls.get(s.name, 0) + 1
    graph_cycles = sum(
        s.count
        for s in spans
        if s.name == "hypercube.enumerate_cycles"
        and s.parent >= 0
        and spans[s.parent].name == "verifier.conflict_graph"
    )

    def b(name):
        return busy.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    cycles = count.get("hypercube.enumerate_cycles", 0)
    edges = count.get("coloring.key_table", 0)
    pairs = count.get("verifier.conflict_graph", 0)
    cert_pairs = count.get("verifier.lower_bound_clique", 0)
    saved = count.get("cli.save_coloring", 0)
    loaded = count.get("cli.load_coloring", 0)
    elements = sum(
        count.get(f"addsets.{g}", 0)
        for g in ("behrend_set", "greedy_bt", "bose_chowla", "equation_free_subset")
    )
    r = max(rounds, 1)
    return {
        "hypercube.enumerate_cycles.cycles": cycles / r,
        "hypercube.enumerate_cycles.busy_s": b("hypercube.enumerate_cycles") / r,
        "hypercube.enumerate_cycles.us_per_cycle": ratio(
            b("hypercube.enumerate_cycles") * 1e6, cycles
        ),
        "hypercube.build_cycle_same_level.calls": calls.get(
            "hypercube.build_cycle_same_level", 0
        ) / r,
        "hypercube.build_cycle_same_level.busy_s": b("hypercube.build_cycle_same_level") / r,
        "coloring.key_table.busy_s": b("coloring.key_table") / r,
        "coloring.key_table.us_per_edge": ratio(b("coloring.key_table") * 1e6, edges),
        "coloring.items.busy_s": b("coloring.items") / r,
        "coloring.count_colors.busy_s": b("coloring.count_colors") / r,
        "verifier.verify_rainbow.busy_s": b("verifier.verify_rainbow") / r,
        "verifier.verify_rainbow.self_s": self_s.get("verifier.verify_rainbow", 0.0) / r,
        "verifier.conflict_graph.busy_s": b("verifier.conflict_graph") / r,
        "verifier.conflict_graph.pairs": pairs / r,
        "verifier.conflict_graph.cycles_per_pair": ratio(graph_cycles, pairs),
        "verifier.exact_min_colors.busy_s": b("verifier.exact_min_colors") / r,
        "verifier.exact_min_colors.search_s": self_s.get("verifier.exact_min_colors", 0.0) / r,
        "verifier.lower_bound_clique.busy_s": b("verifier.lower_bound_clique") / r,
        "verifier.lower_bound_clique.us_per_pair": ratio(
            b("verifier.lower_bound_clique") * 1e6, cert_pairs
        ),
        "addsets.behrend_set.busy_s": b("addsets.behrend_set") / r,
        "addsets.greedy_bt.busy_s": b("addsets.greedy_bt") / r,
        "addsets.bose_chowla.busy_s": b("addsets.bose_chowla") / r,
        "addsets.equation_free_subset.busy_s": b("addsets.equation_free_subset") / r,
        "addsets.verify.busy_s": (b("addsets.verify_bt") + b("addsets.verify_3ap_free")) / r,
        "addsets.elements": elements / r,
        "cli.save_coloring.busy_s": b("cli.save_coloring") / r,
        "cli.save_coloring.bytes": saved / r,
        "cli.save_coloring.mb_per_s": ratio(saved / 1e6, b("cli.save_coloring")),
        "cli.load_coloring.busy_s": b("cli.load_coloring") / r,
        "cli.load_coloring.mb_per_s": ratio(loaded / 1e6, b("cli.load_coloring")),
        "cli.main.self_s": self_s.get("cli.main", 0.0) / r,
    }
