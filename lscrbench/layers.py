"""The per-layer table: metrics derived from the traced pass's spans.

Times are per the unit's denominator (``ms/query`` per answered query,
``ms/req`` per request, ``ms/batch``, ``ms/update``, ...); counts are
totals over the count window -- the first complete pass over the stream
on the serial workloads, which repeats exactly for a seed, else the
timed window.  A layer a workload bypasses reads 0.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from measure import overlaps, self_time

#: Every per-layer metric, in report order, with its unit.  The first
#: six come from the untraced pass; the rest from the traced one.
UNITS = {
    "batch_p50_ms": "ms",
    "batch_tail_ms": "ms",
    "update_p50_ms": "ms",
    "update_tail_ms": "ms",
    "failed_frac": "ratio",
    "gen.late_ms": "ms",
    "http.wire_ms": "ms/req",
    "http.handler_self_ms": "ms/req",
    "http.requests_per_conn": "req/conn",
    "app.self_ms": "ms/req",
    "app.calls": "count",
    "planner.busy_ms": "ms/query",
    "constraint_cache.hit_ratio": "ratio",
    "result_cache.hit_ratio": "ratio",
    "result_cache.busy_ms": "ms/query",
    "candidate_cache.hit_ratio": "ratio",
    "vsg.busy_ms": "ms/query",
    "executor.map_ms": "ms/batch",
    "executor.members_ms": "ms/batch",
    "executor.parallel_eff": "ratio",
    "route.busy_ms": "ms/query",
    "route.settled_ratio": "ratio",
    "route.no": "count",
    "route.yes": "count",
    "witness.extract_ms": "ms/query",
    "evaluate.busy_ms": "ms/query",
    "evaluate.calls": "count",
    "evaluate.passed_vertices": "count",
    "evaluate.scck_calls": "count",
    "evaluate.lcs_calls": "count",
    "evaluate.index_resolutions": "count",
    "update.copy_ms": "ms/update",
    "update.index_repair_ms": "ms/update",
    "update.freeze_ms": "ms/update",
    "update.bounds_ms": "ms/update",
    "update.purge_ms": "ms/update",
    "update.total_ms": "ms/update",
    "update.reader_stall_ms": "ms",
    "wal.append_ms": "ms/update",
    "wal.fsyncs": "count/update",
    "wal.bytes_per_edge": "B/edge",
    "wal.replay_s": "s",
    "scatter.rpcs_per_query": "count/query",
    "scatter.rpc_ms": "ms/rpc",
    "scatter.round_ms": "ms/round",
    "scatter.conn_reuse_ratio": "ratio",
    "scatter.retries": "count",
    "setup.load_s": "s",
    "setup.freeze_s": "s",
    "setup.index_s": "s",
    "setup.bounds_s": "s",
    "trace.overhead": "ratio",
}

#: The service.app request handlers; their self time is ``app.self_ms``.
APP_SPANS = ("app.query", "app.batch", "app.updates")
#: Steps inside ``update.apply`` (per update) and inside a ``setup``
#: span (median over set-ups), by span name.
UPDATE_STEPS = {
    "graph.copy": "update.copy_ms",
    "index.repair": "update.index_repair_ms",
    "freeze": "update.freeze_ms",
    "bounds": "update.bounds_ms",
    "result_cache.purge": "update.purge_ms",
}
SETUP_STEPS = {
    "setup.load": "setup.load_s",
    "freeze": "setup.freeze_s",
    "setup.index": "setup.index_s",
    "bounds": "setup.bounds_s",
}


class Span:
    __slots__ = ("key", "parent", "name", "start", "end", "note")

    def __init__(self, process: int, record: list) -> None:
        span_id, parent, self.name, self.start, self.end, self.note = record
        self.key = (process, span_id)
        self.parent = (process, parent) if parent is not None else None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class SpanSet:
    """Spans of several processes, with parent/child lookups."""

    def __init__(self, processes: list[list]) -> None:
        self.spans: list[Span] = []
        for process, records in enumerate(processes):
            self.spans.extend(Span(process, record) for record in records)
        self.by_key = {span.key: span for span in self.spans}
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        self.children: dict[tuple, list[Span]] = defaultdict(list)
        for span in self.spans:
            self.by_name[span.name].append(span)
            if span.parent is not None:
                self.children[span.parent].append(span)

    @classmethod
    def load(cls, in_process: list, files: list[Path]) -> "SpanSet":
        processes = [in_process]
        for path in files:
            processes.append(json.loads(path.read_text())["spans"])
        return cls(processes)

    def ancestor(self, span: Span, names) -> Span | None:
        """The nearest enclosing span whose name is in ``names``."""
        key = span.parent
        while key is not None:
            parent = self.by_key.get(key)
            if parent is None:
                return None
            if parent.name in names:
                return parent
            key = parent.parent
        return None

    def named(self, names, windows=None, outermost=True) -> list[Span]:
        """Spans called ``names`` (starting inside ``windows`` if given).

        ``outermost`` drops spans nested in a same-named span, so a
        recursive or layered call is counted once.
        """
        if isinstance(names, str):
            names = (names,)
        found = []
        for span in (span for name in names for span in self.by_name.get(name, ())):
            if windows is not None and not any(lo <= span.start < hi for lo, hi in windows):
                continue
            if outermost and self.ancestor(span, (span.name,)) is not None:
                continue
            found.append(span)
        return found

    def self_ms(self, span: Span) -> float:
        children = [(child.start, child.end) for child in self.children.get(span.key, ())]
        return self_time(span.start, span.end, children) * 1000.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_table(p, spans: SpanSet) -> dict[str, float]:
    """Every span-derived per-layer metric for one traced pass."""
    windows = p.windows
    counted = [p.count_window] if p.count_window is not None else windows
    queries = max(1, p.answered)
    table: dict[str, float] = {}

    def per_query(names) -> float:
        return sum(span.ms for span in spans.named(names, windows)) / queries

    # service.http
    posts = spans.named("http.post", windows)
    client_posts = [
        (lo, hi) for lo, hi in p.client_posts if any(a <= lo < b for a, b in windows)
    ]
    client_posts += [(s.start, s.end) for s in spans.named("scatter.rpc", windows)]
    if posts and client_posts:
        table["http.wire_ms"] = _mean((hi - lo) * 1000.0 for lo, hi in client_posts) - _mean(
            s.ms for s in posts
        )
    else:
        table["http.wire_ms"] = 0.0
    table["http.handler_self_ms"] = _mean(spans.self_ms(s) for s in posts)
    table["http.requests_per_conn"] = p.requests / p.connects if p.connects else 0.0

    # service.app
    handlers = spans.named(APP_SPANS, windows)
    table["app.self_ms"] = _mean(spans.self_ms(s) for s in handlers)
    table["app.calls"] = float(len(handlers))

    # service.planner, service.cache
    table["planner.busy_ms"] = per_query("planner.plan")
    table["constraint_cache.hit_ratio"] = p.layer.get("constraint_cache.hit_ratio", 0.0)
    table["result_cache.hit_ratio"] = p.layer.get("result_cache.hit_ratio", 0.0)
    table["result_cache.busy_ms"] = per_query(("result_cache.get", "result_cache.put"))
    table["candidate_cache.hit_ratio"] = p.layer.get("candidate_cache.hit_ratio", 0.0)
    table["vsg.busy_ms"] = per_query("vsg")

    # service.executor
    maps = spans.named("executor.map", windows)
    members = [
        s for s in spans.named("executor.member", windows)
        if spans.ancestor(s, ("executor.map",)) is not None
    ]
    member_ms = sum(s.ms for s in members)
    table["executor.map_ms"] = _mean(s.ms for s in maps)
    table["executor.members_ms"] = member_ms / len(maps) if maps else 0.0
    capacity = sum(s.ms * s.note for s in maps)
    table["executor.parallel_eff"] = member_ms / capacity if capacity else 0.0

    # approx
    decisions = spans.named("route.decide", counted)
    no = sum(1 for s in decisions if s.note == "no")
    yes = sum(1 for s in decisions if s.note == "yes")
    table["route.busy_ms"] = per_query("route.decide")
    table["route.settled_ratio"] = (no + yes) / len(decisions) if decisions else 0.0
    table["route.no"] = float(no)
    table["route.yes"] = float(yes)
    table["witness.extract_ms"] = per_query("witness.extract")

    # core
    evaluations = spans.named("evaluate", counted)
    table["evaluate.busy_ms"] = per_query("evaluate")
    table["evaluate.calls"] = float(len(evaluations))
    for position, name in enumerate(
        ("passed_vertices", "scck_calls", "lcs_calls", "index_resolutions")
    ):
        table["evaluate." + name] = float(sum(s.note[position] for s in evaluations if s.note))

    # service.epoch / apply_updates
    applies = spans.named("update.apply", windows)
    updates = max(1, len(applies))
    for step, metric in UPDATE_STEPS.items():
        table[metric] = sum(
            s.ms for s in spans.named(step, windows)
            if spans.ancestor(s, ("update.apply",)) is not None
        ) / updates
    table["update.total_ms"] = _mean(s.ms for s in applies)
    swaps = [(s.start, s.end) for s in applies]
    during = [(hi - lo) * 1000.0 for lo, hi in p.reader if overlaps((lo, hi), swaps)]
    outside = [(hi - lo) * 1000.0 for lo, hi in p.reader if not overlaps((lo, hi), swaps)]
    table["update.reader_stall_ms"] = _mean(during) - _mean(outside) if during and outside else 0.0

    # wal
    appends = spans.named("wal.append", windows)
    table["wal.append_ms"] = _mean(s.ms for s in appends)
    fsyncs = [
        s for s in spans.named("fsync", windows)
        if spans.ancestor(s, ("wal.append",)) is not None
    ]
    table["wal.fsyncs"] = len(fsyncs) / len(appends) if appends else 0.0

    # shard
    rpcs = spans.named("scatter.rpc", windows)
    table["scatter.rpcs_per_query"] = len(rpcs) / queries
    table["scatter.rpc_ms"] = _mean(s.ms for s in rpcs)
    table["scatter.round_ms"] = _mean(s.ms for s in spans.named("scatter.round", windows))

    # set-up: per set-up span, the steps it contains; median over set-ups
    # (only set-ups before the timed window: later ones are the
    # updates_wal oracle and restart, not the serving process's launch)
    setups = [s for s in spans.named("setup") if s.start < windows[0][0]]
    for step, metric in SETUP_STEPS.items():
        totals = defaultdict(float)
        for s in spans.named(step):
            owner = spans.ancestor(s, ("setup",))
            if owner is not None and spans.ancestor(s, ("update.apply",)) is None:
                totals[owner.key] += s.ms / 1000.0
        values = sorted(totals.get(setup.key, 0.0) for setup in setups)
        table[metric] = values[len(values) // 2] if values else 0.0
    return table
