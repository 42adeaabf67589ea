"""In-memory span recording from wrappers around each layer's public calls.

:func:`install` replaces a fixed set of functions and methods of the
``repro`` modules with timing wrappers, in this process only.  Nothing
under ``src/`` changes: the benchmark's traced run installs the
wrappers in its own process (in-process workloads) or in the servers it
launches through ``serve_child.py``, which then calls the real
``repro.cli.main``.  Spans stay in memory and are written once, by
:meth:`Recorder.dump`.

A span is ``(id, parent, name, start, end, note)``.  The parent is the
innermost open span on the same thread; batch members running on the
executor's pool threads are parented to the ``executor.map`` span that
fanned them out.  ``start``/``end`` are ``time.perf_counter()`` values,
which on Linux read the system-wide monotonic clock, so spans of
different processes on one host share a time axis.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from time import perf_counter


class Recorder:
    """Collects spans from any thread; dumps them as one JSON file."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, function, args, kwargs, note=None, parent=None):
        """Run ``function`` inside a span named ``name``."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        stack.append(span_id)
        started = perf_counter()
        returned = False
        try:
            out = function(*args, **kwargs)
            returned = True
            return out
        finally:
            ended = perf_counter()
            stack.pop()
            detail = note(args, out) if note is not None and returned else None
            self.spans.append((span_id, parent, name, started, ended, detail))

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def dump(self, path: str) -> None:
        """Write every span recorded so far (atomically) to ``path``."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": list(self.spans)}, handle)
        os.replace(tmp, path)


def _wrap(recorder: Recorder, owner, attribute: str, name: str, note=None) -> None:
    descriptor = vars(owner).get(attribute)
    is_classmethod = isinstance(descriptor, classmethod)
    original = descriptor.__func__ if is_classmethod else getattr(owner, attribute)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return recorder.call(name, original, args, kwargs, note)

    # A classmethod stays one, so subclasses still construct themselves.
    setattr(owner, attribute, classmethod(wrapper) if is_classmethod else wrapper)


def _evaluate_note(args, result):
    return [
        result.passed_vertices,
        result.scck_calls,
        result.lcs_calls,
        result.index_resolutions,
    ]


def _route_note(args, decision):
    if decision is None:
        return "uncertain"
    return "yes" if decision.result.answer else "no"


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the per-layer table reads."""
    import repro.service.app as app
    from repro.approx.router import ApproxRouter
    from repro.graph.labeled_graph import KnowledgeGraph
    from repro.index.local_index import LocalIndex
    from repro.service.cache import CandidateCache, ResultCache
    from repro.service.executor import DEFAULT_MAX_WORKERS, BatchExecutor
    from repro.service.http import ServiceRequestHandler
    from repro.service.planner import QueryPlanner
    from repro.session import LSCRSession
    from repro.shard.coordinator import ShardCoordinator
    from repro.shard.worker import HttpShardWorker, ShardWorker
    from repro.wal.log import TenantWal

    wrap = functools.partial(_wrap, recorder)
    # service.http: one span per POST, handler thread
    wrap(ServiceRequestHandler, "do_POST", "http.post")
    # service.app (and a shard worker's request handlers)
    wrap(app.QueryService, "handle_query", "app.query")
    wrap(app.QueryService, "handle_batch", "app.batch")
    wrap(app.QueryService, "handle_updates", "app.updates")
    for method in ("handle_expand", "handle_query", "handle_update"):
        wrap(ShardWorker, method, "worker." + method[len("handle_"):])
    # service.planner, service.cache
    wrap(QueryPlanner, "plan", "planner.plan")
    wrap(ResultCache, "get", "result_cache.get")
    wrap(ResultCache, "put", "result_cache.put")
    wrap(ResultCache, "purge", "result_cache.purge")
    wrap(CandidateCache, "get", "vsg")
    # approx
    wrap(ApproxRouter, "decide", "route.decide", _route_note)
    wrap(ApproxRouter, "remember_witness", "witness.extract")
    # core: INS / UIS* behind the session
    wrap(LSCRSession, "answer", "evaluate", _evaluate_note)
    # shard: the coordinator and its wire
    wrap(ShardCoordinator, "answer", "scatter.answer")
    wrap(ShardCoordinator, "_scatter", "scatter.round")
    wrap(HttpShardWorker, "_request", "scatter.rpc")
    # live updates and their sub-steps
    wrap(app.QueryService, "apply_updates", "update.apply")
    wrap(KnowledgeGraph, "copy", "graph.copy")
    for method in ("clone_for", "sync_vertices", "refresh_regions"):
        wrap(LocalIndex, method, "index.repair")
    wrap(app, "build_local_index", "index.repair")
    wrap(app, "freeze_graph", "freeze")
    wrap(app.QueryService, "_build_bounds", "bounds")
    # wal
    wrap(TenantWal, "append", "wal.append")
    wrap(os, "fsync", "fsync")
    # set-up
    wrap(app.QueryService, "from_files", "setup")
    wrap(app, "load_tsv", "setup.load")
    wrap(app, "load_or_build_index", "setup.index")

    # service.executor: members run on pool threads, so the wrapper
    # hands each one the map span as its parent explicitly.
    original_map = BatchExecutor.map

    def traced_map(self, fn, items):
        work = list(items)
        width = min(len(work), self.max_workers or DEFAULT_MAX_WORKERS)

        def mapped(executor, function, batch):
            parent = recorder.current()

            def member(item):
                return recorder.call("executor.member", function, (item,), {}, parent=parent)

            return original_map(executor, member, batch)

        return recorder.call(
            "executor.map", mapped, (self, fn, work), {}, lambda args, out: width
        )

    BatchExecutor.map = traced_map
