"""The four workloads.  Each runs one pass and returns a :class:`Pass`.

* ``lubm_cold`` -- in-process ``QueryService.handle_query``, one serial
  caller, every query first-seen on its service instance.
* ``http_hot`` -- ``serve --index``, two closed-loop keep-alive
  clients over a small Zipf-skewed hot set; every 4th request is a
  ``/batch`` of 8.
* ``updates_wal`` -- ``serve --allow-updates --wal``: one closed-loop
  keep-alive reader, one open-loop keep-alive writer of 10-edge mixed
  batches, then a final probe against a fresh oracle and a SIGKILL /
  replay durability check.
* ``shard_remote`` -- ``repro cut`` into two slices, two
  ``serve --worker`` processes, an in-process
  ``ShardedQueryService(worker_urls=...)`` coordinator driven serially
  with first-seen queries.
"""

from __future__ import annotations

import gc
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep

import inputs
from drive import Client, Fleet
from measure import due_latencies, lateness, peak_rss_mb

#: Launches (or service constructions) per pass; ``setup_s`` is their median.
SETUP_REPS = 5
#: Hot-set size and Zipf exponent of the cached workloads.
HOT_SIZE = 32
ZIPF_S = 1.1
#: http_hot: closed-loop clients, batch cadence and size.
CLIENTS = 2
BATCH_EVERY = 4
BATCH_SIZE = 8
#: updates_wal: mean writer period, batch size, probe size.  At 0.4 s
#: about a quarter of the reads met a swap, and the reader's p90 fell
#: inside the swap stall and followed the host's CPU speed: ten-seed tail
#: spreads were 0.095 and 0.15.  At 0.8 s p90 sits at the stall's first
#: step, and the spreads were 0.046, 0.064 and 0.085.
UPDATE_PERIOD_S = 0.8
UPDATE_EDGES = 10
PROBE_SIZE = 40
#: shard_remote: queries per stratum (S1-S5 x true/false) of its fixed
#: subset.  At this commit scatter latency comes in steps of one 40 ms
#: stall per RPC, and a few queries land on either side of a step from
#: run to run.  Over these 80 queries seven sit in the top step and p90
#: is three samples below them, so a query that steps up does not move
#: it (over 50 or 70 queries p90 was the step's neighbour and jumped
#: between 230 and 270 ms).  A pass takes about 10 s, so a 15 s run is
#: two whole passes with a wide margin either way (over 60 queries it
#: flipped between two and three, and peak RSS and p90 flipped with it).
SHARD_PER_STRATUM = 8


@dataclass
class Pass:
    """Everything one pass of a workload measured."""

    setup_s: list[float] = field(default_factory=list)
    singles: list[float] = field(default_factory=list)
    batches: list[float] = field(default_factory=list)
    updates: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    answered: int = 0
    wall: float = 0.0
    #: Timed intervals; spans are attributed to a pass by their start.
    windows: list[tuple[float, float]] = field(default_factory=list)
    #: One complete pass over the stream, when there was one: counts
    #: taken over it repeat exactly for a given seed.
    count_window: tuple[float, float] | None = None
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    rss_mb: float = 0.0
    props: dict = field(default_factory=dict)
    #: Per-layer values read directly (cache statistics, pool counters).
    layer: dict = field(default_factory=dict)
    #: Client-side POST round trips and (updates_wal) reader requests.
    client_posts: list[tuple[float, float]] = field(default_factory=list)
    reader: list[tuple[float, float]] = field(default_factory=list)
    requests: int = 0
    connects: int = 0

    def check(self, item: dict, answer: object, where: str) -> None:
        if answer is not item["expected"]:
            self.wrong.append(
                f"{where}: {item['source']} -> {item['target']} ({item['group']}) "
                f"answered {answer!r}, expected {item['expected']!r}"
            )


@dataclass
class Context:
    root: Path
    cache: Path
    rundir: Path
    meta: dict
    pool: list[dict]
    seed: int
    seconds: float
    fleet: Fleet

    @property
    def graph(self) -> str:
        return str(self.cache / "graph.tsv")

    @property
    def index(self) -> str:
        return str(self.cache / "graph.index.json")


def _key(item: dict) -> tuple:
    return (item["source"], item["target"], tuple(item["labels"]), item["constraint"])


def _cache_props(p: Pass, stats: dict) -> None:
    """Fold one service's ``/stats`` document into the pass."""
    layer = p.layer
    for section in ("result_cache", "candidate_cache", "constraint_cache"):
        layer[section + ".hits"] = layer.get(section + ".hits", 0) + stats[section]["hits"]
        layer[section + ".misses"] = layer.get(section + ".misses", 0) + stats[section]["misses"]
    approx = stats.get("approx") or {}
    layer["routed"] = layer.get("routed", 0) + approx.get("routed", 0)
    short = approx.get("short_circuit_no", 0) + approx.get("short_circuit_yes", 0)
    layer["short_circuit"] = layer.get("short_circuit", 0) + short


def _finish_props(ctx: Context, p: Pass, queried: list[dict], repeats: int) -> None:
    meta = ctx.meta
    layer = p.layer

    def ratio(section):
        hits, misses = layer.get(section + ".hits", 0), layer.get(section + ".misses", 0)
        return hits / (hits + misses) if hits + misses else 0.0

    p.props.update(
        seed=ctx.seed,
        setups_s=[round(value, 4) for value in p.setup_s],
        graph=f"{meta['scale']} |V|={meta['vertices']} |E|={meta['edges']} |L|={meta['labels']}",
        pool_queries=len(ctx.pool),
        distinct_queries=len({_key(item) for item in queried}),
        answered=p.answered,
        true_share=sum(1 for item in queried if item["expected"]) / len(queried) if queried else 0.0,
        repeat_share=repeats / len(queried) if queried else 0.0,
        result_cache_hit_ratio=ratio("result_cache"),
        short_circuit_share=layer.get("short_circuit", 0) / layer["routed"] if layer.get("routed") else 0.0,
        update_rate_per_s=len(p.updates) / p.wall,
        gen_late_ms=max(p.late, default=0.0) * 1000.0,
    )
    layer["result_cache.hit_ratio"] = ratio("result_cache")
    layer["candidate_cache.hit_ratio"] = ratio("candidate_cache")
    layer["constraint_cache.hit_ratio"] = ratio("constraint_cache")


# ----------------------------------------------------------------------
# lubm_cold
# ----------------------------------------------------------------------


def _serial_passes(ctx: Context, p: Pass, items: list[dict], open_service, close_service) -> list[dict]:
    """One serial caller, whole passes over ``items`` until ``seconds`` are timed.

    Each pass runs on a fresh service from ``open_service(pass_no)``, in
    its own seeded order, so every query is first-seen on its service
    instance.  Passes are never cut short: the answered set is always
    whole copies of ``items``, so counts repeat exactly and percentiles
    do not depend on where the clock stopped.
    """
    queried: list[dict] = []
    timed = 0.0
    rounds = 0
    while timed < ctx.seconds:
        service = open_service(rounds)
        window_start = perf_counter()
        for item in inputs.stream(items, ctx.seed, salt=rounds):
            p.attempted += 1
            began = perf_counter()
            try:
                response = service.handle_query(inputs.spec(item))
            except Exception as error:  # noqa: BLE001 - counted, run continues
                p.failed += 1
                print(f"{type(error).__name__}: {error}", file=sys.stderr)
                continue
            p.singles.append(perf_counter() - began)
            p.answered += 1
            p.check(item, response["answer"], "serial caller")
            queried.append(item)
        window_end = perf_counter()
        if p.count_window is None:
            p.count_window = (window_start, window_end)
        p.windows.append((window_start, window_end))
        timed += window_end - window_start
        close_service(service)
        rounds += 1
    p.wall = timed
    p.props["service_instances"] = rounds
    return queried


def lubm_cold(ctx: Context) -> Pass:
    from repro.service.app import QueryService

    p = Pass()

    def open_service(_round: int):
        gc.collect()
        started = perf_counter()
        service = QueryService.from_files(ctx.graph, ctx.index)
        p.setup_s.append(perf_counter() - started)
        return service

    def close_service(service) -> None:
        _cache_props(p, service.stats_snapshot())
        service.close()

    queried = _serial_passes(ctx, p, ctx.pool, open_service, close_service)
    p.rss_mb = peak_rss_mb()
    _finish_props(ctx, p, queried, 0)
    return p


# ----------------------------------------------------------------------
# http_hot
# ----------------------------------------------------------------------


def _launch_reps(ctx: Context, p: Pass, args):
    """Launch ``SETUP_REPS`` servers one after another, keep the last.

    ``args(rep)`` gives the CLI arguments of launch number ``rep``.
    """
    server = None
    for rep in range(SETUP_REPS):
        if server is not None:
            ctx.fleet.stop(server)
        server = ctx.fleet.launch(args(rep))
        p.setup_s.append(server.ready_s)
    return server


def _closed_loop(client, hot, rng, end, out, batch_every, checker):
    """One closed-loop client: singles, and every ``batch_every``-th request a batch."""
    zipf = inputs.Zipf(len(hot), ZIPF_S, rng)
    sent = 0
    while perf_counter() < end:
        sent += 1
        out["attempted"] += 1
        if batch_every and sent % batch_every == 0:
            members = [hot[zipf.draw()] for _ in range(BATCH_SIZE)]
            payload = {"queries": [inputs.spec(item) for item in members]}
            try:
                status, doc, began, ended = client.post("/batch", payload)
            except OSError as error:
                out["failed"] += 1
                print(f"batch: {error}", file=sys.stderr)
                continue
            if status != 200:
                out["failed"] += 1
                continue
            out["batches"].append(ended - began)
            for item, result in zip(members, doc["results"]):
                checker(item, result)
            out["answered"] += len(members)
            out["queried"].extend(members)
        else:
            item = hot[zipf.draw()]
            try:
                status, doc, began, ended = client.post("/query", inputs.spec(item))
            except OSError as error:
                out["failed"] += 1
                print(f"query: {error}", file=sys.stderr)
                continue
            if status != 200:
                out["failed"] += 1
                continue
            out["singles"].append(ended - began)
            out["intervals"].append((began, ended))
            checker(item, doc)
            out["answered"] += 1
            out["queried"].append(item)


def _new_out() -> dict:
    return {
        "attempted": 0, "failed": 0, "answered": 0, "singles": [],
        "batches": [], "intervals": [], "queried": [],
    }


def _collect(p: Pass, clients: list[Client]) -> None:
    for client in clients:
        p.requests += client.requests
        p.connects += client.connects
        p.client_posts.extend(client.posts)
        client.close()


def http_hot(ctx: Context) -> Pass:
    p = Pass()
    server = _launch_reps(
        ctx, p, lambda rep: ["serve", "--graph", ctx.graph, "--index", ctx.index, "--port", "0"]
    )
    hot = inputs.hot_set(ctx.pool, ctx.seed, HOT_SIZE)
    warm = Client(server)
    for item in hot:
        p.attempted += 1
        status, doc, _, _ = warm.post("/query", inputs.spec(item))
        if status != 200:
            p.failed += 1
            continue
        p.check(item, doc["answer"], "http_hot warm-up")
    clients = [Client(server) for _ in range(CLIENTS)]
    outs = [_new_out() for _ in clients]
    start = perf_counter() + 0.05
    end = start + ctx.seconds

    def client_main(position: int) -> None:
        rng = random.Random(ctx.seed * 31 + position)
        sleep(max(0.0, start - perf_counter()))
        checker = lambda item, doc: p.check(item, doc["answer"], "http_hot")  # noqa: E731
        _closed_loop(clients[position], hot, rng, end, outs[position], BATCH_EVERY, checker)

    threads = [threading.Thread(target=client_main, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    finished = perf_counter()
    p.windows.append((start, finished))
    p.wall = finished - start
    queried = []
    for out in outs:
        p.attempted += out["attempted"]
        p.failed += out["failed"]
        p.answered += out["answered"]
        p.singles += out["singles"]
        p.batches += out["batches"]
        queried += out["queried"]
    stats = warm.get("/stats")
    _cache_props(p, stats)
    p.rss_mb = peak_rss_mb(server.pid)
    _collect(p, [warm] + clients)
    ctx.fleet.stop(server)
    repeats = len(queried) - len({_key(item) for item in queried})
    _finish_props(ctx, p, queried, repeats)
    p.props["hot_set"] = len(hot)
    return p


# ----------------------------------------------------------------------
# updates_wal
# ----------------------------------------------------------------------


def _probe(client: Client, probe: list[dict]) -> list[bool]:
    answers = []
    for item in probe:
        status, doc, _, _ = client.post("/query", {**inputs.spec(item), "use_cache": False})
        if status != 200:
            raise RuntimeError(f"probe query answered {status}: {doc}")
        answers.append(doc["answer"])
    return answers


def updates_wal(ctx: Context) -> Pass:
    from repro.service.app import QueryService

    p = Pass()

    def args(rep: int) -> list[str]:
        return [
            "serve", "--graph", ctx.graph, "--index", ctx.index, "--port", "0",
            "--allow-updates", "--wal", str(ctx.rundir / f"wal-{rep}"),
        ]

    server = _launch_reps(ctx, p, args)
    wal_args = server.args
    hot = inputs.hot_set(ctx.pool, ctx.seed, HOT_SIZE)
    vertices, base_edges = inputs.read_edges(Path(ctx.graph))
    batches = inputs.edge_batches(ctx.meta["labels_list"], vertices, base_edges, ctx.seed, UPDATE_EDGES)
    warm = Client(server)
    for item in hot:
        p.attempted += 1
        status, doc, _, _ = warm.post("/query", inputs.spec(item))
        if status != 200:
            p.failed += 1
            continue
        p.check(item, doc["answer"], "updates_wal warm-up")
    reader, writer = Client(server), Client(server)
    out = _new_out()
    epochs: list[int] = []
    acked: list[list] = []
    acked_epochs: list[int] = []
    due, sent, done = [], [], []
    writes = {"attempted": 0, "failed": 0}
    start = perf_counter() + 0.05
    end = start + ctx.seconds

    def read_check(item: dict, doc: dict) -> None:
        epochs.append(doc["epoch"])
        # The writer only adds edges or removes its own adds, so the
        # graph always contains the TSV: a query true on the TSV stays
        # true.  (A false one may turn true; the final probe checks those.)
        if item["expected"] and doc["answer"] is not True:
            p.wrong.append(f"updates_wal reader: {item['source']} -> {item['target']} lost reachability")

    def reader_main() -> None:
        rng = random.Random(ctx.seed * 31 + 7)
        sleep(max(0.0, start - perf_counter()))
        _closed_loop(reader, hot, rng, end, out, 0, read_check)

    def writer_main() -> None:
        # A seeded schedule: batch i is due at (i + u) periods, u uniform
        # in [0, 0.5).  The jitter keeps the writer from phase-locking to
        # the reader's regular round trips, which made the reader's tail
        # depend on where one run happened to lock.
        schedule = random.Random(ctx.seed * 13 + 1)
        tick = 0
        while True:
            scheduled = start + (tick + schedule.random() / 2) * UPDATE_PERIOD_S
            if scheduled >= end:
                return
            tick += 1
            delay = scheduled - perf_counter()
            if delay > 0:
                sleep(delay)
            batch = next(batches)
            writes["attempted"] += 1
            try:
                status, doc, began, ended = writer.post("/edges", {"edges": batch})
            except OSError as error:
                writes["failed"] += 1
                print(f"edges: {error}", file=sys.stderr)
                continue
            if status != 200:
                writes["failed"] += 1
                print(f"edges answered {status}: {doc}", file=sys.stderr)
                continue
            due.append(scheduled)
            sent.append(began)
            done.append(ended)
            acked.append(batch)
            acked_epochs.append(doc["epoch"])

    threads = [threading.Thread(target=reader_main), threading.Thread(target=writer_main)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    finished = perf_counter()
    p.windows.append((start, finished))
    p.wall = finished - start
    p.attempted += out["attempted"] + writes["attempted"]
    p.failed += out["failed"] + writes["failed"]
    p.answered = out["answered"]
    p.singles = out["singles"]
    p.reader = out["intervals"]
    p.updates = due_latencies(due, done)
    p.late = lateness(due, sent)
    if any(b < a for a, b in zip(epochs, epochs[1:])):
        p.wrong.append("updates_wal reader: epoch went backwards")
    if any(b <= a for a, b in zip(acked_epochs, acked_epochs[1:])):
        p.wrong.append("updates_wal writer: acknowledged epochs not increasing")
    _cache_props(p, warm.get("/stats"))

    # Final probe: the server against a fresh exact service built from
    # the TSV plus every acknowledged batch, applied in order.
    probe = inputs.stream(ctx.pool, ctx.seed, salt=5)[:PROBE_SIZE]
    served = _probe(warm, probe)
    oracle = QueryService.from_files(ctx.graph, None, approx=False, cache_size=0)
    if acked:
        oracle.apply_updates([tuple(edge) for batch in acked for edge in batch])
    truth = [
        oracle.query(item["source"], item["target"], item["labels"], item["constraint"])[0].answer
        for item in probe
    ]
    oracle.close()
    for item, got, want in zip(probe, served, truth):
        if got != want:
            p.wrong.append(f"updates_wal probe: {item['source']} -> {item['target']} answered {got}, oracle {want}")
    health = warm.get("/healthz")
    last_epoch = acked_epochs[-1] if acked_epochs else 0
    if health["epoch"] != last_epoch:
        p.wrong.append(f"updates_wal: /healthz epoch {health['epoch']} != last acknowledged {last_epoch}")
    wal_dir = Path(wal_args[wal_args.index("--wal") + 1])
    wal_bytes = sum(path.stat().st_size for path in wal_dir.rglob("wal-*.log"))
    p.rss_mb = peak_rss_mb(server.pid)
    _collect(p, [warm, reader, writer])

    # Durability: SIGKILL, restart on the same log, compare identity.
    ctx.fleet.kill(server)
    restarted = ctx.fleet.launch(wal_args)
    check = Client(restarted)
    recovered = check.get("/healthz")
    for name in ("epoch", "fingerprint"):
        if recovered[name] != health[name]:
            p.wrong.append(f"updates_wal replay: {name} {recovered[name]!r} != acknowledged {health[name]!r}")
    if _probe(check, probe) != truth:
        p.wrong.append("updates_wal replay: probe answers differ from the oracle after restart")
    _collect(p, [check])
    ctx.fleet.stop(restarted)

    edges = sum(len(batch) for batch in acked)
    p.layer["wal.replay_s"] = restarted.ready_s
    p.layer["wal.bytes_per_edge"] = wal_bytes / edges if edges else 0.0
    queried = out["queried"]
    repeats = len(queried) - len({_key(item) for item in queried})
    _finish_props(ctx, p, queried, repeats)
    p.props.update(
        hot_set=len(hot),
        updates_acked=len(acked),
        final_epoch=last_epoch,
        probe_queries=len(probe),
    )
    return p


# ----------------------------------------------------------------------
# shard_remote
# ----------------------------------------------------------------------


def _shard_fleet(ctx: Context, rep: int):
    """``cut`` + two ``serve --worker`` + coordinator handshake."""
    from repro.shard import ShardedQueryService

    slices = ctx.rundir / f"slices-{rep}"
    subprocess.run(
        [sys.executable, "-m", "repro", "cut", ctx.graph, "--shards", "2",
         "--out", str(slices), "--index", ctx.index],
        cwd=ctx.root, env=inputs.child_env(ctx.root), check=True,
        stdout=subprocess.DEVNULL,
    )
    workers = [
        ctx.fleet.start(["serve", "--worker", str(slices / f"shard-{i}.slice.json"), "--port", "0"])
        for i in range(2)
    ]
    for worker in workers:
        worker.wait_ready()
    coordinator = ShardedQueryService.from_files(
        ctx.graph, ctx.index, shards=2, worker_urls=[w.url for w in workers]
    )
    return workers, coordinator


def shard_remote(ctx: Context) -> Pass:
    from repro.shard import ShardedQueryService

    p = Pass()
    workers = coordinator = None
    for rep in range(SETUP_REPS):
        if coordinator is not None:
            coordinator.close()
            for worker in workers:
                ctx.fleet.stop(worker)
        gc.collect()
        started = perf_counter()
        workers, coordinator = _shard_fleet(ctx, rep)
        p.setup_s.append(perf_counter() - started)
    counters = {"opened": 0, "reused": 0, "retries": 0}

    def open_service(round_no: int):
        if round_no == 0:
            return coordinator
        gc.collect()
        return ShardedQueryService.from_files(
            ctx.graph, ctx.index, shards=2, worker_urls=[w.url for w in workers]
        )

    def close_service(service) -> None:
        stats = service.stats_snapshot()
        _cache_props(p, stats)
        counters["retries"] += stats["shards"]["coordinator"]["resilience"]["retries"]
        for entry in stats["shards"]["workers"]:
            counters["opened"] += entry["connections_opened"]
            counters["reused"] += entry["connection_reuses"]
        service.close()

    subset = inputs.shard_subset(ctx.pool, SHARD_PER_STRATUM)
    queried = _serial_passes(ctx, p, subset, open_service, close_service)
    opened, reused = counters["opened"], counters["reused"]
    p.requests, p.connects = opened + reused, opened
    p.layer["scatter.conn_reuse_ratio"] = reused / (opened + reused) if opened + reused else 0.0
    p.layer["scatter.retries"] = counters["retries"]
    p.rss_mb = peak_rss_mb() + sum(peak_rss_mb(worker.pid) for worker in workers)
    for worker in workers:
        ctx.fleet.stop(worker)
    _finish_props(ctx, p, queried, 0)
    p.props["subset_queries"] = len(subset)
    return p


WORKLOADS = {
    "lubm_cold": lubm_cold,
    "http_hot": http_hot,
    "updates_wal": updates_wal,
    "shard_remote": shard_remote,
}
