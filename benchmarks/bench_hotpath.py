"""Hot-path throughput benchmark: the frozen serving stack vs the seed's.

Measures the two serving shapes that matter for the ROADMAP's "as fast
as the hardware allows" north star:

* **single-query throughput** — INS and UIS* answered serially through
  an :class:`~repro.session.LSCRSession` (result cache out of the
  picture), in up to three configurations per algorithm:

  - ``baseline`` — the dict-backed :class:`KnowledgeGraph` with no
    ``V(S, G)`` memoisation: how every query executed before this
    optimisation pass;
  - ``dict_cached`` — dict-backed graph plus the
    :class:`~repro.service.cache.CandidateCache` the service now wires
    into its sessions (isolates the cache's contribution);
  - ``frozen`` — the :class:`~repro.graph.csr.FrozenGraph` CSR snapshot
    plus the candidate cache: the serving default after this pass.

  Each cell reports q/s; ``speedup`` is frozen vs baseline (the gate
  number) and ``csr_speedup`` is frozen vs dict_cached (the layout's
  isolated contribution).  Same graph, same local index, same query
  stream everywhere, and the harness asserts all configurations return
  identical answers;

* **batched service throughput** — the full
  :class:`~repro.service.app.QueryService` path (planner → sessions →
  batch executor) with the result cache bypassed, ``freeze=True`` vs
  ``freeze=False`` (the candidate cache is part of the service in both,
  so this compares graph layouts under real batch fan-out).  With
  ``--shards N`` the same workload also runs through a
  :class:`~repro.shard.ShardedQueryService` (scatter-gather over N
  in-process slice workers), recorded as ``service_batch.sharded`` with
  ``sharded_vs_unsharded`` — the coordination overhead / co-location
  win tracked PR over PR; the harness asserts the sharded answers match
  the unsharded ones per query.  The same flag also grows a
  ``service_batch.sharded.remote`` dimension: the slices are dumped to
  files, one real ``serve --worker`` subprocess boots per slice on an
  ephemeral port, and the coordinator attaches them by URL — the full
  cross-host wire (handshake, pooled keep-alive HTTP, slice-epoch
  echo) timed under the identical workload, with the same per-query
  agreement gate.

The workload mixes the paper's two Table 3 constraint shapes — anchored
patterns (small, cheap ``V(S, G)``) and star patterns (expensive
``V(S, G)`` joins) — over a dense random graph whose label alphabet is
several times larger than any one constraint.

The report is written as JSON (default: ``BENCH_hotpath.json`` at the
repo root) so successive PRs accumulate a perf trajectory.  Without
``--compare`` only the frozen numbers are measured (fast enough for a
tracking run); with ``--compare`` the baselines and speedups are
included in the same run — that is the mode whose output is committed.

Run::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --compare
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.query import LSCRQuery  # noqa: E402
from repro.datasets.synthetic import random_labeled_graph  # noqa: E402
from repro.index.local_index import build_local_index  # noqa: E402
from repro.service.app import QueryService  # noqa: E402
from repro.service.cache import CandidateCache  # noqa: E402
from repro.session import LSCRSession  # noqa: E402
from repro.shard import (  # noqa: E402
    ShardedQueryService,
    build_shard_plan,
    cut_slices,
    dump_slice,
)

SCHEMA_VERSION = 1

#: (vertices, density, labels, queries, rounds) per mode.  Density and
#: label-alphabet size follow the paper's KG-shaped datasets: high-degree
#: vertices and a label universe several times larger than any one
#: constraint, so the per-vertex mask pre-test has something to reject.
FULL = dict(vertices=2000, density=6.0, labels=10, queries=120, rounds=3)
QUICK = dict(vertices=300, density=4.0, labels=8, queries=24, rounds=2)

ALGORITHMS = ("ins", "uis*")


def build_workload(config: dict, seed: int):
    """One random graph, its local index, and a query stream."""
    graph = random_labeled_graph(
        config["vertices"], config["density"], config["labels"], rng=seed,
        name="hotpath",
    )
    index = build_local_index(graph, rng=seed)
    rng = random.Random(seed * 7919 + 11)
    label_names = [f"l{i}" for i in range(config["labels"])]
    # Table 3's two constraint shapes: anchored (selective, cheap
    # V(S,G)) and star-joined (expensive V(S,G) the candidate cache
    # amortises).  Four texts over the whole stream, like the paper's
    # workloads reusing a handful of constraints across thousands of
    # queries.
    constraints = [
        "SELECT ?x WHERE { ?x <l0> ?y . ?x <l1> ?z . ?x <l2> ?w . }",
        "SELECT ?x WHERE { ?x <l1> ?y . ?y <l0> n42 . }",
        "SELECT ?x WHERE { ?x <l3> ?y . ?x <l4> ?z . ?x <l0> ?w . }",
        "SELECT ?x WHERE { ?x <l1> n7 . ?x <l0> ?z . }",
    ]
    specs = []
    for _ in range(config["queries"]):
        specs.append(
            {
                "source": f"n{rng.randrange(config['vertices'])}",
                "target": f"n{rng.randrange(config['vertices'])}",
                "labels": rng.sample(label_names, rng.randint(2, 3)),
                "constraint": rng.choice(constraints),
            }
        )
    return graph, index, specs


def prepared_queries(specs) -> list[LSCRQuery]:
    """Specs parsed once up front — the bench times search, not parsing."""
    return [
        LSCRQuery.create(
            spec["source"], spec["target"], spec["labels"], spec["constraint"]
        )
        for spec in specs
    ]


def bench_single(
    graph, index, queries, algorithm: str, rounds: int, *, cached: bool
) -> dict:
    """Serial per-query throughput for one algorithm on one configuration."""
    session = LSCRSession(
        graph,
        algorithm=algorithm,
        index=index if algorithm == "ins" else None,
        seed=0,
        candidate_cache=CandidateCache() if cached else None,
    )
    answers = [session.answer(query).answer for query in queries]  # warm-up
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        for query in queries:
            session.answer(query)
        best = min(best, time.perf_counter() - started)
    return {
        "queries": len(queries),
        "true_answers": sum(answers),
        "best_seconds": best,
        "qps": len(queries) / best,
        "answers": answers,
    }


def bench_service(
    graph, index, specs, *, freeze: bool, rounds: int, shards: int = 0
) -> dict:
    """Batched throughput through the full QueryService path.

    ``shards > 0`` swaps in a :class:`ShardedQueryService` (always
    frozen) so the same workload measures the scatter-gather topology.
    """
    if shards:
        service = ShardedQueryService(graph, index, seed=0, shards=shards)
    else:
        service = QueryService(graph, index, seed=0, freeze=freeze)
    try:
        service.query_batch(specs, use_cache=False)  # warm-up
        best = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            answered = service.query_batch(specs, use_cache=False)
            best = min(best, time.perf_counter() - started)
        return {
            "queries": len(specs),
            "true_answers": sum(result.answer for result, _ in answered),
            "best_seconds": best,
            "qps": len(specs) / best,
            "answers": [result.answer for result, _ in answered],
        }
    finally:
        service.close()


def bench_service_remote(graph, index, specs, *, shards: int, rounds: int) -> dict:
    """Batched throughput over real ``serve --worker`` subprocesses.

    Cuts the shard plan's slices to files exactly as ``python -m repro
    cut`` would — same partition, same correlation table, so the plan
    hash matches and the coordinator's handshake needs no resync — then
    boots one worker process per slice on an ephemeral port and
    attaches a :class:`ShardedQueryService` to them by URL.  This is
    the cross-host wire end to end: descriptor handshake, pooled
    keep-alive HTTP, per-expand slice-epoch echo.  Probes are disabled
    (``probe_interval=0``) so the bench times the scatter path, not the
    health loop.
    """
    frozen = graph.freeze()
    plan = build_shard_plan(
        frozen, index.partition, shards, index.region_correlations()
    )
    fingerprint = frozen.content_fingerprint()
    tmp = Path(tempfile.mkdtemp(prefix="bench-remote-"))
    procs: list[subprocess.Popen] = []
    urls: list[str] = []
    try:
        for graph_slice in cut_slices(frozen, plan):
            path = tmp / f"shard-{graph_slice.shard_id}.slice.json"
            dump_slice(graph_slice, plan, path, epoch=0, fingerprint=fingerprint)
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--worker", str(path),
                 "--host", "127.0.0.1", "--port", "0"],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            )
            procs.append(proc)
            for line in proc.stdout:
                match = re.search(r"listening on (http://\S+)", line)
                if match:
                    urls.append(match.group(1))
                    break
            else:
                raise SystemExit(
                    f"remote bench: worker for shard {graph_slice.shard_id} "
                    "exited before printing its ready line"
                )
            # Keep the pipe drained for the rest of the run so a chatty
            # worker can never block on a full pipe buffer.
            threading.Thread(
                target=proc.stdout.read, daemon=True
            ).start()
        service = ShardedQueryService(
            graph, index, seed=0, shards=shards, worker_urls=urls,
            probe_interval=0,
        )
        try:
            service.query_batch(specs, use_cache=False)  # warm-up
            best = float("inf")
            for _ in range(rounds):
                started = time.perf_counter()
                answered = service.query_batch(specs, use_cache=False)
                best = min(best, time.perf_counter() - started)
            return {
                "queries": len(specs),
                "true_answers": sum(result.answer for result, _ in answered),
                "best_seconds": best,
                "qps": len(specs) / best,
                "workers": len(urls),
                "answers": [result.answer for result, _ in answered],
            }
        finally:
            service.close()
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)


def bench_updates(graph, index, specs, *, rounds: int, seed: int) -> dict:
    """Mixed read/update throughput through the epoch-swap path.

    Alternates ``apply_updates`` batches (random new edges over existing
    vertices) with full query batches, measuring post-swap batch
    latency — the number that shows whether a swap degrades the serving
    hot path.  Afterwards the mutated service's answers are checked
    against a service built fresh on the mutated graph (the agreement
    criterion), so the bench doubles as a smoke gate.
    """
    rng = random.Random(seed * 31 + 5)
    # The service gets its own graph copy (and an index clone bound to
    # it) so the shared workload graph/index stay pristine for the
    # other configurations.
    base = graph.copy()
    service = QueryService(base, index.clone_for(base) if index else None,
                           seed=0)
    vertices = [f"n{i}" for i in range(graph.num_vertices)]
    labels = [f"l{i}" for i in range(graph.num_labels)]
    try:
        service.query_batch(specs, use_cache=False)  # warm-up
        swap_seconds = []
        post_swap_seconds = []
        for _ in range(rounds):
            batch = [
                (rng.choice(vertices), rng.choice(labels), rng.choice(vertices))
                for _ in range(20)
            ]
            started = time.perf_counter()
            service.apply_updates(batch)
            swap_seconds.append(time.perf_counter() - started)
            started = time.perf_counter()
            answered = service.query_batch(specs, use_cache=False)
            post_swap_seconds.append(time.perf_counter() - started)
        final_answers = [result.answer for result, _ in answered]
        fresh = QueryService(service.graph.copy(), seed=0)
        try:
            fresh_answers = [
                result.answer
                for result, _ in fresh.query_batch(specs, use_cache=False)
            ]
        finally:
            fresh.close()
        if final_answers != fresh_answers:
            raise SystemExit(
                "updates mode: post-swap answers disagree with a service "
                "built fresh on the mutated graph"
            )
        best = min(post_swap_seconds)
        return {
            "epochs": rounds,
            "queries": len(specs),
            "best_seconds": best,
            "qps": len(specs) / best,
            "mean_swap_seconds": sum(swap_seconds) / len(swap_seconds),
        }
    finally:
        service.close()


def bench_approx(config: dict, *, rounds: int, seed: int) -> dict:
    """The approx tier on the workload it exists for: sparse + repetitive.

    The dense hot-path graph is one giant SCC, so its bounds index can
    never refuse anything — this dimension instead builds a sparse
    graph (density 1.5: roughly two thirds of ordered pairs are
    label-blind unreachable) and draws the query stream from a small
    pool, so repeats hit the witness tier.  A routed service and an
    ``approx=False`` twin answer the same stream, with an identical
    ``apply_updates`` batch applied to both between rounds (epoch swap:
    result caches rotate, witnesses re-verify and survive).  The harness
    asserts bit-identical answers every round — the tier's soundness
    claim under churn — and reports the short-circuit share.
    """
    rng = random.Random(seed * 104729 + 13)
    vertices = config["vertices"]
    labels = config["labels"]
    graph = random_labeled_graph(
        vertices, 1.5, labels, rng=seed + 1, name="hotpath-approx"
    )
    label_names = [f"l{i}" for i in range(labels)]
    constraints = [
        "SELECT ?x WHERE { ?x <l0> ?y . ?x <l1> ?z . }",
        "SELECT ?x WHERE { ?x <l1> ?y . ?y <l0> ?z . }",
        "SELECT ?x WHERE { ?x <l2> ?y . ?x <l0> ?z . }",
    ]
    pool = [
        {
            "source": f"n{rng.randrange(vertices)}",
            "target": f"n{rng.randrange(vertices)}",
            "labels": rng.sample(label_names, rng.randint(2, 3)),
            "constraint": rng.choice(constraints),
        }
        for _ in range(max(8, config["queries"] // 3))
    ]
    specs = [rng.choice(pool) for _ in range(config["queries"])]
    vertex_names = [f"n{i}" for i in range(vertices)]
    routed = QueryService(graph.copy(), seed=0)
    plain = QueryService(graph.copy(), seed=0, approx=False)
    try:
        routed.query_batch(specs, use_cache=False)  # warm-up (+ witnesses)
        plain.query_batch(specs, use_cache=False)
        routed_best = float("inf")
        plain_best = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            routed_answers = routed.query_batch(specs, use_cache=False)
            routed_best = min(routed_best, time.perf_counter() - started)
            started = time.perf_counter()
            plain_answers = plain.query_batch(specs, use_cache=False)
            plain_best = min(plain_best, time.perf_counter() - started)
            if [r.answer for r, _ in routed_answers] != [
                r.answer for r, _ in plain_answers
            ]:
                raise SystemExit(
                    "approx: routed answers disagree with the approx=False twin"
                )
            batch = [
                (rng.choice(vertex_names), rng.choice(label_names),
                 rng.choice(vertex_names))
                for _ in range(10)
            ]
            routed.apply_updates(batch)
            plain.apply_updates(batch)
        stats = routed.approx.stats()
        return {
            "workload": {
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
                "distinct_queries": len(pool),
                "queries": len(specs),
                "rounds": rounds,
                "update_edges_per_round": 10,
            },
            "routed_exact": {
                "best_seconds": routed_best,
                "qps": len(specs) / routed_best,
            },
            "plain_exact": {
                "best_seconds": plain_best,
                "qps": len(specs) / plain_best,
            },
            "speedup": plain_best / routed_best,
            "short_circuit_rate": stats["short_circuit_rate"],
            "short_circuit_no": stats["short_circuit_no"],
            "short_circuit_yes": stats["short_circuit_yes"],
            "exact_fallthrough": stats["exact_fallthrough"],
            "bounds": routed.epoch.bounds.describe(),
        }
    finally:
        routed.close()
        plain.close()


def run(quick: bool, compare: bool, seed: int, shards: int = 0,
        updates: bool = False, approx: bool = False) -> dict:
    config = QUICK if quick else FULL
    graph, index, specs = build_workload(config, seed)
    frozen = graph.freeze()

    report = {
        "schema": SCHEMA_VERSION,
        "generated_by": "benchmarks/bench_hotpath.py",
        "mode": {"quick": quick, "compare": compare, "seed": seed,
                 "shards": shards, "updates": updates, "approx": approx},
        "workload": {
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "labels": graph.num_labels,
            "queries": len(specs),
            "rounds": config["rounds"],
            "landmarks": len(index.partition.landmarks),
        },
        "single_query": {},
        "service_batch": {},
    }

    queries = prepared_queries(specs)
    rounds = config["rounds"]
    combined: dict[str, float] = {"baseline": 0.0, "frozen": 0.0}
    for algorithm in ALGORITHMS:
        cell: dict = {}
        frozen_result = bench_single(
            frozen, index, queries, algorithm, rounds, cached=True
        )
        cell["frozen"] = frozen_result
        combined["frozen"] += frozen_result["best_seconds"]
        print(f"single/{algorithm:5s} frozen:     {frozen_result['qps']:9.1f} q/s")
        if compare:
            baseline = bench_single(
                graph, index, queries, algorithm, rounds, cached=False
            )
            dict_cached = bench_single(
                graph, index, queries, algorithm, rounds, cached=True
            )
            cell["baseline"] = baseline
            cell["dict_cached"] = dict_cached
            cell["speedup"] = frozen_result["qps"] / baseline["qps"]
            cell["csr_speedup"] = frozen_result["qps"] / dict_cached["qps"]
            combined["baseline"] += baseline["best_seconds"]
            print(
                f"single/{algorithm:5s} baseline:   {baseline['qps']:9.1f} q/s   "
                f"speedup {cell['speedup']:.2f}x"
            )
            print(
                f"single/{algorithm:5s} dict+cache: {dict_cached['qps']:9.1f} q/s   "
                f"csr alone {cell['csr_speedup']:.2f}x"
            )
            # Per-query agreement: a wrong-answer regression must fail
            # the run even if true/false flips happen to cancel out.
            if not (
                baseline["answers"]
                == dict_cached["answers"]
                == frozen_result["answers"]
            ):
                raise SystemExit(
                    f"{algorithm}: configurations disagree on per-query "
                    "answers (baseline vs dict+cache vs frozen)"
                )
        for result in cell.values():
            if isinstance(result, dict):
                result.pop("answers", None)
        report["single_query"][algorithm] = cell
    if compare:
        report["single_query"]["ins_uis_star_combined"] = {
            "speedup": combined["baseline"] / combined["frozen"],
        }
        print(
            "single/combined INS+UIS* speedup "
            f"{combined['baseline'] / combined['frozen']:.2f}x"
        )

    cell = {}
    frozen_result = bench_service(graph, index, specs, freeze=True,
                                  rounds=config["rounds"])
    cell["frozen"] = frozen_result
    print(f"service/batch frozen: {frozen_result['qps']:9.1f} q/s")
    if compare:
        dict_result = bench_service(graph, index, specs, freeze=False,
                                    rounds=config["rounds"])
        cell["dict"] = dict_result
        cell["speedup"] = frozen_result["qps"] / dict_result["qps"]
        print(
            f"service/batch dict:   {dict_result['qps']:9.1f} q/s "
            f"(frozen speedup {cell['speedup']:.2f}x)"
        )
        if frozen_result["answers"] != dict_result["answers"]:
            raise SystemExit(
                "service batch: frozen and dict services disagree on "
                "per-query answers"
            )
    if shards:
        sharded_result = bench_service(
            graph, index, specs, freeze=True, rounds=config["rounds"],
            shards=shards,
        )
        sharded_result["shards"] = shards
        cell["sharded"] = sharded_result
        cell["sharded_vs_unsharded"] = (
            sharded_result["qps"] / frozen_result["qps"]
        )
        print(
            f"service/batch sharded({shards}): {sharded_result['qps']:9.1f} q/s "
            f"(vs unsharded {cell['sharded_vs_unsharded']:.2f}x)"
        )
        if sharded_result["answers"] != frozen_result["answers"]:
            raise SystemExit(
                "service batch: sharded and unsharded services disagree on "
                "per-query answers"
            )
        remote_result = bench_service_remote(
            graph, index, specs, shards=shards, rounds=config["rounds"]
        )
        if remote_result["answers"] != frozen_result["answers"]:
            raise SystemExit(
                "service batch: remote-worker deployment disagrees with the "
                "unsharded service on per-query answers"
            )
        remote_result.pop("answers", None)
        remote_result["remote_vs_inprocess"] = (
            remote_result["qps"] / sharded_result["qps"]
        )
        sharded_result["remote"] = remote_result
        print(
            f"service/batch remote({shards}):  {remote_result['qps']:9.1f} q/s "
            f"(vs in-process {remote_result['remote_vs_inprocess']:.2f}x, "
            f"{remote_result['workers']} worker processes)"
        )
    if updates:
        updates_result = bench_updates(
            graph, index, specs, rounds=config["rounds"], seed=seed
        )
        cell["updates"] = updates_result
        cell["updates_vs_frozen"] = updates_result["qps"] / frozen_result["qps"]
        print(
            f"service/batch updates: {updates_result['qps']:9.1f} q/s post-swap "
            f"({updates_result['epochs']} epochs, mean swap "
            f"{updates_result['mean_swap_seconds'] * 1000:.1f}ms, vs frozen "
            f"{cell['updates_vs_frozen']:.2f}x)"
        )
    for result in (cell.get("frozen"), cell.get("dict"), cell.get("sharded")):
        if result is not None:
            result.pop("answers", None)
    report["service_batch"] = cell
    if approx:
        approx_cell = bench_approx(config, rounds=config["rounds"], seed=seed)
        report["approx"] = approx_cell
        print(
            f"approx/routed exact:  {approx_cell['routed_exact']['qps']:9.1f} q/s "
            f"(vs plain {approx_cell['speedup']:.2f}x, short-circuit rate "
            f"{approx_cell['short_circuit_rate']:.0%})"
        )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for CI smoke runs")
    parser.add_argument("--compare", action="store_true",
                        help="also measure the dict-backed baseline and speedups")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--shards", type=int, default=0,
        help="also run the batched workload through a ShardedQueryService "
        "with N in-process shard workers (0 = skip)",
    )
    parser.add_argument(
        "--updates", action="store_true",
        help="also run a mixed read/update phase (apply_updates epoch swaps "
        "interleaved with query batches) and record post-swap throughput",
    )
    parser.add_argument(
        "--approx", action="store_true",
        help="also bench the approx tier on a sparse repetitive workload "
        "(routed vs approx=False twin)",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_hotpath.json",
        help="where to write the JSON report (default: repo root)",
    )
    args = parser.parse_args(argv)
    report = run(args.quick, args.compare, args.seed, args.shards,
                 args.updates, args.approx)
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
