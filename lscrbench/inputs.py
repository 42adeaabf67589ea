"""Benchmark inputs: one LUBM-like KG, its index and the paper-protocol query pool.

The build runs once per checkout (``python lscrbench/inputs.py CACHE_DIR``,
launched by ``run.py`` when the cache is missing) and writes:

* ``graph.tsv`` -- ``python -m repro generate --lubm D3 --seed 0``;
* ``graph.index.json`` -- ``python -m repro index``;
* ``pool.json`` -- ``repro.workloads.generate_workload`` over Table 3's
  S1-S5, true and false queries balanced, each with the verdict UIS
  classified it with (the answer key).

Generating the pool costs minutes, so it is made once with a fixed seed;
a run's ``--seed`` then picks the order, the hot subset, the Zipf draws
and the update batches from it (:func:`stream`, :func:`edge_batches`).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

#: LUBM scale: 2.5k vertices, 11.8k edges, 17 labels.
SCALE = "D3"
#: True and false queries generated per constraint (pool = 5 x 2 x 40).
PER_GROUP = 40
#: Bumped whenever the build's contents change, so stale caches rebuild.
BUILD_VERSION = 1


def cache_dir(root: Path) -> Path:
    """Where a checkout keeps its built inputs (ignored by git)."""
    return root / ".bench_build" / "lscrbench"


def child_env(root: Path) -> dict[str, str]:
    """Environment for a child that imports ``repro`` from the checkout."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def ensure_built(root: Path) -> Path:
    """Build the inputs unless a complete build of this version exists."""
    cache = cache_dir(root)
    meta = cache / "build.json"
    if meta.is_file():
        try:
            if json.loads(meta.read_text())["version"] == BUILD_VERSION:
                return cache
        except (ValueError, KeyError):
            pass
    cache.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), str(cache)],
        cwd=root,
        env=child_env(root),
        check=True,
        stdout=sys.stderr,
        timeout=840,
    )
    return cache


def build(cache: Path) -> None:
    """Write graph, index and query pool into ``cache`` (see module doc)."""
    from repro.datasets.lubm import ALL_CONSTRAINTS, constraint
    from repro.graph.io import load_tsv
    from repro.workloads import generate_workload

    started = time.perf_counter()
    graph_path = cache / "graph.tsv"
    index_path = cache / "graph.index.json"
    repro = [sys.executable, "-m", "repro"]
    subprocess.run(
        repro + ["generate", "--lubm", SCALE, "--seed", "0", "--output", str(graph_path)],
        check=True,
    )
    subprocess.run(repro + ["index", str(graph_path), "--output", str(index_path)], check=True)
    graph = load_tsv(graph_path, name=graph_path.stem)
    pool = []
    for position, (name, text) in enumerate(sorted(ALL_CONSTRAINTS.items())):
        workload = generate_workload(
            graph, constraint(name), PER_GROUP, PER_GROUP, rng=1000 + position
        )
        for item in workload.all_queries():
            pool.append(
                {
                    "source": item.query.source,
                    "target": item.query.target,
                    "labels": sorted(item.query.labels.labels),
                    "constraint": text,
                    "expected": item.expected,
                    "group": name,
                    "false_type": item.false_type,
                }
            )
        print(
            f"pool: {name} {len(workload.true_queries)} true / "
            f"{len(workload.false_queries)} false ({workload.attempts} attempts)",
            flush=True,
        )
    (cache / "pool.json").write_text(json.dumps(pool))
    meta = {
        "version": BUILD_VERSION,
        "scale": SCALE,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "labels": graph.num_labels,
        "labels_list": sorted(graph.labels.names()),
        "queries": len(pool),
        "build_s": time.perf_counter() - started,
    }
    # Written last: its presence marks the build complete.
    (cache / "build.json").write_text(json.dumps(meta))


def load(cache: Path) -> tuple[dict, list[dict]]:
    """``(build metadata, query pool)`` from a finished build."""
    meta = json.loads((cache / "build.json").read_text())
    pool = json.loads((cache / "pool.json").read_text())
    return meta, pool


def spec(item: dict) -> dict:
    """The request body for one pool entry (no answer key)."""
    return {
        "source": item["source"],
        "target": item["target"],
        "labels": item["labels"],
        "constraint": item["constraint"],
    }


def stream(pool: list[dict], seed: int, salt: int = 0) -> list[dict]:
    """The whole pool in a seeded, stratified order: every query once.

    The pool's ten strata (S1-S5 x expected true/false) are each
    shuffled and then dealt round-robin, in a fresh random stratum
    order every round, so any prefix of the stream -- all a slow
    workload reaches in its run -- holds every stratum in equal share.
    """
    rng = random.Random(seed * 1_000_003 + salt)
    strata: dict[tuple, list[dict]] = {}
    for item in pool:
        strata.setdefault((item["group"], item["expected"]), []).append(item)
    for items in strata.values():
        rng.shuffle(items)
    keys = sorted(strata)
    order = []
    for position in range(max(len(items) for items in strata.values())):
        rng.shuffle(keys)
        order.extend(strata[key][position] for key in keys if position < len(strata[key]))
    return order


def shard_subset(pool: list[dict], per_stratum: int) -> list[dict]:
    """A fixed (seed-independent) stratified subset of the pool.

    Scatter latency comes in steps of one round trip per RPC, and with
    true and false queries balanced the median falls where the slow
    false queries meet the fast true ones.  Over a different subset per
    seed the median jumps between steps; over one fixed subset, answered
    in whole passes, it does not.  The seed still orders every pass.
    """
    return stream(pool, 0, salt=29)[: 10 * per_stratum]


def hot_set(pool: list[dict], seed: int, size: int) -> list[dict]:
    """A small seeded subset, true and false queries alternating.

    Alternating keeps each Zipf rank band balanced between the two.
    """
    order = stream(pool, seed, salt=17)
    trues = [item for item in order if item["expected"]][: size // 2]
    falses = [item for item in order if not item["expected"]][: size - len(trues)]
    return [item for pair in zip(trues, falses) for item in pair]


class Zipf:
    """Seeded Zipf(s) draws over ranks ``0 .. n-1`` (rank 0 most frequent)."""

    def __init__(self, n: int, s: float, rng: random.Random) -> None:
        weights = [1.0 / (rank + 1) ** s for rank in range(n)]
        total = sum(weights)
        self._cumulative = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self._cumulative.append(running)
        self._rng = rng

    def draw(self) -> int:
        point = self._rng.random()
        for rank, bound in enumerate(self._cumulative):
            if point <= bound:
                return rank
        return len(self._cumulative) - 1


def read_edges(path: Path) -> tuple[list[str], set[tuple[str, str, str]]]:
    """Vertex names (first-seen order) and edge triples of a TSV graph."""
    vertices: dict[str, None] = {}
    edges = set()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            parts = line.rstrip("\n").split("\t")
            if len(parts) == 3:
                edges.add((parts[0], parts[1], parts[2]))
                vertices.setdefault(parts[0])
                vertices.setdefault(parts[2])
    return list(vertices), edges


def edge_batches(
    labels: list[str],
    vertices: list[str],
    base_edges: set[tuple[str, str, str]],
    seed: int,
    size: int = 10,
):
    """Endless seeded ``size``-edge batches of mixed adds and removes.

    Adds draw fresh ``(source, label, target)`` triples over existing
    vertices and labels that are in neither the base graph nor an
    earlier add still present; removes retract such earlier adds (two
    in five edges once there are enough).  So every add and every remove
    changes the graph, and the base graph's own edges are never removed:
    the graph only ever grows relative to the TSV.  Yields lists of
    ``[source, label, target, op]``.
    """
    rng = random.Random(seed * 7_919 + 5)
    live: list[tuple[str, str, str]] = []
    live_set: set[tuple[str, str, str]] = set()
    while True:
        removes = min(len(live), size * 2 // 5)
        batch = []
        for _ in range(removes):
            edge = live.pop(rng.randrange(len(live)))
            live_set.discard(edge)
            batch.append([*edge, "remove"])
        while len(batch) < size:
            edge = (rng.choice(vertices), rng.choice(labels), rng.choice(vertices))
            if edge in live_set or edge in base_edges or edge[0] == edge[2]:
                continue
            live.append(edge)
            live_set.add(edge)
            batch.append([*edge, "add"])
        yield batch


if __name__ == "__main__":
    build(Path(sys.argv[1]))
