"""`ShardedQueryService` — a tenant whose execution engine is a fleet.

Subclasses :class:`~repro.service.app.QueryService`, so everything a
tenant needs — planner, canonical cache keys, result/constraint/
candidate caches, stats ledger, JSON handlers, snapshot persistence —
is inherited unchanged, and a sharded service registers in a
:class:`~repro.service.registry.TenantRegistry` exactly like a plain
one.  Only the execution seam differs: non-trivial, non-cached plans go
to the :class:`~repro.shard.coordinator.ShardCoordinator` instead of a
pooled session, unless the request *explicitly* named an algorithm
(``plan.forced``), in which case the classic single-process path runs —
the escape hatch that keeps every paper algorithm reachable on a
sharded deployment.

Construction: the region partition comes from the loaded local index
when there is one (its ``D`` table then guides shard placement); an
index-free service builds a fresh landmark partition and derives the
correlation table structurally
(:func:`~repro.index.landmarks.structural_correlations`).  Two worker
topologies serve the slices:

* **in-process** (default): slices are cut from the frozen CSR snapshot
  and served by :class:`~repro.shard.worker.ShardWorker`\\ s in this
  process — N threads;
* **cross-host** (``worker_urls=[...]``, ``serve --worker-url``): each
  shard is an :class:`~repro.shard.worker.HttpShardWorker` stub driving
  a separate ``serve --worker SLICE_FILE`` process.  Attachment starts
  with a **handshake** — the worker's ``GET /shard/<id>`` descriptor
  must agree on wire version and plan hash (epoch/fingerprint drift is
  healed by pushing the coordinator's current slice) — and continues
  with **periodic health probes** that feed the per-worker circuit
  breakers and re-push slices to workers that restarted from stale
  files.

Live updates propagate **per slice**: the sharded service overrides
only the commit step of the inherited stage → commit → publish path
(:meth:`~repro.service.app.QueryService.apply_updates`).  It re-cuts the
touched shards' slices from the *staged* epoch, prepares every worker
over the two-phase ``prepare``/``publish`` wire, then appends the WAL
record; a refused prepare or failed append aborts every prepare with
nothing published, so there is nothing to roll back.  Only then does
the new topology go live, bumping a coordinated *slice epoch* every
expand echoes, so a scatter straddling the swap detects the skew and
re-runs against the new topology.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.exceptions import (
    ServiceConfigError,
    ShardHandshakeError,
    ShardUnavailableError,
)
from repro.index.landmarks import (
    bfs_traverse,
    select_landmarks,
    structural_correlations,
)
from repro.index.local_index import LocalIndex
from repro.service.app import QueryService
from repro.service.epoch import GraphEpoch
from repro.service.planner import QueryPlan
from repro.service.stats import merge_snapshots
from repro.core.result import QueryResult
from repro.graph.labeled_graph import KnowledgeGraph
from repro.shard.coordinator import SHARDED_ALGORITHM, ShardCoordinator
from repro.shard.partitioner import (
    GraphSlice,
    ShardPlan,
    build_shard_plan,
    cut_slices,
)
from repro.shard.rebalance import propose_rebalance
from repro.shard.slicefile import (
    SLICE_WIRE_VERSION,
    plan_fingerprint,
    slice_document,
)
from repro.shard.worker import HttpShardWorker, ShardWorker

__all__ = ["ShardedQueryService", "DEFAULT_PROBE_INTERVAL"]

#: Seconds between health probes of remote workers.
DEFAULT_PROBE_INTERVAL = 5.0


@dataclass(frozen=True)
class _SlicePush:
    """A slice push every worker has prepared but none serves yet."""

    txn: str
    epoch: GraphEpoch
    plan: ShardPlan
    plan_hash: str
    slice_epoch: int


class ShardedQueryService(QueryService):
    """One tenant, ``shards`` region-sharded slices, exact answers."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        index: LocalIndex | None = None,
        *,
        shards: int = 2,
        shard_landmarks: int | None = None,
        local_fast_path: bool = True,
        parallel_scatter: bool = True,
        degraded_answers: bool = False,
        scatter_timeout: float | None = None,
        retry_policy=None,
        worker_urls: list[str] | None = None,
        worker_timeout: float | None = None,
        probe_interval: float | None = None,
        **kwargs: Any,
    ) -> None:
        if shards < 1:
            raise ServiceConfigError(f"shards must be >= 1, got {shards}")
        super().__init__(graph, index, **kwargs)
        frozen = self.graph
        if index is not None:
            partition = index.partition
            correlations = index.region_correlations()
        else:
            landmarks = select_landmarks(frozen, k=shard_landmarks, rng=self.seed)
            partition = bfs_traverse(frozen, landmarks)
            correlations = structural_correlations(frozen, partition)
        #: Retained for D-guided rebalancing: live crossing counters are
        #: folded into this correlation table to re-place regions.
        self._partition = partition
        self._correlations = correlations
        self.shard_plan = build_shard_plan(frozen, partition, shards, correlations)
        self._slice_epoch = self.epoch.epoch_id
        self._health_lock = threading.Lock()
        self._worker_health: dict[int, dict] = {}
        self._probe_stop = threading.Event()
        self._probe_thread: threading.Thread | None = None
        plan_hash = plan_fingerprint(self.shard_plan)
        if worker_urls is not None:
            if len(worker_urls) != shards:
                raise ServiceConfigError(
                    f"--shards {shards} needs exactly {shards} --worker-url "
                    f"values, got {len(worker_urls)}"
                )
            self.workers: list = [
                HttpShardWorker(url, shard_id, timeout=worker_timeout)
                for shard_id, url in enumerate(worker_urls)
            ]
        else:
            self.workers = [
                ShardWorker(
                    graph_slice,
                    seed=self.seed,
                    cache_size=self.results.max_size,
                    cache_ttl=self.results.ttl_seconds,
                    epoch=self._slice_epoch,
                    fingerprint=self.epoch.fingerprint,
                    plan_hash=plan_hash,
                    plan=self.shard_plan,
                )
                for graph_slice in cut_slices(frozen, self.shard_plan)
            ]
        self.coordinator = ShardCoordinator(
            frozen,
            self.shard_plan,
            self.workers,
            candidate_cache=self.candidates,
            local_fast_path=local_fast_path,
            parallel=parallel_scatter,
            degraded_answers=degraded_answers,
            scatter_timeout=scatter_timeout,
            retry_policy=retry_policy,
            slice_epoch=self._slice_epoch,
        )
        if worker_urls is not None:
            try:
                for shard_id, worker in enumerate(self.workers):
                    self._handshake(shard_id, worker)
            except Exception:
                self.close()
                raise
            interval = (
                DEFAULT_PROBE_INTERVAL if probe_interval is None else probe_interval
            )
            if interval and interval > 0:
                self._probe_thread = threading.Thread(
                    target=self._probe_loop,
                    args=(interval,),
                    name="repro-shard-probe",
                    daemon=True,
                )
                self._probe_thread.start()

    def __repr__(self) -> str:
        return (
            f"ShardedQueryService({self.graph.name!r}, "
            f"shards={self.shard_plan.num_shards}, "
            f"index={'loaded' if self.index is not None else 'none'})"
        )

    @property
    def default_algorithm(self) -> str:
        """``"sharded"`` unless the whole service forces one algorithm."""
        return self._forced_algorithm or SHARDED_ALGORITHM

    @property
    def slice_epoch(self) -> int:
        """The coordinated slice epoch every worker currently serves."""
        return self._slice_epoch

    # ------------------------------------------------------------------

    def _evaluate(self, plan: QueryPlan, epoch: GraphEpoch) -> QueryResult:
        """Scatter-gather by default; forced plans run the named session.

        This overrides the *exact* half of the execute seam only: the
        base class's ``_execute`` router consults the coordinator-local
        bounds first, so definite-No/definite-Yes queries are settled
        here on the coordinator and never scatter to the workers.
        """
        if plan.forced:
            return super()._evaluate(plan, epoch)
        assert plan.query is not None
        return self.coordinator.answer(plan.query)

    # ------------------------------------------------------------------
    # cross-host attachment: handshake + health probes + resync
    # ------------------------------------------------------------------

    def _handshake(self, shard_id: int, worker: HttpShardWorker) -> None:
        """Verify a remote worker serves this deployment's shard.

        Wire-version or shard-identity disagreement is a structured
        refusal (:class:`~repro.exceptions.ShardHandshakeError`); plan
        or epoch drift — a worker booted from a stale slice file — is
        healed by pushing the coordinator's current slice.
        """
        try:
            descriptor = worker.probe()
        except Exception as error:
            raise ShardHandshakeError(
                f"worker {worker.base_url} for shard {shard_id} did not "
                f"answer its descriptor probe: {error}",
                detail={"shard": shard_id, "url": worker.base_url},
            ) from error
        if descriptor.get("shard") != shard_id:
            raise ShardHandshakeError(
                f"worker {worker.base_url} serves shard "
                f"{descriptor.get('shard')!r}, expected {shard_id}",
                detail={"shard": shard_id, "descriptor": descriptor},
            )
        wire = descriptor.get("wire_version")
        if wire != SLICE_WIRE_VERSION:
            raise ShardHandshakeError(
                f"worker {worker.base_url} speaks shard wire version "
                f"{wire!r}, this coordinator speaks {SLICE_WIRE_VERSION}",
                detail={
                    "shard": shard_id,
                    "worker_wire_version": wire,
                    "coordinator_wire_version": SLICE_WIRE_VERSION,
                },
            )
        plan_hash = plan_fingerprint(self.shard_plan)
        if (
            descriptor.get("plan_hash") != plan_hash
            or descriptor.get("epoch") != self._slice_epoch
            or descriptor.get("fingerprint") != self.epoch.fingerprint
        ):
            try:
                self._resync_worker(shard_id, worker)
            except Exception as error:
                raise ShardHandshakeError(
                    f"worker {worker.base_url} disagrees on plan/epoch and "
                    f"could not be resynced: {error}",
                    detail={
                        "shard": shard_id,
                        "descriptor": {
                            key: descriptor.get(key)
                            for key in ("epoch", "fingerprint", "plan_hash")
                        },
                        "expected": {
                            "epoch": self._slice_epoch,
                            "fingerprint": self.epoch.fingerprint,
                            "plan_hash": plan_hash,
                        },
                    },
                ) from error
        self._note_health(
            shard_id,
            epoch=self._slice_epoch,
            plan_hash=plan_hash,
        )

    def _resync_worker(self, shard_id: int, worker) -> None:
        """Push the coordinator's current slice to one drifted worker."""
        with self._update_lock:
            plan = self.shard_plan
            push = _SlicePush(
                txn=f"resync-{self._slice_epoch}-{shard_id}",
                epoch=self.epoch,
                plan=plan,
                plan_hash=plan_fingerprint(plan),
                slice_epoch=self._slice_epoch,
            )
            self._prepare_worker(shard_id, worker, push, ship=True)
            worker.publish_update(push.txn)
            with self._health_lock:
                entry = self._worker_health.setdefault(shard_id, {})
                entry["resyncs"] = entry.get("resyncs", 0) + 1

    def _note_health(self, shard_id: int, **fields: Any) -> None:
        with self._health_lock:
            entry = self._worker_health.setdefault(
                shard_id, {"consecutive_failures": 0}
            )
            entry["last_seen"] = time.time()
            entry["consecutive_failures"] = 0
            entry.pop("last_error", None)
            entry.update(fields)

    def _note_unhealthy(self, shard_id: int, error: BaseException) -> None:
        with self._health_lock:
            entry = self._worker_health.setdefault(
                shard_id, {"consecutive_failures": 0}
            )
            entry["consecutive_failures"] = (
                entry.get("consecutive_failures", 0) + 1
            )
            entry["last_error"] = f"{type(error).__name__}: {error}"

    def _probe_loop(self, interval: float) -> None:
        while not self._probe_stop.wait(interval):
            try:
                self._probe_workers(timeout=max(0.5, min(interval, 5.0)))
            except Exception:  # pragma: no cover - probe loop never dies
                pass

    def _probe_workers(self, timeout: float = 5.0) -> None:
        """One health sweep: probe every remote worker, heal drift.

        Probe outcomes feed the coordinator's per-worker circuit
        breakers — a responsive descriptor closes a half-open breaker
        without waiting for query traffic, and a dead worker keeps its
        breaker open between queries.  A worker answering with a stale
        epoch or plan hash (it restarted from an old slice file) gets
        the current slice re-pushed.
        """
        for shard_id, worker in enumerate(self.workers):
            probe = getattr(worker, "probe", None)
            if probe is None:
                continue
            try:
                descriptor = probe(timeout=timeout)
            except Exception as error:
                self.coordinator.breakers[shard_id].record_failure()
                self._note_unhealthy(shard_id, error)
                continue
            self.coordinator.breakers[shard_id].record_success()
            self._note_health(
                shard_id,
                epoch=descriptor.get("epoch"),
                plan_hash=descriptor.get("plan_hash"),
            )
            if (
                descriptor.get("epoch") != self._slice_epoch
                or descriptor.get("plan_hash")
                != plan_fingerprint(self.shard_plan)
            ):
                try:
                    self._resync_worker(shard_id, worker)
                except Exception as error:
                    self._note_unhealthy(shard_id, error)

    # ------------------------------------------------------------------
    # slice-epoch propagation: the two-phase push
    # ------------------------------------------------------------------

    def _extended_plan(self, graph: KnowledgeGraph) -> ShardPlan:
        """The current plan, extended over vertices interned since.

        New vertices have no landmark region, so they take the same
        round-robin owners :func:`build_shard_plan` gives unreached
        vertices — deterministic and balanced, no re-placement of
        existing vertices.
        """
        plan = self.shard_plan
        count = graph.num_vertices
        if count == plan.num_vertices:
            return plan
        shard_of = list(plan.shard_of) + [
            vid % plan.num_shards for vid in range(plan.num_vertices, count)
        ]
        return ShardPlan(
            num_shards=plan.num_shards,
            shard_of=tuple(shard_of),
            regions_by_shard=plan.regions_by_shard,
            region_shard=plan.region_shard,
        )

    def _push_slices(
        self,
        staged: GraphEpoch,
        *,
        plan: ShardPlan | None = None,
        touched: set[int] | None = None,
        reason: str,
    ) -> _SlicePush:
        """Phase one of a slice push: prepare every worker for ``staged``.

        Touched shards receive their re-cut slice of the staged graph
        (all the rebuild cost lands here, off the serving path),
        untouched shards a bare epoch bump, at the next slice epoch —
        never below the staged epoch id.  Nothing served changes; any
        failure aborts every staged prepare and raises a structured 503
        naming the epoch still served.  The returned push goes live
        through :meth:`_publish_slices`.
        """
        if plan is None:
            plan = self._extended_plan(staged.graph)
        slice_epoch = max(staged.epoch_id, self._slice_epoch + 1)
        push = _SlicePush(
            txn=f"{reason}-{slice_epoch}",
            epoch=staged,
            plan=plan,
            plan_hash=plan_fingerprint(plan),
            slice_epoch=slice_epoch,
        )
        try:
            for shard_id, worker in enumerate(self.workers):
                ship = touched is None or shard_id in touched
                self._prepare_worker(shard_id, worker, push, ship=ship)
        except Exception as error:
            self._abort_slices(push)
            raise ShardUnavailableError(
                getattr(error, "shard", -1),
                f"slice push could not prepare: {error}",
                detail={"epoch": self.epoch.epoch_id},
            ) from error
        return push

    def _prepare_worker(
        self, shard_id: int, worker, push: _SlicePush, *, ship: bool
    ) -> None:
        """Stage ``push`` on one worker: its re-cut slice (``ship``) —
        the object in-process, a slice document over the wire — or a
        bare epoch bump."""
        fingerprint = push.epoch.fingerprint
        if not ship:
            worker.prepare_update(
                push.txn,
                epoch=push.slice_epoch,
                fingerprint=fingerprint,
                plan_hash=push.plan_hash,
            )
            return
        graph_slice = GraphSlice(push.epoch.graph, push.plan, shard_id)
        if isinstance(worker, ShardWorker):
            worker.prepare_slice(
                push.txn,
                graph_slice,
                epoch=push.slice_epoch,
                fingerprint=fingerprint,
                plan_hash=push.plan_hash,
                plan=push.plan,
            )
            return
        worker.prepare_update(
            push.txn,
            epoch=push.slice_epoch,
            fingerprint=fingerprint,
            plan_hash=push.plan_hash,
            slice_document=slice_document(
                graph_slice,
                push.plan,
                epoch=push.slice_epoch,
                fingerprint=fingerprint,
            ),
        )

    def _abort_slices(self, push: _SlicePush) -> None:
        """Drop a prepared push on every worker (aborts are idempotent)."""
        for worker in self.workers:
            try:
                worker.abort_update(push.txn)
            except Exception:
                pass

    def _publish_slices(self, push: _SlicePush) -> list[dict]:
        """Phase two: swap a prepared push in on the coordinator and fleet.

        Publish stragglers are returned as ``shards_unpublished`` entries,
        not raised, because the push is already committed — their
        expands echo a stale epoch, the skew check refuses structurally,
        and the health sweep re-pushes until they converge.
        """
        self.shard_plan = push.plan
        self._slice_epoch = push.slice_epoch
        self.coordinator.publish(
            push.epoch.graph,
            push.plan,
            push.slice_epoch,
            push.epoch.candidates,
        )
        failures: list[dict] = []
        for shard_id, worker in enumerate(self.workers):
            try:
                worker.publish_update(push.txn)
            except Exception as error:
                self._note_unhealthy(shard_id, error)
                message = f"{type(error).__name__}: {error}"
                failures.append({"shard": shard_id, "error": message})
            else:
                if not isinstance(worker, ShardWorker):
                    self._note_health(
                        shard_id,
                        epoch=push.slice_epoch,
                        plan_hash=push.plan_hash,
                    )
        return failures

    def _touched_shards(
        self, updates: list, graph: KnowledgeGraph, plan: ShardPlan
    ) -> set[int]:
        """Owners (under ``plan``) of every updated edge's source vertex.

        An edge lives in exactly one slice — its source's — so these are
        the only slices whose content an applied batch can change.  A
        brand-new vertex that only ever appears as a target needs no
        slice re-cut: no slice stores out-edges for it yet, and the
        coordinator counts crossed-to vertices as visited without asking
        their owner to expand them.
        """
        touched: set[int] = set()
        for source, _label, _target, _op in updates:
            if graph.has_vertex(source):
                touched.add(plan.shard_of[graph.vid(source)])
        return touched

    def _commit(self, staged: GraphEpoch, updates: list) -> dict:
        """Prepare every slice at the staged epoch, log it, then swap.

        Shards owning an updated edge's source get their slice re-cut
        from the staged graph, the rest a bare epoch bump; then the
        inherited commit appends the WAL record.  A refused prepare (a
        structured 503) or a failed append aborts every staged prepare
        with nothing published.  Only then does the new topology go live
        on the coordinator and the workers, right before the inherited
        publish stores the epoch.
        """
        plan = self._extended_plan(staged.graph)
        touched = self._touched_shards(updates, staged.graph, plan)
        push = self._push_slices(
            staged, plan=plan, touched=touched, reason="update"
        )
        try:
            summary = super()._commit(staged, updates)
        except BaseException:
            self._abort_slices(push)
            raise
        summary["slice_epoch"] = push.slice_epoch
        summary["shards_updated"] = sorted(touched)
        failures = self._publish_slices(push)
        if failures:
            summary["shards_unpublished"] = failures
        return summary

    def reset_epoch(
        self, epoch_id: int, *, expected_fingerprint: str | None = None
    ) -> None:
        """Renumber the epoch and propagate the new id to every slice.

        WAL recovery's counter-restore: the graph content is already
        correct, but workers must echo the logged epoch or every
        post-recovery scatter would look like a mid-swap skew.  The
        renumbered id names the content the log records for it, so this
        may publish before it pushes.
        """
        with self._update_lock:
            before = self.epoch.epoch_id
            super().reset_epoch(
                epoch_id, expected_fingerprint=expected_fingerprint
            )
            if self.epoch.epoch_id != before:
                self._publish_slices(self._push_slices(self.epoch, reason="reset"))

    # ------------------------------------------------------------------
    # D-guided rebalancing
    # ------------------------------------------------------------------

    def rebalance(self) -> dict:
        """Re-cut the shard plan from live border-crossing counters.

        Folds each worker's per-peer crossing counts into the structural
        correlation table (:func:`~repro.shard.rebalance
        .propose_rebalance` is the pure half) and — when the proposal
        actually moves a region — pushes the re-cut slices through the
        same two-phase wire an update uses, at a bumped slice epoch.
        """
        with self._update_lock:
            crossings: dict[int, dict[int, int]] = {}
            for shard_id, worker in enumerate(self.workers):
                if isinstance(worker, ShardWorker):
                    crossings[shard_id] = worker.crossings_by_peer()
                else:
                    try:
                        descriptor = worker.probe()
                    except Exception as error:
                        raise ShardUnavailableError(
                            shard_id,
                            f"cannot read crossing counters: {error}",
                        ) from error
                    crossings[shard_id] = {
                        int(peer): int(count)
                        for peer, count in (
                            descriptor.get("crossings_by_peer") or {}
                        ).items()
                    }
            proposal = propose_rebalance(
                self._partition,
                self.shard_plan,
                self._correlations,
                crossings,
                num_vertices=self.epoch.graph.num_vertices,
            )
            if proposal is None:
                return {
                    "rebalanced": False,
                    "reason": "current placement already minimises observed "
                    "crossings (or there is nothing to move)",
                    "slice_epoch": self._slice_epoch,
                    "crossings": {
                        str(shard): {str(p): c for p, c in peers.items()}
                        for shard, peers in sorted(crossings.items())
                    },
                }
            moved = sum(
                1
                for landmark, shard in proposal.region_shard.items()
                if self.shard_plan.region_shard.get(landmark) != shard
            )
            push = self._push_slices(
                self.epoch, plan=proposal, reason="rebalance"
            )
            failures = self._publish_slices(push)
            document = {
                "rebalanced": True,
                "slice_epoch": push.slice_epoch,
                "regions_moved": moved,
                "plan": proposal.describe(),
            }
            if failures:
                document["shards_unpublished"] = failures
            return document

    # ------------------------------------------------------------------

    def health(self) -> dict:
        document = super().health()
        document["shards"] = self.shard_plan.num_shards
        document["slice_epoch"] = self._slice_epoch
        return document

    def stats_snapshot(self) -> dict:
        """The inherited document plus a ``shards`` section.

        Each worker entry is its own descriptor (slice sizes, traffic
        and update counters — plus connection reuse for remote stubs)
        merged with the coordinator-side health ledger (``last_seen``
        age, consecutive probe failures, last observed epoch/plan).
        ``workers_totals`` folds every in-process worker's per-slice
        service counters into one document via the same
        :func:`merge_snapshots` the registry uses across tenants.
        """
        document = super().stats_snapshot()
        now = time.time()
        with self._health_lock:
            health = {
                shard_id: dict(entry)
                for shard_id, entry in self._worker_health.items()
            }
        workers = []
        for shard_id, worker in enumerate(self.workers):
            entry = worker.describe()
            ledger = health.get(shard_id)
            if ledger is not None:
                last_seen = ledger.pop("last_seen", None)
                if last_seen is not None:
                    ledger["last_seen_age_seconds"] = max(0.0, now - last_seen)
                entry["health"] = ledger
            workers.append(entry)
        document["shards"] = {
            "plan": self.shard_plan.describe(),
            "plan_hash": plan_fingerprint(self.shard_plan),
            "slice_epoch": self._slice_epoch,
            "coordinator": self.coordinator.stats(),
            "workers": workers,
            "workers_totals": merge_snapshots(
                worker.service.stats.snapshot()
                for worker in self.workers
                if getattr(worker, "service", None) is not None
            ),
        }
        document["config"]["shards"] = self.shard_plan.num_shards
        return document

    def close(self) -> None:
        """Stop probing, release the coordinator pool and every worker."""
        self._probe_stop.set()
        thread = self._probe_thread
        if thread is not None:
            thread.join(timeout=2.0)
            self._probe_thread = None
        self.coordinator.close()
        for worker in self.workers:
            worker.close()
        super().close()
