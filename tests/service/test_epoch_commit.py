"""Epoch identity across failed commits: stage → commit → publish.

An epoch id names exactly one graph content, forever, and no reader is
answered from an epoch that a failure can undo.  Every epoch change
stages the next epoch without publishing it, commits it (the WAL
append and fsync; slice prepares first on a sharded service) and only
then publishes it, so a failed commit must leave the previous epoch
served and its successor's id free.

The regression group pins the two ways this used to break: a WAL
append that raised after its epoch was already served (the next
batch was then acked one id further, leaving a gap replay refuses),
and a refused slice prepare that un-published an epoch a reader had
already been answered from.  The randomized group checks the
invariant over 30 seeds per topology, with concurrent readers logging
every ``(epoch, fingerprint)`` they observe while appends fail and
prepares are refused: each id a reader saw was already in the log,
and maps to the one fingerprint the final log records for it.
"""

from __future__ import annotations

import errno
import os
import random
import sys
import threading

import pytest

from repro.datasets.synthetic import random_labeled_graph
from repro.exceptions import ShardUnavailableError
from repro.graph.io import dump_tsv, load_tsv
from repro.service.app import QueryService
from repro.shard.service import ShardedQueryService
from repro.wal import TenantWal, recover_service

SEEDS = list(range(30))
ROUNDS = 6
READERS = 3
NUM_VERTICES = 10
NUM_LABELS = 3
CONSTRAINT = "SELECT ?x WHERE { ?x <l0> ?y . }"


def write_base(tmp_path, seed=0):
    graph = random_labeled_graph(
        NUM_VERTICES, 1.6, NUM_LABELS, rng=seed, name=f"commit-{seed}"
    )
    path = tmp_path / f"commit-{seed}.tsv"
    dump_tsv(graph, path)
    return path


def make_service(tsv, topology, seed):
    graph = load_tsv(tsv, name=tsv.stem)
    if topology == "sharded":
        return ShardedQueryService(graph, seed=seed, shards=2)
    return QueryService(graph, seed=seed)


def identity(service):
    epoch = service.epoch
    return epoch.epoch_id, epoch.fingerprint


def random_batch(rng, round_number):
    batch = []
    for _ in range(rng.randint(1, 4)):
        source = f"n{rng.randrange(NUM_VERTICES)}"
        target = rng.choice(
            [f"n{rng.randrange(NUM_VERTICES)}", f"u{round_number}"]
        )
        op = "remove" if rng.random() < 0.25 else "add"
        batch.append((source, f"l{rng.randrange(NUM_LABELS)}", target, op))
    # One fresh edge keeps every batch a real epoch change.
    batch.append((f"n{round_number}", "l0", f"fresh{round_number}", "add"))
    return batch


def logged_history(wal_root, tenant, base):
    """``{epoch: fingerprint}`` from the log on disk, plus the base epoch.

    Fails if the log records any epoch id twice.
    """
    history = {0: base}
    for record in TenantWal(wal_root, tenant).read_records():
        assert record.epoch not in history, f"epoch {record.epoch} logged twice"
        history[record.epoch] = record.fingerprint
    return history


class FlakyWal:
    """A WAL whose ``append`` raises ENOSPC on chosen calls.

    ``before_append`` runs first on every call — a reader looking at the
    service from inside the commit, where the staged epoch is durable or
    about to fail but must not be visible yet.
    """

    def __init__(self, wal, failing_calls, before_append=None):
        self.wal = wal
        self.failing_calls = set(failing_calls)
        self.before_append = before_append
        self.calls = 0

    def append(self, edges, **fields):
        self.calls += 1
        if self.before_append is not None:
            self.before_append()
        if self.calls in self.failing_calls:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.wal.append(edges, **fields)

    def __getattr__(self, name):
        return getattr(self.wal, name)


class RefusingWorker:
    """A shard worker that refuses chosen prepares, reading as it does.

    Every other call — expands included — goes to the wrapped worker.
    Not a :class:`~repro.shard.worker.ShardWorker`, so its re-cut slices
    travel as slice documents, like a remote worker's.
    """

    def __init__(self, worker, refused_calls, on_prepare=None):
        self.worker = worker
        self.refused_calls = set(refused_calls)
        self.on_prepare = on_prepare
        self.calls = 0

    def prepare_update(self, txn, **fields):
        self.calls += 1
        if self.on_prepare is not None:
            self.on_prepare()
        if self.calls in self.refused_calls:
            raise RuntimeError(f"prepare {txn} refused")
        return self.worker.prepare_update(txn, **fields)

    def __getattr__(self, name):
        return getattr(self.worker, name)


# ----------------------------------------------------------------------
# regressions
# ----------------------------------------------------------------------


class TestFailedAppend:
    def test_failed_append_publishes_nothing_and_frees_the_id(self, tmp_path):
        tsv = write_base(tmp_path)
        wal = TenantWal(tmp_path / "wal", "default")
        service = make_service(tsv, "unsharded", 0)
        service.attach_wal(FlakyWal(wal, failing_calls={2}))
        try:
            service.apply_updates([("n0", "l0", "a1")])
            before = identity(service)
            with pytest.raises(OSError) as excinfo:
                service.apply_updates([("n1", "l1", "a2")])
            assert excinfo.value.errno == errno.ENOSPC
            assert identity(service) == before
            summary = service.apply_updates([("n2", "l2", "a3")])
            assert summary["epoch"] == before[0] + 1
            tip = identity(service)
        finally:
            service.close()
            wal.close()
        recovered, replay = recover_service(
            TenantWal(tmp_path / "wal", "default"),
            graph_path=tsv,
            seed=0,
            attach=False,
        )
        try:
            assert replay["epoch"] == tip[0]
            assert identity(recovered) == tip
        finally:
            recovered.close()

    def test_failed_fsync_leaves_no_record_behind(self, tmp_path, monkeypatch):
        tsv = write_base(tmp_path)
        wal = TenantWal(tmp_path / "wal", "default")
        service = make_service(tsv, "unsharded", 0)
        service.attach_wal(wal)
        base = service.epoch.fingerprint
        try:
            service.apply_updates([("n0", "l0", "a1")])
            before = identity(service)
            real_fsync = os.fsync
            failures = iter([True])

            def fsync_once(fd):
                if next(failures, False):
                    raise OSError(errno.EIO, "I/O error")
                return real_fsync(fd)

            monkeypatch.setattr("repro.wal.log.os.fsync", fsync_once)
            with pytest.raises(OSError):
                service.apply_updates([("n1", "l1", "a2")])
            assert identity(service) == before
            assert [r.epoch for r in wal.read_records()] == [1]
            summary = service.apply_updates([("n2", "l2", "a3")])
            assert summary["epoch"] == 2
            tip = identity(service)
        finally:
            service.close()
            wal.close()
        history = logged_history(tmp_path / "wal", "default", base)
        assert history[before[0]] == before[1]
        assert history[2] == tip[1]

    def test_failed_compaction_still_publishes(self, tmp_path, monkeypatch):
        tsv = write_base(tmp_path)
        wal = TenantWal(tmp_path / "wal", "default", compact_every=1)
        service = make_service(tsv, "unsharded", 0)
        service.attach_wal(wal)

        def no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        try:
            monkeypatch.setattr(TenantWal, "compact", no_space)
            assert service.apply_updates([("n0", "l0", "a1")])["epoch"] == 1
            assert service.epoch.epoch_id == 1
            assert wal.snapshot_epoch is None
            monkeypatch.undo()
            service.apply_updates([("n1", "l1", "a2")])
            assert wal.snapshot_epoch == 2
            tip = identity(service)
        finally:
            service.close()
            wal.close()
        recovered, _ = recover_service(
            TenantWal(tmp_path / "wal", "default"), graph_path=tsv, seed=0
        )
        try:
            assert identity(recovered) == tip
        finally:
            recovered.close()


class TestRefusedPrepare:
    def test_refused_prepare_is_a_503_at_the_served_epoch(self, tmp_path):
        tsv = write_base(tmp_path)
        service = make_service(tsv, "sharded", 0)
        base = service.epoch.fingerprint
        seen: list[tuple[int, str]] = []
        stamped: list[int] = []

        def read():
            seen.append(identity(service))
            _, meta = service.query("n0", "n3", ["l0", "l1"], CONSTRAINT)
            stamped.append(meta["epoch"])

        inner = service.workers[-1]
        service.workers[-1] = RefusingWorker(inner, {1}, on_prepare=read)
        try:
            with pytest.raises(ShardUnavailableError) as excinfo:
                service.apply_updates([("n0", "l0", "a1")])
            error = excinfo.value
            assert error.status == 503
            assert error.detail["epoch"] == 0
            assert identity(service)[0] == 0
            assert service.slice_epoch == 0
            for worker in service.workers[:-1]:
                counters = worker.describe()
                assert counters["updates_prepared"] == 1
                assert counters["updates_aborted"] == 1
                assert counters["updates_published"] == 0
                assert counters["epoch"] == 0
            service.workers[-1] = inner
            summary = service.apply_updates([("n1", "l1", "a2")])
            assert summary["epoch"] == 1
            final = {0: base, 1: identity(service)[1]}
            assert seen and stamped == [0]
            for epoch_id, fingerprint in seen:
                assert final[epoch_id] == fingerprint, (epoch_id, seen)
        finally:
            service.close()


# ----------------------------------------------------------------------
# randomized epoch identity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("topology", ["unsharded", "sharded"])
@pytest.mark.parametrize("seed", SEEDS)
def test_every_observed_epoch_names_one_logged_content(tmp_path, topology, seed):
    rng = random.Random(seed)
    tsv = write_base(tmp_path, seed)
    wal_root = tmp_path / "wal"
    # No compaction: the final history on disk keeps every epoch.
    wal = TenantWal(wal_root, "t")
    service = make_service(tsv, topology, seed)
    base = service.epoch.fingerprint
    observed: list[tuple[int, str]] = []
    stamps: list[int] = []
    violations: list[str] = []

    def observe():
        epoch_id, fingerprint = identity(service)
        # The moment of observation: the id must already be durable.
        if epoch_id != 0 and epoch_id not in wal.record_epochs:
            violations.append(f"epoch {epoch_id} served before it was logged")
        observed.append((epoch_id, fingerprint))

    failing = set(rng.sample(range(1, ROUNDS + 1), rng.randint(1, 2)))
    service.attach_wal(FlakyWal(wal, failing, before_append=observe))
    if topology == "sharded":
        victim = rng.randrange(len(service.workers))
        refused = set(rng.sample(range(1, ROUNDS + 1), rng.randint(1, 3)))
        service.workers[victim] = RefusingWorker(
            service.workers[victim], refused, on_prepare=observe
        )

    stop = threading.Event()

    def reader(reader_seed):
        reader_rng = random.Random(reader_seed)
        while not stop.is_set():
            observe()
            source = f"n{reader_rng.randrange(NUM_VERTICES)}"
            target = f"n{reader_rng.randrange(NUM_VERTICES)}"
            try:
                _, meta = service.query(source, target, ["l0", "l1"], CONSTRAINT)
            except ShardUnavailableError:
                continue  # a structured refusal is never a wrong answer
            epoch_id = meta["epoch"]
            if epoch_id != 0 and epoch_id not in wal.record_epochs:
                violations.append(f"answer stamped {epoch_id} before it was logged")
            stamps.append(epoch_id)

    threads = [
        threading.Thread(target=reader, args=(seed * 100 + n,))
        for n in range(READERS)
    ]
    # Short GIL slices interleave readers with every step of a swap.
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    for thread in threads:
        thread.start()
    failures = 0
    try:
        for round_number in range(ROUNDS):
            before = identity(service)
            try:
                summary = service.apply_updates(random_batch(rng, round_number))
            except (OSError, ShardUnavailableError) as error:
                failures += 1
                if isinstance(error, ShardUnavailableError):
                    assert error.detail["epoch"] == before[0]
                assert identity(service) == before
            else:
                assert summary["epoch"] == before[0] + 1
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads)
    tip = identity(service)
    try:
        assert failures >= 1
        assert not violations, violations[:5]
        history = logged_history(wal_root, "t", base)
        assert max(history) == tip[0]
        assert history[tip[0]] == tip[1]
        for epoch_id, fingerprint in observed:
            assert history[epoch_id] == fingerprint, (epoch_id, fingerprint)
        assert all(epoch_id in history for epoch_id in stamps)
        if topology == "sharded":
            for worker in service.workers:
                counters = worker.describe()  # the inner worker's
                assert counters["updates_prepared"] == (
                    counters["updates_published"] + counters["updates_aborted"]
                )
                assert counters["epoch"] == service.slice_epoch
    finally:
        service.close()
        wal.close()
    recovered, _ = recover_service(
        TenantWal(wal_root, "t"),
        graph_path=tsv,
        seed=seed,
        attach=False,
        service_cls=type(service),
    )
    try:
        assert identity(recovered) == tip
    finally:
        recovered.close()
