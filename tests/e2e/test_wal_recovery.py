"""WAL durability as a black box: SIGKILL a leader, recover, then follow.

Boots a WAL-backed leader, streams mixed insert/remove batches at it,
SIGKILLs it mid-stream (no shutdown hooks run), restarts on the same
directory and requires the exact pre-kill epoch and content
fingerprint back.  Then a read-only follower pointed at the same
directory must republish the leader's epochs, refuse writes with a
structured 403, and expose its lag in ``/healthz`` and a strictly
parsed ``/metrics``.

A reader polls ``/healthz`` and ``/query`` the whole time, across the
kill and the restart: every epoch id it sees must name exactly one
content fingerprint, and the epochs it sees never go backwards — the
restart never undoes an epoch it was answered from.
"""

from __future__ import annotations

import http.client
import json
import signal
import threading
import time
import urllib.error

from repro.obs.prometheus import parse_prometheus_text
from repro.wal import TenantWal
from tests.e2e.harness import boot_server, cli_env, get, post, run_cli, stop_server

QUERY = {
    "source": "n0",
    "target": "n1",
    "labels": ["l0", "l1"],
    "constraint": "SELECT ?x WHERE { ?x <l1> ?y . }",
    "use_cache": False,
}


class EpochReader(threading.Thread):
    """Polls one server (re-targetable) and logs every epoch it sees."""

    def __init__(self, base):
        super().__init__(daemon=True)
        self.base = base
        self.stop = threading.Event()
        #: ``(base, epoch, fingerprint)`` from every /healthz answer.
        self.health: list[tuple[str, int, str]] = []
        #: Every epoch seen, in order: /healthz and /query stamps alike.
        self.epochs: list[int] = []

    def run(self):
        while not self.stop.is_set():
            base = self.base
            try:
                health = json.loads(get(base, "/healthz", timeout=5))
                self.health.append(
                    (base, health["epoch"], health["fingerprint"])
                )
                self.epochs.append(health["epoch"])
                self.epochs.append(post(base, "/query", QUERY, timeout=5)["epoch"])
            except (OSError, ValueError, http.client.HTTPException):
                time.sleep(0.01)  # down between the kill and the restart

    def wait_for(self, base, timeout=30):
        deadline = time.time() + timeout
        while time.time() < deadline:
            if any(seen == base for seen, _, _ in self.health):
                return
            time.sleep(0.05)
        raise AssertionError(f"reader never reached {base}")


def test_kill_leader_mid_stream_recover_then_follow(tmp_path):
    env = cli_env()
    base_tsv = tmp_path / "wal-base.tsv"
    wal_dir = tmp_path / "walDir"
    run_cli("generate", "--random", "50", "3", "4", "--seed", "0",
            "--output", str(base_tsv), env=env)

    leader_args = ["--graph", str(base_tsv), "--wal", str(wal_dir),
                   "--allow-updates", "--compact-every", "4"]
    servers = []
    leader, base = boot_server(leader_args, env)
    servers.append(leader)
    reader = EpochReader(base)
    reader.start()
    try:
        reader.wait_for(base)
        # Mixed stream: adds, a removal of a just-added edge, and a
        # removal of an edge that never existed (counted, not fatal).
        for i in range(5):
            post(base, "/edges", {"edges": [
                {"source": f"w{i}", "label": "l0", "target": f"w{i + 1}"},
                {"source": f"w{i}", "label": "l1", "target": "hub"},
            ]})
        removed = post(base, "/edges", {"edges": [
            ["w0", "l1", "hub", "remove"],
            ["w0", "l2", "never-there", "remove"],
        ]})
        assert removed["edges_removed"] == 1, removed
        assert removed["edges_missing"] == 1, removed
        health = json.loads(get(base, "/healthz"))
        tip_epoch, tip_fingerprint = health["epoch"], health["fingerprint"]
        assert tip_epoch == 6, health
        assert health["wal"]["snapshot_epoch"] is not None, health["wal"]

        # kill -9: no finally blocks, no flushes beyond the per-append
        # fsync the durability contract is built on.
        leader.send_signal(signal.SIGKILL)
        leader.wait(timeout=30)

        leader2, base2 = boot_server(leader_args, env)
        servers.append(leader2)
        reader.base = base2
        reader.wait_for(base2)
        health = json.loads(get(base2, "/healthz"))
        assert health["epoch"] == tip_epoch, health
        assert health["fingerprint"] == tip_fingerprint, health
        # The recovered leader keeps accepting and logging writes.
        resumed = post(base2, "/edges",
                       {"edges": [["hub", "l0", "post-crash"]]})
        assert resumed["epoch"] == tip_epoch + 1, resumed
        leader_samples = parse_prometheus_text(get(base2, "/metrics"))
        leader_names = {name for name, _ in leader_samples}
        for family in ("repro_wal_records_total", "repro_wal_segments",
                       "repro_wal_epoch",
                       "repro_update_edges_removed_total"):
            assert family in leader_names, f"missing {family}"

        follower, base3 = boot_server(
            ["--graph", str(base_tsv), "--follow", str(wal_dir),
             "--follow-interval", "0.2"],
            env,
        )
        servers.append(follower)
        deadline = time.time() + 30
        while time.time() < deadline:
            health = json.loads(get(base3, "/healthz"))
            if (health["replication"]["lag_epochs"] == 0
                    and health["epoch"] == tip_epoch + 1):
                break
            time.sleep(0.2)
        assert health["epoch"] == tip_epoch + 1, health
        assert health["fingerprint"] == json.loads(
            get(base2, "/healthz"))["fingerprint"]
        replication = health["replication"]
        assert replication["role"] == "follower"
        for field in ("lag_epochs", "lag_seconds", "wal_epoch",
                      "records_applied"):
            assert field in replication, replication

        try:
            post(base3, "/edges", {"edges": [["a", "l0", "b"]]})
            raise AssertionError("follower accepted a write")
        except urllib.error.HTTPError as error:
            assert error.code == 403, error.code
            body = json.loads(error.read())
            assert body["error"]["type"] == "read-only", body
            assert body["error"]["detail"] == {"role": "follower"}

        samples = parse_prometheus_text(get(base3, "/metrics"))
        names = {name for name, _ in samples}
        for family in ("repro_follower_lag_epochs",
                       "repro_follower_lag_seconds",
                       "repro_follower_wal_epoch",
                       "repro_follower_records_applied_total"):
            assert family in names, f"missing {family}"
        default = (("tenant", "default"),)
        assert samples[("repro_follower_lag_epochs", default)] == 0
    finally:
        reader.stop.set()
        reader.join(timeout=30)
        for server in servers:
            stop_server(server)
    assert not reader.is_alive()

    # One fingerprint per epoch id, across both leader lifetimes, and
    # each one the log's own record of that id.
    fingerprints: dict[int, set[str]] = {}
    for _, epoch_id, fingerprint in reader.health:
        fingerprints.setdefault(epoch_id, set()).add(fingerprint)
    assert all(len(seen) == 1 for seen in fingerprints.values()), fingerprints
    assert fingerprints[tip_epoch] == {tip_fingerprint}
    logged = TenantWal(wal_dir, "default").fingerprints
    for epoch_id, seen in fingerprints.items():
        if epoch_id in logged:
            assert seen == {logged[epoch_id]}, (epoch_id, seen)
    assert reader.epochs == sorted(reader.epochs)
    assert reader.epochs[-1] <= tip_epoch + 1
    assert {seen for seen, _, _ in reader.health} >= {base, base2}
