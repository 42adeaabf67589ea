"""The approx tier's contract as a black box, across a real server process.

Boots ``python -m repro serve`` with a sharded default tenant and an
unsharded updating tenant, sends traffic through an update stream, and
requires (a) every answer bit-identical to a local ``approx=False``
oracle replaying the same updates, with both the ``exact`` and the
``short-circuit`` tier seen, (b) the sound-tier ``repro_approx_*``
families strict-parsing off ``/metrics``, and (c) ``/debug/slow``
entries carrying the routing tier.
"""

from __future__ import annotations

import json
import urllib.request

from repro.graph.io import load_tsv
from repro.obs.prometheus import parse_prometheus_text
from repro.service.app import QueryService
from tests.e2e.harness import boot_server, cli_env, run_cli


def specs_for(vertices, labels, count, salt):
    out = []
    for position in range(count):
        label = f"l{position % labels}"
        out.append({
            "source": f"n{(position * 7 + salt) % vertices}",
            "target": f"n{(position * 13 + 5) % vertices}",
            "labels": [label, "l0"],
            "constraint": f"SELECT ?x WHERE {{ ?x <{label}> ?y . }}",
            "use_cache": False,
        })
    return out


def test_agreement_metrics_and_slow_log_through_updates(tmp_path):
    env = cli_env()
    main_tsv = tmp_path / "main.tsv"
    dyn_tsv = tmp_path / "dyn.tsv"
    run_cli("generate", "--random", "60", "2", "4", "--seed", "0",
            "--output", str(main_tsv), env=env)
    run_cli("generate", "--random", "40", "2", "3", "--seed", "1",
            "--output", str(dyn_tsv), env=env)

    server, base = boot_server(
        ["--graph", str(main_tsv), "--shards", "2",
         "--tenant", f"dyn={dyn_tsv}", "--allow-updates", "--slow-ms", "0"],
        env,
    )
    oracles = {
        "default": QueryService(load_tsv(main_tsv), seed=0, approx=False),
        "dyn": QueryService(load_tsv(dyn_tsv), seed=0, approx=False),
    }
    try:
        def post(path, payload):
            request = urllib.request.Request(
                f"{base}{path}", data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
                method="POST")
            with urllib.request.urlopen(request, timeout=30) as resp:
                return json.loads(resp.read())

        def get(path):
            with urllib.request.urlopen(f"{base}{path}", timeout=30) as resp:
                return resp.read().decode()

        routes = {"default": ("/query", 60, 4),
                  "dyn": ("/t/dyn/query", 40, 3)}
        tiers_seen = set()
        for round_number in range(3):
            for tenant, (path, vertices, labels) in routes.items():
                oracle = oracles[tenant]
                for spec in specs_for(vertices, labels, 12, round_number):
                    expected, _ = oracle.query(
                        spec["source"], spec["target"],
                        spec["labels"], spec["constraint"],
                        use_cache=False)
                    exact = post(path, spec)
                    assert exact["answer"] == expected.answer, (
                        tenant, spec, exact)
                    tiers_seen.add(exact.get("tier"))
            # Update the unsharded tenant, mirror it on the oracle, keep
            # querying: bounds rebuild + witness re-verification under
            # churn.
            batch = [[f"u{round_number}", "l0", f"n{round_number * 3}"],
                     [f"n{round_number}", "l1", f"u{round_number}"]]
            updated = post("/t/dyn/edges", {"edges": batch})
            assert updated["epoch"] == round_number + 1, updated
            oracles["dyn"].apply_updates([tuple(edge) for edge in batch])
        assert "exact" in tiers_seen and "short-circuit" in tiers_seen

        samples = parse_prometheus_text(get("/metrics"))
        names = {name for name, _ in samples}
        for family in (
            "repro_approx_routed_total",
            "repro_approx_short_circuit_no_total",
            "repro_approx_short_circuit_yes_total",
            "repro_approx_exact_fallthrough_total",
            "repro_approx_short_circuit_rate",
            "repro_approx_witness_entries",
            "repro_approx_bounds_components",
        ):
            assert family in names, f"missing family {family}"

        slow = json.loads(get("/debug/slow"))
        tiers_recorded = set()
        for document in slow["tenants"].values():
            for entry in document["entries"]:
                tiers_recorded.add(entry.get("tier"))
        assert {"exact", "short-circuit"} & tiers_recorded, tiers_recorded
    finally:
        server.terminate()
        server.wait(timeout=10)
        server.stdout.close()
        for oracle in oracles.values():
            oracle.close()
