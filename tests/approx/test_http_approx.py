"""HTTP surface of the approx tier: tiers, /stats, /metrics, /debug/slow."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs.prometheus import parse_prometheus_text
from repro.service.app import QueryService
from repro.service.http import create_server
from tests.helpers import graph_from_edges

MARK = "SELECT ?x WHERE { ?x <mark> ?y . }"
TRUE_SPEC = {
    "source": "s", "target": "t", "labels": ["go"], "constraint": MARK,
}
NO_SPEC = {
    "source": "t", "target": "s", "labels": ["go"], "constraint": MARK,
}
# Label-blind reachable but constraint-false: the router is uncertain and
# the exact evaluators answer False.
UNCERTAIN_SPEC = {
    "source": "u", "target": "w", "labels": ["go"], "constraint": MARK,
}


def make_service():
    graph = graph_from_edges(
        [
            ("s", "go", "m"),
            ("m", "go", "t"),
            ("m", "mark", "m"),
            ("u", "go", "w"),
        ]
    )
    return QueryService(graph, seed=0, slow_ms=0.0)


@pytest.fixture()
def base_url():
    server = create_server(make_service(), "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


def post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def get_json(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def get_text(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode()


class TestModeParam:
    def test_exact_mode_is_default(self, base_url):
        status, body = post(f"{base_url}/query", UNCERTAIN_SPEC)
        assert status == 200
        assert body["answer"] is False
        assert body["tier"] == "exact"

    def test_mode_param_is_ignored(self, base_url):
        # ?mode= is an unknown query key like any other: exact answers.
        status, body = post(
            f"{base_url}/query?mode=approximate", UNCERTAIN_SPEC
        )
        assert status == 200
        assert body["answer"] is False
        assert body["tier"] == "exact"
        status, body = post(
            f"{base_url}/batch?mode=approximate",
            {"queries": [UNCERTAIN_SPEC, NO_SPEC], "use_cache": False},
        )
        assert status == 200
        tiers = [item["tier"] for item in body["results"]]
        assert tiers == ["exact", "short-circuit"]


class TestStatsAndMetrics:
    def test_stats_approx_section(self, base_url):
        post(f"{base_url}/query", NO_SPEC)
        post(f"{base_url}/query", UNCERTAIN_SPEC)
        status, document = get_json(f"{base_url}/stats")
        assert status == 200
        approx = document["approx"]
        assert approx["enabled"] is True
        assert approx["short_circuit_no"] >= 1
        assert approx["bounds"]["mode"] == "closure"
        assert document["config"]["approx"] is True

    def test_stats_omit_guess_mode_keys(self, base_url):
        post(f"{base_url}/query", UNCERTAIN_SPEC)
        status, document = get_json(f"{base_url}/stats")
        assert status == 200
        for key in ("default_mode", "recheck_rate", "approximate_answers",
                    "rechecks", "recheck_mismatches", "false_rate"):
            assert key not in document["approx"]
        assert "approx_default" not in document["config"]
        assert document["approx"]["exact_fallthrough"] >= 1

    def test_metrics_families_strict_parse(self, base_url):
        post(f"{base_url}/query", NO_SPEC)
        post(f"{base_url}/query", TRUE_SPEC)
        post(f"{base_url}/query", UNCERTAIN_SPEC)
        status, text = get_text(f"{base_url}/metrics")
        assert status == 200
        # Strict parse: any malformed line or TYPE header raises.
        samples = parse_prometheus_text(text)
        names = {name for name, _labels in samples}
        for name in (
            "repro_approx_routed_total",
            "repro_approx_short_circuit_no_total",
            "repro_approx_short_circuit_yes_total",
            "repro_approx_exact_fallthrough_total",
            "repro_approx_short_circuit_rate",
            "repro_approx_witness_entries",
            "repro_approx_bounds_components",
        ):
            assert name in names, f"missing family {name}"
        for name in (
            "repro_approx_answers_total",
            "repro_approx_rechecks_total",
            "repro_approx_recheck_mismatches_total",
            "repro_approx_false_rate",
        ):
            assert name not in names, f"deleted family {name} exported"
        routed = sum(
            value for (name, _labels), value in samples.items()
            if name == "repro_approx_routed_total"
        )
        assert routed >= 3

    def test_flight_recorder_records_tier(self, base_url):
        post(f"{base_url}/query", NO_SPEC)
        post(f"{base_url}/query", TRUE_SPEC)
        post(f"{base_url}/query", UNCERTAIN_SPEC)
        status, document = get_json(f"{base_url}/debug/slow")
        assert status == 200
        entries = document["tenants"]["default"]["entries"]
        tiers = {entry["tier"] for entry in entries}
        # slow_ms=0 records everything: both tiers show up.
        assert {"short-circuit", "exact"} <= tiers


class TestTenantOptions:
    def test_register_tenant_with_approx_options(self, base_url, tmp_path):
        graph_file = tmp_path / "dyn.tsv"
        graph_file.write_text("a\tgo\tb\n")
        status, _ = post(
            f"{base_url}/tenants",
            {
                "name": "dyn",
                "graph": str(graph_file),
                "approx": True,
            },
        )
        assert status == 201
        status, body = post(
            f"{base_url}/t/dyn/query",
            {"source": "a", "target": "b", "labels": ["go"],
             "constraint": "SELECT ?x WHERE { ?x <go> ?y . }"},
        )
        assert status == 200
        assert body["answer"] is True
        assert body["tier"] == "exact"
