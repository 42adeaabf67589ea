"""Router behavior at the execute seam: tiers, caching, epochs."""

from __future__ import annotations

import pytest

from repro.service.app import QueryService
from repro.shard import ShardedQueryService
from tests.helpers import graph_from_edges

MARK = "SELECT ?x WHERE { ?x <mark> ?y . }"


def make_graph():
    # s -> m -> t under "go" with m satisfying; u/w isolated except for
    # one edge between them, so (s, u) is label-blind unreachable and
    # (u, w) is reachable but constraint-false.
    return graph_from_edges(
        [
            ("s", "go", "m"),
            ("m", "go", "t"),
            ("m", "mark", "m"),
            ("u", "go", "w"),
        ]
    )


@pytest.fixture()
def service():
    svc = QueryService(make_graph(), seed=0)
    yield svc
    svc.close()


class TestShortCircuits:
    def test_definite_no_from_bounds(self, service):
        result, meta = service.query("t", "s", ["go"], MARK)
        assert result.answer is False
        assert result.algorithm == "bounds"
        assert meta["tier"] == "short-circuit"
        stats = service.approx.stats()
        assert stats["short_circuit_no"] == 1

    def test_definite_no_from_label_mask(self, service):
        # s has out-edges, but none labeled "mark": the O(1) degree
        # test refuses before the bounds index is even consulted.
        result, _ = service.query("s", "t", ["mark"], MARK)
        assert result.answer is False
        assert result.algorithm == "bounds"
        assert service.approx.stats()["short_circuit_no_mask"] == 1

    def test_witness_answers_repeat_true_queries(self, service):
        first, _ = service.query("s", "t", ["go"], MARK, use_cache=False)
        assert first.answer is True
        assert first.algorithm in ("UIS*", "UIS", "INS", "naive")
        second, meta = service.query("s", "t", ["go"], MARK, use_cache=False)
        assert second.answer is True
        assert second.algorithm == "witness"
        assert meta["tier"] == "short-circuit"
        assert service.approx.stats()["short_circuit_yes"] == 1

    def test_self_loop_query_never_short_circuits_no(self, service):
        # reach(s, s) is trivially true label-blind, but the LSCR
        # answer needs a cycle through a satisfying vertex — there is
        # none here, and the router must fall through, not guess.
        result, meta = service.query("s", "s", ["go"], MARK)
        assert result.answer is False
        assert result.algorithm != "bounds"

    def test_cycle_self_query_witness(self):
        graph = graph_from_edges(
            [("a", "go", "b"), ("b", "go", "a"), ("b", "mark", "b")]
        )
        svc = QueryService(graph, seed=0)
        try:
            first, _ = svc.query("a", "a", ["go"], MARK, use_cache=False)
            assert first.answer is True
            second, _ = svc.query("a", "a", ["go"], MARK, use_cache=False)
            assert second.algorithm == "witness"
        finally:
            svc.close()

    def test_forced_algorithm_bypasses_router(self, service):
        result, meta = service.query("t", "s", ["go"], MARK, algorithm="uis*")
        assert result.answer is False
        assert result.algorithm == "UIS*"
        assert "tier" not in meta

    def test_plain_service_has_no_router(self):
        svc = QueryService(make_graph(), seed=0, approx=False)
        try:
            assert svc.approx is None
            result, meta = svc.query("s", "t", ["go"], MARK)
            assert result.answer is True
            assert "tier" not in meta
        finally:
            svc.close()

    def test_sound_short_circuits_are_cached(self, service):
        service.query("t", "s", ["go"], MARK)
        _, meta = service.query("t", "s", ["go"], MARK)
        assert meta["cached"] is True


class TestUncertainBand:
    def test_uncertain_band_is_evaluated_exactly(self, service):
        # (u, w) is label-blind reachable but constraint-false: no
        # short-circuit applies, so an evaluator answers it...
        result, meta = service.query("u", "w", ["go"], MARK)
        assert result.answer is False
        assert result.algorithm in ("UIS*", "UIS", "INS", "naive")
        assert meta["tier"] == "exact"
        assert service.approx.stats()["exact_fallthrough"] == 1
        # ...and, being exact, the answer is cacheable.
        again, again_meta = service.query("u", "w", ["go"], MARK)
        assert again.answer is False
        assert again_meta["cached"] is True

    def test_mode_keyword_is_gone(self, service):
        with pytest.raises(TypeError):
            service.query("u", "w", ["go"], MARK, mode="approximate")

    @pytest.mark.parametrize(
        "option", [{"approx_default": True}, {"approx_recheck": 1.0}]
    )
    def test_guess_mode_options_are_gone(self, option):
        with pytest.raises(TypeError):
            QueryService(make_graph(), seed=0, **option)

    def test_stats_carry_no_guess_keys(self, service):
        service.query("u", "w", ["go"], MARK)
        stats = service.approx.stats()
        for key in ("default_mode", "recheck_rate", "approximate_answers",
                    "rechecks", "recheck_mismatches", "false_rate"):
            assert key not in stats


class TestEpochs:
    def test_bounds_rebuild_on_update(self, service):
        before, _ = service.query("s", "u", ["go"], MARK, use_cache=False)
        assert before.answer is False
        assert before.algorithm == "bounds"
        service.apply_updates([("t", "go", "u")])
        assert service.epoch.bounds is not None
        after, meta = service.query("s", "u", ["go"], MARK, use_cache=False)
        # The rebuilt bounds no longer exclude the pair; the exact path
        # answers True through the new edge.
        assert after.answer is True
        assert meta["epoch"] == 1

    def test_witness_invalidated_by_edge_removal(self, service):
        service.query("s", "t", ["go"], MARK, use_cache=False)
        hit, _ = service.query("s", "t", ["go"], MARK, use_cache=False)
        assert hit.algorithm == "witness"
        service.apply_updates([("s", "go", "m", "remove")])
        after, _ = service.query("s", "t", ["go"], MARK, use_cache=False)
        assert after.answer is False
        assert service.approx.witnesses.stats()["invalidations"] == 1

    def test_witness_survives_unrelated_update(self, service):
        service.query("s", "t", ["go"], MARK, use_cache=False)
        service.apply_updates([("u", "go", "s")])
        hit, meta = service.query("s", "t", ["go"], MARK, use_cache=False)
        # New epoch (result cache namespace rotated), same witness: the
        # path re-verified against the updated graph and kept serving.
        assert hit.algorithm == "witness"
        assert meta["epoch"] == 1


class TestSharded:
    def test_short_circuit_before_scatter(self):
        graph = make_graph()
        svc = ShardedQueryService(graph, seed=0, shards=2)
        try:
            result, meta = svc.query("t", "s", ["go"], MARK)
            assert result.answer is False
            assert result.algorithm == "bounds"
            assert meta["tier"] == "short-circuit"
            # The coordinator never saw the query: no scatter happened.
            assert svc.coordinator.stats()["queries"] == 0
            # Uncertain-band queries still scatter.
            exact, exact_meta = svc.query("s", "t", ["go"], MARK)
            assert exact.answer is True
            assert exact.algorithm == "sharded"
            assert exact_meta["tier"] == "exact"
            assert svc.coordinator.stats()["queries"] == 1
        finally:
            svc.close()

    def test_stats_section_present(self):
        svc = ShardedQueryService(make_graph(), seed=0, shards=2)
        try:
            document = svc.stats_snapshot()
            assert document["approx"]["enabled"] is True
            assert document["approx"]["bounds"]["mode"] == "closure"
            assert document["config"]["approx"] is True
        finally:
            svc.close()
