"""50-seed randomized properties of the approx tier.

Three claims, each against an independent oracle:

* **agreement** — an approx-enabled service answers every query
  bit-identically to the naive oracle *and* to a twin service built
  with ``approx=False`` (short-circuits are sound, never lossy);
* **witness validity** — every witness path the tier caches verifies
  under :func:`repro.core.witness.verify_witness` on the current graph;
* **honest accounting** — the routing counters in ``/stats`` equal an
  exact recount of the tier each answer was stamped with, and every
  short-circuit answer agrees with the naive oracle.
"""

from __future__ import annotations

import random

import pytest

from repro.constraints.label_constraint import LabelConstraint
from repro.constraints.substructure import SubstructureConstraint
from repro.core.query import LSCRQuery
from repro.core.witness import verify_witness
from repro.service.app import QueryService

from tests.service.test_agreement_service import (
    make_graph,
    naive_answer,
    random_specs,
)

SEEDS = list(range(50))


class TestExactModeAgreement:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical_to_oracle_and_plain_service(self, seed):
        graph = make_graph(seed)
        routed = QueryService(graph, seed=seed)
        plain = QueryService(graph, seed=seed, approx=False)
        rng = random.Random(seed * 6151 + 11)
        parsed = {}
        try:
            # use_cache=False so repeats exercise the witness tier, not
            # the result cache — every answer is the router's own.
            for source, target, labels, text in random_specs(rng, 3, 9):
                expected = naive_answer(graph, source, target, labels,
                                        text, parsed)
                for _ in range(2):
                    mine, meta = routed.query(
                        source, target, labels, text, use_cache=False
                    )
                    twin, _ = plain.query(
                        source, target, labels, text, use_cache=False
                    )
                    assert mine.answer == expected == twin.answer, (
                        f"seed={seed} {source}->{target} L={labels} "
                        f"S={text!r}: routed={mine.answer} "
                        f"({mine.algorithm}) naive={expected} "
                        f"({meta['reason']})"
                    )
        finally:
            routed.close()
            plain.close()


class TestWitnessValidity:
    @pytest.mark.parametrize("seed", SEEDS[::2])
    def test_every_cached_witness_verifies(self, seed):
        graph = make_graph(seed)
        service = QueryService(graph, seed=seed)
        rng = random.Random(seed * 13007 + 5)
        try:
            evaluated_true = 0
            for source, target, labels, text in random_specs(
                rng, 3, 9, count=12
            ):
                result, meta = service.query(
                    source, target, labels, text, use_cache=False
                )
                # Trivial answers (and short-circuits) never reach the
                # witness extractor; only evaluated True answers do.
                if (result.answer and not meta["trivial"]
                        and meta.get("tier") == "exact"):
                    evaluated_true += 1
            cache = service.approx.witnesses
            assert len(cache) > 0 or evaluated_true == 0, (
                f"seed={seed}: no witness cached despite "
                f"{evaluated_true} evaluated true answers"
            )
            for key, witness in list(cache._entries.items()):
                source, target, labels, text = key
                query = LSCRQuery(
                    source=source,
                    target=target,
                    labels=LabelConstraint(list(labels)),
                    constraint=SubstructureConstraint.from_sparql(text),
                )
                assert verify_witness(service.graph, query, witness), (
                    f"seed={seed}: cached witness for {key} fails "
                    f"verification: {witness}"
                )
        finally:
            service.close()


class TestRoutingAccounting:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_counters_match_exact_recount(self, seed):
        graph = make_graph(seed)
        service = QueryService(graph, seed=seed)
        rng = random.Random(seed * 21911 + 3)
        parsed = {}
        recount = {"routed": 0, "no": 0, "yes": 0, "exact": 0}
        try:
            for source, target, labels, text in random_specs(
                rng, 3, 9, count=10
            ):
                expected = naive_answer(graph, source, target, labels,
                                        text, parsed)
                # Twice each: the repeat of an evaluated True is the
                # witness tier's chance to answer.
                for _ in range(2):
                    result, meta = service.query(
                        source, target, labels, text, use_cache=False
                    )
                    tier = meta.get("tier")
                    if tier is None:
                        # Trivial answers never reach the router.
                        assert meta["trivial"], (
                            f"seed={seed}: untiered non-trivial answer"
                        )
                        continue
                    recount["routed"] += 1
                    if tier == "exact":
                        recount["exact"] += 1
                        continue
                    assert tier == "short-circuit"
                    assert result.answer == expected, (
                        f"seed={seed} {source}->{target} L={labels} "
                        f"S={text!r}: {result.algorithm} short-circuit "
                        f"answered {result.answer} != oracle {expected}"
                    )
                    if result.answer:
                        assert result.algorithm == "witness"
                        recount["yes"] += 1
                    else:
                        assert result.algorithm == "bounds"
                        recount["no"] += 1
            stats = service.approx.stats()
            assert stats["routed"] == recount["routed"]
            assert stats["short_circuit_no"] == recount["no"]
            assert stats["short_circuit_no"] == (
                stats["short_circuit_no_mask"]
                + stats["short_circuit_no_bounds"]
            )
            assert stats["short_circuit_yes"] == recount["yes"]
            assert stats["exact_fallthrough"] == recount["exact"]
            if recount["routed"]:
                assert stats["short_circuit_rate"] == pytest.approx(
                    (recount["no"] + recount["yes"]) / recount["routed"]
                )
        finally:
            service.close()
