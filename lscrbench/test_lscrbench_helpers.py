"""Tests for the benchmark's own helpers (run with the repository's pytest)."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
from layers import SpanSet  # noqa: E402
from measure import (  # noqa: E402
    beyond,
    due_latencies,
    lateness,
    percentile,
    self_time,
    tail_percentile,
)
from spans import Recorder  # noqa: E402


# --- percentile selection under the >=10-beyond rule -------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_beyond_counts_samples_past_the_rank():
    assert beyond(1000, 99) == 10
    assert beyond(999, 99) == 9
    assert beyond(100, 90) == 10
    assert beyond(99, 90) == 9


@pytest.mark.parametrize(
    "n, expected",
    [
        (1000, 99.0),  # exactly 10 beyond p99
        (999, 90.0),  # 9 beyond p99, so fall back
        (100, 90.0),
        (99, 80.0),
        (50, 80.0),
        (49, None),
        (0, None),
    ],
)
def test_tail_percentile_picks_highest_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_respects_custom_candidates():
    assert tail_percentile(1000, candidates=(99.9, 99.0)) == 99.0
    assert tail_percentile(20_000, candidates=(99.9, 99.0)) == 99.9


# --- span self time ------------------------------------------------------


def test_self_time_without_children_is_duration():
    assert self_time(1.0, 3.0, []) == pytest.approx(2.0)


def test_self_time_subtracts_disjoint_children():
    assert self_time(0.0, 10.0, [(1.0, 2.0), (5.0, 8.0)]) == pytest.approx(6.0)


def test_self_time_counts_overlapping_children_once():
    # Pool-thread members overlap: [1,4] and [2,6] cover [1,6].
    assert self_time(0.0, 10.0, [(2.0, 6.0), (1.0, 4.0)]) == pytest.approx(5.0)
    # A child nested inside another adds nothing.
    assert self_time(0.0, 10.0, [(1.0, 6.0), (2.0, 3.0)]) == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent():
    assert self_time(2.0, 4.0, [(0.0, 3.0), (3.5, 9.0)]) == pytest.approx(0.5)
    assert self_time(2.0, 4.0, [(5.0, 6.0)]) == pytest.approx(2.0)


def test_spanset_self_ms_uses_recorded_children():
    spans = SpanSet(
        [[
            [1, None, "app.batch", 0.0, 0.010, None],
            [2, 1, "executor.map", 0.001, 0.009, 2],
            [3, 2, "executor.member", 0.002, 0.006, None],
            [4, 2, "executor.member", 0.004, 0.008, None],
        ]]
    )
    batch = spans.named("app.batch")[0]
    assert spans.self_ms(batch) == pytest.approx(2.0)
    mapped = spans.named("executor.map")[0]
    assert spans.self_ms(mapped) == pytest.approx(2.0)
    member = spans.named("executor.member")[0]
    assert spans.ancestor(member, ("app.batch",)) is batch


def test_spanset_named_drops_nested_same_name_and_filters_windows():
    spans = SpanSet(
        [[
            [1, None, "index.repair", 1.0, 2.0, None],
            [2, 1, "index.repair", 1.1, 1.5, None],
            [3, None, "index.repair", 5.0, 6.0, None],
        ]]
    )
    assert [s.key for s in spans.named("index.repair")] == [(0, 1), (0, 3)]
    assert [s.key for s in spans.named("index.repair", [(0.0, 3.0)])] == [(0, 1)]


def test_recorder_parents_nested_calls():
    recorder = Recorder()

    def inner():
        return recorder.current()

    def outer():
        return recorder.call("inner", inner, (), {})

    seen_inside = recorder.call("outer", outer, (), {})
    by_name = {span[2]: span for span in recorder.spans}
    assert seen_inside == by_name["inner"][0]
    assert by_name["inner"][1] == by_name["outer"][0]
    assert by_name["outer"][1] is None
    assert recorder.current() is None


# --- due-time latency for the open loop ---------------------------------


def test_due_latency_charges_waiting_behind_a_stall():
    # Requests due every 100 ms; the second one stalls for 250 ms, so
    # the third is sent late and its latency counts from its due time.
    due = [0.0, 0.1, 0.2]
    sent = [0.0, 0.1, 0.35]
    done = [0.01, 0.35, 0.36]
    assert due_latencies(due, done) == pytest.approx([0.01, 0.25, 0.16])
    assert lateness(due, sent) == pytest.approx([0.0, 0.0, 0.15])


def test_lateness_never_negative_and_pairs_must_match():
    assert lateness([1.0], [0.9]) == [0.0]
    with pytest.raises(ValueError):
        due_latencies([0.0, 1.0], [0.5])


# --- inputs ----------------------------------------------------------------


def _pool():
    return [
        {"group": f"S{g}", "expected": e, "source": f"s{g}{e}{i}", "target": "t",
         "labels": ["a"], "constraint": "c"}
        for g in range(1, 6) for e in (True, False) for i in range(4)
    ]


def test_stream_is_a_seeded_stratified_permutation():
    pool = _pool()
    order = inputs.stream(pool, 3)
    assert order == inputs.stream(pool, 3)
    assert order != inputs.stream(pool, 4)
    assert sorted(map(id, order)) == sorted(map(id, pool))
    first_round = {(item["group"], item["expected"]) for item in order[:10]}
    assert len(first_round) == 10


def test_edge_batches_never_remove_base_edges():
    base = {("a", "l", "b")}
    batches = inputs.edge_batches(["l", "m"], list("abcdefgh"), base, seed=1, size=5)
    present: set = set()
    for _ in range(30):
        for source, label, target, op in next(batches):
            edge = (source, label, target)
            assert edge not in base
            if op == "add":
                assert edge not in present
                present.add(edge)
            else:
                present.remove(edge)


def test_zipf_prefers_low_ranks():
    zipf = inputs.Zipf(8, 1.1, random.Random(0))
    draws = [zipf.draw() for _ in range(4000)]
    assert draws.count(0) > draws.count(1) > draws.count(7)
    assert set(draws) <= set(range(8))
