"""The ledger's arithmetic, pinned rule by rule."""

import pytest

import rules
from repro.obs.spans import Tracer


def test_highest_percentile_leaves_ten_samples_beyond():
    # 240 fresh ops: p95 leaves 12 beyond; 201 is the fewest that still
    # supports p95; one fewer sample and it drops to p94.
    assert rules.highest_percentile(240) == 95
    assert rules.highest_percentile(201) == 95
    assert rules.highest_percentile(200) == 95
    assert rules.highest_percentile(199) == 94
    assert rules.highest_percentile(1000) == 99
    assert rules.highest_percentile(30) == 66


def test_small_samples_fall_back_to_the_median():
    assert rules.highest_percentile(19) == 50
    assert rules.highest_percentile(1) == 50
    with pytest.raises(ValueError):
        rules.highest_percentile(0)


def test_tail_percentile_demotes_when_the_sample_is_short():
    samples = list(range(1, 101))
    assert rules.tail_percentile(samples, 95) == (90, 90)
    assert rules.tail_percentile(list(range(1, 401)), 95) == (95, 380)


def test_percentile_is_nearest_rank():
    assert rules.percentile([5, 1, 3], 50) == 3
    assert rules.percentile([1, 2, 3, 4], 50) == 2
    assert rules.percentile([1, 2, 3, 4], 100) == 4
    with pytest.raises(ValueError):
        rules.percentile([], 50)


def test_worsening_in_both_directions():
    assert rules.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert rules.worsening(100.0, 90.0, "lower") == pytest.approx(-0.10)
    assert rules.worsening(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert rules.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    with pytest.raises(ValueError):
        rules.worsening(1.0, 1.0, "sideways")


def test_within_bound_in_both_directions():
    assert rules.within_bound(10.0, 10.9, "lower", 0.10)
    assert not rules.within_bound(10.0, 11.1, "lower", 0.10)
    assert rules.within_bound(10.0, 9.1, "higher", 0.10)
    assert not rules.within_bound(10.0, 8.9, "higher", 0.10)
    # An improvement is never a regression, however large.
    assert rules.within_bound(10.0, 1.0, "lower", 0.0)
    assert rules.within_bound(10.0, 100.0, "higher", 0.0)


def _tracer_with_clock():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def at(value):
        now[0] = value

    return tracer, at


def test_self_time_subtracts_direct_children_only():
    tracer, at = _tracer_with_clock()
    root = tracer.start("root", "k")
    at(1.0)
    child = tracer.start("child", "k", parent=root)
    at(2.0)
    grandchild = tracer.start("grandchild", "k", parent=child)
    at(3.0)
    tracer.finish(grandchild)
    at(4.0)
    tracer.finish(child)
    at(10.0)
    tracer.finish(root)
    own = rules.self_times(tracer.spans)
    assert own[root.span_id] == pytest.approx(7.0)      # 10 - child's 3
    assert own[child.span_id] == pytest.approx(2.0)     # 3 - grandchild's 1
    assert own[grandchild.span_id] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    tracer, at = _tracer_with_clock()
    root = tracer.start("root", "k")
    first = tracer.start("first", "k", parent=root)
    at(2.0)
    second = tracer.start("second", "k", parent=root)
    at(4.0)
    tracer.finish(first)
    at(6.0)
    tracer.finish(second)
    at(8.0)
    tracer.finish(root)
    # Children cover [0, 6] between them; the root owns the last 2.
    assert rules.self_times(tracer.spans)[root.span_id] == pytest.approx(2.0)


def test_open_spans_have_no_self_time():
    tracer, at = _tracer_with_clock()
    root = tracer.start("root", "k")
    at(1.0)
    assert rules.self_times(tracer.spans) == {}
    tracer.finish(root)
    assert rules.self_times(tracer.spans) == {root.span_id: 1.0}
