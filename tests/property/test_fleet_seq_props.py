"""Property test for the fleet aggregator's cumulative-metric seq guard.

A long-lived source re-sends its current totals under an increasing
``seq``; the network may reorder and replay those batches.  Whatever
order arrives, the folded state must be the one in-order delivery
produces — only the delivery tallies (batches, records, stale batches)
may differ.
"""

import json

from hypothesis import given
from hypothesis import strategies as st

from repro.obs.aggregator import FleetAggregator

#: (type, name, labels) keys a source's batches draw from.
KEYS = [
    ("counter", "ftsh_try_attempts_total", {}),
    ("counter", "grid_buffer_collisions_total", {"host": "a"}),
    ("counter", "dist_worker_busy_seconds_total", {}),
    ("counter", "dist_worker_elapsed_seconds_total", {}),
    ("gauge", "dist_worker_batch_size", {}),
    ("hist", "ftsh_backoff_seconds", {}),
]

#: Per batch: which keys it carries and by how much each grew.
growth = st.lists(
    st.lists(st.tuples(st.integers(0, len(KEYS) - 1), st.integers(0, 50)),
             max_size=len(KEYS)),
    min_size=1, max_size=6)


def cumulative_batches(steps):
    """One body per seq, each carrying running totals of its keys."""
    totals = [0] * len(KEYS)
    bodies = []
    for seq, step in enumerate(steps, start=1):
        rows = [{"type": "hello", "source": "worker/w0", "seq": seq,
                 "labels": {"discipline": ("aloha", "ethernet")[seq % 2]}}]
        for index, grown in step:
            totals[index] += grown
            kind, name, labels = KEYS[index]
            row = {"type": kind, "name": name, "labels": labels}
            if kind == "hist":
                row.update(buckets=[[1.0, totals[index]]],
                           sum=totals[index] * 0.5, count=totals[index])
            else:
                row["value"] = totals[index]
            rows.append(row)
        bodies.append("".join(json.dumps(r) + "\n" for r in rows).encode())
    return bodies


def folded(bodies):
    agg = FleetAggregator(clock=lambda: 0.0)
    for body in bodies:
        assert agg.ingest(body)["malformed"] == 0
    snap = agg.snapshot()
    for tally in ("batches", "records", "stale_batches"):
        del snap["totals"][tally]
    for source in snap["sources"].values():
        del source["batches"]
    return snap


@given(steps=growth, data=st.data())
def test_any_order_with_replays_folds_like_in_order(steps, data):
    bodies = cumulative_batches(steps)
    order = list(range(len(bodies)))
    replays = data.draw(st.lists(st.sampled_from(order), max_size=6))
    delivered = data.draw(st.permutations(order + replays))
    assert folded([bodies[i] for i in delivered]) == folded(bodies)
