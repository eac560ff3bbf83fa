"""Properties of the one JSON codec, over every door's declared type.

* Round trip: any value a door's dataclass can hold survives
  ``encode`` -> JSON text -> ``decode`` unchanged.
* Outside input: arbitrary JSON posted to the service and the
  coordinator is answered 2xx or 4xx, never 500; fed to the fleet
  aggregator it never raises, and the fleet snapshot after it is a 200
  in strict JSON.

The value strategies are derived from the same annotations and bounds
the codec reads, so a new door type only has to be listed in
``DOOR_TYPES``.
"""

import dataclasses
import json
import typing
from typing import Any

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dist.coordinator import (
    Ack,
    AckBatch,
    ClaimRequest,
    CoordinatorApp,
    Heartbeat,
    Nack,
    NackBatch,
)
from repro.dist.queue import TaskQueue
from repro.obs.aggregator import (
    RECORDS,
    FleetAggregator,
    Hello,
    HistSample,
    Sample,
)
from repro.service.app import ServiceApp
from repro.service.codec import NON_EMPTY, POSITIVE, decode, encode
from repro.service.jobs import JobStore
from repro.service.schemas import (
    CampaignSubmission,
    JobEvent,
    JobResult,
    JobStatus,
    ScriptSubmission,
)

DOOR_TYPES = [
    ScriptSubmission, CampaignSubmission, JobStatus, JobResult, JobEvent,
    ClaimRequest, Heartbeat, Ack, AckBatch, Nack, NackBatch,
    Hello, Sample, HistSample,
]

#: Any JSON document, non-finite floats included (the doors refuse them).
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12)

#: What ``Any`` holds on the way out: JSON that round-trips exactly.
finite_json = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(), inner, max_size=3)),
    max_leaves=8)


def _optional_inner(hint):
    args = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    if typing.get_origin(hint) is typing.Union and len(args) == 1:
        return args[0]
    return None


def values(hint, bounds=None):
    """A strategy for what a field of type ``hint`` may hold."""
    bounds = bounds or {}
    inner = _optional_inner(hint)
    if inner is not None:
        return st.none() | values(inner, bounds)
    bound = bounds.get("bound")
    positive = bound == POSITIVE["bound"]
    non_empty = bound == NON_EMPTY["bound"] or "empty_is_default" in bounds
    if hint is str:
        return st.text(min_size=1 if non_empty else 0)
    if hint is int:
        return st.integers()
    if hint is float:
        return st.floats(min_value=0.0 if positive else None,
                         exclude_min=positive,
                         allow_nan=False, allow_infinity=False)
    if hint is bool:
        return st.booleans()
    if hint is Any:
        return finite_json
    if dataclasses.is_dataclass(hint):
        return instances(hint)
    args = typing.get_args(hint)
    if len(args) == 2 and args[1] is Ellipsis:
        item = args[0]
        if (typing.get_origin(item) is tuple
                and typing.get_args(item)[0] is str):
            return st.dictionaries(
                st.text(), values(typing.get_args(item)[1]), max_size=3,
                min_size=1 if non_empty else 0,
            ).map(lambda mapping: tuple(sorted(mapping.items())))
        return st.lists(values(item), max_size=3,
                        min_size=1 if non_empty else 0).map(tuple)
    return st.tuples(*(values(arg) for arg in args))


def instances(cls):
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{
        spec.name: values(hints[spec.name], spec.metadata)
        for spec in dataclasses.fields(cls)})


@pytest.mark.parametrize("cls", DOOR_TYPES, ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_decode_inverts_encode_through_json_text(cls, data):
    value = data.draw(instances(cls))
    text = json.dumps(encode(value), allow_nan=False)
    assert decode(cls, json.loads(text)) == value


# ---------------------------------------------------------------------------
# outside input
# ---------------------------------------------------------------------------

SERVICE_ROUTES = {"/scripts": ScriptSubmission,
                  "/campaigns": CampaignSubmission}
COORDINATOR_ROUTES = {"/queue/claim": ClaimRequest,
                      "/queue/ack_many": AckBatch,
                      "/queue/nack_many": NackBatch,
                      "/queue/heartbeat": Heartbeat}
RECORD_TYPES = {"hello": Hello, **RECORDS}


def outside(cls):
    """Arbitrary JSON, and — so that every field's check is reached —
    a good ``cls`` document with one field replaced by arbitrary JSON."""
    names = st.sampled_from([spec.name for spec in dataclasses.fields(cls)])
    return json_values | st.builds(
        lambda doc, name, junk: {**doc, name: junk},
        instances(cls).map(encode), names, json_values)


def routed(routes):
    return st.sampled_from(sorted(routes)).flatmap(
        lambda path: st.tuples(st.just(path), outside(routes[path])))


@pytest.fixture(scope="module")
def service():
    with JobStore(workers=1) as store:
        yield ServiceApp(store)


@pytest.fixture(scope="module")
def coordinator():
    queue = TaskQueue()
    for index in range(4):
        queue.submit({}, key=str(index))
    return CoordinatorApp(queue)


@given(request=routed(SERVICE_ROUTES))
def test_service_answers_outside_json_with_2xx_or_4xx(service, request):
    path, body = request
    status, _, payload = service.handle(
        "POST", path, json.dumps(body).encode())
    assert 200 <= status < 500, payload


@given(request=routed(COORDINATOR_ROUTES))
def test_coordinator_answers_outside_json_with_2xx_or_4xx(coordinator,
                                                          request):
    path, body = request
    status, _, payload = coordinator.handle(
        "POST", path, json.dumps(body).encode())
    assert 200 <= status < 500, payload


records = st.sampled_from(sorted(RECORD_TYPES)).flatmap(
    lambda kind: outside(RECORD_TYPES[kind]).map(
        lambda row: {**row, "type": kind} if isinstance(row, dict) else row))


def _refuse(token):
    raise ValueError(f"not strict JSON: {token}")


@given(batches=st.lists(st.lists(records, max_size=6), min_size=1,
                        max_size=3))
def test_ingest_never_raises_and_counts_every_line(batches):
    """Any batches, each counted line by line; after them the fleet
    snapshot is a 200 whose body a strict parser reads."""
    agg = FleetAggregator(clock=lambda: 0.0)
    for index, rows in enumerate(batches):
        lines = [json.dumps(row) for row in rows]
        hello = json.dumps({"type": "hello", "source": f"s{index % 2}",
                            "seq": index})
        summary = agg.ingest("\n".join([hello, *lines]).encode())
        assert summary["accepted"] + summary["malformed"] == len(lines) + 1
    status, _, payload = agg.handle("GET", "/obs/fleet")
    assert status == 200, payload
    json.loads(payload, parse_constant=_refuse)
