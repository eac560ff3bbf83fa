"""Resource semantics."""

import pytest

from repro.core.errors import SimulationError
from repro.sim import Engine, Resource


@pytest.fixture
def engine():
    return Engine()


class TestResource:
    def test_grant_within_capacity(self, engine):
        resource = Resource(engine, capacity=2)
        first, second = resource.request(), resource.request()
        assert first.triggered and second.triggered
        third = resource.request()
        assert not third.triggered

    def test_fifo_grants(self, engine):
        resource = Resource(engine, capacity=1)
        order = []

        def user(tag, hold):
            request = resource.request()
            yield request
            order.append((tag, engine.now))
            yield engine.timeout(hold)
            resource.release(request)

        for tag in range(3):
            engine.process(user(tag, 2.0))
        engine.run()
        assert order == [(0, 0.0), (1, 2.0), (2, 4.0)]

    def test_release_queued_request_cancels(self, engine):
        resource = Resource(engine, capacity=1)
        held = resource.request()
        queued = resource.request()
        resource.release(queued)  # walk away while still waiting
        assert len(resource.queue) == 0
        resource.release(held)
        assert resource.count == 0

    def test_release_unknown_rejected(self, engine):
        resource = Resource(engine, capacity=1)
        other = Resource(engine, capacity=1)
        request = other.request()
        with pytest.raises(SimulationError):
            resource.release(request)

    def test_cancel_is_noop_for_granted(self, engine):
        resource = Resource(engine, capacity=1)
        request = resource.request()
        resource.cancel(request)
        assert resource.count == 1

    def test_capacity_validation(self, engine):
        with pytest.raises(SimulationError):
            Resource(engine, capacity=0)
