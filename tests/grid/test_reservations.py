"""Reservation-based space allocation (the paper's §5 alternative)."""

import pytest

from repro.clients.base import ALOHA
from repro.core.backoff import BackoffPolicy
from repro.experiments.scenario_buffer import BufferParams, run_buffer
from repro.grid.storage import BufferConfig, BufferWorld, SharedBuffer, register_buffer_commands
from repro.sim import Engine
from repro.simruntime import CommandRegistry, SimFtsh

DETERMINISTIC = BackoffPolicy(jitter_low=1.0, jitter_high=1.0)


class TestSharedBufferReservations:
    def make(self, capacity=10.0):
        return SharedBuffer(Engine(), BufferConfig(capacity_mb=capacity))

    def test_reserve_counts_as_used(self):
        buffer = self.make()
        assert buffer.reserve_space("c1", 4.0)
        assert buffer.used_mb == 4.0
        assert sum(buffer.reservations.values()) == 4.0

    def test_reserve_denied_when_full(self):
        buffer = self.make(capacity=5.0)
        assert buffer.reserve_space("c1", 4.0)
        assert not buffer.reserve_space("c2", 2.0)
        assert buffer.reservations_denied.count == 1

    def test_reserved_space_protected_from_plain_writers(self):
        buffer = self.make(capacity=5.0)
        buffer.reserve_space("c1", 4.0)
        entry = buffer.create(goal_mb=3.0)
        assert buffer.grow(entry, 1.0)       # the last free MB
        assert not buffer.grow(entry, 0.5)   # cannot eat the reservation

    def test_write_reserved_moves_without_changing_used(self):
        buffer = self.make()
        buffer.reserve_space("c1", 3.0)
        entry = buffer.create(goal_mb=3.0)
        assert buffer.write_reserved("c1", entry, 3.0)
        assert buffer.used_mb == 3.0
        assert sum(buffer.reservations.values()) == 0.0
        assert entry.size_mb == 3.0

    def test_write_reserved_rejects_overdraw(self):
        buffer = self.make()
        buffer.reserve_space("c1", 1.0)
        entry = buffer.create(goal_mb=2.0)
        assert not buffer.write_reserved("c1", entry, 2.0)

    def test_release_returns_unwritten(self):
        buffer = self.make()
        buffer.reserve_space("c1", 4.0)
        entry = buffer.create(goal_mb=4.0)
        buffer.write_reserved("c1", entry, 1.0)
        buffer.release_reservation("c1")
        assert buffer.used_mb == pytest.approx(1.0)  # only the written MB

    def test_delete_after_abort_is_consistent(self):
        buffer = self.make()
        buffer.reserve_space("c1", 4.0)
        entry = buffer.create(goal_mb=4.0)
        buffer.write_reserved("c1", entry, 2.0)
        buffer.delete(entry, collided=True)
        buffer.release_reservation("c1")
        assert buffer.used_mb == 0.0


class TestReservationCommands:
    def make_shell(self, **cfg):
        engine = Engine()
        world = BufferWorld(engine, BufferConfig(**cfg))
        registry = CommandRegistry()
        register_buffer_commands(registry, world)
        shell = SimFtsh(engine, registry, world=world,
                        policy=DETERMINISTIC, name="p0")
        return engine, world, shell

    def test_reserve_then_store(self):
        engine, world, shell = self.make_shell()
        result = shell.run(
            "produce_output 0.5\nreserve_output\nstore_reserved"
        )
        assert result.success
        assert world.buffer.collisions.count == 0
        assert len(world.buffer.complete_sizes()) == 1
        assert sum(world.buffer.reservations.values()) == pytest.approx(0.0)

    def test_store_reserved_without_reservation_fails(self):
        engine, world, shell = self.make_shell()
        result = shell.run("produce_output 0.5\nstore_reserved")
        assert not result.success

    def test_reserve_denied_when_no_room(self):
        engine, world, shell = self.make_shell(capacity_mb=1.0)
        filler = world.buffer.create(goal_mb=1.0)
        world.buffer.grow(filler, 1.0)
        result = shell.run(
            "produce_output 0.5\ntry 1 times\n  reserve_output\nend"
        )
        assert not result.success
        assert world.buffer.reservations_denied.count == 1

    def test_alloc_server_serializes(self):
        engine, world, shell0 = self.make_shell(alloc_rpc_time=1.0)
        registry = shell0.driver.registry
        shells = [shell0] + [
            SimFtsh(engine, registry, world=world, policy=DETERMINISTIC,
                    name=f"p{i}")
            for i in range(1, 4)
        ]
        procs = [
            s.spawn("produce_output 0.25\nreserve_output\nstore_reserved")
            for s in shells
        ]
        engine.run(until=engine.all_of(procs))
        assert all(p.value.success for p in procs)
        # four RPCs at 1 s each through a single server: >= 3s of queueing
        assert world.alloc_wait_total >= 3.0


class TestScenarioAblation:
    def test_reservations_eliminate_collisions(self):
        result = run_buffer(
            BufferParams(discipline=ALOHA, n_producers=30, duration=45.0,
                         reserved=True)
        )
        assert result.collisions == 0
        assert result.files_consumed > 0
        assert result.alloc_wait_total > 0

    def test_slow_allocator_throttles_throughput(self):
        fast = run_buffer(
            BufferParams(discipline=ALOHA, n_producers=30, duration=45.0,
                         reserved=True,
                         buffer=BufferConfig(alloc_rpc_time=0.25))
        )
        slow = run_buffer(
            BufferParams(discipline=ALOHA, n_producers=30, duration=45.0,
                         reserved=True,
                         buffer=BufferConfig(alloc_rpc_time=3.0))
        )
        assert slow.files_consumed < 0.6 * fast.files_consumed
