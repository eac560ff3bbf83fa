"""Injectors against the real substrates, plus install_faults resolution."""

import pytest

from repro.core.errors import SimulationError
from repro.faults.injectors import TARGETS, FaultSpec, Injector, install_faults
from repro.faults.schedule import Burst, Periodic
from repro.grid.archive import WanConfig, WanLink
from repro.grid.condor import CondorConfig, CondorWorld
from repro.grid.httpserver import ReplicaConfig, ReplicaWorld
from repro.grid.pool import WorkerPool
from repro.grid.storage import BufferConfig, BufferWorld
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams


def make_engine():
    streams = RandomStreams(0)
    return Engine(streams=streams), streams


def sample(engine, at, probe):
    """Record ``probe()`` at virtual time ``at``; returns the cell."""
    cell = {}

    def body():
        yield engine.timeout(at)
        cell["value"] = probe()

    engine.process(body())
    return cell


class TestScheddCrash:
    def test_forces_crash_and_restart(self):
        engine, streams = make_engine()
        world = CondorWorld(engine, CondorConfig())
        install_faults(engine, (FaultSpec("schedd-crash", Burst(10.0, 1.0)),),
                       streams=streams, horizon=100.0, schedd=world.schedd)
        during = sample(engine, 10.5, lambda: world.schedd.up)
        after = sample(engine, 10.0 + world.config.restart_delay + 1.0,
                       lambda: world.schedd.up)
        engine.run(until=100.0)
        assert world.schedd.crashes.count == 1
        assert during["value"] is False
        assert after["value"] is True


class TestFDSqueeze:
    def test_pins_and_releases_descriptors(self):
        engine, streams = make_engine()
        world = CondorWorld(engine, CondorConfig(fd_capacity=100))
        install_faults(
            engine,
            (FaultSpec("fd-squeeze", Burst(5.0, 10.0), severity=60),),
            streams=streams, horizon=100.0,
            schedd=world.schedd, fdtable=world.fdtable,
        )
        during = sample(engine, 10.0, lambda: world.fdtable.free)
        after = sample(engine, 20.0, lambda: world.fdtable.free)
        engine.run(until=100.0)
        assert during["value"] == 40
        assert after["value"] == 100

    def test_never_overdraws(self):
        engine, streams = make_engine()
        world = CondorWorld(engine, CondorConfig(fd_capacity=10))
        install_faults(
            engine,
            (FaultSpec("fd-squeeze", Burst(5.0, 10.0), severity=10_000),),
            streams=streams, horizon=100.0,
            schedd=world.schedd, fdtable=world.fdtable,
        )
        during = sample(engine, 10.0, lambda: world.fdtable.free)
        engine.run(until=100.0)
        assert during["value"] == 0  # squeezed to the floor, no exception


class TestEnospc:
    def test_seizes_and_returns_space(self):
        engine, streams = make_engine()
        world = BufferWorld(engine, BufferConfig(capacity_mb=100.0))
        install_faults(engine,
                       (FaultSpec("enospc", Burst(5.0, 10.0), severity=70.0),),
                       streams=streams, horizon=100.0, buffer=world.buffer)
        during = sample(engine, 10.0, lambda: world.buffer.free_mb)
        after = sample(engine, 20.0, lambda: world.buffer.free_mb)
        engine.run(until=100.0)
        assert during["value"] == pytest.approx(30.0)
        assert after["value"] == pytest.approx(100.0)


class TestSlowDisk:
    def test_scales_and_restores_io(self):
        engine, streams = make_engine()
        world = BufferWorld(engine, BufferConfig())
        install_faults(engine,
                       (FaultSpec("slow-disk", Burst(5.0, 10.0), severity=4.0),),
                       streams=streams, horizon=100.0, buffer=world.buffer)
        during = sample(engine, 10.0, lambda: world.buffer.disk.slowdown)
        after = sample(engine, 20.0, lambda: world.buffer.disk.slowdown)
        engine.run(until=100.0)
        assert during["value"] == 4.0
        assert after["value"] == 1.0


class TestHttpError:
    def test_marks_servers_failing_except_black_holes(self):
        engine, streams = make_engine()
        world = ReplicaWorld(engine, ReplicaConfig(), black_holes=("zzz",))
        servers = list(world.servers.values())
        install_faults(engine,
                       (FaultSpec("http-5xx", Burst(5.0, 10.0), severity=0.75),),
                       streams=streams, horizon=100.0, servers=servers)
        during = sample(
            engine, 10.0,
            lambda: {s.name: (s.failing, s.reset_fraction) for s in servers},
        )
        after = sample(engine, 20.0,
                       lambda: [s.failing for s in servers])
        engine.run(until=100.0)
        assert during["value"]["xxx"] == (True, 0.75)
        assert during["value"]["yyy"] == (True, 0.75)
        assert during["value"]["zzz"][0] is False  # already a worse failure
        assert after["value"] == [False, False, False]

    def test_severity_validated_as_fraction(self):
        engine, streams = make_engine()
        world = ReplicaWorld(engine, ReplicaConfig())
        install_faults(engine,
                       (FaultSpec("http-5xx", Burst(5.0, 10.0), severity=2.0),),
                       streams=streams, horizon=100.0,
                       servers=list(world.servers.values()))
        with pytest.raises(SimulationError, match="reset fraction"):
            engine.run(until=100.0)


class TestAcceptQueue:
    def test_parks_and_releases_connections(self):
        engine, streams = make_engine()
        world = ReplicaWorld(engine, ReplicaConfig(), black_holes=())
        servers = list(world.servers.values())
        install_faults(engine,
                       (FaultSpec("accept-queue", Burst(5.0, 10.0), severity=3),),
                       streams=streams, horizon=100.0, servers=servers)

        def occupancy():
            return [len(s.slot.users) + len(s.slot.queue) for s in servers]

        during = sample(engine, 10.0, occupancy)
        after = sample(engine, 20.0, occupancy)
        engine.run(until=100.0)
        assert during["value"] == [3, 3, 3]
        assert after["value"] == [0, 0, 0]


class TestWanPartition:
    def test_partitions_on_schedule(self):
        engine, streams = make_engine()
        link = WanLink(engine, WanConfig(mean_time_between_outages=0.0),
                       rng=streams.stream("wan"))
        install_faults(engine,
                       (FaultSpec("wan-partition",
                                  Periodic(period=50.0, duration=10.0,
                                           start=5.0)),),
                       streams=streams, horizon=100.0, link=link)
        during = sample(engine, 10.0, lambda: link.up)
        after = sample(engine, 20.0, lambda: link.up)
        engine.run(until=100.0)
        assert during["value"] is False
        assert after["value"] is True
        assert link.outages.count == 2


class TestWorkerFlaky:
    def test_raises_and_restores_failure_rates(self):
        engine, streams = make_engine()
        pool = WorkerPool(engine, n_workers=4, failure_rate=0.01,
                          rng=streams.stream("pool"))
        install_faults(engine,
                       (FaultSpec("worker-flaky", Burst(5.0, 10.0),
                                  severity=0.5),),
                       streams=streams, horizon=100.0, pool=pool)
        during = sample(engine, 10.0,
                        lambda: {w.failure_rate for w in pool.workers})
        after = sample(engine, 20.0,
                       lambda: {w.failure_rate for w in pool.workers})
        engine.run(until=100.0)
        assert during["value"] == {0.5}
        assert after["value"] == {0.01}


class TestInstallFaults:
    def test_unknown_target_fails_fast(self):
        engine, streams = make_engine()
        with pytest.raises(SimulationError, match="fault target must be"):
            install_faults(engine,
                           (FaultSpec("gamma-ray", Burst(0.0, 1.0)),),
                           streams=streams)

    def test_missing_substrate_fails_fast(self):
        engine, streams = make_engine()
        with pytest.raises(SimulationError, match="not available"):
            install_faults(engine,
                           (FaultSpec("enospc", Burst(0.0, 1.0)),),
                           streams=streams)  # no buffer passed

    def test_counts_windows_applied(self):
        engine, streams = make_engine()
        world = BufferWorld(engine, BufferConfig())
        injectors = install_faults(
            engine,
            (FaultSpec("slow-disk", Periodic(period=10.0, duration=2.0),
                       severity=2.0),),
            streams=streams, horizon=35.0, buffer=world.buffer)
        engine.run(until=100.0)
        assert [i.windows_applied.count for i in injectors] == [4]


def every_substrate(engine, streams):
    """One of each substrate ``install_faults`` takes, by keyword."""
    condor = CondorWorld(engine, CondorConfig())
    return {
        "schedd": condor.schedd,
        "fdtable": condor.fdtable,
        "buffer": BufferWorld(engine, BufferConfig()).buffer,
        "servers": list(ReplicaWorld(engine, ReplicaConfig()).servers.values()),
        "link": WanLink(engine, WanConfig(mean_time_between_outages=0.0),
                        rng=streams.stream("wan")),
        "pool": WorkerPool(engine, n_workers=2, failure_rate=0.01,
                           rng=streams.stream("pool")),
    }


class TestTargets:
    @pytest.mark.parametrize("target", sorted(TARGETS))
    def test_its_keyword_alone_suffices(self, target):
        engine, streams = make_engine()
        keyword, injector_class = TARGETS[target]
        substrate = every_substrate(engine, streams)[keyword]
        (injector,) = install_faults(
            engine, (FaultSpec(target, Burst(5.0, 10.0), severity=0.5),),
            streams=streams, horizon=100.0, **{keyword: substrate})
        assert type(injector) is injector_class
        assert injector.name == target
        engine.run(until=100.0)
        assert injector.windows_applied.count == 1

    @pytest.mark.parametrize("target", sorted(TARGETS))
    def test_every_other_substrate_is_not_enough(self, target):
        engine, streams = make_engine()
        keyword, _ = TARGETS[target]
        others = every_substrate(engine, streams)
        del others[keyword]
        with pytest.raises(SimulationError, match="not available"):
            install_faults(engine, (FaultSpec(target, Burst(5.0, 10.0)),),
                           streams=streams, **others)

    def test_subclasses_only_apply_and_restore(self):
        for _, injector_class in TARGETS.values():
            assert issubclass(injector_class, Injector)
            declared = vars(injector_class)
            assert "__init__" not in declared and "name" not in declared
