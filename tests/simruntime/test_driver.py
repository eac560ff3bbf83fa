"""SimDriver mechanics: deadlines, interrupts, resource cleanup."""

import pytest

from repro.core.backoff import BackoffPolicy
from repro.sim import Engine, Interrupt, Resource
from repro.simruntime import CommandRegistry, SimFtsh

DETERMINISTIC = BackoffPolicy(jitter_low=1.0, jitter_high=1.0)


class TestDeadlines:
    def test_command_raced_against_deadline(self):
        engine = Engine()
        registry = CommandRegistry()

        @registry.register("hang")
        def hang(ctx):
            yield ctx.engine.timeout(1e9)
            return 0

        shell = SimFtsh(engine, registry, policy=DETERMINISTIC)
        result = shell.run("try for 30 seconds\n  hang\nend")
        assert not result.success
        assert engine.now == pytest.approx(30.0)

    def test_handler_cleanup_on_deadline(self):
        """An interrupted handler must be able to release what it holds."""
        engine = Engine()
        registry = CommandRegistry()
        resource = Resource(engine, capacity=1)
        released = []

        @registry.register("holder")
        def holder(ctx):
            request = resource.request()
            try:
                yield request
                yield ctx.engine.timeout(1e9)
                return 0
            except Interrupt:
                return 1
            finally:
                resource.release(request)
                released.append(ctx.engine.now)

        shell = SimFtsh(engine, registry, policy=DETERMINISTIC)
        shell.run("try for 5 seconds\n  holder\nend")
        assert released == [5.0]
        assert resource.count == 0

    def test_uncaught_interrupt_shielded(self):
        """A handler that ignores Interrupt becomes a dead command, not a
        crashed simulation."""
        engine = Engine()
        registry = CommandRegistry()

        @registry.register("stubborn")
        def stubborn(ctx):
            yield ctx.engine.timeout(1e9)
            return 0

        shell = SimFtsh(engine, registry, policy=DETERMINISTIC)
        result = shell.run("try for 2 seconds\n  stubborn\nend")
        assert not result.success

    def test_deadline_already_passed(self):
        engine = Engine()
        registry = CommandRegistry()
        calls = []

        @registry.register("never")
        def never(ctx):
            calls.append(1)
            return 0
            yield

        shell = SimFtsh(engine, registry, policy=DETERMINISTIC)
        # sleep consumes the whole try window; the second command's
        # deadline has passed before it starts.
        result = shell.run("try for 5 seconds\n  sleep 5\n  never\nend")
        assert not result.success
        assert calls == []


class TestDeadlineRace:
    """What the command-vs-deadline wait leaves behind on each exit."""

    @staticmethod
    def live_entries(engine):
        return [entry for entry in engine._heap
                if entry[2].callbacks is not None]

    def test_command_won_withdraws_the_expiry(self):
        engine = Engine()
        shell = SimFtsh(engine, CommandRegistry(), policy=DETERMINISTIC)
        result = shell.run("try for 1000 seconds\n  sleep 3\n  true\nend")
        assert result.success and engine.now == 3.0
        assert self.live_entries(engine) == []
        # Nothing is left that could move the clock to the deadline.
        engine.run()
        assert engine.now == 3.0

    def test_interrupted_client_withdraws_the_expiry(self):
        """A branch cancelled while it races a command against a deadline
        kills the command and takes its own timer with it."""
        engine = Engine()
        registry = CommandRegistry()
        killed = []

        @registry.register("slow")
        def slow(ctx):
            try:
                yield ctx.engine.timeout(50.0)
                return 0
            except Interrupt as interrupt:
                killed.append((ctx.engine.now, interrupt.cause))
                return 1

        shell = SimFtsh(engine, registry, policy=DETERMINISTIC)
        result = shell.run(
            "try for 1000 seconds or 1 times\n"
            "  forall x in a b\n"
            "    if ${x} .eql. a\n      slow\n"
            "    else\n      sleep 1\n      failure\n    end\n"
            "  end\n"
            "end")
        assert not result.success
        assert killed[0] == (1.0, "client cancelled")
        # Only the killed command's own 50 s sleep is still live.
        assert [entry[0] for entry in self.live_entries(engine)] == [50.0]

    def test_deadline_at_the_completion_instant_is_not_a_timeout(self):
        """Expiry and completion in the same instant, expiry dispatched
        first: the command still counts as finished."""
        engine = Engine()
        shell = SimFtsh(engine, CommandRegistry(), policy=DETERMINISTIC)
        result = shell.run("try for 5 seconds\n  sleep 5\nend")
        assert result.success and not result.timed_out
        assert engine.now == 5.0

    def test_handler_exception_surfaces_through_the_race(self):
        """A handler raising anything but Interrupt is a scenario bug: it
        must crash the run, with or without a deadline to race."""
        for script in ("boom", "try for 5 seconds\n  boom\nend"):
            engine = Engine()
            registry = CommandRegistry()

            @registry.register("boom")
            def boom(ctx):
                yield ctx.engine.timeout(1.0)
                raise RuntimeError("handler bug")

            shell = SimFtsh(engine, registry, policy=DETERMINISTIC)
            with pytest.raises(RuntimeError, match="handler bug"):
                shell.run(script)
            assert engine.now == 1.0


class TestParallelBranches:
    def test_sibling_cancellation_releases_resources(self):
        engine = Engine()
        registry = CommandRegistry()
        resource = Resource(engine, capacity=2)

        @registry.register("hold")
        def hold(ctx):
            request = resource.request()
            try:
                yield request
                yield ctx.engine.timeout(float(ctx.args[0]))
                return int(ctx.args[1])
            except Interrupt:
                return 1
            finally:
                resource.release(request)

        shell = SimFtsh(engine, registry, policy=DETERMINISTIC)
        result = shell.run("forall x in a b\n  hold 1 1\nend")
        assert not result.success
        assert resource.count == 0

    def test_unknown_command_exit_127(self):
        engine = Engine()
        shell = SimFtsh(engine, CommandRegistry(), policy=DETERMINISTIC)
        result = shell.run("imaginary_cmd")
        assert not result.success
        assert "exited 127" in result.reason


class TestClock:
    def test_driver_now_tracks_engine(self):
        engine = Engine()
        shell = SimFtsh(engine, CommandRegistry())
        assert shell.driver.now() == 0.0
        shell.run("sleep 10")
        assert shell.driver.now() == 10.0

    def test_run_result_elapsed_virtual(self):
        engine = Engine()
        shell = SimFtsh(engine, CommandRegistry())
        result = shell.run("sleep 7")
        assert result.elapsed == pytest.approx(7.0)


class TestSpawn:
    def test_spawn_returns_process_with_result(self):
        engine = Engine()
        shell = SimFtsh(engine, CommandRegistry())
        process = shell.spawn("sleep 3")
        result = engine.run(until=process)
        assert result.success
        assert engine.now == 3.0

    def test_many_shells_share_engine(self):
        engine = Engine()
        registry = CommandRegistry()
        shells = [SimFtsh(engine, registry, name=f"s{i}") for i in range(5)]
        processes = [s.spawn("sleep 2") for s in shells]
        engine.run()
        assert engine.now == 2.0
        assert all(p.value.success for p in processes)
