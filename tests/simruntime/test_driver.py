"""SimDriver mechanics: deadlines, interrupts, resource cleanup."""

import pytest

from repro.core.backoff import NO_BACKOFF, PAPER_POLICY, BackoffPolicy
from repro.core.effects import RunCommand, Sleep
from repro.core.errors import BudgetExceeded, FtshFailure
from repro.grid.condor import CondorConfig, CondorWorld, register_condor_commands
from repro.grid.storage import BufferWorld, register_buffer_commands
from repro.obs.api import Observability
from repro.sim import Engine, Interrupt, Process, Resource
from repro.sim.events import _CARRIER_POOL_MAX
from repro.simruntime import CommandRegistry, SimFtsh
from repro.simruntime.driver import SimDriver
from repro.simruntime.registry import Quick

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

    def test_a_continuation_killed_by_its_deadline(self, monkeypatch):
        """``store_output`` past its open is a process: its deadline
        kills it mid-write, and it deletes the partial file."""
        causes = []
        interrupt = Process.interrupt

        def recording(process, cause=None):
            causes.append(cause)
            interrupt(process, cause)

        monkeypatch.setattr(Process, "interrupt", recording)
        engine = Engine()
        registry = CommandRegistry()
        world = BufferWorld(engine)
        register_buffer_commands(registry, world)
        shell = SimFtsh(engine, registry, world=world, name="p",
                        policy=DETERMINISTIC)
        process = shell.spawn("produce_output 10\n"
                              "try for 1 seconds or 1 times\n"
                              "  store_output\n"
                              "end\n")
        result, events = engine.run_budgeted(process)
        assert not result.success
        assert causes == ["deadline expired"]
        assert world.buffer.collisions.count == 1
        assert world.buffer.used_mb == 0.0
        assert (events, engine.now) == (86, 2.0)

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


class TestTimerServedShape:
    """Events dispatched per command, exactly.  Every script here pays
    the same three around its command (the script's bootstrap, the
    schedd's maintenance bootstrap, the script's exit), so ``true`` —
    a process that never waits: bootstrap, exit, race — reads 6."""

    @staticmethod
    def events(script, state=None, timeout=10.0, policy=PAPER_POLICY):
        engine = Engine()
        registry = CommandRegistry()
        world = CondorWorld(engine, CondorConfig(maintenance_interval=1e6))
        register_condor_commands(registry, world)
        if state == "down":
            world.schedd.up = False
        elif state == "full":
            world.fdtable.allocate(world.fdtable.capacity)
        shell = SimFtsh(engine, registry, world=world, name="c", policy=policy)
        process = shell.spawn(script, timeout=timeout)
        result, events = engine.run_budgeted(process)
        return events, result.success, engine.now

    def test_a_process_command(self):
        assert self.events("true") == (6, True, 0.0)

    @pytest.mark.parametrize("state, latency", [("down", 1.0), ("full", 0.5)])
    def test_a_refused_submit_is_three_events(self, state, latency):
        """Its timer, the exit hop and the race hop — four while it was
        a process, whose bootstrap hop came first."""
        assert self.events("condor_submit job", state) == (6, False, latency)

    @pytest.mark.parametrize("attempts", [1, 2, 5])
    def test_each_refused_attempt_is_three_events(self, attempts):
        """The fixed discipline's loop against a down schedd: the three
        per-script events, then a timer, an exit hop and a race hop per
        attempt — no backoff timer (``NO_BACKOFF`` never waits) and no
        expiry (the script's deadline is out of every timer's reach)."""
        script = f"try {attempts} times\n  condor_submit job\nend\n"
        assert self.events(script, "down", policy=NO_BACKOFF) == (
            3 + 3 * attempts, False, float(attempts))

    def test_many_timer_served_commands_keep_the_pool_bound(self):
        """Twice the pool's bound of refused submits in flight at once:
        their timers and exit hops are recycled, the pool stays bounded."""
        engine = Engine()
        registry = CommandRegistry()
        world = CondorWorld(engine, CondorConfig(maintenance_interval=1e6))
        register_condor_commands(registry, world)
        world.schedd.up = False
        shells = [
            SimFtsh(engine, registry, world=world, name=f"c{index}",
                    policy=NO_BACKOFF).spawn(
                "try 3 times\n  condor_submit job\nend\n", timeout=10.0)
            for index in range(2 * _CARRIER_POOL_MAX)]
        engine.run(until=engine.all_of(shells))
        assert engine.now == 3.0
        assert not any(shell.value.success for shell in shells)
        assert len(engine._carriers) == _CARRIER_POOL_MAX

    def test_without_a_deadline_there_is_no_race_hop(self):
        assert self.events("condor_submit job", "down", None) == (5, False, 1.0)

    def test_a_connected_submit_is_still_a_process(self):
        assert self.events("condor_submit job") == (9, True, 3.5100000000000002)

    @staticmethod
    def command(answer, deadline):
        """One command answering ``answer`` under ``deadline``: its
        result, the events the run dispatched, the clock at its end."""
        engine = Engine()
        registry = CommandRegistry(include_builtins=False)
        registry.add("cmd", lambda ctx: answer)
        results = []

        def script():
            results.append((yield RunCommand(argv=["cmd"], deadline=deadline)))

        process = SimDriver(engine, registry, client="c").spawn(script())
        _value, events = engine.run_budgeted(process)
        (result,) = results
        return (result.exit_code, result.timed_out, result.detail), events, engine.now

    def test_a_refusal_at_the_deadline_instant_has_finished(self):
        """Expiry and timer in one instant, expiry first: the refusal
        still counts, and the expiry is one event more."""
        assert self.command(Quick(1.0, 1), 1.0) == ((1, False, ""), 6, 1.0)

    def test_a_refusal_past_the_deadline_is_killed(self):
        """The expiry, the race hop, the kill's urgent hop, the exit."""
        assert self.command(Quick(2.0, 1), 1.0) == (
            (-1, True, "cmd: killed"), 6, 1.0)

    def test_a_kill_before_the_timer_never_calls_then(self):
        called = []
        answer = Quick(2.0, lambda: called.append(1) or 0)
        assert self.command(answer, 1.0)[0] == (-1, True, "cmd: killed")
        assert called == []

    @staticmethod
    def cancelled(sibling_sleep):
        """A ``forall`` branch serving a ``Quick`` answer — a one-second
        timer, then a 5 s continuation — while its sibling fails after
        ``sibling_sleep`` seconds and cancels it."""
        engine = Engine()
        registry = CommandRegistry()
        seen = []

        def rest():
            try:
                yield engine.timeout(5.0)
                return 0
            except Interrupt as interrupt:
                seen.append((engine.now, interrupt.cause))
                return 1

        def slow(ctx):
            return Quick(1.0, lambda: seen.append((engine.now, "then")) or rest())

        registry.add("slow", slow)
        shell = SimFtsh(engine, registry, name="c", policy=DETERMINISTIC)
        process = shell.spawn(
            "forall x in a b\n"
            "  if ${x} .eql. a\n    slow\n"
            f"  else\n    sleep {sibling_sleep}\n    failure\n  end\n"
            "end\n", timeout=100.0)
        result, events = engine.run_budgeted(process)
        assert not result.success
        live = [entry[0] for entry in engine._heap
                if entry[2].callbacks is not None]
        return seen, events, engine.now, live

    def test_cancelled_before_the_timer_fires(self):
        """Killed in the queue: ``then`` never runs, and the timer still
        fires later, into nothing."""
        assert self.cancelled(0.5) == ([], 16, 0.5, [1.0])

    def test_cancelled_after_the_timer_fires(self):
        """The continuation is what the cancel interrupts."""
        assert self.cancelled(2) == (
            [(1.0, "then"), (2.0, "client cancelled")], 17, 2.0, [6.0])

    def test_a_refused_retry_loop_keeps_no_expiry_queued(self):
        """``run_budgeted`` may not rebuild the queue, so an expiry per
        attempt, queued and withdrawn, would stay there until the run
        reached the ``try`` deadline."""
        engine = Engine()
        registry = CommandRegistry()
        world = CondorWorld(engine, CondorConfig(maintenance_interval=1e6))
        register_condor_commands(registry, world)
        world.schedd.up = False
        shell = SimFtsh(engine, registry, world=world, name="c")
        process = shell.spawn(
            "try for 1 hour every 0.01 seconds\n  condor_submit job\nend\n")
        with pytest.raises(BudgetExceeded) as exc:
            engine.run_budgeted(process, max_events=2_000)
        assert (exc.value.events, round(engine.now, 2)) == (2_000, 504.99)
        # An expiry queued and withdrawn per attempt would leave ~500 here.
        assert len(engine._heap) <= 3


class TestOneFrame:
    """``_drive`` answers every effect itself: a script process waits in
    that one frame, whatever it waits on."""

    @staticmethod
    def waiting_frames(at):
        """The script process's generator at each instant of ``at`` — a
        ``Quick`` command, a process command, a backoff ``Sleep`` — as
        (frame name, delegates below it)."""
        engine = Engine()
        registry = CommandRegistry()
        registry.add("quick", lambda ctx: Quick(1.0, 0))

        @registry.register("slow")
        def slow(ctx):
            yield ctx.engine.timeout(1.0)
            return 0

        shell = SimFtsh(engine, registry, name="c", policy=DETERMINISTIC)
        process = shell.spawn("quick\nslow\ntry 2 times\n  false\nend\n",
                              timeout=100.0)
        frames = []
        for instant in at:
            engine.run(until=instant)
            generator, depth = process.generator, 0
            while generator.gi_yieldfrom is not None:
                generator, depth = generator.gi_yieldfrom, depth + 1
            frames.append((process.generator.gi_code.co_name, depth))
        engine.run(until=process)
        return frames

    def test_no_delegate_below_the_drive_loop(self):
        """Every ``send`` and ``throw`` of a resume passes through each
        delegate, so a wait keeps none below ``_drive``."""
        assert self.waiting_frames((0.5, 1.5, 2.5)) == [("_drive", 0)] * 3

    @staticmethod
    def answer(effect, registry=None, obs=None):
        """The driver's answer to one effect at time 0."""
        engine = Engine()
        driver = SimDriver(engine, registry or CommandRegistry(),
                           client="c", obs=obs)
        answers = []

        def script():
            answers.append((yield effect))

        driver.run(script())
        return answers[0]

    def test_unknown_command_is_127_and_counted(self):
        obs = Observability(max_spans=0)
        result = self.answer(RunCommand(argv=["nope"], deadline=5.0), obs=obs)
        assert (result.exit_code, result.detail) == (
            127, "unknown simulated command 'nope'")
        family = obs.metrics.get("ftsh_sim_unknown_commands_total")
        assert sum(child.value for child in family.children()) == 1

    def test_stdin_from_a_file_fails(self):
        result = self.answer(RunCommand(argv=["cat"], stdin_file="in.txt",
                                        deadline=5.0))
        assert (result.exit_code, result.timed_out) == (1, False)
        assert "'in.txt' not available" in result.detail

    def test_deadline_already_passed_never_calls_the_handler(self):
        registry = CommandRegistry(include_builtins=False)
        calls = []
        registry.add("cmd", lambda ctx: calls.append(1) or Quick(1.0, 0))
        result = self.answer(RunCommand(argv=["cmd"], deadline=0.0), registry)
        assert (result.exit_code, result.timed_out, result.detail) == (
            -1, True, "deadline already passed")
        assert calls == []

    def test_a_client_cancelled_in_its_backoff(self):
        engine = Engine()
        shell = SimFtsh(engine, CommandRegistry(), name="c",
                        policy=DETERMINISTIC)
        process = shell.spawn("try 3 times\n  false\nend\n")
        engine.run(until=0.5)  # the first backoff sleeps 1 s
        process.interrupt("tear down")
        result = engine.run(until=process)
        assert (result.success, result.cancelled, result.timed_out) == (
            False, True, False)
        assert result.reason == "tear down"
        assert engine.now == 0.5

    def test_a_client_cancelled_in_a_process_command(self):
        """The command is killed as ``"client cancelled"`` and the expiry
        it raced is withdrawn with it."""
        engine = Engine()
        registry = CommandRegistry()
        seen = []

        @registry.register("slow")
        def slow(ctx):
            try:
                yield ctx.engine.timeout(50.0)
                return 0
            except Interrupt as interrupt:
                seen.append((ctx.engine.now, interrupt.cause))
                return 1

        shell = SimFtsh(engine, registry, name="c", policy=DETERMINISTIC)
        process = shell.spawn("try for 1000 seconds\n  slow\nend\n")
        engine.run(until=2.0)
        process.interrupt("tear down")
        result = engine.run(until=process)
        assert result.cancelled and seen == [(2.0, "client cancelled")]
        # Left live: the killed command's exit, queued behind the script's,
        # and its own 50 s timer.  The 1000 s expiry is gone.
        live = TestDeadlineRace.live_entries(engine)
        assert [entry[0] for entry in live] == [2.0, 50.0]

    def test_elapsed_counts_from_the_scripts_start(self):
        engine = Engine()
        shell = SimFtsh(engine, CommandRegistry())
        engine.run(until=3.0)
        result = engine.run(until=shell.spawn("sleep 2"))
        assert (result.success, result.elapsed, engine.now) == (True, 2.0, 5.0)

    def test_run_without_finish_returns_the_control_exception(self):
        engine = Engine()
        driver = SimDriver(engine, CommandRegistry())

        def failing():
            yield Sleep(duration=1.0)
            raise FtshFailure("gave up")

        def succeeding():
            yield Sleep(duration=1.0)

        outcome = driver.run(failing())
        assert isinstance(outcome, FtshFailure) and outcome.reason == "gave up"
        assert driver.run(succeeding()) is None
        assert engine.now == 2.0
