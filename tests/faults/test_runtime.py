"""Command-level faults: the sans-IO shim both runtimes share."""

import pytest

from repro.core import Ftsh
from repro.core.backoff import NO_BACKOFF, BackoffPolicy
from repro.core.errors import SimulationError
from repro.core.shell_log import LOG_TRACE, TRANSCRIPT_EVENTS, ShellLog
from repro.faults.runtime import (
    CommandFault,
    CommandFaultPlan,
    always_schedule,
    apply_command_faults,
    make_faulting_real_driver,
    parse_command_fault,
)
from repro.faults.schedule import Burst, Flaky
from repro.grid.condor import CondorWorld, register_condor_commands
from repro.grid.storage import BufferWorld, register_buffer_commands
from repro.sim.engine import Engine
from repro.simruntime.registry import CommandRegistry
from repro.simruntime.shell import SimFtsh


class TestCommandFault:
    def test_kind_validated(self):
        with pytest.raises(SimulationError, match="kind must be one of"):
            CommandFault("wget", "segfault", Flaky(0.5))

    def test_delay_kind_needs_positive_delay(self):
        with pytest.raises(SimulationError):
            CommandFault("wget", "delay", Flaky(0.5))

    def test_matching(self):
        fault = CommandFault("wget", "kill", Flaky(0.5))
        assert fault.matches(["wget", "http://xxx/data"])
        assert not fault.matches(["curl"])
        assert not fault.matches([])
        assert CommandFault("*", "kill", Flaky(0.5)).matches(["anything"])


class TestCommandFaultPlan:
    def test_window_verdicts_by_time(self):
        plan = CommandFaultPlan(
            [CommandFault("wget", "eperm", Burst(at=10.0, duration=5.0))]
        )
        assert plan.verdict(["wget"], 9.9) is None
        assert plan.verdict(["wget"], 12.0) is not None
        assert plan.verdict(["wget"], 15.0) is None  # half-open window
        assert plan.verdict(["curl"], 12.0) is None

    def test_flaky_draws_only_on_match(self):
        """Unrelated commands never advance the flaky sequence."""
        strikes = []
        for noise in (0, 50):
            plan = CommandFaultPlan(
                [CommandFault("wget", "kill", Flaky(0.5))], seed=9)
            for _ in range(noise):
                plan.verdict(["curl"], 0.0)
            strikes.append(
                [plan.verdict(["wget"], 0.0) is not None for _ in range(20)])
        assert strikes[0] == strikes[1]

    def test_faulted_results(self):
        plan = CommandFaultPlan([])
        eperm = plan.faulted_result(CommandFault("x", "eperm", Flaky(0.5)))
        killed = plan.faulted_result(CommandFault("x", "kill", Flaky(0.5)))
        assert eperm.exit_code == 126
        assert killed.exit_code == -1


class TestGrammar:
    def test_parses_examples(self):
        fault = parse_command_fault("condor_submit:eperm:flaky:p=0.5")
        assert fault.command == "condor_submit"
        assert fault.kind == "eperm"
        assert fault.when == Flaky(0.5)

        fault = parse_command_fault("wget:kill:burst:at=10,duration=30")
        assert fault.when == Burst(10.0, 30.0)

        fault = parse_command_fault("sleep:delay:flaky:p=0.9:delay=2.5")
        assert fault.kind == "delay"
        assert fault.delay == 2.5

    def test_no_schedule_means_every_spawn(self):
        fault = parse_command_fault("wget:kill")
        assert fault.when == always_schedule()

    def test_rejects_malformed(self):
        with pytest.raises(SimulationError, match="COMMAND:KIND"):
            parse_command_fault("wget")
        with pytest.raises(SimulationError, match="delay must be a number"):
            parse_command_fault("wget:delay:delay=soon")


class TestSimulationSide:
    def run_script(self, script, faults, duration=100.0):
        engine = Engine()
        registry = CommandRegistry()
        apply_command_faults(registry, CommandFaultPlan(faults, horizon=duration))
        shell = SimFtsh(engine, registry, policy=NO_BACKOFF)
        process = shell.spawn(script, timeout=duration)
        engine.run(until=duration)
        return process.value

    def test_eperm_fails_matching_command(self):
        result = self.run_script(
            "try 1 times\n  echo ok\nend",
            [CommandFault("echo", "eperm", always_schedule())],
        )
        assert not result.success

    def test_unmatched_commands_unaffected(self):
        result = self.run_script(
            "true",
            [CommandFault("echo", "eperm", always_schedule())],
        )
        assert result.success

    def test_window_gates_the_fault(self):
        # Window opens at t=50; a command at t=0 is untouched.
        result = self.run_script(
            "true",
            [CommandFault("true", "kill", Burst(at=50.0, duration=10.0))],
        )
        assert result.success

    def test_delay_stalls_command(self):
        engine = Engine()
        registry = CommandRegistry()
        plan = CommandFaultPlan(
            [CommandFault("true", "delay", always_schedule(), delay=7.5)])
        apply_command_faults(registry, plan)
        shell = SimFtsh(engine, registry, policy=NO_BACKOFF)
        process = shell.spawn("true", timeout=100.0)
        engine.run(until=100.0)
        assert process.value.success
        assert engine.now >= 7.5


class TestDelayFaultOnTimerServedCommands:
    """A ``delay`` fault in front of a handler that answers ``Quick``:
    the handler is called when the delay ends and its own timer follows.
    The logs below are what the shim wrote when every handler was a
    process body; they must not move."""

    DETERMINISTIC = BackoffPolicy(jitter_low=1.0, jitter_high=1.0)

    def run(self, world_kind, script, command, delay):
        engine = Engine()
        registry = CommandRegistry()
        if world_kind == "condor":
            world = CondorWorld(engine)
            register_condor_commands(registry, world)
            world.schedd.up = False
            counted = lambda: world.schedd.refused.count  # noqa: E731
        else:
            world = BufferWorld(engine)
            register_buffer_commands(registry, world)
            world.buffer.seize(world.config.capacity_mb)
            counted = lambda: world.buffer.collisions.count  # noqa: E731
        apply_command_faults(registry, CommandFaultPlan(
            [CommandFault(command, "delay", always_schedule(), delay=delay)],
            horizon=100.0))
        shell = SimFtsh(engine, registry, world=world,
                        policy=self.DETERMINISTIC, name="c",
                        log=ShellLog(clock=lambda: engine.now,
                                     max_events=TRANSCRIPT_EVENTS,
                                     level=LOG_TRACE))
        result = shell.run(script)
        return ((result.success, result.reason, result.elapsed,
                 result.timed_out, counted()),
                result.log.dump().splitlines())

    @pytest.mark.parametrize("budget, outcome, log", [
        (9, (False, "try exhausted after 3 attempts", 9.0, False, 2), [
            "[    0.000000] try-attempt       attempt 1",
            "[    0.000000] command-start     condor_submit job",
            "[    3.500000] command-failed    condor_submit job exited 1",
            "[    3.500000] try-backoff       failure 1: waiting 1.000s",
            "[    4.500000] try-attempt       attempt 2",
            "[    4.500000] command-start     condor_submit job",
            "[    8.000000] command-failed    condor_submit job exited 1",
            "[    8.000000] try-backoff       failure 2: waiting 1.000s",
            "[    9.000000] try-attempt       attempt 3",
            "[    9.000000] command-start     condor_submit job",
            "[    9.000000] command-timeout   condor_submit job",
            "[    9.000000] try-exhausted     after 3 attempts",
            "[    9.000000] script-result     failure: try exhausted after 3 attempts",
        ]),
        # The deadline lands on the end of the second delay: the handler
        # still runs (and counts its refusal), then is killed.
        (7, (False, "try exhausted after 2 attempts", 7.0, False, 2), [
            "[    0.000000] try-attempt       attempt 1",
            "[    0.000000] command-start     condor_submit job",
            "[    3.500000] command-failed    condor_submit job exited 1",
            "[    3.500000] try-backoff       failure 1: waiting 1.000s",
            "[    4.500000] try-attempt       attempt 2",
            "[    4.500000] command-start     condor_submit job",
            "[    7.000000] command-timeout   condor_submit job",
            "[    7.000000] try-exhausted     after 2 attempts",
            "[    7.000000] script-result     failure: try exhausted after 2 attempts",
        ]),
    ])
    def test_refused_submit(self, budget, outcome, log):
        script = f"try for {budget} seconds\n  condor_submit job\nend\n"
        assert self.run("condor", script, "condor_submit", 2.5) == (outcome, log)

    @pytest.mark.parametrize("budget, outcome, log", [
        (5, (False, "try exhausted after 3 attempts", 6.0, False, 2), [
            "[    1.000000] try-attempt       attempt 1",
            "[    1.000000] command-start     store_output",
            "[    2.050000] command-failed    store_output exited 1",
            "[    2.050000] try-backoff       failure 1: waiting 1.000s",
            "[    3.050000] try-attempt       attempt 2",
            "[    3.050000] command-start     store_output",
            "[    4.100000] command-failed    store_output exited 1",
            "[    4.100000] try-backoff       failure 2: waiting 1.900s",
            "[    6.000000] try-attempt       attempt 3",
            "[    6.000000] command-start     store_output",
            "[    6.000000] command-timeout   store_output",
            "[    6.000000] try-exhausted     after 3 attempts",
            "[    6.000000] script-result     failure: try exhausted after 3 attempts",
        ]),
        # Killed inside the second delay, before the open.
        (2.9, (False, "try exhausted after 2 attempts", 3.9, False, 1), [
            "[    1.000000] try-attempt       attempt 1",
            "[    1.000000] command-start     store_output",
            "[    2.050000] command-failed    store_output exited 1",
            "[    2.050000] try-backoff       failure 1: waiting 1.000s",
            "[    3.050000] try-attempt       attempt 2",
            "[    3.050000] command-start     store_output",
            "[    3.900000] command-timeout   store_output",
            "[    3.900000] try-exhausted     after 2 attempts",
            "[    3.900000] script-result     failure: try exhausted after 2 attempts",
        ]),
    ])
    def test_enospc_store(self, budget, outcome, log):
        script = (f"produce_output 0.5\ntry for {budget} seconds\n"
                  "  store_output\nend\n")
        assert self.run("buffer", script, "store_output", 1.0) == (outcome, [
            "[    0.000000] command-start     produce_output 0.5",
            "[    1.000000] command-end       produce_output",
        ] + log)


class TestRealSide:
    def test_eperm_blocks_real_command(self, tmp_path):
        marker = tmp_path / "ran"
        plan = CommandFaultPlan(
            [CommandFault("touch", "eperm", always_schedule())])
        shell = Ftsh(driver=make_faulting_real_driver(plan, term_grace=0.2),
                     policy=NO_BACKOFF)
        result = shell.run(f"try 1 times\n  touch {marker}\nend")
        assert not result.success
        assert not marker.exists()  # the command never actually ran

    def test_unmatched_real_command_runs(self, tmp_path):
        marker = tmp_path / "ran"
        plan = CommandFaultPlan(
            [CommandFault("rm", "eperm", always_schedule())])
        shell = Ftsh(driver=make_faulting_real_driver(plan, term_grace=0.2),
                     policy=NO_BACKOFF)
        assert shell.run(f"touch {marker}").success
        assert marker.exists()

    def test_differential_flaky_verdicts(self):
        """The same plan seed produces the same strike sequence that the
        simulation side saw — the sans-IO property."""
        verdicts = []
        for _ in range(2):
            plan = CommandFaultPlan(
                [CommandFault("wget", "kill", Flaky(0.5))], seed=2003)
            verdicts.append(
                [plan.verdict(["wget"], float(t)) is not None
                 for t in range(30)])
        assert verdicts[0] == verdicts[1]
