"""Differential testing: the same script must mean the same thing under
the real POSIX driver and the simulation driver.

This is the pay-off of the sans-IO interpreter: one semantics, two
worlds.  Each case runs one script in both drivers (with equivalent
command behaviour wired up on the sim side) and compares outcome,
variables, and the structural log events.
"""

import pytest

from repro.core import Ftsh
from repro.core.backoff import BackoffPolicy
from repro.core.realruntime import RealDriver
from repro.core.shell_log import (
    LOG_TRACE,
    TRANSCRIPT_EVENTS,
    EventKind,
    ShellLog,
)
from repro.faults.runtime import (
    CommandFault,
    CommandFaultPlan,
    always_schedule,
    apply_command_faults,
    make_faulting_real_driver,
)
from repro.faults.schedule import Flaky
from repro.sim import Engine
from repro.simruntime import CommandRegistry, SimFtsh

#: Identical deterministic policy in both drivers (no jitter, tiny base
#: so the real runs stay fast).
POLICY = BackoffPolicy(base=0.05, factor=2.0, ceiling=0.4,
                       jitter_low=1.0, jitter_high=1.0)


def transcript(clock):
    """A log that keeps its events: the structural traces read them."""
    return ShellLog(clock=clock, max_events=TRANSCRIPT_EVENTS, level=LOG_TRACE)


def run_real(script, driver=None):
    shell = Ftsh(driver=driver or RealDriver(term_grace=0.2), policy=POLICY)
    return shell.run(script, log=transcript(shell.driver.now))


def run_sim(script, plan=None):
    engine = Engine()
    registry = CommandRegistry()

    @registry.register("sh")
    def sh(ctx):
        """Interpret the tiny `sh -c 'exit N'` subset our scripts use."""
        assert ctx.args[0] == "-c"
        body = ctx.args[1]
        if body.startswith("exit "):
            return int(body.split()[1])
        return 0
        yield  # pragma: no cover

    if plan is not None:
        apply_command_faults(registry, plan)
    shell = SimFtsh(engine, registry, policy=POLICY,
                    log=transcript(lambda: engine.now))
    return shell.run(script), shell.log


STRUCTURAL = (
    EventKind.TRY_ATTEMPT,
    EventKind.TRY_BACKOFF,
    EventKind.TRY_SUCCESS,
    EventKind.TRY_EXHAUSTED,
    EventKind.CATCH_ENTERED,
    EventKind.FORANY_PICK,
    EventKind.FAILURE_ATOM,
)


def structural_trace(log):
    return [event.kind for event in log.events if event.kind in STRUCTURAL]


CASES = [
    # (script, expected_success)
    ("sh -c 'exit 0'", True),
    ("sh -c 'exit 1'", False),
    ("try 3 times\n  sh -c 'exit 1'\nend", False),
    ("try 3 times\n  sh -c 'exit 1'\ncatch\n  sh -c 'exit 0'\nend", True),
    ("try 3 times\n  sh -c 'exit 1'\ncatch\n  failure\nend", False),
    ('forany x in 1 0 1\n  sh -c "exit ${x}"\nend', True),
    ('forany x in 1 1\n  sh -c "exit ${x}"\nend', False),
    ("a=5\nif ${a} .lt. 10\n  sh -c 'exit 0'\nelse\n  sh -c 'exit 1'\nend", True),
    ("echo one -> v\necho two ->> v\nsh -c 'exit 0'", True),
    ("failure", False),
    ("success", True),
]


@pytest.mark.parametrize("script,expected", CASES,
                         ids=range(len(CASES)))
def test_same_outcome_both_drivers(script, expected):
    real = run_real(script)
    sim, _ = run_sim(script)
    assert real.success == sim.success == expected


@pytest.mark.parametrize(
    "script",
    [
        "try 3 times\n  sh -c 'exit 1'\nend",
        "try 2 times\n  sh -c 'exit 1'\ncatch\n  sh -c 'exit 0'\nend",
        'forany x in 1 1 0\n  sh -c "exit ${x}"\nend',
    ],
    ids=range(3),
)
def test_same_structural_trace(script):
    """Attempt counts, backoffs, catches, and picks line up exactly."""
    real = run_real(script)
    sim_result, sim_log = run_sim(script)
    assert structural_trace(real.log) == structural_trace(sim_log)


def test_same_variables():
    script = "x=base\necho ${x}-more -> y\nsh -c 'exit 0'"
    real = run_real(script)
    sim_result, _ = run_sim(script)
    assert real.variables == sim_result.variables


def test_winning_forany_variable_matches():
    script = "forany host in bad1 good bad2\n  sh -c 'exit 0'\nend"
    # body always succeeds -> both drivers pick the first alternative
    real = run_real(script)
    sim_result, _ = run_sim(script)
    assert real.variables["host"] == sim_result.variables["host"] == "bad1"


#: (rule, script): the command-fault shim on both sides.  Each run gets
#: its own plan, built from the same rule and seed, so both see the same
#: verdict sequence.
FAULTED = {
    "eperm": (CommandFault("sh", "eperm", always_schedule()),
              "try 2 times\n  sh -c 'exit 0'\nend"),
    "kill-then-catch": (
        CommandFault("sh", "kill", always_schedule()),
        "try 2 times\n  sh -c 'exit 0'\ncatch\n  success\nend"),
    "delay-inside-deadline": (
        CommandFault("sh", "delay", always_schedule(), delay=0.1),
        "try for 5 seconds\n  sh -c 'exit 0'\nend"),
    "delay-past-deadline": (
        CommandFault("sh", "delay", always_schedule(), delay=5.0),
        "try for 0.2 seconds\n  sh -c 'exit 0'\nend"),
    "flaky-kill": (CommandFault("sh", "kill", Flaky(0.5)),
                   "try 6 times\n  sh -c 'exit 0'\nend"),
}


@pytest.mark.parametrize("case", FAULTED)
def test_same_meaning_under_command_faults(case):
    """Outcome and structural trace agree with the shim on both sides."""
    rule, script = FAULTED[case]
    real = run_real(script, make_faulting_real_driver(
        CommandFaultPlan([rule], seed=2003), term_grace=0.2))
    sim, sim_log = run_sim(script, CommandFaultPlan([rule], seed=2003))
    assert (real.success, real.timed_out, real.reason) == (
        sim.success, sim.timed_out, sim.reason)
    assert structural_trace(real.log) == structural_trace(sim_log)
