"""Property tests: a timer-served command and its process form agree.

A handler may answer ``Quick(delay, then)`` instead of being a generator
(``repro.simruntime.registry``).  Whatever the deadline — before the
timer fires, at the very instant it fires, in the middle of a
continuation, after everything — and whether or not the client is
cancelled from outside, the driver must report the same
``CommandResult``, write the same ``ShellLog`` and run the handler's
code at the same simulated instants as it does for the generator that
spells the same command out as a process body.

The one difference between the forms is the process' bootstrap hop, so
the property holds when nothing else is queued inside that hop: an
event another process makes in it, for the same instant as the timer,
is ordered after the process form's timer but before the ``Quick``
one.  The canceller here is therefore started before the client.
"""

from types import GeneratorType

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backoff import BackoffPolicy
from repro.core.effects import RunCommand
from repro.core.errors import FtshCancelled
from repro.core.shell_log import LOG_TRACE, TRANSCRIPT_EVENTS, ShellLog
from repro.sim import Engine, Interrupt
from repro.simruntime import CommandRegistry, SimFtsh
from repro.simruntime.driver import SimDriver
from repro.simruntime.registry import Quick

DETERMINISTIC = BackoffPolicy(jitter_low=1.0, jitter_high=1.0)

#: Quarter seconds, so sums like ``delay + rest`` are exact and a
#: deadline can land on the completion instant.
quarters = st.integers(min_value=0, max_value=16).map(lambda k: k / 4)


def handler(form, delay, rest, code, trace):
    """``work``: a timer, then ``code`` — or, with ``rest``, a
    continuation that takes ``rest`` more seconds and may be killed."""

    def then(engine):
        trace.append(("then", engine.now))
        if rest is None:
            return code
        return continuation(engine)

    def continuation(engine):
        try:
            yield engine.timeout(rest)
        except Interrupt as interrupt:
            trace.append(("interrupted", engine.now, interrupt.cause))
            return 3
        trace.append(("done", engine.now))
        return code, "out\n"

    def quick(ctx):
        return Quick(delay, lambda: then(ctx.engine))

    def process(ctx):
        yield ctx.engine.timeout(delay)
        value = then(ctx.engine)
        if isinstance(value, GeneratorType):
            value = yield from value
        return value

    return quick if form == "quick" else process


def run_effect(form, delay, rest, code, deadline, cancel_at):
    """One ``RunCommand`` under ``deadline``; the client is interrupted
    at ``cancel_at`` if that comes first."""
    engine = Engine()
    registry = CommandRegistry()
    trace = []
    registry.add("work", handler(form, delay, rest, code, trace))
    driver = SimDriver(engine, registry, client="c")

    def client():
        try:
            result = yield RunCommand(["work"], capture=True, deadline=deadline)
        except FtshCancelled as cancelled:
            trace.append(("cancelled", engine.now, str(cancelled)))
            return
        trace.append(("result", engine.now, result))

    def canceller():
        yield engine.timeout(cancel_at)
        if process.is_alive:
            process.interrupt("cancel")

    if cancel_at is not None:
        engine.process(canceller())
    process = driver.spawn(client())
    engine.run()
    return trace, engine.now


def run_script(form, delay, rest, code, budget):
    engine = Engine()
    registry = CommandRegistry()
    trace = []
    registry.add("work", handler(form, delay, rest, code, trace))
    shell = SimFtsh(engine, registry, policy=DETERMINISTIC, name="c",
                    log=ShellLog(clock=lambda: engine.now,
                                 max_events=TRANSCRIPT_EVENTS, level=LOG_TRACE))
    result = shell.run(f"try for {budget} seconds\n  work\nend\n")
    engine.run()
    return (result.success, result.reason, result.elapsed,
            result.log.dump(), trace, engine.now)


@st.composite
def commands(draw):
    delay = draw(quarters)
    rest = draw(st.one_of(st.none(), quarters))
    finish = delay + (rest or 0.0)
    # The interesting deadlines: before the timer, at it, between it and
    # the continuation's end, at that end, and anywhere.
    deadline = draw(st.one_of(
        st.sampled_from([delay, finish, delay / 2, (delay + finish) / 2,
                         finish + 0.25]),
        quarters.filter(lambda d: d > 0)))
    return delay, rest, draw(st.sampled_from([0, 1, 7])), max(deadline, 0.25)


@settings(max_examples=150, deadline=None)
@given(commands(), st.one_of(st.none(), quarters))
def test_both_forms_give_the_same_result(command, cancel_at):
    delay, rest, code, deadline = command
    assert (run_effect("quick", delay, rest, code, deadline, cancel_at)
            == run_effect("process", delay, rest, code, deadline, cancel_at))


@settings(max_examples=100, deadline=None)
@given(commands())
def test_both_forms_write_the_same_shell_log(command):
    delay, rest, code, budget = command
    assert (run_script("quick", delay, rest, code, budget)
            == run_script("process", delay, rest, code, budget))


def test_the_completion_instant_counts_as_finished():
    trace, _ = run_effect("quick", 1.0, None, 0, 1.0, None)
    assert trace[-1][0] == "result" and trace[-1][2].exit_code == 0


def test_a_kill_before_the_timer_is_a_killed_command():
    trace, now = run_effect("quick", 2.0, 1.0, 0, 1.0, None)
    result = trace[-1][2]
    assert (result.exit_code, result.timed_out, result.detail) == (
        -1, True, "work: killed")
    # ``then`` never ran; the abandoned timer still fired, into nothing.
    assert [entry[0] for entry in trace] == ["result"]
    assert now == 2.0


def test_a_kill_mid_continuation_reaches_the_continuation():
    trace, _ = run_effect("quick", 1.0, 2.0, 0, 2.0, None)
    assert trace[:2] == [("then", 1.0), ("interrupted", 2.0, "deadline expired")]
    assert trace[-1][2].exit_code == 3 and trace[-1][2].timed_out
