"""Deadline stack and attempt budgets."""

import dataclasses

import pytest

from repro.core.ast_nodes import TryLimits
from repro.core.effects import CommandResult, GetTime, RunCommand, Sleep, SleepResult
from repro.core.errors import FtshFailure
from repro.core.interpreter import Interpreter
from repro.core.parser import parse
from repro.core.timeline import UNBOUNDED, DeadlineStack


class TestDeadlineStack:
    def test_empty_is_unbounded(self):
        stack = DeadlineStack()
        assert stack.effective() == UNBOUNDED
        assert stack.effective() > 1e18

    def test_push_returns_clipped(self):
        stack = DeadlineStack()
        assert stack.push(100.0) == 100.0
        # An inner limit beyond the outer is clipped to the outer.
        assert stack.push(500.0) == 100.0
        # An inner limit before the outer stands.
        assert stack.push(50.0) == 50.0

    def test_pop_restores(self):
        stack = DeadlineStack()
        stack.push(100.0)
        stack.push(50.0)
        stack.pop()
        assert stack.effective() == 100.0
        stack.pop()
        assert stack.effective() == UNBOUNDED

    def test_unbounded_inner(self):
        stack = DeadlineStack()
        stack.push(100.0)
        assert stack.push(UNBOUNDED) == 100.0

    def test_len_and_iter(self):
        stack = DeadlineStack()
        stack.push(10.0)
        stack.push(5.0)
        assert len(stack) == 2
        assert list(stack) == [10.0, 5.0]

    def test_monotone_nonincreasing_invariant(self):
        stack = DeadlineStack()
        import random
        rng = random.Random(7)
        for _ in range(50):
            stack.push(rng.uniform(0, 1000))
        values = list(stack)
        assert all(a >= b for a, b in zip(values, values[1:]))


class ProbeClock:
    """Drives one ``try`` over a virtual clock: ``probe`` costs ``cost``
    seconds and fails its first ``failures`` runs; a run that would
    outlast its deadline times out there."""

    def __init__(self, failures=float("inf"), cost=0.0):
        self.t = 0.0
        self.failures = failures
        self.cost = cost
        #: When each attempt's command started.
        self.starts = []

    def answer(self, effect):
        if isinstance(effect, GetTime):
            return self.t
        if isinstance(effect, Sleep):
            wanted = self.t + effect.duration
            end = min(wanted, effect.deadline)
            slept, self.t = end - self.t, end
            return SleepResult(slept, end < wanted)
        assert isinstance(effect, RunCommand)
        self.starts.append(self.t)
        if self.t + self.cost > effect.deadline:
            self.t = effect.deadline
            return CommandResult(1, timed_out=True)
        self.t += self.cost
        return CommandResult(0 if len(self.starts) > self.failures else 1)

    def run(self, node):
        generator = Interpreter().eval_try(node)
        try:
            effect = next(generator)
            while True:
                effect = generator.send(self.answer(effect))
        except StopIteration:
            return "ok"
        except FtshFailure as failure:
            return failure.reason


def try_node(header):
    return parse(f"try {header}\n    probe\nend\n").body.body[0]


class TestAttemptBudget:
    """A ``try``'s budget — a window, an attempt count, or both,
    whichever expires first — as the interpreter's retry loop spends it."""

    def test_unlimited(self):
        clock = ProbeClock(failures=100)
        assert clock.run(try_node("forever every 1 second")) == "ok"
        assert len(clock.starts) == 101

    def test_attempt_limit(self):
        clock = ProbeClock()
        assert clock.run(try_node("3 times every 1 second")) == \
            "try exhausted after 3 attempts"
        assert clock.starts == [0.0, 1.0, 2.0]

    def test_time_limit(self):
        # Each attempt costs 30 s and a retry waits 1 s: the fourth,
        # started at 93 s, is cut off by the window at 100 s.
        clock = ProbeClock(cost=30.0)
        assert clock.run(try_node("for 100 seconds every 1 second")) == \
            "try exhausted after 4 attempts"
        assert clock.starts == [0.0, 31.0, 62.0, 93.0]
        assert clock.t == 100.0

    def test_both_limits_whichever_first(self):
        # "try for 1 hour or 3 times ... whichever expires first"
        clock = ProbeClock()
        assert clock.run(try_node("for 1 hour or 3 times every 1 second")) \
            == "try exhausted after 3 attempts"       # attempts exhausted
        clock = ProbeClock(cost=1.0)
        assert clock.run(try_node("for 3 seconds or 100 times every 1 second")) \
            == "try exhausted after 2 attempts"       # time exhausted
        assert clock.t == 3.0

    def test_zero_attempts_rejected(self):
        node = dataclasses.replace(try_node("3 times"),
                                   limits=TryLimits(attempts=0))
        with pytest.raises(ValueError):
            ProbeClock().run(node)
