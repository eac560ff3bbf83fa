"""Command-level fault injection for both runtimes (the sans-IO shim).

The interpreter is sans-IO: the same effect stream runs against the
simulator (:class:`~repro.simruntime.driver.SimDriver`) or the real
operating system (:class:`~repro.core.realruntime.RealDriver`).  This
module injects faults at the one point both share — the ``RunCommand``
effect — so a subset of the fault model stays differentially testable:

* ``eperm`` — the command cannot be executed (exit 126, nothing runs);
* ``kill``  — the command dies as if signalled (exit -1, nothing runs);
* ``delay`` — an induced stall of ``delay`` seconds before the command
  starts (the deadline may expire first, turning it into a timeout).

A :class:`CommandFaultPlan` decides, deterministically from its own
seeded stream, whether a given spawn faults: per-spawn :class:`Flaky`
draws and/or precomputed time windows.  The same plan object drives
:func:`apply_command_faults` (simulation) and :class:`FaultingRealDriver`
(POSIX), so a script sees the same verdict sequence in either world.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.effects import CommandResult
from ..core.errors import SimulationError
from ..simruntime.registry import Quick, at_once, generator_form
from .config import validate_non_negative, validate_positive
from .schedule import FaultSchedule, FaultWindow, Flaky, parse_schedule

#: Fault kinds the shim can express in both runtimes.
KINDS = ("eperm", "kill", "delay")


@dataclass(frozen=True, slots=True)
class CommandFault:
    """One command-fault rule: which commands, what kind, when."""

    command: str                       # argv[0] to match; "*" matches all
    kind: str                          # one of KINDS
    when: "FaultSchedule | Flaky"      # windows or per-spawn probability
    delay: float = 0.0                 # only for kind == "delay"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise SimulationError(
                f"command fault kind must be one of {list(KINDS)}, "
                f"got {self.kind!r}"
            )
        validate_non_negative("CommandFault.delay", self.delay)
        if self.kind == "delay":
            validate_positive("CommandFault.delay", self.delay)

    def matches(self, argv: Sequence[str]) -> bool:
        return bool(argv) and (self.command == "*" or argv[0] == self.command)


class CommandFaultPlan:
    """A deterministic oracle: does this spawn fault, and how?

    Window schedules are materialised up front against ``horizon`` with
    the plan's stream, so the verdict for time ``t`` never depends on how
    often the plan was consulted — the property that keeps the sim and
    real runtimes in agreement.
    """

    def __init__(
        self,
        faults: Sequence[CommandFault],
        seed: int = 0,
        horizon: float = 3600.0,
    ) -> None:
        self.faults = list(faults)
        self.horizon = validate_positive("CommandFaultPlan.horizon", horizon)
        self._rng = random.Random(seed)
        self._windows: list[list[FaultWindow]] = []
        for fault in self.faults:
            if isinstance(fault.when, Flaky):
                self._windows.append([])
            else:
                self._windows.append(list(fault.when.windows(self._rng, horizon)))

    def verdict(self, argv: Sequence[str], now: float) -> Optional[CommandFault]:
        """The first fault striking this spawn at ``now``, if any.

        Flaky rules draw from the plan's stream *only when the command
        matches*, so unrelated commands never advance the sequence.
        """
        for fault, windows in zip(self.faults, self._windows):
            if not fault.matches(argv):
                continue
            if isinstance(fault.when, Flaky):
                if fault.when.strikes(self._rng):
                    return fault
            elif any(w.start <= now < w.end for w in windows):
                return fault
        return None

    def faulted_result(self, fault: CommandFault) -> CommandResult:
        """The result both runtimes report for a non-delay fault."""
        if fault.kind == "eperm":
            return CommandResult(
                exit_code=126,
                detail=f"fault injected: {fault.command}: permission denied",
            )
        return CommandResult(
            exit_code=-1, detail=f"fault injected: {fault.command}: killed"
        )


def parse_command_fault(text: str) -> CommandFault:
    """Parse the CLI grammar ``COMMAND:KIND[:SCHEDULE][:delay=SECONDS]``.

    Examples::

        condor_submit:eperm:flaky:p=0.5
        wget:kill:burst:at=10,duration=30
        sleep:delay:flaky:p=1:delay=2.5

    With no schedule the fault always strikes (``flaky`` with p -> every
    spawn is expressed as a burst over the whole horizon is clumsy, so
    omitting the schedule means "every matching spawn").
    """
    parts = [part.strip() for part in text.strip().split(":")]
    if len(parts) < 2 or not parts[0] or not parts[1]:
        raise SimulationError(
            f"command fault spec must look like COMMAND:KIND[:SCHEDULE]"
            f"[:delay=SECONDS], got {text!r}"
        )
    command, kind, rest = parts[0], parts[1].lower(), parts[2:]
    delay = 0.0
    if rest and rest[-1].startswith("delay="):
        delay_text = rest[-1][len("delay="):]
        try:
            delay = float(delay_text)
        except ValueError:
            raise SimulationError(
                f"fault delay must be a number, got {delay_text!r}"
            ) from None
        rest = rest[:-1]
    when: FaultSchedule | Flaky
    if rest:
        when = parse_schedule(":".join(rest))
    else:
        when = always_schedule()
    return CommandFault(command=command, kind=kind, when=when, delay=delay)


def always_schedule() -> FaultSchedule:
    """A window covering any practical horizon: "every matching spawn"."""
    from .schedule import Burst

    return Burst(at=0.0, duration=1e12)


# ---------------------------------------------------------------------------
# Simulation side
# ---------------------------------------------------------------------------

def apply_command_faults(registry, plan: CommandFaultPlan) -> None:
    """Wrap every handler in ``registry`` with the plan's verdicts.

    Mutates the registry in place (scenario registries are built per run,
    so there is nothing to unwind).  Commands registered *after* this
    call are not wrapped.  A handler's :class:`~repro.simruntime.registry.Quick`
    answer passes through; a ``delay`` fault puts its delay in front of
    the handler, which is then called when the delay ends, as it was
    when every handler was a process body.
    """
    def wrap(handler):
        def faulted(ctx):
            fault = plan.verdict(ctx.argv, ctx.engine.now)
            if fault is None:
                return handler(ctx)
            if fault.kind != "delay":
                return at_once(plan.faulted_result(fault))
            return Quick(fault.delay,
                         lambda: generator_form(handler(ctx), ctx.engine))

        return faulted

    for name in registry.names():
        registry.add(name, wrap(registry.get(name)))


# ---------------------------------------------------------------------------
# Real side
# ---------------------------------------------------------------------------

def make_faulting_real_driver(plan: CommandFaultPlan, **driver_kwargs):
    """A :class:`RealDriver` whose command spawns consult ``plan``.

    Built by composition-in-a-subclass so the import stays local — the
    real runtime is never a dependency of simulation-only users of this
    module.
    """
    import time

    from ..core.realruntime import RealDriver

    class FaultingRealDriver(RealDriver):
        def _run_command(self, effect, cancel_event):
            fault = plan.verdict(effect.argv, self.now())
            if fault is None:
                return super()._run_command(effect, cancel_event)
            if fault.kind != "delay":
                return plan.faulted_result(fault)
            remaining = effect.deadline - self.now()
            if remaining <= 0:
                return CommandResult(exit_code=-1, timed_out=True,
                                     detail="deadline already passed")
            stall = min(fault.delay, max(remaining, 0.0))
            time.sleep(stall)
            if fault.delay >= remaining:
                return CommandResult(
                    exit_code=-1, timed_out=True,
                    detail=f"fault injected: {fault.command}: stalled past deadline",
                )
            return super()._run_command(effect, cancel_event)

    return FaultingRealDriver(**driver_kwargs)
