"""Post-mortem analysis of ftsh execution logs.

The paper, §4: "While executing a script, ftsh keeps a log of varying
detail about the program.  Online or post-mortem analysis may determine
more detailed reasons for process failure, the exact resources used to
execute the program, the frequency of each failure branch, and so forth."

:func:`analyze` digests a :class:`~repro.core.shell_log.ShellLog` into a
:class:`LogAnalysis`: per-command success/failure/timeout counts and
durations, backoff totals (the administrator's overload signal, §5),
``forany`` branch frequencies, and the retry depth of each ``try``.
It reads the log's events, so it needs a transcript: a counter (the
default log, ``max_events=0``) is refused rather than reported empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from .shell_log import EventKind, ShellLog


@dataclass(slots=True)
class CommandStats:
    """Aggregated outcomes of one command name."""

    name: str
    runs: int = 0
    succeeded: int = 0
    failed: int = 0
    timed_out: int = 0
    total_duration: float = 0.0
    _timed_runs: int = 0

    @property
    def failure_rate(self) -> float:
        return (self.failed + self.timed_out) / self.runs if self.runs else 0.0

    @property
    def mean_duration(self) -> float:
        return self.total_duration / self._timed_runs if self._timed_runs else 0.0


@dataclass(slots=True)
class LogAnalysis:
    """The digest :func:`analyze` produces."""

    commands: dict[str, CommandStats] = field(default_factory=dict)
    #: forany variable=value -> times picked.
    branch_picks: dict[str, int] = field(default_factory=dict)
    backoff_count: int = 0
    backoff_total_wait: float = 0.0
    backoff_max_wait: float = 0.0
    try_attempts: int = 0
    try_successes: int = 0
    try_exhaustions: int = 0
    catches_entered: int = 0
    script_results: dict[str, int] = field(default_factory=dict)

    @property
    def overloaded(self) -> bool:
        """The administrator alarm: did any client have to back off?

        §5: "The initiation of Ethernet protocols to deal with contention
        should be logged and noted to administrators so that persistent
        overloads may be accommodated."
        """
        return self.backoff_count > 0

    def report(self) -> str:
        """Human-readable digest."""
        lines = ["ftsh post-mortem analysis"]
        lines.append(
            f"  scripts: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.script_results.items()))
            if self.script_results
            else "  scripts: (none finished)"
        )
        lines.append(
            f"  try: attempts={self.try_attempts} successes={self.try_successes} "
            f"exhaustions={self.try_exhaustions} catches={self.catches_entered}"
        )
        lines.append(
            f"  backoff: initiations={self.backoff_count} "
            f"total_wait={self.backoff_total_wait:.3f}s "
            f"max_wait={self.backoff_max_wait:.3f}s "
            f"{'** OVERLOAD SIGNAL **' if self.overloaded else ''}".rstrip()
        )
        if self.commands:
            lines.append("  commands (name runs ok fail timeout fail% mean-s):")
            for stats in sorted(self.commands.values(), key=lambda s: -s.runs):
                lines.append(
                    f"    {stats.name:<24} {stats.runs:>6} {stats.succeeded:>6} "
                    f"{stats.failed:>6} {stats.timed_out:>7} "
                    f"{100 * stats.failure_rate:>5.1f} {stats.mean_duration:>7.3f}"
                )
        if self.branch_picks:
            lines.append("  forany branch frequencies:")
            for pick, count in sorted(self.branch_picks.items(),
                                      key=lambda kv: -kv[1]):
                lines.append(f"    {pick:<30} {count}")
        return "\n".join(lines)


def _command_name(detail: str) -> str:
    return detail.split(None, 1)[0] if detail else "?"


def analyze(log: ShellLog) -> LogAnalysis:
    """Digest ``log`` (see module docstring); ``ValueError`` on a counter."""
    if not log.max_events:
        raise ValueError("analyze needs a transcript; this log keeps no "
                         "events (max_events=0)")
    analysis = LogAnalysis()
    #: command name -> stack of start times (commands can nest via forall).
    starts: dict[str, list[float]] = {}

    def stats_for(name: str) -> CommandStats:
        if name not in analysis.commands:
            analysis.commands[name] = CommandStats(name)
        return analysis.commands[name]

    for event in log.events:
        kind = event.kind
        if kind is EventKind.COMMAND_START:
            name = _command_name(event.detail)
            stats_for(name).runs += 1
            starts.setdefault(name, []).append(event.time)
        elif kind in (EventKind.COMMAND_END, EventKind.COMMAND_FAILED,
                      EventKind.COMMAND_TIMEOUT):
            name = _command_name(event.detail)
            stats = stats_for(name)
            if kind is EventKind.COMMAND_END:
                stats.succeeded += 1
            elif kind is EventKind.COMMAND_FAILED:
                stats.failed += 1
            else:
                stats.timed_out += 1
            pending = starts.get(name)
            if pending:
                stats.total_duration += event.time - pending.pop()
                stats._timed_runs += 1
        elif kind is EventKind.TRY_BACKOFF:
            analysis.backoff_count += 1
            if event.value is not None:
                analysis.backoff_total_wait += event.value
                analysis.backoff_max_wait = max(analysis.backoff_max_wait, event.value)
        elif kind is EventKind.TRY_ATTEMPT:
            analysis.try_attempts += 1
        elif kind is EventKind.TRY_SUCCESS:
            analysis.try_successes += 1
        elif kind is EventKind.TRY_EXHAUSTED:
            analysis.try_exhaustions += 1
        elif kind is EventKind.CATCH_ENTERED:
            analysis.catches_entered += 1
        elif kind is EventKind.FORANY_PICK:
            analysis.branch_picks[event.detail] = (
                analysis.branch_picks.get(event.detail, 0) + 1
            )
        elif kind is EventKind.SCRIPT_RESULT:
            verdict = event.detail.split(":", 1)[0]
            analysis.script_results[verdict] = (
                analysis.script_results.get(verdict, 0) + 1
            )
    return analysis
