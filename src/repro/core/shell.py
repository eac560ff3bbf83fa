"""The user-facing entry point: parse a script and run it under a driver.

::

    from repro import Ftsh

    shell = Ftsh()
    result = shell.run('''
        try for 30 seconds
            sh -c "exit 1"
        catch
            echo giving up
        end
    ''')
    assert result.success

A single :class:`Ftsh` may run many scripts; each run gets a fresh
variable scope seeded from ``variables`` and a fresh log (available on
the returned :class:`RunResult`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from .ast_nodes import Script
from .backoff import BackoffPolicy, PAPER_POLICY
from .compile import compile_cached
from .errors import FtshCancelled, FtshFailure, FtshTimeout
from .interpreter import Interpreter
from ..obs.api import NULL_OBS
from .parser import parse, parse_cached
from .realruntime import DEADLINE_ENV, RealDriver
from .shell_log import ShellLog
from .timeline import UNBOUNDED
from .variables import Scope, SpoolPolicy


@dataclass(slots=True)
class RunResult:
    """Outcome of one script execution."""

    success: bool
    reason: Optional[str]
    variables: dict[str, str]
    log: ShellLog
    elapsed: float
    timed_out: bool = False
    cancelled: bool = False

    def __bool__(self) -> bool:
        return self.success


class Ftsh:
    """The fault tolerant shell, bound to a driver.

    Args:
        driver: anything with ``run(generator)``, ``now()`` and the effect
            contract (default: a fresh :class:`RealDriver`).
        policy: backoff schedule for every ``try`` (default: the paper's
            1 s / x2 / 1 h / jitter [1,2) schedule).
        honor_deadline_env: when True (default), a deadline exported by a
            parent ftsh through ``FTSH_DEADLINE_EPOCH`` bounds every run —
            this is how nested shells shut down before their parents kill
            them (paper §4).
        obs: an :class:`~repro.obs.Observability` collecting spans and
            metrics across runs (default: disabled).  The shell installs
            the driver's clock on it, so timestamps are seconds since the
            driver started — the same timebase as the ShellLog.
    """

    def __init__(
        self,
        driver: Optional[Any] = None,
        policy: BackoffPolicy = PAPER_POLICY,
        honor_deadline_env: bool = True,
        spool: Optional[SpoolPolicy] = None,
        log_level: Optional[int] = None,
        obs: Any = None,
    ) -> None:
        self.driver = driver if driver is not None else RealDriver()
        self.policy = policy
        self.honor_deadline_env = honor_deadline_env
        #: Filesystem policy for large variable values (paper §4).
        self.spool = spool
        #: ShellLog verbosity (LOG_RESULTS / LOG_COMMANDS / LOG_TRACE).
        self.log_level = log_level
        #: Telemetry context shared by every run of this shell.
        self.obs = obs if obs is not None else NULL_OBS
        self.obs.set_clock(self.driver.now)

    # ------------------------------------------------------------------
    @staticmethod
    def parse(text: str, source_name: str = "<script>") -> Script:
        """Parse without running (raises :class:`FtshSyntaxError`)."""
        return parse(text, source_name)

    # ------------------------------------------------------------------
    def run(
        self,
        script: str | Script,
        variables: Optional[Mapping[str, str]] = None,
        timeout: Optional[float] = None,
    ) -> RunResult:
        """Execute ``script`` and report the outcome.

        ``timeout`` bounds the whole run in seconds (on top of any
        inherited ``FTSH_DEADLINE_EPOCH``).
        """
        if isinstance(script, str):
            script = parse_cached(script)
        target: Any = script
        if isinstance(script, Script):
            target = compile_cached(script)

        scope = Scope(dict(variables or {}), spool=self.spool)
        if self.log_level is None:
            log = ShellLog(clock=self.driver.now)
        else:
            log = ShellLog(clock=self.driver.now, level=self.log_level)
        interpreter = Interpreter(scope=scope, policy=self.policy, log=log,
                                  obs=self.obs)

        start = self.driver.now()
        deadline = UNBOUNDED if timeout is None else start + timeout
        deadline = min(deadline, self._inherited_deadline(start))

        generator = interpreter.execute(target, overall_deadline=deadline)
        outcome = self.driver.run(generator)
        elapsed = self.driver.now() - start

        if outcome is None:
            return RunResult(True, None, scope.flatten(), log, elapsed)
        if isinstance(outcome, FtshTimeout):
            return RunResult(False, outcome.reason, scope.flatten(), log, elapsed, timed_out=True)
        if isinstance(outcome, FtshCancelled):
            return RunResult(False, outcome.reason, scope.flatten(), log, elapsed, cancelled=True)
        assert isinstance(outcome, FtshFailure)
        return RunResult(False, outcome.reason, scope.flatten(), log, elapsed)

    # ------------------------------------------------------------------
    def _inherited_deadline(self, start: float) -> float:
        """Deadline handed down by a parent ftsh process, in driver time."""
        if not self.honor_deadline_env:
            return UNBOUNDED
        raw = os.environ.get(DEADLINE_ENV)
        if not raw:
            return UNBOUNDED
        try:
            epoch_deadline = float(raw)
        except ValueError:
            return UNBOUNDED
        remaining = epoch_deadline - time.time()
        return start + max(remaining, 0.0)
