"""SimFtsh: run ftsh scripts as simulation processes.

Each simulated client in the paper's scenarios is one (or a loop of)
ftsh script execution.  :class:`SimFtsh` packages scope/log/interpreter
construction so scenario code stays at the level of the paper's listings::

    shell = SimFtsh(engine, registry, world=world, rng=streams.stream("c1"))
    process = shell.spawn(AL0HA_SUBMIT_SCRIPT)   # a sim Process
    ...
    engine.run(until=horizon)
"""

from __future__ import annotations

import random
from typing import Any, Mapping, Optional

from ..core.ast_nodes import Script
from ..core.backoff import BackoffPolicy, PAPER_POLICY
from ..core.compile import compile_cached
from ..core.errors import FtshCancelled, FtshFailure, FtshTimeout
from ..core.interpreter import Interpreter
from ..core.parser import parse_cached
from ..core.shell import RunResult
from ..core.shell_log import ShellLog
from ..obs.api import NULL_OBS
from ..core.timeline import UNBOUNDED
from ..core.variables import Scope
from ..sim.engine import Engine
from ..sim.process import Process
from .driver import SimDriver
from .registry import CommandRegistry


class SimFtsh:
    """A fault tolerant shell whose world is a simulation."""

    def __init__(
        self,
        engine: Engine,
        registry: CommandRegistry,
        world: Any = None,
        rng: Optional[random.Random] = None,
        policy: BackoffPolicy = PAPER_POLICY,
        name: str = "ftsh",
        log: Optional[ShellLog] = None,
        max_parallel: Optional[int] = None,
        obs: Any = None,
    ) -> None:
        self.engine = engine
        self.driver = SimDriver(engine, registry, world=world, rng=rng,
                                client=name, max_parallel=max_parallel,
                                obs=obs)
        self.policy = policy
        self.name = name
        #: Shared across runs so a scenario can count events per client.
        self.log = log if log is not None else ShellLog(clock=lambda: engine.now)
        #: Telemetry context, stamped with the engine's virtual clock.
        self.obs = obs if obs is not None else NULL_OBS
        self.obs.set_clock(lambda: engine.now)

    # ------------------------------------------------------------------
    def spawn(
        self,
        script: str | Script,
        variables: Optional[Mapping[str, str]] = None,
        timeout: Optional[float] = None,
    ) -> Process:
        """Start the script as a sim process.

        The process' value is a :class:`RunResult` — it never fails, so
        scenario loops can inspect success/failure without try/except.
        """
        if isinstance(script, str):
            script = parse_cached(script)
        target: Any = script
        if isinstance(script, Script):
            target = compile_cached(script)
        scope = Scope(dict(variables or {}))
        interpreter = Interpreter(scope=scope, policy=self.policy, log=self.log,
                                  obs=self.obs)
        deadline = UNBOUNDED if timeout is None else self.engine.now + timeout
        generator = interpreter.execute(target, overall_deadline=deadline)
        return self.engine.process(
            self._wrap(generator, scope), name=f"{self.name}:script"
        )

    def run(
        self,
        script: str | Script,
        variables: Optional[Mapping[str, str]] = None,
        timeout: Optional[float] = None,
    ) -> RunResult:
        """Run to completion, advancing the simulation clock as needed."""
        process = self.spawn(script, variables, timeout)
        return self.engine.run(until=process)

    # ------------------------------------------------------------------
    def _wrap(self, generator, scope: Scope):
        start = self.engine.now
        outcome = yield from self.driver._drive(generator)
        elapsed = self.engine.now - start
        if outcome is None:
            return RunResult(True, None, scope.flatten(), self.log, elapsed)
        if isinstance(outcome, FtshTimeout):
            return RunResult(
                False, outcome.reason, scope.flatten(), self.log, elapsed, timed_out=True
            )
        if isinstance(outcome, FtshCancelled):
            return RunResult(
                False, outcome.reason, scope.flatten(), self.log, elapsed, cancelled=True
            )
        assert isinstance(outcome, FtshFailure)
        return RunResult(False, outcome.reason, scope.flatten(), self.log, elapsed)
