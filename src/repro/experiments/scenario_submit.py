"""Scenario 1 harness: N submitters vs one schedd (Figures 1-3).

Each client is a loop of ftsh script executions (one work unit per run,
as in the paper's listings), staggered at start by a fraction of a
second so 400 clients don't act in artificial lockstep.  Throughput is
the schedd's job counter; the FD timeline is sampled every
``sample_interval`` seconds, which is how the paper's "Available FDs"
line is drawn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..clients.base import Discipline
from ..clients.scripts import submit_script
from ..core.compile import compile_cached
from ..core.parser import parse_cached
from ..core.shell_log import ShellLog
from ..faults.injectors import FaultSpec, install_faults
from ..grid.condor import CondorConfig, CondorWorld, register_condor_commands
from ..obs.api import NULL_OBS
from ..obs.clock import engine_clock
from ..obs.metrics import sample_gauges
from ..sim.engine import Engine
from ..sim.monitor import TimeSeries, sample
from ..sim.rng import RandomStreams
from ..simruntime.registry import CommandRegistry
from ..simruntime.shell import SimFtsh


@dataclass(slots=True)
class SubmitParams:
    """Configuration of one submission run."""

    discipline: Discipline
    n_clients: int
    duration: float = 300.0
    script_window: float = 300.0
    carrier_threshold: int = 1000
    condor: CondorConfig = field(default_factory=CondorConfig)
    seed: int = 2003
    sample_interval: float = 5.0
    log_cap: int = 50_000
    #: Injected faults (schedd crashes, FD squeezes); resolved by
    #: :func:`repro.faults.injectors.install_faults` against this world.
    faults: tuple[FaultSpec, ...] = ()
    #: Optional :class:`repro.obs.Observability`: the run installs the
    #: engine clock on it, mirrors substrate counters into its registry,
    #: and samples the live gauges every ``sample_interval`` seconds.
    obs: Any = None


@dataclass(slots=True)
class SubmitResult:
    """Outcome of one submission run."""

    params: SubmitParams
    jobs_submitted: int
    crashes: int
    emfile_failures: int
    refused: int
    backoffs: int
    fd_series: TimeSeries
    jobs_series: TimeSeries
    final_free_fds: int


def _client_loop(
    engine: Engine,
    shell: SimFtsh,
    script,
    duration: float,
    stagger: float,
):
    """One submitter: staggered start, then work units back to back."""
    if stagger > 0:
        yield engine.timeout(stagger)
    while engine.now < duration:
        process = shell.spawn(script, timeout=duration - engine.now)
        yield process  # value is a RunResult; success/failure both loop


def run_submission(params: SubmitParams) -> SubmitResult:
    """Run the scenario and collect Figure-1/2/3 measurements."""
    streams = RandomStreams(params.seed)
    engine = Engine(streams=streams)
    obs = params.obs if params.obs is not None else NULL_OBS
    obs.set_clock(engine_clock(engine))
    world = CondorWorld(engine, params.condor, obs=obs)
    registry = CommandRegistry()
    register_condor_commands(registry, world)
    install_faults(engine, params.faults, streams=streams,
                   horizon=params.duration,
                   schedd=world.schedd, fdtable=world.fdtable)
    if obs.enabled:
        sample_gauges(obs.metrics, engine, params.sample_interval,
                      until=params.duration)

    # One compiled plan shared by every client's every run.
    script = compile_cached(parse_cached(
        submit_script(
            params.discipline,
            window=min(params.script_window, params.duration),
            carrier_threshold=params.carrier_threshold,
        )
    ))

    fd_series = TimeSeries("available-fds")
    sample(
        engine,
        params.sample_interval,
        lambda: world.fdtable.free,
        fd_series,
        until=params.duration,
    )

    shared_log = ShellLog(clock=lambda: engine.now, max_events=params.log_cap)
    for index in range(params.n_clients):
        name = f"submitter-{index}"
        shell = SimFtsh(
            engine,
            registry,
            world=world,
            rng=streams.stream(name),
            policy=params.discipline.policy,
            name=name,
            log=shared_log,
            obs=obs,
        )
        stagger = streams.stream(f"stagger-{index}").uniform(0.0, 1.0)
        engine.process(
            _client_loop(engine, shell, script, params.duration, stagger),
            name=name,
        )

    engine.run(until=params.duration)

    return SubmitResult(
        params=params,
        jobs_submitted=world.schedd.jobs_submitted.count,
        crashes=world.schedd.crashes.count,
        emfile_failures=world.schedd.emfile.count,
        refused=world.schedd.refused.count,
        backoffs=shared_log.backoff_initiations(),
        fd_series=fd_series,
        jobs_series=world.schedd.jobs_submitted.series,
        final_free_fds=world.fdtable.free,
    )
