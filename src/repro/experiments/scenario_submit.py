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
from ..core.parser import parse_cached
from ..faults.injectors import FaultSpec
from ..grid.condor import CondorConfig, CondorWorld, register_condor_commands
from ..sim.monitor import TimeSeries, sample
from .population import Population


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
    #: Injected faults (schedd crashes, FD squeezes); resolved by
    #: :func:`repro.faults.injectors.install_faults` against this world.
    faults: tuple[FaultSpec, ...] = ()
    #: Optional :class:`repro.obs.Observability`: the run installs the
    #: engine clock on it and registers the substrate's counters and
    #: live gauges, read when the registry is exported.
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


def run_submission(params: SubmitParams) -> SubmitResult:
    """Run the scenario and collect Figure-1/2/3 measurements."""
    population = Population(params.seed, params.obs)
    world = CondorWorld(population.engine, params.condor, obs=population.obs)
    register_condor_commands(population.registry, world)
    population.install_faults(params.faults, params.duration,
                              schedd=world.schedd, fdtable=world.fdtable)

    # One parsed script shared by every client's every run.
    script = parse_cached(
        submit_script(
            params.discipline,
            window=min(params.script_window, params.duration),
            carrier_threshold=params.carrier_threshold,
        )
    )

    fd_series = TimeSeries("available-fds")
    sample(
        population.engine,
        params.sample_interval,
        lambda: world.fdtable.free,
        fd_series,
        until=params.duration,
    )

    backoffs = population.run(
        params.n_clients, "submitter-{}", world, params.discipline.policy,
        lambda index: (script, None), params.duration)

    return SubmitResult(
        params=params,
        jobs_submitted=world.schedd.jobs_submitted.count,
        crashes=world.schedd.crashes.count,
        emfile_failures=world.schedd.emfile.count,
        refused=world.schedd.refused.count,
        backoffs=backoffs,
        fd_series=fd_series,
        jobs_series=world.schedd.jobs_submitted.series,
        final_free_fds=world.fdtable.free,
    )
