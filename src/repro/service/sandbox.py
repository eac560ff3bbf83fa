"""Admission control: what the service agrees to run, and under what caps.

Budgets are enforced *by the sim*, not by trusting the submitter: a
script runs under :meth:`repro.sim.Engine.run_budgeted` (event cap +
simulated-time horizon), campaigns are bounded in cell count and
per-cell duration at admission, and the seed can be pinned by policy so
a tenant cannot shop for a lucky stream.  ``ftshlint`` runs at
admission too — the service front door rejects the patterns the paper
says bring grids down, before they cost a single simulated second.

Rejections are typed (:class:`SandboxRejection` with a stable ``code``)
so the HTTP layer can map them to 4xx responses and tests can assert on
causes rather than message text.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from ..core.errors import BudgetExceeded, FtshSyntaxError
from ..core.parser import parse_cached
from ..experiments.population import Population
from ..grid.condor import CondorWorld, register_condor_commands
from ..grid.httpserver import ReplicaWorld, register_replica_commands
from ..grid.storage import BufferWorld, register_buffer_commands
from ..lint.diagnostics import Severity
from ..lint.engine import LintConfig, lint_script
from ..parallel.executor import CellSpec
from .schemas import CampaignSubmission, ScriptOutcome, ScriptSubmission


@dataclass(frozen=True)
class SandboxPolicy:
    """Per-submission budgets; one policy governs a whole server.

    ``pinned_seed`` (when set) overwrites every submission's seed — the
    multi-tenant posture where results are comparable across tenants and
    nobody can fish for favourable randomness.  ``lint_warn_as_error``
    is the ``-W error`` admission gate.
    """

    max_script_bytes: int = 64 * 1024
    max_sim_seconds: float = 3600.0
    max_events: int = 2_000_000
    max_cells: int = 64
    wall_budget: float = 120.0
    pinned_seed: Optional[int] = None
    lint: bool = True
    lint_warn_as_error: bool = False


class SandboxRejection(Exception):
    """A submission the sandbox refused to run.

    ``code`` is stable: ``syntax``, ``lint``, ``budget``, ``unknown``
    (bad scenario/world/discipline/fault names) or ``invalid``.
    ``details`` carries structured context (e.g. lint diagnostics as
    GCC-style strings).
    """

    def __init__(self, code: str, message: str,
                 details: Optional[list[str]] = None) -> None:
        self.code = code
        self.details = list(details or [])
        super().__init__(message)


#: Simulated worlds a script may run against, by name.
SCRIPT_WORLDS = ("condor", "replica", "buffer")


# ---------------------------------------------------------------------------
# Admission
# ---------------------------------------------------------------------------

def admit_script(submission: ScriptSubmission,
                 policy: SandboxPolicy) -> ScriptSubmission:
    """Validate and normalize one script submission.

    Returns the (possibly rewritten) submission the job store should
    run: the sim window is clamped into the policy budget and the seed
    is pinned when the policy says so.  Raises
    :class:`SandboxRejection` otherwise.
    """
    if len(submission.script.encode()) > policy.max_script_bytes:
        raise SandboxRejection(
            "budget",
            f"script exceeds {policy.max_script_bytes} bytes",
        )
    if submission.world not in SCRIPT_WORLDS:
        raise SandboxRejection(
            "unknown",
            f"unknown world {submission.world!r} "
            f"(expected one of {', '.join(SCRIPT_WORLDS)})",
        )
    if submission.timeout is not None and submission.timeout <= 0:
        raise SandboxRejection("invalid", "timeout must be positive")
    window = submission.timeout
    if window is None or window > policy.max_sim_seconds:
        window = policy.max_sim_seconds

    try:
        script = parse_cached(submission.script)
    except (FtshSyntaxError, RecursionError) as exc:
        raise SandboxRejection("syntax", f"script does not parse: {exc}")

    if policy.lint:
        config = LintConfig(
            warn_as_error=policy.lint_warn_as_error,
            assume_defined=frozenset(name for name, _ in
                                     submission.variables),
        )
        diagnostics = lint_script(script, submission.script,
                                  source_name="<submission>", config=config)
        errors = [d for d in diagnostics if d.severity is Severity.ERROR]
        if errors:
            raise SandboxRejection(
                "lint",
                f"script rejected by ftshlint ({len(errors)} error(s))",
                details=[d.gcc() for d in diagnostics],
            )

    seed = (policy.pinned_seed if policy.pinned_seed is not None
            else submission.seed)
    # Variable order is irrelevant to execution; sorting it here means
    # reordered twins normalize to the same content-addressed job id.
    return dataclasses.replace(
        submission, timeout=window, seed=seed,
        variables=tuple(sorted(submission.variables)))


def admit_campaign(submission: CampaignSubmission,
                   policy: SandboxPolicy) -> CampaignSubmission:
    """Validate and normalize one campaign submission."""
    from ..clients.base import ALL_DISCIPLINES
    from ..experiments.chaos import FAULT_BY_NAME, LEVELS, SCALES, SCENARIOS

    if submission.scenario not in SCENARIOS:
        raise SandboxRejection(
            "unknown",
            f"unknown scenario {submission.scenario!r} "
            f"(expected one of {', '.join(sorted(SCENARIOS))})",
        )
    known = {d.name for d in ALL_DISCIPLINES}
    for name in submission.disciplines:
        if name not in known:
            raise SandboxRejection(
                "unknown",
                f"unknown discipline {name!r} "
                f"(expected one of {', '.join(sorted(known))})",
            )
    if len(set(submission.disciplines)) != len(submission.disciplines):
        raise SandboxRejection("invalid", "duplicate disciplines")
    if submission.fault is not None:
        fault_class = FAULT_BY_NAME.get(submission.fault)
        if fault_class is None:
            raise SandboxRejection(
                "unknown",
                f"unknown fault class {submission.fault!r} "
                f"(expected one of {', '.join(sorted(FAULT_BY_NAME))})",
            )
        if fault_class.scenario != submission.scenario:
            raise SandboxRejection(
                "invalid",
                f"fault {submission.fault!r} targets scenario "
                f"{fault_class.scenario!r}, not {submission.scenario!r}",
            )
        if not submission.levels:
            raise SandboxRejection(
                "invalid", "a fault needs at least one intensity level")
    if submission.levels and submission.fault is None:
        raise SandboxRejection("invalid", "levels given without a fault")
    for level in submission.levels:
        if level not in LEVELS:
            raise SandboxRejection(
                "invalid", f"intensity level {level} outside "
                f"{LEVELS[0]}..{LEVELS[-1]}")
    if len(set(submission.levels)) != len(submission.levels):
        raise SandboxRejection("invalid", "duplicate intensity levels")
    if submission.scale not in SCALES:
        raise SandboxRejection(
            "unknown",
            f"unknown scale {submission.scale!r} "
            f"(expected one of {', '.join(sorted(SCALES))})",
        )

    scale = SCALES[submission.scale]
    numeric_fields = {
        f.name for f in dataclasses.fields(scale) if f.name != "name"
        and f.name != "levels"
    }
    for name, value in submission.overrides:
        if name not in numeric_fields:
            raise SandboxRejection(
                "invalid",
                f"override {name!r} is not a scale field "
                f"(expected one of {', '.join(sorted(numeric_fields))})",
            )
        if not isinstance(getattr(scale, name), int):
            continue
        # A count of clients or producers: each is a shell and a process
        # built before the cell's first event, so the largest shipped
        # scale's count bounds a cell's memory.
        ceiling = max(getattr(named, name) for named in SCALES.values())
        if not float(value).is_integer() or value < 1:
            raise SandboxRejection(
                "invalid", f"{name} must be a whole number >= 1, "
                           f"got {value:g}")
        if value > ceiling:
            raise SandboxRejection(
                "budget", f"{name}={value:g} exceeds {ceiling}, the most "
                          "any chaos scale runs")
    scale = build_scale(submission)
    for field_ in dataclasses.fields(scale):
        if field_.name.endswith("_duration"):
            duration = getattr(scale, field_.name)
            if duration <= 0:
                raise SandboxRejection(
                    "invalid", f"{field_.name} must be positive")
            if duration > policy.max_sim_seconds:
                raise SandboxRejection(
                    "budget",
                    f"{field_.name}={duration:g}s exceeds the "
                    f"{policy.max_sim_seconds:g}s simulated-time budget",
                )

    n_cells = len(submission.disciplines) * (1 + len(submission.levels))
    if n_cells > policy.max_cells:
        raise SandboxRejection(
            "budget",
            f"campaign is {n_cells} cells; policy allows "
            f"{policy.max_cells}",
        )

    seed = (policy.pinned_seed if policy.pinned_seed is not None
            else submission.seed)
    # Chaos's own order (``campaign_cells``): levels ascending, the
    # disciplines as ``ALL_DISCIPLINES`` lists them.  Reordered twins
    # normalize to one job id, and the result lists its cells in this
    # order whatever order the submission named them in.
    return dataclasses.replace(
        submission, seed=seed, levels=tuple(sorted(submission.levels)),
        disciplines=tuple(d.name for d in ALL_DISCIPLINES
                          if d.name in submission.disciplines))


def build_scale(submission: CampaignSubmission):
    """The ChaosScale a campaign runs at: named scale + overrides."""
    from ..experiments.chaos import SCALES

    scale = SCALES[submission.scale]
    overrides = {}
    for name, value in submission.overrides:
        current = getattr(scale, name)
        overrides[name] = type(current)(value)
    if overrides:
        overrides["name"] = (f"{submission.scale}+"
                             + ",".join(sorted(overrides)))
        scale = dataclasses.replace(scale, **overrides)
    return scale


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------

def _world_counters(world) -> tuple[tuple[str, float], ...]:
    """The substrate's headline counters, flattened for the outcome."""
    rows: list[tuple[str, float]] = []
    schedd = getattr(world, "schedd", None)
    if schedd is not None:
        rows += [
            ("jobs_submitted", float(schedd.jobs_submitted.count)),
            ("crashes", float(schedd.crashes.count)),
            ("refused", float(schedd.refused.count)),
            ("emfile", float(schedd.emfile.count)),
        ]
    for name in ("transfers", "collisions", "deferrals"):
        counter = getattr(world, name, None)
        if counter is not None:
            rows.append((name, float(counter.count)))
    buffer = getattr(world, "buffer", None)
    if buffer is not None:
        for name in ("files_stored", "files_consumed", "collisions"):
            counter = getattr(buffer, name, None)
            if counter is not None:
                rows.append((name, float(counter.count)))
    return tuple(rows)


def _build_world(kind: str, population: Population):
    """The ``kind`` world on ``population``, its commands registered."""
    engine, registry = population.engine, population.registry
    if kind == "condor":
        world = CondorWorld(engine)
        register_condor_commands(registry, world)
        return world
    if kind == "replica":
        world = ReplicaWorld(engine)
        register_replica_commands(registry, world)
        return world
    world = BufferWorld(engine)
    register_buffer_commands(registry, world)
    world.start_consumer()
    return world


def run_script_cell(
    script: str,
    variables: tuple[tuple[str, str], ...],
    world: str,
    window: float,
    seed: int,
    max_events: int,
) -> ScriptOutcome:
    """Run one admitted script inside the sim, under budget.

    A pure function of its arguments — module-level so the executor can
    cache it under a content hash and ship it to workers.  The event cap
    and the horizon are enforced by :meth:`Engine.run_budgeted`; the
    horizon sits one window past the script's own deadline so the
    script's *own* timeout machinery fires first and a budget overrun
    only triggers on runaway event churn.
    """
    population = Population(seed)
    engine = population.engine
    world_obj = _build_world(world, population)
    shell = population.shell("service", world_obj,
                             rng=population.streams.stream("service-client"))
    process = shell.spawn(script, variables=dict(variables), timeout=window)
    try:
        result, events = engine.run_budgeted(
            process, max_events=max_events, horizon=window * 2.0)
    except BudgetExceeded as exc:
        return ScriptOutcome(
            success=False,
            reason=str(exc),
            timed_out=False,
            sim_elapsed=engine.now,
            events=exc.events,
            counters=_world_counters(world_obj),
            budget_exceeded=exc.budget,
        )
    else:
        return ScriptOutcome(
            success=result.success,
            reason=result.reason,
            timed_out=result.timed_out,
            sim_elapsed=result.elapsed,
            events=events,
            counters=_world_counters(world_obj),
        )
    finally:
        engine.close()  # once the outcome, counters and all, is built


def cells_for(submission, policy: SandboxPolicy) -> list[CellSpec]:
    """The executor cells an *admitted* submission fans out to."""
    if isinstance(submission, ScriptSubmission):
        return [CellSpec(
            key="service/script",
            fn=run_script_cell,
            args=(submission.script, submission.variables, submission.world,
                  submission.timeout, submission.seed, policy.max_events),
        )]
    from ..experiments.chaos import ChaosParams

    scale = build_scale(submission)
    grid = [(None, 0)] + [(submission.fault, level)
                          for level in submission.levels]
    return [ChaosParams(submission.scenario, discipline, fault, level, scale,
                        submission.seed).cell()
            for fault, level in grid for discipline in submission.disciplines]
