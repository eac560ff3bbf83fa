"""Request/response models for the service plane.

Plain frozen dataclasses, declared once: :mod:`repro.service.codec`
reads their field annotations to decode a request body (``POST
/scripts``, ``POST /campaigns``) and every reply the client reads,
and to encode each of them on the way out — no framework types, no
hand-written round-trips.  The decoder's normalisations (an integer
``timeout`` stored as a float, ``variables`` and ``overrides`` sorted
by name, ``null`` or an absent key read as the default, unknown keys
ignored) are what make job ids deterministic: :func:`job_id_for` hashes
the :func:`repro.parallel.cache.canonical_json` of the decoded
submission, so two spellings of one submission are the same job, the
same cache entry and the same result.  A script cell's
:class:`ScriptOutcome` reaches the wire inside a :class:`JobResult`,
through :func:`repro.parallel.transport.to_jsonable`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Optional

from ..parallel.cache import canonical, canonical_json
from .codec import EMPTY_IS_DEFAULT, POSITIVE


# ---------------------------------------------------------------------------
# Submissions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScriptSubmission:
    """One ftsh script to run against a simulated grid world.

    ``world`` picks which substrate's commands are registered (the
    paper's three scenarios): ``condor`` (``condor_submit``, the FD
    probe), ``replica`` (``wget``), or ``buffer`` (``produce_output``/
    ``store_output``/``df_estimate``).  ``timeout`` bounds the script in
    *simulated* seconds; ``seed`` feeds the run's named random streams,
    so a submission is a pure function of this object.
    """

    script: str
    variables: tuple[tuple[str, str], ...] = ()
    world: str = "condor"
    timeout: Optional[float] = field(default=None, metadata=POSITIVE)
    seed: int = 2003


@dataclass(frozen=True)
class CampaignSubmission:
    """One campaign: a grid of chaos-campaign cells to fan out.

    The cells are exactly :func:`repro.experiments.chaos.run_cell`
    calls — scenario x discipline x (fault, level) at a named scale —
    so a submitted campaign is byte-identical to running the same grid
    through :func:`repro.parallel.run_cells` directly, and shares its
    cache entries with local runs.  ``overrides`` adjusts numeric scale
    fields (durations, client counts) for bounded submissions; the
    sandbox checks them against policy.
    """

    scenario: str
    disciplines: tuple[str, ...] = field(
        default=("fixed", "aloha", "ethernet"), metadata=EMPTY_IS_DEFAULT)
    fault: Optional[str] = None
    levels: tuple[int, ...] = ()
    scale: str = "smoke"
    seed: int = 2003
    overrides: tuple[tuple[str, float], ...] = ()


#: Either submission kind (what the job store accepts), by the route
#: that takes it: ``POST /scripts``, ``POST /campaigns``.
SUBMISSION_ROUTES = {"scripts": ScriptSubmission,
                     "campaigns": CampaignSubmission}


def job_id_for(submission, fingerprint: str) -> str:
    """The deterministic, content-addressed job id.

    Same recipe as the result cache: sha256 over the canonical JSON of
    the (normalized) submission plus the repo code fingerprint.  Identical
    submissions — after sandbox normalization — always map to the same
    job, which is what makes dedupe and warm-cache serves automatic.
    """
    doc = {
        "submission": canonical(submission),
        "code": fingerprint,
    }
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Status / results
# ---------------------------------------------------------------------------

#: Job lifecycle states, in order.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can never leave.
TERMINAL = frozenset({DONE, FAILED, CANCELLED})


@dataclass(frozen=True)
class JobEvent:
    """One entry of a job's incremental status stream."""

    seq: int
    ts: float
    state: str
    message: str = ""


@dataclass(frozen=True)
class EventsReply:
    """What ``GET /jobs/{id}/events`` reports: the events with ``seq``
    past the asked one, and the ``seq`` to ask from next."""

    job_id: str
    events: tuple[JobEvent, ...]
    next: int


@dataclass(frozen=True)
class JobStatus:
    """Everything ``GET /jobs/{id}`` reports."""

    job_id: str
    kind: str
    state: str
    created: float
    started: Optional[float] = None
    finished: Optional[float] = None
    deduped: bool = False
    cache_hit: Optional[bool] = None
    cells: int = 0
    error: Optional[str] = None
    events_seq: int = 0


@dataclass(frozen=True)
class JobResult:
    """Everything ``GET /jobs/{id}/result`` reports.

    ``result`` is the jsonable view of the executed cells — for a
    campaign, the positionally-ordered
    :func:`~repro.parallel.transport.to_jsonable` list that a direct
    :func:`~repro.parallel.run_cells` call would produce; for a script,
    the single script outcome object.
    """

    job_id: str
    kind: str
    state: str
    cache_hit: Optional[bool]
    result: Any = None


@dataclass(frozen=True)
class ScriptOutcome:
    """What running one sandboxed script produced (the script cell's
    return value — picklable, cacheable, jsonable)."""

    success: bool
    reason: Optional[str]
    timed_out: bool
    sim_elapsed: float
    events: int
    counters: tuple[tuple[str, float], ...] = ()
    budget_exceeded: Optional[str] = None
