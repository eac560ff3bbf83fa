"""The grid service plane: campaign/script submission as an async API.

The paper argues that grid operations belong behind a disciplined,
failure-aware front end; this package is that front end for the repo's
own workloads.  It accepts ftsh scripts and campaign specs over HTTP,
admits them through a sandbox (budgets + ``ftshlint``), runs them on the
:mod:`repro.parallel` executor with the content-addressed result cache
underneath, and serves status/results/metrics back out — so identical
submissions dedupe to one job and warm cache hits become near-free
serves.

Layering (the diracx routers/logic/client split):

* :mod:`repro.service.schemas` — request/response dataclasses with
  canonical JSON round-trips;
* :mod:`repro.service.sandbox` — admission control: budgets, seed
  pinning, lint; plus the pure script cell the executor runs;
* :mod:`repro.service.jobs` — the in-process async job store
  (content-addressed job ids, dedupe, bounded workers, TTL, cancel);
* :mod:`repro.service.http` — the HTTP core every plane in the repo
  shares: client pool, retry policy, and the stdlib server kit;
* :mod:`repro.service.app` — the framework-agnostic handler core,
  mounted on that kit or on an optional FastAPI adapter
  (``pip install repro[service]``);
* :mod:`repro.service.client` — a small sync client and the submit CLI.

Serve with ``python -m repro.service``; submit with
``python -m repro.service.client`` or ``ftsh --submit URL script.ftsh``.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - static import surface
    from .client import ServiceClient, ServiceError
    from .jobs import JobStore
    from .sandbox import SandboxPolicy, SandboxRejection
    from .schemas import (
        CampaignSubmission,
        JobResult,
        JobStatus,
        SchemaError,
        ScriptSubmission,
    )

#: Public name -> home submodule, resolved lazily (PEP 562).  The dist
#: worker imports :mod:`repro.service.http` (stdlib-only) thousands of
#: times across a fleet; it must not drag the job store + sandbox +
#: executor stack along.  Lazy client import also keeps
#: ``python -m repro.service.client`` from tripping runpy's
#: already-imported warning.
_EXPORTS = {
    "JobStore": "jobs",
    "SandboxPolicy": "sandbox",
    "SandboxRejection": "sandbox",
    "CampaignSubmission": "schemas",
    "JobResult": "schemas",
    "JobStatus": "schemas",
    "SchemaError": "schemas",
    "ScriptSubmission": "schemas",
    "ServiceClient": "client",
    "ServiceError": "client",
}


def __getattr__(name: str):
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "CampaignSubmission",
    "JobResult",
    "JobStatus",
    "JobStore",
    "SandboxPolicy",
    "SandboxRejection",
    "SchemaError",
    "ScriptSubmission",
    "ServiceClient",
    "ServiceError",
]
