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
* :mod:`repro.service.jobs` — the in-process job store: worker threads
  on a queue (content-addressed job ids, dedupe, wall budgets, TTL,
  cancel);
* :mod:`repro.service.http` — the HTTP core every plane in the repo
  shares: client pool, retry policy, and the stdlib server kit;
* :mod:`repro.service.app` — the framework-agnostic handler core,
  mounted on that kit;
* :mod:`repro.service.client` — a small sync client and the submit CLI.

Serve with ``python -m repro.service``; submit with
``python -m repro.service.client`` or ``ftsh --submit URL script.ftsh``.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "client": ("ServiceClient", "ServiceError"),
    "jobs": ("JobStore",),
    "sandbox": ("SandboxPolicy", "SandboxRejection"),
    "schemas": (
        "CampaignSubmission", "JobResult", "JobStatus", "SchemaError",
        "ScriptSubmission"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
