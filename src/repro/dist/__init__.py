"""``repro.dist`` — the work-queue executor behind ``run_cells``.

The subsystem in one sentence: ``run_cells`` submits its pending cells
to a :class:`~repro.dist.queue.TaskQueue` (batched claim/ack/nack with
per-task lease timeouts, at-least-once delivery), a coordinator serves
that queue over HTTP to a fleet of workers, and publishes each result
into the shared artifact store as its ack arrives — so a cell computed
anywhere is a warm hit everywhere.

Select a backend per call (``run_cells(..., backend="socket")``), per
process (``REPRO_DIST_BACKEND=socket``), or per campaign CLI
(``--backend`` on runall/chaos and the service plane).  Cells
are pure functions of their specs, so both backends produce
byte-identical results.

See ``docs/DISTRIBUTED.md`` for the full tour.
"""

from __future__ import annotations

import os
from typing import Optional

from .._lazy import lazy_exports

#: Environment variable consulted when no explicit backend is given.
BACKEND_ENV = "REPRO_DIST_BACKEND"

#: The default backend: ``run_cells``' own serial/process-pool path.
DEFAULT_BACKEND = "inprocess"

#: Canonical backend names -> accepted aliases.  ``work-stealing`` was
#: a second local executor; the perf ledger still passes that spelling.
BACKENDS: dict[str, tuple[str, ...]] = {
    "inprocess": ("inprocess", "work-stealing"),
    "socket": ("socket",),
}

_ALIASES = {alias: name
            for name, aliases in BACKENDS.items()
            for alias in aliases}


def backend_names() -> list[str]:
    """The canonical backend names, for CLI ``choices=``."""
    return list(BACKENDS)


def resolve_backend(name: Optional[str] = None) -> str:
    """Normalize a backend choice: arg, else $REPRO_DIST_BACKEND, else
    the in-process default.  Unknown names raise ``ValueError``."""
    if name is None:
        name = os.environ.get(BACKEND_ENV) or DEFAULT_BACKEND
    canonical = _ALIASES.get(name.strip().lower())
    if canonical is None:
        raise ValueError(
            f"unknown dist backend {name!r}; expected one of "
            f"{sorted(_ALIASES)}")
    return canonical


# No re-exports: the names above are this package's own.  The helper
# still resolves a bare submodule (``repro.dist.backends``) like the
# other twelve packages do.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {})
__all__ += [
    "BACKENDS",
    "BACKEND_ENV",
    "DEFAULT_BACKEND",
    "backend_names",
    "resolve_backend",
]
