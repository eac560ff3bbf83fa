"""Parallel campaign execution with a content-addressed result cache.

The paper's evaluation (and this repo's chaos campaign) is a grid of
independent simulation cells.  This package farms those cells out over
a process pool (:func:`run_cells`), caches each cell's result under a
content hash of its inputs and the repo's code fingerprint
(:class:`ResultCache`), and guarantees — because every cell derives all
randomness from named streams seeded by its params — that serial,
parallel, and cached executions are byte-identical.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "cache": (
        "ResultCache", "canonical", "canonical_json", "code_fingerprint",
        "default_cache_dir"),
    "executor": ("CampaignCancelled", "CellSpec", "resolve_jobs", "run_cells"),
    "transport": ("strip_observability", "to_jsonable"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
