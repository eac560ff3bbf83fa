"""``repro.lint`` — static analysis for ftsh scripts.

The paper's premise (§3–§4) is that failure discipline lives *in the
script*: an unbounded ``try`` livelocks, a zero-backoff loop melts the
shared resource, a missing carrier-sense probe regresses Ethernet to
Aloha.  This package rejects those anti-patterns before a single real or
simulated process is spawned — the pre-flight counterpart to the
post-mortem report in :mod:`repro.obs.report`.

Public surface:

* :func:`lint_text` / :func:`lint_file` / :func:`lint_script` — run the
  rule pack, get back sorted :class:`Diagnostic` objects;
* :class:`LintConfig` — ``-W error`` promotion, rule selection, and
  externally-defined variable names;
* :data:`RULES` — the catalogue, code -> rule class (see docs/LINT.md);
* ``python -m repro.lint`` / ``ftsh --lint`` — the CLI front ends.

Suppression: ``# lint: disable=FTL001`` on the offending line,
``# lint: disable-file=FTL010`` for a whole file.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "diagnostics": (
        "Diagnostic", "Severity", "diagnostics_to_json",
        "promote_warnings", "sort_diagnostics", "worst_severity"),
    "engine": (
        "LintConfig", "Rule", "has_errors", "lint_file",
        "lint_script", "lint_text"),
    "rules": ("RULES", "default_rules"),
    "suppress": ("SuppressionMap",),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
