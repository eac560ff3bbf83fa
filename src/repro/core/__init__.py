"""ftsh — the fault tolerant shell (the paper's primary contribution).

The package splits along the sans-IO boundary:

* language: :mod:`.lexer`, :mod:`.parser`, :mod:`.ast_nodes`
* semantics: :mod:`.interpreter` (yields effects), :mod:`.backoff`,
  :mod:`.timeline`, :mod:`.variables`, :mod:`.expressions`
* world: :mod:`.realruntime` (POSIX driver); the simulation driver lives
  in :mod:`repro.simruntime`
* front-end: :mod:`.shell` (:class:`Ftsh`), :mod:`.shell_log`
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "analysis": ("CommandStats", "LogAnalysis", "analyze"),
    "ast_nodes": ("Script",),
    "backoff": ("BackoffPolicy", "BackoffState", "NO_BACKOFF", "PAPER_POLICY"),
    "effects": (
        "CommandResult", "Effect", "EffectGenerator", "GetRandom",
        "GetTime", "ParallelBranch", "ParallelResult", "RunCommand",
        "RunParallel", "Sleep", "SleepResult"),
    "errors": (
        "FtshCancelled", "FtshError", "FtshFailure",
        "FtshRuntimeError", "FtshSyntaxError", "FtshTimeout",
        "SimulationError", "UndefinedVariableError"),
    "interpreter": ("Interpreter",),
    "parser": ("parse",),
    "realruntime": ("DEADLINE_ENV", "RealDriver"),
    "shell": ("Ftsh", "RunResult"),
    "shell_log": ("EventKind", "LogEvent", "ShellLog"),
    "timeline": ("DeadlineStack", "UNBOUNDED"),
    "variables": ("Scope",),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
