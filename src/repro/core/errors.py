"""Exception hierarchy for the ftsh language and its runtimes.

ftsh deliberately exposes *untyped* failures: a procedure either succeeds
or fails, with no detail attached (paper, section 4).  Internally, however,
the implementation distinguishes a few kinds of control-flow events so the
interpreter can unwind correctly:

* :class:`FtshFailure` — an ordinary failure, equivalent to a command
  exiting nonzero or the ``failure`` atom.  Caught by ``try``/``catch``.
* :class:`FtshTimeout` — a ``try for`` limit expired.  This unwinds past
  the expired ``try`` (its own attempts must stop) but is converted into a
  plain failure at the boundary of the ``try`` whose deadline expired.
* :class:`FtshCancelled` — the whole evaluation was cancelled from
  outside (e.g. a losing ``forall`` branch being torn down).

None of these carry failure detail visible to the ftsh program; detail is
recorded only in the execution log for post-mortem analysis.
"""

from __future__ import annotations


class FtshError(Exception):
    """Base class for every error raised by this package."""


class FtshSyntaxError(FtshError):
    """A script failed to lex or parse.

    Carries the 1-based ``line`` and ``column`` of the offending token so
    front-ends can point at the problem.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class FtshControl(FtshError):
    """Base class for control-flow signals used during evaluation."""


class FtshFailure(FtshControl):
    """A procedure failed (nonzero exit, ``failure`` atom, bad expansion)."""

    def __init__(self, reason: str = "failure") -> None:
        self.reason = reason
        super().__init__(reason)


class FtshTimeout(FtshControl):
    """A ``try for`` time limit expired at ``deadline``.

    The deadline identifies *which* enclosing ``try`` expired: each ``try``
    converts a timeout carrying its own deadline into an ordinary failure
    of itself, while timeouts belonging to outer scopes keep propagating.
    """

    def __init__(self, deadline: float, reason: str = "time limit expired") -> None:
        self.deadline = deadline
        self.reason = reason
        super().__init__(f"{reason} (deadline {deadline:.6g})")


class FtshCancelled(FtshControl):
    """Evaluation was cancelled from outside (forall teardown, shell stop)."""

    def __init__(self, reason: str = "cancelled") -> None:
        self.reason = reason
        super().__init__(reason)


class FtshRuntimeError(FtshError):
    """A defect in how the host program drives the interpreter.

    Unlike :class:`FtshFailure` this is *not* catchable from ftsh code; it
    indicates misuse (unknown effect, driver protocol violation, …).
    """


class UndefinedVariableError(FtshFailure):
    """Expansion referenced a variable with no binding.

    Modelled as a failure (not a hard error): in ftsh, a bad expansion
    makes the enclosing procedure fail, which ``try`` may then retry —
    useful when a variable is set by an earlier redirection that failed.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"undefined variable: {name!r}")


class SimulationError(FtshError):
    """Base class for defects detected inside the simulation kernel."""


class BudgetExceeded(SimulationError):
    """A bounded run (:meth:`repro.sim.Engine.run_budgeted`) hit its cap.

    ``budget`` names which cap tripped (``"events"`` or ``"sim-time"``)
    so sandboxes can map the overrun to a typed rejection; ``events`` is
    how many the run dispatched before it did.
    """

    def __init__(self, budget: str, limit: float, message: str, events: int = 0) -> None:
        self.budget = budget
        self.limit = limit
        self.events = events
        super().__init__(message)
