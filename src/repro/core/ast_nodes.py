"""Abstract syntax tree for ftsh programs.

Every node is an immutable dataclass.  A *procedure* (any node) does not
return a value — it succeeds or fails (paper, §4); the tree therefore has
no expression nodes except inside ``if`` conditions.

The tree is also the execution plan.  What the evaluator would otherwise
re-derive on every run — a word's constant head, a command's constant
argv and log string, the capture its redirects ask for, a ``try`` body
that is one command — is computed once, when the parser makes the node
(:func:`~repro.core.tokens.derived` fields), and ``parse_cached`` shares
the nodes across runs.  Those fields are invisible to equality, hashing
and ``repr``, so the linter, ``pretty`` and the parse cache see the tree
the source describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .tokens import Word, derived


@dataclass(frozen=True, slots=True)
class Redirect:
    """One redirection: ``op`` applied to ``target``.

    File targets (`` > >> >& >>&``, ``<``) name paths; variable targets
    (``-> ->> ->& ->>&``, ``-<``) name shell variables.
    """

    op: str
    target: Word

    @property
    def to_variable(self) -> bool:
        return self.op.startswith("-")

    @property
    def is_input(self) -> bool:
        return self.op in ("<", "-<")

    @property
    def appends(self) -> bool:
        return ">>" in self.op

    @property
    def merges_stderr(self) -> bool:
        return self.op.endswith("&")

    @property
    def var_name(self) -> str:
        """The variable a ``-``-redirect names."""
        return self.target.literal_text() or ""


@dataclass(frozen=True, slots=True)
class Command:
    """An external command: words plus redirections."""

    words: tuple[Word, ...]
    redirects: tuple[Redirect, ...] = ()
    line: int = 0
    column: int = 0
    #: Argv template: a str for a constant word, the :class:`Word` for
    #: one that holds a substitution.  An empty unquoted constant word
    #: is elided here, once.
    template: tuple = derived()
    #: The argv and its log string when every word is constant, else None.
    const_argv: Optional[tuple[str, ...]] = derived()
    const_joined: Optional[str] = derived()
    #: True when every redirect is a variable capture (``->`` and kin):
    #: the effect is then built from the four fields below, with no
    #: redirect replayed per run.
    static_capture: bool = derived()
    capture_flag: bool = derived()
    merge_flag: bool = derived()
    capture_name: Optional[str] = derived()
    capture_append: bool = derived()

    def __post_init__(self) -> None:
        template = tuple(
            word if word.subs else word.head for word in self.words
            if word.subs or word.head or word.quoted)
        constant = all(item.__class__ is str for item in template)
        static = all(r.to_variable and not r.is_input for r in self.redirects)
        last = self.redirects[-1] if static and self.redirects else None
        for name, value in (
            ("template", template),
            ("const_argv", template if constant else None),
            ("const_joined", " ".join(template) if constant else None),
            ("static_capture", static),
            ("capture_flag", last is not None),
            ("merge_flag", last is not None and last.merges_stderr),
            ("capture_name", last.var_name if last is not None else None),
            ("capture_append", last is not None and last.appends),
        ):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, slots=True)
class Assignment:
    """``name=value`` — bind a shell variable."""

    name: str
    value: Word
    line: int = 0
    column: int = 0


@dataclass(frozen=True, slots=True)
class FailureAtom:
    """The ``failure`` command: unconditionally fail (throw)."""

    line: int = 0
    column: int = 0


@dataclass(frozen=True, slots=True)
class SuccessAtom:
    """The ``success`` command: unconditionally succeed (no-op)."""

    line: int = 0
    column: int = 0


@dataclass(frozen=True, slots=True)
class FunctionDef:
    """``function NAME … end`` — a named procedure (ftsh tech report).

    Calls look like commands: a statement whose first word names a
    defined function invokes it with positionals ``$1``..``$N`` (plus
    ``$0`` = the function name and ``$#`` = argument count) bound for
    the duration of the call.  Like every procedure it only succeeds or
    fails.
    """

    name: str
    body: "Group"
    line: int = 0
    column: int = 0


@dataclass(frozen=True, slots=True)
class Group:
    """A sequence executed in order; fails fast on the first failure."""

    body: tuple["Statement", ...]
    line: int = 0
    column: int = 0


@dataclass(frozen=True, slots=True)
class TryLimits:
    """The retry budget of a ``try``.

    ``duration`` — seconds in the time window (None = unlimited);
    ``attempts`` — maximum attempts (None = unlimited);
    ``every`` — fixed retry interval in seconds overriding exponential
    backoff (an extension from the ftsh technical report).
    A ``try forever`` has all three None.

    ``duration_unit`` keeps the window's unit word as written in the
    source (``"seconds"``, ``"h"``, …) so the linter's time-literal
    check can tell ``86400 seconds`` from ``1 day`` after normalization.
    """

    duration: Optional[float] = None
    attempts: Optional[int] = None
    every: Optional[float] = None
    duration_unit: Optional[str] = None


@dataclass(frozen=True, slots=True)
class Try:
    """``try <limits> … [catch …] end`` — the heart of the Ethernet approach."""

    limits: TryLimits
    body: Group
    catch: Optional[Group] = None
    line: int = 0
    column: int = 0
    #: The body's lone static-capture command, which the retry loop
    #: drives inline (the paper's canonical ``try … / one command /
    #: end``), or None.
    inline: Optional[Command] = derived()

    def __post_init__(self) -> None:
        body = self.body.body
        lone = body[0] if len(body) == 1 else None
        object.__setattr__(self, "inline", lone if (
            lone.__class__ is Command and lone.static_capture) else None)


@dataclass(frozen=True, slots=True)
class ForAny:
    """``forany VAR in w1 w2 … end`` — first alternative to succeed wins."""

    var: str
    values: tuple[Word, ...]
    body: Group
    line: int = 0
    column: int = 0


@dataclass(frozen=True, slots=True)
class ForAll:
    """``forall VAR in w1 w2 … end`` — run all alternatives in parallel;
    all must succeed, first failure aborts the rest."""

    var: str
    values: tuple[Word, ...]
    body: Group
    line: int = 0
    column: int = 0


# ---------------------------------------------------------------------------
# Conditions (if-expressions)
# ---------------------------------------------------------------------------

#: Numeric comparators and their semantics.
NUMERIC_OPS = (".lt.", ".gt.", ".le.", ".ge.", ".eq.", ".ne.")
#: String comparators.
STRING_OPS = (".eql.", ".neql.")
#: Boolean connectives, in increasing binding strength.
BOOL_OPS = (".or.", ".and.", ".not.")


@dataclass(frozen=True, slots=True)
class Comparison:
    """``lhs OP rhs`` with a numeric or string comparator."""

    op: str
    lhs: Word
    rhs: Word


@dataclass(frozen=True, slots=True)
class Truth:
    """A bare operand: true iff it expands to something non-empty,
    other than ``0`` or ``false``."""

    operand: Word


@dataclass(frozen=True, slots=True)
class Not:
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class Defined:
    """``.defined. name`` — true iff the shell variable is bound.

    An extension beyond the paper's listings: scripts that capture into a
    variable inside a ``try`` need a safe way to test whether the capture
    ever happened (expanding an unbound variable is itself a failure).
    """

    name: str


@dataclass(frozen=True, slots=True)
class BoolOp:
    """``.and.`` / ``.or.`` over two sub-expressions (left-assoc chains)."""

    op: str
    lhs: "Expr"
    rhs: "Expr"


Expr = Union[Comparison, Truth, Not, BoolOp, Defined]


@dataclass(frozen=True, slots=True)
class If:
    """``if EXPR … [else …] end``."""

    condition: Expr
    then: Group
    orelse: Optional[Group] = None
    line: int = 0
    column: int = 0


Statement = Union[
    Command, Assignment, FailureAtom, SuccessAtom, Try, ForAny, ForAll, If,
    FunctionDef,
]


@dataclass(frozen=True, slots=True)
class Script:
    """A whole parsed program."""

    body: Group
    source_name: str = "<script>"
