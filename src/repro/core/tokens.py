"""Token and word representations shared by the lexer and parser.

ftsh is a shell: its lexical atoms are *words* (possibly containing
variable references and quoted spans), *redirection operators*, and
*separators* (newline / ``;``).  Keywords are contextual — ``try`` is only
special at the start of a statement — so keyword recognition lives in the
parser, driven by :meth:`Word.keyword`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

_IDENT_FIRST = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_REST = _IDENT_FIRST | set("0123456789")


def is_identifier(text: str) -> bool:
    """True if ``text`` is a valid ftsh variable name."""
    return bool(text) and text[0] in _IDENT_FIRST and all(c in _IDENT_REST for c in text)


@dataclass(frozen=True, slots=True)
class Literal:
    """A span of literal characters.  ``quoted`` spans survive empty-word
    elision and are never treated as keywords."""

    text: str
    quoted: bool = False


@dataclass(frozen=True, slots=True)
class VarRef:
    """A ``$name`` / ``${name}`` reference, expanded at evaluation time."""

    name: str
    quoted: bool = False


WordPart = Literal | VarRef


def derived():
    """A field computed from a node's own fields in ``__post_init__``,
    once, when the node is made: equality, hashing and ``repr`` do not
    see it."""
    return field(init=False, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class Word:
    """One shell word: a concatenation of literal and variable parts.

    The parts are pre-split once into a constant ``head`` and ``subs``,
    ``(variable name, literal text after it)`` pairs, so :meth:`expand`
    joins strings instead of walking parts.
    """

    parts: tuple[WordPart, ...]
    line: int = 0
    column: int = 0
    #: The literal text before the first substitution — the whole word
    #: when ``subs`` is empty.
    head: str = derived()
    subs: tuple[tuple[str, str], ...] = derived()
    #: True if any part was quoted: the word survives empty-word elision.
    quoted: bool = derived()

    def __post_init__(self) -> None:
        head = ""
        subs: list[tuple[str, str]] = []
        quoted = False
        for part in self.parts:
            quoted = quoted or part.quoted
            if isinstance(part, VarRef):
                subs.append((part.name, ""))
            elif subs:
                name, tail = subs[-1]
                subs[-1] = (name, tail + part.text)
            else:
                head += part.text
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "subs", tuple(subs))
        object.__setattr__(self, "quoted", quoted)

    def expand(self, scope) -> str:
        """The word's text under ``scope``; an unbound variable raises
        :class:`~repro.core.errors.UndefinedVariableError`, an ordinary
        ftsh failure."""
        text = self.head
        for name, tail in self.subs:
            text += scope.get(name) + tail
        return text

    def keyword(self) -> str | None:
        """The lowercase text of this word if it could be a keyword.

        Only a word made of a single *unquoted* literal qualifies —
        ``"try"`` (quoted) is an ordinary argument, matching shell
        convention.
        """
        if len(self.parts) == 1:
            part = self.parts[0]
            if isinstance(part, Literal) and not part.quoted:
                return part.text.lower()
        return None

    def literal_text(self) -> str | None:
        """The exact text if the word contains no variable parts."""
        chunks = []
        for part in self.parts:
            if isinstance(part, VarRef):
                return None
            chunks.append(part.text)
        return "".join(chunks)

    def __str__(self) -> str:  # pragma: no cover - debug aid
        out = []
        for part in self.parts:
            if isinstance(part, VarRef):
                out.append("${" + part.name + "}")
            else:
                out.append(part.text)
        return "".join(out)


class TokenKind(enum.Enum):
    WORD = "word"
    REDIRECT = "redirect"
    NEWLINE = "newline"
    EOF = "eof"


#: Every redirection operator, longest-first for the lexer's greedy match.
REDIRECT_OPS = (
    "->>&",
    "->>",
    "->&",
    "->",
    "-<",
    ">>&",
    ">>",
    ">&",
    ">",
    "<",
)


@dataclass(frozen=True, slots=True)
class Token:
    kind: TokenKind
    line: int
    column: int
    word: Word | None = None
    op: str | None = None

    def __str__(self) -> str:  # pragma: no cover - debug aid
        if self.kind is TokenKind.WORD:
            return f"WORD({self.word})"
        if self.kind is TokenKind.REDIRECT:
            return f"REDIRECT({self.op})"
        return self.kind.name
