"""Variable scopes.

A script runs in one flat scope; ``forall`` branches get child scopes so
parallel writes cannot race each other (each branch sees the parent's
bindings but writes locally — documented divergence-safe semantics).

Expanding an undefined variable (:meth:`~repro.core.tokens.Word.expand`)
raises :class:`~repro.core.errors.UndefinedVariableError`, an ordinary
ftsh *failure*: an enclosing ``try`` may retry it, which matters when the
variable is assigned by a redirection that failed last attempt.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from .errors import UndefinedVariableError


@dataclass(frozen=True, slots=True)
class SpoolPolicy:
    """Where large variable values live (paper §4: redirected values "may
    be stored in the shell's memory directly, or may be kept in an
    appropriate place in the filesystem according to the user's or
    administrator's policy").

    Values longer than ``threshold`` bytes are written to files under
    ``directory`` and read back on expansion.
    """

    directory: str
    threshold: int = 65536


class _Spilled:
    """Marker binding: the value lives in ``path`` on disk."""

    __slots__ = ("path",)

    def __init__(self, path: str) -> None:
        self.path = path

    def read(self) -> str:
        with open(self.path, encoding="utf-8") as handle:
            return handle.read()


_spill_ids = itertools.count(1)


class Scope:
    """A chain-of-maps variable scope: reads climb, writes stay local."""

    __slots__ = ("_bindings", "parent", "spool")

    def __init__(
        self,
        initial: Optional[Mapping[str, str]] = None,
        parent: Optional["Scope"] = None,
        spool: Optional[SpoolPolicy] = None,
    ) -> None:
        self._bindings: dict[str, object] = dict(initial or {})
        self.parent = parent
        #: Inherited from the parent chain when not set explicitly.
        self.spool = spool if spool is not None else (
            parent.spool if parent is not None else None
        )

    def get(self, name: str) -> str:
        scope: Scope | None = self
        while scope is not None:
            if name in scope._bindings:
                value = scope._bindings[name]
                return value.read() if isinstance(value, _Spilled) else value
            scope = scope.parent
        raise UndefinedVariableError(name)

    def lookup(self, name: str, default: str | None = None) -> str | None:
        """Like :meth:`get` but returning ``default`` instead of failing."""
        try:
            return self.get(name)
        except UndefinedVariableError:
            return default

    def set(self, name: str, value: str) -> None:
        if self.spool is not None and len(value) > self.spool.threshold:
            os.makedirs(self.spool.directory, exist_ok=True)
            path = os.path.join(
                self.spool.directory, f"ftsh-var-{name}-{next(_spill_ids)}"
            )
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(value)
            self._bindings[name] = _Spilled(path)
            return
        self._bindings[name] = value

    def unset(self, name: str) -> None:
        """Remove a binding from this scope level (no-op if absent here)."""
        self._bindings.pop(name, None)

    def append(self, name: str, value: str) -> None:
        """Append for the ``->>`` variable redirection."""
        self._bindings[name] = self.lookup(name, "") + value

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None

    def child(self) -> "Scope":
        return Scope(parent=self)

    def flatten(self) -> dict[str, str]:
        """All visible bindings, innermost winning."""
        chain: list[Scope] = []
        scope: Scope | None = self
        while scope is not None:
            chain.append(scope)
            scope = scope.parent
        merged: dict[str, str] = {}
        for scope in reversed(chain):
            for name, value in scope._bindings.items():
                merged[name] = value.read() if isinstance(value, _Spilled) else value
        return merged

    def names(self) -> Iterator[str]:
        return iter(self.flatten())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Scope {self._bindings!r} parent={self.parent is not None}>"
