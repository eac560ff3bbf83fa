"""Lazy package exports (PEP 562): importing a package costs what the
path through it touches.

Every ``__init__`` under ``src/repro`` is a docstring, one table and::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

so ``from repro.core import BackoffPolicy`` loads ``repro.core.backoff``
and not the lexer, parser, compiler, both interpreters and the POSIX
runtime beside it.  That matters because ftsh is a shell wrapped around
one work unit per run: a warm campaign rerun, a thin client
(``repro.service.client``) and a fleet worker that comes and goes
(``repro.dist.worker``) each pay their imports once per process, and
eager ``__init__``s made every one of them pay for the language core
and the simulator whether or not it called them.  It also keeps
``python -m pkg.mod`` from finding ``pkg.mod`` already imported by its
own package (runpy's ``RuntimeWarning``).

The contract, pinned by ``tests/test_lazy_exports.py``:

* the table is keyed by home submodule (a package's own sub-package
  counts), ``{"backoff": ("BackoffPolicy", ...)}``; a key
  ``"submodule:attr"`` exports ``attr`` under another public name;
* a name resolves on first access to the *same object* as its home
  submodule's attribute and is cached in the package's globals, so the
  second access never reaches ``__getattr__`` (and
  ``unittest.mock.patch`` patches and restores it like any attribute);
* a bare submodule name resolves by importing it (``import repro.core;
  repro.core.backoff``), as it did when ``__init__`` imported them all;
* anything else raises ``AttributeError`` naming the package;
* ``__all__`` is the table's names, sorted — names a package defines
  itself (``repro.__version__``, ``repro.dist.resolve_backend``) are
  appended there; ``__dir__`` is those plus the package's globals.

No switch turns this off: there is no eager mode to test beside it.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Iterable, Mapping


def lazy_exports(
    package: str, table: Mapping[str, Iterable[str]],
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package ``package``
    (pass ``__name__``), whose ``__init__`` is executing."""
    homes = {name: home for home, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        home = homes.get(name)
        if home is not None:
            submodule, _, attr = home.partition(":")
            value = getattr(import_module(f"{package}.{submodule}"),
                            attr or name)
        else:
            try:
                value = import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise  # the submodule exists; one of its imports doesn't
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}") from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | homes.keys())

    return __getattr__, __dir__, sorted(homes)
