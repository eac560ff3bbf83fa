"""Binding of the ftsh interpreter to the simulation kernel.

* :class:`SimDriver` — executes interpreter effects in virtual time.
* :class:`CommandRegistry` / :class:`CommandContext` — simulated commands.
* :class:`SimFtsh` — convenience front-end: scripts as sim processes.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "driver": ("SimDriver",),
    "registry": ("CommandContext", "CommandRegistry", "normalize_result"),
    "shell": ("SimFtsh",),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
