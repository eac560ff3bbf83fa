"""repro — a reproduction of *The Ethernet Approach to Grid Computing*
(Thain & Livny, HPDC 2003).

Layers:

* :mod:`repro.core` — **ftsh**, the fault tolerant shell: language,
  sans-IO interpreter, backoff, real POSIX runtime.
* :mod:`repro.sim` — a discrete-event simulation kernel.
* :mod:`repro.simruntime` — runs ftsh scripts in virtual time against
  simulated commands.
* :mod:`repro.grid` — the contended substrates of the paper's three
  scenarios (schedd + FD table, shared buffer, replicated servers).
* :mod:`repro.clients` — the Fixed / Aloha / Ethernet disciplines and
  the paper's scenario scripts.
* :mod:`repro.experiments` — harnesses regenerating Figures 1-7.

Quick start::

    from repro import Ftsh
    result = Ftsh().run("try for 10 seconds \n  echo hello \n end")
    assert result.success
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "core": (
        "BackoffPolicy", "BackoffState", "Ftsh", "FtshError",
        "FtshFailure", "FtshSyntaxError", "FtshTimeout", "NO_BACKOFF",
        "PAPER_POLICY", "RealDriver", "RunResult", "ShellLog", "parse"),
    "simruntime": ("CommandRegistry", "SimDriver", "SimFtsh"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
__all__.append("__version__")
