"""Deterministic fault injection: schedules, injectors, campaign support.

The paper's claim is about *degradation under failure*; this package
makes the failure space a first-class, seed-driven input instead of the
few hard-wired failure modes each substrate happened to implement.

* :mod:`repro.faults.schedule`  — fault primitives (Burst, Periodic,
  PoissonOutage, Degradation, Flaky) and the text grammar.
* :mod:`repro.faults.injectors` — attach schedules to substrates via
  narrow hooks; :func:`install_faults` resolves :class:`FaultSpec` lists.
* :mod:`repro.faults.runtime`   — command-level faults shared by the
  simulated and real drivers (the sans-IO differential surface).
* :mod:`repro.faults.config`    — one validation vocabulary for every
  bounds check in the fault and substrate configuration.

The chaos campaign runner lives with the other experiment entry points:
``python -m repro.experiments.chaos``.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "config": (
        "validate_at_least", "validate_fraction",
        "validate_non_negative", "validate_positive",
        "validate_probability"),
    "injectors": ("FaultSpec", "Injector", "install_faults"),
    "runtime": (
        "CommandFault", "CommandFaultPlan", "apply_command_faults",
        "make_faulting_real_driver", "parse_command_fault"),
    "schedule": (
        "Burst", "Degradation", "FaultSchedule", "FaultWindow",
        "Flaky", "Periodic", "PoissonOutage", "drive_schedule",
        "parse_schedule"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
