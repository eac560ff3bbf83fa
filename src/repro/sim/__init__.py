"""A lean discrete-event simulation kernel.

Public surface::

    from repro.sim import Engine, Interrupt

    engine = Engine()

    def worker():
        yield engine.timeout(5)
        return "done"

    proc = engine.process(worker())
    engine.run(until=proc)   # -> "done", engine.now == 5

See :mod:`repro.sim.engine` for the event-loop design and
:mod:`repro.sim.resources` for the contention primitives.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "engine": ("Engine", "INFINITY"),
    "events": (
        "AllOf", "AnyOf", "Condition", "ConditionValue", "Event",
        "Interrupt", "Timeout"),
    "monitor": ("Counter", "TimeSeries", "sample"),
    "process": ("Process", "ProcessGenerator"),
    "resources": (
        "Container", "ContainerEvent", "Request", "Resource", "Store",
        "StoreEvent"),
    "rng": ("RandomStreams",),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
