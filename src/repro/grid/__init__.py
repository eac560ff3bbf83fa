"""Simulated grid substrates: the contended systems of the paper's scenarios.

* :mod:`.fdtable` + :mod:`.condor` — scenario 1 (job submission)
* :mod:`.storage` — scenario 2 (shared output buffer)
* :mod:`.httpserver` — scenario 3 (replicated read, black holes)
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "archive": ("ArchiveUploader", "WanConfig", "WanLink"),
    "chimera": (
        "DagDispatcher", "DagStats", "Task", "TaskDAG",
        "bag_of_tasks", "chain", "layered_dag"),
    "condor": (
        "CondorConfig", "CondorWorld", "Schedd",
        "register_condor_commands"),
    "fdtable": ("FDTable",),
    "httpserver": (
        "FileServer", "ReplicaConfig", "ReplicaWorld",
        "register_replica_commands"),
    "pool": ("Job", "Worker", "WorkerPool"),
    "storage": (
        "BufferConfig", "BufferFile", "BufferWorld", "SharedBuffer",
        "consumer_process", "register_buffer_commands"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
