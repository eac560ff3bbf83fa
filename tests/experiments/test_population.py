"""Every scenario harness, pinned to the exact bytes of its result.

The harnesses share one client population (``experiments/population.py``);
a change to it, or to a harness's world set-up, must leave each run's
numbers exactly where they were.  One seconds-scale run per scenario,
each with a fault installed, is reduced to the sha256 of its canonical
JSON (``to_jsonable``, sorted keys) — the digest the campaign cache and
``benchmarks/ab_cell.py`` compare.  The reserved-buffer and DAG paths
have no other tier-1 test of their exact numbers.
"""

import gc
import hashlib
import json

import pytest

from repro.clients.base import ALOHA, ETHERNET, FIXED
from repro.experiments import scenario_buffer
from repro.experiments.scenario_buffer import BufferParams, run_buffer
from repro.experiments.scenario_dag import DagParams, run_dag_scenario
from repro.experiments.scenario_kangaroo import KangarooParams, run_kangaroo
from repro.experiments.scenario_replica import ReplicaParams, run_replica
from repro.experiments.scenario_submit import SubmitParams, run_submission
from repro.faults.injectors import FaultSpec
from repro.faults.schedule import Burst, Periodic
from repro.parallel.transport import to_jsonable
from repro.service.sandbox import run_script_cell

RUNS = {
    "submit": lambda: run_submission(SubmitParams(
        ALOHA, 120, duration=40.0, script_window=40.0, seed=5,
        faults=(FaultSpec("schedd-crash", Burst(at=12.0, duration=2.0)),))),
    "buffer": lambda: run_buffer(BufferParams(
        ETHERNET, 60, duration=60.0, seed=5,
        faults=(FaultSpec("slow-disk", Burst(at=5.0, duration=10.0),
                          severity=4.0),))),
    "buffer-reserved": lambda: run_buffer(BufferParams(
        ALOHA, 80, duration=60.0, seed=5, reserved=True,
        faults=(FaultSpec("enospc", Burst(at=8.0, duration=6.0),
                          severity=60.0),))),
    "buffer-enospc": lambda: run_buffer(BufferParams(
        FIXED, 60, duration=60.0, seed=5,
        faults=(FaultSpec("enospc", Burst(at=8.0, duration=6.0),
                          severity=60.0),))),
    "replica": lambda: run_replica(ReplicaParams(
        ETHERNET, 6, duration=120.0, seed=5,
        faults=(FaultSpec("http-5xx", Burst(at=20.0, duration=20.0),
                          severity=0.5),))),
    "kangaroo": lambda: run_kangaroo(KangarooParams(
        ALOHA, 12, duration=60.0, seed=5,
        faults=(FaultSpec("wan-partition",
                          Periodic(period=30.0, duration=10.0, start=5.0)),))),
    "dag": lambda: run_dag_scenario(DagParams(
        FIXED, n_users=3, layers=3, width=6, exec_time_range=(5.0, 10.0),
        seed=5, pool_workers=8,
        faults=(FaultSpec("worker-flaky", Burst(at=0.0, duration=60.0),
                          severity=0.3),))),
}

DIGESTS = {
    "submit":
        "b25488ee4c589e54cc70339e8a5d491caaa1b8ddfa6da11d7e94dae176f02574",
    "buffer":
        "76d679068d04e37f06e89a2ad1fba43e60a64241e948daa34f629e9dd50198c6",
    "buffer-reserved":
        "d139a0e0313c9ebc0ff5e752c246f7b06eceb74ac5f904b1f31e384958ce76c8",
    "buffer-enospc":
        "c9b3d5fc025405f56c85df2b7192d51a68026ab1f6c4dfbebf52012d02742cf1",
    "replica":
        "6dd0f1eefc8f191d6c4c085a1acd4761b68a016d518cbf92345cd475c77ab8bb",
    "kangaroo":
        "ff615e7eb9547b5ac46cb37b02c493e32c18957e184016586377337c76e443a2",
    "dag":
        "b081453263ecffe0b007d339d266e9beb40185fe5384bc1b5fe04181f8c35322",
}


def digest(result) -> str:
    text = json.dumps(to_jsonable(result), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("scenario", sorted(RUNS))
def test_result_bytes_are_pinned(scenario):
    assert digest(RUNS[scenario]()) == DIGESTS[scenario]


def test_a_jammed_buffer_counts_collisions_without_a_series(monkeypatch):
    """Only the count of the buffer's collisions is read, so pushed into
    ENOSPC (``buffer-enospc``, pinned above) it keeps no time series."""
    worlds = []

    class Kept(scenario_buffer.BufferWorld):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            worlds.append(self)

    monkeypatch.setattr(scenario_buffer, "BufferWorld", Kept)
    result = RUNS["buffer-enospc"]()
    (world,) = worlds
    assert result.collisions == world.buffer.collisions.count > 10_000
    assert world.buffer.collisions.series is None


#: Each harness once more, and one sandboxed script in the buffer world
#: (whose consumer outlives the script), for the cycle check.
WORLDS = dict(RUNS, sandbox=lambda: run_script_cell(
    "try for 5 minutes\n    produce_output 10\n    store_output\nend\n",
    (), "buffer", 600.0, 5, 100_000))


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_a_finished_world_leaves_no_cycle(world):
    """A run frees its whole world by reference count: processes still
    waiting at the horizon are closed, and no control exception keeps
    the frame that caught it.  The first run warms up what a run loads
    lazily; the second, with the collector off, must leave nothing for
    it."""
    WORLDS[world]()
    gc.collect()
    gc.disable()
    try:
        WORLDS[world]()
    finally:
        gc.enable()
    assert gc.collect() == 0
