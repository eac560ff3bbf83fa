"""What each path imports — module *sets* in fresh interpreters, never
times (docs/INTERNALS.md "What a path imports").

Two halves of one rule.  A path pays only for what it touches: a warm
campaign rerun, a thin client and a fleet worker stay clear of the
language core, the simulator and the process pool.  And nothing lazy
hides inside a timed cell: once a module that *runs* simulation is
imported, running a cell imports nothing more.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def python(*args):
    """A new interpreter over this checkout's ``src``."""
    return subprocess.run(
        [sys.executable, *args], text=True, capture_output=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))


def fresh(code, *argv):
    """Run ``code`` in a new interpreter; its last stdout line is JSON."""
    done = python("-c", code, *argv)
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(done.stdout.splitlines()[-1])


def prefixed(modules, *prefixes):
    return sorted(name for name in modules
                  if any(name == prefix or name.startswith(prefix + ".")
                         for prefix in prefixes))


# ---------------------------------------------------------------------------
# every ``python -m`` entry point starts clean
# ---------------------------------------------------------------------------

ENTRY_POINTS = [
    "repro.cli", "repro.lint", "repro.service", "repro.service.client",
    "repro.dist.worker", "repro.parallel.cache", "repro.obs.report",
    "repro.obs.dashboard",
    "repro.experiments.runall", "repro.experiments.chaos",
    "repro.experiments.validate",
]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_runs_without_a_runpy_warning(entry):
    """A package ``__init__`` that imports the module ``python -m`` is
    about to execute makes runpy warn "found in sys.modules ... may
    result in unpredictable behaviour" on every run (it did for
    ``repro.experiments.chaos``); as an error it ends the run."""
    done = python("-W", "error::RuntimeWarning", "-m", entry, "--help")
    assert (done.returncode, done.stderr) == (0, "")
    assert "usage" in done.stdout.lower()


# ---------------------------------------------------------------------------
# ``python -m`` runs a campaign module's body once
# ---------------------------------------------------------------------------

#: One ``python -m <module>`` run through runpy, then the library's
#: ``main`` on the same cache.  A profile hook sees every execution of
#: the module's code and records whether that copy defined ``main``
#: itself, i.e. ran the body rather than just the hand-off.
_M_THEN_LIBRARY = """
import importlib, importlib.util, json, runpy, sys

name, root = sys.argv[1], sys.argv[2]
path = importlib.util.find_spec(name).origin
bodies = []

def profile(frame, event, _arg):
    code = frame.f_code
    if (event == "return" and code.co_name == "<module>"
            and code.co_filename == path):
        main = frame.f_globals.get("main")
        bodies.append(getattr(main, "__globals__", None) is frame.f_globals)

sys.setprofile(profile)
if name == "repro.experiments.chaos":
    import repro.experiments.chaos as chaos
    chaos.SCALES["smoke"] = chaos.ChaosScale(
        "smoke", levels=(3,), submit_clients=30, submit_duration=30.0,
        buffer_producers=5, buffer_duration=20.0, replica_clients=3,
        replica_duration=120.0, kangaroo_producers=5,
        kangaroo_duration=60.0)
    argv = ["--scale", "smoke", "--seed", "11"]
else:
    argv = ["--scale", "quick", "--seed", "11"]
argv += ["--out", root + "/out", "--cache-dir", root + "/cache"]
sys.argv = [name] + argv
try:
    runpy.run_module(name, run_name="__main__", alter_sys=True)
except SystemExit as done:
    assert done.code == 0, done.code
sys.setprofile(None)
assert importlib.import_module(name).main(argv) == 0
print(json.dumps(bodies))
"""


@pytest.mark.parametrize("module", ["repro.experiments.chaos",
                                    "repro.experiments.runall"])
def test_a_dash_m_campaign_runs_its_body_once(tmp_path, module):
    """The ``__main__`` copy hands off to the importable module before
    its body, so the body runs once; and the cells are the importable
    module's, so the library run finds every one in the cache."""
    out, bodies = fresh(_M_THEN_LIBRARY, module, str(tmp_path))
    assert sorted(bodies) == [False, True]
    tallies = re.findall(r"cache: (\d+) hits, (\d+) misses", out)
    cells = int(tallies[0][1])
    assert cells > 0
    assert tallies == [("0", str(cells)), (str(cells), "0")]


# ---------------------------------------------------------------------------
# a warm campaign rerun
# ---------------------------------------------------------------------------

#: ``python -m repro.experiments.chaos --scale smoke`` with "smoke"
#: shrunk to a sub-second campaign of the same 33 cells (the trick of
#: ``tests/experiments/test_chaos.py::TestEntryPoints``); prints the
#: interpreter's module set when the CLI is done.
_CHAOS_CLI = """
import json, runpy, sys
import repro.experiments.chaos as chaos

chaos.SCALES["smoke"] = chaos.ChaosScale(
    "smoke", levels=(3,), submit_clients=30, submit_duration=30.0,
    buffer_producers=5, buffer_duration=20.0, replica_clients=3,
    replica_duration=120.0, kangaroo_producers=5, kangaroo_duration=60.0)
root = sys.argv[1]
sys.argv = ["chaos", "--scale", "smoke", "--seed", "11",
            "--out", root + "/out", "--cache-dir", root + "/cache"]
try:
    runpy.run_module("repro.experiments.chaos", run_name="__main__",
                     alter_sys=True)
except SystemExit as done:
    assert done.code == 0, done.code
print(json.dumps(sorted(sys.modules)))
"""

#: None of these is on the path of 33 cache hits and a render: it reads
#: the cell keys, the cache, the fault windows and the renderer.  A
#: package prefix covers every module under it — the kernel, the grid
#: substrates a fault severity is sized from, telemetry and the driver.
WARM_RERUN_NEVER_LOADS = (
    "repro.sim.engine", "repro.grid", "repro.obs", "repro.simruntime",
    "repro.core.interpreter", "repro.core.parser",
    "repro.core.realruntime", "repro.experiments.scenario_submit",
    "repro.lint", "repro.dist.backends", "repro.service",
    "concurrent.futures.process", "multiprocessing", "http.client",
    "socketserver",
)

#: The ``repro`` modules of a warm rerun (39 while two fault classes
#: sized themselves from the grid's configs at import time).
WARM_RERUN_MAX_REPRO_MODULES = 20


def test_warm_chaos_rerun_loads_no_simulator_and_no_pool(tmp_path):
    cold_out, cold = fresh(_CHAOS_CLI, str(tmp_path))
    assert "cache: 0 hits, 33 misses" in cold_out
    # the check has teeth: the run that computes does load them
    assert {"repro.core.interpreter", "repro.experiments.scenario_submit",
            "repro.simruntime.driver", "repro.sim.engine",
            "repro.grid.condor", "repro.grid.storage",
            "repro.obs.api"} <= set(cold)
    scorecard = (tmp_path / "out" / "scorecard_smoke.txt").read_bytes()

    warm_out, warm = fresh(_CHAOS_CLI, str(tmp_path))
    assert "cache: 33 hits, 0 misses" in warm_out
    assert prefixed(warm, *WARM_RERUN_NEVER_LOADS) == []
    assert len(prefixed(warm, "repro")) <= WARM_RERUN_MAX_REPRO_MODULES
    assert (tmp_path / "out" / "scorecard_smoke.txt").read_bytes() == scorecard


# ---------------------------------------------------------------------------
# thin clients
# ---------------------------------------------------------------------------

_IMPORT_ONLY = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(sys.modules)))
"""

#: What a process that submits, polls or claims never calls itself.  (A
#: worker's first claimed cell names its function's module, which then
#: loads whatever it needs.)
THIN_CLIENT_NEVER_LOADS = (
    "repro.sim.engine", "repro.simruntime", "repro.grid", "repro.faults",
    "repro.experiments", "repro.core.interpreter",
    "repro.core.parser", "repro.core.realruntime",
)


@pytest.mark.parametrize("module", ["repro.service.client",
                                    "repro.dist.worker"])
def test_thin_client_import_stays_thin(module):
    _out, loaded = fresh(_IMPORT_ONLY, module)
    assert module in loaded
    assert prefixed(loaded, *THIN_CLIENT_NEVER_LOADS) == []


def test_declaring_a_fault_loads_no_kernel():
    """``FaultSpec`` is what every harness and the chaos cell import from
    ``repro.faults.injectors``; ``Engine`` is an annotation there."""
    _out, loaded = fresh(_IMPORT_ONLY, "repro.faults.injectors")
    assert "repro.faults.injectors" in loaded
    assert prefixed(loaded, "repro.sim.engine") == []


# ---------------------------------------------------------------------------
# nothing lazy inside a timed cell
# ---------------------------------------------------------------------------

_SCENARIO_CELL = """
import importlib, json, sys
from repro.clients.base import ALL_DISCIPLINES

module = importlib.import_module("repro.experiments.scenario_" + sys.argv[1])
before = set(sys.modules)
for discipline in ALL_DISCIPLINES:
    {run}
print(json.dumps(sorted(set(sys.modules) - before)))
"""

SCENARIO_RUNS = {
    "submit": "module.run_submission(module.SubmitParams("
              "discipline, n_clients=20, duration=20.0))",
    "buffer": "module.run_buffer(module.BufferParams("
              "discipline, n_producers=5, duration=10.0))",
    "replica": "module.run_replica(module.ReplicaParams("
               "discipline, n_clients=3, duration=60.0))",
    "kangaroo": "module.run_kangaroo(module.KangarooParams("
                "discipline, n_producers=5, duration=30.0))",
    "dag": "module.run_dag_scenario(module.DagParams("
           "discipline, n_users=2, layers=2, width=5))",
}

_SCRIPT_CELL = """
import json, sys
from repro.service.sandbox import run_script_cell

before = set(sys.modules)
for world, command in (("condor", "condor_submit submit.job"),
                       ("replica", "wget http://xxx/data"),
                       ("buffer", "echo hello")):
    script = "try for 5 minutes\\n    " + command + "\\nend\\n"
    outcome = run_script_cell(script, (), world, 600.0, 2003, 100_000)
    assert outcome.success, (world, outcome)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


@pytest.mark.parametrize("scenario", sorted(SCENARIO_RUNS))
def test_a_scenario_cell_imports_nothing_once_its_module_is_loaded(scenario):
    code = _SCENARIO_CELL.format(run=SCENARIO_RUNS[scenario])
    _out, added = fresh(code, scenario)
    assert prefixed(added, "repro") == []


def test_a_script_cell_imports_nothing_once_the_sandbox_is_loaded():
    _out, added = fresh(_SCRIPT_CELL)
    assert prefixed(added, "repro") == []


# ---------------------------------------------------------------------------
# the process pool is imported by the path that starts one
# ---------------------------------------------------------------------------

_RUN_CELLS = """
import json, sys
from repro.parallel.cache import ResultCache
from repro.parallel.executor import CellSpec, run_cells

cells = [CellSpec(key="pow/%d" % n, fn=pow, args=(n, 2)) for n in range(4)]
cache = ResultCache(sys.argv[1])
want = [n * n for n in range(4)]
seen = {}
for label, jobs in (("serial", None), ("all-hits", 2)):
    assert run_cells(cells, jobs=jobs, cache=cache) == want
    seen[label] = "concurrent.futures.process" in sys.modules
assert cache.hits == 4 and cache.misses == 4
assert run_cells(cells, jobs=2) == want
seen["pool"] = "concurrent.futures.process" in sys.modules
print(json.dumps(seen))
"""


def test_only_the_pool_path_imports_the_pool(tmp_path):
    _out, seen = fresh(_RUN_CELLS, str(tmp_path))
    assert seen == {"serial": False, "all-hits": False, "pool": True}


# ---------------------------------------------------------------------------
# the job store is threads on a queue
# ---------------------------------------------------------------------------

_SERVE_ONE_JOB = """
import json, sys, time
from repro.service.jobs import JobStore
from repro.service.schemas import TERMINAL, ScriptSubmission

script = "try for 5 minutes\\n    condor_submit submit.job\\nend\\n"
with JobStore(workers=1) as store:
    job = store.submit(ScriptSubmission(script=script, timeout=600.0))
    deadline = time.monotonic() + 60.0
    while store.status(job.job_id).state not in TERMINAL:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    assert store.status(job.job_id).state == "done"
print(json.dumps(sorted(sys.modules)))
"""


def test_serving_a_script_job_loads_no_event_loop_and_no_pool():
    _out, loaded = fresh(_SERVE_ONE_JOB)
    assert "repro.service.jobs" in loaded
    assert prefixed(loaded, "asyncio", "concurrent.futures") == []
