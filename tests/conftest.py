"""Repo-wide test configuration.

Registers hypothesis profiles so CI runs are reproducible:

* ``default`` — hypothesis defaults, used for local development;
* ``ci`` — derandomized with a generous fixed deadline, so a CI
  failure replays identically and a loaded runner never flakes a
  property test on timing.

CI selects a profile via the ``HYPOTHESIS_PROFILE`` environment
variable (see ``.github/workflows/ci.yml``); local runs keep the
default unless the variable is set.

It also provides the ``tree_walker`` fixture, which puts every script
through the tree-walking oracle instead of a compiled plan.
"""

import os

import pytest

try:
    from hypothesis import settings
except ImportError:  # property tests simply don't collect without it
    settings = None

if settings is not None:
    settings.register_profile("default", settings())
    settings.register_profile(
        "ci",
        derandomize=True,
        deadline=2000,
        print_blob=True,
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def tree_walker(monkeypatch):
    """Force every script through the tree-walker; returns the list of the
    script bodies it walked.

    ``compile_cached`` is the identity at every site that calls it, so
    each script reaches ``Interpreter.execute`` as a parsed ``Script``;
    a compiled plan that still runs fails the test.
    """
    from repro.core.compile import ScriptPlan
    from repro.core.interpreter import Interpreter

    for site in ("repro.simruntime.shell", "repro.core.shell",
                 "repro.experiments.scenario_submit", "repro.grid.chimera"):
        monkeypatch.setattr(f"{site}.compile_cached", lambda script: script)
    walked = []
    execute_top = Interpreter._execute_top

    def counting(self, body, overall_deadline):
        walked.append(body)
        return execute_top(self, body, overall_deadline)

    def no_plan(self, interp, overall_deadline=None):
        raise AssertionError("a compiled plan ran")

    monkeypatch.setattr(Interpreter, "_execute_top", counting)
    monkeypatch.setattr(ScriptPlan, "execute", no_plan)
    return walked
