"""The ``repro._lazy.lazy_exports`` contract, for all thirteen packages.

A package's ``__all__`` is derived from its export table, so the
literal lists here — each package's ``__all__`` as it stood when its
``__init__`` still imported every submodule, less the per-figure
``run_*`` runners that left ``repro.experiments`` when ``runall``
became the one figure pipeline — are where a dropped, added or
re-homed public name fails loudly.
"""

import ast
import importlib
import pathlib
import re
import sys
from unittest import mock

import pytest

import repro

PUBLIC = {
    "repro": [
        "BackoffPolicy", "BackoffState", "CommandRegistry", "Ftsh",
        "FtshError", "FtshFailure", "FtshSyntaxError", "FtshTimeout",
        "NO_BACKOFF", "PAPER_POLICY", "RealDriver", "RunResult", "ShellLog",
        "SimDriver", "SimFtsh", "__version__", "parse"],
    "repro.clients": [
        "ALL_DISCIPLINES", "ALOHA", "Discipline", "ETHERNET", "FIXED",
        "by_name", "format_window", "producer_script", "reader_script",
        "submit_script"],
    "repro.core": [
        "BackoffPolicy", "BackoffState", "CommandResult",
        "DEADLINE_ENV", "DeadlineStack", "Effect",
        "EffectGenerator", "EventKind", "Ftsh", "FtshCancelled", "FtshError",
        "FtshFailure", "FtshRuntimeError", "FtshSyntaxError", "FtshTimeout",
        "GetRandom", "GetTime", "Interpreter", "LogEvent",
        "NO_BACKOFF", "PAPER_POLICY", "ParallelBranch", "ParallelResult",
        "RealDriver", "RunCommand", "RunParallel", "RunResult", "Scope",
        "Script", "ShellLog", "SimulationError", "Sleep", "SleepResult",
        "UNBOUNDED", "UndefinedVariableError", "parse"],
    "repro.dist": [
        "BACKENDS", "BACKEND_ENV", "DEFAULT_BACKEND", "backend_names",
        "resolve_backend"],
    "repro.experiments": [
        "BufferParams", "BufferResult", "BufferSweepResult", "ChaosCell",
        "ChaosReport", "DagParams", "DagResult", "Figure1Result",
        "KangarooParams", "KangarooResult", "ReaderTimelineResult",
        "ReplicaParams", "ReplicaResult", "SubmitParams", "SubmitResult",
        "TimelineResult", "check_ordering", "render_scorecard", "run_buffer",
        "run_chaos_campaign", "run_dag_scenario", "run_kangaroo",
        "run_replica", "run_submission"],
    "repro.faults": [
        "Burst", "CommandFault", "CommandFaultPlan", "Degradation",
        "FaultSchedule", "FaultSpec", "FaultWindow", "Flaky", "Injector",
        "Periodic", "PoissonOutage", "apply_command_faults",
        "drive_schedule", "install_faults", "make_faulting_real_driver",
        "parse_command_fault", "parse_schedule", "validate_at_least",
        "validate_fraction", "validate_non_negative", "validate_positive",
        "validate_probability"],
    "repro.grid": [
        "ArchiveUploader", "BufferConfig", "BufferFile", "BufferWorld",
        "CondorConfig", "CondorWorld", "DagDispatcher", "DagStats", "FDTable",
        "FileServer", "Job", "ReplicaConfig", "ReplicaWorld", "Schedd",
        "SharedBuffer", "Task", "TaskDAG", "WanConfig", "WanLink", "Worker",
        "WorkerPool", "bag_of_tasks", "chain", "consumer_process",
        "layered_dag", "register_buffer_commands", "register_condor_commands",
        "register_replica_commands"],
    "repro.lint": [
        "Diagnostic", "LintConfig", "RULES", "Rule", "Severity",
        "SuppressionMap", "default_rules", "diagnostics_to_json",
        "has_errors", "lint_file", "lint_script", "lint_text",
        "promote_warnings", "sort_diagnostics", "worst_severity"],
    "repro.obs": [
        "Clock", "DEFAULT_BUCKETS", "FleetAggregator", "MetricsRegistry",
        "NULL_METRICS", "NULL_OBS", "NULL_TRACER", "NullObservability",
        "NullTracer", "Observability", "STATUS_CANCELLED",
        "STATUS_FAILED", "STATUS_OK", "STATUS_OPEN", "STATUS_TIMEOUT", "Span",
        "Tracer", "chrome_trace_events", "chrome_trace_json", "encode_batch",
        "engine_clock", "fetch_snapshot", "merge_histograms",
        "observability_records", "prometheus_text", "push_observability",
        "read_spans_jsonl", "render_fleet_text", "render_report", "resolve_push_url",
        "span_stats", "spans_jsonl", "wall_clock",
        "write_chrome_trace", "write_obs_bundle", "write_prometheus",
        "write_spans_jsonl"],
    "repro.parallel": [
        "CampaignCancelled", "CellSpec", "ResultCache", "canonical",
        "canonical_json", "code_fingerprint", "default_cache_dir",
        "resolve_jobs", "run_cells", "strip_observability", "to_jsonable"],
    "repro.service": [
        "BadRequest", "CampaignSubmission", "JobResult", "JobStatus",
        "JobStore", "SandboxPolicy", "SandboxRejection",
        "ScriptSubmission", "ServiceClient", "ServiceError"],
    "repro.sim": [
        "AllOf", "AnyOf", "Condition", "ConditionValue", "Counter", "Engine",
        "Event", "INFINITY", "Interrupt", "Process", "ProcessGenerator",
        "RandomStreams", "Request", "Resource", "TimeSeries", "Timeout",
        "sample"],
    "repro.simruntime": [
        "CommandContext", "CommandRegistry", "SimDriver", "SimFtsh",
        "normalize_result"],
}

#: One submodule of each package: ``pkg.<submodule>`` resolves as a plain
#: attribute, as it did when every ``__init__`` imported its siblings.
BARE_SUBMODULE = {
    "repro": "cli", "repro.clients": "scripts", "repro.core": "backoff",
    "repro.dist": "backends", "repro.experiments": "report",
    "repro.faults": "config", "repro.grid": "fdtable", "repro.lint": "cli",
    "repro.obs": "clock", "repro.parallel": "transport",
    "repro.service": "schemas", "repro.sim": "rng",
    "repro.simruntime": "registry",
}

SRC = pathlib.Path(repro.__file__).parent


def home_of(package, name):
    """``(module, attribute)`` a public name is exported from, read off
    the package's own table; ``None`` for a name it defines itself."""
    for home, names in vars(package).get("_EXPORTS", {}).items():
        if name in names:
            submodule, _, attr = home.partition(":")
            return (importlib.import_module(f"{package.__name__}.{submodule}"),
                    attr or name)
    return None


@pytest.mark.parametrize("name", sorted(PUBLIC))
class TestEveryPackage:
    def test_all_is_the_parent_commits(self, name):
        package = importlib.import_module(name)
        assert sorted(package.__all__) == sorted(PUBLIC[name])
        assert len(set(package.__all__)) == len(package.__all__)

    def test_names_resolve_to_their_home_objects_and_are_cached(self, name):
        package = importlib.import_module(name)
        for public in PUBLIC[name]:
            value = getattr(package, public)
            home = home_of(package, public)
            if home is not None:
                assert value is getattr(*home), public
            assert vars(package)[public] is value, public

    def test_dir_lists_every_public_name(self, name):
        package = importlib.import_module(name)
        assert set(PUBLIC[name]) <= set(dir(package))

    def test_star_import_binds_every_public_name(self, name):
        bound = {}
        exec(f"from {name} import *", bound)
        assert set(PUBLIC[name]) <= set(bound)

    def test_unknown_name_raises_attribute_error_naming_the_package(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=re.escape(repr(name))):
            package.no_such_name
        assert not hasattr(package, "__no_such_dunder__")
        with pytest.raises(ImportError):
            exec(f"from {name} import no_such_name", {})

    def test_bare_submodule_resolves(self, name):
        package = importlib.import_module(name)
        submodule = BARE_SUBMODULE[name]
        assert getattr(package, submodule) is \
            importlib.import_module(f"{name}.{submodule}")


def test_bare_submodule_resolves_in_a_fresh_interpreter():
    """The in-process case above can be satisfied by the import system
    (another test imported the submodule); here nothing else has."""
    import subprocess

    code = ("import sys, repro.core\n"
            "assert 'repro.core.backoff' not in sys.modules\n"
            "assert repro.core.backoff.PAPER_POLICY is "
            "repro.core.PAPER_POLICY\n"
            "assert 'repro.core.parser' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={"PYTHONPATH": str(SRC.parent)})


def test_alias_exports_keep_their_public_names():
    from repro.obs import dashboard, render_fleet_text

    assert render_fleet_text is dashboard.render_text


def test_a_submodule_whose_own_import_is_missing_is_not_an_attribute_error(
        tmp_path, monkeypatch):
    """``ModuleNotFoundError`` for something *else* must surface as
    itself: a broken submodule is not an absent attribute."""
    from repro._lazy import lazy_exports

    package = tmp_path / "lazypkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "broken.py").write_text("import no_such_dependency_xyz\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    module = importlib.import_module("lazypkg")
    try:
        getattr_, _dir, _all = lazy_exports("lazypkg", {})
        with pytest.raises(ModuleNotFoundError, match="no_such_dependency"):
            getattr_("broken")
        with pytest.raises(AttributeError):
            getattr_("absent")
    finally:
        del sys.modules[module.__name__]


def test_mock_patch_patches_and_restores():
    import repro.core
    from repro.core.shell import Ftsh

    vars(repro.core).pop("Ftsh", None)  # as if never resolved
    with mock.patch("repro.core.Ftsh", "patched"):
        assert repro.core.Ftsh == "patched"
    assert repro.core.Ftsh is Ftsh
    with mock.patch("repro.core.Ftsh", "patched"):  # and once cached
        assert repro.core.Ftsh == "patched"
    assert repro.core.Ftsh is Ftsh


class TestLayoutGuard:
    """One lazy-export idiom: a source grep, in the style of
    ``tests/service/test_http.py::TestLayoutGuard``, so a hand-rolled
    ``__getattr__`` or an eager ``__init__`` cannot come back unnoticed."""

    def test_getattr_is_defined_in_the_helper_only(self):
        defining = [str(path.relative_to(SRC))
                    for path in sorted(SRC.rglob("*.py"))
                    if re.search(r"^\s*def __getattr__\b", path.read_text(),
                                 re.MULTILINE)]
        assert defining == ["_lazy.py"]

    def test_no_init_imports_a_sibling_eagerly(self):
        inits = sorted(SRC.rglob("__init__.py"))
        assert len(inits) == len(PUBLIC)
        for path in inits:
            for node in module_level(ast.parse(path.read_text()).body):
                where = f"{path.relative_to(SRC)}:{node.lineno}"
                if isinstance(node, ast.Import):
                    assert not any(alias.name.split(".")[0] == "repro"
                                   for alias in node.names), where
                elif isinstance(node, ast.ImportFrom) and (
                        node.level or node.module.split(".")[0] == "repro"):
                    assert node.module == "_lazy", where
                    assert [alias.name for alias in node.names] == \
                        ["lazy_exports"], where


def module_level(body):
    """Statements that run when the module is imported: everything but
    function and class bodies and ``if TYPE_CHECKING:`` blocks (which
    may mirror the table for editors)."""
    for node in body:
        if isinstance(node, ast.If) and \
                getattr(node.test, "id", None) == "TYPE_CHECKING":
            continue
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "handlers", "finalbody"):
                yield from module_level(getattr(node, field, []))
