"""``ftsh`` — command-line front end for the fault tolerant shell.

Usage::

    ftsh script.ftsh                 # run a script file
    ftsh -c 'try for 5 seconds ...'  # run inline text
    ftsh -t 300 script.ftsh          # bound the whole run to 300 s
    ftsh --parse-only script.ftsh    # syntax check
    ftsh --lint script.ftsh          # static analysis (repro.lint)
    ftsh -D host=xxx script.ftsh     # preset variables
    ftsh --log run.log script.ftsh   # write the execution log

Exit status: 0 on script success, 1 on script failure/timeout,
2 on syntax or usage errors — mirroring the success/failure dichotomy
the language itself exposes.  The check-only modes share the same
contract: ``--parse-only`` and ``--lint`` both exit 2 when the script
does not parse and 0 when it is acceptable; ``--lint`` exits 1 when a
finding reaches error severity (``-W error`` promotes warnings).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .core.errors import FtshSyntaxError
from .core.shell import Ftsh
from .core.units import duration_seconds


def _parse_timeout(text: str) -> float:
    """Accept ``300``, ``300s``, ``5 minutes``, ``5minutes``."""
    parts = text.split()
    if len(parts) == 2:
        return duration_seconds(float(parts[0]), parts[1])
    stripped = text.strip()
    for idx, char in enumerate(stripped):
        if not (char.isdigit() or char in ".+-"):
            return duration_seconds(float(stripped[:idx]), stripped[idx:])
    return float(stripped)


def _version() -> str:
    """Installed distribution version, falling back to the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from . import __version__

        return __version__


def build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftsh",
        description="The fault tolerant shell: retry, alternation and "
        "timeouts as language constructs (Thain & Livny, HPDC 2003).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("script", nargs="?", help="script file to run")
    source.add_argument("-c", "--command", help="run this script text")
    source.add_argument(
        "-i", "--interactive", action="store_true",
        help="start an interactive session (:help for directives)",
    )
    parser.add_argument(
        "-t",
        "--timeout",
        help="bound the whole run (e.g. '300', '5 minutes')",
    )
    parser.add_argument(
        "-D",
        "--define",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="preset a shell variable (repeatable)",
    )
    parser.add_argument(
        "--parse-only", action="store_true", help="syntax-check and exit"
    )
    parser.add_argument(
        "--lint", action="store_true",
        help="run the repro.lint rule pack and exit without running the "
        "script (exit 1 on error-severity findings, 2 on parse errors)",
    )
    parser.add_argument(
        "-W", dest="lint_warnings", choices=("error",), metavar="error",
        help="with --lint: treat warnings as errors",
    )
    parser.add_argument(
        "--format", action="store_true",
        help="print the script in canonical formatting and exit",
    )
    parser.add_argument("--log", help="write the execution log to this file")
    parser.add_argument(
        "--log-level",
        choices=("results", "commands", "trace"),
        default="trace",
        help="log verbosity (paper: 'a log of varying detail')",
    )
    parser.add_argument(
        "--spool-dir",
        metavar="DIR",
        help="keep large variable values in files under DIR instead of memory",
    )
    parser.add_argument(
        "--summary", action="store_true", help="print a log summary to stderr"
    )
    parser.add_argument(
        "--max-parallel",
        type=int,
        metavar="N",
        help="cap simultaneously running forall branches (the paper's "
        "process-creation governor); default unlimited",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="print a post-mortem analysis (per-command failure rates, "
        "backoff totals, branch frequencies) to stderr",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Chrome trace_event JSON of the run (open in "
        "chrome://tracing or ui.perfetto.dev)",
    )
    parser.add_argument(
        "--spans",
        metavar="FILE",
        help="write the raw span log as JSONL (read back with "
        "python -m repro.obs.report)",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="write run metrics in Prometheus text exposition format",
    )
    parser.add_argument(
        "--obs-report",
        action="store_true",
        help="print a telemetry summary (span stats, slowest commands, "
        "backoff totals) to stderr",
    )
    parser.add_argument(
        "--inject-fault",
        action="append",
        default=[],
        metavar="SPEC",
        help="inject a command fault: COMMAND:KIND[:SCHEDULE][:delay=S], "
        "e.g. 'wget:eperm:flaky:p=0.5' or 'sleep:delay:delay=2' "
        "(repeatable; see repro.faults.runtime)",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for the fault plan's own random stream (default 0)",
    )
    parser.add_argument(
        "--submit",
        metavar="URL",
        help="submit the script to a repro service (python -m "
        "repro.service) instead of running it locally; waits for the "
        "result and keeps the ftsh exit contract (2 on rejection)",
    )
    parser.add_argument(
        "--submit-world",
        choices=("condor", "replica", "buffer"),
        default="condor",
        help="with --submit: which simulated grid world to run against",
    )
    parser.add_argument(
        "--submit-seed",
        type=int,
        default=2003,
        metavar="N",
        help="with --submit: seed for the run's random streams",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_argparser().parse_args(argv)

    if args.interactive:
        from .repl import Repl

        return Repl().run()

    if args.command is not None:
        text, name = args.command, "<command-line>"
    else:
        try:
            with open(args.script, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"ftsh: cannot read {args.script}: {exc}", file=sys.stderr)
            return 2
        name = args.script

    try:
        script = Ftsh.parse(text, name)
    except FtshSyntaxError as exc:
        print(f"ftsh: {name}: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # Pathologically deep nesting overflows the recursive-descent
        # parser; for the exit-code contract that is a parse error (2),
        # not a crash — for --parse-only, --lint, and plain runs alike.
        print(f"ftsh: {name}: syntax error: nesting too deep to parse",
              file=sys.stderr)
        return 2
    if args.parse_only and not args.lint:
        return 0
    if args.format:
        from .core.pretty import format_script

        sys.stdout.write(format_script(script))
        return 0

    variables = {}
    for item in args.define:
        key, sep, value = item.partition("=")
        if not sep or not key:
            print(f"ftsh: bad -D {item!r}; expected NAME=VALUE", file=sys.stderr)
            return 2
        variables[key] = value

    if args.lint:
        from .lint.engine import LintConfig, has_errors, lint_script

        config = LintConfig(
            warn_as_error=args.lint_warnings == "error",
            assume_defined=frozenset(variables),
        )
        diagnostics = lint_script(script, text, source_name=name,
                                  config=config)
        for diag in diagnostics:
            print(f"ftsh: {diag.gcc()}", file=sys.stderr)
            if diag.suggestion:
                print(f"ftsh:     fix: {diag.suggestion}", file=sys.stderr)
        return 1 if has_errors(diagnostics) else 0

    timeout: Optional[float] = None
    if args.timeout is not None:
        try:
            timeout = _parse_timeout(args.timeout)
        except (ValueError, FtshSyntaxError):
            print(f"ftsh: bad timeout {args.timeout!r}", file=sys.stderr)
            return 2

    if args.submit:
        from .service.client import ServiceClient, ServiceError

        client = ServiceClient(url=args.submit)
        try:
            status = client.submit_script(
                text, variables=variables, world=args.submit_world,
                timeout=timeout, seed=args.submit_seed)
            final = client.wait(status.job_id)
            outcome = client.result(status.job_id)
        except ServiceError as exc:
            print(f"ftsh: {exc}", file=sys.stderr)
            for line in exc.details:
                print(f"ftsh: {line}", file=sys.stderr)
            return 2
        import json as _json

        print(_json.dumps(outcome.to_jsonable(), indent=2, sort_keys=True))
        if final.state != "done":
            print(f"ftsh: job {final.state}: {final.error or ''}",
                  file=sys.stderr)
            return 1
        if (isinstance(outcome.result, dict)
                and not outcome.result.get("success", False)):
            print(f"ftsh: script failed: {outcome.result.get('reason')}",
                  file=sys.stderr)
            return 1
        return 0

    from .core.realruntime import RealDriver
    from .core.shell_log import LOG_COMMANDS, LOG_RESULTS, LOG_TRACE
    from .core.variables import SpoolPolicy

    if args.max_parallel is not None and args.max_parallel < 1:
        print(f"ftsh: bad --max-parallel {args.max_parallel}", file=sys.stderr)
        return 2

    obs = None
    if args.trace or args.spans or args.metrics or args.obs_report:
        from .obs.api import Observability

        obs = Observability()
    if args.inject_fault:
        from .core.errors import SimulationError
        from .faults.runtime import (
            CommandFaultPlan,
            make_faulting_real_driver,
            parse_command_fault,
        )

        try:
            faults = [parse_command_fault(spec) for spec in args.inject_fault]
        except SimulationError as exc:
            print(f"ftsh: bad --inject-fault: {exc}", file=sys.stderr)
            return 2
        plan = CommandFaultPlan(faults, seed=args.fault_seed,
                                horizon=timeout if timeout else 3600.0)
        driver = make_faulting_real_driver(
            plan, max_parallel=args.max_parallel, obs=obs)
    else:
        driver = RealDriver(max_parallel=args.max_parallel, obs=obs)
    level = {"results": LOG_RESULTS, "commands": LOG_COMMANDS,
             "trace": LOG_TRACE}[args.log_level]
    spool = SpoolPolicy(args.spool_dir) if args.spool_dir else None
    shell = Ftsh(driver=driver, spool=spool, log_level=level, obs=obs)
    result = shell.run(script, variables=variables, timeout=timeout)

    if args.log:
        try:
            with open(args.log, "w", encoding="utf-8") as handle:
                handle.write(result.log.dump() + "\n")
        except OSError as exc:
            print(f"ftsh: cannot write log {args.log}: {exc}", file=sys.stderr)
    if args.summary:
        print(result.log.summary(), file=sys.stderr)
    if args.analyze:
        from .core.analysis import analyze

        print(analyze(result.log).report(), file=sys.stderr)
    if obs is not None:
        from .obs.exporters import (
            write_chrome_trace,
            write_prometheus,
            write_spans_jsonl,
        )

        exports = (
            (args.trace, write_chrome_trace, obs.tracer),
            (args.spans, write_spans_jsonl, obs.tracer),
            (args.metrics, write_prometheus, obs.metrics),
        )
        for path, writer, source in exports:
            if not path:
                continue
            try:
                writer(source, path)
            except OSError as exc:
                print(f"ftsh: cannot write {path}: {exc}", file=sys.stderr)
        if args.obs_report:
            from .obs.report import render_report

            print(render_report(tracer=obs.tracer, registry=obs.metrics),
                  file=sys.stderr)
    if not result.success and result.reason:
        print(f"ftsh: script failed: {result.reason}", file=sys.stderr)
    return 0 if result.success else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
