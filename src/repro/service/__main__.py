"""``python -m repro.service`` — run the grid service.

Builds a :class:`~repro.service.jobs.JobStore` from CLI flags (sandbox
budgets, worker counts, cache location), binds the stdlib server, and
serves until SIGINT/SIGTERM — at which point in-flight jobs get their
cancel events set and the store drains before exit.
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import Optional

from ..obs import Observability
from ..parallel.executor import add_executor_arguments, cache_from_args
from .app import make_server
from .jobs import JobStore
from .sandbox import SandboxPolicy


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="serve the repro grid service plane over HTTP")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8042,
                        help="0 picks a free port (printed at startup)")
    parser.add_argument("--workers", type=int, default=2,
                        help="concurrently running jobs")
    add_executor_arguments(parser, cells="each job's")
    parser.add_argument("--ttl", type=float, default=3600.0,
                        help="seconds to retain finished jobs (0 = forever)")
    parser.add_argument("--wall-budget", type=float, default=120.0,
                        help="real-seconds budget per job")
    parser.add_argument("--max-events", type=int, default=2_000_000,
                        help="simulation event budget per script")
    parser.add_argument("--max-cells", type=int, default=64,
                        help="largest admissible campaign grid")
    parser.add_argument("--max-sim-seconds", type=float, default=3600.0,
                        help="largest admissible script timeout")
    parser.add_argument("--pin-seed", type=int, default=None,
                        help="force every submission to this seed")
    parser.add_argument("--no-lint", action="store_true",
                        help="skip ftshlint at admission")
    parser.add_argument("--lint-error", action="store_true",
                        help="treat lint warnings as admission errors")
    args = parser.parse_args(argv)

    policy = SandboxPolicy(
        max_sim_seconds=args.max_sim_seconds,
        max_events=args.max_events,
        max_cells=args.max_cells,
        wall_budget=args.wall_budget,
        pinned_seed=args.pin_seed,
        lint=not args.no_lint,
        lint_warn_as_error=args.lint_error,
    )
    cache = cache_from_args(args)
    store = JobStore(
        policy=policy, cache=cache, workers=args.workers,
        run_jobs=args.jobs, run_backend=args.backend,
        ttl=args.ttl if args.ttl > 0 else None,
        obs=Observability())
    store.start()
    server = make_server(store, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"repro-service: listening on http://{host}:{port} "
          f"(workers={args.workers}, cache={'off' if cache is None else cache.root})",
          flush=True)

    def _shutdown(signum, frame) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _shutdown)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro-service: shutting down", flush=True)
    finally:
        server.shutdown()
        server.server_close()
        store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
