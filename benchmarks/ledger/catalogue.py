"""What the ledger measures: workloads, end-to-end rows, layer rows.

``BENCHMARK.json`` at the repo root is ``benchmark_json()`` of this
module written out, and a test holds the two equal, so the names
printed and the names registered cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

#: How long one run measures; sizes below are tuned to this on 2 cores.
RUN_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    #: Workloads that measure the row; elsewhere it repeats that
    #: workload's primary wall in the row's unit (see ``fill``).
    native: tuple[str, ...]


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: The workload whose traced run measures the row (0 elsewhere).
    workload: str
    #: The end-to-end row it should move, and where.
    moves: str


FIGURES = "figures_full"
CHAOS = "chaos_cache"
DIST = "dist_fleet"
SERVICE = "service_mix"
EVERY = (FIGURES, CHAOS, DIST, SERVICE)

WORKLOADS = (
    Workload(FIGURES,
             "runall medium x2 passes, serial, no cache (full is 31 s, over "
             "the run cap): core+simruntime+sim+grid do all the work; "
             "cache, dist and service do none"),
    Workload(CHAOS,
             "chaos smoke CLI, 33 cells: one cold run fills a fresh cache "
             "(write side, faults+archive active), then 10 warm CLI reruns "
             "(read side: import+fingerprint+key+unpickle+render)"),
    Workload(DIST,
             "120 short submit cells per round x4 executors (serial, pool, "
             "work-stealing, socket; 960 cut to fit the cap): the simulator "
             "share cancels, pickling+wire+leases+start differ"),
    Workload(SERVICE,
             "live service subprocess, 2 closed-loop clients x134 ops over "
             "the 3 shipped scripts, 1 in 4 a repeat (320 ops cut to fit the "
             "cap): only here are service.*, http and lint on the path"),
)

#: Bounds.  The issue asked for 0.10 throughout; the driver asks for a
#: bound three times the run-to-run spread seen, at most 0.25, and
#: applies a row's bound on every workload.  On this VM identical
#: CPU-bound work spreads 7-28 % raw and 9-13 % after host-speed scaling
#: (README, "Steadiness"), so every CPU-bound row takes 0.25.  The
#: service rows spread under 2 % where they are native, but on the
#: other three workloads they are fills of a CPU-bound wall, so they
#: take 0.25 as well.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25, EVERY),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.25, EVERY),
    EndToEnd("campaign_wall_s", "s", "lower", 0.25, (FIGURES, CHAOS)),
    EndToEnd("warm_rerun_s", "s", "lower", 0.25, (CHAOS,)),
    EndToEnd("cells_per_s.serial", "cells/s", "higher", 0.25, (DIST,)),
    EndToEnd("cells_per_s.pool", "cells/s", "higher", 0.25, (DIST,)),
    EndToEnd("cells_per_s.worksteal", "cells/s", "higher", 0.25, (DIST,)),
    EndToEnd("cells_per_s.socket", "cells/s", "higher", 0.25, (DIST,)),
    EndToEnd("submit_to_result_p50_ms", "ms", "lower", 0.25, (SERVICE,)),
    EndToEnd("submit_to_result_p95_ms", "ms", "lower", 0.25, (SERVICE,)),
    EndToEnd("repeat_p50_ms", "ms", "lower", 0.25, (SERVICE,)),
    EndToEnd("ops_per_s", "ops/s", "higher", 0.25, (SERVICE,)),
)


def fill(unit: str, wall_s: float, units: int) -> float:
    """A row the workload does not measure, in that row's unit.

    The driver wants every end-to-end row from every workload, never
    zero and never constant.  Such a row repeats the workload's primary
    wall: seconds as they are, rates as units of work per second,
    milliseconds as wall per unit of work.  True of the workload, and
    exactly as steady as its native row; the table prints it as a fill.
    """
    if unit == "s":
        return wall_s
    if unit.endswith("/s"):
        return units / wall_s
    if unit == "ms":
        return wall_s / units * 1000.0
    raise ValueError(f"no fill rule for unit {unit!r}")


_FIG_WALL = "campaign_wall_s on figures_full"
_CHAOS_WALL = "campaign_wall_s on chaos_cache"
_WARM = "warm_rerun_s on chaos_cache"
_POOL = "cells_per_s.pool on dist_fleet"
_FLEET = "cells_per_s.socket and .worksteal on dist_fleet"
_SVC = "submit_to_result_p50/p95_ms, repeat_p50_ms, ops_per_s on service_mix"
_GUARD = "none (guard: instrumentation must not become the hot path)"

PER_LAYER = (
    # core
    Layer("core.parser.parse_us", "us", "lower", FIGURES,
          f"{_FIG_WALL}; submit_to_result_p50_ms on service_mix"),
    Layer("core.parser.cached_us", "us", "lower", FIGURES, _FIG_WALL),
    Layer("core.compile.compile_us", "us", "lower", FIGURES,
          f"{_FIG_WALL}; submit_to_result_p50_ms on service_mix"),
    Layer("core.interpreter.compiled_attempts_per_s", "1/s", "higher",
          FIGURES, _FIG_WALL),
    Layer("core.interpreter.tree_attempts_per_s", "1/s", "higher",
          FIGURES, "none (the oracle path; not on a production run)"),
    Layer("core.interpreter.forall_branches_per_s", "1/s", "higher",
          FIGURES, _FIG_WALL),
    Layer("core.realruntime.cmd_ms", "ms", "lower", FIGURES,
          "none (real /bin/true; no workload runs real commands)"),
    # sim
    Layer("sim.engine.events_per_s", "1/s", "higher", FIGURES,
          f"{_FIG_WALL}; {_CHAOS_WALL}"),
    Layer("sim.engine.horizon_events_per_s", "1/s", "higher", FIGURES,
          f"{_FIG_WALL}; {_CHAOS_WALL}"),
    Layer("sim.engine.interrupts_per_s", "1/s", "higher", FIGURES,
          f"{_FIG_WALL}; {_CHAOS_WALL}"),
    Layer("sim.engine.pingpong_per_s", "1/s", "higher", FIGURES,
          f"{_FIG_WALL}; {_CHAOS_WALL}"),
    # simruntime
    Layer("simruntime.script_runs_per_s", "1/s", "higher", FIGURES,
          _FIG_WALL),
    # grid
    Layer("grid.condor.cell_s", "s", "lower", FIGURES,
          f"its share of {_FIG_WALL}"),
    Layer("grid.storage.cell_s", "s", "lower", FIGURES,
          f"its share of {_FIG_WALL}"),
    Layer("grid.httpserver.cell_s", "s", "lower", FIGURES,
          f"its share of {_FIG_WALL}"),
    Layer("grid.archive.cell_s", "s", "lower", CHAOS,
          f"its share of {_CHAOS_WALL}"),
    # experiments
    Layer("experiments.render_s", "s", "lower", FIGURES, _FIG_WALL),
    Layer("experiments.slowest_cell_share", "ratio", "lower", FIGURES,
          f"{_FIG_WALL}: the slowest cell caps any --jobs gain"),
    Layer("experiments.cell_share", "ratio", "higher", FIGURES,
          "none (rationale check: >= 0.9 of the wall is inside cells)"),
    Layer("experiments.scorecard_render_ms", "ms", "lower", CHAOS,
          f"{_CHAOS_WALL}; {_WARM}"),
    Layer("experiments.fault_cells_s", "s", "lower", CHAOS, _CHAOS_WALL),
    Layer("experiments.baseline_cells_s", "s", "lower", CHAOS, _CHAOS_WALL),
    # parallel
    Layer("parallel.import_s", "s", "lower", CHAOS, _WARM),
    Layer("parallel.cache.fingerprint_ms", "ms", "lower", CHAOS, _WARM),
    Layer("parallel.cache.key_us", "us", "lower", CHAOS, _WARM),
    Layer("parallel.cache.get_us", "us", "lower", CHAOS, _WARM),
    Layer("parallel.cache.put_us", "us", "lower", CHAOS, _CHAOS_WALL),
    Layer("parallel.cache.entry_bytes", "bytes", "lower", CHAOS, _WARM),
    Layer("parallel.cache.hit_ratio", "ratio", "higher", CHAOS,
          f"{_WARM} (rationale check: 1.0, no cell computed)"),
    Layer("parallel.executor.dispatch_us", "us", "lower", CHAOS,
          "cells_per_s.serial on dist_fleet"),
    Layer("parallel.executor.pool_start_s", "s", "lower", CHAOS, _POOL),
    Layer("parallel.transport.pickle_us", "us", "lower", CHAOS,
          f"{_POOL}; {_CHAOS_WALL}"),
    Layer("parallel.transport.unpickle_us", "us", "lower", CHAOS,
          f"{_POOL}; {_WARM}"),
    Layer("parallel.transport.result_bytes", "bytes", "lower", CHAOS,
          f"{_POOL}; {_WARM}"),
    # dist
    Layer("dist.queue.ops_per_s", "1/s", "higher", DIST, _FLEET),
    Layer("dist.wire.encode_us", "us", "lower", DIST,
          "cells_per_s.socket on dist_fleet"),
    Layer("dist.wire.decode_us", "us", "lower", DIST,
          "cells_per_s.socket on dist_fleet"),
    Layer("dist.wire.bytes_per_cell", "bytes", "lower", DIST,
          "cells_per_s.socket on dist_fleet"),
    Layer("dist.wire.compress_ratio", "ratio", "higher", DIST,
          "cells_per_s.socket on dist_fleet"),
    Layer("dist.coordinator.rtt_ms", "ms", "lower", DIST,
          "cells_per_s.socket on dist_fleet"),
    Layer("dist.coordinator.claim_ack_ms", "ms", "lower", DIST,
          "cells_per_s.socket on dist_fleet"),
    Layer("dist.store.publish_us", "us", "lower", DIST, _FLEET),
    Layer("dist.store.fetch_us", "us", "lower", DIST, _FLEET),
    Layer("dist.backends.socket_start_s", "s", "lower", DIST,
          "cells_per_s.socket on dist_fleet"),
    Layer("dist.backends.worksteal_start_s", "s", "lower", DIST,
          "cells_per_s.worksteal on dist_fleet"),
    Layer("dist.socket.efficiency", "ratio", "higher", DIST,
          "cells_per_s.socket on dist_fleet"),
    Layer("dist.worksteal.efficiency", "ratio", "higher", DIST,
          "cells_per_s.worksteal on dist_fleet"),
    Layer("dist.pool.efficiency", "ratio", "higher", DIST, _POOL),
    Layer("dist.socket.overhead_ms_per_cell", "ms", "lower", DIST,
          "cells_per_s.socket on dist_fleet"),
    Layer("dist.worksteal.overhead_ms_per_cell", "ms", "lower", DIST,
          "cells_per_s.worksteal on dist_fleet"),
    Layer("dist.retries", "count", "lower", DIST,
          "cells_per_s.socket on dist_fleet (must be 0)"),
    # service and lint
    Layer("service.http.exchange_ms", "ms", "lower", SERVICE, _SVC),
    Layer("service.app.handle_ms", "ms", "lower", SERVICE, _SVC),
    Layer("service.submit_ms", "ms", "lower", SERVICE, _SVC),
    Layer("service.wait_ms", "ms", "lower", SERVICE, _SVC),
    Layer("service.result_ms", "ms", "lower", SERVICE, _SVC),
    Layer("service.exchanges_per_op", "count", "lower", SERVICE, _SVC),
    Layer("service.cell_share", "ratio", "lower", SERVICE,
          "none (rationale check: cell time < 0.1 of op latency)"),
    Layer("service.sandbox.admit_us", "us", "lower", SERVICE, _SVC),
    Layer("service.jobs.inproc_submit_to_done_ms", "ms", "lower", SERVICE,
          _SVC),
    Layer("service.dedupes", "count", "lower", SERVICE,
          "repeat_p50_ms on service_mix"),
    Layer("service.rejected", "count", "lower", SERVICE,
          "none (must be 0: every op is admitted)"),
    Layer("lint.script_us", "us", "lower", SERVICE, _SVC),
    # obs
    Layer("obs.overhead_ratio", "ratio", "lower", FIGURES, _GUARD),
    Layer("obs.spans_per_cell", "count", "lower", FIGURES, _GUARD),
    Layer("obs.export_ms", "ms", "lower", FIGURES, _GUARD),
    Layer("bench.trace_overhead_ratio", "ratio", "lower", "every workload",
          _GUARD),
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this catalogue stands for."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound} for m in END_TO_END],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER],
    }
