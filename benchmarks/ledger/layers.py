"""Per-layer rows of the traced run.

Two sources, both in the benchmark's own process: spans recorded
around the benchmark's calls into each module (``workloads.py``), and
replays of the workload's own inputs -- its scripts, params and results
-- through the module's public functions.  CPU-bound timings are
host-speed reference time like the end-to-end rows.
"""

from __future__ import annotations

import pickle
import shutil
import subprocess
import sys
import time
from typing import Any, Callable

from catalogue import CHAOS, DIST, FIGURES, SERVICE
from harness import Ledger
from statistics import median

from rules import self_times
from workloads import (
    DIST_JOBS,
    EXECUTORS,
    Outcome,
    ServiceProcess,
    campaign_seed,
    dist_cells,
    load_scripts,
    noop_cells,
    wait_single_threaded,
)


def per_call(ledger: Ledger, fn: Callable[[], Any], calls: int,
             fleet: bool = False) -> float:
    """Reference seconds one call of ``fn`` takes, over ``calls`` calls;
    on one CPU unless ``fn`` starts a ``fleet`` that needs both."""
    with ledger.one_cpu(not fleet), ledger.timed() as region:
        for _ in range(calls):
            fn()
    return region.ref_s / calls


def spans_under(ledger: Ledger, root) -> list:
    return [span for span in ledger.tracer.spans
            if span.parent_id == root.span_id and span.finished]


def roots_named(ledger: Ledger, prefix: str) -> list:
    return [span for span in ledger.tracer.spans
            if span.name.startswith(prefix) and span.finished]


# ---------------------------------------------------------------------------
# figures_full: core, sim, simruntime, grid, experiments, obs
# ---------------------------------------------------------------------------

_GRID_OF_FIGURE = {
    "fig1": "grid.condor.cell_s", "fig2": "grid.condor.cell_s",
    "fig3": "grid.condor.cell_s", "fig45": "grid.storage.cell_s",
    "fig6": "grid.httpserver.cell_s", "fig7": "grid.httpserver.cell_s",
}


def _parser_rows(ledger: Ledger, calls: int = 500) -> dict[str, float]:
    """Parse and compile the paper's most complex listing, the reader
    script every simulated client of figures 6-7 runs."""
    from repro.clients.base import ETHERNET
    from repro.clients.scripts import reader_script
    from repro.core.compile import compile_script
    from repro.core.parser import parse, parse_cached

    text = reader_script(ETHERNET, ("alpha", "beta", "gamma"))
    tree = parse(text)
    parse_cached(text)
    return {
        "core.parser.parse_us":
            per_call(ledger, lambda: parse(text), calls) * 1e6,
        "core.parser.cached_us":
            per_call(ledger, lambda: parse_cached(text), calls * 100) * 1e6,
        "core.compile.compile_us":
            per_call(ledger, lambda: compile_script(tree), calls) * 1e6,
    }


def _engine_rows(ledger: Ledger, events: int = 200_000,
                 waiters: int = 20_000) -> dict[str, float]:
    """The event kernel alone: plain timeouts, a numeric horizon, and an
    interrupt storm over one shared event."""
    from repro.sim.engine import Engine
    from repro.sim.events import Interrupt

    engine = Engine()
    for _ in range(events):
        engine.timeout(1.0)
    with ledger.one_cpu(), ledger.timed() as plain:
        engine.run()

    engine = Engine()
    for index in range(events):
        engine.timeout(float(index % 100))
    with ledger.one_cpu(), ledger.timed() as horizon:
        engine.run(until=50.0)
    due = (events // 100) * 51 + min(events % 100, 51)

    engine = Engine()
    barrier = engine.event()

    def wait():
        try:
            yield barrier
        except Interrupt:
            return

    parked = [engine.process(wait()) for _ in range(waiters)]

    def storm():
        yield engine.timeout(1.0)
        for process in parked:
            process.interrupt()

    engine.process(storm())
    with ledger.one_cpu(), ledger.timed() as churn:
        engine.run()
    return {
        "sim.engine.events_per_s": events / plain.ref_s,
        "sim.engine.horizon_events_per_s": due / horizon.ref_s,
        "sim.engine.interrupts_per_s": waiters / churn.ref_s,
    }


def _pingpong(ledger: Ledger, rounds: int = 20_000) -> float:
    """Two processes handing one event back and forth: the engine's
    process-resume path, which the timeout benches do not touch."""
    from repro.sim.engine import Engine

    engine = Engine()
    box = {"ping": engine.event(), "pong": engine.event()}

    def pinger():
        for _ in range(rounds):
            box["ping"].succeed()
            yield box["pong"]
            box["pong"] = engine.event()

    def ponger():
        for _ in range(rounds):
            yield box["ping"]
            box["ping"] = engine.event()
            box["pong"].succeed()

    engine.process(ponger())
    engine.process(pinger())
    with ledger.one_cpu(), ledger.timed() as region:
        engine.run()
    return rounds / region.ref_s


def _script_runs(ledger: Ledger, runs: int = 300) -> float:
    """``SimFtsh.run`` of the Aloha submit script, one client."""
    from repro.clients.base import ALOHA
    from repro.clients.scripts import submit_script
    from repro.grid.condor import (
        CondorConfig,
        CondorWorld,
        register_condor_commands,
    )
    from repro.sim.engine import Engine
    from repro.sim.rng import RandomStreams
    from repro.simruntime.registry import CommandRegistry
    from repro.simruntime.shell import SimFtsh

    streams = RandomStreams(ledger.seed)
    engine = Engine(streams=streams)
    world = CondorWorld(engine, CondorConfig())
    registry = CommandRegistry()
    register_condor_commands(registry, world)
    shell = SimFtsh(engine, registry, world=world,
                    rng=streams.stream("ledger-client"))
    script = submit_script(ALOHA)
    shell.run(script, timeout=300.0)
    seconds = per_call(ledger, lambda: shell.run(script, timeout=300.0), runs)
    return 1.0 / seconds


def _real_command_ms(ledger: Ledger, runs: int = 200) -> float:
    from repro.core.shell import Ftsh

    shell = Ftsh()
    shell.run("true")
    # Raw: fork+exec+wait of /bin/true is kernel time, not interpreter.
    started = time.perf_counter()
    for _ in range(runs):
        shell.run("true")
    return (time.perf_counter() - started) / runs * 1000.0


def _obs_rows(ledger: Ledger) -> dict[str, float]:
    """The fig3 Ethernet cell (quick scale) with and without telemetry."""
    import dataclasses

    from repro.clients.base import ETHERNET
    from repro.experiments.figure2 import timeline_params
    from repro.experiments.runall import SCALES
    from repro.experiments.scenario_submit import run_submission
    from repro.obs import Observability, chrome_trace_json

    scale = SCALES["quick"]
    params = timeline_params(ETHERNET, n_clients=scale.timeline_clients,
                             duration=scale.timeline_duration,
                             seed=campaign_seed(ledger.seed))
    plain = median(per_call(ledger, lambda: run_submission(params), 1)
                   for _ in range(3))
    bundles = []

    def observed() -> None:
        obs = Observability()
        run_submission(dataclasses.replace(params, obs=obs))
        bundles.append(obs)

    with_obs = median(per_call(ledger, observed, 1) for _ in range(3))
    tracer = bundles[-1].tracer
    export = per_call(ledger, lambda: chrome_trace_json(tracer), 1)
    return {
        "obs.overhead_ratio": with_obs / plain,
        "obs.spans_per_cell": float(len(tracer) + tracer.dropped),
        "obs.export_ms": export * 1000.0,
    }


def figures_layers(ledger: Ledger, untraced: Outcome, traced: Outcome,
                   _kept: Any) -> dict[str, float]:
    from repro.experiments import bench

    rows: dict[str, list[float]] = {}
    own = self_times(ledger.tracer.spans)
    for root, region in zip(roots_named(ledger, "runall.main"),
                            traced.extra["passes"]):
        scale = region.ref_s / region.raw_s
        by_layer = {name: 0.0 for name in set(_GRID_OF_FIGURE.values())}
        cell_total = slowest = render = 0.0
        for span in spans_under(ledger, root):
            if span.kind == "cell":
                figure = span.name.split(":", 1)[1].split("/", 1)[0]
                by_layer[_GRID_OF_FIGURE[figure]] += span.duration
                cell_total += span.duration
                slowest = max(slowest, span.duration)
            elif span.kind == "render":
                render += span.duration
        # Before the first cell line main() only builds the cell list;
        # that and the rendering are the campaign layer's own time.
        render += own[root.span_id]
        for name, seconds in by_layer.items():
            rows.setdefault(name, []).append(seconds * scale)
        rows.setdefault("experiments.render_s", []).append(render * scale)
        rows.setdefault("experiments.slowest_cell_share", []).append(
            slowest / root.duration)
        rows.setdefault("experiments.cell_share", []).append(
            cell_total / root.duration)
    layers = {name: median(values) for name, values in rows.items()}
    ledger.check("figures_full: >= 90 % of the wall is inside cell spans",
                 layers.get("experiments.cell_share", 0.0) >= 0.9,
                 f"{layers.get('experiments.cell_share', 0.0):.3f}")

    interp = bench.bench_interp(attempts=500, runs=100)
    retry = interp["dispatch"]["retry"]
    forall = interp["dispatch"]["forall"]
    ledger.check("compiled plans observe what the tree-walker observes",
                 interp["identical"])
    layers.update({
        "core.interpreter.compiled_attempts_per_s":
            retry["attempts"] * retry["runs"] / retry["compiled_s"],
        "core.interpreter.tree_attempts_per_s":
            retry["attempts"] * retry["runs"] / retry["tree_s"],
        "core.interpreter.forall_branches_per_s":
            forall["branches"] * forall["runs"] / forall["compiled_s"],
        "core.realruntime.cmd_ms": _real_command_ms(ledger),
        "sim.engine.pingpong_per_s": _pingpong(ledger),
        "simruntime.script_runs_per_s": _script_runs(ledger),
    })
    layers.update(_parser_rows(ledger))
    layers.update(_engine_rows(ledger))
    layers.update(_obs_rows(ledger))
    return layers


# ---------------------------------------------------------------------------
# chaos_cache: parallel, grid.archive, experiments
# ---------------------------------------------------------------------------

def _fresh_process_ms(ledger: Ledger, code: str) -> float:
    """Milliseconds a snippet reports about itself in a new interpreter."""
    done = subprocess.run([sys.executable, "-c", code],
                          env=ledger.child_env(), capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1]) * 1000.0


_FINGERPRINT = (
    "import time\n"
    "from repro.parallel.cache import code_fingerprint\n"
    "t = time.perf_counter(); code_fingerprint()\n"
    "print(time.perf_counter() - t)\n")


def chaos_layers(ledger: Ledger, untraced: Outcome, traced: Outcome,
                 _kept: Any) -> dict[str, float]:
    from repro.experiments import chaos
    from repro.parallel.cache import ResultCache
    from repro.parallel.executor import run_cells

    cold_root = roots_named(ledger, "chaos.cli:cold")[-1]
    cold = traced.extra["cold"].region
    scale = cold.ref_s / cold.raw_s
    archive = faulted = baseline = 0.0
    for span in spans_under(ledger, cold_root):
        if span.kind != "cell":
            continue
        # chaos/<scenario>/baseline/<discipline> or
        # chaos/<fault>/i<level>/<discipline>
        _chaos, group, level, _discipline = \
            span.name.split(":", 1)[1].split("/")
        seconds = span.duration * scale
        if group in ("kangaroo", "wan-partition"):
            archive += seconds
        if level == "baseline":
            baseline += seconds
        else:
            faulted += seconds
    renders = []
    for run, root in zip(traced.extra["warm"],
                         roots_named(ledger, "chaos.cli:warm")):
        factor = run.region.ref_s / run.region.raw_s
        renders.extend(span.duration * factor * 1000.0
                       for span in spans_under(ledger, root)
                       if span.name == "after-cells:cache")
    layers = {
        "grid.archive.cell_s": archive,
        "experiments.fault_cells_s": faulted,
        "experiments.baseline_cells_s": baseline,
        "experiments.scorecard_render_ms": median(renders) if renders else 0.0,
        "parallel.cache.hit_ratio": traced.extra["hit_ratio"],
    }
    ledger.check("chaos_cache warm reruns: no cell computed",
                 traced.extra["hit_ratio"] == 1.0,
                 f"hit ratio {traced.extra['hit_ratio']}")

    # Replay: this campaign's own cell specs through the key hash, and
    # the results of its buffer cells (the cheapest scenario, computed
    # here) through the cache and the pickler.
    specs = chaos.campaign_cells(chaos.SCALES[traced.extra["scale"]],
                                 traced.extra["seed"])
    store = ResultCache(ledger.fresh_dir("chaos-replay"))
    try:
        keys = [store.key_for(spec.fn, spec.args, spec.kwargs)
                for spec in specs]
        layers["parallel.cache.key_us"] = per_call(
            ledger, lambda: [store.key_for(s.fn, s.args, s.kwargs)
                             for s in specs], 20) / len(specs) * 1e6
        buffer_specs = [spec for spec in specs if "/buffer/" in spec.key
                        or "enospc" in spec.key or "slow-disk" in spec.key]
        values = run_cells(buffer_specs)
        sample_keys = keys[:len(values)]
        layers["parallel.cache.put_us"] = per_call(
            ledger, lambda: [store.put(k, v)
                             for k, v in zip(sample_keys, values)],
            10) / len(values) * 1e6
        layers["parallel.cache.get_us"] = per_call(
            ledger, lambda: [store.get(k) for k in sample_keys],
            10) / len(values) * 1e6
        sizes = [size for _key, size, _mtime in store.entries()]
        layers["parallel.cache.entry_bytes"] = sum(sizes) / len(sizes)
        blobs = [pickle.dumps(v, protocol=pickle.HIGHEST_PROTOCOL)
                 for v in values]
        layers["parallel.transport.result_bytes"] = \
            sum(len(b) for b in blobs) / len(blobs)
        layers["parallel.transport.pickle_us"] = per_call(
            ledger, lambda: [pickle.dumps(
                v, protocol=pickle.HIGHEST_PROTOCOL) for v in values],
            20) / len(values) * 1e6
        layers["parallel.transport.unpickle_us"] = per_call(
            ledger, lambda: [pickle.loads(b) for b in blobs],
            20) / len(blobs) * 1e6
    finally:
        shutil.rmtree(store.root, ignore_errors=True)

    noop = noop_cells(2000)
    layers["parallel.executor.dispatch_us"] = per_call(
        ledger, lambda: run_cells(noop), 5) / len(noop) * 1e6
    run_cells(noop_cells(2), jobs=DIST_JOBS)
    layers["parallel.executor.pool_start_s"] = median(
        per_call(ledger, lambda: run_cells(noop_cells(2), jobs=DIST_JOBS), 1,
                 fleet=True)
        for _ in range(5))
    with ledger.one_cpu(), ledger.timed() as region:
        subprocess.run([sys.executable, "-c",
                        "import repro.experiments.chaos"],
                       env=ledger.child_env(), check=True, timeout=120)
    layers["parallel.import_s"] = region.ref_s
    layers["parallel.cache.fingerprint_ms"] = median(
        _fresh_process_ms(ledger, _FINGERPRINT) for _ in range(3))
    return layers


# ---------------------------------------------------------------------------
# dist_fleet: dist
# ---------------------------------------------------------------------------

def _queue_ops(ledger: Ledger, tasks: int = 20_000, batch: int = 16) -> float:
    from repro.dist.queue import TaskQueue

    queue = TaskQueue()
    with ledger.one_cpu(), ledger.timed() as region:
        for index in range(tasks):
            queue.submit(index, key=str(index))
        while True:
            claimed = queue.claim_many("w0", batch)
            if not claimed:
                break
            queue.ack_many("w0", [(task.task_id, None, "computed")
                                  for task in claimed])
    return tasks / region.ref_s


def _coordinator_rows(ledger: Ledger, cells: list) -> dict[str, float]:
    """A live CoordinatorServer and CoordinatorClient on loopback.

    Raw milliseconds: an exchange is dominated by socket waits.
    """
    from repro.dist.coordinator import CoordinatorServer
    from repro.dist.queue import TaskQueue
    from repro.dist.store import MemoryArtifactStore
    from repro.dist.wire import encode_cell
    from repro.dist.worker import CoordinatorClient

    queue = TaskQueue()
    for spec in cells:
        queue.submit(encode_cell(spec), key=spec.key)
    server = CoordinatorServer(queue, MemoryArtifactStore())
    try:
        client = CoordinatorClient(server.start(), "ledger-probe")
        client.heartbeat()
        started = time.perf_counter()
        for _ in range(50):
            client.heartbeat()
        rtt = (time.perf_counter() - started) / 50
        pairs = 0
        started = time.perf_counter()
        while True:
            state, docs = client.claim(max_tasks=16)
            if state != "tasks" or not docs:
                break
            client.ack_many([(doc["task_id"], None, "computed")
                             for doc in docs])
            pairs += 1
        claim_ack = (time.perf_counter() - started) / max(pairs, 1)
    finally:
        server.close()
    return {"dist.coordinator.rtt_ms": rtt * 1000.0,
            "dist.coordinator.claim_ack_ms": claim_ack * 1000.0}


def _fleet_retries(ledger: Ledger, cells: list) -> float:
    """Nacks plus lease expiries of one socket campaign.

    The socket backend builds its queue inside ``run_socket``; a
    recording subclass, installed for this one call, is the only way to
    read its counters from outside.
    """
    from repro.dist import backends
    from repro.parallel.executor import run_cells

    made = []

    class Recording(backends.TaskQueue):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            made.append(self)

    original = backends.TaskQueue
    backends.TaskQueue = Recording
    wait_single_threaded()
    try:
        run_cells(cells, jobs=DIST_JOBS, backend="socket")
    finally:
        backends.TaskQueue = original
    return float(sum(q.stats.nacks + q.stats.expired for q in made))


def dist_layers(ledger: Ledger, untraced: Outcome, traced: Outcome,
                _kept: Any) -> dict[str, float]:
    from repro.dist.store import ArtifactStore
    from repro.dist.wire import (
        decode_blob_ex,
        decode_cell,
        encode_blob,
        encode_cell,
    )
    from repro.parallel.cache import ResultCache
    from repro.parallel.executor import run_cells

    walls = untraced.extra["walls"]
    cells_per_round = untraced.extra["cells_per_round"]
    serial = median(r.ref_s for r in walls["serial"])
    layers: dict[str, float] = {}
    for name in ("pool", "worksteal", "socket"):
        wall = median(r.ref_s for r in walls[name])
        layers[f"dist.{name}.efficiency"] = serial / (DIST_JOBS * wall)
        if name != "pool":
            layers[f"dist.{name}.overhead_ms_per_cell"] = (
                (wall - serial / DIST_JOBS) / cells_per_round * 1000.0)

    cells = dist_cells(ledger.seed, 0, 48)
    docs = [encode_cell(spec) for spec in cells]
    layers["dist.wire.encode_us"] = per_call(
        ledger, lambda: [encode_cell(s) for s in cells], 20) / len(cells) * 1e6
    layers["dist.wire.decode_us"] = per_call(
        ledger, lambda: [decode_cell(d) for d in docs], 20) / len(docs) * 1e6
    results = run_cells(cells)
    blobs = [encode_blob(result) for result in results]
    sizes = [decode_blob_ex(blob)[1:] for blob in blobs]
    task_chars = sum(len(doc["blob"]) for doc in docs) / len(docs)
    layers["dist.wire.bytes_per_cell"] = (
        task_chars + sum(wire for wire, _raw in sizes) / len(sizes))
    layers["dist.wire.compress_ratio"] = (
        sum(raw for _wire, raw in sizes) / sum(wire for wire, _raw in sizes))

    store = ArtifactStore(ResultCache(ledger.fresh_dir("dist-store")))
    try:
        keys = [store.key_for(spec) for spec in cells]
        layers["dist.store.publish_us"] = per_call(
            ledger, lambda: [store.publish(k, v)
                             for k, v in zip(keys, results)],
            5) / len(keys) * 1e6
        layers["dist.store.fetch_us"] = per_call(
            ledger, lambda: [store.fetch(k) for k in keys],
            5) / len(keys) * 1e6
    finally:
        shutil.rmtree(store.cache.root, ignore_errors=True)

    layers["dist.queue.ops_per_s"] = _queue_ops(ledger)
    def start_fleet(kwargs: dict) -> None:
        wait_single_threaded()
        run_cells(noop_cells(2), **kwargs)

    for name, kwargs in EXECUTORS[2:]:
        layers[f"dist.backends.{name}_start_s"] = median(
            per_call(ledger, lambda: start_fleet(kwargs), 1, fleet=True)
            for _ in range(5))
    layers["dist.retries"] = _fleet_retries(ledger, cells)
    ledger.check("dist_fleet: no nack and no lease expiry",
                 layers["dist.retries"] == 0, f"{layers['dist.retries']}")
    # Last: the coordinator probe starts a thread, and the fleets only
    # fork from a single-threaded parent.
    layers.update(_coordinator_rows(ledger, cells))
    return layers


# ---------------------------------------------------------------------------
# service_mix: service, lint
# ---------------------------------------------------------------------------

def _metric_value(text: str, name: str) -> float:
    """Sum of every sample of ``name`` in a Prometheus text document."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and line[len(name):len(name) + 1] in " {":
            total += float(line.rsplit(" ", 1)[1])
    return total


def service_layers(ledger: Ledger, untraced: Outcome, traced: Outcome,
                   service: ServiceProcess) -> dict[str, float]:
    from repro.core.parser import parse_cached
    from repro.lint.engine import lint_script
    from repro.service.jobs import JobStore
    from repro.service.sandbox import (
        SandboxPolicy,
        admit_script,
        cells_for,
    )
    from repro.service.schemas import ScriptSubmission

    ops = [op for op in traced.extra["ops"] if op.ok]
    layers = {
        f"service.{phase}_ms":
            median(op.phases[phase] for op in ops) * 1000.0
        for phase in ("submit", "wait", "result")
    }
    layers["service.exchanges_per_op"] = (
        sum(op.exchanges for op in ops) / len(ops))

    client = service.client
    started = time.perf_counter()
    for _ in range(50):
        client.healthz()
    layers["service.http.exchange_ms"] = (
        (time.perf_counter() - started) / 50 * 1000.0)
    before, after = traced.extra["server_metrics"]
    handled = (_metric_value(after, "service_request_seconds_count")
               - _metric_value(before, "service_request_seconds_count"))
    spent = (_metric_value(after, "service_request_seconds_sum")
             - _metric_value(before, "service_request_seconds_sum"))
    layers["service.app.handle_ms"] = spent / handled * 1000.0
    layers["service.dedupes"] = _metric_value(
        after, "service_jobs_deduped_total")
    layers["service.rejected"] = _metric_value(
        after, "service_jobs_rejected_total")
    ledger.check("service_mix: no submission was rejected",
                 layers["service.rejected"] == 0)

    scripts = load_scripts()
    policy = SandboxPolicy()
    submissions = [ScriptSubmission(script=script, world=world,
                                    timeout=600.0, seed=ledger.seed + i)
                   for i, (script, world) in enumerate(scripts)]
    layers["service.sandbox.admit_us"] = per_call(
        ledger, lambda: [admit_script(s, policy) for s in submissions],
        200) / len(submissions) * 1e6
    parsed = [(parse_cached(script), script) for script, _world in scripts]
    layers["lint.script_us"] = per_call(
        ledger, lambda: [lint_script(tree, text) for tree, text in parsed],
        200) / len(parsed) * 1e6

    cell_s = []
    for submission in submissions:
        (spec,) = cells_for(admit_script(submission, policy), policy)
        cell_s.append(per_call(
            ledger, lambda: spec.fn(*spec.args, **dict(spec.kwargs)), 20))
    op_s = median(op.latency_s for op in ops if op.kind == "fresh")
    layers["service.cell_share"] = median(cell_s) / op_s
    ledger.check("service_mix: cell time < 10 % of op latency",
                 layers["service.cell_share"] < 0.1,
                 f"{layers['service.cell_share']:.4f}")

    with JobStore(policy=policy, cache=None, workers=2) as store:
        waits = []
        for round_ in range(60):
            submission = ScriptSubmission(
                script=scripts[round_ % 3][0], world=scripts[round_ % 3][1],
                timeout=600.0, seed=ledger.seed + 1000 + round_)
            started = time.perf_counter()
            status = store.submit(submission)
            seq = 0
            while status.state not in ("done", "failed", "cancelled"):
                for event in store.events(status.job_id, since=seq, wait=5):
                    seq = event.seq
                status = store.status(status.job_id)
            waits.append(time.perf_counter() - started)
    layers["service.jobs.inproc_submit_to_done_ms"] = median(waits) * 1000.0
    return layers


LAYERS = {
    FIGURES: figures_layers,
    CHAOS: chaos_layers,
    DIST: dist_layers,
    SERVICE: service_layers,
}
