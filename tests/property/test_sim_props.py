"""Property tests for the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine


@given(st.lists(st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
                min_size=1, max_size=50))
def test_events_processed_in_time_order(delays):
    engine = Engine()
    fired = []
    for delay in delays:
        engine.timeout(delay).callbacks.append(
            lambda event, d=delay: fired.append((engine.now, d))
        )
    engine.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert len(fired) == len(delays)
    assert engine.now == max(delays)


@given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                min_size=1, max_size=30))
def test_same_time_events_fifo(delays):
    """Events scheduled for one instant fire in scheduling order."""
    engine = Engine()
    fired = []
    for index, _ in enumerate(delays):
        engine.timeout(5.0).callbacks.append(
            lambda event, i=index: fired.append(i)
        )
    engine.run()
    assert fired == list(range(len(delays)))


@given(
    st.lists(st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
             min_size=1, max_size=20),
    st.integers(min_value=1, max_value=5),
)
def test_resource_serves_everyone(hold_times, capacity):
    """No waiter is starved: every process eventually gets the resource,
    and concurrency never exceeds capacity."""
    from repro.sim import Resource

    engine = Engine()
    resource = Resource(engine, capacity=capacity)
    served = []
    in_use = []

    def user(tag, hold):
        request = resource.request()
        yield request
        in_use.append(resource.count)
        yield engine.timeout(hold)
        resource.release(request)
        served.append(tag)

    for tag, hold in enumerate(hold_times):
        engine.process(user(tag, hold))
    engine.run()
    assert sorted(served) == list(range(len(hold_times)))
    assert all(count <= capacity for count in in_use)


@given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
def test_rng_derivation_stable(seed, name):
    from repro.sim import RandomStreams

    a = RandomStreams(seed).stream(name).random()
    b = RandomStreams(seed).stream(name).random()
    assert a == b


@given(st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
              st.sampled_from([0, 1])),  # PRIORITY_URGENT, PRIORITY_NORMAL
    min_size=1, max_size=60,
))
def test_dispatch_order_is_time_priority_sequence(schedule):
    """The full ordering key: dispatch order always equals the schedule
    sorted by (time, priority, scheduling sequence)."""
    engine = Engine()
    fired = []
    for seq, (delay, priority) in enumerate(schedule):
        event = engine.event()
        event._ok = True
        event._value = seq
        engine._schedule(event, delay=delay, priority=priority)
        event.callbacks.append(lambda e: fired.append(e.value))
    engine.run()
    assert fired == sorted(
        range(len(schedule)),
        key=lambda i: (schedule[i][0], schedule[i][1], i),
    )


@given(st.integers(min_value=1, max_value=8))
def test_urgent_interrupt_beats_same_instant_normal_events(n):
    """An interrupt delivered "now" lands before ordinary events already
    queued for the same instant (PRIORITY_URGENT)."""
    engine = Engine()
    order = []

    def sleeper():
        try:
            yield engine.timeout(100)
        except Exception:
            order.append("interrupt")

    target = engine.process(sleeper())

    def interrupter():
        yield engine.timeout(1.0)
        for i in range(n):
            engine.timeout(0).callbacks.append(
                lambda e, i=i: order.append(i))
        target.interrupt()

    engine.process(interrupter())
    engine.run()
    assert order == ["interrupt"] + list(range(n))


# --- timer withdrawal: queue rebuilds never change what is dispatched ---

_delay = st.floats(min_value=0.0, max_value=8.0, allow_nan=False).map(
    lambda d: round(d, 1))  # coarse, so same-instant ties are common
_op = st.one_of(
    st.tuples(st.just("sleep"), _delay),
    st.tuples(st.just("cancel"), _delay),
    st.tuples(st.just("race"), _delay, _delay),
)
_actor = st.lists(_op, min_size=1, max_size=8)
_interrupts = st.lists(
    st.tuples(_delay, st.integers(min_value=0, max_value=4)), max_size=6)


def _trace_program(actors, interrupts, rebuild=None, drive=Engine.run):
    """Run the program with the queue rebuilt on every cancel
    (``rebuild=True``), on none (``False``) or as shipped (``None``),
    dispatching through ``drive(engine)``; return every dispatched
    ``(time, label)`` and the final clock."""
    from repro.sim import Interrupt
    from repro.sim.events import _FirstOf

    engine = Engine()
    if rebuild is not None:
        engine._withdrawn_timer = engine._compact if rebuild else lambda: None
    trace = []

    def note(label):
        trace.append((engine.now, label))

    def work(tag, duration):
        try:
            yield engine.timeout(duration)
            note(f"{tag}:work-done")
        except Interrupt:
            note(f"{tag}:work-killed")

    def race(label, duration, deadline):
        """SimDriver._drive's wait on a process command, exit for exit."""
        child = engine.process(work(label, duration))
        expiry = engine.timeout(deadline)
        try:
            yield _FirstOf(engine, child, expiry)
        except Interrupt:
            expiry.cancel()
            if child.is_alive:
                child.interrupt()
            raise
        if child.triggered:
            expiry.cancel()
            note(f"{label}:won")
        else:
            child.interrupt()
            yield child
            note(f"{label}:lost")

    def actor(tag, ops):
        for index, op in enumerate(ops):
            label = f"{tag}.{index}"
            try:
                if op[0] == "sleep":
                    yield engine.timeout(op[1])
                    note(f"{label}:slept")
                elif op[0] == "cancel":
                    timer = engine.timeout(op[1])
                    timer.callbacks.append(
                        lambda e, label=label: note(f"{label}:GHOST"))
                    timer.cancel()
                else:
                    yield from race(label, op[1], op[2])
            except Interrupt:
                note(f"{label}:interrupted")

    processes = [engine.process(actor(tag, ops))
                 for tag, ops in enumerate(actors)]

    def interrupter(delay, target):
        yield engine.timeout(delay)
        if target < len(processes) and processes[target].is_alive:
            processes[target].interrupt()

    for delay, target in interrupts:
        engine.process(interrupter(delay, target))
    drive(engine)
    return trace, engine.now


@settings(max_examples=150, deadline=None)
@given(st.lists(_actor, min_size=1, max_size=5), _interrupts)
def test_queue_rebuilds_never_change_the_dispatch_sequence(actors, interrupts):
    """The order-preservation argument as a test: rebuilding the queue on
    every cancel and never rebuilding it dispatch the same labels at the
    same times and stop the clock at the same instant, and a withdrawn
    timer never runs its callback."""
    always = _trace_program(actors, interrupts, rebuild=True)
    never = _trace_program(actors, interrupts, rebuild=False)
    assert always == never
    assert not any(label.endswith("GHOST") for _time, label in always[0])


# --- one dispatch loop: every way of driving the engine agrees ---

@settings(max_examples=150, deadline=None)
@given(st.lists(_actor, min_size=1, max_size=5), _interrupts,
       st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6))
def test_every_way_of_driving_the_engine_dispatches_alike(
        actors, interrupts, fractions):
    """``run()``, ``run(until=t)`` in slices followed by ``run()``, and
    ``step()`` until the queue is empty dispatch the same labels at the
    same times.  The sliced run also stops the clock where ``run()``
    does (the slices end at or before that instant); ``step()`` moves
    the clock to every entry it pops, so it may only end later, on a
    withdrawn timer that outlived the last live entry."""
    from repro.sim.engine import INFINITY

    trace, clock = _trace_program(actors, interrupts)

    def in_slices(engine):
        for fraction in sorted(fractions):
            engine.run(until=fraction * clock)
        engine.run()

    withdrawn = []

    def by_step(engine):
        while engine.peek() != INFINITY:
            engine.step()
        withdrawn.append(engine._withdrawn)

    assert _trace_program(actors, interrupts, drive=in_slices) == (trace, clock)
    stepped, stepped_clock = _trace_program(actors, interrupts, drive=by_step)
    assert stepped == trace
    assert stepped_clock == clock or (withdrawn[0] and stepped_clock > clock)
