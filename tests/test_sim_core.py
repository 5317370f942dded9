"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import (AllOf, AnyOf, Interrupt, SimulationError, Simulator)


def test_timeouts_fire_in_order(sim):
    log = []

    def proc(name, delay):
        yield sim.timeout(delay)
        log.append((sim.now, name))

    sim.process(proc("late", 5.0))
    sim.process(proc("early", 1.0))
    sim.process(proc("mid", 3.0))
    sim.run()
    assert log == [(1.0, "early"), (3.0, "mid"), (5.0, "late")]


def test_same_time_events_fifo(sim):
    log = []

    def proc(name):
        yield sim.timeout(1.0)
        log.append(name)

    for name in "abc":
        sim.process(proc(name))
    sim.run()
    assert log == ["a", "b", "c"]


def test_timeout_value_passthrough(sim):
    got = []

    def proc():
        value = yield sim.timeout(1.0, value="payload")
        got.append(value)

    sim.process(proc())
    sim.run()
    assert got == ["payload"]


def test_negative_timeout_rejected(sim):
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_run_until_stops_and_advances_clock(sim):
    log = []

    def proc():
        yield sim.timeout(10.0)
        log.append("fired")

    sim.process(proc())
    sim.run(until=5.0)
    assert log == []
    assert sim.now == 5.0
    sim.run()
    assert log == ["fired"]
    assert sim.now == 10.0


def test_process_waits_on_process(sim):
    log = []

    def child():
        yield sim.timeout(2.0)
        return "result"

    def parent():
        value = yield sim.process(child())
        log.append((sim.now, value))

    sim.process(parent())
    sim.run()
    assert log == [(2.0, "result")]


def test_process_exception_propagates_to_waiter(sim):
    log = []

    def child():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as exc:
            log.append(str(exc))

    sim.process(parent())
    sim.run()
    assert log == ["boom"]


def test_unhandled_process_exception_aborts_run(sim):
    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("unobserved")

    sim.process(bad())
    with pytest.raises(SimulationError, match="unhandled"):
        sim.run()


def test_yielding_non_event_fails_process(sim):
    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_event_succeed_once_only(sim):
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_requires_exception(sim):
    event = sim.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_manual_event_wakes_waiter(sim):
    log = []
    event = sim.event()

    def waiter():
        value = yield event
        log.append((sim.now, value))

    def firer():
        yield sim.timeout(3.0)
        event.succeed("go")

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert log == [(3.0, "go")]


def test_any_of_first_wins(sim):
    log = []

    def proc():
        result = yield sim.any_of([sim.timeout(5.0, "slow"),
                                   sim.timeout(1.0, "fast")])
        log.append((sim.now, sorted(result.values())))

    sim.process(proc())
    sim.run()
    assert log == [(1.0, ["fast"])]


def test_all_of_waits_for_all(sim):
    log = []

    def proc():
        result = yield sim.all_of([sim.timeout(5.0, "slow"),
                                   sim.timeout(1.0, "fast")])
        log.append((sim.now, sorted(result.values())))

    sim.process(proc())
    sim.run()
    assert log == [(5.0, ["fast", "slow"])]


def test_empty_all_of_fires_immediately(sim):
    log = []

    def proc():
        yield sim.all_of([])
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [0.0]


def test_interrupt_delivers_cause(sim):
    log = []

    def victim():
        try:
            yield sim.timeout(100.0)
        except Interrupt as interrupt:
            log.append((sim.now, interrupt.cause))

    def attacker(target):
        yield sim.timeout(2.0)
        target.interrupt("wake up")

    target = sim.process(victim())
    sim.process(attacker(target))
    sim.run()
    assert log == [(2.0, "wake up")]


def test_interrupt_finished_process_is_error(sim):
    def quick():
        yield sim.timeout(1.0)

    target = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        target.interrupt()


def test_stale_wakeup_after_interrupt_is_ignored(sim):
    """The original target firing later must not resume the process twice."""
    log = []

    def victim():
        try:
            yield sim.timeout(10.0)
        except Interrupt:
            pass
        yield sim.timeout(1.0)
        log.append(sim.now)

    def attacker(target):
        yield sim.timeout(2.0)
        target.interrupt()

    target = sim.process(victim())
    sim.process(attacker(target))
    sim.run()
    # interrupted at t=2, then waits 1 more second; the stale t=10 timeout
    # must not re-fire the process
    assert log == [3.0]


def test_peek_reports_next_event_time(sim):
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    assert sim.peek() == 4.0


def test_deterministic_replay(sim):
    """Two identical simulations produce identical logs."""

    def build(simulator):
        log = []

        def proc(name, delay):
            yield simulator.timeout(delay)
            log.append((simulator.now, name))

        for i in range(20):
            simulator.process(proc(f"p{i}", (i * 7) % 5 + 0.5))
        return log

    from repro.sim import Simulator
    sim2 = Simulator()
    log1, log2 = build(sim), build(sim2)
    sim.run()
    sim2.run()
    assert log1 == log2


# -- lazy cancellation and timeout recycling ----------------------------------

def test_tombstone_window_accounting(sim):
    """Every cancelled-but-still-queued guard drains as exactly one
    tombstone skip once its due time falls inside a run window."""
    guards = [sim.timeout(2.0 + 0.1 * k) for k in range(10)]
    assert all(guard.cancel() for guard in guards)

    def tick():
        yield sim.timeout(5.0)

    sim.process(tick())
    sim.run(until=1.0)
    assert sim.kernel_stats().tombstone_skips == 0
    sim.run()
    stats = sim.kernel_stats()
    assert stats.tombstone_skips == len(guards)
    assert stats.timeouts_cancelled == len(guards)


def test_recycled_timeout_never_double_fires(sim):
    """A cancelled `Timeout` is recycled into the free list immediately;
    the tombstoned heap entry left behind must never fire the recycled
    object at its *old* due time."""
    log = []

    def churn():
        for i in range(300):
            # `sim.timeout(...).cancel()`-style fresh expressions recycle
            # eagerly; the next timeout() call reuses the slot while the
            # old entry is still queued
            sim.timeout(10.0, value=("stale", i)).cancel()
            got = yield sim.timeout(0.5, value=("step", i))
            log.append((sim.now, got))

    sim.process(churn())
    sim.run()
    expected = [(0.5 * (i + 1), ("step", i)) for i in range(300)]
    assert log == expected
    assert sim.timeouts_cancelled == 300


def test_recycle_reuses_cancelled_slot(sim):
    first = sim.timeout(5.0)
    ident = id(first)
    # drop our reference so cancel() sees the object as unreachable
    first.cancel()
    del first
    second = sim.timeout(1.0)
    assert id(second) == ident  # recycled from the free list
