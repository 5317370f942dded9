"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import SimulationError


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


# -- timeout recycling --------------------------------------------------------

def test_recycle_reuses_fired_slot(sim):
    """A fired timeout nothing else references goes back to the free list
    and is handed out by the next ``timeout()`` call."""
    first = sim.timeout(1.0)
    ident = id(first)
    del first
    sim.run()
    assert sim.kernel_stats().pooled_timeouts == 1
    assert id(sim.timeout(1.0)) == ident
