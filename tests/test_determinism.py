"""Determinism guarantees of the fast-path kernel and the new harness.

The kernel's timeout pool, the waiter-slot inline resume, the parallel
runner and the result cache are all pure optimisations: every one of them
must leave simulation results byte-identical.  These tests pin that down.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness import EXPERIMENTS, ResultCache, run_experiments
from repro.sim import Simulator
from repro.sim.resources import CPU, Resource, Store


def _scenario(sim):
    """A workload touching timeouts, resources and stores."""
    log = []
    cpu = CPU(sim, cores=1)
    store = Store(sim, capacity=4)
    lock = Resource(sim, capacity=2)

    def producer(pid):
        for i in range(20):
            yield from cpu.compute(pid, 1e-4)
            yield store.put((pid, i))
            log.append(("put", sim.now, pid, i))

    def consumer(pid):
        for _ in range(20):
            item = yield store.get()
            req = lock.request()
            yield req
            yield sim.timeout(2e-4)
            lock.release(req)
            log.append(("got", sim.now, pid, item))

    for pid in range(4):
        sim.process(producer(pid))
    for pid in range(4):
        sim.process(consumer(100 + pid))
    sim.run()
    return log


def test_pool_on_off_event_log_identical():
    """The timeout pool must not change ordering or values anywhere."""
    log_pooled = _scenario(Simulator())
    log_unpooled = _scenario(Simulator(timeout_pool=0))
    assert log_pooled == log_unpooled
    assert len(log_pooled) > 100


def test_pool_on_off_experiment_identical(monkeypatch):
    """A full server experiment is byte-identical with pooling disabled."""
    fresh = EXPERIMENTS["mfs-sinkhole"]().run(scale="quick")
    init = Simulator.__init__
    monkeypatch.setattr(Simulator, "__init__",
                        lambda self, timeout_pool=0: init(self, 0))
    unpooled = EXPERIMENTS["mfs-sinkhole"]().run(scale="quick")
    assert fresh.rows == unpooled.rows
    assert fresh.anchors == unpooled.anchors
    assert fresh.columns == unpooled.columns


def test_jobs_serial_vs_parallel_identical():
    """--jobs N fans out but returns results identical to a serial run."""
    ids = ["fig3", "fig4"]
    serial = run_experiments(ids, "quick", jobs=1, cache=None)
    fanned = run_experiments(ids, "quick", jobs=4, cache=None)
    assert [o.result for o in serial] == [o.result for o in fanned]
    assert not any(o.cached for o in serial + fanned)


def test_cache_hit_vs_miss_identical(tmp_path):
    """A cache round-trip reproduces the result exactly."""
    cache = ResultCache(cache_dir=tmp_path, src_hash="pinned")
    first = run_experiments(["fig4"], "quick", jobs=1, cache=cache)
    second = run_experiments(["fig4"], "quick", jobs=1, cache=cache)
    assert not first[0].cached
    assert second[0].cached
    assert first[0].result == second[0].result
    assert cache.hits == 1 and cache.misses == 1


def test_cache_source_hash_invalidates(tmp_path):
    cache_a = ResultCache(cache_dir=tmp_path, src_hash="aaaa")
    run_experiments(["fig3"], "quick", jobs=1, cache=cache_a)
    cache_b = ResultCache(cache_dir=tmp_path, src_hash="bbbb")
    assert cache_b.get("fig3", "quick") is None
    assert cache_a.get("fig3", "quick") is not None


def test_cache_clear(tmp_path):
    cache = ResultCache(cache_dir=tmp_path, src_hash="pinned")
    run_experiments(["fig3"], "quick", jobs=1, cache=cache)
    assert cache.clear() == 1
    assert cache.get("fig3", "quick") is None


# -- timeout pool vs the unpooled reference -----------------------------------

def _replay(schedules, cuts, timeout_pool):
    """Run one process per delay list, stopping at each ``run(until=)`` cut.

    Returns the firing log ``(time, due, push index, value)``, the clock
    around each cut, the final clock and the kernel's event/step counts.
    """
    sim = Simulator(timeout_pool=timeout_pool)
    log = []
    pushes = itertools.count()

    def proc(pid, delays):
        for step, delay in enumerate(delays):
            due = sim.now + delay
            push = next(pushes)
            value = yield sim.timeout(delay, value=(pid, step))
            log.append((sim.now, due, push, value))

    for pid, delays in enumerate(schedules):
        sim.process(proc(pid, delays))
    clocks = []
    for cut in cuts:
        before = sim.now
        sim.run(until=cut)
        clocks.append((len(log), before, sim.now))
    sim.run()
    stats = sim.kernel_stats()
    return log, clocks, sim.now, stats.events, stats.steps


_delays = st.one_of(st.just(0.0), st.sampled_from((0.5, 1.0, 2.0)),
                    st.floats(0.0, 8.0))


@settings(max_examples=150, deadline=None)
@given(schedules=st.lists(st.lists(_delays, max_size=10), min_size=1,
                          max_size=10),
       cuts=st.lists(st.floats(0.0, 40.0), max_size=4),
       timeout_pool=st.sampled_from((1, 4, 1024)))
def test_pooled_run_matches_unpooled(schedules, cuts, timeout_pool):
    """Timeouts fire in (time, push order); pooling changes nothing."""
    log, clocks, now, events, steps = _replay(schedules, cuts, timeout_pool)
    assert (log, clocks, now, events, steps) == _replay(schedules, cuts, 0)
    assert all(fired == due for fired, due, *_ in log)
    assert [entry[:3] for entry in log] == sorted(entry[:3] for entry in log)
    for (n_fired, before, after), cut in zip(clocks, cuts):
        assert after == max(before, cut)
        assert all(entry[0] <= after for entry in log[:n_fired])
        assert all(entry[0] > after for entry in log[n_fired:])
    assert len(log) == sum(map(len, schedules))


def test_shared_timeout_waiter_plus_callback():
    """Two processes yielding one timeout both resume (waiter + callback)."""
    sim = Simulator()
    resumed = []
    shared = sim.timeout(2.0, value="tick")

    def a():
        value = yield shared
        resumed.append(("a", sim.now, value))

    def b():
        value = yield shared
        resumed.append(("b", sim.now, value))

    sim.process(a())
    sim.process(b())
    sim.run()
    assert sorted(resumed) == [("a", 2.0, "tick"), ("b", 2.0, "tick")]


def test_user_held_timeout_survives_churn():
    """A timeout the user keeps a reference to is never pooled and reused."""
    sim = Simulator(timeout_pool=8)
    held = []

    def keeper():
        for i in range(50):
            timeout = sim.timeout(0.01, value=i)
            held.append(timeout)
            yield timeout

    sim.process(keeper())
    sim.run()
    assert [t.value for t in held] == list(range(50))
    assert len({id(t) for t in held}) == 50
