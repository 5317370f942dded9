"""Event-queue ordering under timeout recycling.

The simulator's event heap recycles fired and cancelled timeouts through a
free list, and skips cancelled entries lazily as tombstones.  Both are pure
optimisations: a pooled run must be observationally identical to a run with
``Simulator(timeout_pool=0)`` — same event orderings, same ``peek()`` values,
same ``run(until=)`` cut-offs and the same per-run tombstone accounting.
Each test drives one seeded arm/wait/cancel workload both ways and compares
the full observable log.
"""

from __future__ import annotations

import random

import pytest

from repro.sim import Simulator


def _mixed_workload(sim, log, rng, n_procs=25, n_steps=30):
    """Seeded arm/wait/cancel churn with zero-delay and same-time events."""

    def proc(name):
        for step in range(n_steps):
            roll = rng.random()
            if roll < 0.15:
                delay = 0.0                      # same-instant scheduling
            elif roll < 0.5:
                delay = rng.choice((0.5, 1.0, 2.0))   # collision-heavy
            else:
                delay = rng.random() * 8.0
            guard = sim.timeout(50.0 + rng.random())
            value = yield sim.timeout(delay, value=(name, step))
            log.append((sim.now, value))
            guard.cancel()

    for p in range(n_procs):
        sim.process(proc(p))


def _run(timeout_pool, seed, until=None, peek_at=None):
    """One seeded workload run; returns (log, peeks, final now, stats)."""
    rng = random.Random(seed)
    sim = Simulator(timeout_pool=timeout_pool)
    log: list = []
    _mixed_workload(sim, log, rng)
    peeks = []
    if peek_at is not None:
        for cut in peek_at:
            sim.run(until=cut)
            peeks.append(sim.peek())
    sim.run(until=until)
    stats = sim.kernel_stats()
    return log, peeks, sim.now, (stats.events, stats.tombstone_skips)


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
def test_randomized_equivalence_full_run(seed):
    pooled = _run(None, seed)
    assert pooled == _run(0, seed)
    assert pooled[3][1] > 0             # cancelled guards drained as skips


@pytest.mark.parametrize("seed", [3, 99])
@pytest.mark.parametrize("until", [0.0, 1.0, 2.5, 7.75, 100.0])
def test_run_until_cutoff_equivalence(seed, until):
    assert _run(None, seed, until=until) == _run(0, seed, until=until)


@pytest.mark.parametrize("seed", [11, 600])
def test_peek_equivalence_at_partial_cuts(seed):
    cuts = (0.25, 1.0, 3.5, 9.0)
    assert (_run(None, seed, peek_at=cuts)
            == _run(0, seed, peek_at=cuts))
