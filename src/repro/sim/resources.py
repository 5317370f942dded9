"""Shared resources for simulated processes.

The mail-server models in :mod:`repro.server` are built from four kinds of
resources:

* :class:`Resource` — a counting semaphore with a FIFO wait queue (used for
  the smtpd process-slot limit, disk arms, DNS sockets, ...).
* :class:`Store` — a bounded FIFO buffer of items with blocking ``put`` and
  ``get`` (used for the UNIX-domain-socket task queues between the master and
  the smtpd workers; the bound models the 64 KB kernel socket buffer that the
  paper notes "acts as a natural throttle for the master process").
* :class:`CPU` — a processor-sharing CPU that charges for computation and
  explicitly accounts **context switches** and **forks**, the two costs the
  fork-after-trust architecture is designed to avoid.
* :class:`Disk` — a FIFO disk that serves operations priced by a pluggable
  filesystem cost model (see :mod:`repro.storage.diskmodel`).

All blocking calls return events to be ``yield``-ed from a process body.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Optional

from .core import Event, SimulationError, Simulator

__all__ = ["Request", "Resource", "Store", "CPU", "Disk"]


class Request(Event):
    """The event returned by :meth:`Resource.request`.

    Succeeds when the requesting process holds one unit of the resource.
    """

    __slots__ = ("resource", "priority")

    def __init__(self, resource: "Resource", priority: int = 0):
        # flattened Event.__init__ — requests are created once per simulated
        # resource acquisition, squarely on the kernel hot path
        self.sim = resource.sim
        self.callbacks = []
        self._value = Event._PENDING
        self._ok = True
        self._scheduled = False
        self._waiter = None
        self.resource = resource
        self.priority = priority


class Resource:
    """A counting semaphore with FIFO granting.

    >>> sim = Simulator()
    >>> res = Resource(sim, capacity=1)
    >>> def user(sim, res, log, name):
    ...     req = res.request()
    ...     yield req
    ...     yield sim.timeout(1.0)
    ...     res.release(req)
    ...     log.append((sim.now, name))
    >>> log = []
    >>> _ = sim.process(user(sim, res, log, "a"))
    >>> _ = sim.process(user(sim, res, log, "b"))
    >>> sim.run()
    >>> log
    [(1.0, 'a'), (2.0, 'b')]
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        # waiting requests ordered by (priority, arrival); FIFO within a
        # priority class -- lower priority value is served first
        self._queue: list = []
        self._seq = 0
        # statistics
        self.total_requests = 0
        self.total_waits = 0  # requests that had to queue
        self.peak_in_use = 0

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def request(self, priority: int = 0) -> Request:
        """Return an event that fires when a unit is held.

        Lower ``priority`` values are granted first (FIFO within a class) --
        used to model the OS scheduler favouring short I/O-bound work such
        as the delivery agents over CPU-hungry smtpd sessions.
        """
        req = Request(self, priority)
        self.total_requests += 1
        if self.in_use < self.capacity and not self._queue:
            self._grant(req)
        else:
            self.total_waits += 1
            self._seq += 1
            heapq.heappush(self._queue, (priority, self._seq, req))
        return req

    def release(self, request: Request) -> None:
        """Return the unit held by ``request`` to the pool."""
        if request.resource is not self:
            raise SimulationError("releasing a request of another resource")
        if not request.triggered:
            raise SimulationError("releasing a request that was never granted")
        in_use = self.in_use = self.in_use - 1
        if in_use < 0:
            raise SimulationError(f"double release on resource {self.name!r}")
        queue = self._queue
        while queue and self.in_use < self.capacity:
            self._grant(heapq.heappop(queue)[2])

    def _grant(self, request: Request) -> None:
        """Hand a unit to ``request`` — inlined succeed + schedule, one grant
        per simulated resource acquisition."""
        in_use = self.in_use = self.in_use + 1
        if in_use > self.peak_in_use:
            self.peak_in_use = in_use
        # request is freshly created or just popped off the wait queue, so
        # the succeed()/_schedule() already-triggered guards cannot fire
        request._value = request
        sim = self.sim
        request._scheduled = True
        seq = sim._seq = sim._seq + 1
        heapq.heappush(sim._heap, (sim.now, seq, request))


class Store:
    """A bounded FIFO buffer with blocking ``put``/``get``.

    ``capacity`` may be ``None`` for an unbounded store.  Items are opaque.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 name: str = ""):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: deque[Any] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()
        self._getters: deque[Event] = deque()
        self.total_puts = 0
        self.total_gets = 0
        self.peak_level = 0

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Return an event that fires once ``item`` is in the store."""
        event = Event(self.sim)
        if not self.is_full:
            self._deposit(item)
            event.succeed(None)
        else:
            self._putters.append((event, item))
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the store is full.

        This models the master's *nonblocking writes* to the smtpd task
        sockets: on a full buffer the master moves on to the next worker.
        """
        if self.is_full:
            return False
        self._deposit(item)
        self._pump()
        return True

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = Event(self.sim)
        if self.items:
            event.succeed(self._withdraw())
            self._pump()
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns ``(ok, item)``."""
        if not self.items:
            return False, None
        item = self._withdraw()
        self._pump()
        return True, item

    # -- internals ----------------------------------------------------------
    def _deposit(self, item: Any) -> None:
        self.total_puts += 1
        if self._getters:
            # hand straight to a waiting getter
            self._getters.popleft().succeed(item)
            self.total_gets += 1
        else:
            self.items.append(item)
            if len(self.items) > self.peak_level:
                self.peak_level = len(self.items)

    def _withdraw(self) -> Any:
        self.total_gets += 1
        return self.items.popleft()

    def _pump(self) -> None:
        while self._putters and not self.is_full:
            event, item = self._putters.popleft()
            self._deposit(item)
            event.succeed(None)
        while self._getters and self.items:
            self._getters.popleft().succeed(self._withdraw())
            self.total_gets += 1


class CPU:
    """A CPU with explicit context-switch and fork accounting.

    The model is a single server (``cores`` ≥ 1) with FIFO scheduling of
    *slices*.  Each :meth:`compute` call by a simulated OS process runs as one
    slice.  When the slice that starts service belongs to a different OS
    process than the one that ran last on that core, a context-switch penalty
    is charged and counted.  :meth:`fork` charges the cost of creating an OS
    process.

    This is precisely the accounting the paper's §5.4 evaluation relies on:
    "the efficiency of the hybrid architecture comes from avoiding context
    switches in processing bounces; the total number of context switches is
    reduced by close to a factor of two."
    """

    def __init__(self, sim: Simulator, cores: int = 1,
                 context_switch_cost: float = 6e-6,
                 fork_cost: float = 300e-6, name: str = "cpu"):
        self.sim = sim
        self.name = name
        self.cores = cores
        self.context_switch_cost = context_switch_cost
        self.fork_cost = fork_cost
        self._res = Resource(sim, capacity=cores, name=name)
        # Last OS-process id to run on each granted "core".  With FIFO
        # granting we track a single last-pid per logical core slot by cycling
        # a list; one core is the common configuration in the paper's testbed.
        self._last_pid: list[Optional[int]] = [None] * cores
        self._next_core = 0
        self.context_switches = 0
        self.forks = 0
        self.busy_time = 0.0

    def compute(self, pid: int, work: float, priority: int = 0):
        """Process-body generator: occupy the CPU for ``work`` seconds.

        ``pid`` identifies the simulated OS process; consecutive slices by
        the same pid on the same core do not pay the context-switch penalty.
        ``priority`` follows :meth:`Resource.request`: lower is scheduled
        first, modelling the OS boosting interactive/I/O-bound processes.
        """
        res = self._res
        req = res.request(priority)
        yield req
        if self.cores == 1:
            core = 0
        else:
            core = self._next_core
            self._next_core = (core + 1) % self.cores
        cost = work
        last = self._last_pid
        if last[core] != pid:
            cost += self.context_switch_cost
            self.context_switches += 1
            last[core] = pid
        self.busy_time += cost
        yield self.sim.timeout(cost)
        res.release(req)

    def fork(self, pid: int):
        """Process-body generator: charge for an OS fork by ``pid``."""
        self.forks += 1
        yield from self.compute(pid, self.fork_cost)

    @property
    def utilisation(self) -> float:
        """Fraction of elapsed simulated time the CPU was busy."""
        if self.sim.now <= 0:
            return 0.0
        return min(1.0, self.busy_time / (self.sim.now * self.cores))


class Disk:
    """A FIFO disk serving operations with explicit service times.

    The caller supplies the service time per operation — computed by a
    filesystem cost model — so the same disk can emulate Ext3 or ReiserFS.
    """

    def __init__(self, sim: Simulator, name: str = "disk"):
        self.sim = sim
        self.name = name
        self._res = Resource(sim, capacity=1, name=name)
        self.ops = 0
        self.bytes_written = 0
        self.busy_time = 0.0

    def io(self, service_time: float, nbytes: int = 0):
        """Process-body generator: perform one I/O of ``service_time`` secs."""
        if service_time < 0:
            raise ValueError(f"negative disk service time: {service_time!r}")
        req = self._res.request()
        yield req
        self.ops += 1
        self.bytes_written += nbytes
        self.busy_time += service_time
        yield self.sim.timeout(service_time)
        self._res.release(req)

    @property
    def utilisation(self) -> float:
        if self.sim.now <= 0:
            return 0.0
        return min(1.0, self.busy_time / self.sim.now)
