"""The flight recorder: a bounded ring buffer of structured events.

Where spans summarise *phases* and metrics summarise *totals*, the flight
recorder keeps the raw causal stream — connection accepted, FSM
transitions, DNSBL cache traffic, fork/delegate decisions, MFS refcount
changes, deliveries — so that when two runs disagree the exact first
diverging event can be named (:mod:`repro.obs.diff`) and cheap online
invariants can be checked as the stream flows (:mod:`repro.obs.invariants`).

The recorder follows the repo's zero-overhead-when-off discipline:
instrumented constructors grab ``tracer().recorder`` once and store
``None`` when recording is off, so hot paths pay a single ``is not None``
test.  Event kinds are fixed by :data:`repro.obs.contract.EVENTS` —
emitting an undeclared kind raises, and the catalogue is diffed against
``docs/OBSERVABILITY.md`` by ``tests/test_obs.py``.

Two capacity modes:

* ``maxlen=None`` — unbounded, for ``--record OUT`` full dumps;
* ``maxlen=N`` — a ring, for always-on watchdogs: the engine sees every
  event as it is emitted, while memory stays bounded and the last ``N``
  events remain available as context when an invariant trips or a worker
  crashes.

Events are stored as ``(seq, t, run, conn, kind, attrs)`` tuples; ``seq``
restarts per capture (the harness captures per experiment), so recordings
are deterministic at any ``--jobs``.

Spans are a projection of the same stream.  An event kind whose contract
entry names a ``span`` phase must be emitted with the phase start ``t0``
(and no other kind may carry one); when the capture keeps spans, the
recorder appends ``(run, conn, phase, t0, t, attrs)`` to the tracer's span
list, so each lifecycle fact is stated once.  A capture that keeps spans
but neither records nor runs watchdogs uses ``maxlen=0``: every event is
checked and projected, none is stored.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator, Optional

from .contract import EVENTS
from .metrics import ObsError

__all__ = ["FlightRecorder", "RECORD_VERSION", "event_as_dict"]

#: recording format version, stamped into every recording's meta record
RECORD_VERSION = 1

#: default ring capacity when recording is watchdog-only
DEFAULT_RING = 4096


def event_as_dict(event: tuple, context: Optional[dict] = None) -> dict:
    """One stored event tuple as a JSON-ready record."""
    seq, t, run, conn, kind, attrs = event
    record = {"type": "event", "seq": seq, "t": t, "run": run,
              "conn": conn, "kind": kind}
    if attrs:
        record["attrs"] = attrs
    if context:
        record.update(context)
    return record


class FlightRecorder:
    """Collects contract-checked events for one capture."""

    __slots__ = ("maxlen", "_events", "_seq", "_stores", "on_event", "spans")

    def __init__(self, maxlen: Optional[int] = DEFAULT_RING,
                 on_event: Optional[Callable[[tuple], None]] = None,
                 spans: Optional[list] = None):
        self.maxlen = maxlen
        self._events: deque = deque(maxlen=maxlen)
        self._seq = 0
        self._stores = 0
        #: called with each event tuple as it is emitted (the watchdogs)
        self.on_event = on_event
        #: the tracer's span list, or ``None`` when spans are not kept
        self.spans = spans

    def emit(self, kind: str, t: float, run: int = 0, conn: int = 0,
             attrs: Optional[dict] = None,
             t0: Optional[float] = None) -> None:
        """Record one event.  ``kind`` must be in the contract.

        ``t0`` is required exactly for the kinds that close a span (their
        contract ``span`` phase), and is the span's start.
        """
        spec = EVENTS.get(kind)
        if spec is None:
            raise ObsError(f"event kind {kind!r} is not in the "
                           "instrumentation contract (repro.obs.contract."
                           "EVENTS)")
        phase = spec.span
        if phase is None:
            if t0 is not None:
                raise ObsError(f"event kind {kind!r} closes no span and "
                               "takes no t0")
        elif t0 is None:
            raise ObsError(f"event kind {kind!r} closes a {phase!r} span "
                           "and needs its start t0")
        elif self.spans is not None:
            self.spans.append((run, conn, phase, t0, t, attrs))
        self._seq += 1
        event = (self._seq, t, run, conn, kind, attrs)
        self._events.append(event)
        if self.on_event is not None:
            self.on_event(event)

    def register_store(self) -> int:
        """A stable instance number for an MfsStore (its ``conn`` field)."""
        self._stores += 1
        return self._stores

    @property
    def event_count(self) -> int:
        """Events currently held (≤ ``maxlen`` in ring mode)."""
        return len(self._events)

    @property
    def total_events(self) -> int:
        """Events ever emitted, including any the ring has dropped."""
        return self._seq

    def tail(self, n: int, context: Optional[dict] = None) -> list[dict]:
        """The last ``n`` events as dicts — violation/crash context."""
        events = list(self._events)[-n:] if n else []
        return [event_as_dict(e, context) for e in events]

    def records(self, context: Optional[dict] = None) -> Iterator[dict]:
        """Yield the recording as JSON-ready dicts: meta, then events.

        The meta record carries the format version and whether the ring
        dropped anything (``dropped > 0`` means the recording is a tail,
        not the full stream).
        """
        context = context or {}
        yield {"type": "meta", "version": RECORD_VERSION,
               "events": self._seq,
               "dropped": self._seq - len(self._events), **context}
        for event in self._events:
            yield event_as_dict(event, context)
