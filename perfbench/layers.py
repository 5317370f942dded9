"""Attribute a workload's time and work to the repo's layers.

Everything here observes the program from outside: it patches public
functions of the ``repro`` package while a run is in progress and puts
them back afterwards.  The program itself is never edited.

Three instruments:

* :class:`WorkHooks` -- once-per-object hooks (``Simulator.run``,
  ``MailServerSim.finalize``, the CLI's ``run_experiments``) that collect
  the exact-work fingerprint, and one timestamp as each simulated session
  ends (``MailServerSim._finish``) for the session-time percentiles.  The
  first fire a handful of times per figure; the last adds about 2 us per
  session against a median of ~140 us between session ends (0.2% of a
  ``spam-traced`` repetition), so they stay on in every run, timed or
  traced.
* :class:`CallCounters` -- per-call counting and timing wrappers around
  each layer's public entry points.  They cost real time, so only the
  traced run installs them.
* :class:`Sampler` -- a ``SIGPROF`` sampling profiler that charges every
  sample to the innermost frame belonging to a named layer.  Host self time
  per layer is its share of samples times the process's CPU time.  Samples
  that land in the standard library are charged to the repo frame that
  called into it; samples with no repo frame on the stack go to ``other``.
"""

from __future__ import annotations

import hashlib
import json
import math
import signal
import time
from pathlib import Path

#: the layers named by the per-layer metrics, in report order
LAYERS = ("sim.core", "sim.resources", "server", "clients", "dnsbl", "obs",
          "traces", "harness", "smtp", "net", "mfs")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


_FILE_LAYERS = {"sim/core.py": "sim.core", "sim/eventq.py": "sim.core",
                "sim/resources.py": "sim.resources"}
_PACKAGE_LAYERS = {"server", "clients", "dnsbl", "obs", "traces", "harness",
                   "smtp", "net", "mfs"}


def layer_of(filename: str, package_root: Path):
    """The layer a source file belongs to.

    Returns a name from :data:`LAYERS`, ``"other"`` for a file of the
    package that no layer names, or ``None`` for a file outside the package.
    """
    try:
        rel = Path(filename).resolve().relative_to(package_root)
    except ValueError:
        return None
    key = rel.as_posix()
    if key in _FILE_LAYERS:
        return _FILE_LAYERS[key]
    head = key.split("/", 1)[0]
    return head if head in _PACKAGE_LAYERS else "other"


#: CPU seconds between profiler samples
SAMPLE_INTERVAL_S = 0.001


class Sampler:
    """Sample the running Python frame every :data:`SAMPLE_INTERVAL_S`."""

    def __init__(self, package_root: Path):
        self.package_root = Path(package_root).resolve()
        self.counts: dict[str, int] = {}
        self.cpu_s = 0.0
        self._files: dict[str, object] = {}
        self._previous = None
        self._cpu0 = 0.0

    def _classify(self, frame) -> str:
        files = self._files
        while frame is not None:
            name = frame.f_code.co_filename
            layer = files.get(name, files)
            if layer is files:
                layer = files[name] = layer_of(name, self.package_root)
            if layer is not None:
                return layer
            frame = frame.f_back
        return "other"

    def _on_signal(self, signum, frame) -> None:
        layer = self._classify(frame)
        self.counts[layer] = self.counts.get(layer, 0) + 1

    def __enter__(self) -> "Sampler":
        self._cpu0 = time.process_time()
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
        self.cpu_s += time.process_time() - self._cpu0

    def profile(self) -> dict:
        """``{"cpu_s": ..., "counts": {...}}``, mergeable across processes."""
        return {"cpu_s": self.cpu_s, "counts": dict(self.counts)}


def self_seconds(*profiles: dict) -> dict[str, float]:
    """Host self seconds per layer, summed over one or more processes."""
    out = {layer: 0.0 for layer in (*LAYERS, "other")}
    for prof in profiles:
        total = sum(prof["counts"].values())
        if not total:
            continue
        for layer, n in prof["counts"].items():
            out[layer] = out.get(layer, 0.0) + prof["cpu_s"] * n / total
    return out


class _Patches:
    """Replace attributes and restore them in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, name: str, make_wrapper) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class WorkHooks:
    """Exact-work counters for the figure workload.

    ``Simulator.run`` contributes kernel counter deltas and the host time
    spent inside it; ``MailServerSim._finish``, called once as each
    simulated session ends, marks the host time between session
    completions; ``MailServerSim.finalize`` contributes the §5.4
    accounting, the DNSBL bank's counters and the run's simulated session
    count; the CLI's ``run_experiments`` hands over the experiment results
    (rows, anchors, watchdog violations).
    """

    def __init__(self):
        self.kernel = {"events": 0, "steps": 0, "timeouts_cancelled": 0,
                       "queue_depth_peak": 0}
        self.server = {"connections": 0, "mails_accepted": 0,
                       "context_switches": 0, "forks": 0,
                       "cpu_busy_sim_s": 0.0}
        self.dnsbl = {"lookups": 0, "queries_sent": 0, "cache_hits": 0,
                      "cache_lookups": 0}
        self.run_s = 0.0
        #: host milliseconds inside ``Simulator.run`` between one simulated
        #: session's end and the previous one's (or the run's start)
        self.session_gaps_ms: list[float] = []
        self._last_mark: dict[int, float] = {}
        self.outcomes: list = []
        self._live: dict[int, list] = {}
        self._patches = _Patches()

    def install(self) -> "WorkHooks":
        from repro.harness import cli
        from repro.server.simserver import MailServerSim
        from repro.sim.core import Simulator

        self._patches.patch(Simulator, "run", self._wrap_run)
        self._patches.patch(MailServerSim, "finalize", self._wrap_finalize)
        self._patches.patch(MailServerSim, "_finish", self._wrap_finish)
        self._patches.patch(cli, "run_experiments", self._wrap_experiments)
        return self

    def uninstall(self) -> None:
        self._patches.restore()

    def _wrap_run(self, original):
        hooks = self

        def run(sim, *args, **kwargs):
            entry = hooks._live.get(id(sim))
            if entry is None:
                # the simulator is kept alive until finalize so its id
                # cannot be reused by another simulator meanwhile
                entry = hooks._live[id(sim)] = [sim, (0, 0, 0)]
            t0 = hooks._last_mark[id(sim)] = time.perf_counter()
            try:
                return original(sim, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                hooks.run_s += elapsed
                stats = sim.kernel_stats()
                now = (stats.events, stats.steps, stats.timeouts_cancelled)
                k = hooks.kernel
                k["events"] += now[0] - entry[1][0]
                k["steps"] += now[1] - entry[1][1]
                k["timeouts_cancelled"] += now[2] - entry[1][2]
                k["queue_depth_peak"] = max(k["queue_depth_peak"],
                                            stats.queue_depth_peak)
                entry[1] = now

        return run

    def _wrap_finish(self, original):
        gaps = self.session_gaps_ms
        marks = self._last_mark

        def finish(server, *args, **kwargs):
            original(server, *args, **kwargs)
            now = time.perf_counter()
            key = id(server.sim)
            gaps.append(1000.0 * (now - marks[key]))
            marks[key] = now

        return finish

    def _wrap_finalize(self, original):
        hooks = self

        def finalize(server, *args, **kwargs):
            metrics = original(server, *args, **kwargs)
            s = hooks.server
            s["connections"] += metrics.connections_started
            s["mails_accepted"] += metrics.mails_accepted
            s["context_switches"] += metrics.context_switches
            s["forks"] += metrics.forks
            s["cpu_busy_sim_s"] += metrics.cpu_busy
            resolver = server.resolver
            if resolver is not None:
                d = hooks.dnsbl
                d["lookups"] += resolver.lookups
                d["queries_sent"] += resolver.queries_sent
                for r in getattr(resolver, "resolvers", [resolver]):
                    d["cache_hits"] += r.cache_stats.hits
                    d["cache_lookups"] += r.cache_stats.lookups
            hooks._live.pop(id(server.sim), None)
            hooks._last_mark.pop(id(server.sim), None)
            return metrics

        return finalize

    def _wrap_experiments(self, original):
        hooks = self

        def run_experiments(*args, **kwargs):
            outcomes = original(*args, **kwargs)
            hooks.outcomes.extend(outcomes)
            return outcomes

        return run_experiments

    def fingerprint(self) -> dict:
        """The exact counters plus a digest of the result rows."""
        rows = [o.result.rows for o in self.outcomes]
        digest = hashlib.sha256(
            json.dumps(rows, sort_keys=True).encode()).hexdigest()
        fp = {f"sim.core.{k}": v for k, v in self.kernel.items()}
        fp["sim.resources.context_switches"] = self.server["context_switches"]
        fp["sim.resources.forks"] = self.server["forks"]
        fp["sim.resources.cpu_busy_sim_s"] = self.server["cpu_busy_sim_s"]
        fp["server.connections"] = self.server["connections"]
        fp["server.mails_accepted"] = self.server["mails_accepted"]
        fp["dnsbl.lookups"] = self.dnsbl["lookups"]
        fp["dnsbl.queries_sent"] = self.dnsbl["queries_sent"]
        fp["dnsbl.cache_hit_ratio"] = (
            self.dnsbl["cache_hits"] / self.dnsbl["cache_lookups"]
            if self.dnsbl["cache_lookups"] else 0.0)
        fp["rows_sha256"] = digest
        return fp

    def anchors(self) -> tuple[int, int]:
        """``(anchors checked, anchors that did not hold)``."""
        anchors = [a for o in self.outcomes for a in o.result.anchors]
        return len(anchors), sum(1 for a in anchors if not a.holds)

    def violations(self) -> int:
        return sum(len(o.violations) for o in self.outcomes)


class CallCounters:
    """Per-call counts and timings at each layer's public entry points."""

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self.errors: dict[str, int] = {}
        self._patches = _Patches()

    def _count(self, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        def make(original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        return make

    def _time(self, name: str):
        counters = self
        counters.counts.setdefault(name, 0)
        counters.seconds.setdefault(name, 0.0)
        counters.errors.setdefault(name, 0)
        samples = counters.samples.setdefault(name, [])

        def make(original):
            def wrapper(*args, **kwargs):
                counters.counts[name] += 1
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                except Exception:
                    counters.errors[name] += 1
                    raise
                finally:
                    elapsed = time.perf_counter() - t0
                    counters.seconds[name] += elapsed
                    samples.append(elapsed)
            return wrapper

        return make

    def install_simulator(self) -> "CallCounters":
        from repro.harness import cli
        from repro.sim.resources import CPU, Disk, Resource

        self._patches.patch(Resource, "request", self._count("requests"))
        self._patches.patch(CPU, "compute", self._count("cpu_slices"))
        self._patches.patch(Disk, "io", self._count("disk_ios"))
        self._patches.patch(cli, "write_trace", self._time("export"))
        return self

    def install_server(self) -> "CallCounters":
        from repro.mfs.store import MfsStore
        from repro.smtp.fsm import ServerSession

        self._patches.patch(ServerSession, "receive_data",
                            self._count("receive_calls"))
        self._patches.patch(MfsStore, "deliver", self._time("deliver"))
        return self

    def uninstall(self) -> None:
        self._patches.restore()
