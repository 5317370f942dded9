"""The repo benchmark: one run of one workload.

Usage::

    python3 perfbench/run.py --workload spam-traced --seed 1 --seconds 40 \
        --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``spam-traced`` -- ``repro-experiments combined --no-cache --trace T
                     --record R`` (DES kernel, resources, server model,
                     spam-aware stack, DNSBL, full instrumentation and
                     export);
* ``smtp-spam``   -- the §8 spam mix replayed over loopback against the
                     real asyncio ``SmtpServer`` + ``MfsStore``.

With ``--trace 0`` the run is timed with no instrumentation beyond a few
once-per-run hooks and a timestamp per simulated session, and reports the
end-to-end metrics.  With ``--trace 1`` it makes one untimed-instrumentation
run, one run with per-call counters on each layer and one sampled-profile
run, and reports the per-layer metrics.
Either way the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--update-fingerprints`` records this run's exact-work fingerprint as the
reference that later runs are compared with (``spam-traced`` only; use it
with ``--trace 1`` so the per-call counts are included).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import smtp_spam as spam  # noqa: E402
from layers import Sampler, percentile, self_seconds  # noqa: E402
FINGERPRINTS = HERE / "fingerprints.json"
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("spam-traced", "smtp-spam")
#: set-up is measured this many times per run; the median is reported
SETUP_SAMPLES = 5
#: every run must end within this many seconds
RUN_BUDGET_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "success_ratio": "ratio",
    "sessions_per_s": "1/s",
    "mails_per_s": "1/s",
    "session_ms_p50": "ms",
    "session_ms_p99": "ms",
}

PER_LAYER = {
    "sim.core.events": "count",
    "sim.core.steps": "count",
    "sim.core.timeouts_cancelled": "count",
    "sim.core.queue_depth_peak": "count",
    "sim.core.run_s": "s",
    "sim.core.ns_per_event": "ns",
    "sim.core.self_s": "s",
    "sim.resources.requests": "count",
    "sim.resources.cpu_slices": "count",
    "sim.resources.disk_ios": "count",
    "sim.resources.self_s": "s",
    "sim.resources.context_switches": "count",
    "sim.resources.forks": "count",
    "sim.resources.cpu_busy_sim_s": "s",
    "server.connections": "count",
    "server.mails_accepted": "count",
    "server.self_s": "s",
    "clients.self_s": "s",
    "dnsbl.lookups": "count",
    "dnsbl.queries_sent": "count",
    "dnsbl.cache_hit_ratio": "ratio",
    "dnsbl.self_s": "s",
    "obs.spans": "count",
    "obs.events": "count",
    "obs.export_bytes": "bytes",
    "obs.export_s": "s",
    "obs.self_s": "s",
    "traces.self_s": "s",
    "harness.self_s": "s",
    "smtp.receive_calls": "count",
    "smtp.self_s": "s",
    "net.handoffs": "count",
    "net.outcomes.delivered": "count",
    "net.outcomes.bounce": "count",
    "net.outcomes.unfinished": "count",
    "net.outcomes.rejected": "count",
    "net.worker_errors": "count",
    "net.self_s": "s",
    "mfs.deliveries": "count",
    "mfs.deliver_errors": "count",
    "mfs.deliver_ms_p50": "ms",
    "mfs.shared_records": "count",
    "mfs.self_s": "s",
    "other.self_s": "s",
    "bench.trace_overhead_pct": "%",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def result(correct: bool, attempted: int, failed: int, values: dict,
           units: dict) -> dict:
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in units.items()}}


class Clock:
    """The run's time budget."""

    def __init__(self, budget_s: float):
        self.deadline = time.perf_counter() + budget_s

    def remaining(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchError("run exceeded its time budget")
        return left


# -- spam-traced --------------------------------------------------------------

def figure_child(workload: str, mode: str, work: Path, clock: Clock) -> dict:
    cmd = [sys.executable, str(HERE / "figure_run.py"), "--mode", mode,
           "--work", str(work)]
    # --no-cache already bypasses the result cache; pointing it into the
    # run's own directory keeps a stray cache hit impossible
    env = dict(os.environ, REPRO_CACHE_DIR=str(work / "cache"))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=clock.remaining())
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} run exceeded the time budget")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} run exited {proc.returncode}")
    return json.loads(lines[-1])


def load_reference(workload: str) -> dict:
    if not FINGERPRINTS.exists():
        return {}
    return json.loads(FINGERPRINTS.read_text()).get(workload, {})


def compare_reference(workload: str, fingerprint: dict) -> list[str]:
    """Differences from the recorded reference, one line each."""
    reference = load_reference(workload)
    return [f"{key}: {reference[key]!r} -> {fingerprint[key]!r}"
            for key in sorted(reference)
            if key in fingerprint and fingerprint[key] != reference[key]]


def figure_workload(workload: str, seconds: float, traced: bool,
                    work: Path, clock: Clock, update: bool) -> dict:
    if traced:
        plain = figure_child(workload, "plain", work, clock)
        counted = figure_child(workload, "counted", work, clock)
        profiled = figure_child(workload, "profiled", work, clock)
        timed = [plain]
        runs = [plain, counted, profiled]
    else:
        start = time.perf_counter()
        timed = []
        while not timed or time.perf_counter() - start < seconds:
            timed.append(figure_child(workload, "plain", work, clock))
        runs = timed
    setups = [r["setup_s"] for r in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(figure_child(workload, "setup", work, clock)["setup_s"])

    problems = [f"repro-experiments exited {r['exit_code']}"
                for r in runs if r["exit_code"] != 0]
    attempted = sum(r["anchors"] for r in runs)
    anchors_failed = sum(r["anchors_failed"] for r in runs)
    violations = sum(r["violations"] for r in runs)
    if anchors_failed:
        problems.append(f"{anchors_failed} anchor(s) did not hold")
    if violations:
        problems.append(f"{violations} watchdog violation(s)")
    fingerprint = runs[0]["fingerprint"]
    if any(r["fingerprint"] != fingerprint for r in runs):
        problems.append("exact-work fingerprint differs between runs of "
                        "the same code (traced or not)")
    full = dict(fingerprint)
    if traced:
        for key in ("requests", "cpu_slices", "disk_ios"):
            full[f"sim.resources.{key}"] = counted["counts"][key]
    changes = compare_reference(workload, full)
    for line in changes:
        print(f"behaviour change in {workload}: {line}")
    if not load_reference(workload):
        print(f"{workload}: no reference fingerprint recorded")
    elif not changes:
        print(f"{workload}: exact work matches the reference fingerprint")
    if update:
        data = json.loads(FINGERPRINTS.read_text()) \
            if FINGERPRINTS.exists() else {}
        data[workload] = full
        FINGERPRINTS.write_text(json.dumps(data, indent=2, sort_keys=True)
                                + "\n")
    for line in problems:
        print(f"{workload}: {line}")
    failed = anchors_failed + violations

    if not traced:
        print(f"{workload}: wall_s of each run " + " ".join(
            f"{r['wall_s']:.3f}" for r in timed))
        print(f"{workload}: host ms between simulated session ends, "
              f"{timed[0]['gaps']} samples a run")
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in timed),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in timed),
            "success_ratio": 1.0 - failed / attempted if attempted else 0.0,
            "sessions_per_s": statistics.median(r["sessions"] / r["wall_s"]
                                                for r in timed),
            "mails_per_s": statistics.median(r["mails"] / r["wall_s"]
                                             for r in timed),
            "session_ms_p50": statistics.median(r["gap_ms_p50"]
                                                for r in timed),
            "session_ms_p99": statistics.median(r["gap_ms_p99"]
                                                for r in timed),
        }
        return result(not problems, attempted, failed, values, END_TO_END)

    selfs = self_seconds(profiled["profile"])
    events = fingerprint["sim.core.events"]
    values = {key: value for key, value in full.items()
              if key in PER_LAYER}
    values.update({
        "sim.core.run_s": plain["run_s"],
        "sim.core.ns_per_event": 1e9 * plain["run_s"] / events
        if events else 0.0,
        "obs.export_s": counted["export_s"],
        "bench.trace_overhead_pct":
            100.0 * (counted["wall_s"] / plain["wall_s"] - 1.0),
    })
    values.update({f"{layer}.self_s": s for layer, s in selfs.items()})
    for name in PER_LAYER:
        # the real-server layers do not run in the figure workload
        if name.split(".")[0] in ("smtp", "net", "mfs"):
            values.setdefault(name, 0)
    return result(not problems, attempted, failed, values, PER_LAYER)


# -- smtp-spam ------------------------------------------------------------------

def smtp_phase(server, trace, seconds: float, sampler=None) -> dict:
    """Replay for ``seconds`` against ``server``, stop it, check outputs."""
    with sampler or contextlib.nullcontext():
        sessions, wall = spam.replay(server.port, trace, seconds)
    for session in sessions:
        session.failure = spam.check_session(session)
    must, may = spam.mailbox_bounds(sessions)
    out = server.stop(set(must) | set(may))
    problems = [f"mailbox {line}" for line in
                spam.check_mailboxes(must, may, out["mailboxes"])][:5]
    trusted = sum(1 for s in sessions if s.reached_trust)
    if out["handoffs"] != trusted:
        problems.append(f"net.handoffs {out['handoffs']} != {trusted} "
                        "sessions that reached trust")
    failed = [s for s in sessions if s.failure]
    # a failed session counts as taking at least the deadline
    latencies = [max(s.elapsed_s, spam.DEADLINE_S) if s.failure
                 else s.elapsed_s for s in sessions]
    return {"sessions": sessions, "failed": failed, "wall_s": wall,
            "latencies_ms": [1000.0 * x for x in latencies],
            "mails": sum(1 for s in sessions for r in s.results
                         if r.delivered),
            "server": out, "problems": problems}


def describe_phase(phase: dict) -> None:
    reasons: dict[str, int] = {}
    for session in phase["failed"]:
        reason = session.failure.split(":")[0]
        reasons[reason] = reasons.get(reason, 0) + 1
    out = phase["server"]
    print(f"smtp-spam: {len(phase['sessions'])} sessions, "
          f"{len(phase['failed'])} failed {reasons}, "
          f"{out['worker_errors']} smtpd worker(s) dead")
    if out["stop_error"]:
        print(f"smtp-spam: SmtpServer.stop() raised {out['stop_error']}")
    for line in phase["problems"]:
        print(f"smtp-spam: {line}")


def smtp_spam_workload(seed: int, seconds: float, traced: bool,
                       work: Path, clock: Clock) -> dict:
    servers: list = []

    def start(name: str, **kwargs):
        # each phase gets its own freshly provisioned store, and nothing is
        # deleted before the run ends, so no phase pays for another's
        # file removals
        store_dir = work / f"store-{name}"
        if not store_dir.exists():
            spam.provision(store_dir)
        server = spam.ServerProcess(work / f"{name}-{len(servers)}",
                                    store_dir, **kwargs)
        servers.append(server)
        return server

    # a traced run's three phases share the window, so it takes about as
    # long as an untimed run; its per-layer counts are for that length
    phase_s = seconds / 3 if traced else seconds
    try:
        spam.provision(work / "store-plain")
        setups = []
        for i in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            trace = spam.spam_mix(seed)
            server = start("plain")
            setups.append(time.perf_counter() - t0)
            if i < SETUP_SAMPLES - 1:
                server.stop([])
        clock.remaining()
        plain = smtp_phase(server, trace, phase_s)
        describe_phase(plain)
        phases = [plain]
        if traced:
            clock.remaining()
            counted = smtp_phase(start("counted", count=True),
                                 trace, phase_s)
            clock.remaining()
            client_sampler = Sampler(SRC / "repro")
            with client_sampler:
                # profile one trace generation too: it is most of set-up
                trace = spam.spam_mix(seed)
            profiled = smtp_phase(start("profiled", profile=True),
                                  trace, phase_s, sampler=client_sampler)
            phases += [counted, profiled]
    finally:
        for server in servers:
            server.kill()
    problems = [p for phase in phases for p in phase["problems"]]
    attempted = sum(len(phase["sessions"]) for phase in phases)
    failed = sum(len(phase["failed"]) for phase in phases)

    if not traced:
        n = len(plain["sessions"])
        values = {
            "wall_s": plain["wall_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": plain["server"]["peak_rss_mb"],
            "success_ratio": 1.0 - len(plain["failed"]) / n,
            "sessions_per_s": (n - len(plain["failed"])) / plain["wall_s"],
            "mails_per_s": plain["mails"] / plain["wall_s"],
            "session_ms_p50": statistics.median(plain["latencies_ms"]),
            "session_ms_p99": percentile(plain["latencies_ms"], 0.99),
        }
        return result(not problems, attempted, failed, values, END_TO_END)

    out = counted["server"]
    selfs = self_seconds(profiled["server"]["profile"],
                         client_sampler.profile())
    values = {name: 0 for name in PER_LAYER}
    values.update({f"{layer}.self_s": s for layer, s in selfs.items()})
    values.update({
        "smtp.receive_calls": out["receive_calls"],
        "net.handoffs": out["handoffs"],
        "net.worker_errors": out["worker_errors"],
        "mfs.deliveries": out["deliveries"],
        "mfs.deliver_errors": out["deliver_errors"],
        "mfs.deliver_ms_p50": out["deliver_ms_p50"],
        "mfs.shared_records": out["shared_records"],
        "bench.trace_overhead_pct": 100.0 * (
            statistics.median(counted["latencies_ms"])
            / statistics.median(plain["latencies_ms"]) - 1.0),
    })
    for outcome in ("delivered", "bounce", "unfinished", "rejected"):
        values[f"net.outcomes.{outcome}"] = out["outcomes"].get(outcome, 0)
    return result(not problems, attempted, failed, values, PER_LAYER)


# -- entry point ------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-fingerprints", action="store_true",
                        help="record this run's exact-work fingerprint as "
                             "the reference (spam-traced, --trace 1)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    clock = Clock(RUN_BUDGET_S)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "spam-traced":
            out = figure_workload(args.workload, args.seconds,
                                  bool(args.trace), work, clock,
                                  args.update_fingerprints)
        else:
            out = smtp_spam_workload(args.seed, args.seconds,
                                     bool(args.trace), work, clock)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
