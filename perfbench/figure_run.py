"""One process running the ``spam-traced`` workload's figure.

It runs ``repro-experiments combined --no-cache --jobs 1 --trace T
--record R`` and writes both files.  The CLI is called in this process
with its own defaults otherwise, so the watchdogs are on exactly when the
CLI turns them on.

Modes:

* ``setup``    -- time imports and trace generation, then exit;
* ``plain``    -- set up, then time one run of the CLI;
* ``counted``  -- as ``plain``, with per-call counters on each layer;
* ``profiled`` -- as ``plain``, under the sampling profiler.

Prints one JSON object as its last line of output.

Run: ``python perfbench/figure_run.py --mode plain --work DIR``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from layers import CallCounters, Sampler, WorkHooks, percentile  # noqa: E402

#: sinkhole and univ sizes the ``combined`` experiment memoizes at quick scale
COMBINED_TRACE_SIZES = (8_000, 8_000)


def cli_args(work: Path) -> list[str]:
    return ["combined", "--no-cache", "--jobs", "1",
            "--trace", str(work / "combined.trace.jsonl"),
            "--record", str(work / "combined.events.jsonl")]


def set_up() -> None:
    """Import the CLI and fill the trace memo the experiment reads."""
    from repro.harness import cli  # noqa: F401
    from repro.traces import cached_sinkhole, cached_univ

    n_sinkhole, n_univ = COMBINED_TRACE_SIZES
    cached_sinkhole(n_sinkhole)
    cached_univ(n_univ)


def count_exported(work: Path) -> dict:
    """Spans, events and bytes the CLI wrote, then remove the files."""
    out = {"obs.spans": 0, "obs.events": 0, "obs.export_bytes": 0}
    for name, kind, key in (("combined.trace.jsonl", b'"type":"span"}',
                             "obs.spans"),
                            ("combined.events.jsonl", b'"type":"event"}',
                             "obs.events")):
        path = work / name
        if not path.exists():
            continue
        out["obs.export_bytes"] += path.stat().st_size
        with path.open("rb") as fh:
            out[key] = sum(1 for line in fh if line.rstrip().endswith(kind))
        path.unlink()
    return out


def run(mode: str, work: Path) -> dict:
    sampler = Sampler(SRC / "repro") if mode == "profiled" else None
    if sampler is not None:
        sampler.__enter__()
    set_up()
    out: dict = {"setup_s": time.perf_counter() - T_START}
    if mode == "setup":
        return out
    from repro.harness import cli

    work.mkdir(parents=True, exist_ok=True)
    hooks = WorkHooks().install()
    counters = CallCounters().install_simulator() \
        if mode == "counted" else None
    argv = cli_args(work)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = cli.main(argv)
    out["wall_s"] = time.perf_counter() - t0
    if sampler is not None:
        sampler.__exit__(None, None, None)
        out["profile"] = sampler.profile()
    if counters is not None:
        counters.uninstall()
        out["counts"] = dict(counters.counts)
        out["export_s"] = counters.seconds["export"]
    hooks.uninstall()
    anchors, anchors_failed = hooks.anchors()
    fingerprint = hooks.fingerprint()
    fingerprint.update(count_exported(work))
    out.update({
        "exit_code": exit_code,
        "anchors": anchors,
        "anchors_failed": anchors_failed,
        "violations": hooks.violations(),
        "fingerprint": fingerprint,
        "sessions": hooks.server["connections"],
        "mails": hooks.server["mails_accepted"],
        "run_s": hooks.run_s,
        "gap_ms_p50": percentile(hooks.session_gaps_ms, 0.50),
        "gap_ms_p99": percentile(hooks.session_gaps_ms, 0.99),
        "gaps": len(hooks.session_gaps_ms),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", required=True,
                        choices=("setup", "plain", "counted", "profiled"))
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(run(args.mode, args.work)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
