"""Server process of the ``smtp-spam`` workload.

Runs the default ``fork-after-trust`` :class:`repro.net.SmtpServer` over an
:class:`repro.mfs.MfsStore` on a loopback port.  The server knows only its
user directory; it never sees the trace or the seed.

Line protocol with the parent, over the child's stdin and stdout::

    server -> READY <port>
    parent -> STOP <mailboxes.json>     (JSON list of mailboxes to read back)
    server -> <one JSON object with the server's counters>

Run: ``python perfbench/mail_server.py --store DIR [--count] [--profile]``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from layers import CallCounters, Sampler  # noqa: E402
from smtp_spam import USERS, raise_fd_limit  # noqa: E402


def is_local_user(address) -> bool:
    return address.mailbox in USERS


async def serve(store_dir: Path, counters) -> dict:
    from repro.mfs.store import MfsStore
    from repro.net.server import NetServerConfig, SmtpServer

    config = NetServerConfig()
    store = MfsStore(store_dir)
    server = SmtpServer(config, store, is_local_user)
    await server.start()
    print(f"READY {server.port}", flush=True)
    line = await asyncio.get_running_loop().run_in_executor(
        None, sys.stdin.readline)
    command, _, list_path = line.strip().partition(" ")
    if command != "STOP":
        raise SystemExit(f"mail_server: unexpected command {line!r}")
    read_back = json.loads(Path(list_path).read_text()) if list_path \
        else []
    # workers are named smtpd-<i>; one that died on an exception is no
    # longer among the live tasks
    alive = sum(1 for task in asyncio.all_tasks()
                if task.get_name().startswith("smtpd-"))
    stop_error = ""
    try:
        await server.stop()
    except Exception as exc:   # noqa: BLE001 - reported, not hidden
        # stop() re-raises the first exception that killed a worker
        stop_error = f"{type(exc).__name__}: {exc}"
    mailboxes = {mb: len(store.list_mailbox(mb)) for mb in read_back}
    shared_records = store.shared_record_count()
    store.close()
    stats = server.stats
    out = {
        "connections": stats.connections,
        "handoffs": stats.handoffs,
        "mails_accepted": stats.mails_accepted,
        "outcomes": dict(stats.outcomes),
        "worker_errors": config.worker_pool_size - alive,
        "stop_error": stop_error,
        "mailboxes": mailboxes,
        "shared_records": shared_records,
    }
    if counters is not None:
        deliver = sorted(counters.samples["deliver"])
        out["receive_calls"] = counters.counts["receive_calls"]
        out["deliveries"] = counters.counts["deliver"]
        out["deliver_errors"] = counters.errors["deliver"]
        out["deliver_ms_p50"] = (1000.0 * deliver[len(deliver) // 2]
                                 if deliver else 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", type=Path, required=True,
                        help="MFS store directory")
    parser.add_argument("--count", action="store_true",
                        help="count and time calls into smtp and mfs")
    parser.add_argument("--profile", action="store_true",
                        help="sample host self time per layer")
    args = parser.parse_args(argv)
    raise_fd_limit()
    counters = CallCounters().install_server() if args.count else None
    sampler = Sampler(SRC / "repro") if args.profile else None
    if sampler is not None:
        with sampler:
            out = asyncio.run(serve(args.store, counters))
        out["profile"] = sampler.profile()
    else:
        out = asyncio.run(serve(args.store, counters))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
