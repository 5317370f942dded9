"""The ``smtp-spam`` workload: the §8 spam mix over loopback.

The client side is an open loop in this process: session ``i`` is due at
``i / RATE`` seconds and starts then, whatever happened to the sessions
before it.  Sessions are taken in order from a sinkhole trace with the ECN
year-mean bounce and unfinished ratios applied by ``with_bounces``; the
seed drives both generators.  The server runs in its own process
(:mod:`mail_server`).

Why an open loop: a session that a dead smtpd worker never answers holds
its connection until the deadline.  In a closed loop of two connections
that stall takes half the offered load away, so throughput, latency and
even the per-session CPU cost swing with how many stalls a seed happens to
trigger (37 to 133 sessions/s over twelve 20-second runs, seeds 1-7).  A fixed arrival rate keeps the offered load the same on
every run, and the stalls show where they belong: as failed sessions, as
the p99 latency and as dead workers.

Every session is checked against the trace: it fails if it passes
:data:`DEADLINE_S`, raises, or delivers a number of mails other than the
trace expects.  Duplicate recipients in the trace are replayed as they are.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: sessions started per second, about half of what the seed server
#: sustains on a 2-vCPU virtual machine
RATE = 100.0
#: the sinkhole generator's mailbox population: ``user0..user9999``
USERS = frozenset(f"user{i}@sinkhole.example" for i in range(10_000))
#: mailboxes opened at once while provisioning (two descriptors each)
PROVISION_CHUNK = 2_000
#: a session that takes longer than this fails
DEADLINE_S = 1.0
#: sessions generated per seed; the loop cycles through them if it runs out
TRACE_CONNECTIONS = 8_000
#: seconds a server process may take to start or to stop
SERVER_TIMEOUT_S = 60.0


def spam_mix(seed: int, n: int = TRACE_CONNECTIONS):
    """The seed's sinkhole trace with the ECN bounce/unfinished mix."""
    from repro.traces import (EcnBounceSeries, SinkholeConfig,
                              SinkholeTraceGenerator, with_bounces)

    trace = SinkholeTraceGenerator(
        SinkholeConfig(seed=seed).scaled(n)).generate()
    bounce, unfinished = EcnBounceSeries().mean_ratios()
    return with_bounces(trace, bounce_ratio=bounce,
                        unfinished_ratio=unfinished, seed=seed)


def raise_fd_limit() -> int:
    """Lift this process's open-file limit to the hard limit; returns it.

    ``MfsStore`` keeps two descriptors open per mailbox it has touched.
    """
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if hard != resource.RLIM_INFINITY and soft < hard:
        resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
        return hard
    return soft


def provision(store_dir: Path) -> None:
    """Create every user's mailbox, as on a server whose users exist.

    Creating a mailbox costs two file creations, far more than appending
    to one, and on a shared 2-vCPU virtual machine with an ext4 disk file
    creation time was seen to swing by an order of magnitude from minute
    to minute; provisioning keeps it out of the measured replay.
    """
    from repro.mfs.store import MfsStore

    chunk = min(PROVISION_CHUNK, raise_fd_limit() // 4)
    users = sorted(USERS)
    for start in range(0, len(users), chunk):
        with MfsStore(store_dir) as store:
            for user in users[start:start + chunk]:
                store.open_mailbox(user)
    # write the new files out now rather than during the measured replay
    os.sync()


def outgoing_mails(conn) -> list:
    """The mails a trace connection sends, as the client FSM takes them."""
    from repro.smtp.client_fsm import OutgoingMail

    return [OutgoingMail(sender=f"sender@{conn.helo}",
                         recipients=[r.mailbox for r in mail.recipients],
                         body=b"X" * max(0, mail.size - 2) + b"\r\n")
            for mail in conn.mails]


def expected_deliveries(conn) -> int:
    """Mails of ``conn`` that have at least one valid recipient."""
    if conn.unfinished:
        return 0
    return sum(1 for mail in conn.mails if mail.valid_recipients)


@dataclass
class Session:
    """One replayed session and what the client saw."""

    conn: object
    results: list
    error: str
    elapsed_s: float
    failure: str = ""

    @property
    def reached_trust(self) -> bool:
        return any(r.accepted_recipients for r in self.results)


def check_session(session: Session) -> str:
    """Why ``session`` failed, or ``""`` when it matches the trace."""
    if session.error:
        return session.error
    if session.elapsed_s > DEADLINE_S:
        return f"took {session.elapsed_s:.3f}s"
    delivered = sum(1 for r in session.results if r.delivered)
    expected = expected_deliveries(session.conn)
    if delivered != expected:
        return f"delivered {delivered} of {expected} mail(s)"
    return ""


def mailbox_bounds(sessions: list[Session]) -> tuple[dict, dict]:
    """Entries each mailbox must hold, and extra entries it may hold.

    It must hold one entry per accepted recipient of every mail the client
    saw delivered.  A failed session's accepted recipients may also have
    been stored: the client gave up before it learnt the outcome.  Keys are
    the server's canonical mailbox names.
    """
    from repro.smtp.address import Address

    must: dict[str, int] = {}
    may: dict[str, int] = {}
    for session in sessions:
        for result in session.results:
            if result.delivered:
                bucket = must
            elif session.failure:
                bucket = may
            else:
                continue
            for rcpt in result.accepted_recipients:
                mailbox = Address.parse(rcpt).mailbox
                bucket[mailbox] = bucket.get(mailbox, 0) + 1
    return must, may


def check_mailboxes(must: dict, may: dict, stored: dict) -> list[str]:
    """Mailboxes whose read-back entry count is outside its bounds."""
    bad = []
    for mailbox in sorted(set(must) | set(may)):
        low = must.get(mailbox, 0)
        high = low + may.get(mailbox, 0)
        if not low <= stored.get(mailbox, 0) <= high:
            bad.append(f"{mailbox}: {stored.get(mailbox, 0)} entries, "
                       f"expected {low}..{high}")
    return bad


async def _one_session(port: int, conn) -> Session:
    from repro.errors import ReproError
    from repro.net.client import SmtpClient

    client = SmtpClient("127.0.0.1", port, outgoing_mails(conn),
                        helo=conn.helo, quit_after_helo=conn.unfinished,
                        timeout=DEADLINE_S)
    error = ""
    t0 = time.perf_counter()
    try:
        await asyncio.wait_for(client.run(), DEADLINE_S)
    except asyncio.TimeoutError:
        error = "deadline"
    except (OSError, ReproError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    return Session(conn, client.session.results, error, elapsed)


async def _open_loop(port: int, trace, seconds: float) -> list[Session]:
    sessions: list[Session] = []
    tasks: list[asyncio.Task] = []
    connections = trace.connections
    t0 = time.perf_counter()

    async def one(conn, due: float) -> None:
        session = await _one_session(port, conn)
        # latency counts from when the session was due, so a generator
        # that falls behind shows up as latency
        session.elapsed_s = time.perf_counter() - due
        sessions.append(session)

    i = 0
    while i / RATE < seconds:
        due = t0 + i / RATE
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(
            one(connections[i % len(connections)], due)))
        i += 1
    await asyncio.gather(*tasks)
    return sessions


def replay(port: int, trace, seconds: float) -> tuple[list[Session], float]:
    """Run the open loop for ``seconds``; returns sessions and wall time."""
    t0 = time.perf_counter()
    sessions = asyncio.run(_open_loop(port, trace, seconds))
    return sessions, time.perf_counter() - t0


class ServerProcess:
    """A :mod:`mail_server` child process."""

    def __init__(self, work: Path, store_dir: Path, count: bool = False,
                 profile: bool = False):
        work.mkdir(parents=True, exist_ok=True)
        self.work = work
        cmd = [sys.executable, str(HERE / "mail_server.py"),
               "--store", str(store_dir)]
        if count:
            cmd.append("--count")
        if profile:
            cmd.append("--profile")
        self._stderr = open(work / "server.stderr", "w")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=self._stderr, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    SERVER_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("READY "):
            self.kill()
            raise RuntimeError(f"mail server did not start: {line!r}; "
                               f"{self.stderr_tail()}")
        self.port = int(line.split()[1])

    def stop(self, mailboxes) -> dict:
        """Stop the server; it reads back the named mailboxes."""
        list_path = self.work / "read_back.json"
        list_path.write_text(json.dumps(sorted(mailboxes)))
        try:
            out, _ = self.proc.communicate(f"STOP {list_path}\n",
                                           timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("mail server did not stop in time")
        finally:
            self._stderr.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"mail server exited {self.proc.returncode}: "
                               f"{self.stderr_tail()}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if not self._stderr.closed:
            self._stderr.close()

    def stderr_tail(self, n: int = 5) -> str:
        path = self.work / "server.stderr"
        lines = path.read_text().splitlines() if path.exists() else []
        return " | ".join(lines[-n:])
