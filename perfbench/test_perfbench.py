"""Tests of the benchmark itself.

Run: ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import smtp_spam  # noqa: E402
from layers import LAYERS, layer_of  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_match_benchmark_json():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    names = [w["name"] for w in spec["workloads"]] \
        + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_every_layer_reports_self_time():
    for layer in (*LAYERS, "other"):
        assert f"{layer}.self_s" in run.PER_LAYER


def test_layer_of_maps_files_to_layers():
    root = ROOT / "src" / "repro"
    assert layer_of(str(root / "sim" / "core.py"), root) == "sim.core"
    assert layer_of(str(root / "sim" / "eventq.py"), root) == "sim.core"
    assert layer_of(str(root / "sim" / "resources.py"), root) \
        == "sim.resources"
    assert layer_of(str(root / "net" / "server.py"), root) == "net"
    assert layer_of(str(root / "sim" / "random.py"), root) == "other"
    assert layer_of(json.__file__, root) is None


def _figure_run(mode: str, work: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "figure_run.py"), "--mode", mode,
         "--work", str(work)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_run_leaves_fingerprint_identical(tmp_path):
    plain = _figure_run("plain", tmp_path)
    counted = _figure_run("counted", tmp_path)
    assert plain["exit_code"] == counted["exit_code"] == 0
    assert plain["fingerprint"] == counted["fingerprint"]
    assert plain["fingerprint"]["sim.core.events"] > 0
    assert counted["counts"]["requests"] > 0


def _session(conn, delivered: list[bool], error: str = ""):
    from repro.smtp.client_fsm import MailResult

    results = []
    for mail, ok in zip(smtp_spam.outgoing_mails(conn), delivered):
        result = MailResult(mail, delivered=ok)
        result.accepted_recipients = [r for r in mail.recipients
                                      if r in smtp_spam.USERS]
        results.append(result)
    return smtp_spam.Session(conn, results, error, 0.005)


@pytest.fixture(scope="module")
def mix():
    return smtp_spam.spam_mix(seed=3, n=400)


def test_checker_flags_wrong_delivered_count(mix):
    normal = next(c for c in mix if not c.unfinished and not c.is_bounce)
    bounce = next(c for c in mix if c.is_bounce)
    unfinished = next(c for c in mix if c.unfinished)
    assert smtp_spam.check_session(_session(normal, [True])) == ""
    assert smtp_spam.check_session(_session(normal, [False])) \
        == "delivered 0 of 1 mail(s)"
    assert smtp_spam.check_session(_session(bounce, [False])) == ""
    assert smtp_spam.check_session(_session(bounce, [True])) \
        == "delivered 1 of 0 mail(s)"
    assert smtp_spam.check_session(_session(unfinished, [])) == ""
    assert smtp_spam.check_session(
        _session(normal, [True], error="deadline")) == "deadline"


def test_mailbox_check_bounds(mix):
    normal = next(c for c in mix if not c.unfinished and not c.is_bounce)
    ok = _session(normal, [True])
    lost = _session(normal, [False], error="deadline")
    lost.failure = smtp_spam.check_session(lost)
    must, may = smtp_spam.mailbox_bounds([ok, lost])
    rcpts = {r.mailbox for r in normal.mails[0].recipients}
    assert set(must) == set(may) == rcpts
    stored = {mailbox: must[mailbox] for mailbox in must}
    assert smtp_spam.check_mailboxes(must, may, stored) == []
    both = {mailbox: must[mailbox] + may[mailbox] for mailbox in must}
    assert smtp_spam.check_mailboxes(must, may, both) == []
    missing = dict(stored)
    missing[sorted(rcpts)[0]] -= 1
    assert len(smtp_spam.check_mailboxes(must, may, missing)) == 1


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spam-traced",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
