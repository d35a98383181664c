"""End-to-end tests of the campaign service daemon.

Each test spawns a real ``python -m repro serve`` subprocess and talks to
it over the Unix socket through the thin client library — the same path
``repro submit``/``status``/``drain`` take.  A module-scoped compile cache
is primed once so daemon jobs stay fast.
"""

import json
import os
import signal
import socket as socketmod
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.service import client
from repro.service.protocol import TERMINAL_STATES, encode

ROOT = Path(__file__).parents[2]

VERIFY1 = {"workloads": ["awk"], "models": ["squashing"], "seeds": 1}
#: heavy enough (~5s from a cold cache) that chaos faults and daemon
#: SIGKILLs reliably land *mid-campaign* — see the timing-sensitive tests
VERIFYBIG = {"workloads": ["awk", "grep", "compress"],
             "models": ["squashing", "boost1", "minboost3"], "seeds": 5}


def _oracle(cache_dir, params):
    """The clean serial oracle: exactly what a job computes."""
    from repro.harness.cache import CompileCache
    from repro.verify import VerifyCampaign

    campaign = VerifyCampaign(workload_names=params["workloads"],
                              model_keys=params["models"],
                              seeds=params["seeds"],
                              cache=CompileCache(cache_dir))
    return campaign.run(jobs=1).format()


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("svc-cache"))
    _oracle(path, VERIFY1)  # prime the compile cache for the module
    return path


@pytest.fixture(scope="module")
def oracle1(cache_dir):
    return _oracle(cache_dir, VERIFY1)


@pytest.fixture(scope="module")
def oracle_big(cache_dir):
    return _oracle(cache_dir, VERIFYBIG)


class Daemon:
    """A ``repro serve`` subprocess in its own process group."""

    def __init__(self, tmp_path, *extra, cache_dir=None):
        self.socket_path = str(tmp_path / "svc.sock")
        self.state_dir = tmp_path / "state"
        cmd = [sys.executable, "-m", "repro", "serve",
               "--socket", self.socket_path,
               "--state-dir", str(self.state_dir)]
        if cache_dir is not None:
            cmd += ["--cache-dir", str(cache_dir)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        self.proc = subprocess.Popen(
            cmd + list(extra), cwd=str(ROOT), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        self._wait_ready()

    def _wait_ready(self, timeout=60.0):
        deadline = time.monotonic() + timeout
        while not os.path.exists(self.socket_path):
            if self.proc.poll() is not None:
                raise RuntimeError("daemon died on startup:\n"
                                   + (self.proc.stderr.read() or ""))
            if time.monotonic() > deadline:
                raise TimeoutError("daemon socket never appeared")
            time.sleep(0.02)

    def sigterm(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)

    def hard_kill(self):
        """SIGKILL the daemon, as a crash would; its pool workers see EOF
        and exit on their own."""
        self.proc.kill()
        self.proc.wait()
        self.proc.stderr.close()

    def wait(self):
        """Reap a daemon that is already exiting (e.g. after a drain op)."""
        try:
            _, err = self.proc.communicate(timeout=180)
        except subprocess.TimeoutExpired:
            self.hard_kill()
            raise
        assert self.proc.returncode == 0, err
        return err

    def stop(self):
        """SIGTERM if still alive, reap, return collected stderr."""
        self.sigterm()
        return self.wait()


def _wait_terminal(socket_path, job, timeout=180.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            reply = client.status(socket_path, job=job)
        except client.ServiceError:
            time.sleep(0.1)
            continue
        if reply.get("state") in TERMINAL_STATES:
            return reply
        time.sleep(0.1)
    raise TimeoutError(f"{job} never reached a terminal state")


def test_submit_runs_to_done_and_matches_the_serial_oracle(
        tmp_path, cache_dir, oracle1, capsys):
    daemon = Daemon(tmp_path, cache_dir=cache_dir)
    try:
        accepted, result = client.submit(daemon.socket_path, "verify",
                                         VERIFY1)
        assert accepted["event"] == "accepted"
        job = accepted["job"]
        assert result["state"] == "done"
        assert result["ok"]
        assert result["text"] == oracle1  # byte-identical to serial run
        assert result["failures"] == []

        # The CLI clients ride the same protocol.
        rc = main(["status", "--socket", daemon.socket_path])
        out, err = capsys.readouterr()
        assert rc == 0
        assert f"{job:12s} verify   done" in out
        assert "admitted=1" in err

        # The durable record agrees.
        record = json.loads((daemon.state_dir / "jobs" / job
                             / "job.json").read_text())
        assert record["state"] == "done"

        rc = main(["drain", "--socket", daemon.socket_path])
        out, _ = capsys.readouterr()
        assert rc == 0
        assert "drain: admitted=1" in out
    finally:
        err = daemon.wait()  # the drain op ends the daemon on its own
    assert "serve: socket=" in err      # startup banner
    assert "serve: drained" in err      # drain summary
    assert "completed=1" in err


def test_rejections_are_structured_and_jobs_survive_them(tmp_path,
                                                         cache_dir):
    # queue-bound 1 and a big cold-cache job: the first job is slow
    # enough that a second submit lands while it is still in flight.
    daemon = Daemon(tmp_path, "--queue-bound", "1",
                    cache_dir=tmp_path / "cold-cache")
    try:
        sock = daemon.socket_path
        first, _ = client.submit(sock, "verify", VERIFYBIG, wait=False)
        assert first["event"] == "accepted"

        busy, _ = client.submit(sock, "verify", VERIFY1)
        assert busy["event"] == "rejected"
        assert busy["reason"] == "busy"
        assert busy["bound"] == 1
        assert "admission queue full" in busy["message"]

        invalid, _ = client.submit(sock, "verify", {"models": ["nosuch"]})
        assert invalid["event"] == "rejected"
        assert invalid["reason"] == "invalid"
        assert "nosuch" in invalid["message"]

        badkind, _ = client.submit(sock, "compile", {})
        assert badkind["event"] == "rejected"
        assert "unknown kind" in badkind["message"]

        badop = next(client.request(sock, {"op": "bogus"}))
        assert badop["event"] == "error"

        # Raw garbage on the wire gets a structured error, not a hangup.
        raw = socketmod.socket(socketmod.AF_UNIX)
        raw.connect(sock)
        raw.sendall(b"this is not json\n")
        with raw.makefile("rb") as fh:
            assert json.loads(fh.readline())["event"] == "error"
        raw.close()

        # None of that disturbed the admitted job.
        reply = _wait_terminal(sock, first["job"])
        assert reply["state"] == "done"
    finally:
        err = daemon.stop()
    assert "completed=1" in err
    assert "rejected=3" in err  # busy + invalid model + unknown kind


def test_deadline_expiry_yields_a_structured_partial_report(tmp_path):
    # A big cold-cache campaign far outlasts a 0.5s budget.  The job's
    # batch deadline fires and every unfinished cell degrades to a
    # `kind: deadline` failure — a report, not a corpse.
    daemon = Daemon(tmp_path, cache_dir=tmp_path / "cold-cache")
    try:
        accepted, result = client.submit(daemon.socket_path, "verify",
                                         VERIFYBIG, deadline=0.5)
        assert accepted["event"] == "accepted"
        assert result["state"] == "deadline"
        assert not result["ok"]
        kinds = {f["kind"] for f in result["failures"]}
        assert "deadline" in kinds
        assert "deadline expired" in result["text"]
    finally:
        err = daemon.stop()
    assert "deadline-expired=1" in err


def test_client_disconnect_abandons_the_stream_not_the_job(tmp_path,
                                                           cache_dir,
                                                           oracle1):
    daemon = Daemon(tmp_path, cache_dir=cache_dir)
    try:
        sock = socketmod.socket(socketmod.AF_UNIX)
        sock.connect(daemon.socket_path)
        sock.sendall(encode({"op": "submit", "kind": "verify",
                             "params": VERIFY1, "wait": True}))
        with sock.makefile("rb") as fh:
            accepted = json.loads(fh.readline())
        assert accepted["event"] == "accepted"
        sock.close()  # hang up before the result event

        reply = _wait_terminal(daemon.socket_path, accepted["job"])
        assert reply["state"] == "done"
        assert reply["text"] == oracle1
    finally:
        err = daemon.stop()
    assert "completed=1" in err


def test_worker_chaos_converges_to_the_clean_oracle(tmp_path, cache_dir,
                                                    oracle_big):
    # Seed 11 kills, hangs or corrupts pool workers on the first two
    # attempts of seven of the nine buckets (ChaosConfig: a pure function
    # of the seed); hangs are reaped by the 8s task timeout.  Every bucket
    # gets a clean third attempt, so the report must be byte-identical to
    # the clean serial oracle.
    daemon = Daemon(tmp_path, "--chaos", "11", "--timeout", "8",
                    "--jobs", "2", cache_dir=tmp_path / "cold-cache")
    try:
        start = time.monotonic()
        accepted, result = client.submit(daemon.socket_path, "verify",
                                         VERIFYBIG, timeout=600)
        elapsed = time.monotonic() - start
        assert accepted["event"] == "accepted"
        assert result["state"] == "done"
        assert result["attempts"] == 1  # one daemon life, one job start
        assert result["text"] == oracle_big
        # Proof that chaos fired: four buckets hang on their first attempt,
        # and only the 8s timeout ends a hang.  A clean run takes ~3s.
        assert elapsed >= 8.0
    finally:
        err = daemon.stop()
    assert "completed=1" in err


def test_chaos_kill_with_a_deadline_cannot_wedge_the_daemon(tmp_path):
    # Worker chaos plus a deadline: hung workers (no --timeout, so the
    # 60s chaos fallback would reap them) must not outlive the 1s batch
    # deadline — the pool kills every busy worker when it expires, and
    # the job still ends `deadline` with a structured partial report.
    daemon = Daemon(tmp_path, "--chaos", "11",
                    cache_dir=tmp_path / "cold-cache")
    try:
        accepted, result = client.submit(daemon.socket_path, "verify",
                                         VERIFYBIG, deadline=1.0,
                                         timeout=120)
        assert accepted["event"] == "accepted"
        assert result["state"] == "deadline"
        assert not result["ok"]
    finally:
        err = daemon.stop()
    assert "deadline-expired=1" in err


def test_status_answers_while_a_job_runs(tmp_path):
    # Jobs run on a worker thread, never on the event loop: a big
    # cold-cache campaign in flight must not delay a status reply.
    daemon = Daemon(tmp_path, cache_dir=tmp_path / "cold-cache")
    try:
        accepted, _ = client.submit(daemon.socket_path, "verify",
                                    VERIFYBIG, wait=False)
        job = accepted["job"]
        time.sleep(0.5)  # let the job get into the campaign
        for _ in range(5):
            start = time.monotonic()
            reply = client.status(daemon.socket_path)
            assert time.monotonic() - start < 1.0
            states = {j["id"]: j["state"] for j in reply["jobs"]}
            assert states[job] == "running"
            time.sleep(0.2)
        assert _wait_terminal(daemon.socket_path, job)["state"] == "done"
    finally:
        err = daemon.stop()
    assert "completed=1" in err


def test_sigterm_drains_in_flight_work_then_exits_zero(tmp_path,
                                                       cache_dir):
    daemon = Daemon(tmp_path, cache_dir=cache_dir)
    accepted, _ = client.submit(daemon.socket_path, "verify", VERIFY1,
                                wait=False)
    assert accepted["event"] == "accepted"
    daemon.sigterm()  # immediately: the job is still in flight
    err = daemon.stop()
    assert "serve: drained" in err
    assert "completed=1" in err
    record = json.loads((daemon.state_dir / "jobs" / accepted["job"]
                         / "job.json").read_text())
    assert record["state"] == "done"  # finished, not abandoned
    assert not os.path.exists(daemon.socket_path)


def test_resume_readopts_jobs_after_a_daemon_sigkill(tmp_path, cache_dir,
                                                     oracle_big):
    daemon = Daemon(tmp_path, cache_dir=tmp_path / "cold-cache")
    accepted, _ = client.submit(daemon.socket_path, "verify", VERIFYBIG,
                                wait=False)
    job = accepted["job"]
    time.sleep(0.5)  # let the job get into the campaign
    daemon.hard_kill()  # the daemon dies mid-job, the journal survives

    revived = Daemon(tmp_path, "--resume", cache_dir=cache_dir)
    try:
        reply = _wait_terminal(revived.socket_path, job)
        assert reply["state"] == "done"
        assert reply["text"] == oracle_big  # byte-identical across lives
    finally:
        err = revived.stop()
    assert "resumed=1" in err
