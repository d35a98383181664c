"""The campaign service daemon: ``python -m repro serve``.

A long-running asyncio process that turns bench/verify/fuzz campaigns into
queued jobs over a Unix socket (newline-delimited JSON, see
:mod:`repro.service.protocol`).  The design goals, in order:

* **bounded memory** — admission is gated by ``queue_bound``: at most that
  many jobs may be admitted-but-not-terminal at once.  Overload is a
  structured ``rejected: busy`` response, never an unbounded queue.
* **no lost work** — every job journals its cells as it runs.  A daemon
  killed at any instant leaves ``job.json`` records and journals that
  ``serve --resume`` re-adopts; the resumed report is byte-identical to an
  uninterrupted one.
* **bounded latency** — a per-request deadline becomes the batch deadline
  of the job's :class:`SupervisionPolicy`, so expiry kills the busy pool
  workers and produces a structured partial report (every unfinished cell
  ``kind: deadline``) rather than a hung job.
* **failure isolation** — a per-configuration circuit breaker
  (:mod:`repro.service.breaker`) stops one pathological config cell from
  burning every job's retry budget; open cells degrade to deterministic
  skips, and half-open probes restore them.
* **graceful drain** — SIGTERM (or the ``drain`` op) stops admission,
  finishes what is queued and running, prints a one-line summary, and
  exits 0.

Jobs execute strictly in admission order, one at a time, each on a worker
thread (:func:`asyncio.to_thread`) that runs the CLI's own campaign code
(:func:`repro.service.jobs.run_job`), so the event loop keeps answering
while a job runs.  Parallelism lives *inside* a job — the supervised
worker pool, where it is already proven byte-deterministic — and so do
timeouts, retries and ``--chaos``, which mean exactly what they mean for
``repro bench/verify/fuzz``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import time
from pathlib import Path
from typing import Optional

from repro.obs.stats import ServiceStats
from repro.service.breaker import TRIPPING_KINDS, CircuitBreaker
from repro.service.jobs import (
    JobRecord, admission_error, breaker_cells, cell_key, load_jobs,
    next_job_id, run_job,
)
from repro.service.protocol import (
    JOB_KINDS, TERMINAL_STATES, decode, encode, response, validate_submit,
)

__all__ = ["CampaignService"]


class _Job:
    """In-memory state of one admitted job."""

    def __init__(self, record: JobRecord, job_dir: Path) -> None:
        self.record = record
        self.dir = job_dir
        self.admitted_mono = time.monotonic()
        self.done = asyncio.Event()
        self.report: Optional[dict] = None


class CampaignService:
    def __init__(self, socket_path: str, state_dir: str, *,
                 queue_bound: int = 4, runtime: Optional[dict] = None,
                 resume: bool = False, breaker_threshold: int = 3,
                 breaker_cooldown: float = 30.0,
                 banner: bool = True) -> None:
        self.socket_path = str(socket_path)
        self.state_dir = Path(state_dir)
        self.queue_bound = queue_bound
        #: supervision settings for every job, by CLI flag dest
        self.runtime = dict(runtime or {})
        self.resume = resume
        self.banner = banner
        self.breaker = CircuitBreaker(threshold=breaker_threshold,
                                      cooldown=breaker_cooldown)
        self.stats = ServiceStats()
        self.jobs: dict[str, _Job] = {}
        self._pending = 0  # admitted but not yet terminal
        self._draining = False
        self._queue: Optional[asyncio.Queue] = None
        self._drain_requested: Optional[asyncio.Event] = None
        self._drained: Optional[asyncio.Event] = None
        self._conns: set[asyncio.Task] = set()

    # ------------------------------------------------------------ lifecycle
    async def run(self) -> int:
        loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._drain_requested = asyncio.Event()
        self._drained = asyncio.Event()
        # Signal handlers before anything slow (job re-adoption): a
        # SIGTERM racing startup must drain, not kill.
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, self.begin_drain)
        (self.state_dir / "jobs").mkdir(parents=True, exist_ok=True)
        self._warm_admission()
        resumed = self._adopt_jobs() if self.resume else 0
        self.stats.resumed_jobs = resumed

        socket_path = Path(self.socket_path)
        socket_path.parent.mkdir(parents=True, exist_ok=True)
        if socket_path.exists():
            socket_path.unlink()  # stale socket from a killed daemon
        server = await asyncio.start_unix_server(self._on_connection,
                                                 path=self.socket_path)
        if self.banner:
            print(f"serve: socket={self.socket_path} "
                  f"queue-bound={self.queue_bound} "
                  f"jobs={self.runtime.get('jobs', 1)} "
                  f"cache={self._cache_label()} resumed={resumed}",
                  file=sys.stderr, flush=True)

        consumer = asyncio.create_task(self._consume())
        await self._drain_requested.wait()
        await self._queue.put(None)  # sentinel: behind all admitted jobs
        await consumer
        server.close()
        await server.wait_closed()
        self._drained.set()
        if self._conns:  # let drain/status responders flush
            await asyncio.wait(self._conns, timeout=5)
        try:
            socket_path.unlink()
        except OSError:
            pass
        s = self.stats
        print(f"serve: drained — admitted={s.admitted} "
              f"rejected={s.rejected} completed={s.completed} "
              f"failed={s.failed} deadline-expired={s.deadline_expired} "
              f"breaker-opened={self.breaker.opened_total}",
              file=sys.stderr, flush=True)
        return 0

    def begin_drain(self) -> None:
        self._draining = True
        self._drain_requested.set()

    def _warm_admission(self) -> None:
        """Run admission's code once, before any job thread exists.

        Job threads fork pool workers while this (the loop) thread keeps
        admitting, and a fork copies every lock as it stands.  Admission
        imports its campaign modules lazily; doing that here, up front,
        means the loop thread never holds an import lock a forked worker
        could inherit.  The loop thread's only other locks are the stderr
        buffer's, and it prints only before the first job (the banner) and
        after the last (the drain summary)."""
        for kind in JOB_KINDS:
            admission_error(kind, {})
            breaker_cells(kind, {})

    def _cache_label(self) -> str:
        if self.runtime.get("no_cache"):
            return "off"
        from repro.harness.cache import CompileCache
        return str(CompileCache(self.runtime.get("cache_dir")).cache_dir)

    def _adopt_jobs(self) -> int:
        """Re-queue every non-terminal job from a previous daemon life.

        Their journals carry what the earlier life finished, so the
        re-adopted report is byte-identical to one from an uninterrupted
        daemon.  Nothing of the earlier life can still write a journal:
        only the job thread writes it, and that died with its daemon
        (orphaned pool workers exit on pipe EOF).  Deadline budgets restart
        from re-admission — the original admission clock died with the
        original daemon.
        """
        adopted = 0
        for record in load_jobs(self.state_dir):
            job = _Job(record, self.state_dir / "jobs" / record.id)
            self.jobs[record.id] = job
            if record.state in TERMINAL_STATES:
                job.report = self._read_report(job)
                job.done.set()
                continue
            record.state = "queued"
            record.save(job.dir)
            self._pending += 1
            self._queue.put_nowait(job)
            adopted += 1
        return adopted

    # ----------------------------------------------------------- connections
    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conns.add(task)
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass  # the client hung up mid-stream; its jobs keep running
        finally:
            self._conns.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _serve_connection(self, reader, writer) -> None:
        line = await reader.readline()
        if not line:
            return
        try:
            req = decode(line)
        except ValueError as err:
            await self._send(writer, response("error", message=str(err)))
            return
        op = req.get("op")
        if op == "submit":
            await self._op_submit(req, writer)
        elif op == "status":
            await self._op_status(req, writer)
        elif op == "drain":
            await self._op_drain(writer)
        else:
            await self._send(writer, response(
                "error", message=f"unknown op {op!r}"))

    async def _send(self, writer, obj: dict) -> None:
        writer.write(encode(obj))
        await writer.drain()

    # ------------------------------------------------------------------- ops
    async def _op_submit(self, req: dict, writer) -> None:
        reason = validate_submit(req)
        if reason is None:
            reason = admission_error(req["kind"], req.get("params") or {})
        if reason is not None:
            self.stats.rejected_invalid += 1
            await self._send(writer, response(
                "rejected", reason="invalid", message=reason))
            return
        if self._draining:
            self.stats.rejected_draining += 1
            await self._send(writer, response(
                "rejected", reason="draining",
                message="service is draining; not admitting new jobs"))
            return
        if self._pending >= self.queue_bound:
            self.stats.rejected_busy += 1
            await self._send(writer, response(
                "rejected", reason="busy", queued=self._pending,
                bound=self.queue_bound,
                message=f"admission queue full "
                        f"({self._pending}/{self.queue_bound} jobs "
                        f"in flight); retry after a job completes"))
            return

        record = JobRecord(
            id=f"job-{next_job_id(self.state_dir):06d}",
            kind=req["kind"], params=req.get("params") or {},
            deadline=req.get("deadline"))
        job = _Job(record, self.state_dir / "jobs" / record.id)
        record.save(job.dir)
        self.jobs[record.id] = job
        self._pending += 1
        self.stats.admitted += 1
        await self._queue.put(job)
        await self._send(writer, response(
            "accepted", job=record.id, queued=self._pending))
        if req.get("wait", True):
            await job.done.wait()
            await self._send(writer, self._result_event(job))

    def _result_event(self, job: _Job) -> dict:
        report = job.report or {}
        return response(
            "result", job=job.record.id, state=job.record.state,
            ok=bool(report.get("ok")), text=report.get("text", ""),
            failures=report.get("failures", []),
            attempts=job.record.attempts, error=job.record.error)

    async def _op_status(self, req: dict, writer) -> None:
        job_id = req.get("job")
        if job_id is not None:
            job = self.jobs.get(job_id)
            if job is None:
                await self._send(writer, response(
                    "error", message=f"unknown job {job_id!r}"))
                return
            await self._send(writer, self._result_event(job))
            return
        jobs = [{"id": j.record.id, "kind": j.record.kind,
                 "state": j.record.state, "attempts": j.record.attempts}
                for _, j in sorted(self.jobs.items())]
        await self._send(writer, response(
            "status", jobs=jobs, draining=self._draining,
            breaker_open=self.breaker.open_cells(),
            stats=self._stats_snapshot()))

    async def _op_drain(self, writer) -> None:
        self.begin_drain()
        await self._drained.wait()
        await self._send(writer, response(
            "drained", stats=self._stats_snapshot()))

    def _stats_snapshot(self) -> dict:
        self.stats.breaker_opened = self.breaker.opened_total
        self.stats.breaker_half_open_probes = self.breaker.half_open_probes
        self.stats.breaker_closed = self.breaker.closed_total
        return self.stats.snapshot()

    # ------------------------------------------------------------------ jobs
    async def _consume(self) -> None:
        while True:
            job = await self._queue.get()
            if job is None:
                return
            try:
                await self._run_job(job)
            except Exception as err:  # noqa: BLE001 — one job, not the daemon
                job.record.state = "failed"
                job.record.error = f"{type(err).__name__}: {err}"
                job.record.save(job.dir)
            self._pending -= 1
            self._count_terminal(job.record.state)
            job.done.set()

    def _count_terminal(self, state: str) -> None:
        if state == "done":
            self.stats.completed += 1
        elif state == "deadline":
            self.stats.deadline_expired += 1
        else:
            self.stats.failed += 1

    def _read_report(self, job: _Job) -> Optional[dict]:
        try:
            return json.loads(
                (job.dir / "report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None

    async def _run_job(self, job: _Job) -> None:
        record = job.record
        record.state = "running"
        record.attempts += 1
        record.save(job.dir)
        # A report from a previous daemon life (killed after the job's last
        # act) is adopted as-is.
        report = self._read_report(job)
        if report is None:
            remaining = None
            if record.deadline is not None:
                remaining = max(job.admitted_mono + record.deadline
                                - time.monotonic(), 0.0)
            report = await asyncio.to_thread(
                run_job, job.dir, record.kind, record.params, self.runtime,
                remaining, self._breaker_skips(record))
        job.report = report
        self._account_breaker(report)
        record.state = report.get("state", "failed")
        record.error = report.get("error")
        record.save(job.dir)

    def _breaker_skips(self, record: JobRecord) -> list[str]:
        skip: list[str] = []
        for cell, jkeys in sorted(
                breaker_cells(record.kind, record.params).items()):
            if not self.breaker.allow(cell):
                skip.extend(jkeys)
        return sorted(skip)

    def _account_breaker(self, report: dict) -> None:
        for failure in report.get("failures", ()):
            kind = failure.get("kind")
            if kind in TRIPPING_KINDS:
                self.breaker.record_failure(cell_key(failure["key"]), kind)
        for jkey in report.get("completed", ()):
            self.breaker.record_success(cell_key(jkey))
