"""Job state and the in-process job entry of the campaign service.

A *job* is one queued campaign (bench, verify, or fuzz).  Everything the
daemon knows about a job lives under its own directory,
``<state-dir>/jobs/<id>/``:

* ``job.json`` — the admission record (kind, params, deadline) plus the
  current lifecycle state, rewritten atomically on every transition;
* ``journal`` — the campaign's crash-safe checkpoint journal
  (:class:`repro.harness.resilience.Journal`), written as cells complete.
  A daemon killed mid-job leaves it behind; ``serve --resume`` re-runs the
  job against it, so the final report converges to the same bytes however
  many daemon lives the job took;
* ``report.json`` — the terminal report, written atomically as the job's
  very last act.  Its presence *is* the signal that the job's computation
  finished; the daemon never parses a half-written one.

:func:`run_job` runs a job on a worker thread of the daemon, through
the CLI's own campaign code (:func:`repro.cli.run_campaign`): the same
construction, journal fingerprint and supervised pool as ``repro
bench/verify/fuzz``.  Under ``--jobs N``, a timeout, a deadline or
chaos, the pool's worker processes do the heavy work and enforce the
limits; otherwise the thread runs the campaign itself, as the CLI does at
``--jobs 1``.  Either way only the thread writes the journal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.harness.fsutil import atomic_write_json

JOB_SCHEMA = "repro-service-job/1"
REPORT_SCHEMA = "repro-service-report/1"


def cell_key(jkey: str) -> str:
    """The circuit-breaker cell of a journal key.

    Journal keys are ``workload/config`` (bench) or ``workload/model``
    (verify); the breaker tracks the *configuration* axis — the expensive
    one that makes workers time out — so the cell is the last component.
    """
    return jkey.rsplit("/", 1)[-1]


@dataclass
class JobRecord:
    """The durable admission record of one job (``job.json``)."""

    id: str
    kind: str
    params: dict = field(default_factory=dict)
    deadline: Optional[float] = None  # seconds from admission, None = none
    state: str = "queued"  # queued | running | done | failed | deadline
    attempts: int = 0  # job starts: 1, plus 1 per daemon life resuming it
    error: Optional[str] = None

    def save(self, job_dir: Path) -> None:
        atomic_write_json(job_dir / "job.json", {
            "schema": JOB_SCHEMA, "id": self.id, "kind": self.kind,
            "params": self.params, "deadline": self.deadline,
            "state": self.state, "attempts": self.attempts,
            "error": self.error,
        })

    @classmethod
    def load(cls, job_dir: Path) -> Optional["JobRecord"]:
        try:
            record = json.loads(
                (job_dir / "job.json").read_text(encoding="utf-8"))
            return cls(id=record["id"], kind=record["kind"],
                       params=record.get("params") or {},
                       deadline=record.get("deadline"),
                       state=record.get("state", "queued"),
                       attempts=int(record.get("attempts", 0)),
                       error=record.get("error"))
        except (OSError, ValueError, KeyError, TypeError):
            return None


def load_jobs(state_dir: Path) -> list[JobRecord]:
    """Every job record under ``state_dir``, in admission (id) order."""
    jobs_dir = Path(state_dir) / "jobs"
    if not jobs_dir.is_dir():
        return []
    records = []
    for job_dir in sorted(jobs_dir.iterdir()):
        record = JobRecord.load(job_dir)
        if record is not None:
            records.append(record)
    return records


def next_job_id(state_dir: Path) -> int:
    """First unused numeric job id (ids are ``job-%06d``)."""
    highest = 0
    jobs_dir = Path(state_dir) / "jobs"
    if jobs_dir.is_dir():
        for job_dir in jobs_dir.iterdir():
            name = job_dir.name
            if name.startswith("job-") and name[4:].isdigit():
                highest = max(highest, int(name[4:]))
    return highest + 1


# -------------------------------------------------------------- admission
def admission_error(kind: str, params: dict) -> Optional[str]:
    """Reject bad campaign parameters at admission, not mid-job.

    The campaign is built exactly as the job would build it, so every
    construction error (unknown workload or model, ``seeds``/``count``
    below 1, …) is a structured ``rejected: invalid`` rather than a queued
    job that can only fail.
    """
    from repro.cli import CAMPAIGNS, campaign_args

    try:
        CAMPAIGNS[kind](campaign_args(kind, params))
    except ValueError as err:
        return str(err)
    return None


def breaker_cells(kind: str, params: dict) -> dict[str, list[str]]:
    """Configuration cell -> the job's journal keys under that cell.

    This is the daemon's pre-flight map: before running a job it asks the
    breaker about each cell and turns refused cells into the job's
    ``skip`` list.  Fuzz jobs have no configuration axis a breaker could
    reasonably isolate (every program is new work), so they are not gated.
    """
    from repro.workloads import all_workloads

    names = [w.name for w in all_workloads()]
    if kind == "bench":
        from repro.harness.experiments import BENCH_CONFIG_KEYS
        workloads = params.get("workloads") or names
        configs = BENCH_CONFIG_KEYS
    elif kind == "verify":
        from repro.verify.campaign import DEFAULT_MODELS
        workloads = params.get("workloads") or sorted(names)
        configs = params.get("models") or list(DEFAULT_MODELS)
    else:
        return {}
    return {config: [f"{w}/{config}" for w in workloads]
            for config in configs}


# -------------------------------------------------------------------- jobs
def run_job(job_dir, kind: str, params: dict,
            runtime: Optional[dict] = None,
            deadline: Optional[float] = None, skip=()) -> dict:
    """Run one job through the CLI's campaign code; write and return its
    report.

    ``runtime`` carries the daemon's supervision settings by flag dest
    (``jobs``, ``timeout``, ``retries``, ``backoff``, ``chaos``,
    ``cache_dir``, ``no_cache``).  ``deadline`` is the job's *remaining*
    budget in seconds: it becomes the batch deadline of the
    :class:`SupervisionPolicy`, so expiry degrades every unfinished cell to
    a structured ``kind: deadline`` failure.  ``skip`` lists journal keys
    whose circuit breaker is open; they degrade to deterministic skips and
    are never journaled.

    ``report.json`` is written atomically as the last act.  Any exception
    becomes a terminal ``failed`` report: the request was validated at
    admission, so an exception here is deterministic and retrying it would
    only waste time.
    """
    from repro.cli import CAMPAIGNS, campaign_args, run_campaign

    job_dir = Path(job_dir)
    try:
        args = campaign_args(kind, params, runtime)
        args.journal, args.resume = str(job_dir / "journal"), True
        campaign = CAMPAIGNS[kind](args)
        result = run_campaign(kind, campaign, args, deadline=deadline,
                              skip=skip)
        # bench keys its failures by (workload, config); the rest by jkey
        failures = sorted(
            ({"key": key if isinstance(key, str) else "/".join(key),
              **record} for key, record in campaign.failures.items()),
            key=lambda f: f["key"])
        failed = {f["key"] for f in failures}
        completed = [jkey for jkeys in breaker_cells(kind, params).values()
                     for jkey in jkeys if jkey not in failed]
        if any(f["kind"] == "deadline" for f in failures):
            state = "deadline"
        else:
            state = "done" if result.ok else "failed"
        report = _report(state, ok=result.ok, text=result.format(),
                         failures=failures, completed=completed)
    except Exception as err:  # noqa: BLE001 — the report IS the error path
        report = _report("failed", ok=False, text="",
                         error=f"{type(err).__name__}: {err}")
    atomic_write_json(job_dir / "report.json", report)
    return report


def _report(state: str, ok: bool, text: str, failures=None, completed=None,
            error: Optional[str] = None) -> dict:
    return {"schema": REPORT_SCHEMA, "state": state, "ok": ok,
            "text": text, "failures": failures or [],
            "completed": completed or [], "error": error}
