"""Job records, admission checks, breaker plumbing, and the job entry."""

import json

import pytest

from repro.service.daemon import CampaignService
from repro.service.jobs import (
    JobRecord, admission_error, breaker_cells, cell_key, load_jobs,
    next_job_id, run_job,
)


# ------------------------------------------------------------- job records
def test_cell_key_is_the_configuration_axis():
    assert cell_key("awk/squashing") == "squashing"
    assert cell_key("grep/boost1") == "boost1"
    assert cell_key("squashing") == "squashing"


def test_job_record_round_trips(tmp_path):
    record = JobRecord(id="job-000007", kind="verify",
                       params={"workloads": ["awk"]}, deadline=12.5,
                       state="running", attempts=2, error=None)
    record.save(tmp_path)
    loaded = JobRecord.load(tmp_path)
    assert loaded == record


def test_job_record_load_survives_garbage(tmp_path):
    (tmp_path / "job.json").write_text("not json", encoding="utf-8")
    assert JobRecord.load(tmp_path) is None
    assert JobRecord.load(tmp_path / "missing") is None


def test_next_job_id_skips_existing_dirs(tmp_path):
    assert next_job_id(tmp_path) == 1
    (tmp_path / "jobs" / "job-000004").mkdir(parents=True)
    (tmp_path / "jobs" / "not-a-job").mkdir()
    assert next_job_id(tmp_path) == 5


def test_load_jobs_in_admission_order(tmp_path):
    for n in (3, 1):
        job_dir = tmp_path / "jobs" / f"job-{n:06d}"
        job_dir.mkdir(parents=True)
        JobRecord(id=f"job-{n:06d}", kind="bench").save(job_dir)
    assert [r.id for r in load_jobs(tmp_path)] == ["job-000001",
                                                   "job-000003"]


# --------------------------------------------------------------- admission
def test_admission_rejects_unknown_workloads_and_models():
    assert "unknown workload" in admission_error(
        "bench", {"workloads": ["awk", "nosuch"]})
    assert admission_error("bench", {"workloads": ["awk"]}) is None
    assert admission_error("verify", {"models": ["nosuch"]}) is not None
    assert admission_error(
        "verify", {"workloads": ["awk"], "models": ["squashing"]}) is None
    assert admission_error("fuzz", {"models": ["nosuch"]}) is not None
    assert admission_error("fuzz", {"count": 3}) is None


@pytest.mark.parametrize("kind, params, fragment", [
    ("verify", {"seeds": 0}, "--seeds must be at least 1"),
    ("verify", {"seeds": -2}, "--seeds must be at least 1"),
    ("fuzz", {"count": 0}, "--count must be at least 1"),
    ("fuzz", {"plans": 0}, "--plans must be at least 1"),
])
def test_admission_rejects_vacuous_campaigns(kind, params, fragment):
    # A campaign that would run nothing must not end `done`.
    assert fragment in admission_error(kind, params)


def test_breaker_cells_map_configs_to_journal_keys():
    cells = breaker_cells("verify", {"workloads": ["awk", "grep"],
                                     "models": ["squashing"]})
    assert cells == {"squashing": ["awk/squashing", "grep/squashing"]}
    bench = breaker_cells("bench", {"workloads": ["awk"]})
    assert all(keys == [f"awk/{config}"] for config, keys in bench.items())
    assert len(bench) >= 2  # one cell per bench config column
    assert breaker_cells("fuzz", {"count": 5}) == {}  # never gated


# ----------------------------------------------------- daemon breaker hooks
def _service(tmp_path):
    return CampaignService(str(tmp_path / "svc.sock"),
                           str(tmp_path / "state"), banner=False)


def test_breaker_skips_cover_every_key_of_an_open_cell(tmp_path):
    service = _service(tmp_path)
    for _ in range(service.breaker.threshold):
        service.breaker.record_failure("squashing", "timeout")
    record = JobRecord(id="job-000001", kind="verify",
                       params={"workloads": ["awk", "grep"],
                               "models": ["squashing", "boost1"]})
    assert service._breaker_skips(record) == ["awk/squashing",
                                              "grep/squashing"]


def test_account_breaker_trips_on_harness_failures_only(tmp_path):
    service = _service(tmp_path)
    report = {"failures": [{"key": "awk/squashing", "kind": "timeout"},
                           {"key": "awk/boost1", "kind": "error"}],
              "completed": ["grep/boost1"]}
    for _ in range(2):  # threshold 3 = one report short of opening
        service._account_breaker(report)
    assert service.breaker.state("squashing") == "closed"
    service._account_breaker(report)
    assert service.breaker.state("squashing") == "open"
    assert service.breaker.state("boost1") == "closed"  # error + success


# --------------------------------------------------------------- job entry
def test_run_job_with_every_cell_skipped_is_instant(tmp_path):
    # An all-open breaker degrades the whole job to structured skips —
    # no compilation, no simulation, just the report.
    returned = run_job(tmp_path, "verify",
                       {"workloads": ["awk"], "models": ["squashing"],
                        "seeds": 1},
                       {"jobs": 1, "no_cache": True},
                       skip=["awk/squashing"])
    report = json.loads((tmp_path / "report.json").read_text())
    assert returned == report
    assert report["state"] == "failed"
    assert not report["ok"]
    assert report["completed"] == []
    kinds = {f["kind"] for f in report["failures"]}
    assert kinds == {"breaker"}
    assert "circuit breaker open" in report["text"] \
        or "skipped" in report["text"]


def test_run_job_reports_exceptions_instead_of_raising(tmp_path):
    # Admission normally prevents this, but a job must never end in a
    # traceback with no report — the daemon thread would lose the job.
    run_job(tmp_path, "verify", {"models": ["nosuch"]},
            {"jobs": 1, "no_cache": True})
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["state"] == "failed"
    assert "nosuch" in report["error"]
