"""Wire protocol of the campaign service: newline-delimited JSON.

One connection carries one request — a single JSON object on one line —
followed by one or more response lines, each again a single JSON object.
Every response carries ``"schema": "repro-service/1"`` and an ``"event"``
discriminator.  The protocol is deliberately line-oriented so ``nc -U`` and
a five-line client are both first-class citizens.

Requests
--------

* ``{"op": "submit", "kind": "bench"|"verify"|"fuzz", "params": {...},
  "deadline": SECS?, "wait": bool?}`` — enqueue a campaign job.  The
  immediate response is ``accepted`` (with the job id) or ``rejected``
  (with a structured reason: ``busy``, ``draining``, ``invalid``).  With
  ``wait`` (the default) the connection then stays open until the job
  reaches a terminal state, which arrives as a ``result`` event carrying
  the full report text.  A client that disconnects mid-wait abandons only
  the *stream* — the job itself runs to a terminal state regardless.
* ``{"op": "status", "job": ID?}`` — one ``status`` response: every job's
  lifecycle state plus the ``repro-service/1`` counters; with ``job``, that
  job's detail including the report text when terminal.
* ``{"op": "drain"}`` — begin a graceful drain (stop admitting, finish
  what is queued and running), then one ``drained`` response with the
  summary counters.  The daemon exits after responding.

Job lifecycle states
--------------------

``queued`` → ``running`` → one of the terminal states ``done`` (report
clean), ``failed`` (report carries errors, or the job raised), ``deadline``
(the per-request budget expired; the report is a structured partial).
Rejected submissions never become jobs at all — that is what keeps the
admission queue's memory bounded.
"""

from __future__ import annotations

import json
from typing import Optional

#: schema tag on every response line and on the service counters section
SERVICE_SCHEMA = "repro-service/1"

#: campaign kinds the service accepts
JOB_KINDS = ("bench", "verify", "fuzz")

#: terminal job lifecycle states (see module docstring)
TERMINAL_STATES = frozenset({"done", "failed", "deadline"})

#: parameters each kind accepts, mirrored from the CLI flags of the
#: corresponding command — anything else is rejected as ``invalid`` at
#: admission, never half-run
ALLOWED_PARAMS = {
    "bench": frozenset({"workloads"}),
    "verify": frozenset({"workloads", "models", "seeds", "seed_start"}),
    "fuzz": frozenset({"count", "seed_start", "plans", "models",
                       "backends"}),
}


def encode(obj: dict) -> bytes:
    """One response/request as a wire line (sorted keys: deterministic)."""
    return (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


def decode(line: bytes) -> dict:
    """Parse one wire line; raises ``ValueError`` on garbage (the caller
    answers with a structured ``error`` event, never a traceback)."""
    obj = json.loads(line.decode("utf-8", errors="replace"))
    if not isinstance(obj, dict):
        raise ValueError("request must be a JSON object")
    return obj


def response(event: str, **fields) -> dict:
    return {"schema": SERVICE_SCHEMA, "event": event, **fields}


def validate_submit(req: dict) -> Optional[str]:
    """One-line reason a submit request is malformed, or ``None``.

    Validation happens entirely at admission: a job that reaches the queue
    can only fail by *running*, so no job is ever queued that was dead on
    arrival.
    """
    kind = req.get("kind")
    if kind not in JOB_KINDS:
        return (f"unknown kind {kind!r}; expected one of "
                f"{', '.join(JOB_KINDS)}")
    params = req.get("params", {})
    if not isinstance(params, dict):
        return "params must be a JSON object"
    unknown = sorted(set(params) - ALLOWED_PARAMS[kind])
    if unknown:
        return (f"unknown {kind} parameter(s): {', '.join(unknown)}; "
                f"allowed: {', '.join(sorted(ALLOWED_PARAMS[kind]))}")
    for key in ("workloads", "models", "backends"):
        value = params.get(key)
        if value is not None and (not isinstance(value, list) or not all(
                isinstance(v, str) for v in value)):
            return f"{key} must be a list of strings"
    for key in ("seeds", "seed_start", "count", "plans"):
        value = params.get(key)
        if value is not None and (not isinstance(value, int)
                                  or isinstance(value, bool)):
            return f"{key} must be an integer"
    deadline = req.get("deadline")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) or isinstance(
                deadline, bool) or deadline <= 0:
            return "deadline must be a positive number of seconds"
    return None
