"""Campaign service: bench/verify/fuzz as queued jobs behind a daemon.

``python -m repro serve`` runs :class:`CampaignService` — an asyncio
Unix-socket daemon with bounded admission, per-request deadlines, a
per-configuration circuit breaker, crash-safe job journaling, and graceful
drain.  ``repro submit`` / ``repro status`` / ``repro drain`` are thin
clients over the same newline-delimited JSON protocol
(:mod:`repro.service.protocol`).  See ``docs/service.md``.
"""

from repro.service.breaker import CircuitBreaker
from repro.service.client import ServiceError, drain, status, submit
from repro.service.daemon import CampaignService
from repro.service.protocol import JOB_KINDS, SERVICE_SCHEMA, TERMINAL_STATES

__all__ = [
    "CampaignService", "CircuitBreaker", "JOB_KINDS", "SERVICE_SCHEMA",
    "ServiceError", "TERMINAL_STATES", "drain", "status", "submit",
]
