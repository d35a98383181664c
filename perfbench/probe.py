"""Host-speed probe: a fixed amount of pure-Python work, timed.

The benchmark times this probe just before and just after every item and
divides the item's time by the mean of the two, so that the reported
seconds are reference-host seconds rather than whatever speed the shared
host happens to run at in that window.

The work is interpreter dispatch plus integer arithmetic plus random reads
over an 8 MiB buffer.  The reads make the probe feel contention for the
shared caches and memory the way the simulators' large heaps do: on the
reference host a probe without them tracked the workloads' drift worse
(see README.md).

The probe must measure the host, not the program under test, so:

* it imports nothing from ``repro``;
* it allocates nothing the cyclic garbage collector tracks — its loop
  builds only ints and its buffer is a ``bytes`` object made at import —
  and it runs with ``gc`` paused, so the size of the program's heap can
  neither trigger a collection inside it nor slow it.
"""

from __future__ import annotations

import gc
import time

#: probe seconds on the reference host (a 2-vCPU x86-64 VM running
#: CPython 3.11); calibrated time = raw time * PROBE_REF / probe time
PROBE_REF = 0.015

#: loop trips per probe call; sized so one call takes about PROBE_REF
PROBE_TRIPS = 30_000

_BUF_BITS = 23
_BUF = bytes(range(256)) * (1 << (_BUF_BITS - 8))


def _spin(trips: int) -> int:
    buf = _BUF
    mask = (1 << _BUF_BITS) - 1
    x = 1
    acc = 0
    for _ in range(trips):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc = (acc + buf[x & mask] + buf[(x >> 7) & mask]) & 0xFFFFFFFF
    return acc


def probe(trips: int = PROBE_TRIPS) -> float:
    """Seconds one fixed probe takes on this host, right now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _spin(trips)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
