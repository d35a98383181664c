#!/usr/bin/env python3
"""Benchmark entry point: one workload, one process, calibrated timings.

    python3 perfbench/run.py --workload paper-warm --seed 1 --seconds 15 \\
        --trace 0

Run from a checkout of the repository (the program is imported from
``src/``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Scratch files (private compile caches) live under ``.perfbench/`` in the
checkout and are removed at exit; a traced run also leaves its spans there
as ``trace-<workload>-<seed>.json`` in Chrome trace-event format.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

from suite import ROOT, WORKLOADS, Clock, Tally

#: set-up runs per benchmark run; set-up time is their median
SETUP_REPS = 3
#: the seed used when none is given
DEFAULT_SEED = 1
#: end-to-end metric -> unit, as BENCHMARK.json declares them
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def _import_program() -> None:
    """Import the whole stack the workloads use (a timed set-up item)."""
    import repro.harness.experiments  # noqa: F401
    import repro.harness.report  # noqa: F401
    import repro.verify.campaign  # noqa: F401
    import repro.verify.fuzz.fuzzcampaign  # noqa: F401
    from repro.workloads import all_workloads

    all_workloads()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def measure(args: argparse.Namespace, scratch: Path) -> dict:
    clock = Clock()
    clock.item("import", _import_program)
    import_cal, import_raw = clock.cal, clock.raw
    workload = WORKLOADS[args.workload](args.seconds, args.seed)

    setups = []
    for rep in range(SETUP_REPS):
        if rep:
            shutil.rmtree(scratch / f"setup{rep - 1}", ignore_errors=True)
        clock.reset()
        workload.setup(clock, scratch / f"setup{rep}")
        setups.append((clock.cal, clock.raw))
    clock.reset()
    tally = Tally()
    workload.run(clock, tally)
    run_cal, run_raw = clock.cal, clock.raw
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.held_out(tally, args.seed)

    setup_cal = import_cal + statistics.median(c for c, _ in setups)
    setup_raw = import_raw + statistics.median(r for _, r in setups)
    host = {"host.probe_s": statistics.median(clock.probes),
            "host.raw_setup_s": setup_raw, "host.raw_run_s": run_raw}
    print("perfbench: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "setup_s": setup_cal,
        "run_s": run_cal, "peak_rss_mb": peak_rss_mb, **host}))

    if not args.trace:
        values = {"setup_s": setup_cal, "run_s": run_cal,
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: (values[name], unit)
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        from layers import (
            PER_LAYER_UNITS, Tracer, layer_metrics, phase_shares, traced,
        )

        tracer = Tracer()
        clock.tracer = tracer
        with traced(tracer):
            clock.reset()
            workload.setup(clock, scratch / "traced")
            tracer.phase = "run"
            clock.reset()
            traced_tally = Tally()
            workload.run(clock, traced_tally)
        clock.tracer = None
        tally.attempted += traced_tally.attempted
        tally.failed += traced_tally.failed
        tally.notes += traced_tally.notes
        path = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(path, f"perfbench {args.workload} seed {args.seed}")
        print("perfbench: phase shares " + json.dumps(phase_shares(tracer)))
        values = layer_metrics(tracer, _dir_bytes(scratch / "traced"))
        for name in ("verify.plans", "fuzz.comparisons"):
            values[name] = traced_tally.counts[name]
        values.update(host)
        values["trace.overhead"] = clock.cal / run_cal
        metrics = {name: (values[name], unit)
                   for name, unit in PER_LAYER_UNITS.items()}

    for note in tally.notes[:20]:
        print(f"perfbench: FAILED {note}", file=sys.stderr)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
