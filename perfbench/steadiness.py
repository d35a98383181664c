#!/usr/bin/env python3
"""Steadiness evidence: run the benchmark over many seeds, one run at a
time, and record each metric's median and quartiles, calibrated and raw.

    python3 perfbench/steadiness.py --seeds 1-10 --seconds 20 \\
        --output perfbench/STEADINESS.json

Run from the root of a checkout.  For each workload and end-to-end metric
it records the values, their median, first and third quartile
(``statistics.quantiles(values, n=4)``) and the quartile distance as a
share of the median; next to ``setup_s`` and ``run_s`` it records the same
for the raw (uncalibrated) seconds, and each run's median probe time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: calibrated metric -> the raw seconds the same run measured
RAW = {"setup_s": "host.raw_setup_s", "run_s": "host.raw_run_s"}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    detail = next(json.loads(line[len("perfbench: "):]) for line in lines
                  if line.startswith("perfbench: {"))
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} "
                         f"failed items\n{proc.stderr}")
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "detail": detail}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="paper-warm,verify,fuzz")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--output", type=Path)
    args = parser.parse_args()
    report = {"seconds": args.seconds, "seeds": _seeds(args.seeds),
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in report["seeds"]:
            runs.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: "
                  + json.dumps(runs[-1]["metrics"]), flush=True)
        rows = {}
        for name in runs[0]["metrics"]:
            rows[name] = summarize([r["metrics"][name] for r in runs])
            if name in RAW:
                rows[name]["raw"] = summarize(
                    [r["detail"][RAW[name]] for r in runs])
        rows["host.probe_s"] = [r["detail"]["host.probe_s"] for r in runs]
        report["workloads"][workload] = rows
        for name, row in rows.items():
            if isinstance(row, dict):
                raw = row.get("raw", {}).get("spread")
                print(f"  {name}: median {row['median']:.4f} spread "
                      f"{row['spread']:.4f}"
                      + (f" (raw {raw:.4f})" if raw is not None else ""))
    if args.output:
        args.output.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
