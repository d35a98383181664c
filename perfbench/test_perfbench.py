"""Tests of the benchmark itself: failures are counted, the probe measures
the host only, and the metrics match BENCHMARK.json.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
from pathlib import Path

from layers import PER_LAYER_UNITS, Tracer
from probe import probe
from run import END_TO_END_UNITS
from suite import ROOT, Clock, Fuzz, PaperWarm, Tally

HERE = Path(__file__).resolve().parent


def test_sabotaged_cell_counts_as_failed(tmp_path):
    from repro.workloads import get

    paper = PaperWarm(seconds=1, seed=1)
    paper.workloads = [get("grep")]
    clock = Clock()
    paper.setup(clock, tmp_path)

    clean = Tally()
    paper.run(clock, clean)
    assert (clean.attempted, clean.failed) == (14, 0)

    paper.sabotage = "grep"
    broken = Tally()
    paper.run(clock, broken)
    assert broken.attempted == 14
    assert broken.failed == 13  # every cell but the scalar one
    assert all(note.startswith("grep/") for note in broken.notes)


def test_sabotaged_fuzz_program_counts_as_failed():
    fuzz = Fuzz(seconds=1, seed=1)
    fuzz.count = 1
    fuzz.sabotage = "drop-print"
    tally = Tally()
    fuzz.run(Clock(), tally)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_probe_imports_nothing_from_repro():
    code = ("import sys; import probe; probe.probe(1000); "
            "print(sorted(m for m in sys.modules "
            "if m == 'repro' or m.startswith('repro.')))")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_probe_runs_no_gc_pass():
    heap = [[i] for i in range(50_000)]  # tracked objects a pass would walk
    passes = []

    def on_gc(phase, info):
        if phase == "start":
            passes.append(info)

    thresholds = gc.get_threshold()
    gc.set_threshold(1, 1, 1)
    gc.callbacks.append(on_gc)
    try:
        probe(20_000)
        assert gc.isenabled()
    finally:
        gc.callbacks.remove(on_gc)
        gc.set_threshold(*thresholds)
    assert passes == []
    del heap


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner, instrs=5)
    tracer.close(outer)
    times = tracer.self_times()
    (o0, o1), (i0, i1) = [(s[4], s[5]) for s in tracer.spans]
    assert times[("setup", "inner")][1:] == [5, 1]
    assert abs(times[("setup", "outer")][0]
               - ((o1 - o0) - (i1 - i0)) / 1e9) < 1e-12


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == PER_LAYER_UNITS
