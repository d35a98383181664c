"""The benchmark's workloads and the calibrated clock that times them.

Every workload is closed loop with one client: items run one at a time in
this process, each through :meth:`Clock.item`, and the next starts when the
previous one returns.  Each workload has a set-up (repeated by run.py,
which reports the median), a measured run, and a correctness check on
every item.

The timed inputs are the same for every ``--seed``.  Measured here, the
host cost of one verify bucket moves up to 10x with its fault-plan seeds
(a trap that fires early cuts the run short) and one fuzz program's cost
has a coefficient of variation of 0.8, so seed-drawn timed inputs spread
run time by 20-30% between seeds.  The seed instead draws a held-out
slice of verify plans and fuzz programs that is run and checked after the
measured run, untimed; see README.md.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

from probe import PROBE_REF, probe

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "benchmarks" / "BENCH_stats_baseline.json"

#: seeds drawn from ``--seed`` start here, clear of the low seeds the timed
#: inputs use (the ``repro verify``/``repro fuzz`` defaults start at 0)
HELD_OUT_BASE = 1_000_000


class Clock:
    """Times items between host-speed probes.

    An item's calibrated time is its raw ``perf_counter`` time times
    ``PROBE_REF`` over the mean of the probe just before and just after it,
    so it reads in reference-host seconds.  ``raw`` and ``cal`` accumulate
    until :meth:`reset`.
    """

    def __init__(self) -> None:
        for _ in range(3):  # warm the probe's code path
            self._last = probe()
        self.probes = [self._last]
        self.tracer = None
        self.raw = 0.0
        self.cal = 0.0

    def reset(self) -> None:
        self.raw = self.cal = 0.0

    def item(self, kind: str, fn, *args, **kwargs):
        before = self._last
        tracer = self.tracer
        if tracer is not None:
            tracer.item += 1
            span = tracer.open(f"item.{kind}")
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            raw = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
            self._last = after = probe()
            self.probes.append(after)
            self.raw += raw
            self.cal += raw * PROBE_REF * 2 / (before + after)


class Tally:
    """Items checked and items failed, with a note per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.counts: Counter = Counter()

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


class PaperWarm:
    """Re-render the paper's tables from a warm compile cache.

    Set-up compiles every static configuration of :data:`PROGRAMS` into a
    fresh private cache, one item per (program, config).  The run renders
    the bench report out of that cache: one ``Lab.cell`` item per program
    and bench configuration, then the render.  The seed does not apply:
    the programs use the registry's fixed train and eval inputs.
    """

    name = "paper-warm"
    #: both are in the stats baseline, so every cell is checked cycle for
    #: cycle.  All nine programs take about 35 s to compile on the
    #: reference host, too long to repeat set-up within one run.
    PROGRAMS = ("grep", "compress")
    #: reference seconds of one pass over PROGRAMS
    PASS_SECONDS = 7.0
    #: a workload whose cells ``Lab`` strangles (tests set it)
    sabotage = None

    def __init__(self, seconds: int, seed: int) -> None:
        from repro.workloads import get

        self.passes = max(1, round(seconds / self.PASS_SECONDS))
        self.workloads = [get(name) for name in self.PROGRAMS]
        self.cache = None

    def setup(self, clock: Clock, cache_dir: Path) -> None:
        from repro.harness.cache import CompileCache
        from repro.harness.experiments import CONFIGS

        self.cache = CompileCache(cache_dir)
        for w in self.workloads:
            for config in CONFIGS.values():
                clock.item("compile", self.cache.compile_minic, w.source,
                           config, w.train)

    def run(self, clock: Clock, tally: Tally) -> None:
        from repro.harness.experiments import BENCH_CONFIG_KEYS, Lab
        from repro.harness.report import render_all

        baseline = json.loads(BASELINE.read_text())["workloads"]
        for _ in range(self.passes):
            lab = Lab(workloads=self.workloads, cache=self.cache,
                      sabotage=self.sabotage)
            for w in self.workloads:
                for key in BENCH_CONFIG_KEYS:
                    result = clock.item("cell", lab.cell, w.name, key)
                    cell = f"{w.name}/{key}"
                    if result is None:
                        tally.check(False, f"{cell}: {lab.errors[(w.name, key)]}")
                        continue
                    want = baseline.get(w.name, {}).get(key)
                    got = result.cycle_count
                    tally.check(want is None or want["sim"]["cycles"] == got,
                                f"{cell}: {got} cycles, baseline "
                                f"{want and want['sim']['cycles']}")
            clock.item("render", render_all, lab)

    def held_out(self, tally: Tally, seed: int) -> None:
        """The seed does not apply to this workload."""


class Verify:
    """The differential fault-injection campaign, one bucket per item.

    Set-up prepares (optimize, allocate, profile) every program into a
    fresh private cache.  The run is one ``VerifyCampaign`` per (program,
    model) bucket over fixed plan seeds; the held-out slice runs one plan
    per program from the seed, under one model the seed picks.
    """

    name = "verify"
    #: reference seconds of one plan seed over all 36 buckets
    ROUND_SECONDS = 5.0

    def __init__(self, seconds: int, seed: int) -> None:
        from repro.workloads import all_workloads

        self.seeds = max(1, round(seconds / self.ROUND_SECONDS))
        self.workloads = all_workloads()
        self.cache = None

    def setup(self, clock: Clock, cache_dir: Path) -> None:
        from repro.harness.cache import CompileCache
        from repro.verify.campaign import CAMPAIGN_CONFIGS, DEFAULT_MODELS

        self.cache = CompileCache(cache_dir)
        config = CAMPAIGN_CONFIGS[DEFAULT_MODELS[0]]
        for w in self.workloads:
            clock.item("prepare", self.cache.prepare_ir, w.source, config,
                       w.train)

    def _bucket(self, tally: Tally, name: str, model: str, seeds: int,
                seed_start: int, clock: Clock | None = None) -> None:
        from repro.verify.campaign import VerifyCampaign

        campaign = VerifyCampaign(workload_names=[name], model_keys=[model],
                                  seeds=seeds, seed_start=seed_start,
                                  cache=self.cache)
        summary = (clock.item("bucket", campaign.run) if clock is not None
                   else campaign.run())
        tally.counts["verify.plans"] += summary.runs
        tally.check(summary.ok, f"verify {name}/{model} seeds "
                    f"{seed_start}..{seed_start + seeds - 1}: "
                    f"{len(summary.divergences)} divergences, "
                    f"{len(summary.oracle_errors)} oracle errors")

    def run(self, clock: Clock, tally: Tally) -> None:
        from repro.verify.campaign import DEFAULT_MODELS

        for w in self.workloads:
            for model in DEFAULT_MODELS:
                self._bucket(tally, w.name, model, self.seeds, 0, clock)

    def held_out(self, tally: Tally, seed: int) -> None:
        from repro.verify.campaign import DEFAULT_MODELS

        model = DEFAULT_MODELS[seed % len(DEFAULT_MODELS)]
        for w in self.workloads:
            self._bucket(tally, w.name, model, 1, HELD_OUT_BASE + seed)


class Fuzz:
    """Generated programs through the differential fuzz campaign, one
    program per item, with the default models, backends and dynamic
    variants.

    Set-up is the imports plus one warm-up program, so that first-call
    costs land there.  The run covers program seeds ``0..count-1``; the
    held-out slice runs :data:`HELD_OUT` programs drawn from the seed.
    """

    name = "fuzz"
    #: reference seconds of one generated program, on average
    PROGRAM_SECONDS = 0.5
    HELD_OUT = 3
    WARMUP_SEED = HELD_OUT_BASE - 1
    #: a ``FuzzCampaign`` sabotage to plant (tests set it)
    sabotage = None

    def __init__(self, seconds: int, seed: int) -> None:
        self.count = max(1, round(seconds / self.PROGRAM_SECONDS))

    def setup(self, clock: Clock, cache_dir: Path) -> None:
        from repro.verify.fuzz.fuzzcampaign import FuzzCampaign

        clock.item("program", FuzzCampaign(count=1,
                                           seed_start=self.WARMUP_SEED).run)

    def _program(self, tally: Tally, seed: int,
                 clock: Clock | None = None) -> None:
        from repro.verify.fuzz.fuzzcampaign import FuzzCampaign

        campaign = FuzzCampaign(count=1, seed_start=seed,
                                sabotage=self.sabotage)
        summary = (clock.item("program", campaign.run) if clock is not None
                   else campaign.run())
        tally.counts["fuzz.comparisons"] += summary.stats().runs
        tally.check(summary.ok, f"fuzz program seed {seed}: "
                    f"{len(summary.divergences)} divergences, "
                    f"{len(summary.oracle_errors)} oracle errors")

    def run(self, clock: Clock, tally: Tally) -> None:
        for seed in range(self.count):
            self._program(tally, seed, clock)

    def held_out(self, tally: Tally, seed: int) -> None:
        start = HELD_OUT_BASE + seed * self.HELD_OUT
        for program_seed in range(start, start + self.HELD_OUT):
            self._program(tally, program_seed)


WORKLOADS = {cls.name: cls for cls in (PaperWarm, Verify, Fuzz)}
