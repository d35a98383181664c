"""Per-layer tracing from outside the program.

:func:`traced` installs timing wrappers around the public functions each
layer exposes, at the place the caller looks the name up, and removes them
on exit.  Nothing in ``repro`` is edited, and untimed runs pay nothing: the
wrappers exist only inside the ``with traced(...)`` block.

Every wrapper records a span (name, phase, item id, parent span, start,
end, instructions simulated).  Spans stay in memory; :meth:`Tracer.write`
dumps them in the Chrome trace-event format at exit and
:func:`layer_metrics` folds them into self times, meaning span time minus
the time of its child spans.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self) -> None:
        #: [name, phase, item, parent index, start ns, end ns, instructions]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.phase = "setup"
        self.item = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.phase, self.item, parent,
                           time.perf_counter_ns(), 0, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, name: str = "", instrs: int = 0) -> None:
        span = self.spans[idx]
        span[5] = time.perf_counter_ns()
        if name:
            span[0] = name
        span[6] = instrs
        self._stack.pop()

    def self_times(self) -> dict[tuple[str, str], list[float]]:
        """(phase, name) -> [self seconds, instructions, calls]."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[5] - span[4]
        totals: dict[tuple[str, str], list[float]] = defaultdict(
            lambda: [0.0, 0, 0])
        for span, inner in zip(self.spans, child_ns):
            row = totals[(span[1], span[0])]
            row[0] += (span[5] - span[4] - inner) / 1e9
            row[1] += span[6]
            row[2] += 1
        return dict(totals)

    def write(self, path: Path, label: str) -> None:
        """Chrome trace-event JSON (load it in ui.perfetto.dev)."""
        t0 = self.spans[0][4] if self.spans else 0
        meta = [{"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
                 "args": {"name": label}}]
        events = [{"name": s[0], "ph": "X", "pid": 0, "tid": 0,
                   "ts": (s[4] - t0) / 1e3,
                   "dur": max((s[5] - s[4]) / 1e3, 0.001),
                   "args": {"phase": s[1], "item": s[2], "parent": s[3],
                            "instrs": s[6]}}
                  for s in self.spans]
        payload = {"traceEvents": meta + events, "displayTimeUnit": "ms",
                   "otherData": {"clock": "host perf_counter, 1 us = 1 us"}}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload) + "\n")
        os.replace(tmp, path)


# ---------------------------------------------------------------- wrappers
def _span(tracer: Tracer, fn, name):
    """Wrap ``fn`` in a span; ``name`` is a string or a function of the
    call's arguments."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name if isinstance(name, str) else "?")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx, "" if isinstance(name, str)
                         else name(*args, **kwargs))
    return wrapper


def _sim_run(tracer: Tracer, fn, classify):
    """Wrap a simulator's ``run``: the span is named after the engine the
    instance ended up using and carries the instructions it retired."""
    @functools.wraps(fn)
    def run(self, *args, **kwargs):
        idx = tracer.open("sim")
        try:
            return fn(self, *args, **kwargs)
        finally:
            result = getattr(self, "result", None)
            tracer.close(idx, classify(self),
                         getattr(result, "instr_count", 0))
    return run


def _cache_load(tracer: Tracer, fn):
    @functools.wraps(fn)
    def load(self, key):
        idx = tracer.open("cache.load")
        try:
            payload = fn(self, key)
        finally:
            tracer.close(idx)
        tracer.counts["cache.hits"] += payload is not None
        return payload
    return load


def _superscalar_engine(sim) -> str:
    """The engine ``SuperscalarSim.run`` took, by the test it applies."""
    unit = getattr(sim.sched, "_translation_unit", None)
    if (sim.backend == "translate" and sim.fault_hook is None
            and sim.trap_handler is None and sim._trace is None
            and getattr(unit, "translated_blocks", 0)):
        return "superscalar/translate"
    return "superscalar/interp" if sim.fast else "superscalar/reference"


@contextmanager
def traced(tracer: Tracer):
    """Install every layer wrapper for the duration of the block."""
    import repro.frontend as frontend
    import repro.harness.cache as cache
    import repro.harness.pipeline as pipeline
    import repro.hw.translate as translate
    import repro.opt as opt
    import repro.verify.campaign as campaign
    import repro.verify.fuzz.fuzzcampaign as fuzzcampaign
    import repro.verify.fuzz.generator as generator
    from repro.harness.experiments import DYNAMIC_CONFIGS
    from repro.hw.dynamic import DynamicSim
    from repro.hw.functional import FunctionalSim
    from repro.hw.superscalar import SuperscalarSim
    from repro.verify.differential import DifferentialChecker

    def dynamic_name(sim) -> str:
        for key, config in DYNAMIC_CONFIGS.items():
            if sim.config == config:
                return f"dynamic/{key}"
        return "dynamic/other"

    def functional_name(sim) -> str:
        return "profile" if sim.profile is not None else "functional"

    def sched_name(program, config, *args, **kwargs) -> str:
        return f"sched.{config.scheduler}"

    # (where the caller looks the name up, attribute, the object it must
    # hold now, replacement)
    patches = []
    for module in (pipeline, cache, campaign, fuzzcampaign):
        patches.append((module, "compile_source", frontend.compile_source,
                        _span(tracer, frontend.compile_source, "frontend")))
    for module in (pipeline, campaign, fuzzcampaign):
        patches.append((module, "schedule_ir", pipeline.schedule_ir,
                        _span(tracer, pipeline.schedule_ir, sched_name)))
    for attr, name in (("optimize_program", "opt.optimize"),
                       ("allocate_program", "opt.regalloc"),
                       ("propagate_program", "opt.cleanup"),
                       ("fold_program", "opt.cleanup"),
                       ("dce_program", "opt.cleanup"),
                       ("clean_program", "opt.cleanup")):
        fn = getattr(opt, attr)
        patches.append((pipeline, attr, fn, _span(tracer, fn, name)))
    for attr in ("build_functional_unit", "build_superscalar_unit"):
        fn = getattr(translate, attr)
        patches.append((translate, attr, fn,
                        _span(tracer, fn, "translate.build")))
    patches.append((fuzzcampaign, "generate_program",
                    generator.generate_program,
                    _span(tracer, generator.generate_program,
                          "fuzz.generate")))
    for cls, classify in ((DynamicSim, dynamic_name),
                          (FunctionalSim, functional_name),
                          (SuperscalarSim, _superscalar_engine)):
        patches.append((cls, "run", cls.__dict__["run"],
                        _sim_run(tracer, cls.run, classify)))
    CompileCache = cache.CompileCache
    patches.append((CompileCache, "load", CompileCache.__dict__["load"],
                    _cache_load(tracer, CompileCache.load)))
    patches.append((CompileCache, "store", CompileCache.__dict__["store"],
                    _span(tracer, CompileCache.store, "cache.store")))
    patches.append((DifferentialChecker, "compare_only",
                    DifferentialChecker.__dict__["compare_only"],
                    _span(tracer, DifferentialChecker.compare_only,
                          "verify.compare")))
    compare = DifferentialChecker.__dict__["compare"]
    patches.append((DifferentialChecker, "compare", compare,
                    staticmethod(_span(tracer, compare.__func__,
                                       "verify.compare"))))

    for owner, attr, expected, _ in patches:
        held = (owner.__dict__.get(attr) if isinstance(owner, type)
                else getattr(owner, attr, None))
        if held is not expected:
            raise RuntimeError(
                f"cannot trace {getattr(owner, '__name__', owner)}.{attr}: "
                "the name moved; update perfbench/layers.py")
    try:
        for owner, attr, _, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original, _ in patches:
            setattr(owner, attr, original)


# ----------------------------------------------------------------- metrics
DYNAMIC_KEYS = ("dynamic", "dynamic_rename", "dynamic_lsq", "dynamic_memdep",
                "dynamic_vfr")
ENGINES = ("translate", "interp", "reference")

#: per-layer metric -> unit, as BENCHMARK.json declares them
PER_LAYER_UNITS = {
    "dynamic.s": "s",
    "dynamic.kinstr_per_s": "kinstr/s",
    **{f"dynamic.{key}.kinstr_per_s": "kinstr/s" for key in DYNAMIC_KEYS},
    **{name: unit for engine in ENGINES
       for name, unit in ((f"superscalar.{engine}.s", "s"),
                          (f"superscalar.{engine}.minstr_per_s",
                           "Minstr/s"))},
    "translate.build.s": "s",
    "functional.s": "s",
    "functional.minstr_per_s": "Minstr/s",
    "profile.s": "s",
    "profile.minstr_per_s": "Minstr/s",
    "frontend.s": "s",
    "opt.optimize.s": "s",
    "opt.regalloc.s": "s",
    "opt.cleanup.s": "s",
    "sched.global.s": "s",
    "sched.bb.s": "s",
    "sched.calls": "count",
    "cache.store.s": "s",
    "cache.stores": "count",
    "cache.load.s": "s",
    "cache.loads": "count",
    "cache.hit_ratio": "ratio",
    "cache.mb": "MB",
    "verify.compare.s": "s",
    "verify.plans": "count",
    "fuzz.generate.s": "s",
    "fuzz.comparisons": "count",
    "host.probe_s": "s",
    "host.raw_setup_s": "s",
    "host.raw_run_s": "s",
    "trace.overhead": "ratio",
}


def _rate(instrs: float, seconds: float, scale: float) -> float:
    return instrs / seconds / scale if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, cache_bytes: int) -> dict[str, float]:
    """Fold the spans of a traced pass (set-up and run) into the per-layer
    metrics.  ``*.s`` is self time; ``*_per_s`` is instructions retired per
    second of that engine's self time."""
    by_name: dict[str, list[float]] = defaultdict(lambda: [0.0, 0, 0])
    for (_, name), (secs, instrs, calls) in tracer.self_times().items():
        row = by_name[name]
        row[0] += secs
        row[1] += instrs
        row[2] += calls

    def total(prefix: str) -> list[float]:
        rows = [v for k, v in by_name.items() if k.startswith(prefix)]
        return [sum(r[0] for r in rows), sum(r[1] for r in rows),
                sum(r[2] for r in rows)]

    dyn = total("dynamic/")
    m = {"dynamic.s": dyn[0],
         "dynamic.kinstr_per_s": _rate(dyn[1], dyn[0], 1e3)}
    for key in DYNAMIC_KEYS:
        secs, instrs, _ = by_name.get(f"dynamic/{key}", (0.0, 0, 0))
        m[f"dynamic.{key}.kinstr_per_s"] = _rate(instrs, secs, 1e3)
    for engine in ENGINES:
        secs, instrs, _ = by_name.get(f"superscalar/{engine}", (0.0, 0, 0))
        m[f"superscalar.{engine}.s"] = secs
        m[f"superscalar.{engine}.minstr_per_s"] = _rate(instrs, secs, 1e6)
    for name in ("functional", "profile"):
        secs, instrs, _ = by_name.get(name, (0.0, 0, 0))
        m[f"{name}.s"] = secs
        m[f"{name}.minstr_per_s"] = _rate(instrs, secs, 1e6)
    for name in ("translate.build", "frontend", "opt.optimize",
                 "opt.regalloc", "opt.cleanup", "sched.global", "sched.bb",
                 "cache.store", "cache.load", "verify.compare",
                 "fuzz.generate"):
        m[f"{name}.s"] = by_name.get(name, (0.0, 0, 0))[0]
    m["sched.calls"] = total("sched.")[2]
    m["cache.stores"] = by_name.get("cache.store", (0, 0, 0))[2]
    loads = by_name.get("cache.load", (0, 0, 0))[2]
    m["cache.loads"] = loads
    m["cache.hit_ratio"] = tracer.counts["cache.hits"] / loads if loads else 0.0
    m["cache.mb"] = cache_bytes / 1e6
    return m


def phase_shares(tracer: Tracer) -> dict[str, dict[str, float]]:
    """phase -> layer -> share of that phase's traced time, for the
    workload-rationale check in the README."""
    out: dict[str, dict[str, float]] = {}
    for (phase, name), (secs, _, _) in tracer.self_times().items():
        layer = name.split("/")[0]
        out.setdefault(phase, {}).setdefault(layer, 0.0)
        out[phase][layer] += secs
    for layers in out.values():
        whole = sum(layers.values()) or 1.0
        for layer in layers:
            layers[layer] = round(layers[layer] / whole, 4)
    return out
