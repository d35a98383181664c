"""Differential oracle for the translating backend (``repro.hw.translate``).

The translated engines must be observably identical to the interpreters on
every workload — same output, same counters, same traps — including at fuel
boundaries and across the trace-reuse memo layer's legality edges (a trap
reached from a memoized superblock, a store aliasing a memoized load).
These tests pin that equivalence, plus the expression templates the code
generator inlines, the backend-selection knob, and the CompileCache
round-trip of generated-code artifacts.
"""

import gc
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.cache import CODE_VERSION, CompileCache
from repro.harness.experiments import CONFIGS
from repro.harness.pipeline import compile_minic, make_input_image
from repro.hw.alu import ALU_FUNCS, BRANCH_FUNCS, alu_expr, branch_expr
from repro.hw.backend import BACKENDS, backend_choice, resolve_backend
from repro.hw.errors import FuelExhausted
from repro.hw.exceptions import Trap
from repro.hw.functional import FunctionalSim
from repro.hw.superscalar import SuperscalarSim
from repro.hw.translate import (
    HOT_THRESHOLD, TranslationUnit, functional_unit, superscalar_unit,
)
from repro.obs.stats import SimStats
from repro.workloads import all_workloads, get

REPO_ROOT = Path(__file__).resolve().parents[2]
WORKLOAD_NAMES = [w.name for w in all_workloads()]


def _observables(result, sim=None):
    obs = {
        "output": result.output,
        "instr_count": result.instr_count,
        "cycle_count": result.cycle_count,
        "nop_count": result.nop_count,
        "branch_count": result.branch_count,
        "mispredict_count": result.mispredict_count,
    }
    if sim is not None:
        obs["boosted_executed"] = sim.boosted_executed
        obs["boosted_squashed"] = sim.boosted_squashed
        obs["recovery_invocations"] = sim.recovery_invocations
    return obs


# ------------------------------------------------- engine equivalence


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_functional_translate_matches_interpreters(name):
    wl = get(name)
    compiled = compile_minic(wl.source, CONFIGS["scalar"])
    image = make_input_image(compiled.program, wl.train)

    def run(backend):
        sim = FunctionalSim(compiled.program, input_image=image,
                            backend=backend)
        return _observables(sim.run())

    translated = run("translate")
    assert translated == run("interp")
    assert translated == run("reference")


@pytest.mark.parametrize("key", ["scalar", "bb", "global", "squashing",
                                 "boost1", "minboost3", "boost7"])
def test_superscalar_translate_matches_interpreters(key):
    """Sequential blocks run as generated code while boosted blocks (and
    the shadow/shift-buffer machinery between them) stay interpreted —
    every architectural observable must still match, model by model."""
    wl = get("espresso")
    compiled = compile_minic(wl.source, CONFIGS[key])
    image = make_input_image(compiled.program, wl.train)

    def run(backend):
        sim = SuperscalarSim(compiled.sched, input_image=image,
                             backend=backend)
        return _observables(sim.run(), sim)

    translated = run("translate")
    assert translated == run("interp")
    assert translated == run("reference")


def test_superscalar_translate_actually_translates():
    wl = get("grep")
    compiled = compile_minic(wl.source, CONFIGS["minboost3"], wl.train)
    unit = superscalar_unit(compiled.sched)
    assert unit is not None and unit.translated_blocks > 0
    sim = SuperscalarSim(compiled.sched,
                         input_image=make_input_image(compiled.program,
                                                      wl.train),
                         backend="translate")
    sim.run()
    assert sim.translate_counters["translated_blocks"] \
        == unit.translated_blocks


def test_translated_runs_leave_no_reference_cycles():
    """The generated functions' namespace holds the simulated memory; left
    as a reference cycle it would stay alive until the next full gc."""
    wl = get("grep")
    compiled = compile_minic(wl.source, CONFIGS["minboost3"], wl.train)
    image = make_input_image(compiled.program, wl.train)

    def run_both():
        FunctionalSim(compiled.program, input_image=image,
                      backend="translate").run()
        SuperscalarSim(compiled.sched, input_image=image,
                       backend="translate").run()

    run_both()  # builds and caches both translation units
    gc.collect()
    gc.disable()
    try:
        run_both()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_functional_translate_fuel_exhaustion_is_exact():
    """Fuel handoff to the interpreter must exhaust on the same instruction
    the per-instruction reference loop does."""
    wl = get("grep")
    compiled = compile_minic(wl.source, CONFIGS["scalar"])
    image = make_input_image(compiled.program, wl.train)

    full = FunctionalSim(compiled.program, input_image=image).run()
    for fuel in (1, 7, full.instr_count // 2, full.instr_count - 1):
        states = []
        for backend in ("translate", "reference"):
            sim = FunctionalSim(compiled.program, input_image=image,
                                max_steps=fuel, backend=backend)
            with pytest.raises(FuelExhausted):
                sim.run()
            states.append((sim.result.instr_count, sim.result.nop_count,
                           list(sim.result.output)))
        assert states[0] == states[1]


# ------------------------------------------------- expression templates


_SAMPLES = [0, 1, 2, 3, 31, 32, 0x7FFFFFFF, 0x80000000, 0x80000001,
            0xFFFFFFFE, 0xFFFFFFFF]
_SAMPLES += [random.Random(0xB005).randrange(2 ** 32) for _ in range(16)]


def test_alu_expr_templates_match_table_functions():
    imms = [0, 1, -1, 5, 31, 32, 1000, -(2 ** 31), 2 ** 31 - 1, 0x1234]
    swept = 0
    for op, fn in ALU_FUNCS.items():
        for imm in imms:
            expr = alu_expr(op, "a", "b", imm)
            if expr is None:
                continue  # trapping / out-of-range: stays a table call
            code = compile(expr, f"<{op.name}>", "eval")
            for a in _SAMPLES:
                for b in _SAMPLES:
                    got = eval(code, {"a": a, "b": b})
                    assert got == fn(a, b, imm), (op, imm, a, b)
            swept += 1
    assert swept > 20  # the sweep must actually cover the table


def test_branch_expr_templates_match_table_functions():
    for op, fn in BRANCH_FUNCS.items():
        for negate in (False, True):
            code = compile(branch_expr(op, "a", "b", negate),
                           f"<{op.name}>", "eval")
            for a in _SAMPLES:
                for b in _SAMPLES:
                    got = bool(eval(code, {"a": a, "b": b}))
                    assert got == (fn(a, b) ^ negate), (op, negate, a, b)


def test_div_rem_stay_table_calls():
    assert alu_expr(next(iter(ALU_FUNCS)), "a", "b", 0) is not None
    from repro.isa.opcodes import Opcode
    assert alu_expr(Opcode.DIV, "a", "b", 0) is None
    assert alu_expr(Opcode.REM, "a", "b", 0) is None


# ------------------------------------------------- trace-reuse legality

_MEMO_CALLS = 3 * HOT_THRESHOLD

_ALIASING_SOURCE = """
global xs[8];
global calls = 0;
func f() {
    var t = 0;
    var i = 0;
    while (i < 8) {
        t = t + xs[i];
        i = i + 1;
    }
    return t;
}
func main() {
    var s = 0;
    var j = 0;
    var n = calls;
    while (j < n) {
        s = s + f();
        if (j == n - 8) { xs[3] = 777; }
        j = j + 1;
    }
    print(s);
}
"""

_TRAP_SOURCE = """
global xs[8];
global w = 0;
global calls = 0;
func f() {
    var t = 0;
    var i = 0;
    while (i < 8) {
        t = t + xs[w + i];
        i = i + 1;
    }
    return t;
}
func main() {
    var s = 0;
    var j = 0;
    var n = calls;
    while (j < n) {
        s = s + f();
        j = j + 1;
    }
    if (n > 0) {
        w = 1000000;
        s = s + f();
    }
    print(s);
}
"""


def _run_backend(compiled, inputs, backend):
    image = make_input_image(compiled.program, inputs)
    sim = FunctionalSim(compiled.program, input_image=image,
                        backend=backend)
    trap = None
    try:
        result = sim.run()
    except Trap as t:
        trap = (t.kind, t.instr_uid, t.addr)
        result = sim.result
    obs = _observables(result)
    obs["trap"] = trap
    return obs, sim


def test_memoized_trace_store_aliasing_falls_back():
    """A store that changes memory a memoized trace loaded must invalidate
    the trace — replaying the stale sum would be wrong."""
    inputs = {"xs": [3, 1, 4, 1, 5, 9, 2, 6], "calls": _MEMO_CALLS}
    compiled = compile_minic(_ALIASING_SOURCE, CONFIGS["scalar"])
    t_obs, t_sim = _run_backend(compiled, inputs, "translate")
    r_obs, _ = _run_backend(compiled, inputs, "reference")
    assert t_obs == r_obs
    counters = t_sim.translate_counters
    # the loop went hot, replayed, and the aliasing store was caught
    assert counters["trace_hits"] > 0
    assert counters["trace_invalidations"] >= 1


def test_trap_after_memoized_trace_is_exact():
    """When the inputs of a hot superblock change so that executing it
    traps, the memo layer must execute (the key/validation misses), raising
    the same trap at the same instruction as the reference — never
    replaying a recorded non-trapping run."""
    inputs = {"xs": [3, 1, 4, 1, 5, 9, 2, 6], "calls": _MEMO_CALLS}
    compiled = compile_minic(_TRAP_SOURCE, CONFIGS["scalar"])
    t_obs, t_sim = _run_backend(compiled, inputs, "translate")
    r_obs, _ = _run_backend(compiled, inputs, "reference")
    assert t_obs["trap"] is not None
    assert t_obs == r_obs
    assert t_sim.translate_counters["trace_hits"] > 0


def test_memoized_trace_fuel_boundaries_are_exact():
    """Replay must hand off to the interpreter at exactly the same fuel
    level as execution would — a trace is never replayed on partial fuel."""
    inputs = {"xs": [3, 1, 4, 1, 5, 9, 2, 6], "calls": _MEMO_CALLS}
    compiled = compile_minic(_ALIASING_SOURCE, CONFIGS["scalar"])
    image = make_input_image(compiled.program, inputs)
    full = FunctionalSim(compiled.program, input_image=image).run()
    for fuel in (full.instr_count // 3, full.instr_count // 2,
                 full.instr_count - 2):
        states = []
        for backend in ("translate", "reference"):
            sim = FunctionalSim(compiled.program, input_image=image,
                                max_steps=fuel, backend=backend)
            with pytest.raises(FuelExhausted):
                sim.run()
            states.append((sim.result.instr_count, sim.result.nop_count,
                           list(sim.result.output)))
        assert states[0] == states[1]


def test_translation_counters_reach_stats_snapshot():
    wl = get("grep")
    compiled = compile_minic(wl.source, CONFIGS["minboost3"], wl.train)
    st = SimStats()
    compiled.run_functional(wl.train, stats=st)
    snap = st.snapshot()
    assert snap["translated_blocks"] > 0
    assert snap["trace_hits"] >= 0


# ------------------------------------------------- staleness protection


def test_invalidate_caches_drops_translation_unit():
    wl = get("grep")
    compiled = compile_minic(wl.source, CONFIGS["scalar"])
    unit = functional_unit(compiled.reference)
    assert isinstance(unit, TranslationUnit)
    assert "_translation_unit" in compiled.reference.__dict__
    compiled.reference.invalidate_caches()
    assert "_translation_unit" not in compiled.reference.__dict__
    rebuilt = functional_unit(compiled.reference)
    assert isinstance(rebuilt, TranslationUnit)
    assert rebuilt is not unit


def test_stale_unit_register_backstop():
    """A cached unit referencing registers beyond the simulator's file is
    rebuilt instead of crashing the generated code."""
    wl = get("grep")
    compiled = compile_minic(wl.source, CONFIGS["scalar"])
    unit = functional_unit(compiled.reference)
    unit.max_reg = 4096  # simulate an externally mutated program
    nregs = len(FunctionalSim(compiled.reference).regs)
    rebuilt = functional_unit(compiled.reference, nregs)
    assert rebuilt is not unit
    assert rebuilt.max_reg < nregs


# ------------------------------------------------- backend selection knob


def test_backend_choice_env_and_alias(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_FAST_SIM", raising=False)
    assert backend_choice() == "translate"
    monkeypatch.setenv("REPRO_FAST_SIM", "0")
    assert backend_choice() == "reference"
    # the documented knob wins over the legacy alias
    monkeypatch.setenv("REPRO_SIM_BACKEND", "interp")
    assert backend_choice() == "interp"
    monkeypatch.setenv("REPRO_SIM_BACKEND", "jit")
    with pytest.raises(ValueError):
        backend_choice()


def test_resolve_backend_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_FAST_SIM", raising=False)
    assert resolve_backend("reference", True) == "reference"
    assert resolve_backend(None, False) == "reference"
    assert resolve_backend(None, True) == "translate"
    assert resolve_backend(None, None) == "translate"
    monkeypatch.setenv("REPRO_SIM_BACKEND", "reference")
    # fast=True means "a fast engine": never silently demoted to reference
    assert resolve_backend(None, True) == "interp"
    with pytest.raises(ValueError):
        resolve_backend("jit", None)


def test_sims_honor_backend_env(monkeypatch):
    wl = get("grep")
    compiled = compile_minic(wl.source, CONFIGS["scalar"])
    monkeypatch.setenv("REPRO_SIM_BACKEND", "interp")
    assert FunctionalSim(compiled.program).backend == "interp"
    monkeypatch.delenv("REPRO_SIM_BACKEND")
    monkeypatch.setenv("REPRO_FAST_SIM", "0")
    assert FunctionalSim(compiled.program).backend == "reference"
    assert SuperscalarSim(compiled.sched).backend == "reference"


def test_bench_json_identical_across_backends(tmp_path):
    """One workload through ``bench --json`` under each backend: the
    reports must be byte-identical (CI repeats this for the full matrix)."""
    reports = {}
    for backend in BACKENDS:
        out = tmp_path / f"{backend}.json"
        env = dict(os.environ, REPRO_SIM_BACKEND=backend,
                   PYTHONPATH=str(REPO_ROOT / "src"))
        subprocess.run(
            [sys.executable, "-m", "repro", "bench", "grep",
             "--json", str(out), "--no-cache"],
            check=True, cwd=REPO_ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        reports[backend] = out.read_bytes()
    assert reports["reference"] == reports["interp"] == reports["translate"]


# ------------------------------------------------- compile-cache artifacts


def test_translation_unit_rides_compile_cache(tmp_path):
    """Generated-code artifacts are part of the cached compile: a warm
    load carries the translation units and they run correctly."""
    wl = get("grep")
    cache = CompileCache(tmp_path / "cache")
    cold = cache.compile_minic(wl.source, CONFIGS["minboost3"], wl.train)
    assert isinstance(cold.reference.__dict__.get("_translation_unit"),
                      TranslationUnit)

    warm_cache = CompileCache(tmp_path / "cache")
    warm = warm_cache.compile_minic(wl.source, CONFIGS["minboost3"],
                                    wl.train)
    assert warm_cache.stats()["hits"] == 1
    funit = warm.reference.__dict__.get("_translation_unit")
    sunit = warm.sched.__dict__.get("_translation_unit")
    assert isinstance(funit, TranslationUnit)
    assert isinstance(sunit, TranslationUnit)
    assert funit.sources and sunit.sources

    image = make_input_image(warm.reference, wl.train)
    a = FunctionalSim(warm.reference, input_image=image,
                      backend="translate").run()
    b = FunctionalSim(warm.reference, input_image=image,
                      backend="interp").run()
    assert (a.output, a.instr_count) == (b.output, b.instr_count)
    simage = make_input_image(warm.program, wl.train)
    c = SuperscalarSim(warm.sched, input_image=simage,
                       backend="translate").run()
    d = SuperscalarSim(warm.sched, input_image=simage,
                       backend="interp").run()
    assert (c.output, c.cycle_count) == (d.output, d.cycle_count)


def test_cache_purges_stale_code_version(tmp_path, capsys):
    """Entries from an older CODE_VERSION are unreachable (the version is
    in every key) — they must be swept with a one-line stderr note."""
    d = tmp_path / "cache"
    d.mkdir()
    (d / "VERSION").write_text(f"{CODE_VERSION - 1}\n")
    (d / "aaaa.pkl").write_bytes(b"stale")
    (d / "bbbb.pkl").write_bytes(b"stale")
    (d / "aaaa.strikes").write_text("2\n")
    cache = CompileCache(d)
    assert cache.load("cccc") is None  # triggers the version sweep
    assert cache.purged == 2
    assert not list(d.glob("*.pkl"))
    assert not list(d.glob("*.strikes"))
    assert (d / "VERSION").read_text().strip() == str(CODE_VERSION)
    err = capsys.readouterr().err
    assert "purged 2 entries" in err
    assert f"code version {CODE_VERSION - 1} (now {CODE_VERSION})" in err


def test_cache_version_sweep_spares_current_entries(tmp_path):
    d = tmp_path / "cache"
    cache = CompileCache(d)
    cache.store("k1", compile_minic(get("grep").source, CONFIGS["scalar"]))
    assert (d / "VERSION").read_text().strip() == str(CODE_VERSION)
    again = CompileCache(d)
    assert again.load("k1") is not None
    assert again.purged == 0
