"""Differential checker: end-to-end runs and comparison-policy units."""

from __future__ import annotations

import gc

import pytest

from repro.frontend import compile_source
from repro.harness.pipeline import prepare_ir
from repro.hw.exceptions import Trap, TrapKind
from repro.program.procedure import clone_program
from repro.sched.globalsched import schedule_program_global
from repro.sched.machine import SUPERSCALAR
from repro.verify.campaign import CAMPAIGN_CONFIGS, BrokenShiftBuffer
from repro.verify.differential import DifferentialChecker, RunOutcome
from repro.verify.errors import DivergenceError
from repro.verify.faults import FaultPlan, TrapInjection, trap_candidates

SOURCE = """
global buf[8] = { 3, 1, 4, 1, 5, 9, 2, 6 };

func main() {
    var acc = 0;
    var i = 0;
    while (i < 24) {
        var v = 0 - 1;
        if (i % 8 < 7) {
            v = buf[i % 8];
        }
        acc = acc + v;
        print(acc);
        i = i + 1;
    }
}
"""


def _prepare(model_key: str = "minboost3"):
    config = CAMPAIGN_CONFIGS[model_key]
    prog = prepare_ir(compile_source(SOURCE), config, None)
    reference = clone_program(prog)
    sched, _ = schedule_program_global(prog, SUPERSCALAR, config.model)
    return sched, reference


def _trap_plan(reference) -> FaultPlan:
    """A plan injecting an address error at the first trap candidate."""
    target = trap_candidates(reference)[0]
    return FaultPlan(seed=0, traps=(TrapInjection(
        target_uid=target.origin or target.uid,
        kind=TrapKind.ADDRESS_ERROR, addr=0xFA000040,
        mnemonic=target.op.mnemonic),))


# ------------------------------------------------------------- end-to-end
def test_benign_plan_agrees():
    sched, reference = _prepare()
    report = DifferentialChecker().check(
        sched, reference, FaultPlan(seed=0), workload="micro")
    assert report.ok and not report.trapped
    assert report.reference.output == report.superscalar.output != []
    assert report.reference.memory == report.superscalar.memory


@pytest.mark.parametrize("model_key", ["squashing", "boost1", "minboost3"])
def test_injected_trap_surfaces_identically(model_key):
    sched, reference = _prepare(model_key)
    plan = _trap_plan(reference)
    report = DifferentialChecker().check(
        sched, reference, plan, workload="micro", config=model_key)
    assert report.ok and report.trapped
    ref_trap, ssc_trap = report.reference.trap, report.superscalar.trap
    assert ssc_trap is not None
    assert (ssc_trap.kind, ssc_trap.instr_uid, ssc_trap.addr) == \
        (ref_trap.kind, ref_trap.instr_uid, ref_trap.addr)
    assert report.superscalar.injected_hits >= 1


def test_trapping_run_leaves_no_reference_cycles():
    """A kept trap's traceback would pin the run's frames, and with them
    the simulator's memory, until the next full gc."""
    sched, reference = _prepare()
    plan = _trap_plan(reference)
    checker = DifferentialChecker()
    gc.collect()
    gc.disable()
    try:
        report = checker.check(sched, reference, plan, workload="micro")
        assert report.trapped
        del report
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_broken_shift_buffer_is_convicted():
    """With sabotaged hardware the same plan must raise DivergenceError."""
    for seed in range(64):
        sched, reference = _prepare()
        plan_src = clone_program(reference)
        from repro.verify.faults import make_plan
        plan = make_plan(plan_src, seed)
        if not plan.traps or plan.flips:
            continue
        healthy = DifferentialChecker().compare_only(sched, reference, plan)
        if not healthy.ok or not healthy.trapped:
            continue
        if healthy.superscalar.recoveries == 0 \
                and healthy.superscalar.boosted_squashed == 0:
            continue  # fault never travelled through the shift buffer
        broken = DifferentialChecker(
            shiftbuf_factory=lambda levels: BrokenShiftBuffer(levels))
        with pytest.raises(DivergenceError) as exc:
            broken.check(sched, reference, plan, workload="micro",
                         config="minboost3")
        assert exc.value.divergences
        assert "verify" in exc.value.repro
        return
    pytest.fail("no seed exercised the shift buffer on the micro program")


# --------------------------------------------------------- compare() units
def _clean(machine: str, output, memory=b"\x00\x01") -> RunOutcome:
    return RunOutcome(machine=machine, output=list(output), memory=memory)


def test_compare_machine_error_is_divergence():
    ref = _clean("functional", [1, 2])
    ssc = RunOutcome(machine="superscalar", error="StoreBufferError: full")
    (d,) = DifferentialChecker.compare(ref, ssc)
    assert d.observable == "machine-error"


def test_compare_trap_mismatch():
    ref = _clean("functional", [1])
    ref.trap = Trap(TrapKind.DIV_ZERO, instr_uid=5)
    ssc = _clean("superscalar", [1])
    (d,) = DifferentialChecker.compare(ref, ssc)
    assert d.observable == "trap"

    ssc.trap = Trap(TrapKind.DIV_ZERO, instr_uid=6)
    (d,) = DifferentialChecker.compare(ref, ssc)
    assert d.observable == "trap" and "imprecisely" in d.detail


def test_compare_output_prefix_rule_at_traps():
    """At a trap, differing *lengths* are legal; differing prefixes are not."""
    ref = _clean("functional", [1, 2, 3])
    ref.trap = Trap(TrapKind.DIV_ZERO, instr_uid=5)
    ssc = _clean("superscalar", [1, 2])
    ssc.trap = Trap(TrapKind.DIV_ZERO, instr_uid=5)
    assert DifferentialChecker.compare(ref, ssc) == []

    ssc.output = [1, 9]
    (d,) = DifferentialChecker.compare(ref, ssc)
    assert d.observable == "output" and "position 1" in d.detail


def test_compare_clean_exit_is_strict():
    ref = _clean("functional", [1, 2, 3], memory=b"\x00\x01")
    ssc = _clean("superscalar", [1, 2], memory=b"\x00\x02")
    divs = DifferentialChecker.compare(ref, ssc)
    assert {d.observable for d in divs} == {"output", "memory"}
    mem = next(d for d in divs if d.observable == "memory")
    assert "0x1" in mem.detail
