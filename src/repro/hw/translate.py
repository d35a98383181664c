"""Translating simulator backend: basic blocks compiled to Python superblocks.

The interpreters in :mod:`repro.hw.functional` and
:mod:`repro.hw.superscalar` dispatch one pre-decoded tuple per dynamic
instruction.  This module removes that dispatch entirely, the way classic
binary-translation simulators (Shade, Embra) do: every decoded basic block
is compiled **once** into generated Python source — opcode semantics inlined
as expressions via the templates in :mod:`repro.hw.alu`, register reads
hoisted into locals, memory accessed through an aligned ``uint32`` view of
the backing ``bytearray`` — and hot successor blocks are chained into
*superblocks* along the statically predicted branch direction, so a loop
whose backedge follows its prediction runs entirely inside one generated
function.  Fuel, NOP and branch counters are charged once per superblock
iteration as static constants; off-trace exits re-add the unexecuted tail,
and trap sites carry literal correction tables back to the exact
per-instruction accounting of the interpreters.

On top of the functional path sits dynamic **trace-reuse memoization**
(after "Decanting the Contribution of Instruction Types and Loop Structures
in the Reuse of Traces", see PAPERS.md): a looping superblock that turns hot
records its architectural read/write set — input registers, every loaded
``(addr, size, value)``, every stored ``(addr, size, value)``, counter
deltas and its exit — and later invocations whose input-register slice and
memory read-set match replay the recorded effects instead of re-executing.
Reuse is *never* legal when the recorded run trapped, handed fuel off, or
printed; stale memory is detected by validating every recorded load against
live memory and invalidating on mismatch.

Exactness contract: every observable — PRINT stream, ``instr_count``,
``nop_count``, ``branch_count``, ``mispredict_count``, trap identity
(kind/addr/uid), fuel exhaustion and per-block stats counters — is
byte-identical to the interpreters.  ``tests/hw/test_translate.py`` pins
this on every workload; the backend hands off to the reference loop at any
block boundary where fuel could run out inside the superblock, exactly like
the PR-2 fast path does per block.

Generated artifacts are plain data (source strings + literal tables), so a
:class:`TranslationUnit` pickles inside ``CompileCache`` payloads and the
translation survives a warm-cache round trip; ``compile()`` of a source
string is memoized per process.
"""

from __future__ import annotations

import sys
import time

from repro.hw.alu import ALU_FUNCS, alu_expr, branch_expr
from repro.hw.errors import WallClockExceeded
from repro.hw.exceptions import Trap, TrapKind
from repro.isa.opcodes import Opcode

__all__ = [
    "CHAIN_CAP", "HOT_THRESHOLD", "TRACE_CAP", "DISABLE_LOOKUPS",
    "EFFECT_CAP", "TranslationUnit", "functional_unit",
    "run_functional_translated", "superscalar_unit",
    "run_superscalar_translated",
]

#: longest superblock, in chained basic blocks
CHAIN_CAP = 16
#: executions before a looping superblock arms its memo table
HOT_THRESHOLD = 16
#: memoized traces kept per superblock
TRACE_CAP = 4
#: an armed superblock that reaches this many lookups with zero hits is
#: disabled — the key never repeats, stop paying for it
DISABLE_LOOKUPS = 64
#: recorded traces longer than this many loads or stores are not inserted
#: (the recording lists also saturate at EFFECT_CAP + 1 so an unbounded
#: loop cannot grow them without bound)
EFFECT_CAP = 4096

_M32 = 0xFFFFFFFF
_MEM_BASE = 0x1000  # Memory.base (DATA_BASE); pinned by tests

# Generated functions return a 4-tuple ``(kind, a, b, fuel)``:
#   (0, idx, 0, fuel)            goto block ``idx`` in the same procedure
#   (1, idx, 0, fuel)            fuel may run out inside the superblock —
#                                resume the reference loop at block ``idx``
#   (2, target, resume, fuel)    call: JAL to procedure ``target``, resume
#                                frame is (current proc, ``resume``)
#   (3, addr, uid, fuel)         return: JR to token ``addr`` (``uid`` is
#                                the trap identity for a bad token)
#   (4, 0, 0, fuel)              halt / program end

#: generated-source string -> compiled code object, shared across sims
_CODE_CACHE: dict[str, object] = {}


def _code_for(source: str):
    code = _CODE_CACHE.get(source)
    if code is None:
        if len(_CODE_CACHE) > 128:
            _CODE_CACHE.clear()
        code = compile(source, "<repro-translate>", "exec")
        _CODE_CACHE[source] = code
    return code


class _WordView:
    """Word-indexed fallback view for big-endian hosts (or odd-sized
    memories) where ``memoryview.cast("I")`` would not be little-endian."""

    __slots__ = ("m",)

    def __init__(self, m):
        self.m = m

    def __getitem__(self, i):
        a = i << 2
        return int.from_bytes(self.m[a:a + 4], "little")

    def __setitem__(self, i, v):
        a = i << 2
        self.m[a:a + 4] = v.to_bytes(4, "little")


def _word_view(m: bytearray):
    """Aligned uint32 view over the memory bytearray.

    Generated code addresses words as ``W[addr >> 2]`` — one subscript
    instead of a slice allocation plus ``int.from_bytes``.  Word accesses
    are alignment-checked before reaching the view, so the cast view is
    exact on little-endian hosts; everywhere else the slow fallback keeps
    the same semantics.
    """
    if sys.byteorder == "little" and len(m) % 4 == 0:
        return memoryview(m).cast("I")
    return _WordView(m)


class TranslationUnit:
    """Plain-data result of translating one program (pickles in the cache).

    ``sources`` maps variant name (``plain``/``stats``/``record`` for the
    functional engine, ``sched`` for the superscalar engine) to generated
    module source; ``tables`` maps generated function name to its literal
    side tables (trap-site corrections, table-call opcode names); ``fns``
    maps procedure name to the tuple of per-block function names (``None``
    for an untranslated block).  Everything else is counters and memo
    metadata.  Runtime binding happens in ``_bind_*`` below.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.sources: dict[str, str] = {}
        self.tables: dict[str, dict] = {}
        self.fns: dict[str, tuple] = {}
        #: flat gid -> (procedure name, block label | index) for stats
        self.block_keys: list = []
        #: procedure -> {entry block idx -> (key_regs, written_regs)}
        self.memo: dict[str, dict] = {}
        self.translated_blocks = 0
        self.superblocks_chained = 0
        #: highest register index the generated code touches — a staleness
        #: tripwire against in-place IR mutation under a cached unit
        self.max_reg = 0
        #: superscalar only: procedure -> {block idx -> ctl spec}
        self.ctl: dict[str, dict] = {}


def _rx(reg) -> int:
    return -1 if reg is None or reg.is_zero else reg.index


# =========================================================================
# Functional engine
# =========================================================================

def _build_chain(blocks, entry: int, index) -> tuple[list[int], bool]:
    """Follow predicted branch directions from ``entry`` into a superblock.

    Returns the chained block indices and whether the chain closes into a
    loop (last successor == entry).
    """
    chain = [entry]
    while len(chain) < CHAIN_CAP:
        k = chain[-1]
        term = blocks[k].terminator
        if term is None:
            succ = k + 1
            if succ >= len(blocks):
                break  # program end
        else:
            op = term.op
            if op.is_cond_branch:
                succ = index[term.target] if term.predict_taken is True \
                    else k + 1
            elif op is Opcode.J:
                succ = index[term.target]
            else:
                break  # JAL / JR / HALT end the chain
        if succ == chain[0]:
            return chain, True
        if succ in chain or succ >= len(blocks):
            break
        chain.append(succ)
    return chain, False


class _FnBuild:
    """One superblock's emission state, shared across the three variants."""

    def __init__(self, pname, proc, entry, index, mem_size, gid_of):
        self.pname = pname
        self.proc = proc
        self.entry = entry
        self.index = index
        self.mem_size = mem_size
        self.gid_of = gid_of
        self.chain, self.looped = _build_chain(proc.blocks, entry, index)
        self.seg_cost = sum(
            len(proc.blocks[k].body)
            + (0 if proc.blocks[k].terminator is None else 1)
            for k in self.chain)
        # linear-order register analysis (the superblock has one on-trace
        # path, so emission order is execution order for reads/writes)
        reads_before_write: set[int] = set()
        written: set[int] = set()
        used: set[int] = set()
        first_block_defs: set[int] = set()
        self.has_print = False
        self.total_nops = 0
        self.total_branches = 0
        for pos, k in enumerate(self.chain):
            block = proc.blocks[k]
            for instr in block.body:
                if instr.op is Opcode.NOP:
                    self.total_nops += 1
                    continue
                if instr.op is Opcode.PRINT:
                    self.has_print = True
                for s in instr.srcs:
                    i = _rx(s)
                    if i >= 0:
                        used.add(i)
                        if i not in written:
                            reads_before_write.add(i)
                d = _rx(getattr(instr, "dst", None))
                if d >= 0 and not instr.op.is_store:
                    used.add(d)
                    written.add(d)
                    if pos == 0:
                        first_block_defs.add(d)
            term = block.terminator
            if term is not None:
                if term.op.is_cond_branch:
                    self.total_branches += 1
                for s in term.srcs:
                    i = _rx(s)
                    if i >= 0:
                        used.add(i)
                        if i not in written:
                            reads_before_write.add(i)
        self.used = sorted(used)
        self.written = sorted(written)
        self.has_nops = self.total_nops > 0
        self.has_branches = self.total_branches > 0
        # memo key: registers whose entry value can influence the run.  A
        # written register not provably assigned on every exit path (i.e.
        # not defined in the first block's body) is keyed too, because the
        # recorded final value may just be its entry value written back.
        self.key_regs = tuple(sorted(
            reads_before_write | (written - first_block_defs)))
        self.memo_ok = self.looped and not self.has_print


def _flush_lines(fb: _FnBuild, fuel_adj: int = 0, np_adj: int = 0,
                 bc_adj: int = 0) -> list[str]:
    """Counter flush at an exit: re-add the unexecuted tail of the current
    iteration (the static adjustments), write locals back, publish."""
    lines = []
    if fuel_adj:
        lines.append(f"fuel += {fuel_adj}")
    if fb.has_nops and np_adj:
        lines.append(f"np -= {np_adj}")
    if fb.has_branches and bc_adj:
        lines.append(f"bc -= {bc_adj}")
    if fb.written:
        lines.append("; ".join(f"regs[{i}] = r{i}" for i in fb.written))
    if fb.has_nops:
        lines.append("res.instr_count += F0 - fuel - np")
        lines.append("res.nop_count += np")
    else:
        lines.append("res.instr_count += F0 - fuel")
    if fb.has_branches:
        lines.append("res.branch_count += bc")
    return lines


def _chain_has_sites(fb: _FnBuild) -> bool:
    for k in fb.chain:
        for instr in fb.proc.blocks[k].body:
            op = instr.op
            if op.is_load or op.is_store:
                return True
            if op in (Opcode.DIV, Opcode.REM):
                return True
            if op is Opcode.SLTI and instr.imm is not None \
                    and not -(2 ** 31) <= instr.imm < 2 ** 31:
                return True
    return False


def _emit_backedge(body: list[str], ind: str, fb: _FnBuild) -> None:
    body.append(ind + "if dl is not None and MONO() > dl:")
    for ln in _flush_lines(fb):
        body.append(ind + "    " + ln)
    body.append(ind + '    raise WCE(f"exceeded {WCL}s wall clock "')
    body.append(ind + '              f"({res.instr_count:,} instructions '
                'executed)")')
    body.append(ind + f"if fuel < {fb.seg_cost}:")
    for ln in _flush_lines(fb):
        body.append(ind + "    " + ln)
    body.append(ind + f"    return (1, {fb.entry}, 0, fuel)")
    body.append(ind + "continue")


def _emit_functional_fn(fb: _FnBuild, fname: str, stats: bool, record: bool,
                        tables_out) -> str:
    """Emit one variant of one superblock function.

    ``tables_out`` (a dict) is filled with the literal side tables on the
    first call; emission is deterministic, so every variant produces the
    same site/table layout.
    """
    proc, index, chain = fb.proc, fb.index, fb.chain
    limw = fb.mem_size - 4
    limb = fb.mem_size - 1
    seg, npt, nbt = fb.seg_cost, fb.total_nops, fb.total_branches
    sites: list[tuple[int, int, int, int]] = []  # (TA, TN, TB, TU)
    ip_lines: list[int] = []  # body indices of "_ip = k" lines
    fb_ops: list[str] = []

    def reg_expr(reg) -> str:
        i = _rx(reg)
        return f"r{i}" if i >= 0 else "0"

    body: list[str] = []
    ind = "    "
    has_sites = _chain_has_sites(fb)
    if has_sites:
        body.append(ind + "try:")
        ind += "    "
    if fb.looped:
        body.append(ind + "while True:")
        ind += "    "
    # the whole iteration's fuel/NOP/branch accounting, charged up front
    acct = [f"fuel -= {seg}"]
    if fb.has_nops:
        acct.append(f"np += {npt}")
    if fb.has_branches:
        acct.append(f"bc += {nbt}")
    body.append(ind + "; ".join(acct))

    cost_run = nop_run = nonnop_run = br_run = 0
    for pos, k in enumerate(chain):
        block = proc.blocks[k]
        term = block.terminator
        cost = len(block.body) + (0 if term is None else 1)
        nops = sum(1 for i in block.body if i.op is Opcode.NOP)
        if stats:
            body.append(ind + f"BE[{fb.gid_of[(fb.pname, block.label)]}] += 1")
        cost_run += cost
        np_prev = nop_run
        nop_run += nops
        ln = 0   # non-NOP body instructions emitted so far in this block
        lnp = 0  # NOPs seen so far in this block

        def site(instr) -> None:
            # fuel/np/bc were charged for the whole iteration up front;
            # each trap site stores the delta back to the architectural
            # truth (``ln`` already counts the trapping instruction).
            sites.append((nonnop_run + ln - (seg - npt),
                          np_prev + lnp - npt,
                          nbt - br_run,
                          instr.origin or instr.uid))
            ip_lines.append(len(body))
            body.append(ind + f"_ip = {len(sites) - 1}")

        for instr in block.body:
            op = instr.op
            if op is Opcode.NOP:
                lnp += 1
                continue
            ln += 1
            if op is Opcode.PRINT:
                a = reg_expr(instr.srcs[0]) if instr.srcs else "0"
                if a == "0":
                    body.append(ind + "out.append(0)")
                else:
                    body.append(
                        ind + f"out.append({a} - 4294967296 "
                        f"if {a} >= 2147483648 else {a})")
                continue
            if op.is_load:
                d = _rx(instr.dst)
                base = reg_expr(instr.srcs[0])
                off = instr.imm or 0
                site(instr)
                if off:
                    body.append(ind + f"_a = ({base} + {off}) & {_M32}")
                else:
                    body.append(ind + f"_a = {base}")
                if op is Opcode.LW:
                    body.append(ind + f"if _a < {_MEM_BASE} or _a > {limw} "
                                "or _a & 3:")
                    body.append(ind + "    MC(_a, 4)")
                    if d >= 0:
                        body.append(ind + f"r{d} = W[_a >> 2]")
                        if record:
                            body.append(
                                ind + f"if len(LL) <= {EFFECT_CAP}: "
                                f"LL.append((_a, 4, r{d}))")
                else:
                    body.append(ind + f"if _a < {_MEM_BASE} or _a > {limb}:")
                    body.append(ind + "    MC(_a, 1)")
                    if d >= 0:
                        if op is Opcode.LB or record:
                            body.append(ind + "_v = M[_a]")
                            if record:
                                body.append(
                                    ind + f"if len(LL) <= {EFFECT_CAP}: "
                                    "LL.append((_a, 1, _v))")
                            if op is Opcode.LB:
                                body.append(
                                    ind + f"r{d} = _v + 4294967040 "
                                    "if _v >= 128 else _v")
                            else:
                                body.append(ind + f"r{d} = _v")
                        else:
                            body.append(ind + f"r{d} = M[_a]")
                continue
            if op.is_store:
                v = reg_expr(instr.srcs[0])
                base = reg_expr(instr.srcs[1])
                off = instr.imm or 0
                site(instr)
                if off:
                    body.append(ind + f"_a = ({base} + {off}) & {_M32}")
                else:
                    body.append(ind + f"_a = {base}")
                if op is Opcode.SW:
                    body.append(ind + f"if _a < {_MEM_BASE} or _a > {limw} "
                                "or _a & 3:")
                    body.append(ind + "    MC(_a, 4)")
                    body.append(ind + f"W[_a >> 2] = {v}")
                    if record:
                        body.append(ind + f"if len(LS) <= {EFFECT_CAP}: "
                                    f"LS.append((_a, 4, {v}))")
                else:
                    body.append(ind + f"if _a < {_MEM_BASE} or _a > {limb}:")
                    body.append(ind + "    MC(_a, 1)")
                    byte = f"{v} & 255" if v != "0" else "0"
                    if record:
                        body.append(ind + f"_d = {byte}")
                        body.append(ind + "M[_a] = _d")
                        body.append(ind + f"if len(LS) <= {EFFECT_CAP}: "
                                    "LS.append((_a, 1, _d))")
                    else:
                        body.append(ind + f"M[_a] = {byte}")
                continue
            if ALU_FUNCS.get(op) is None:
                raise ValueError(f"cannot translate {instr}")
            d = _rx(instr.dst)
            a = reg_expr(instr.srcs[0]) if instr.srcs else "0"
            b = reg_expr(instr.srcs[1]) if len(instr.srcs) > 1 else "0"
            imm = instr.imm or 0
            expr = alu_expr(op, a, b, imm)
            if expr is not None:
                if d >= 0:
                    body.append(ind + f"r{d} = {expr}")
                # pure expression with a zero destination: no effect at all
            else:
                site(instr)
                j = len(fb_ops)
                fb_ops.append(op.name)
                tgt = f"r{d} = " if d >= 0 else ""
                body.append(ind + f"{tgt}FB[{j}]({a}, {b}, {imm})")

        # --- terminator / chain continuation -----------------------------
        last = pos == len(chain) - 1

        def emit_exit(lines_ind, kind, a="0", b="0"):
            for fl in _flush_lines(fb, seg - cost_run, npt - nop_run,
                                   nbt - br_run):
                body.append(lines_ind + fl)
            body.append(lines_ind + f"return ({kind}, {a}, {b}, fuel)")

        if term is None:
            nonnop_run += cost - nops
            succ = k + 1
            if not last:
                continue  # falls into the next emitted block
            if fb.looped:
                _emit_backedge(body, ind, fb)
            elif succ >= len(proc.blocks):
                emit_exit(ind, 4)
            else:
                emit_exit(ind, 0, str(succ))
            continue

        op = term.op
        if op.is_cond_branch:
            br_run += 1
            nonnop_run += cost - nops
            a = reg_expr(term.srcs[0]) if term.srcs else "0"
            b = reg_expr(term.srcs[1]) if len(term.srcs) > 1 else "0"
            on_taken = term.predict_taken is True
            tidx = index[term.target]
            off_idx = k + 1 if on_taken else tidx
            # off-trace test: negate when the trace follows the taken edge
            body.append(
                ind + f"if {branch_expr(op, a, b, negate=on_taken)}:")
            if term.predict_taken is not None:
                body.append(ind + "    res.mispredict_count += 1")
            emit_exit(ind + "    ", 0, str(off_idx))
            if last:
                on_idx = tidx if on_taken else k + 1
                if fb.looped:
                    _emit_backedge(body, ind, fb)
                else:
                    emit_exit(ind, 0, str(on_idx))
            continue
        nonnop_run += cost - nops
        if op is Opcode.J:
            if not last:
                continue  # target is the next emitted block
            if fb.looped:
                _emit_backedge(body, ind, fb)
            else:
                emit_exit(ind, 0, str(index[term.target]))
            continue
        if op is Opcode.JAL:
            emit_exit(ind, 2, f"{term.target!r}", str(k + 1))
            continue
        if op is Opcode.JR:
            uid = term.origin or term.uid
            emit_exit(ind, 3, reg_expr(term.srcs[0]), str(uid))
            continue
        if op is Opcode.HALT:
            emit_exit(ind, 4)
            continue
        raise ValueError(f"cannot translate terminator {term}")

    # ---- except handler ----------------------------------------------------
    tabs: dict[str, tuple] = {}
    if has_sites:

        def term_expr(tag: str, vals: list[int]):
            if len(set(vals)) == 1:
                return vals[0]
            tabs[tag] = tuple(vals)
            return f"{tag}[_ip]"

        ta = term_expr("TA", [s[0] for s in sites])
        h = "    "
        body.append(h + "except TRAP as _t:")
        h += "    "
        if fb.written:
            body.append(h + "; ".join(
                f"regs[{i}] = r{i}" for i in fb.written))
        base_ic = "res.instr_count += F0 - fuel - np" if fb.has_nops \
            else "res.instr_count += F0 - fuel"
        body.append(h + (base_ic if ta == 0 else f"{base_ic} + ({ta})"))
        if fb.has_nops:
            tn = term_expr("TN", [s[1] for s in sites])
            body.append(h + ("res.nop_count += np" if tn == 0
                             else f"res.nop_count += np + ({tn})"))
        if fb.has_branches:
            tb = term_expr("TB", [s[2] for s in sites])
            body.append(h + ("res.branch_count += bc" if tb == 0
                             else f"res.branch_count += bc - ({tb})"))
        tu = term_expr("TU", [s[3] for s in sites])
        body.append(h + f"_t.instr_uid = {tu}")
        body.append(h + "res.trap = _t")
        body.append(h + "raise")
        if not tabs:
            # every correction folded to a constant: drop site tracking
            for i in reversed(ip_lines):
                body.pop(i)

    # ---- header ------------------------------------------------------------
    params = ["fuel", "dl", "regs=REGS", "M=M", "W=W", "MC=MC",
              "out=OUT", "res=RES", "MONO=MONO"]
    if stats:
        params.append("BE=BE")
    if record:
        params.append("LL=LL")
        params.append("LS=LS")
    if fb_ops:
        params.append(f"FB=FB_{fname}")
    for tag in ("TA", "TN", "TB", "TU"):
        if tag in tabs:
            params.append(f"{tag}={tag}_{fname}")
    head = [f"def {fname}({', '.join(params)}):"]
    head.append("    if dl is not None and MONO() > dl:")
    head.append('        raise WCE(f"exceeded {WCL}s wall clock "')
    head.append('                  f"({res.instr_count:,} instructions '
                'executed)")')
    head.append(f"    if fuel < {seg}:")
    head.append(f"        return (1, {fb.entry}, 0, fuel)")
    if fb.used:
        head.append("    " + "; ".join(f"r{i} = regs[{i}]" for i in fb.used))
    head.append("    F0 = fuel")
    if fb.has_nops:
        head.append("    np = 0")
    if fb.has_branches:
        head.append("    bc = 0")

    if tables_out is not None and (fb_ops or tabs):
        tab = dict(tabs)
        if fb_ops:
            tab["FB"] = tuple(fb_ops)
        tables_out[fname] = tab
    return "\n".join(head + body)


def build_functional_unit(program) -> TranslationUnit:
    """Translate every basic block of ``program`` into superblock sources."""
    unit = TranslationUnit("functional")
    gid_of = {}
    for pname, proc in program.procedures.items():
        for b in proc.blocks:
            gid_of[(pname, b.label)] = len(unit.block_keys)
            unit.block_keys.append((pname, b.label))
    parts = {"plain": [], "stats": [], "record": []}
    for pord, (pname, proc) in enumerate(program.procedures.items()):
        index = {b.label: i for i, b in enumerate(proc.blocks)}
        names = []
        pmemo = {}
        for k in range(len(proc.blocks)):
            fname = f"S{pord}_{k}"
            fb = _FnBuild(pname, proc, k, index, program.mem_size, gid_of)
            parts["plain"].append(
                _emit_functional_fn(fb, fname, False, False, unit.tables))
            parts["stats"].append(
                _emit_functional_fn(fb, fname, True, False, None))
            parts["record"].append(
                _emit_functional_fn(fb, fname, True, True, None))
            names.append(fname)
            unit.translated_blocks += 1
            if fb.used and fb.used[-1] > unit.max_reg:
                unit.max_reg = fb.used[-1]
            if len(fb.chain) > 1:
                unit.superblocks_chained += 1
            if fb.memo_ok:
                pmemo[k] = (fb.key_regs, tuple(fb.written))
        unit.fns[pname] = tuple(names)
        if pmemo:
            unit.memo[pname] = pmemo
    unit.sources = {v: "\n\n".join(lines) for v, lines in parts.items()}
    return unit


def functional_unit(program, nregs=None):
    """Get-or-build the cached translation for ``program``.

    A build failure (undecodable instruction) marks the program
    untranslatable — callers fall back to the interpreter.  The unit rides
    along in ``CompileCache`` payloads because it is stored as a plain
    attribute on the (plain-dataclass) program.

    IR-mutating passes call ``Program.invalidate_caches`` to drop a stale
    unit; ``nregs`` (the simulator's register-file size) is a backstop that
    catches an externally mutated program whose cached unit now references
    out-of-range registers.
    """
    for _ in range(2):
        unit = getattr(program, "_translation_unit", None)
        if unit is None:
            try:
                unit = build_functional_unit(program)
            except Exception:
                unit = False
            program._translation_unit = unit
        if isinstance(unit, TranslationUnit) and nregs is not None \
                and unit.max_reg >= nregs:
            program._translation_unit = None
            continue
        break
    return unit if isinstance(unit, TranslationUnit) else None


def _bind_functional(unit: TranslationUnit, sim, variant: str, be=None):
    """Exec one generated-source variant against a live simulator's state.

    Returns the namespace; generated functions close over the register
    list, memory views and result object through default arguments.
    """
    ns = {
        "REGS": sim.regs, "M": sim.mem._mem, "W": _word_view(sim.mem._mem),
        "MC": sim.mem.check, "OUT": sim.result.output, "RES": sim.result,
        "MONO": time.monotonic, "WCE": WallClockExceeded, "TRAP": Trap,
        "WCL": sim.wall_clock_limit,
    }
    for fname, tab in unit.tables.items():
        for tag, vals in tab.items():
            if tag == "FB":
                ns["FB_" + fname] = tuple(
                    ALU_FUNCS[Opcode[n]] for n in vals)
            else:
                ns[tag + "_" + fname] = vals
    if variant != "plain":
        ns["BE"] = be if be is not None else [0] * len(unit.block_keys)
    if variant == "record":
        ns["LL"] = []
        ns["LS"] = []
    exec(_code_for(unit.sources[variant]), ns)
    return ns


def run_functional_translated(sim, entry_name: str, fuel: int, deadline):
    """Drive a FunctionalSim through its translated superblocks.

    Mirrors ``FunctionalSim._run_fast`` observables exactly; adds the
    trace-reuse memo layer for looping superblocks.
    """
    from repro.hw.functional import EXIT_TOKEN, _RA_INDEX, _TOKEN_STRIDE

    unit = functional_unit(sim.program)
    stats_on = sim._stats_hot is not None
    ns = _bind_functional(unit, sim, "stats" if stats_on else "plain")
    fnmap = {p: tuple(ns[n] for n in names)
             for p, names in unit.fns.items()}
    BE = ns.get("BE")
    result = sim.result
    regs = sim.regs
    tokens = sim._tokens
    M = sim.mem._mem
    WV = _word_view(M)

    # per-run memo state: [phase, execs, lookups, hits, {key: trace},
    #                      key_regs, written_regs]
    mstates = {p: [None] * len(names) for p, names in unit.fns.items()}
    for p, pmemo in unit.memo.items():
        for idx2, (kregs, wregs) in pmemo.items():
            mstates[p][idx2] = [0, 0, 0, 0, {}, kregs, wregs]
    hits = misses = invals = 0
    rb = None  # lazily bound record-variant namespace

    def _record(pname2, idx2, mst2, key, f, dl):
        """Execute via the recording variant and memoize the trace."""
        nonlocal rb
        if rb is None:
            rns = _bind_functional(unit, sim, "record", be=BE)
            rb = ({p: tuple(rns[n] for n in names)
                   for p, names in unit.fns.items()},
                  rns["LL"], rns["LS"], rns)
        rfns, LL, LS, _ = rb
        LL.clear()
        LS.clear()
        i0, n0 = result.instr_count, result.nop_count
        b0, m0 = result.branch_count, result.mispredict_count
        pre = BE[:] if BE is not None else None
        f0 = f
        k, a, b, f = rfns[pname2][idx2](f, dl)
        # a fuel handoff exit is fuel-dependent, not input-dependent, and
        # saturated effect logs mean the trace was truncated: don't insert
        if k != 1 and len(LL) <= EFFECT_CAP and len(LS) <= EFFECT_CAP \
                and len(mst2[4]) < TRACE_CAP:
            bed = ()
            if pre is not None:
                bed = tuple((g, BE[g] - v) for g, v in enumerate(pre)
                            if BE[g] != v)
            mst2[4][key] = (
                tuple(LL), tuple(LS),
                tuple(regs[i] for i in mst2[6]),
                result.instr_count - i0, result.nop_count - n0,
                result.branch_count - b0, result.mispredict_count - m0,
                f0 - f, (k, a, b), bed)
        return k, a, b, f

    proc = entry_name
    pf = fnmap[proc]
    ml = mstates[proc]
    idx = 0
    try:
        while True:
            mst = ml[idx]
            if mst is None:
                k, a, b, fuel = pf[idx](fuel, deadline)
            else:
                ph = mst[0]
                if ph == 1:
                    key = tuple(regs[i] for i in mst[5])
                    entries = mst[4]
                    ent = entries.get(key)
                    mst[2] += 1
                    if ent is not None:
                        ok = True
                        for ea, es, ev in ent[0]:
                            if (M[ea] if es == 1 else WV[ea >> 2]) != ev:
                                ok = False
                                break
                        if ok and fuel >= ent[7]:
                            wregs = mst[6]
                            wvals = ent[2]
                            for i2 in range(len(wregs)):
                                regs[wregs[i2]] = wvals[i2]
                            for ea, es, ep in ent[1]:
                                if es == 4:
                                    WV[ea >> 2] = ep
                                else:
                                    M[ea] = ep
                            result.instr_count += ent[3]
                            result.nop_count += ent[4]
                            result.branch_count += ent[5]
                            result.mispredict_count += ent[6]
                            fuel -= ent[7]
                            if BE is not None:
                                for g, d2 in ent[9]:
                                    BE[g] += d2
                            mst[3] += 1
                            hits += 1
                            k, a, b = ent[8]
                        elif not ok:
                            del entries[key]
                            invals += 1
                            misses += 1
                            k, a, b, fuel = _record(
                                proc, idx, mst, key, fuel, deadline)
                        else:
                            # not enough fuel to legally replay: execute,
                            # letting the handoff logic fire exactly
                            k, a, b, fuel = pf[idx](fuel, deadline)
                    else:
                        misses += 1
                        if len(entries) < TRACE_CAP:
                            k, a, b, fuel = _record(
                                proc, idx, mst, key, fuel, deadline)
                        else:
                            k, a, b, fuel = pf[idx](fuel, deadline)
                        if mst[2] >= DISABLE_LOOKUPS and mst[3] == 0:
                            mst[0] = 2
                            entries.clear()
                elif ph == 0:
                    mst[1] += 1
                    if mst[1] >= HOT_THRESHOLD:
                        mst[0] = 1
                    k, a, b, fuel = pf[idx](fuel, deadline)
                else:  # disabled
                    k, a, b, fuel = pf[idx](fuel, deadline)
            if k == 0:
                idx = a
                continue
            if k == 2:
                token = sim._next_token
                sim._next_token += _TOKEN_STRIDE
                tokens[token] = (proc, b)
                regs[_RA_INDEX] = token
                proc = a
                pf = fnmap[a]
                ml = mstates[a]
                idx = 0
                continue
            if k == 3:
                if a == EXIT_TOKEN:
                    return result
                frame = tokens.get(a)
                if frame is None:
                    trap = Trap(TrapKind.ADDRESS_ERROR, addr=a, instr_uid=b)
                    result.trap = trap
                    raise trap
                proc, idx = frame
                pf = fnmap[proc]
                ml = mstates[proc]
                continue
            if k == 1:
                return sim._interp(proc, a, fuel, deadline)
            return result  # k == 4: halt / program end
    finally:
        # The generated functions and their namespace form a reference
        # cycle that also holds the simulated memory: break it so the
        # memory is freed when the run ends, not at the next full gc.
        ns.clear()
        if rb is not None:
            rb[3].clear()
        if BE is not None:
            execs = sim._stats_hot.block_execs
            bkeys = unit.block_keys
            for g, n in enumerate(BE):
                if n:
                    kk = bkeys[g]
                    execs[kk] = execs.get(kk, 0) + n
        sim.translate_counters = {
            "translated_blocks": unit.translated_blocks,
            "superblocks_chained": unit.superblocks_chained,
            "trace_hits": hits,
            "trace_misses": misses,
            "trace_invalidations": invals,
        }


# =========================================================================
# Superscalar engine
# =========================================================================
#
# The scheduled machine is translated at basic-block granularity: a block
# whose every issue slot is sequential (boost level 0) compiles to one
# generated function that unrolls the scoreboard interlock, the
# read-before-write issue phases and the opcode semantics of its cycle
# rows, then publishes the terminator outcome through ``sim._ctl`` exactly
# like ``_resolve_terminator`` does.  Block-end boosting machinery —
# shadow commit/squash, the exception shift buffer, recovery vectoring —
# stays in ``SuperscalarSim._block_end``, which the driver reuses
# verbatim, so boosted state flowing *across* a translated block behaves
# identically.  Blocks containing boosted slots fall back to the decoded
# row interpreter (``_run_sched_rows`` below, the same inner loop as
# ``_run_fast``).

def _sched_eligible(block) -> bool:
    """A scheduled block translates when every slot is sequential and
    decodable; boosted slots need the shadow machinery per instruction."""
    for row in block.cycles:
        for instr in row:
            if instr is None:
                continue
            if instr.boost != 0:
                return False
            op = instr.op
            if op is Opcode.NOP or op is Opcode.PRINT or op.is_load \
                    or op.is_store or instr.is_terminator:
                continue
            if ALU_FUNCS.get(op) is None:
                return False
    return True


def _emit_superscalar_fn(proc, k, mem_size, fname, tables_out) -> str:
    """Emit the generated function for one all-sequential scheduled block."""
    block = proc.blocks[k]
    limw = mem_size - 4
    limb = mem_size - 1
    sites: list[tuple[int, int, int]] = []  # (TA, TN, TU)
    ip_lines: list[int] = []
    fb_ops: list[str] = []
    body: list[str] = []
    ind = "        "
    nn = 0   # non-NOP slots retired so far (slot order == retire order)
    nnop = 0
    total = sum(1 for row in block.cycles for i in row
                if i is not None and i.op is not Opcode.NOP)
    nops = sum(1 for row in block.cycles for i in row
               if i is not None and i.op is Opcode.NOP)
    ctl_kind = None

    def texpr(reg) -> str:
        i = _rx(reg)
        return f"_t{i}" if i >= 0 else "0"

    def site(instr) -> None:
        sites.append((nn, nnop, instr.origin or instr.uid))
        ip_lines.append(len(body))
        body.append(ind + f"_ip = {len(sites) - 1}")

    for row in block.cycles:
        entries = [i for i in row if i is not None]
        watch = sorted({_rx(s) for i in entries for s in i.srcs
                        if _rx(s) >= 0})
        # scoreboard interlock: the whole issue packet waits
        for i in watch:
            body.append(ind + f"_r = RG({i}, 0)")
            body.append(ind + "if _r > now: now = _r")
        # phase 1: all operands read before any result is written
        if watch:
            body.append(ind + "; ".join(
                f"_t{i} = regs[{i}]" for i in watch))
        # phase 2: execute in slot order
        for instr in entries:
            op = instr.op
            if op is Opcode.NOP:
                nnop += 1
                continue
            nn += 1
            if instr.is_terminator:
                if op.is_cond_branch:
                    a = texpr(instr.srcs[0]) if instr.srcs else "0"
                    b = texpr(instr.srcs[1]) if len(instr.srcs) > 1 else "0"
                    body.append(
                        ind + f"SIM._ctl = CT if "
                        f"{branch_expr(op, a, b)} else CF")
                    ctl_kind = "cond"
                elif op is Opcode.J:
                    body.append(ind + "SIM._ctl = CJ")
                    ctl_kind = "jump"
                elif op is Opcode.JAL:
                    body.append(ind + "_k = SIM._next_token")
                    body.append(ind + "SIM._next_token += 16")
                    body.append(ind + "SIM._tokens[_k] = FR")
                    body.append(ind + "regs[31] = _k")
                    body.append(ind + "RD[31] = now + 1")
                    body.append(ind + "SIM._ctl = CA")
                    ctl_kind = "call"
                elif op is Opcode.JR:
                    body.append(
                        ind + f'SIM._ctl = ("return", '
                        f"{texpr(instr.srcs[0]) if instr.srcs else '0'})")
                    ctl_kind = "return"
                elif op is Opcode.HALT:
                    body.append(ind + "SIM._ctl = CH")
                    ctl_kind = "halt"
                else:
                    raise ValueError(f"cannot translate terminator {instr}")
                continue
            if op is Opcode.PRINT:
                a = texpr(instr.srcs[0]) if instr.srcs else "0"
                if a == "0":
                    body.append(ind + "out.append(0)")
                else:
                    body.append(
                        ind + f"out.append({a} - 4294967296 "
                        f"if {a} >= 2147483648 else {a})")
                continue
            if op.is_load:
                d = _rx(instr.dst)
                base = texpr(instr.srcs[0])
                off = instr.imm or 0
                site(instr)
                if off:
                    body.append(ind + f"_a = ({base} + {off}) & {_M32}")
                else:
                    body.append(ind + f"_a = {base}")
                if op is Opcode.LW:
                    body.append(ind + f"if _a < {_MEM_BASE} or _a > {limw} "
                                "or _a & 3:")
                    body.append(ind + "    MC(_a, 4)")
                    if d >= 0:
                        body.append(ind + f"regs[{d}] = W[_a >> 2]; "
                                    f"RD[{d}] = now + 2")
                else:
                    body.append(ind + f"if _a < {_MEM_BASE} or _a > {limb}:")
                    body.append(ind + "    MC(_a, 1)")
                    if d >= 0:
                        if op is Opcode.LB:
                            body.append(ind + "_v = M[_a]")
                            body.append(
                                ind + f"regs[{d}] = _v + 4294967040 "
                                f"if _v >= 128 else _v; RD[{d}] = now + 2")
                        else:
                            body.append(ind + f"regs[{d}] = M[_a]; "
                                        f"RD[{d}] = now + 2")
                continue
            if op.is_store:
                v = texpr(instr.srcs[0])
                base = texpr(instr.srcs[1])
                off = instr.imm or 0
                site(instr)
                if off:
                    body.append(ind + f"_a = ({base} + {off}) & {_M32}")
                else:
                    body.append(ind + f"_a = {base}")
                if op is Opcode.SW:
                    body.append(ind + f"if _a < {_MEM_BASE} or _a > {limw} "
                                "or _a & 3:")
                    body.append(ind + "    MC(_a, 4)")
                    body.append(ind + f"W[_a >> 2] = {v}")
                else:
                    body.append(ind + f"if _a < {_MEM_BASE} or _a > {limb}:")
                    body.append(ind + "    MC(_a, 1)")
                    byte = f"{v} & 255" if v != "0" else "0"
                    body.append(ind + f"M[_a] = {byte}")
                continue
            d = _rx(instr.dst)
            a = texpr(instr.srcs[0]) if instr.srcs else "0"
            b = texpr(instr.srcs[1]) if len(instr.srcs) > 1 else "0"
            imm = instr.imm or 0
            expr = alu_expr(op, a, b, imm)
            if expr is not None:
                if d >= 0:
                    body.append(ind + f"regs[{d}] = {expr}; "
                                f"RD[{d}] = now + {op.latency}")
            else:
                site(instr)
                j = len(fb_ops)
                fb_ops.append(op.name)
                if d >= 0:
                    body.append(ind + f"regs[{d}] = FB[{j}]({a}, {b}, "
                                f"{imm}); RD[{d}] = now + {op.latency}")
                else:
                    body.append(ind + f"FB[{j}]({a}, {b}, {imm})")
        body.append(ind + "now += 1")

    tabs: dict[str, tuple] = {}
    tail: list[str] = []
    if sites:

        def term_expr(tag: str, vals: list[int]):
            if len(set(vals)) == 1:
                return vals[0]
            tabs[tag] = tuple(vals)
            return f"{tag}[_ip]"

        ta = term_expr("TA", [s[0] for s in sites])
        tail.append("    except TRAP as _t:")
        tail.append("        SIM.now = now")
        if ta != 0:
            tail.append(f"        res.instr_count += {ta}")
        tn = term_expr("TN", [s[1] for s in sites])
        if tn != 0:
            tail.append(f"        res.nop_count += {tn}")
        tu = term_expr("TU", [s[2] for s in sites])
        tail.append(f"        _t.instr_uid = {tu}")
        tail.append("        res.trap = _t")
        tail.append("        raise")
        if not tabs:
            for i in reversed(ip_lines):
                body.pop(i)
        body = ["    try:"] + body + tail
    else:
        body = [ln[4:] for ln in body]
    if total:
        body.append(f"    res.instr_count += {total}")
    if nops:
        body.append(f"    res.nop_count += {nops}")
    body.append("    return now")

    params = ["now", "regs=REGS", "RD=RD", "RG=RG", "M=M", "W=W", "MC=MC",
              "out=OUT", "res=RES", "SIM=SIM"]
    if ctl_kind == "cond":
        params += [f"CT=CT_{fname}", f"CF=CF_{fname}"]
    elif ctl_kind == "jump":
        params.append(f"CJ=CJ_{fname}")
    elif ctl_kind == "call":
        params += [f"FR=FR_{fname}", f"CA=CA_{fname}"]
    elif ctl_kind == "halt":
        params.append(f"CH=CH_{fname}")
    if fb_ops:
        params.append(f"FB=FB_{fname}")
    for tag in ("TA", "TN", "TU"):
        if tag in tabs:
            params.append(f"{tag}={tag}_{fname}")
    if tables_out is not None and (fb_ops or tabs):
        tab = dict(tabs)
        if fb_ops:
            tab["FB"] = tuple(fb_ops)
        tables_out[fname] = tab
    return "\n".join([f"def {fname}({', '.join(params)}):"] + body)


def build_superscalar_unit(sched) -> TranslationUnit:
    unit = TranslationUnit("superscalar")
    parts = []
    for pord, (pname, proc) in enumerate(sched.procedures.items()):
        names = []
        pctl = {}
        for k, block in enumerate(proc.blocks):
            if not _sched_eligible(block):
                names.append(None)
                continue
            fname = f"B{pord}_{k}"
            parts.append(_emit_superscalar_fn(
                proc, k, sched.program.mem_size, fname, unit.tables))
            term = next((i for row in block.cycles for i in row
                         if i is not None and i.is_terminator), None)
            pctl[k] = None if term is None else term.op.name
            names.append(fname)
            unit.translated_blocks += 1
        unit.fns[pname] = tuple(names)
        unit.ctl[pname] = pctl
    unit.sources = {"sched": "\n\n".join(parts)}
    return unit


def superscalar_unit(sched):
    """Get-or-build the cached translation for a scheduled program."""
    unit = getattr(sched, "_translation_unit", None)
    if unit is None:
        try:
            unit = build_superscalar_unit(sched)
        except Exception:
            unit = False
        sched._translation_unit = unit
    return unit if isinstance(unit, TranslationUnit) else None


def _bind_superscalar(unit: TranslationUnit, sim):
    ns = {
        "REGS": sim.regs, "RD": sim._ready, "RG": sim._ready.get,
        "M": sim.mem._mem, "W": _word_view(sim.mem._mem),
        "MC": sim.mem.check, "OUT": sim.result.output, "RES": sim.result,
        "SIM": sim, "TRAP": Trap,
    }
    for fname, tab in unit.tables.items():
        for tag, vals in tab.items():
            if tag == "FB":
                ns["FB_" + fname] = tuple(
                    ALU_FUNCS[Opcode[n]] for n in vals)
            else:
                ns[tag + "_" + fname] = vals
    # terminator outcome tuples, prebuilt so generated code publishes one
    # constant through sim._ctl instead of building a tuple per block
    for pname, pctl in unit.ctl.items():
        proc = sim.sched.procedures[pname]
        names = unit.fns[pname]
        for k, opname in pctl.items():
            fname = names[k]
            if opname is None:
                continue
            term = next(i for row in proc.blocks[k].cycles for i in row
                        if i is not None and i.is_terminator)
            if opname in ("BEQ", "BNE", "BLEZ", "BGTZ", "BLTZ", "BGEZ"):
                ns["CT_" + fname] = ("cond", term, True)
                ns["CF_" + fname] = ("cond", term, False)
            elif opname == "J":
                ns["CJ_" + fname] = ("jump", term.target)
            elif opname == "JAL":
                ns["FR_" + fname] = (proc, k + 1)
                ns["CA_" + fname] = ("call", term.target)
            elif opname == "HALT":
                ns["CH_" + fname] = ("halt",)
    exec(_code_for(unit.sources["sched"]), ns)
    return ns


def _run_sched_rows(sim, rows, now: int) -> int:
    """Decoded-row fallback for blocks with boosted slots: the same inner
    loop as ``SuperscalarSim._run_fast`` for one block."""
    regs = sim.regs
    ready = sim._ready
    ready_get = ready.get
    shadow_read = sim.shadow.read
    shadow_write = sim.shadow.write
    storebuf = sim.storebuf
    mem = sim.mem
    mem_check = mem.check
    result = sim.result
    output = result.output
    st = sim._stats_hot
    for entries, watch in rows:
        for idx in watch:
            r = ready_get(idx, 0)
            if r > now:
                now = r
        values = []
        for entry in entries:
            boost = entry[2]
            if boost:
                vals = []
                for idx in entry[3]:
                    if idx < 0:
                        vals.append(0)
                    else:
                        hit = shadow_read(idx, boost)
                        vals.append(regs[idx] if hit is None else hit)
                values.append(tuple(vals))
            else:
                values.append(tuple(0 if idx < 0 else regs[idx]
                                    for idx in entry[3]))
        for entry, vals in zip(entries, values):
            tag = entry[0]
            if tag == 5:  # _S_NOP
                result.nop_count += 1
                continue
            result.instr_count += 1
            instr = entry[1]
            boost = entry[2]
            if boost:
                sim.boosted_executed += 1
                if st is not None:
                    st.note_boosted(boost)
            if tag == 4:  # _S_TERM
                sim.now = now
                sim._resolve_terminator(instr, vals)
                continue
            if tag == 3:  # _S_PRINT
                v = vals[0] & 0xFFFFFFFF
                output.append(v - 0x100000000 if v >= 0x80000000 else v)
                continue
            if tag == 0:  # _S_ALU
                _, _, _, _, dst, lat, imm, fn = entry
                try:
                    value = fn(vals[0] if vals else 0,
                               vals[1] if len(vals) > 1 else 0, imm)
                except Trap as trap:
                    fix = sim._trap(trap, instr)
                    if fix is None:
                        continue
                    value = fix
                if dst >= 0:
                    if boost:
                        shadow_write(dst, boost, value & 0xFFFFFFFF)
                    else:
                        regs[dst] = value & 0xFFFFFFFF
                    ready[dst] = now + lat
            elif tag == 1:  # _S_LOAD
                _, _, _, _, dst, lat, off, size, signed = entry
                addr = (vals[0] + off) & 0xFFFFFFFF
                try:
                    mem_check(addr, size)
                except Trap as trap:
                    fix = sim._trap(trap, instr)
                    if fix is None:
                        continue
                    value = fix
                else:
                    if storebuf is not None:
                        raw = storebuf.load(mem, addr, size, boost)
                    else:
                        raw = mem.read_bytes(addr, size)
                    value = int.from_bytes(raw, "little")
                    if signed and value >= 0x80:
                        value -= 0x100
                if dst >= 0:
                    if boost:
                        shadow_write(dst, boost, value & 0xFFFFFFFF)
                    else:
                        regs[dst] = value & 0xFFFFFFFF
                    ready[dst] = now + lat
            else:  # _S_STORE
                _, _, _, _, off, size = entry
                value, base = vals
                addr = (base + off) & 0xFFFFFFFF
                try:
                    mem_check(addr, size)
                except Trap as trap:
                    sim._trap(trap, instr)
                    continue
                if boost:
                    data = (value & 0xFFFFFFFF).to_bytes(4, "little")[:size]
                    storebuf.store(boost, addr, data)
                elif size == 4:
                    mem.store_word(addr, value)
                else:
                    mem.store_byte(addr, value)
        now += 1
    return now


def run_superscalar_translated(sim, entry_name):
    """Drive a SuperscalarSim through translated blocks, falling back to
    the decoded row interpreter for blocks with boosted slots.  Block-end
    commit/squash/recovery is ``sim._block_end``, shared with the
    interpreters."""
    from repro.hw.errors import CycleLimitExceeded

    unit = superscalar_unit(sim.sched)
    ns = _bind_superscalar(unit, sim)
    fnmap = {p: tuple(ns[n] if n else None for n in names)
             for p, names in unit.fns.items()}
    if sim._decoded is None:
        sim._decoded = sim._decode()
    decoded = sim._decoded
    proc = sim.sched.proc(entry_name or sim.program.entry)
    tf = fnmap[proc.name]
    blocks = decoded[proc.name]
    block_idx = 0
    deadline = (time.monotonic() + sim.wall_clock_limit
                if sim.wall_clock_limit is not None else None)
    monotonic = time.monotonic
    max_cycles = sim.max_cycles
    result = sim.result
    st = sim._stats_hot
    execs = st.block_execs if st is not None else None
    now = sim.now
    try:
        while True:
            if now > max_cycles:
                sim.now = now
                raise CycleLimitExceeded(f"exceeded {max_cycles} cycles")
            if deadline is not None and monotonic() > deadline:
                sim.now = now
                raise WallClockExceeded(
                    f"exceeded {sim.wall_clock_limit}s wall clock "
                    f"({now:,} cycles simulated)")
            sim._ctl = None
            sim._cur = (proc, block_idx)
            if execs is not None:
                k = (proc.name, block_idx)
                execs[k] = execs.get(k, 0) + 1
            f = tf[block_idx]
            if f is not None:
                now = f(now)
            else:
                now = _run_sched_rows(sim, blocks[block_idx], now)
            sim.now = now
            nxt = sim._block_end(proc, block_idx, blocks[block_idx])
            now = sim.now  # recovery may have advanced the clock
            if nxt is None:
                result.cycle_count = now
                return result
            proc, block_idx = nxt
            tf = fnmap[proc.name]
            blocks = decoded[proc.name]
    finally:
        ns.clear()  # break the namespace cycle, as in the functional run
        sim.translate_counters = {
            "translated_blocks": unit.translated_blocks,
            "superblocks_chained": unit.superblocks_chained,
            "trace_hits": 0,
            "trace_misses": 0,
            "trace_invalidations": 0,
        }
