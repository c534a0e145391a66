"""Tier-2 trace JIT: record hot loop paths, compile to guarded closures.

When a block head's execution count crosses
``MachineConfig.trace_hot_threshold``, the dispatcher calls
:func:`record_and_compile`: the machine *actually executes* one loop
iteration through the interpreter while the recorder notes each
retired instruction (lifted through :mod:`repro.machine.ir`) and the
control edge it took.  The recorded path -- loop body across the
back-edge, taken branches, inlined leaf calls -- is compiled into one
Python closure that runs whole iterations back to back without
touching the dispatch loop.

The compiler applies four optimisations the superblock tier cannot
(they need a loop-shaped region and the IR's def/use sets):

* **Register allocation** -- guest registers live in Python locals for
  the whole loop; memory (``cpu.regs``) is only written at exits.
* **Base-page guards** -- accesses whose address is ``base-reg +
  constant`` (tracked symbolically, including through ``lea``/``mov``/
  ``add``) are grouped per base register; one guard per iteration
  proves the whole group hits a single resident, unwatched,
  non-copy-on-write page, then every access in the group becomes a
  direct ``bytearray`` read/write at a fixed offset.
* **Store-to-load forwarding** -- a load provably reading what a prior
  store in the same iteration wrote (same symbolic base, same offset
  and width, no intervening may-alias store or helper) reuses the
  stored value and never touches memory.  Groups containing such loads
  still guard readability, so a W-only page faults exactly as the
  interpreter would.
* **Lazy flags** -- arithmetic results do not materialise zf/lt on the
  hot path; the pending result is kept in ``_t`` and branch guards
  substitute ``_t == 0`` / ``_t > 2147483647`` directly.  Exits,
  fault-capable calls and the loop close materialise, so architectural
  flags are exact wherever they can be observed.

ALU results, compares and branch guards are rendered from
:data:`repro.machine.ir.SEMANTICS`, and constants fold by evaluating
the same templates; loads, stores, pushes and pops follow
:data:`repro.machine.ir.MEMORY`, grouped accesses through
:func:`~repro.machine.ir.buffer_access` and ungrouped ones through
:func:`~repro.machine.ir.checked_access` (without red zones, which
never trace).  So the trace tier computes what the block tier does.

Exactness contract (same as blocks.py, held by the differential
suites): every exit -- guard failure, budget exhaustion, epoch bump
after a slow store, or a machine fault -- writes back registers,
flags, ``cpu.ip``, ``current_ip`` and the retired-instruction count
byte-identically to the interpreter executing the same prefix.
Machines with PMA modules or red zones never trace (the per
-instruction checks those modes need are not replicated here), and
observed machines never reach this tier at all.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.errors import ExecutionLimitExceeded, MachineFault
from repro.isa.instructions import WORD_MASK
from repro.machine.ir import (
    EFFECTIVE_ADDRESS,
    MEMORY,
    SEMANTICS,
    TEMPLATE_HELPERS,
    ControlKind,
    IRInst,
    buffer_access,
    checked_access,
    evaluate,
    fields,
    lift_at,
    moved_sp,
    operands,
    template_fields,
)
from repro.machine.memory import _U32

_M = WORD_MASK
_SIGN = 0x80000000
_PAGE = 4096

#: Longest recorded trace (instructions per loop iteration).
TRACE_MAX_INSNS = 256


def _signed(value: int) -> int:
    value &= _M
    return value - 0x100000000 if value >= _SIGN else value


class TraceStep(NamedTuple):
    """One recorded instruction and the control edge it took."""

    ir: IRInst
    #: Raw encoding at record time (re-verified before install).
    raw: bytes
    #: ``cpu.ip`` after the step: the observed successor address.
    observed: int


class CompiledTrace(NamedTuple):
    """One installed hot trace, keyed by its loop-head address."""

    #: Called as ``fn(machine, cpu, budget_remaining)``; returns 1 when
    #: a loop-top guard failed with the machine parked exactly at the
    #: head (the dispatcher must run the block path once to make
    #: progress), else None.
    fn: Callable
    head: int
    #: Pages holding the recorded code (the invalidation-index keys).
    pages: tuple
    #: Instructions retired per complete loop iteration.
    count: int
    #: Generated Python source, kept for debugging and tests.
    source: str


class _TraceAbort(Exception):
    """Recording or compilation cannot produce a sound trace."""


def record_and_compile(machine, head: int, max_instructions: int,
                       start_count: int):
    """Record one hot-loop iteration at ``head`` and compile it.

    The machine genuinely executes while recording (the budget check
    mirrors ``_run_steps`` so :class:`ExecutionLimitExceeded` fires at
    the identical count and IP).  Returns a :class:`CompiledTrace`, or
    None when the path will not trace -- it reaches a syscall/halt,
    exceeds :data:`TRACE_MAX_INSNS` without closing the loop, an
    instruction cannot be lifted, or the recorded bytes changed under
    a store the trace itself performed.
    """
    cpu = machine.cpu
    memory = machine.memory
    steps: list[TraceStep] = []
    try:
        while True:
            if machine._status is not None:
                return None
            if machine.instructions_executed - start_count >= max_instructions:
                raise ExecutionLimitExceeded(
                    f"exceeded {max_instructions} instructions", cpu.ip
                )
            irx = lift_at(memory, cpu.ip)
            if irx is None:
                return None
            if irx.kind in (ControlKind.SYS, ControlKind.HALT):
                return None
            if len(steps) >= TRACE_MAX_INSNS:
                return None
            raw = bytes(memory.read_bytes(irx.addr, irx.length))
            machine.step()
            steps.append(TraceStep(irx, raw, cpu.ip))
            if cpu.ip == head:
                break
    except MachineFault:
        # The fault is real execution and must propagate, but the head
        # is blacklisted so a faulting loop is not re-recorded on
        # every subsequent run.
        machine._trace_failed.add(head)
        raise
    try:
        source, fn = _TraceCompiler(steps, head).compile()
    except _TraceAbort:
        return None
    # Self-modifying recording: a store later in the iteration may
    # have rewritten an earlier instruction's bytes.  The trace is
    # only sound for the bytes it was lifted from.
    for step in steps:
        try:
            current = bytes(memory.read_bytes(step.ir.addr, step.ir.length))
        except MachineFault:
            return None
        if current != step.raw:
            return None
    pages = tuple(sorted({step.ir.addr >> 12 for step in steps}))
    return CompiledTrace(fn, head, pages, len(steps), source)


class _TraceCompiler:
    """Three-phase compiler: symbolic analysis, grouping, emission.

    Phase A walks the recorded steps with a symbolic register state
    (constant / base-register-plus-offset / unknown) deciding
    store-to-load forwarding; phase B groups symbolic memory accesses
    per base register and demotes groups whose offset span cannot fit
    one page; phase C re-runs the identical symbolic walk emitting
    Python source, consulting the recorded decisions.
    """

    def __init__(self, steps: list[TraceStep], head: int) -> None:
        self.steps = steps
        self.head = head
        self.close_ip = steps[-1].ir.addr
        reads: set[int] = set()
        writes: set[int] = set()
        for step in steps:
            reads |= step.ir.reads
            writes |= step.ir.writes
        self.used_regs = sorted(reads | writes)
        self.written_regs = sorted(writes)
        self.has_helpers = any(
            s.ir.kind in (ControlKind.CALL, ControlKind.CALL_REG,
                          ControlKind.RET)
            for s in steps
        )
        self.mem_writing_helpers = any(
            s.ir.kind in (ControlKind.CALL, ControlKind.CALL_REG)
            for s in steps
        )
        # Phase A results, consulted by phase C:
        self.load_fwd: dict[int, tuple[str, object]] = {}
        self.store_temp: dict[int, str] = {}
        self.access_rec: list[tuple] = []    # (k, kind, size, basekey, off)
        self.access_group: dict[int, tuple[int, int]] = {}
        self.groups: list[dict] = []
        self.has_dyn_store = False

    # -- symbolic values: ('c', v) | ('r', base, off) | None --------------------------

    @staticmethod
    def _sym_plus(sym, imm: int):
        if sym is None:
            return None
        if sym[0] == "c":
            return ("c", (sym[1] + imm) & _M)
        return ("r", sym[1], sym[2] + _signed(imm))

    # -- phase A ----------------------------------------------------------------------

    def _analyze(self) -> None:
        sym = {r: ("r", r, 0) for r in range(16)}
        regver = {r: 0 for r in range(16)}
        # live forwarding candidates:
        # dict(step, basekey, off, size, src, ver, vsym, byte, temp_val)
        live: list[dict] = []

        def addr_key(asym, size):
            if asym is None:
                return None, None
            if asym[0] == "c":
                addr = asym[1]
                if (addr & 4095) + size > 4096:
                    return None, None   # page-straddling constant access
                return ("c", addr >> 12), addr
            return ("r", asym[1]), asym[2]

        def kill_for_store(basekey, off, size):
            survivors = []
            for st in live:
                if basekey is None or st["basekey"] is None:
                    continue              # dynamic store: kills everything
                if st["basekey"] != basekey:
                    continue              # different base may alias: kill
                if off is None or st["off"] is None:
                    continue
                if st["off"] < off + size and off < st["off"] + st["size"]:
                    continue              # same base, overlapping bytes
                survivors.append(st)
            live[:] = survivors

        def try_forward(k, basekey, off, size, byte):
            if basekey is None:
                return None
            for st in reversed(live):
                if (st["basekey"] == basekey and st["off"] == off
                        and st["size"] == size and st["byte"] == byte):
                    return st
            return None

        def forward_expr(st) -> tuple[str, object]:
            vsym = st["vsym"]
            if vsym is not None and vsym[0] == "c":
                return str(vsym[1]), vsym
            if (vsym is not None and vsym[0] == "r"
                    and regver[vsym[1]] == 0):
                base, off = vsym[1], vsym[2]
                if off == 0:
                    return f"r{base}", vsym
                return f"(r{base} + {off & _M}) & 4294967295", vsym
            src = st["src"]
            if regver[src] == st["ver"]:
                expr = f"r{src}"
                if st["byte"]:
                    expr = f"r{src} & 255"
                return expr, vsym
            # Source clobbered between store and load: stash a temp at
            # the store site.
            self.store_temp[st["step"]] = st["temp_val"]
            return f"_f{st['step']}", vsym

        def write_reg(reg, value_sym):
            sym[reg] = value_sym
            regver[reg] += 1

        self.sym_at: list[dict] = []
        for k, step in enumerate(self.steps):
            # Snapshot the symbolic state entering step k: phase C
            # folds from these exact values instead of re-deriving
            # them, so the two walks can never diverge.
            self.sym_at.append(dict(sym))
            irx = step.ir
            op = irx.opcode
            ops = irx.operands
            kind = irx.kind
            sem = SEMANTICS.get(op)
            access = MEMORY.get(op)
            if op in (0x00, 0x29, 0x01):            # nop / land (halt filtered)
                continue
            if access is not None:                  # in ir.Access's order
                reg, size = ops[0], access.size
                byte = size == 1
                if not access.sp_step:
                    asym = self._sym_plus(sym[ops[1].base], ops[1].disp)
                else:                               # push: moved SP; pop: SP
                    moved = self._sym_plus(sym[8], access.sp_step & _M)
                    asym = moved if access.write else sym[8]
                basekey, off = addr_key(asym, size)
                self.access_rec.append(
                    (k, "w" if access.write else "r", size, basekey, off))
                if access.write:
                    vsym = sym[reg]
                    if byte:
                        vsym = (("c", vsym[1] & 255) if vsym is not None
                                and vsym[0] == "c" else None)
                    kill_for_store(basekey, off, size)
                    if basekey is None:
                        self.has_dyn_store = True
                    else:                           # push sp: the old SP, _v
                        temp = ("_v" if access.sp_step and reg == 8
                                else access.stored(f"r{reg}"))
                        live.append(dict(step=k, basekey=basekey, off=off,
                                         size=size, src=reg,
                                         ver=regver[reg], vsym=vsym,
                                         byte=byte, temp_val=temp))
                else:
                    st = try_forward(k, basekey, off, size, byte)
                    vsym = None
                    if st is not None:
                        expr, vsym = forward_expr(st)
                        self.load_fwd[k] = (expr, vsym)
                if access.sp_step:
                    write_reg(8, moved)
                if not access.write:                # the destination last
                    write_reg(reg, vsym)
                    if st is None and basekey is not None:
                        # Redundant-load elimination: the slot now
                        # provably holds r{reg}, so a later load of the
                        # same bytes forwards like a store would.
                        live.append(dict(step=k, basekey=basekey, off=off,
                                         size=size, src=reg,
                                         ver=regver[reg], vsym=None,
                                         byte=byte, temp_val=f"r{reg}"))
            elif sem is not None and sem.result is not None:
                write_reg(ops[0], self._result_sym(irx, sym))
            elif sem is not None or op == 0x28:     # cmp / jcc / chk
                continue
            elif kind in (ControlKind.JUMP, ControlKind.JUMP_REG):
                continue
            elif kind in (ControlKind.CALL, ControlKind.CALL_REG):
                live.clear()                        # helper writes memory
                write_reg(8, None)
            elif kind is ControlKind.RET:
                write_reg(8, None)
            else:  # pragma: no cover - recorder filters sys/halt
                raise _TraceAbort(f"unsupported opcode 0x{op:02x}")

    @staticmethod
    def _result_sym(irx: IRInst, sym):
        """Symbolic value a :data:`SEMANTICS` op writes (or None).

        A constant when every operand its template reads is one -- the
        template is evaluated, except for div/mod, which can fault; a
        base+offset when the op is linear in one base-relative operand
        and a constant.
        """
        sem = SEMANTICS[irx.opcode]
        a, b_reg, imm = operands(irx)
        va = sym[a]
        vb = ("c", imm & _M) if b_reg is None else sym[b_reg]
        values = {"a": va, "b": vb}
        read = template_fields(sem.result)
        if not irx.can_fault and all(
                values[name] is not None and values[name][0] == "c"
                for name in read):
            return ("c", evaluate(sem.result,
                                  **{name: values[name][1] for name in read}))
        ka, kb = sem.linear or (0, 0)
        for k_rel, rel, k_other, other in ((ka, va, kb, vb),
                                           (kb, vb, ka, va)):
            if k_rel != 1 or rel is None or rel[0] != "r":
                continue
            if k_other == 0:
                return rel
            if other is not None and other[0] == "c":
                return ("r", rel[1], rel[2] + k_other * _signed(other[1]))
        return None

    # -- phase B ----------------------------------------------------------------------

    def _build_groups(self) -> None:
        by_base: dict = {}
        order: list = []
        for k, kind, size, basekey, off in self.access_rec:
            if basekey is None:
                continue
            if basekey not in by_base:
                by_base[basekey] = []
                order.append(basekey)
            by_base[basekey].append((k, kind, size, off))
        for basekey in order:
            accs = by_base[basekey]
            min_off = min(off for _, _, _, off in accs)
            max_end = max(off + size for _, _, size, off in accs)
            if basekey[0] == "r" and max_end - min_off > _PAGE:
                continue                            # demoted: dynamic access
            gid = len(self.groups)
            group = dict(
                gid=gid,
                basekey=basekey,
                min_off=min_off,
                max_end=max_end,
                has_read=any(kind == "r" for _, kind, _, _ in accs),
                has_write=any(kind == "w" for _, kind, _, _ in accs),
            )
            self.groups.append(group)
            for k, _, _, off in accs:
                if basekey[0] == "c":
                    self.access_group[k] = (gid, off & 4095)
                else:
                    self.access_group[k] = (gid, off - min_off)

    # -- phase C ----------------------------------------------------------------------

    def compile(self):
        self._analyze()
        self._build_groups()
        source = self._emit()
        namespace = {"_MF": MachineFault, "_u32": _U32, **TEMPLATE_HELPERS}
        exec(compile(source, f"<trace 0x{self.head:08x}>", "exec"), namespace)
        return source, namespace["_trace"]

    def _emit(self) -> str:
        steps = self.steps
        total = len(steps)
        uses_epoch = self.has_dyn_store or self.mem_writing_helpers
        needs_fr = any(kind == "r" for _, kind, _, _, _ in self.access_rec)
        needs_fw = any(kind == "w" for _, kind, _, _, _ in self.access_rec)
        needs_mem = bool(self.access_rec)
        needs_cw = any(not g["has_write"] for g in self.groups)
        out: list[str] = []

        def emit(line: str, ind: int = 3) -> None:
            out.append("    " * ind + line)

        # Emission-time flag state: "pending" is None (the locals are
        # architectural) or the flags a result defined but did not yet
        # store -- ("res", {flag: expression over _t}) or ("const",
        # {flag: bool}); "ult" is None or its known value.
        state = {"pending": None, "ult": None}

        def mat_lines() -> list[str]:
            pending = state["pending"]
            if pending is None:
                return []
            return [f"{name} = {value}" for name, value in pending[1].items()]

        def mat(ind: int) -> None:
            for line in mat_lines():
                emit(line, ind)

        def mat_main() -> None:
            mat(3)
            state["pending"] = None

        def flag_exprs() -> dict[str, str]:
            exprs = {"zf": "zf", "lt": "lt", "ult": "ult"}
            if state["ult"] is not None:
                exprs["ult"] = str(state["ult"])
            pending = state["pending"]
            if pending is not None:
                for name, value in pending[1].items():
                    exprs[name] = (f"({value})" if pending[0] == "res"
                                   else str(value))
            return exprs

        def exit_block(ind: int, ip_expr, retired: str,
                       current_ip=None, ret: str = "None") -> None:
            mat(ind)
            for reg in self.written_regs:
                emit(f"regs[{reg}] = r{reg}", ind)
            emit("cpu.zf = zf; cpu.lt = lt; cpu.ult = ult", ind)
            if current_ip is not None:
                emit(f"m.current_ip = {current_ip}", ind)
            emit(f"cpu.ip = {ip_expr}", ind)
            emit(f"m.instructions_executed += {retired}", ind)
            emit(f"return {ret}", ind)

        def markers(k: int, ind: int = 3) -> None:
            irx = steps[k].ir
            emit(f"m.current_ip = {irx.addr}; n = {k}; "
                 f"eip = {irx.next_addr}", ind)

        def operand(sym, reg: int | None, imm: int = 0) -> int | str:
            """A template operand: its known constant, else ``r<reg>``."""
            value = ("c", imm & _M) if reg is None else sym.get(reg)
            if value is not None and value[0] == "c":
                return value[1]
            return f"r{reg}"

        def address(base: int, disp: int) -> str:
            """``[base + disp]``; a zero displacement adds nothing."""
            if disp == 0:
                return f"r{base}"
            return EFFECTIVE_ADDRESS.format(
                **fields(a=f"r{base}", b=disp & _M))

        def group_off(k: int) -> str:
            gid, delta = self.access_group[k]
            group = self.groups[gid]
            if group["basekey"][0] == "c":
                return str(delta)
            return f"_o{gid}" if delta == 0 else f"_o{gid} + {delta}"

        def epoch_bail(k: int, ip_expr, ind: int) -> None:
            emit(f"if m._block_epoch != _e:", ind)
            exit_block(ind + 1, ip_expr, f"_nb + {k + 1}")

        def dyn_access(k: int, access, addr: str, data: str, fwd) -> None:
            # An ungrouped access (ir.checked_access) loading into or
            # storing ``data``: the fast-page test, else the checked
            # accessor -- for a store, followed by an epoch check.  A
            # forwarded load still needs the test (a W-only page must
            # fault as the interpreter would).
            setup, test, fast, slow = checked_access(access, addr, data)
            if setup is not None:
                emit(setup)
            emit(f"if {test}:")
            emit(fast if fwd is None else f"{data} = {fwd[0]}", 4)
            emit("else:")
            mat(4)
            markers(k, 4)
            emit(slow, 4)
            if access.write:
                epoch_bail(k, steps[k].ir.next_addr, 4)

        # -- prologue -----------------------------------------------------------------
        out.append("def _trace(m, cpu, _lim):")
        emit("regs = cpu.regs", 1)
        for reg in self.used_regs:
            emit(f"r{reg} = regs[{reg}]", 1)
        emit("zf = cpu.zf; lt = cpu.lt; ult = cpu.ult", 1)
        emit(f"n = 0; eip = {self.head}; _nb = 0", 1)
        if self.has_helpers:
            emit("_hp = 0", 1)
        if needs_mem:
            emit("_mem = m.memory._pages", 1)
            emit("_pk = _u32.pack_into; _up = _u32.unpack_from", 1)
        if needs_fr:
            emit("_fr = m.memory._fast_read", 1)
        if needs_fw:
            emit("_fw = m.memory._fast_write", 1)
        if needs_cw:
            emit("_cw = m.memory._cow_pages", 1)
        if uses_epoch:
            emit("_e = m._block_epoch", 1)
        emit("try:", 1)
        emit("while True:", 2)

        # -- loop-top page guards -----------------------------------------------------
        for group in self.groups:
            gid = group["gid"]
            basekey = group["basekey"]
            checks = []
            if group["has_write"]:
                checks.append(f"_p{gid} not in _fw")
            if group["has_read"]:
                checks.append(f"_p{gid} not in _fr")
            if not group["has_write"]:
                checks.append(f"_p{gid} in _cw")
            if basekey[0] == "c":
                emit(f"_p{gid} = {basekey[1]}")
                emit(f"if {' or '.join(checks)}:")
            else:
                base = basekey[1]
                lo = group["min_off"] & _M
                hi = (group["max_end"] - 1) & _M
                emit(f"_a{gid} = r{base}" if lo == 0 else
                     f"_a{gid} = (r{base} + {lo}) & 4294967295")
                emit(f"_p{gid} = _a{gid} >> 12")
                span = (f"((r{base} + {hi}) & 4294967295) >> 12 "
                        f"!= _p{gid}")
                emit(f"if {span} or {' or '.join(checks)}:")
            emit("if _nb:", 4)
            emit(f"m.current_ip = {self.close_ip}", 5)
            exit_block(4, self.head, "_nb", ret="1")
            emit(f"_b{gid} = _mem[_p{gid}]")
            if basekey[0] != "c":
                emit(f"_o{gid} = _a{gid} & 4095")

        # -- body ---------------------------------------------------------------------
        for k, step in enumerate(steps):
            irx = step.ir
            op = irx.opcode
            ops = irx.operands
            kind = irx.kind
            sym = self.sym_at[k]
            nxt = irx.next_addr
            grouped = k in self.access_group
            fwd = self.load_fwd.get(k)
            sem = SEMANTICS.get(op)
            access = MEMORY.get(op)
            if op in (0x00, 0x29):
                continue
            elif access is not None:                # in ir.Access's order
                reg = ops[0]
                push = access.sp_step and access.write
                pop = access.sp_step and not access.write
                # A load's destination, or what a store writes.
                data = access.stored(f"r{reg}") if access.write else f"r{reg}"
                if push:
                    if reg == 8:                    # push sp: the old SP
                        emit("_v = r8")
                        data = "_v"
                    emit(f"r8 = {moved_sp(access, 'r8')}")
                if grouped:
                    gid = self.access_group[k][0]
                    fast = buffer_access(access, f"_b{gid}", group_off(k),
                                         data)
                    emit(fast if fwd is None else f"{data} = {fwd[0]}")
                    if pop and reg != 8:            # pop sp keeps the load
                        emit(f"r8 = {moved_sp(access, 'r8')}")
                elif pop:
                    dyn_access(k, access, "r8", "_v", fwd)
                    if reg != 8:
                        emit(f"r8 = {moved_sp(access, 'r8')}")
                    emit(f"r{reg} = _v")
                else:
                    addr = "r8"
                    if not access.sp_step:
                        addr = "_a"
                        emit(f"_a = {address(ops[1].base, ops[1].disp)}")
                    dyn_access(k, access, addr, data, fwd)
                if k in self.store_temp:
                    emit(f"_f{k} = {self.store_temp[k]}")
            elif sem is not None and sem.linear == (0, 1):
                # mov: a plain copy (folding it would save nothing).
                _, b_reg, imm = operands(irx)
                src = imm if b_reg is None else f"r{b_reg}"
                emit(f"r{ops[0]} = {sem.result.format(**fields(b=src))}")
            elif sem is not None and sem.result is not None:
                d = ops[0]                          # ALU / lea
                a, b_reg, imm = operands(irx)
                res = self._result_sym(irx, sym)
                if res is not None and res[0] == "c":
                    emit(f"r{d} = {res[1]}")
                    if sem.flags:
                        state["pending"] = ("const", {
                            name: evaluate(template, r=res[1])
                            for name, template in sem.flags.items()})
                elif not sem.flags:                 # lea
                    emit(f"r{d} = {address(a, imm)}")
                else:
                    if irx.can_fault:               # div / mod
                        mat_main()
                        markers(k)
                    # Known constants are inlined, except into div/mod,
                    # whose operands stay in registers.
                    known = {} if irx.can_fault else sym
                    f = fields(a=operand(known, a),
                               b=operand(known, b_reg, imm), r="_t")
                    emit(f"_t = {sem.result.format(**f)}")
                    emit(f"r{d} = _t")
                    state["pending"] = ("res", {
                        name: template.format(**f)
                        for name, template in sem.flags.items()})
            elif sem is not None and sem.flags:     # cmp rr / cmp ri
                a, b_reg, imm = operands(irx)
                va, vb = operand(sym, a), operand(sym, b_reg, imm)
                if isinstance(va, int) and isinstance(vb, int):
                    values = {name: evaluate(template, a=va, b=vb)
                              for name, template in sem.flags.items()}
                else:
                    f = fields(a=va, b=vb)
                    values = {name: template.format(**f)
                              for name, template in sem.flags.items()}
                    if vb == 0:                     # nothing unsigned
                        values["ult"] = False       # is below zero
                emit("; ".join(f"{name} = {value}"
                               for name, value in values.items()))
                state["ult"] = (values["ult"]
                                if isinstance(values["ult"], bool) else None)
                state["pending"] = None
            elif op == 0x28:                        # chk
                mat_main()
                markers(k)
                emit(f"m.bounds_check(r{ops[0]}, {ops[1] & _M})")
            elif kind is ControlKind.JUMP:
                continue
            elif kind is ControlKind.BRANCH:
                taken = step.observed == irx.target
                other = irx.next_addr if taken else irx.target
                known = {}
                if state["ult"] is not None:
                    known["ult"] = state["ult"]
                pending = state["pending"]
                if pending is not None and pending[0] == "const":
                    known.update(pending[1])
                if irx.flags_read <= known.keys():
                    if evaluate(sem.predicate, **known) != taken:
                        raise _TraceAbort("static branch contradicts "
                                          "recording")
                    continue                        # guard always holds
                cond = sem.predicate.format(**flag_exprs())
                emit(f"if not ({cond}):" if taken else f"if ({cond}):")
                exit_block(4, other, f"_nb + {k + 1}",
                           current_ip=irx.addr)
            elif kind is ControlKind.JUMP_REG:
                mat_main()
                markers(k)
                emit(f"_j = r{ops[0]}")
                emit("m.check_indirect_target(_j)")
                emit(f"if _j != {step.observed}:")
                exit_block(4, "_j", f"_nb + {k + 1}")
            elif kind is ControlKind.CALL:
                mat_main()
                markers(k)
                emit("regs[8] = r8")
                emit("_hp = 1")
                emit(f"m.push_return_address({nxt})")
                emit("r8 = regs[8]")
                emit("_hp = 0")
                epoch_bail(k, irx.target, 3)
            elif kind is ControlKind.CALL_REG:
                mat_main()
                markers(k)
                emit(f"_j = r{ops[0]}")
                emit("m.check_indirect_target(_j)")
                emit("regs[8] = r8")
                emit("_hp = 1")
                emit(f"m.push_return_address({nxt})")
                emit("r8 = regs[8]")
                emit("_hp = 0")
                emit(f"if _j != {step.observed} or m._block_epoch != _e:")
                exit_block(4, "_j", f"_nb + {k + 1}")
            elif kind is ControlKind.RET:
                mat_main()
                markers(k)
                emit("regs[8] = r8")
                emit("_hp = 1")
                emit("_j = m.pop_return_address()")
                emit("r8 = regs[8]")
                emit("_hp = 0")
                emit(f"if _j != {step.observed}:")
                exit_block(4, "_j", f"_nb + {k + 1}")
            else:  # pragma: no cover - recorder filters sys/halt
                raise _TraceAbort(f"unsupported kind {kind}")

        # -- loop close ---------------------------------------------------------------
        mat_main()
        emit(f"_nb += {total}")
        emit(f"if _nb + {total} > _lim:")
        exit_block(4, self.head, "_nb", current_ip=self.close_ip)

        # -- fault handler ------------------------------------------------------------
        emit("except _MF:", 1)
        for reg in self.written_regs:
            if reg == 8 and self.has_helpers:
                emit("if not _hp:", 2)
                emit("regs[8] = r8", 3)
            else:
                emit(f"regs[{reg}] = r{reg}", 2)
        emit("cpu.zf = zf; cpu.lt = lt; cpu.ult = ult", 2)
        emit("cpu.ip = eip", 2)
        emit("m.instructions_executed += _nb + n", 2)
        emit("raise", 2)
        return "\n".join(out) + "\n"
