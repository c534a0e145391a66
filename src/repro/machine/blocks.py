"""Basic-block translation: fuse decoded instructions into closures.

PR 1's decode cache removed the per-instruction *decode* cost but kept
the per-instruction *dispatch* cost: every retired instruction still
pays ``Machine.step`` -> cache probe -> ``cpu.execute`` -> handler.
This module removes that too.  On a block-cache miss the machine calls
:func:`compile_block`, which decodes forward from the miss address to
the next control transfer (or page boundary / PMA entry point /
:data:`MAX_BLOCK_INSNS`) and compiles the whole run into one Python
function: registers aliased to a local, flags threaded through locals,
immediates and effective-address arithmetic baked in as literals, the
instruction counter bumped once per block, and ``cpu.ip`` committed
once at the block end.

Fidelity rules (the attacker model makes these load-bearing -- an
exploit's machine state is part of the semantics):

* **Fetch checks per block, not per instruction.**  A block is only
  built on a PERM_X page and dies on any ``set_perms``/``map_region``
  (the machine's permission-change listener flushes the block cache),
  so a cached block implies every per-instruction fetch-permission
  check would pass -- the same invariant the decode cache relies on.
* **Exact fault states.**  Every site that can fault records the
  retired-instruction count (``n``) and the interpreter's fault-time
  IP (``eip``: the instruction's own address for pre-execute PMA
  faults, the *next* address for execute-phase faults, matching
  ``step()`` setting ``cpu.ip = next_ip`` before ``cpu.execute``).
  The shared ``except`` handler writes flags/IP/count back before
  re-raising, so a fault mid-block leaves the machine byte-identical
  to the interpreter faulting on the same instruction.
* **Memory accesses stay policy-checked.**  Loads, stores, pushes and
  pops are rendered from :data:`repro.machine.ir.MEMORY` by
  :func:`repro.machine.ir.checked_access`: the fast-path test
  ``Machine.read_word`` & co. use -- page in
  ``Memory._fast_read``/``_fast_write``, and with red zones no poisoned
  byte under the access (``_redzones`` and its page index, read at
  block entry since ``restore`` rebinds them) -- and the checked
  accessor for anything else: page straddles, permission denials
  (which kernel mode may still allow), unmapped pages, poisoned bytes,
  and writes to watched code pages or snapshot-frozen pages (whose
  copy-on-write break must run first) -- so every fault and side
  effect is the interpreter's own.  Memory events and the store's
  epoch check are the block's own.  PMA blocks, and red-zoned blocks
  until the machine takes a snapshot, always call the accessors.
* **One semantics table.**  ALU results, compare flags and branch
  predicates are rendered from :data:`repro.machine.ir.SEMANTICS`, the
  same templates the trace compiler uses.
* **Self-modifying code.**  A store onto a watched code page
  invalidates that page's blocks mid-flight -- including, possibly,
  the block doing the writing.  Such writes take the slow path
  (watched pages are never in ``_fast_write``), and after each
  one the block compares the machine's block epoch: if any block died,
  the function writes back exact architectural state and returns, and
  the dispatch loop re-translates from the bytes just written
  (tests/test_differential_blocks.py holds this to the interpreter's
  behaviour byte for byte).
* **PMA.**  When protected modules exist at translation time the block
  embeds the interpreter's per-instruction ``check_fetch`` (module
  tracking, entry-point rule, no-execute-data rule); module-table
  changes flush the block cache, so the embedded checks can never be
  stale.  Blocks additionally never extend *across* a module entry
  point, keeping block heads aligned with legitimate entry addresses.

* **Block chaining.**  A block whose exit target is statically known
  (direct jump, either edge of a conditional branch, a direct call, or
  a fall-through end) returns its successor's :class:`CompiledBlock`
  through a *chain cell* -- a one-element list, shared with the
  machine's chain registry -- so the dispatch loop carries execution
  straight into the next block without re-probing the block cache.
  Cells are filled when the target block is compiled and nulled when
  it is invalidated (page write, perm/PMA flush, trace installation),
  so a chained hop can never reach a stale block: a nulled cell simply
  drops control back to the dispatcher, which re-translates.  Python
  has no tail calls, so chaining is trampoline-style (return the
  successor, let the dispatcher call it) rather than a direct call --
  a direct call would grow the host stack without bound on loops.

* **Observers.**  A machine whose hub is *dispatch-transparent* (see
  ``Observer.dispatch_transparent``: per-event subscribers only -- the
  invariant monitors) keeps executing blocks: the hub's subscriber
  tuples are baked into the generated code, transfer events are
  emitted at the terminators after the instruction-count bump (the
  interpreter's exact ordering), memory events on the inline
  single-page fast paths are emitted by generated code (exact IP
  committed first; slow-path accesses go through the observed
  accessors, which emit themselves), and the fault handler emits
  ``on_fault`` after writing back exact state.  Attach/detach flushes
  translations whenever the baked-in hub would change, so compiled
  emission can never go stale.  PMA-active machines refuse to compile
  blocks under a hub (the per-instruction path emits their
  enter/exit events).  Any *non*-transparent hub makes ``Machine.run``
  fall back to the per-instruction path, as before, so the event
  stream keeps its per-instruction exactness (``on_instruction``
  and the decode-cache hooks are inherently per-tier).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.errors import MachineFault
from repro.isa.instructions import WORD_MASK
from repro.isa.opcodes import BLOCK_END_OPCODES
from repro.machine.ir import (
    EFFECTIVE_ADDRESS,
    MEMORY,
    SEMANTICS,
    TEMPLATE_HELPERS,
    IRInst,
    checked_access,
    fields,
    lift_block,
    moved_sp,
    operands,
)
from repro.machine.memory import PERM_X, _PAGE_SHIFT, _U32

#: The longest run of instructions fused into one block.  Long enough
#: to swallow any realistic straight-line run on a 4 KiB page, small
#: enough to keep translation latency negligible.
MAX_BLOCK_INSNS = 64

_M = WORD_MASK  # 4294967295


class CompiledBlock(NamedTuple):
    """One translated basic block, keyed by its head address."""

    #: The generated function; called as ``fn(machine, machine.cpu)``
    #: and returning the chained successor block (or None to drop back
    #: to the dispatcher's cache probe).
    fn: Callable
    #: Masked address of the first instruction (the cache key).
    head: int
    #: Page the whole block lives on (the invalidation-index key).
    page: int
    #: Instructions retired by one complete execution of the block.
    count: int
    #: The generated Python source, kept for debugging and tests.
    source: str
    #: Static-exit chain cells as ``(target_head, cell)`` pairs; each
    #: cell is a one-element list the generated code returns from, and
    #: the machine fills/nulls as the target is compiled/invalidated.
    exits: tuple = ()


def compile_block(machine, head: int) -> CompiledBlock | None:
    """Translate the basic block starting at ``head``, or None.

    Returns None when the head is not on an executable page or its
    first instruction cannot be decoded -- the caller falls back to the
    interpreter, which reproduces the exact fault.
    """
    memory = machine.memory
    masked = head & WORD_MASK
    page = masked >> _PAGE_SHIFT
    if not memory.page_perms(page) & PERM_X:
        return None
    pma_active = bool(machine.pma.modules)
    hub = machine._blocks_hub
    if hub is not None and pma_active:
        # The per-instruction path owns PMA enter/exit event emission;
        # blocks with both module tracking and a hub baked in are not
        # worth their complexity.  Dispatch falls back to step().
        return None
    entry_points: frozenset[int] = frozenset()
    if pma_active:
        entry_points = frozenset().union(
            *(module.entry_points for module in machine.pma.modules)
        )
    insns = lift_block(memory, masked, MAX_BLOCK_INSNS, entry_points)
    if not insns:
        return None
    redzones = machine.config.redzones
    # Red-zoned blocks inline memory only on a fork server: inlining doubles
    # their compile time, which one-shot ASan runs never earn back.
    inline_mem = not pma_active and (not redzones or memory.has_snapshot)
    source, exit_targets = _emit(insns, masked, pma_active, inline_mem,
                                 redzones, hub)
    cells = [[None] for _ in exit_targets]
    namespace = {"_MF": MachineFault, "_up": _U32.unpack_from,
                 "_pk": _U32.pack_into, **TEMPLATE_HELPERS}
    if hub is not None:
        namespace.update(_hj=hub.jump, _hb=hub.branch, _hc=hub.call,
                         _hr=hub.ret, _hf=hub.fault,
                         _hmr=hub.read, _hmw=hub.write)
    for index, cell in enumerate(cells):
        namespace[f"_x{index}"] = cell
    exec(compile(source, f"<block 0x{masked:08x}>", "exec"), namespace)
    exits = tuple(zip(exit_targets, cells))
    return CompiledBlock(namespace["_block"], masked, page, len(insns),
                         source, exits)


def _emit(insns: list[IRInst], head: int, pma_active: bool, inline_mem: bool,
          redzones: bool, hub=None) -> tuple[str, list[int]]:
    """Generate the block function source and its static-exit targets.

    With a (dispatch-transparent) ``hub``, transfer and fault event
    emission is compiled in, matching ``Machine._step_observed``'s
    ordering exactly: events fire after the instruction-count bump,
    and ``on_fault`` fires after exact-state writeback.  Emission
    loops are only generated for hooks that have subscribers -- safe
    because any hub change flushes the block cache.
    """
    last_index = len(insns) - 1
    ev_jump = hub is not None and bool(hub.jump)
    ev_branch = hub is not None and bool(hub.branch)
    ev_call = hub is not None and bool(hub.call)
    ev_ret = hub is not None and bool(hub.ret)
    ev_fault = hub is not None and bool(hub.fault)
    # Memory events on the inline fast path are emitted by generated
    # code (with the exact IP committed first); slow-path accesses go
    # through the observed instance accessors, which emit themselves.
    ev_read = hub is not None and bool(hub.read)
    ev_write = hub is not None and bool(hub.write)
    #: Emission appended after the shared count-bump tail (reg-target
    #: terminators commit ``cpu.ip`` inside the try and fall through).
    tail_events: list[str] = []
    accesses = [MEMORY.get(irx.opcode) for irx in insns]
    uses_epoch = any(access is not None and access.write
                     for access in accesses[:-1])
    uses_mem = inline_mem and any(access is not None for access in accesses)
    exit_targets: list[int] = []

    def chain_cell(target: int) -> str:
        exit_targets.append(target)
        return f"_x{len(exit_targets) - 1}[0]"
    lines = [
        "def _block(m, cpu):",
        "    regs = cpu.regs",
        "    zf = cpu.zf; lt = cpu.lt; ult = cpu.ult",
        f"    n = 0; eip = {head}",
    ]
    if uses_epoch:
        lines.append("    _e = m._block_epoch")
    if uses_mem:
        # Stable aliases: these containers are mutated, never replaced.
        lines.append("    _mem = m.memory._pages; _fr = m.memory._fast_read; "
                     "_fw = m.memory._fast_write")
        if redzones:
            # Read per entry: ``Machine.restore`` rebinds both.
            lines.append("    _rz = m._redzones; _rzp = m._redzone_pages")
    if pma_active:
        lines.append("    _cf = m.pma.check_fetch")
    lines.append("    try:")
    emit = lines.append

    def set_flags(sem, f: dict) -> None:
        emit("        " + "; ".join(f"{name} = {template.format(**f)}"
                                    for name, template in sem.flags.items()))

    for k, irx in enumerate(insns):
        ip = irx.addr
        nxt = irx.next_addr
        op = irx.opcode
        ops = irx.operands
        last = k == last_index

        if pma_active:
            # Pre-execute module check: a PMA fault here leaves the
            # interpreter's cpu.ip at the *instruction's* address.
            emit(f"        m.current_ip = {ip}; n = {k}; eip = {ip}")
            emit(f"        m.current_module = _cf(m.current_module, {ip})")

        #: Execute-phase fault markers: the interpreter has already
        #: advanced cpu.ip to next_ip when a handler faults.
        markers = f"m.current_ip = {ip}; n = {k}; eip = {nxt}"

        def writeback() -> None:
            emit("        cpu.zf = zf; cpu.lt = lt; cpu.ult = ult")
            emit(f"        m.current_ip = {ip}")

        def access(acc, addr: str, operand: str) -> None:
            # Load into or store ``operand`` (ir.checked_access).  A
            # slow-path store may have killed this very block, so it is
            # followed by an epoch check that bails out with exact state
            # and lets the dispatcher re-translate the written bytes.
            setup, test, fast, slow = checked_access(acc, addr, operand,
                                                     redzones)
            pad = "        "
            if inline_mem:
                if setup is not None:
                    emit(pad + setup)
                emit(f"{pad}if {test}:")
                emit(f"{pad}    {fast}")
                if ev_write if acc.write else ev_read:
                    hooks, event = (("_hmw", "on_write") if acc.write
                                    else ("_hmr", "on_read"))
                    emit(f"{pad}    m.current_ip = {ip}")
                    emit(f"{pad}    for _ob in {hooks}: _ob.{event}(m, "
                         f"{addr}, {acc.size}, {operand})")
                emit(pad + "else:")
                pad += "    "
            emit(pad + markers)
            emit(pad + slow)
            if acc.write and uses_epoch and not last:
                emit(pad + "if m._block_epoch != _e:")
                emit(pad + "    cpu.zf = zf; cpu.lt = lt; cpu.ult = ult")
                emit(pad + f"    cpu.ip = {nxt}")
                emit(pad + f"    m.instructions_executed += {k + 1}")
                emit(pad + "    return")

        sem = SEMANTICS.get(op)
        acc = MEMORY.get(op)
        if op in (0x00, 0x29):  # nop / land
            if not pma_active:
                emit("        pass")
        elif acc is not None:  # in the order ir.Access states
            reg = ops[0]
            if not acc.sp_step:  # load / store / loadb / storeb
                base, disp = ops[1].base, ops[1].disp
                emit("        _a = " + EFFECTIVE_ADDRESS.format(
                    **fields(a=f"regs[{base}]", b=disp)))
                access(acc, "_a", acc.stored(f"regs[{reg}]")
                       if acc.write else f"regs[{reg}]")
            elif acc.write:  # push
                emit(f"        _v = regs[{reg}]")
                emit(f"        _sp = {moved_sp(acc, 'regs[8]')}")
                emit("        regs[8] = _sp")
                access(acc, "_sp", "_v")
            else:  # pop
                emit("        _sp = regs[8]")
                access(acc, "_sp", "_v")
                emit(f"        regs[8] = {moved_sp(acc, '_sp')}")
                emit(f"        regs[{reg}] = _v")
        elif sem is not None and sem.result is not None:  # mov/ALU/lea
            a, b_reg, imm = operands(irx)
            f = fields(a=f"regs[{a}]", r="_t",
                       b=imm if b_reg is None else f"regs[{b_reg}]")
            if irx.can_fault:  # div / mod: DivisionFault
                emit(f"        {markers}")
            if sem.flags:
                emit(f"        _t = {sem.result.format(**f)}")
                emit(f"        regs[{ops[0]}] = _t")
                set_flags(sem, f)
            else:
                emit(f"        regs[{ops[0]}] = {sem.result.format(**f)}")
        elif sem is not None and sem.flags:  # cmp: operands into locals
            a, b_reg, imm = operands(irx)
            if b_reg is None:
                emit(f"        _a = regs[{a}]")
                set_flags(sem, fields(a="_a", b=imm))
            else:
                emit(f"        _a = regs[{a}]; _b = regs[{b_reg}]")
                set_flags(sem, fields(a="_a", b="_b"))
        elif op == 0x28:  # chk
            emit(f"        {markers}")
            emit(f"        m.bounds_check(regs[{ops[0]}], {ops[1] & _M})")
        elif op == 0x19:  # jmp imm (terminator, chained)
            writeback()
            target = ops[0] & _M
            emit(f"        cpu.ip = {target}")
            emit(f"        m.instructions_executed += {len(insns)}")
            if ev_jump:
                emit(f"        for _o in _hj: _o.on_jump(m, {ip}, "
                     f"{target}, False)")
            emit(f"        return {chain_cell(target)}")
        elif sem is not None:  # jcc (terminator, both edges chained)
            writeback()
            target = ops[0] & _M
            cond = sem.predicate.format(zf="zf", lt="lt", ult="ult")
            emit(f"        if {cond}:")
            emit(f"            cpu.ip = {target}")
            emit(f"            m.instructions_executed += {len(insns)}")
            if ev_branch:
                # The interpreter derives "taken" from new_ip !=
                # next_ip, so a branch whose target *is* the next
                # instruction never reads as taken.
                emit(f"            for _o in _hb: _o.on_branch(m, {ip}, "
                     f"{target}, {target != nxt})")
            emit(f"            return {chain_cell(target)}")
            emit(f"        cpu.ip = {nxt}")
            emit(f"        m.instructions_executed += {len(insns)}")
            if ev_branch:
                emit(f"        for _o in _hb: _o.on_branch(m, {ip}, "
                     f"{target}, False)")
            emit(f"        return {chain_cell(nxt)}")
        elif op == 0x1A:  # jmp reg (terminator, CFI check may fault)
            writeback()
            emit(f"        n = {k}; eip = {nxt}")
            emit(f"        _t = regs[{ops[0]}]")
            emit("        m.check_indirect_target(_t)")
            emit("        cpu.ip = _t")
            if ev_jump:
                tail_events.append(
                    f"    for _o in _hj: _o.on_jump(m, {ip}, cpu.ip, True)")
        elif op == 0x23:  # call imm (terminator, stack push may fault;
            # chained -- any fault raises before the successor return)
            writeback()
            target = ops[0] & _M
            emit(f"        n = {k}; eip = {nxt}")
            emit(f"        m.push_return_address({nxt})")
            emit(f"        cpu.ip = {target}")
            emit(f"        m.instructions_executed += {len(insns)}")
            if ev_call:
                emit(f"        for _o in _hc: _o.on_call(m, {ip}, "
                     f"{target}, {nxt}, False)")
            emit(f"        return {chain_cell(target)}")
        elif op == 0x24:  # call reg (terminator)
            writeback()
            emit(f"        n = {k}; eip = {nxt}")
            emit(f"        _t = regs[{ops[0]}]")
            emit("        m.check_indirect_target(_t)")
            emit(f"        m.push_return_address({nxt})")
            emit("        cpu.ip = _t")
            if ev_call:
                tail_events.append(
                    f"    for _o in _hc: _o.on_call(m, {ip}, cpu.ip, "
                    f"{nxt}, True)")
        elif op == 0x25:  # ret (terminator, pop/shadow check may fault)
            writeback()
            emit(f"        n = {k}; eip = {nxt}")
            emit("        cpu.ip = m.pop_return_address()")
            if ev_ret:
                tail_events.append(
                    f"    for _o in _hr: _o.on_ret(m, {ip}, cpu.ip)")
        elif op == 0x01:  # halt (terminator)
            writeback()
            emit(f"        cpu.ip = {nxt}")
            emit("        m.halt()")
        elif op == 0x26:  # sys (terminator; the handler must see the
            # same committed state the interpreter gives it)
            writeback()
            emit(f"        n = {k}; eip = {nxt}")
            emit(f"        cpu.ip = {nxt}")
            emit(f"        m.do_syscall({ops[0]})")
        else:  # pragma: no cover - decode() only yields table opcodes
            raise AssertionError(f"untranslatable opcode 0x{op:02x}")

    last_insn = insns[last_index]
    if last_insn.opcode not in BLOCK_END_OPCODES:
        # Fall-through end (page boundary / entry point / size limit):
        # the successor head is static, so this edge chains too.
        emit("        cpu.zf = zf; cpu.lt = lt; cpu.ult = ult")
        emit(f"        m.current_ip = {last_insn.addr}")
        emit(f"        cpu.ip = {last_insn.next_addr}")
        emit(f"        m.instructions_executed += {len(insns)}")
        emit(f"        return {chain_cell(last_insn.next_addr)}")
    if ev_fault:
        # State is written back *before* on_fault, so the observers
        # see the interpreter's exact fault-time machine (current_ip
        # was set by the faulting site's markers).
        lines += [
            "    except _MF as _exc:",
            "        cpu.zf = zf; cpu.lt = lt; cpu.ult = ult",
            "        cpu.ip = eip",
            "        m.instructions_executed += n",
            "        for _o in _hf: _o.on_fault(m, _exc, m.current_ip)",
            "        raise",
        ]
    else:
        lines += [
            "    except _MF:",
            "        cpu.zf = zf; cpu.lt = lt; cpu.ult = ult",
            "        cpu.ip = eip",
            "        m.instructions_executed += n",
            "        raise",
        ]
    lines.append(f"    m.instructions_executed += {len(insns)}")
    lines.extend(tail_events)
    return "\n".join(lines) + "\n", exit_targets
