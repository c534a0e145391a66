"""Decoded intermediate representation for VN32 instructions.

The execution tiers share one explicit instruction-record layer
between ``repro.isa`` decode and code generation: an :class:`IRInst`
pins down, per instruction, everything a compiler pass needs without
re-deriving it from opcode bytes --

* which architectural registers it reads and writes (``push``/``pop``/
  ``call``/``ret`` include SP, since the interpreter's handlers move it
  through ``machine.push_word``/``pop_word``);
* which FLAGS it defines and uses (``add``-family results define
  zf/lt only; ``cmp`` defines zf/lt/ult; conditional branches read the
  subset their predicate tests) -- the def/use sets that let the trace
  compiler elide flag materialisation when a later instruction
  overwrites FLAGS before any use;
* whether it can fault at execute time (memory access, div/mod, CFI
  checks, shadow-stack checks, bounds checks, syscalls);
* its control-flow kind and static target/fall-through addresses.

It also holds the two per-opcode tables both translation tiers render
their code from, so the tiers cannot drift apart: :data:`SEMANTICS`,
expression templates for every register result, compare and branch
predicate (the trace compiler also folds constants by evaluating
them), and :data:`MEMORY`, the width, direction and SP step of every
load, store, push and pop, with :func:`checked_access` rendering the
inline fast-page access the four ``Machine`` accessors also make.
The IR's memory def/use sets derive from :data:`MEMORY` too.
``cpu.py`` stays hand-written: it is the reference both tables are
checked against (``tests/test_ir.py``), and the one every differential
suite compares the tiers with.

Consumers are the superblock compiler (:mod:`repro.machine.blocks`),
the trace JIT (:mod:`repro.machine.trace`) and the SFI rewriter
(:mod:`repro.sfi.rewriter`); lifting needs no machine, so static
tools read the same records the execution tiers compile.

Note the fault-capability flag describes the *baseline* machine: with
protected modules (PMA) registered, every instruction can additionally
fault at fetch time, and with red zones every data access gains a
poison check.  Those are machine-wide modes the consumers account for
themselves (blocks embed the PMA fetch check and, once a snapshot is
taken, the red-zone test; the trace JIT refuses to trace under either).
"""

from __future__ import annotations

import enum
import string
from typing import NamedTuple

from repro.errors import DecodeError, MemoryFault
from repro.isa.encoding import decode
from repro.isa.instructions import Instruction, Mem, WORD_MASK
from repro.isa.opcodes import (
    BLOCK_END_OPCODES,
    OPCODE_LENGTHS,
    OPCODE_SPECS,
    OperandFormat,
)
from repro.isa.registers import NUM_REGISTERS, SP
from repro.machine.cpu import c_div, c_mod

#: All architectural register numbers (R0-R7, SP, BP).
ALL_REGS = frozenset(range(NUM_REGISTERS))

_EMPTY: frozenset[int] = frozenset()
_NO_FLAGS: frozenset[str] = frozenset()


class ControlKind(enum.Enum):
    """How an instruction affects control flow."""

    #: Straight-line: execution falls through to ``next_addr``.
    FALL = "fall"
    #: Unconditional direct jump to ``target``.
    JUMP = "jump"
    #: Indirect jump through a register.
    JUMP_REG = "jump_reg"
    #: Conditional branch: ``target`` if taken, ``next_addr`` if not.
    BRANCH = "branch"
    #: Direct call to ``target`` (pushes ``next_addr``).
    CALL = "call"
    #: Indirect call through a register.
    CALL_REG = "call_reg"
    #: Return through the architectural stack.
    RET = "ret"
    #: Syscall: the handler may halt, exit, or rewrite the machine.
    SYS = "sys"
    #: Halt.
    HALT = "halt"


class IRInst(NamedTuple):
    """One decoded, effect-annotated VN32 instruction."""

    #: Masked address of the first encoded byte.
    addr: int
    #: Encoded length in bytes.
    length: int
    #: Opcode byte (fixes the encoding, as in :class:`Instruction`).
    opcode: int
    #: The decoded instruction (operands live here).
    insn: Instruction
    #: Architectural registers read at execute time.
    reads: frozenset[int]
    #: Architectural registers written at execute time.
    writes: frozenset[int]
    #: FLAGS defined ({"zf","lt"} for results, +"ult" for compares).
    flags_written: frozenset[str]
    #: FLAGS read (conditional-branch predicates).
    flags_read: frozenset[str]
    #: Can this instruction fault during execution (baseline machine)?
    can_fault: bool
    #: Control-flow classification.
    kind: ControlKind
    #: Static transfer target (JUMP/BRANCH/CALL), else None.
    target: int | None
    #: Address of the next sequential instruction.
    next_addr: int

    @property
    def operands(self) -> tuple:
        return self.insn.operands

    @property
    def mnemonic(self) -> str:
        return self.insn.mnemonic

    @property
    def ends_block(self) -> bool:
        """True when the superblock compiler must stop after this."""
        return self.opcode in BLOCK_END_OPCODES


# -- semantics table ---------------------------------------------------------


class Semantics(NamedTuple):
    """What one opcode computes, as Python expression templates.

    Operand fields: ``{a}`` is the first register operand (``lea``: the
    base register) and ``{b}`` the second register or the immediate --
    :func:`operands` says which.  ``{sa}``/``{sb}`` are the same values
    with the sign bit flipped, so unsigned order on them is signed
    order on ``a``/``b``.  Results are u32; templates may call
    ``_div``/``_mod`` (:data:`TEMPLATE_HELPERS`).
    """

    #: Value written to the destination register (operand 0).
    result: str | None = None
    #: FLAGS defined, name -> template: over the result ``{r}`` for
    #: ALU ops, over the operands for ``cmp``.
    flags: dict[str, str] = {}
    #: Conditional-branch predicate over ``{zf}``/``{lt}``/``{ult}``.
    predicate: str | None = None
    #: ``(ka, kb)`` when ``result == ka*a + kb*b`` mod 2**32: the trace
    #: compiler tracks base+offset addresses through these.
    linear: tuple[int, int] | None = None
    #: Mask the handler applies to an immediate ``b``.
    imm_mask: int = WORD_MASK


#: FLAGS every ALU result defines (``CPU._set_flags_result``).
_RESULT = {"zf": "{r} == 0", "lt": "{r} > 2147483647"}
#: FLAGS both ``cmp`` forms define (``CPU._set_flags_compare``).
_COMPARE = {"zf": "{a} == {b}", "lt": "{sa} < {sb}", "ult": "{a} < {b}"}
_ADD = "({a} + {b}) & 4294967295"
_SUB = "({a} - {b}) & 4294967295"
#: The ``[base + disp]`` effective address: ``lea``'s result, and the
#: address every load/store touches.
EFFECTIVE_ADDRESS = _ADD

#: Opcode -> semantics, for every opcode that writes a register from
#: its operands, sets FLAGS, or branches on them.
SEMANTICS: dict[int, Semantics] = {
    0x02: Semantics("{b}", linear=(0, 1)),                    # mov rr
    0x03: Semantics("{b}", linear=(0, 1)),                    # mov ri
    0x0A: Semantics(_ADD, _RESULT, linear=(1, 1)),            # add rr
    0x0B: Semantics(_ADD, _RESULT, linear=(1, 1)),            # add ri
    0x0C: Semantics(_SUB, _RESULT, linear=(1, -1)),           # sub rr
    0x0D: Semantics(_SUB, _RESULT, linear=(1, -1)),           # sub ri
    0x0E: Semantics("({a} * {b}) & 4294967295", _RESULT),     # mul
    0x0F: Semantics("_div({a}, {b})", _RESULT),               # div
    0x10: Semantics("_mod({a}, {b})", _RESULT),               # mod
    0x11: Semantics("{a} & {b}", _RESULT),                    # and
    0x12: Semantics("{a} | {b}", _RESULT),                    # or
    0x13: Semantics("{a} ^ {b}", _RESULT),                    # xor
    0x14: Semantics("{a} ^ 4294967295", _RESULT),             # not
    0x15: Semantics("({a} << {b}) & 4294967295", _RESULT,    # shl
                    imm_mask=31),
    0x16: Semantics("{a} >> {b}", _RESULT, imm_mask=31),      # shr
    0x17: Semantics(flags=_COMPARE),                          # cmp rr
    0x18: Semantics(flags=_COMPARE),                          # cmp ri
    0x1B: Semantics(predicate="{zf}"),                        # jz
    0x1C: Semantics(predicate="not {zf}"),                    # jnz
    0x1D: Semantics(predicate="{lt}"),                        # jl
    0x1E: Semantics(predicate="not {lt} and not {zf}"),       # jg
    0x1F: Semantics(predicate="{lt} or {zf}"),                # jle
    0x20: Semantics(predicate="not {lt}"),                    # jge
    0x21: Semantics(predicate="{ult}"),                       # jb
    0x22: Semantics(predicate="not {ult}"),                   # jae
    0x27: Semantics(EFFECTIVE_ADDRESS, linear=(1, 1)),        # lea
}

#: Names the templates call; generated code binds the same ones.
TEMPLATE_HELPERS = {"_div": c_div, "_mod": c_mod}


def template_fields(template: str) -> frozenset[str]:
    """The field names ``template`` reads."""
    return frozenset(
        name for _, name, _, _ in string.Formatter().parse(template) if name
    )


def fields(**values: int | str) -> dict[str, str]:
    """Template fields: an int renders as a literal, a str as the
    Python expression it holds; each also gets its sign-flipped twin
    ``s<name>`` (folded for literals)."""
    out = {}
    for name, value in values.items():
        if isinstance(value, str):
            out[name] = value
            out["s" + name] = f"({value} ^ 2147483648)"
        else:
            out[name] = str(value)
            out["s" + name] = str(value ^ 0x80000000)
    return out


def evaluate(template: str, **values: int) -> int:
    """The value of ``template`` with every field it reads bound to a
    constant (flags bind as bools).  Raises what the template raises:
    ``DivisionFault`` for div/mod by zero."""
    return eval(template.format(**fields(**values)), dict(TEMPLATE_HELPERS))


def operands(insn: Instruction | IRInst) -> tuple[int, int | None, int]:
    """``(a, b_reg, imm)`` for a :data:`SEMANTICS` opcode with a result
    or flags: ``{a}`` is register ``a``; ``{b}`` is register ``b_reg``,
    or the immediate ``imm`` when ``b_reg`` is None (``lea``: its signed
    displacement; ``not``: 0, unread)."""
    ops = insn.operands
    fmt = OPCODE_SPECS[insn.opcode].fmt
    if fmt is OperandFormat.REGREG:
        return ops[0], ops[1], 0
    if fmt is OperandFormat.REGMEM:
        return ops[1].base, None, ops[1].disp
    if fmt is OperandFormat.REG:
        return ops[0], None, 0
    return ops[0], None, ops[1] & SEMANTICS[insn.opcode].imm_mask


#: FLAGS each conditional-branch opcode reads: its predicate's fields.
BRANCH_FLAGS_READ: dict[int, frozenset[str]] = {
    op: template_fields(sem.predicate)
    for op, sem in SEMANTICS.items() if sem.predicate is not None
}
#: FLAGS defined by arithmetic/logic results and by comparisons.
RESULT_FLAGS = frozenset(_RESULT)
COMPARE_FLAGS = frozenset(_COMPARE)
_FLAGS_WRITTEN = {op: frozenset(sem.flags) for op, sem in SEMANTICS.items()}
#: The operands (``a``/``b``) each table opcode's templates read.
_OPERANDS_READ = {
    op: frozenset(
        name for name in ("a", "b")
        if any({name, "s" + name} & template_fields(template)
               for template in (sem.result or "", *sem.flags.values())))
    for op, sem in SEMANTICS.items()
}

_BRANCH_OPCODES = frozenset(BRANCH_FLAGS_READ)


# -- memory-effects table ----------------------------------------------------


class Access(NamedTuple):
    """What one memory opcode does to memory and SP.

    The data register is operand 0: a load writes it, a store reads it.
    The ``[base + disp]`` forms touch :data:`EFFECTIVE_ADDRESS`.  Push
    reads its value first, then moves SP down 4, then stores at the new
    SP; SP stays moved if the store faults, and ``push sp`` stores the
    old SP.  Pop loads at SP and moves SP up 4 only once the load
    succeeded; it writes the destination last, so ``pop sp`` keeps the
    loaded value.  These are ``Machine.push_word``/``pop_word``'s orders.
    """

    #: Does it write memory (and so possibly invalidate translations)?
    write: bool
    #: Width in bytes: 4 (a little-endian word) or 1.
    size: int
    #: SP step: -4 (push), +4 (pop), 0 for the ``[base + disp]`` forms.
    sp_step: int = 0

    def stored(self, value: str) -> str:
        """What storing register expression ``value`` writes: a byte
        store keeps the low 8 bits."""
        return f"{value} & 255" if self.size == 1 else value


#: Opcode -> memory effect, for every opcode whose handler calls the
#: checked memory accessors itself (call/ret go through the machine's
#: return-address helpers).
MEMORY: dict[int, Access] = {
    0x04: Access(write=False, size=4),                # load
    0x05: Access(write=True, size=4),                 # store
    0x06: Access(write=False, size=1),                # loadb
    0x07: Access(write=True, size=1),                 # storeb
    0x08: Access(write=True, size=4, sp_step=-4),     # push
    0x09: Access(write=False, size=4, sp_step=4),     # pop
}


def moved_sp(access: Access, sp: str) -> str:
    """SP after ``access``'s step, as an expression over ``sp``."""
    template = _ADD if access.sp_step > 0 else _SUB
    return template.format(**fields(a=sp, b=abs(access.sp_step)))


# Both translators inline memory accesses rendered by the two functions
# below.  The generated code must bind ``_mem`` (``Memory._pages``),
# ``_fr``/``_fw`` (``Memory._fast_read``/``_fast_write``), ``_up``/``_pk``
# (``memory._U32``'s little-endian word unpack and pack) and, with red
# zones, ``_rz``/``_rzp`` (``Machine._redzones``/``_redzone_pages``);
# the rendered code assigns the scratch locals ``_o`` and ``_pn``.


def buffer_access(access: Access, buf: str, off: str, operand: str) -> str:
    """The statement doing ``access`` at offset ``off`` of page buffer
    ``buf``: a load into ``operand``, or a store of ``operand``."""
    if access.write:
        return (f"_pk({buf}, {off}, {operand})" if access.size == 4
                else f"{buf}[{off}] = {operand}")
    return (f"{operand} = _up({buf}, {off})[0]" if access.size == 4
            else f"{operand} = {buf}[{off}]")


def checked_access(access: Access, addr: str, operand: str,
                   redzones: bool = False) -> tuple[str | None, str, str, str]:
    """``access`` at address expression ``addr``, loading into or
    storing ``operand``, as ``(setup, test, fast, slow)``: a statement
    to run first (or None), the fast-path condition, the page-buffer
    statement to run when it holds and the checked-accessor call to run
    when it does not.

    The test is ``Machine.read_word`` & co.'s: the access fits one page
    in ``_fast_read``/``_fast_write`` and, with ``redzones``, no
    poisoned byte lies under it (page index first, then each byte).
    Everything else -- straddles, permission denials, unmapped, watched
    or snapshot-shared pages, poison -- takes the accessor, so every
    fault and side effect is the interpreter's own.
    """
    # A store names its page twice (test and buffer), a load once.
    page = "_pn" if access.write else f"{addr} >> 12"
    fast_pages = "_fw" if access.write else "_fr"
    setup = [f"_pn = {addr} >> 12"] if access.write else []
    if access.size == 4:
        setup.insert(0, f"_o = {addr} & 4095")
        test = f"_o <= 4092 and {page} in {fast_pages}"
        off = "_o"
    else:
        test = f"{page} in {fast_pages}"
        off = f"{addr} & 4095"
    if redzones and access.size == 1:
        test += f" and {addr} not in _rz"
    elif redzones:
        probes = "".join(f" or {addr} + {i} in _rz" for i in (1, 2, 3))
        test += f" and ({page} not in _rzp or not ({addr} in _rz{probes}))"
    width = "word" if access.size == 4 else "byte"
    slow = (f"m.write_{width}({addr}, {operand})" if access.write
            else f"{operand} = m.read_{width}({addr})")
    return ("; ".join(setup) or None, test,
            buffer_access(access, f"_mem[{page}]", off, operand), slow)


#: Execute-phase fault capability on the baseline machine: memory
#: access, div/mod by zero, indirect-transfer CFI checks, call/ret
#: stack traffic (+ shadow stack), syscalls, chk bounds checks.
_CAN_FAULT = frozenset(MEMORY) | frozenset(
    {0x0F, 0x10, 0x1A, 0x23, 0x24, 0x25, 0x26, 0x28}
)

_KIND_BY_OPCODE: dict[int, ControlKind] = {
    0x01: ControlKind.HALT,
    0x19: ControlKind.JUMP,
    0x1A: ControlKind.JUMP_REG,
    0x23: ControlKind.CALL,
    0x24: ControlKind.CALL_REG,
    0x25: ControlKind.RET,
    0x26: ControlKind.SYS,
}
for _op in _BRANCH_OPCODES:
    _KIND_BY_OPCODE[_op] = ControlKind.BRANCH


def _reg_effects(insn: Instruction) -> tuple[frozenset[int], frozenset[int]]:
    """(reads, writes) register sets for one decoded instruction."""
    opcode, ops = insn.opcode, insn.operands
    sem = SEMANTICS.get(opcode)
    if sem is not None:
        if sem.predicate is not None:       # branches read FLAGS only
            return _EMPTY, _EMPTY
        # The registers the templates read; the destination a result
        # writes.
        a, b_reg, _ = operands(insn)
        regs = {"a": a, "b": b_reg}
        reads = frozenset(regs[name] for name in _OPERANDS_READ[opcode]
                          if regs[name] is not None)
        return reads, (_EMPTY if sem.result is None else frozenset({ops[0]}))
    access = MEMORY.get(opcode)
    if access is not None:
        # The address register is SP or the base; a store reads the
        # data register and a load writes it; a step writes SP.
        address = frozenset({SP if access.sp_step else ops[1].base})
        data = frozenset({ops[0]})
        step = frozenset({SP}) if access.sp_step else _EMPTY
        if access.write:
            return address | data, step
        return address, data | step
    if opcode in (0x00, 0x01, 0x29):        # nop / halt / land
        return _EMPTY, _EMPTY
    if opcode == 0x19:                      # jmp abs
        return _EMPTY, _EMPTY
    if opcode == 0x1A:                      # jmp reg
        return frozenset({ops[0]}), _EMPTY
    if opcode == 0x23:                      # call abs: pushes next_addr
        return frozenset({SP}), frozenset({SP})
    if opcode == 0x24:                      # call reg
        return frozenset({ops[0], SP}), frozenset({SP})
    if opcode == 0x25:                      # ret
        return frozenset({SP}), frozenset({SP})
    if opcode == 0x26:                      # sys: handlers may touch any
        return ALL_REGS, ALL_REGS           # register (input/rand -> r0)
    if opcode == 0x28:                      # chk
        return frozenset({ops[0]}), _EMPTY
    raise AssertionError(f"unhandled opcode 0x{opcode:02x}")  # pragma: no cover


def lift(insn: Instruction, addr: int) -> IRInst:
    """Lift one decoded instruction at ``addr`` into an :class:`IRInst`."""
    opcode = insn.opcode
    length = OPCODE_LENGTHS[opcode]
    masked = addr & WORD_MASK
    reads, writes = _reg_effects(insn)
    kind = _KIND_BY_OPCODE.get(opcode, ControlKind.FALL)
    target: int | None = None
    if kind in (ControlKind.JUMP, ControlKind.BRANCH, ControlKind.CALL):
        target = insn.operands[0] & WORD_MASK
    return IRInst(
        addr=masked,
        length=length,
        opcode=opcode,
        insn=insn,
        reads=reads,
        writes=writes,
        flags_written=_FLAGS_WRITTEN.get(opcode, _NO_FLAGS),
        flags_read=BRANCH_FLAGS_READ.get(opcode, _NO_FLAGS),
        can_fault=opcode in _CAN_FAULT,
        kind=kind,
        target=target,
        next_addr=(masked + length) & WORD_MASK,
    )


def lift_at(memory, addr: int) -> IRInst | None:
    """Lift the instruction whose first byte is at ``addr``.

    Reads raw bytes (no permission checks -- callers validate fetch
    legality themselves, e.g. by actually stepping the machine).
    Returns None for unmapped addresses and undecodable bytes.
    """
    masked = addr & WORD_MASK
    try:
        opcode = memory.read_byte(masked)
        length = OPCODE_LENGTHS[opcode]
        if length == 0:
            return None
        insn, _ = decode(memory.read_bytes(masked, length))
    except (MemoryFault, DecodeError):
        return None
    return lift(insn, masked)


def lift_block(
    memory,
    head: int,
    max_insns: int,
    entry_points: frozenset[int] = frozenset(),
) -> list[IRInst]:
    """Lift the superblock starting at ``head``.

    Decodes forward until a control transfer (:data:`BLOCK_END_OPCODES`),
    a page boundary (no block spans pages -- one page watch covers the
    whole block), a PMA ``entry_points`` hit past the head (block heads
    must stay aligned with legitimate entry addresses), an instruction
    whose encoding straddles the page edge, undecodable bytes, or
    ``max_insns``.  May return an empty list (head undecodable): the
    interpreter owns that address.
    """
    from repro.machine.memory import PAGE_SIZE, _PAGE_SHIFT

    page_mask = PAGE_SIZE - 1
    masked = head & WORD_MASK
    page = masked >> _PAGE_SHIFT
    out: list[IRInst] = []
    addr = masked
    while len(out) < max_insns:
        if addr >> _PAGE_SHIFT != page:
            break  # next instruction starts on another page
        if out and addr in entry_points:
            break  # never extend across a PMA entry point
        opcode = memory.read_byte(addr)
        length = OPCODE_LENGTHS[opcode]
        if length == 0 or (addr & page_mask) + length > PAGE_SIZE:
            break  # invalid or page-straddling encoding: interpreter's job
        try:
            insn, _ = decode(memory.read_bytes(addr, length))
        except DecodeError:
            break
        irx = lift(insn, addr)
        out.append(irx)
        addr = irx.next_addr
        if irx.ends_block:
            break
    return out
