"""Unit tests for the decoded IR layer (repro.machine.ir).

The IR's def/use and control metadata drive both translation tiers:
the superblock builder consumes ``ends_block``/``lift_block`` and the
trace compiler consumes register effects and FLAGS liveness.  A wrong
``reads``/``writes`` set silently miscompiles, so the effects are
pinned per instruction class here.  Both tiers also render their
arithmetic, compares and branches from ``ir.SEMANTICS`` and their
loads, stores, pushes and pops from ``ir.MEMORY``; both tables are
checked here against ``cpu.py``'s hand-written handlers, the reference
every differential suite compares the tiers with.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DivisionFault, MemoryFault
from repro.isa import Mem, R0, R1, R2, R3, SP, build, encode_many
from repro.isa.instructions import Instruction, to_signed
from repro.isa.opcodes import OPCODE_SPECS, OperandFormat
from repro.machine import CPU, Machine, MachineConfig
from repro.machine.cpu import _DISPATCH
from repro.machine.ir import (
    BRANCH_FLAGS_READ,
    COMPARE_FLAGS,
    EFFECTIVE_ADDRESS,
    MEMORY,
    ControlKind,
    RESULT_FLAGS,
    SEMANTICS,
    evaluate,
    lift,
    lift_at,
    lift_block,
    operands,
)
from repro.machine.memory import PERM_RW, PERM_RWX

CODE = 0x1000


def lift_one(insn, addr=CODE):
    return lift(insn, addr)


class TestRegisterEffects:
    def test_mov_ri_writes_only(self):
        irx = lift_one(build.mov_ri(R2, 7))
        assert irx.reads == frozenset()
        assert irx.writes == {R2}

    def test_mov_rr_reads_source(self):
        irx = lift_one(build.mov_rr(R2, R3))
        assert irx.reads == {R3}
        assert irx.writes == {R2}

    def test_load_reads_base_writes_dest(self):
        irx = lift_one(build.load(R0, Mem(R1, 8)))
        assert irx.reads == {R1}
        assert irx.writes == {R0}

    def test_store_reads_both_writes_none(self):
        irx = lift_one(build.store(R0, Mem(R1, 8)))
        assert irx.reads == {R0, R1}
        assert irx.writes == frozenset()

    def test_push_reads_source_and_sp_writes_sp(self):
        irx = lift_one(build.push(R3))
        assert irx.reads == {R3, 8}
        assert irx.writes == {8}

    def test_pop_reads_sp_writes_dest_and_sp(self):
        irx = lift_one(build.pop(R3))
        assert irx.reads == {8}
        assert irx.writes == {R3, 8}

    def test_alu_rr_reads_both_writes_dest(self):
        irx = lift_one(build.add_rr(R0, R1))
        assert irx.reads == {R0, R1}
        assert irx.writes == {R0}

    def test_alu_ri_and_unary_read_and_write_dest(self):
        for insn in (build.add_ri(R2, 5), build.shl(R2, 3), build.not_r(R2)):
            irx = lift_one(insn)
            assert irx.reads == {R2}
            assert irx.writes == {R2}

    def test_cmp_reads_operands_writes_none(self):
        assert lift_one(build.cmp_rr(R0, R1)).reads == {R0, R1}
        assert lift_one(build.cmp_ri(R0, 5)).reads == {R0}
        assert lift_one(build.cmp_ri(R0, 5)).writes == frozenset()

    def test_lea_reads_base_writes_dest(self):
        irx = lift_one(build.lea(R0, Mem(R1, -8)))
        assert irx.reads == {R1}
        assert irx.writes == {R0}

    def test_branch_touches_no_registers(self):
        irx = lift_one(build.jle(0x2000))
        assert irx.reads == irx.writes == frozenset()

    def test_call_touches_sp(self):
        irx = lift_one(build.call_abs(0x2000))
        assert 8 in irx.reads and 8 in irx.writes

    def test_ret_touches_sp(self):
        irx = lift_one(build.ret())
        assert 8 in irx.reads and 8 in irx.writes


class TestFlagEffects:
    def test_arith_writes_result_flags(self):
        assert lift_one(build.add_ri(R0, 1)).flags_written == RESULT_FLAGS

    def test_cmp_writes_all_flags(self):
        assert lift_one(build.cmp_ri(R0, 5)).flags_written == COMPARE_FLAGS

    def test_mov_writes_no_flags(self):
        assert lift_one(build.mov_ri(R0, 5)).flags_written == frozenset()

    def test_branches_read_their_predicate(self):
        assert lift_one(build.jz(0x2000)).flags_read == {"zf"}
        assert lift_one(build.jle(0x2000)).flags_read == {"zf", "lt"}
        assert lift_one(build.jb(0x2000)).flags_read == {"ult"}
        # The table drives the trace compiler's lazy-flag decisions:
        # every conditional branch opcode must appear in it.
        assert len(BRANCH_FLAGS_READ) == 8


class TestControlKinds:
    def test_straight_line(self):
        irx = lift_one(build.add_ri(R0, 1))
        assert irx.kind is ControlKind.FALL
        assert not irx.ends_block
        assert irx.next_addr == CODE + irx.length

    def test_branch_has_both_edges(self):
        irx = lift_one(build.jnz(0x2000))
        assert irx.kind is ControlKind.BRANCH
        assert irx.target == 0x2000
        assert irx.next_addr == CODE + irx.length
        assert irx.ends_block

    def test_call_is_a_block_end_with_target(self):
        irx = lift_one(build.call_abs(0x2000))
        assert irx.kind is ControlKind.CALL
        assert irx.target == 0x2000

    def test_indirect_kinds(self):
        assert lift_one(build.jmp_reg(R1)).kind is ControlKind.JUMP_REG
        assert lift_one(build.call_reg(R1)).kind is ControlKind.CALL_REG
        assert lift_one(build.ret()).kind is ControlKind.RET
        assert lift_one(build.sys(3)).kind is ControlKind.SYS
        assert lift_one(build.halt()).kind is ControlKind.HALT


class TestLiftingFromMemory:
    def machine(self, insns):
        machine = Machine(MachineConfig(tier="interp"))
        machine.memory.map_region(CODE, 0x1000, PERM_RWX)
        machine.memory.write_bytes(CODE, encode_many(insns))
        return machine

    def test_lift_at_roundtrips_encoding(self):
        machine = self.machine([build.mov_ri(R0, 42)])
        irx = lift_at(machine.memory, CODE)
        assert irx.opcode == 0x03
        assert irx.operands == (R0, 42)

    def test_lift_at_unmapped_returns_none(self):
        machine = self.machine([build.nop()])
        assert lift_at(machine.memory, 0x9000) is None

    def test_lift_at_undecodable_returns_none(self):
        machine = self.machine([build.nop()])
        machine.memory.write_bytes(CODE, b"\xff")
        assert lift_at(machine.memory, CODE) is None

    def test_lift_block_stops_at_terminator(self):
        machine = self.machine([
            build.mov_ri(R0, 1),
            build.add_ri(R0, 2),
            build.jmp_abs(CODE),
            build.nop(),                    # unreachable: not lifted
        ])
        insns = lift_block(machine.memory, CODE, 64, set())
        assert [irx.opcode for irx in insns] == [0x03, 0x0B, 0x19]

    def test_lift_block_respects_cap(self):
        machine = self.machine([build.nop()] * 32 + [build.halt()])
        insns = lift_block(machine.memory, CODE, 8, set())
        assert len(insns) == 8


# -- the semantics table against the hand-written reference (cpu.py) -------

BOUNDARY = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
U32 = st.one_of(st.sampled_from(BOUNDARY), st.integers(0, 0xFFFFFFFF))
#: Opcodes whose table entry computes a result or FLAGS.
COMPUTING = sorted(op for op, sem in SEMANTICS.items()
                   if sem.result is not None or sem.flags)
BRANCHES = sorted(BRANCH_FLAGS_READ)


def sample_insn(opcode: int, y: int = 5) -> Instruction:
    """``opcode`` with destination/first register R1, source or base
    register R2, and immediate/displacement derived from ``y``."""
    fmt = OPCODE_SPECS[opcode].fmt
    return Instruction(opcode, {
        OperandFormat.NONE: (),
        OperandFormat.REG: (R1,),
        OperandFormat.REGREG: (R1, R2),
        OperandFormat.REGIMM32: (R1, y),
        OperandFormat.REGIMM8: (R1, y & 0xFF),
        OperandFormat.REGMEM: (R1, Mem(R2, to_signed(y))),
        OperandFormat.IMM32: (y,),
        OperandFormat.IMM8: (y & 0xFF,),
    }[fmt])


def check_against_cpu(opcode: int, x: int, y: int) -> None:
    """Run ``opcode`` on the reference CPU with register operand ``a``
    = x and ``b`` = y (register or immediate), and evaluate its table
    entry on the same operands: result and every flag must agree."""
    sem = SEMANTICS[opcode]
    insn = sample_insn(opcode, y)
    irx = lift(insn, CODE)
    a, b_reg, imm = operands(irx)
    cpu = CPU()
    cpu.regs[a] = x
    b = imm
    if b_reg is not None:
        cpu.regs[b_reg] = b = y
    before = {"zf": True, "lt": False, "ult": True}
    for name, value in before.items():
        setattr(cpu, name, value)
    dst_before = cpu.regs[insn.operands[0]]
    if irx.can_fault and b == 0:  # div / mod by zero
        with pytest.raises(DivisionFault):
            _DISPATCH[opcode](cpu, insn, None)
        with pytest.raises(DivisionFault):
            evaluate(sem.result, a=x, b=b)
        return
    _DISPATCH[opcode](cpu, insn, None)
    values = {"a": x, "b": b}
    if sem.result is None:
        assert cpu.regs[insn.operands[0]] == dst_before
    else:
        result = evaluate(sem.result, **values)
        assert cpu.regs[insn.operands[0]] == result
        values["r"] = result
        if sem.linear is not None:
            ka, kb = sem.linear
            assert result == (ka * x + kb * b) & 0xFFFFFFFF
    for name in ("zf", "lt", "ult"):
        expected = (evaluate(sem.flags[name], **values)
                    if name in sem.flags else before[name])
        assert getattr(cpu, name) == expected, name


class TestSemanticsTable:
    @pytest.mark.parametrize("opcode", COMPUTING)
    def test_boundary_operands_match_cpu(self, opcode):
        for x, y in itertools.product(BOUNDARY, repeat=2):
            check_against_cpu(opcode, x, y)

    @pytest.mark.parametrize("opcode", COMPUTING)
    @settings(max_examples=60, deadline=None)
    @given(x=U32, y=U32)
    def test_drawn_operands_match_cpu(self, opcode, x, y):
        check_against_cpu(opcode, x, y)

    @pytest.mark.parametrize("opcode", [0x0F, 0x10])
    def test_division_by_zero_faults_on_both_sides(self, opcode):
        cpu = CPU()
        cpu.regs[R1] = 7
        with pytest.raises(DivisionFault):
            _DISPATCH[opcode](cpu, sample_insn(opcode), None)
        with pytest.raises(DivisionFault):
            evaluate(SEMANTICS[opcode].result, a=7, b=0)

    @pytest.mark.parametrize("opcode", BRANCHES)
    def test_branch_predicates_match_cpu(self, opcode):
        for zf, lt, ult in itertools.product((False, True), repeat=3):
            cpu = CPU()
            cpu.ip = CODE
            cpu.zf, cpu.lt, cpu.ult = zf, lt, ult
            _DISPATCH[opcode](cpu, sample_insn(opcode, 0x2000), None)
            taken = evaluate(SEMANTICS[opcode].predicate,
                             zf=zf, lt=lt, ult=ult)
            assert (cpu.ip == 0x2000) == taken, (zf, lt, ult)

    def test_every_opcode_has_semantics_or_needs_none(self):
        """A new opcode cannot reach the translators without semantics:
        it is in the table, or the IR lifts it as a memory, control or
        no-op instruction (no register or FLAGS effect)."""
        for opcode, spec in enumerate(OPCODE_SPECS):
            if spec is None:
                continue
            irx = lift(sample_insn(opcode), CODE)
            assert (opcode in SEMANTICS
                    or opcode in MEMORY
                    or irx.kind is not ControlKind.FALL
                    or not (irx.writes or irx.flags_written)), spec


# -- the memory-effects table against the reference (cpu.py) -----------------

#: The one mapped data page, filled with seeded random bytes so that a
#: load from the wrong address or of the wrong width reads otherwise.
PAGE = 0x00300000
PAGE_BYTES = random.Random(17).randbytes(0x1000)
#: A page-aligned address nothing maps.
UNMAPPED = 0x00500000
#: R1's value (the data register): wider than a byte in every byte.
DATA_VALUE = 0x89ABCDEF


def table_effect(insn: Instruction, regs: list[int],
                 page: bytearray) -> bool:
    """Apply ``insn`` to ``regs`` and the data page ``page`` as its
    :data:`MEMORY` entry states it; returns True when it faults."""
    access = MEMORY[insn.opcode]
    reg, size = insn.operands[0], access.size
    moved = (regs[SP] + access.sp_step) & 0xFFFFFFFF
    if access.sp_step:  # push stores at the moved SP, pop loads at SP
        address = moved if access.write else regs[SP]
    else:
        mem = insn.operands[1]
        address = evaluate(EFFECTIVE_ADDRESS, a=regs[mem.base],
                           b=mem.disp & 0xFFFFFFFF)
    offset = address - PAGE
    mapped = 0 <= offset <= 0x1000 - size
    if access.write:
        value = eval(access.stored("v"), {"v": regs[reg]})  # read first
        assert 0 <= value < 1 << 8 * size, "stored value exceeds the width"
        regs[SP] = moved if access.sp_step else regs[SP]  # then SP moves
        if not mapped:
            return True  # SP stays moved
        page[offset:offset + size] = value.to_bytes(size, "little")
        return False
    if not mapped:
        return True  # nothing moved
    value = int.from_bytes(page[offset:offset + size], "little")
    regs[SP] = moved if access.sp_step else regs[SP]
    regs[reg] = value  # the destination last: pop sp keeps the load
    return False


def check_memory_effect(insn: Instruction, r2: int = PAGE,
                        sp: int = PAGE + 0x800) -> None:
    """Run ``insn`` through its ``cpu.py`` handler on a machine with one
    mapped data page, R1 = :data:`DATA_VALUE` and the given R2 and SP,
    and compare registers, the page and the fault with
    :func:`table_effect`."""
    machine = Machine(MachineConfig(tier="interp"))
    machine.memory.map_region(PAGE, 0x1000, PERM_RW)
    machine.memory.write_bytes(PAGE, PAGE_BYTES)
    regs = machine.cpu.regs
    regs[R1], regs[R2], regs[SP] = DATA_VALUE, r2, sp
    expected_regs = list(regs)
    expected_page = bytearray(PAGE_BYTES)
    faults = table_effect(insn, expected_regs, expected_page)
    try:
        _DISPATCH[insn.opcode](machine.cpu, insn, machine)
    except MemoryFault:
        assert faults, "the reference faulted, the table does not"
    else:
        assert not faults, "the table faults, the reference does not"
    assert list(regs) == expected_regs
    assert machine.memory.read_bytes(PAGE, 0x1000) == expected_page


#: ``[base + disp]`` operands as (base value, disp): positive, negative
#: and wrapping displacements, the page's first and last bytes, a word
#: straddling the page end, and an unmapped target.
BASE_DISP = [
    (PAGE + 0x100, 8), (PAGE + 0x100, -8), (PAGE + 0x100, -0x100),
    (0xFFFFFFF0, PAGE + 0x20), (PAGE + 0x20, -0x7FFFFFFF - 1),
    (PAGE + 0xFFC, 3), (PAGE + 0xFFE, 0), (UNMAPPED, 4),
]
#: SP values: mid-page, the page's first/last word, a word straddling
#: the page end, SP at the page start and at 0 (a push wraps below
#: it), and an unmapped stack.
STACK_POINTERS = [PAGE + 0x100, PAGE + 4, PAGE + 0xFFC, PAGE + 0xFFE,
                  PAGE, 0, UNMAPPED]
BASE_FORMS = sorted(op for op, access in MEMORY.items()
                    if not access.sp_step)
STACK_FORMS = sorted(op for op, access in MEMORY.items() if access.sp_step)


class TestMemoryTable:
    """``ir.MEMORY`` against the ``cpu.py`` handlers: the address each
    access touches, its width and stored value, the destination and SP
    afterwards, and the fault state when the target is unmapped."""

    @pytest.mark.parametrize("opcode", BASE_FORMS)
    @pytest.mark.parametrize("base, disp", BASE_DISP)
    def test_base_displacement_forms_match_cpu(self, opcode, base, disp):
        check_memory_effect(Instruction(opcode, (R1, Mem(R2, disp))),
                            r2=base)

    @pytest.mark.parametrize("opcode", BASE_FORMS)
    def test_data_register_is_also_the_base(self, opcode):
        # The address is formed before a load overwrites its base.
        check_memory_effect(Instruction(opcode, (R2, Mem(R2, 4))))
        check_memory_effect(Instruction(opcode, (SP, Mem(SP, -4))))

    @pytest.mark.parametrize("opcode", STACK_FORMS)
    @pytest.mark.parametrize("sp", STACK_POINTERS)
    def test_stack_forms_match_cpu(self, opcode, sp):
        check_memory_effect(Instruction(opcode, (R1,)), sp=sp)

    @pytest.mark.parametrize("opcode", STACK_FORMS)
    @pytest.mark.parametrize("sp", STACK_POINTERS)
    def test_stack_forms_on_sp_match_cpu(self, opcode, sp):
        # push sp stores the old SP; pop sp keeps the loaded value.
        check_memory_effect(Instruction(opcode, (SP,)), sp=sp)
