"""Differential testing: the trace JIT vs blocks vs the interpreter.

The trace tier compounds every way a translator can diverge: registers
cached in locals, flags computed lazily, memory accesses folded to
direct page writes behind loop-top guards, whole iterations retired in
one closure.  Every scenario here runs *three* times -- trace dispatch,
block-only dispatch, and the per-instruction interpreter -- and
asserts all three end states are byte-identical: status, exit code,
fault type and message, instruction counts, output, the register file,
IP, flags, and raw memory.

The directed cases aim at the trace tier's specific seams: a store
that patches a chained successor mid-run, permissions flipped between
chained blocks, snapshot/restore while a trace is installed, loops
whose trip count leaves the trace mid-iteration on every exit kind,
and hypothesis-generated loop programs heavy on the addressing
patterns the compiler folds (stack discipline, base+offset arrays).
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.isa import Mem, R0, R1, R2, R3, SP, build, encode_many
from repro.machine import Machine, MachineConfig, RunResult

from tests.test_differential_blocks import (
    CODE,
    DATA,
    STACK_BASE,
    STACK_TOP,
    SEED_REGS,
    _SLOT,
    _assemble,
    summarize,
)
from repro.machine.memory import PERM_R, PERM_RW, PERM_RWX

def fresh_machine(leg: str, hot: int = 4) -> Machine:
    machine = Machine(MachineConfig(tier=leg, trace_hot_threshold=hot))
    machine.memory.map_region(CODE, 0x1000, PERM_RWX)
    machine.memory.map_region(DATA, 0x1000, PERM_RW)
    machine.memory.map_region(STACK_BASE, 0x10000, PERM_RW)
    machine.cpu.ip = CODE
    machine.cpu.regs[:] = SEED_REGS
    return machine


def state_of(machine: Machine, result: RunResult) -> tuple:
    return (
        summarize(result),
        tuple(machine.cpu.regs),
        machine.cpu.ip,
        (machine.cpu.zf, machine.cpu.lt, machine.cpu.ult),
        machine.current_ip,
        machine.instructions_executed,
        machine.memory.read_bytes(CODE, 0x1000),
        machine.memory.read_bytes(DATA, 0x1000),
        machine.memory.read_bytes(STACK_TOP - 0x400, 0x400),
    )


def run_leg(program: bytes, leg: str, max_instructions: int = 3_000,
            hot: int = 4) -> tuple:
    machine = fresh_machine(leg, hot)
    machine.memory.write_bytes(CODE, program)
    result = machine.run(max_instructions=max_instructions)
    return state_of(machine, result)


def assert_identical(program: bytes, max_instructions: int = 3_000,
                     hot: int = 4) -> tuple:
    traced = run_leg(program, "trace", max_instructions, hot)
    blocked = run_leg(program, "block", max_instructions, hot)
    stepped = run_leg(program, "interp", max_instructions, hot)
    assert traced == blocked == stepped
    return traced


def counting_loop(body, iterations=40, counter=R2):
    """A hot loop wrapping ``body``; exits with sys(3)."""
    head = CODE + 6
    insns = [build.mov_ri(counter, 0)]
    insns += body
    insns += [
        build.add_ri(counter, 1),
        build.cmp_ri(counter, iterations),
        build.jnz(head),
        build.sys(3),
    ]
    return encode_many(insns)


# -- hypothesis fuzz ---------------------------------------------------------

#: Loop bodies biased toward what the trace compiler optimises:
#: base+offset memory traffic (r3 is seeded with a DATA pointer) and
#: stack discipline.  Destinations stay in r0/r1 so the loop counter
#: (r2) usually survives; when a pop clobbers r3 the body faults --
#: fault parity is part of the contract.  Every memory form is drawn:
#: loadb, SP as the pushed/popped register and as a base.  ``or r3, r3``
#: keeps r3's value but not the compiler's knowledge of it, and
#: ``[sp-0x1004]`` stretches SP's access group past one page; both send
#: accesses down the ungrouped path.
_BODY_INSN = st.one_of(
    st.builds(build.load, st.integers(0, 1),
              st.builds(Mem, st.just(3), st.sampled_from([0, 4, 8]))),
    st.builds(build.store, st.integers(0, 1),
              st.builds(Mem, st.just(3), st.sampled_from([0, 4, 8]))),
    st.builds(build.storeb, st.integers(0, 1),
              st.builds(Mem, st.just(3), st.sampled_from([0, 5]))),
    st.builds(build.push, st.integers(0, 1)),
    st.builds(build.pop, st.integers(0, 1)),
    st.builds(build.add_rr, st.integers(0, 1), st.integers(0, 3)),
    st.builds(build.add_ri, st.integers(0, 1),
              st.sampled_from([1, 4, 0x7FFFFFFF, 0xFFFFFFFF])),
    st.builds(build.cmp_ri, st.integers(0, 1),
              st.sampled_from([0, 1, 0x80000000])),
    st.builds(build.mov_ri, st.integers(0, 1),
              st.sampled_from([0, 7, DATA + 0x800])),
    st.builds(build.shl, st.integers(0, 1), st.integers(0, 3)),
    st.builds(build.loadb, st.integers(0, 1),
              st.builds(Mem, st.just(3), st.sampled_from([0, 5]))),
    st.just(build.push(SP)),
    st.just(build.pop(SP)),
    st.just(build.or_rr(R3, R3)),
    st.builds(lambda make, reg, disp: make(reg, Mem(SP, disp)),
              st.sampled_from([build.load, build.store, build.loadb,
                               build.storeb]),
              st.integers(0, 1), st.sampled_from([-0x1004, -8, 0, 5])),
)


class TestFuzzedLoops:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_BODY_INSN, min_size=0, max_size=10),
           st.integers(2, 50))
    # The memory forms whose emission has special cases: push sp
    # stores the old SP, pop sp keeps the loaded value, and byte
    # accesses through an untracked base go through the checked path.
    @example([build.push(SP), build.pop(SP)], 20)
    @example([build.mov_rr(R0, R3), build.shl(R0, 0),
              build.storeb(R1, Mem(R0, 5)), build.loadb(R1, Mem(R0, 5))], 20)
    def test_random_loop_identical(self, body, iterations):
        # Unbalanced push/pop bodies walk the stack pointer a little
        # further every iteration -- exactly the case where a trace's
        # per-base page guard must eventually bounce.
        program = counting_loop(body, iterations)
        assert_identical(program, max_instructions=4_000)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_SLOT, min_size=1, max_size=40))
    def test_random_program_identical(self, slots):
        # The block suite's generator, rerun with the trace tier armed
        # and an aggressive hotness threshold.
        assert_identical(_assemble(slots))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_BODY_INSN, min_size=0, max_size=8),
           st.integers(1, 120))
    def test_random_loop_identical_under_budget(self, body, budget):
        # Budgets that strike mid-iteration: the trace must retire
        # exactly the interpreter's count and leave the identical
        # architectural state.
        program = counting_loop(body, iterations=30)
        assert_identical(program, max_instructions=budget)


# -- directed adversarial cases ----------------------------------------------

class TestSelfModification:
    def test_store_patches_chained_successor(self):
        # Satellite case (a): a hot loop whose body patches the bytes
        # of the *chained successor* block (the loop tail) mid-run.
        # The store invalidates translations for the code page; a
        # stale chained block or trace would keep adding 1.
        patched = encode_many([build.add_ri(R0, 2)])
        patch_word = int.from_bytes(patched[0:4], "little")

        def layout(addrs):
            return [
                build.mov_ri(R0, 0),
                build.mov_ri(R3, 0),
                build.add_ri(R3, 1),              # index 2 <- loop head
                build.mov_ri(R1, addrs.get(8, 0)),
                build.cmp_ri(R3, 10),
                build.jnz(addrs.get(8, 0)),       # skip store until hot
                build.mov_ri(R2, patch_word),
                build.store(R2, Mem(R1, 0)),      # patches the add
                build.add_ri(R0, 1),              # index 8 <- target
                build.cmp_ri(R3, 30),
                build.jnz(addrs.get(2, 0)),
                build.sys(3),
            ]

        addrs, addr = {}, CODE
        for index, insn in enumerate(layout({})):
            addrs[index] = addr
            addr += len(encode_many([insn]))
        full = encode_many(layout(addrs))
        state = assert_identical(full)
        # Iterations 1-9 run the add unpatched (+1); the store fires
        # on iteration 10, so it and the remaining 20 add 2.
        assert state[0][1] == 9 * 1 + 21 * 2

    def test_trace_page_store_inside_traced_loop(self):
        # The loop body itself stores to its own code page (at a spot
        # that never becomes an executed instruction).  Every such
        # store invalidates the page's translations, so the loop can
        # never stay traced -- yet results must stay identical.
        scratch = CODE + 0x800
        body = [
            build.mov_ri(R1, scratch),
            build.store(R3, Mem(R1, 0)),
        ]
        assert_identical(counting_loop(body, 25), max_instructions=4_000)


class TestPermissionFlips:
    def test_perm_flip_between_chained_blocks(self):
        # Satellite case (b): the loop reads a data page each
        # iteration; mid-run the program flips that page read-only via
        # a store fault handler... the VN32 has no guest API to flip
        # perms, so the flip comes from the host side between runs:
        # run hot (trace installed over the load), flip perms, rerun.
        # The trace's loop-top guard must bounce and the fault must
        # surface exactly as the interpreter's.
        body = [
            build.mov_ri(R1, DATA),
            build.store(R3, Mem(R1, 0)),
            build.load(R0, Mem(R1, 0)),
        ]
        program = counting_loop(body, 30)
        states = {}
        for leg in ("trace", "block", "interp"):
            machine = fresh_machine(leg)
            machine.memory.write_bytes(CODE, program)
            first = machine.run(max_instructions=3_000)
            assert first.fault is None
            # Flip the data page read-only and rerun the same loop.
            machine.memory.set_perms(DATA, 0x1000, PERM_R)
            machine.cpu.ip = CODE
            machine.cpu.regs[:] = SEED_REGS
            states[leg] = state_of(
                machine, machine.run(max_instructions=3_000))
        assert states["trace"] == states["block"] == states["interp"]
        assert states["trace"][0][2] == "PermissionFault"

    def test_all_perms_revoked_under_installed_trace(self):
        body = [
            build.mov_ri(R1, DATA),
            build.store(R3, Mem(R1, 0)),
        ]
        program = counting_loop(body, 30)
        states = {}
        for leg in ("trace", "block", "interp"):
            machine = fresh_machine(leg)
            machine.memory.write_bytes(CODE, program)
            assert machine.run(max_instructions=3_000).fault is None
            machine.memory.set_perms(DATA, 0x1000, 0)
            machine.cpu.ip = CODE
            machine.cpu.regs[:] = SEED_REGS
            states[leg] = state_of(
                machine, machine.run(max_instructions=3_000))
        assert states["trace"] == states["block"] == states["interp"]
        assert states["trace"][0][2] == "PermissionFault"


class TestSnapshotRestore:
    def test_snapshot_restore_mid_trace(self):
        # Satellite case (c): snapshot while a trace is installed and
        # the machine is parked mid-loop, mutate, restore, resume.
        # All three legs must agree after the resumed run.
        body = [
            build.mov_ri(R1, DATA),
            build.load(R2, Mem(R1, 4)),
            build.add_rr(R0, R2),
            build.store(R0, Mem(R1, 4)),
        ]
        program = counting_loop(body, 40)
        states = {}
        for leg in ("trace", "block", "interp"):
            machine = fresh_machine(leg)
            machine.memory.write_bytes(CODE, program)
            # Park mid-loop: the budget lands inside an iteration.
            partial = machine.run(max_instructions=100)
            assert partial.fault is not None
            snap = machine.snapshot()
            # Diverge, then restore back to the parked state.
            machine.run(max_instructions=50)
            machine.restore(snap)
            states[leg] = state_of(
                machine, machine.run(max_instructions=3_000))
        assert states["trace"] == states["block"] == states["interp"]


class TestProgramShapes:
    def test_nested_loops(self):
        inner_head = CODE + 0x12
        outer_head = CODE + 0x0C
        program = encode_many([
            build.mov_ri(R0, 0),             # 0x1000
            build.mov_ri(R1, 0),             # 0x1006
            build.mov_ri(R2, 0),             # 0x100C  <- outer head
            build.add_ri(R0, 1),             # 0x1012  <- inner head
            build.add_ri(R2, 1),             # 0x1018
            build.cmp_ri(R2, 7),             # 0x101E
            build.jnz(inner_head),           # 0x1024
            build.add_ri(R1, 1),             # 0x1029
            build.cmp_ri(R1, 9),             # 0x102F
            build.jnz(outer_head),           # 0x1035
            build.sys(3),                    # 0x103A
        ])
        state = assert_identical(program, max_instructions=4_000)
        assert state[0][1] == 63             # 7 * 9 inner iterations

    def test_loop_with_call_in_body(self):
        # Leaf calls are inlined into the trace through the shadowable
        # push/pop helpers; the return address discipline must match.
        func = CODE + 0x100
        body = [build.call_abs(func)]
        program = bytearray(counting_loop(body, 30))
        leaf = encode_many([
            build.add_ri(R0, 5),
            build.ret(),
        ])
        program[func - CODE:func - CODE + len(leaf)] = leaf
        assert_identical(bytes(program), max_instructions=4_000)

    def test_loop_over_byte_array(self):
        body = [
            build.mov_ri(R1, DATA + 0x20),
            build.loadb(R2, Mem(R1, 3)),
            build.add_ri(R2, 1),
            build.storeb(R2, Mem(R1, 3)),
        ]
        state = assert_identical(counting_loop(body, 40),
                                 max_instructions=4_000)

    def test_division_fault_mid_trace(self):
        # r2 counts down to zero; div r0, r2 faults on the final
        # iteration *inside* the hot trace.
        head = CODE + 0x0C
        program = encode_many([
            build.mov_ri(R0, 1000),          # 0x1000
            build.mov_ri(R2, 20),            # 0x1006
            build.sub_ri(R2, 1),             # 0x100C  <- loop head
            build.div_rr(R0, R2),            # 0x1012
            build.cmp_ri(R2, 0),             # 0x1015
            build.jnz(head),                 # 0x101B
            build.sys(3),                    # 0x1020
        ])
        state = assert_identical(program)
        assert state[0][2] == "DivisionFault"

    def test_alternating_branch_directions(self):
        # The loop's inner branch flips by parity: whichever direction
        # got recorded, half the iterations must leave through the
        # trace's branch-guard exit.  Two-pass layout: lengths first,
        # then targets.
        def layout(make):
            insns = make({})
            addrs, addr = {}, CODE
            for index, insn in enumerate(insns):
                addrs[index] = addr
                addr += len(encode_many([insn]))
            return encode_many(make(addrs))

        def make(addrs):
            return [
                build.mov_ri(R0, 0),
                build.mov_ri(R3, 0),
                build.mov_rr(R1, R3),        # index 2 <- loop head
                build.mov_ri(R2, 1),
                build.and_rr(R1, R2),
                build.cmp_ri(R1, 0),
                build.jnz(addrs.get(8, 0)),  # odd: skip the add
                build.add_ri(R0, 3),
                build.add_ri(R3, 1),         # index 8
                build.cmp_ri(R3, 24),
                build.jnz(addrs.get(2, 0)),
                build.sys(3),
            ]

        state = assert_identical(layout(make), max_instructions=4_000)
        assert state[0][1] == 36             # 12 even iterations * 3

    def test_hot_threshold_one(self):
        # Degenerate config: every loop head traces on first sight.
        body = [build.add_ri(R0, 2)]
        assert_identical(counting_loop(body, 10), hot=1)
