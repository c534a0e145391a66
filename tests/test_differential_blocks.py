"""Differential testing: block translation vs the per-instruction interpreter.

The superblock translator (repro.machine.blocks) is a pure performance
layer; it must be observationally invisible.  Every scenario here runs
twice -- once dispatching block-at-a-time and once down the
per-instruction path -- and asserts the runs are byte-identical:
status, exit code, fault type *and message*, instruction counts,
output, the full register file, IP, flags, and raw memory contents.

Alongside a hypothesis fuzzer over random straight-line+branch+memory
programs, the directed cases are the paper's adversarial workloads,
where a translation cache could plausibly diverge: a block whose store
overwrites its *own* not-yet-executed tail, the Fig. 1 stack-smash
code-injection exploit, a ROP chain, a ``ret`` landing in the middle
of a previously translated block, and instruction-budget exhaustion
mid-block.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import Mem, R0, R1, R2, R3, SP, build, encode_many
from repro.isa.instructions import Instruction
from repro.machine import Machine, MachineConfig, RunResult
from repro.machine.blocks import compile_block
from repro.machine.memory import PERM_RW, PERM_RWX
from repro.mitigations import DEP, NONE
from tests.conftest import assert_ran_tier

CODE = 0x1000
DATA = 0x00100000
STACK_BASE = 0x00200000
STACK_TOP = 0x0020F000

#: Initial register file: plausible pointers (code, data, mid-data,
#: stack) and small scalars, so random loads/stores hit mapped and
#: unmapped memory in interesting proportions.
SEED_REGS = (0, 1, 7, DATA, DATA + 0x800, CODE, 0xDEADBEEF, 2,
             STACK_TOP, STACK_TOP)


def summarize(result: RunResult) -> tuple:
    return (
        result.status,
        result.exit_code,
        type(result.fault).__name__ if result.fault else None,
        str(result.fault) if result.fault else None,
        result.instructions,
        result.output,
        result.shell_spawned,
    )


def load_program(program: bytes, **config) -> Machine:
    """A fresh machine with ``program`` at CODE and the seed registers."""
    machine = Machine(MachineConfig(**config))
    machine.memory.map_region(CODE, 0x1000, PERM_RWX)
    machine.memory.map_region(DATA, 0x1000, PERM_RW)
    machine.memory.map_region(STACK_BASE, 0x10000, PERM_RW)
    machine.memory.write_bytes(CODE, program)
    machine.cpu.ip = CODE
    machine.cpu.regs[:] = SEED_REGS
    return machine


def run_one(program: bytes, tier: str, max_instructions: int = 3_000) -> tuple:
    """Run ``program`` on a fresh ``tier`` machine; return its complete
    state."""
    machine = load_program(program, tier=tier)
    return run_state(machine, max_instructions)


def run_state(machine: Machine, max_instructions: int) -> tuple:
    """Run ``machine``; return its complete state."""
    result = machine.run(max_instructions=max_instructions)
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


def assert_identical(program: bytes, max_instructions: int = 3_000) -> tuple:
    blocked = run_one(program, "block", max_instructions)
    stepped = run_one(program, "interp", max_instructions)
    assert blocked == stepped
    return blocked


#: Red zones laid before the first red-zoned run, as ``(addr, size)``.
#: From the seed pointers and ``_DISP`` they put a poisoned byte under
#: word accesses at every probe offset.
EARLY_POISON = (
    (DATA + 1, 1),          # single byte
    (DATA + 0x7FD, 2),      # partial word at an unaligned address
    (DATA + 0x802, 4),      # a run crossing a word boundary
    (DATA + 0xFFF, 1),      # the last byte before a page boundary
    (STACK_TOP, 1),         # the first byte after one
)
#: Red zones added after the restore, so blocks compiled during the
#: first run meet the rebound ``Machine._redzones``/``_redzone_pages``.
LATE_POISON = (
    (STACK_TOP - 2, 1),     # the slot just below STACK_TOP: push hits it
    (DATA + 0x80B, 1),      # the last byte of the word at DATA + 0x808
)


def run_redzoned(program: bytes, tier: str, early=EARLY_POISON,
                 late=LATE_POISON, max_instructions: int = 3_000) -> tuple:
    """Snapshot, run, restore, poison more, run again on a red-zoned
    machine; return the state after each run."""
    machine = load_program(program, tier=tier, redzones=True)
    for addr, size in early:
        machine.poison(addr, size)
    baseline = machine.snapshot()
    first = run_state(machine, max_instructions)
    machine.restore(baseline)
    for addr, size in late:
        machine.poison(addr, size)
    return first, run_state(machine, max_instructions)


def assert_identical_redzoned(program: bytes, **poison) -> tuple:
    blocked = run_redzoned(program, "block", **poison)
    stepped = run_redzoned(program, "interp", **poison)
    assert blocked == stepped
    return blocked


# -- hypothesis fuzz ---------------------------------------------------------

_REG = st.integers(0, 9)
_IMM = st.one_of(
    st.integers(0, 0xFFFFFFFF),
    st.sampled_from([0, 1, 2, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF,
                     DATA, DATA + 0x800, CODE, STACK_TOP]),
)
_DISP = st.sampled_from([0, 1, 4, 8, -4, 0x7FC, 0xFFC])
_MEM = st.builds(Mem, _REG, _DISP)

#: Straight-line instructions (no control transfers).
_STRAIGHT = st.one_of(
    st.builds(build.nop),
    st.builds(build.mov_rr, _REG, _REG),
    st.builds(build.mov_ri, _REG, _IMM),
    st.builds(build.load, _REG, _MEM),
    st.builds(build.store, _REG, _MEM),
    st.builds(build.loadb, _REG, _MEM),
    st.builds(build.storeb, _REG, _MEM),
    st.builds(build.push, _REG),
    st.builds(build.pop, _REG),
    st.builds(build.add_rr, _REG, _REG),
    st.builds(build.add_ri, _REG, _IMM),
    st.builds(build.sub_rr, _REG, _REG),
    st.builds(build.sub_ri, _REG, _IMM),
    st.builds(build.mul_rr, _REG, _REG),
    st.builds(build.div_rr, _REG, _REG),
    st.builds(build.mod_rr, _REG, _REG),
    st.builds(build.and_rr, _REG, _REG),
    st.builds(build.or_rr, _REG, _REG),
    st.builds(build.xor_rr, _REG, _REG),
    st.builds(build.not_r, _REG),
    st.builds(build.shl, _REG, st.integers(0, 255)),
    st.builds(build.shr, _REG, st.integers(0, 255)),
    st.builds(build.cmp_rr, _REG, _REG),
    st.builds(build.cmp_ri, _REG, _IMM),
    st.builds(build.lea, _REG, _MEM),
    st.builds(build.chk, _REG, _IMM),
)

_BRANCH_BUILDERS = (build.jz, build.jnz, build.jl, build.jg, build.jle,
                    build.jge, build.jb, build.jae, build.jmp_abs,
                    build.call_abs)

#: One program slot: a straight-line instruction, a forward branch
#: placeholder (builder + a fraction picking how far forward), or one
#: of the wilder transfers whose targets come from the register file.
_SLOT = st.one_of(
    _STRAIGHT.map(lambda insn: ("insn", insn)),
    st.tuples(st.sampled_from(_BRANCH_BUILDERS),
              st.floats(0.0, 1.0)).map(lambda t: ("fwd", *t)),
    st.builds(build.jmp_reg, _REG).map(lambda insn: ("insn", insn)),
    st.builds(build.call_reg, _REG).map(lambda insn: ("insn", insn)),
    st.builds(build.ret).map(lambda insn: ("insn", insn)),
    st.sampled_from([0, 1, 2, 3, 9]).map(
        lambda number: ("insn", build.sys(number))),
)


def _assemble(slots: list[tuple]) -> bytes:
    """Lay the slots out at CODE, resolving forward-branch targets.

    Branch placeholders pick a target among the *later* instruction
    addresses (or the final exit), so generated control flow always
    makes progress; loops and hijacks still arise through jmp_reg /
    call_reg / ret, whose targets come from the register file, and the
    run is budget-capped either way.
    """
    addresses: list[int] = []
    addr = CODE
    for slot in slots:
        addresses.append(addr)
        addr += 5 if slot[0] == "fwd" else len(
            encode_many([slot[1]]))
    exit_addr = addr
    insns: list[Instruction] = []
    for index, slot in enumerate(slots):
        if slot[0] == "fwd":
            _, builder, fraction = slot
            later = addresses[index + 1:] + [exit_addr]
            target = later[min(int(fraction * len(later)), len(later) - 1)]
            insns.append(builder(target))
        else:
            insns.append(slot[1])
    insns.append(build.mov_ri(R0, 0))
    insns.append(build.sys(3))  # exit(r0)
    return encode_many(insns)


class TestFuzzedPrograms:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(_SLOT, min_size=1, max_size=40))
    def test_random_program_identical(self, slots):
        assert_identical(_assemble(slots))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_SLOT, min_size=1, max_size=40),
           st.integers(1, 200))
    def test_random_program_identical_under_budget(self, slots, budget):
        # Tight budgets make ExecutionLimitExceeded land mid-block,
        # where the dispatcher must demote to single-stepping to fault
        # at the interpreter's exact instruction count and IP.
        assert_identical(_assemble(slots), max_instructions=budget)


class TestFuzzedRedZonedPrograms:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(_SLOT, min_size=1, max_size=40))
    def test_random_program_identical(self, slots):
        assert_identical_redzoned(_assemble(slots))


# -- directed adversarial cases ----------------------------------------------

def _exit_after(*insns: Instruction) -> bytes:
    return encode_many([*insns, build.mov_ri(R0, 0), build.sys(3)])


#: A word on DATA's page, away from the fuzz strategy's poison.
WORD = DATA + 0x200


def _red_zone_fault(state: tuple) -> str | None:
    summary = state[0]
    return summary[3] if summary[2] == "RedZoneFault" else None


class TestRedZonedBlocks:
    """The block tier's inline red-zone test against the interpreter's
    ``_check``: every probed byte, both widths, and containers the
    machine rebinds on restore.  A store takes the inline path only
    once its page's copy-on-write break is done, so store cases write
    the page first."""

    @pytest.mark.parametrize("offset", range(4))
    @pytest.mark.parametrize("access", ["load", "store"])
    def test_word_access_probes_every_byte(self, access, offset):
        touch = build.store(R0, Mem(R1, 0x40))
        hit = (build.load(R0, Mem(R1, 0)) if access == "load"
               else build.store(R0, Mem(R1, 0)))
        program = _exit_after(build.mov_ri(R1, WORD), touch, hit)
        first, second = assert_identical_redzoned(
            program, early=((WORD + offset, 1),), late=())
        fault = _red_zone_fault(first)
        assert fault == _red_zone_fault(second)
        assert f"0x{WORD + offset:08x} hit a red zone" in fault

    @pytest.mark.parametrize("access", ["loadb", "storeb"])
    def test_byte_access_probes_its_byte(self, access):
        builder = getattr(build, access)
        program = _exit_after(build.mov_ri(R1, WORD),
                              build.storeb(R0, Mem(R1, 0x40)),
                              builder(R0, Mem(R1, 1)),
                              builder(R0, Mem(R1, 2)))
        first, _ = assert_identical_redzoned(
            program, early=((WORD + 2, 1),), late=())
        kind = "read" if access == "loadb" else "write"
        assert _red_zone_fault(first).startswith(
            f"{kind} of 0x{WORD + 2:08x} hit a red zone")

    @pytest.mark.parametrize("program", [
        _exit_after(build.mov_ri(R1, STACK_TOP - 0x100),
                    build.store(R0, Mem(R1, 0)), build.push(R0)),
        _exit_after(build.mov_ri(SP, STACK_TOP - 4), build.pop(R0)),
    ], ids=["push", "pop"])
    def test_stack_slot_below_stack_top(self, program):
        # SP starts at STACK_TOP; the slot just below it is poisoned
        # after the restore, so the first run is clean and the second
        # faults inside the block compiled by the first.
        first, second = assert_identical_redzoned(
            program, early=(), late=((STACK_TOP - 3, 1),))
        assert _red_zone_fault(first) is None
        assert f"0x{STACK_TOP - 3:08x} hit a red zone" in \
            _red_zone_fault(second)

    @pytest.mark.parametrize("addr, fault", [
        (DATA + 0xFFC, True),       # the page's last word, last byte poisoned
        (STACK_TOP, True),          # the next page's first word
        (STACK_TOP - 4, False),     # the word before the boundary is clean
    ])
    def test_poison_next_to_a_page_boundary(self, addr, fault):
        program = _exit_after(build.mov_ri(R1, addr),
                              build.load(R0, Mem(R1, 0)),
                              build.store(R0, Mem(R1, 0)))
        first, _ = assert_identical_redzoned(
            program, early=((DATA + 0xFFF, 1), (STACK_TOP, 1)), late=())
        assert (_red_zone_fault(first) is not None) == fault

    def test_inline_test_waits_for_a_snapshot(self):
        # A one-shot red-zoned run calls the checked accessors: compiling
        # the inline test costs more than a block run once or twice
        # saves.  Blocks compiled once the machine snapshots inline it.
        program = _exit_after(build.mov_ri(R1, WORD),
                              build.load(R0, Mem(R1, 0)))
        machine = load_program(program, redzones=True)
        assert not machine.memory.has_snapshot
        one_shot = compile_block(machine, CODE).source
        machine.snapshot()
        assert machine.memory.has_snapshot
        replaying = compile_block(machine, CODE).source
        assert "m.read_word(_a)" in one_shot and "_rz" not in one_shot
        assert "_a in _rz" in replaying

    @pytest.mark.parametrize("access", ["load", "store"])
    def test_block_compiled_before_restore_meets_new_poison(self, access):
        # ``Machine.restore`` rebinds ``_redzones`` and
        # ``_redzone_pages``; a block that kept the containers it saw
        # at compile time would miss poison laid after the restore.
        hit = (build.load(R0, Mem(R1, 0x80)) if access == "load"
               else build.store(R0, Mem(R1, 0x80)))
        program = _exit_after(build.mov_ri(R1, WORD),
                              build.store(R0, Mem(R1, 0x40)), hit)
        poison = (WORD + 0x82, 1)
        machine = load_program(program, tier="block", redzones=True)
        baseline = machine.snapshot()
        run_state(machine, 3_000)
        block = machine._block_cache[CODE]
        machine.restore(baseline)
        machine.poison(*poison)
        blocked = run_state(machine, 3_000)
        assert machine._block_cache[CODE] is block
        assert blocked == run_redzoned(program, "interp", early=(),
                                       late=(poison,))[1]
        assert _red_zone_fault(blocked) is not None


class TestSelfModifyingBlocks:
    def test_store_overwrites_own_block_tail(self):
        # One straight-line run: the store at 0x100C patches the
        # instruction at 0x1012 *in the same basic block*, before it
        # has executed.  The interpreter decodes it fresh and sees the
        # patch; a stale translated tail would still load 1.
        tail = 0x1012
        patched = encode_many([build.mov_ri(R0, 2)])
        patch_word = int.from_bytes(patched[0:4], "little")
        program = encode_many([
            build.mov_ri(R1, tail),         # 0x1000
            build.mov_ri(R3, patch_word),   # 0x1006
            build.store(R3, Mem(R1, 0)),    # 0x100C
            build.mov_ri(R0, 1),            # 0x1012  <- patched above
            build.sys(3),                   # 0x1018
        ])
        state = assert_identical(program)
        assert state[0][1] == 2  # both executed the patched bytes

    def test_store_patches_next_iteration(self):
        # The test_decode_cache self-modifying loop, now exercising
        # block re-translation across iterations as well.
        loop, exit_at = 0x100C, 0x103A
        program = encode_many([
            build.mov_ri(R0, 0),
            build.mov_ri(R2, 0),
            build.add_ri(R0, 1),            # patched to `add r0, 2`
            build.add_ri(R2, 1),
            build.cmp_ri(R2, 2),
            build.jz(exit_at),
            build.mov_ri(R1, loop),
            build.mov_ri(R3, 0x0002000B),
            build.store(R3, Mem(R1, 0)),
            build.jmp_abs(loop),
            build.sys(3),
        ])
        state = assert_identical(program)
        assert state[0][1] == 3  # 1 (original pass) + 2 (patched pass)


class TestMidBlockEntry:
    def test_ret_lands_mid_block(self):
        # First pass translates the block at 0x1000; the driver then
        # forges a return address into its middle (0x1006) -- the ROP
        # shape -- and the machine must execute from there, not from
        # any block-aligned boundary.
        mid = 0x1006
        driver = 0x1100
        head = encode_many([
            build.mov_ri(R0, 5),            # 0x1000
            build.add_ri(R0, 7),            # 0x1006  <- re-entry target
            build.cmp_ri(R0, 12),           # 0x100C
            build.jz(driver),               # 0x1012
            build.sys(3),                   # 0x1017
        ])
        forged = encode_many([
            build.mov_ri(R0, 100),          # 0x1100
            build.mov_ri(R1, mid),
            build.push(R1),
            build.ret(),                    # -> 0x1006 with r0 = 100
        ])
        program = head + b"\x00" * (0x100 - len(head)) + forged
        state = assert_identical(program)
        assert state[0][1] == 107  # 100 + 7, then exit(r0)


class TestBudgetExhaustion:
    def test_limit_mid_block_matches_interpreter(self):
        # A 3-instruction loop against budgets that are not multiples
        # of 3: the limit must fire at the same count and IP as the
        # interpreter, never "rounding up" to a block boundary.
        program = encode_many([
            build.add_ri(R0, 1),            # 0x1000
            build.cmp_ri(R0, 0),            # 0x1006
            build.jmp_abs(0x1000),          # 0x100C
        ])
        for budget in (1, 2, 3, 4, 5, 499, 500, 501):
            blocked = run_one(program, "block", max_instructions=budget)
            stepped = run_one(program, "interp", max_instructions=budget)
            assert blocked == stepped
            assert blocked[0][2] == "ExecutionLimitExceeded"
            assert blocked[5] == budget  # instructions_executed is exact


def _attack_summary(result):
    return (
        result.outcome,
        result.detail,
        summarize(result.run) if result.run is not None else None,
    )


def pipeline_legs(monkeypatch, compiled_blocks, attack,
                  tiers=("interp", "block", "trace")) -> dict:
    """Run ``attack()`` once per tier, pinned through ``REPRO_TIER``
    (the pipeline builds its own machines); each leg asserts the tier
    it ran."""
    legs = {}
    for tier in tiers:
        monkeypatch.setenv("REPRO_TIER", tier)
        compiled_blocks.clear()
        legs[tier] = _attack_summary(attack())
        assert_ran_tier(tier, compiled_blocks)
    return legs


class TestAttackPipelines:
    """Whole attack pipelines (which build machines internally) agree."""

    def test_fig1_injection_exploit_identical(self, monkeypatch,
                                              compiled_blocks):
        from repro.attacks import attack_stack_smash_injection

        legs = pipeline_legs(monkeypatch, compiled_blocks,
                             lambda: attack_stack_smash_injection(NONE))
        assert legs["block"] == legs["trace"] == legs["interp"]
        assert legs["block"][2][6]  # the exploit spawns its shell either way

    def test_rop_chain_identical(self, monkeypatch, compiled_blocks):
        from repro.attacks import attack_rop_shell

        legs = pipeline_legs(monkeypatch, compiled_blocks,
                             lambda: attack_rop_shell(DEP))
        assert legs["block"] == legs["trace"] == legs["interp"]

    def test_dep_blocks_injection_identically(self, monkeypatch,
                                              compiled_blocks):
        from repro.attacks import attack_stack_smash_injection

        legs = pipeline_legs(monkeypatch, compiled_blocks,
                             lambda: attack_stack_smash_injection(DEP))
        assert legs["block"] == legs["trace"] == legs["interp"]


class TestMatrixParity:
    def test_parallel_matrix_identical_to_sequential(self):
        from repro.experiments import matrix
        from repro.mitigations.config import MATRIX_PRESETS

        presets = MATRIX_PRESETS[:2]
        sequential = matrix.run_matrix(presets=presets, jobs=1)
        parallel = matrix.run_matrix(presets=presets, jobs=2)
        assert matrix.render_matrix(sequential) == \
            matrix.render_matrix(parallel)
        for a, b in zip(sequential, parallel):
            assert (a.attack, a.preset) == (b.attack, b.preset)
            assert _attack_summary(a.result) == _attack_summary(b.result)
