"""Differential testing: snapshot/restore vs fresh-machine reruns.

The copy-on-write snapshot layer is a pure performance feature; a
restored machine must be indistinguishable from one freshly built and
loaded.  The directed cases replay the paper's adversarial workloads
-- the Fig. 1 stack-smash exploit, a ROP chain, a self-modifying
program -- as snapshot/restore trial sequences and hold them to the
byte-identical summaries of fresh machines, on the block, trace and
interpreter tiers.  A hypothesis fuzzer then drives arbitrary
run/write/snapshot/restore interleavings against a deepcopy oracle:
restoring any snapshot must reproduce the exact state captured when it
was taken, never leaking pages dirtied afterwards.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import Mem, R0, R1, R2, R3, build, encode_many
from repro.machine import Machine, MachineConfig
from repro.machine.memory import PAGE_SIZE, PERM_R, PERM_RW, PERM_RWX, Memory
from repro.mitigations import DEP, NONE
from tests.conftest import assert_ran_tier
from tests.test_differential_blocks import (
    CODE,
    DATA,
    SEED_REGS,
    STACK_BASE,
    STACK_TOP,
    summarize,
)

# ---------------------------------------------------------------------------
# Memory-level copy-on-write unit tests
# ---------------------------------------------------------------------------


class TestMemoryCoW:
    def _memory(self) -> Memory:
        memory = Memory()
        memory.map_region(0x1000, 2 * PAGE_SIZE, PERM_RW)
        memory.write_bytes(0x1000, b"abcd")
        return memory

    def test_restore_rewinds_written_pages(self):
        memory = self._memory()
        snap = memory.snapshot()
        memory.write_bytes(0x1000, b"XYZ!")
        memory.write_bytes(0x2000, b"second page")
        changed, perms_changed = memory.restore(snap)
        assert changed == [1, 2]
        assert not perms_changed
        assert memory.read_bytes(0x1000, 4) == b"abcd"
        assert memory.read_bytes(0x2000, 4) == b"\x00" * 4

    def test_unwritten_pages_stay_shared(self):
        memory = self._memory()
        snap = memory.snapshot()
        memory.write_byte(0x1000, 0x41)
        # Only the written page was copied; the other still aliases
        # the frozen snapshot buffer (the O(dirty) property).
        assert memory._pages[1] is not snap.pages[1]
        assert memory._pages[2] is snap.pages[2]
        assert memory.dirty_page_count == 1

    def test_restore_discards_pages_mapped_after_snapshot(self):
        memory = self._memory()
        snap = memory.snapshot()
        memory.map_region(0x5000, PAGE_SIZE, PERM_RW)
        memory.write_bytes(0x5000, b"new")
        changed, _ = memory.restore(snap)
        assert 5 in changed
        assert not memory.is_mapped(0x5000)

    def test_restore_older_snapshot_diffs_by_identity(self):
        memory = self._memory()
        first = memory.snapshot()
        memory.write_bytes(0x1000, b"one")
        second = memory.snapshot()
        memory.write_bytes(0x2000, b"two")
        # Restoring the *older* snapshot leaves the fast dirty-set
        # path (its epoch no longer matches) and must still rewind
        # both pages.
        changed, _ = memory.restore(first)
        assert changed == [1, 2]
        assert memory.read_bytes(0x1000, 4) == b"abcd"
        assert memory.read_bytes(0x2000, 4) == b"\x00" * 4
        # And the newer snapshot remains restorable afterwards.
        memory.restore(second)
        assert memory.read_bytes(0x1000, 3) == b"one"

    def test_perm_changes_are_rewound_and_reported(self):
        memory = self._memory()
        snap = memory.snapshot()
        memory.set_perms(0x1000, PAGE_SIZE, PERM_R)
        changed, perms_changed = memory.restore(snap)
        assert perms_changed
        memory.write_byte(0x1000, 0x41)  # writable again

    def test_write_word_and_write_byte_break_cow(self):
        memory = self._memory()
        snap = memory.snapshot()
        memory.write_word(0x1FFC, 0xDEADBEEF)   # last word of page 1
        memory.write_byte(0x2000, 7)
        assert memory.read_word(0x1FFC) == 0xDEADBEEF
        assert snap.pages[1][-4:] == b"\x00" * 4  # frozen copy untouched
        memory.restore(snap)
        assert memory.read_word(0x1FFC) == 0


# ---------------------------------------------------------------------------
# Machine-level differential trials
# ---------------------------------------------------------------------------


def _machine_state(machine: Machine) -> tuple:
    return (
        tuple(machine.cpu.regs),
        machine.cpu.ip,
        (machine.cpu.zf, machine.cpu.lt, machine.cpu.ult),
        machine.current_ip,
        {page: bytes(buf) for page, buf in machine.memory._pages.items()},
        dict(machine.memory._perms),
        machine.output.getvalue(),
    )


def _trial(machine: Machine, feed: bytes, budget: int = 200_000) -> tuple:
    machine.input.feed(feed)
    result = machine.run(budget)
    return summarize(result), _machine_state(machine)


@pytest.fixture(params=["block", "interp", "trace"],
                ids=["blocks", "stepped", "traces"])
def tier(request, monkeypatch):
    """Run every trial sequence on each dispatch tier, pinned through
    ``REPRO_TIER`` (the builders construct their own machines)."""
    monkeypatch.setenv("REPRO_TIER", request.param)
    return request.param


def _fig1_exploit_payloads() -> tuple:
    """The Fig. 1 injection exploit payload plus benign inputs, built
    from the attacker's study exactly like the attack pipeline."""
    from repro.attacks import shellcode
    from repro.attacks.payloads import smash
    from repro.attacks.study import locate_overflow
    from repro.programs.builders import build_fig1

    local = build_fig1(NONE, wide_open=True)
    site = locate_overflow(local, frames_up=1)
    exploit = smash(site.offset_to_return, site.buffer_addr,
                    prefix=shellcode.spawn_shell())
    return exploit, b"hello\n", b"A" * 8 + b"\n"


class TestSnapshotTrialsIdentical:
    """Restore-based trial N must equal fresh-machine trial N."""

    def _compare(self, build_target, feeds):
        builder = build_target
        warm = builder()
        machine = warm.machine if hasattr(warm, "machine") else warm
        snap = machine.snapshot()
        warm_runs = []
        for feed in feeds:
            machine.restore(snap)
            warm_runs.append(_trial(machine, feed))
        cold_runs = []
        for feed in feeds:
            fresh = builder()
            fresh_machine = (fresh.machine
                            if hasattr(fresh, "machine") else fresh)
            cold_runs.append(_trial(fresh_machine, feed))
        assert warm_runs == cold_runs
        return machine, warm_runs

    def test_fig1_exploit_trials(self, tier, compiled_blocks):
        from repro.programs.builders import build_fig1

        exploit, benign, overflowish = _fig1_exploit_payloads()
        machine, runs = self._compare(
            lambda: build_fig1(NONE, seed=3, wide_open=True),
            [benign, exploit, overflowish, exploit, benign],
        )
        shell_runs = [summary for summary, _ in runs if summary[6]]
        assert len(shell_runs) == 2  # both exploit trials, neither benign
        assert_ran_tier(tier, compiled_blocks)
        if tier != "interp":
            # Code pages were never dirtied, so the translated blocks
            # survived every restore.
            assert machine.block_cache_stats()["blocks"] > 0

    def test_rop_chain_trials(self, tier, compiled_blocks):
        from repro.attacks.gadgets import GadgetCatalog, build_shell_chain
        from repro.attacks.payloads import smash
        from repro.attacks.study import locate_overflow
        from repro.programs.builders import build_fig1

        local = build_fig1(DEP, wide_open=True)
        site = locate_overflow(local, frames_up=1)
        chain = build_shell_chain(
            GadgetCatalog.from_image_segments(local.image.segments))
        assert chain is not None
        payload = smash(site.offset_to_return, chain[0], *chain[1:])
        self._compare(
            lambda: build_fig1(DEP, seed=5, wide_open=True),
            [payload, b"plain\n", payload],
        )
        assert_ran_tier(tier, compiled_blocks)

    def test_self_modifying_program_trials(self, tier, compiled_blocks):
        # The self-patching loop from the block differential suite:
        # each trial dirties its own code page, so every restore must
        # rewind the patch (and flush stale translations) for the next
        # trial to behave identically.
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

        def builder():
            machine = Machine(MachineConfig())
            machine.memory.map_region(CODE, 0x1000, PERM_RWX)
            machine.memory.map_region(DATA, 0x1000, PERM_RW)
            machine.memory.map_region(STACK_BASE, 0x10000, PERM_RW)
            machine.memory.write_bytes(CODE, program)
            machine.cpu.ip = CODE
            machine.cpu.regs[:] = SEED_REGS
            return machine

        machine, runs = self._compare(builder, [b"", b"", b""])
        for summary, _ in runs:
            assert summary[1] == 3  # 1 (original pass) + 2 (patched)
        assert_ran_tier(tier, compiled_blocks)

    def test_restore_resets_ip_and_registers_mid_run(self, tier,
                                                     compiled_blocks):
        from repro.programs.builders import build_fig1

        target = build_fig1(NONE, seed=9, wide_open=True)
        machine = target.machine
        snap = machine.snapshot()
        before = _machine_state(machine)
        machine.input.feed(b"interrupted\n")
        machine.run(40)  # stop mid-program, registers/IP in flight
        assert_ran_tier(tier, compiled_blocks)
        machine.restore(snap)
        assert _machine_state(machine) == before


# ---------------------------------------------------------------------------
# Hypothesis: interleavings never leak dirty pages into later restores
# ---------------------------------------------------------------------------

#: A looping probe program: stores a counter through DATA, bumping a
#: register each pass, so every "run" burst dirties data pages and
#: advances machine state.
_PROBE = encode_many([
    build.mov_ri(R1, DATA),                 # 0x1000
    build.store(R0, Mem(R1, 0)),            # loop: spill the counter
    build.add_ri(R0, 1),
    build.storeb(R0, Mem(R1, 0x20)),
    build.jmp_abs(0x1006),
])

_OPS = st.one_of(
    st.tuples(st.just("run"), st.integers(1, 60)),
    st.tuples(st.just("write"),
              st.integers(0, 0xFF0), st.integers(0, 0xFFFFFFFF)),
    st.tuples(st.just("snapshot"), st.just(0)),
    st.tuples(st.just("restore"), st.integers(0, 7)),
)


class TestSnapshotProperty:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(_OPS, min_size=1, max_size=24))
    def test_restore_reproduces_captured_state(self, ops):
        machine = Machine(MachineConfig())
        machine.memory.map_region(CODE, 0x1000, PERM_RWX)
        machine.memory.map_region(DATA, 0x1000, PERM_RW)
        machine.memory.map_region(STACK_BASE, 0x10000, PERM_RW)
        machine.memory.write_bytes(CODE, _PROBE)
        machine.cpu.ip = CODE

        snaps: list[tuple] = []
        for op in ops:
            if op[0] == "run":
                machine.run(max_instructions=op[1])
            elif op[0] == "write":
                machine.memory.write_word(DATA + op[1], op[2])
            elif op[0] == "snapshot":
                # The deepcopy is the oracle: the machine state, cloned
                # outside the CoW machinery entirely.
                snaps.append((machine.snapshot(),
                              copy.deepcopy(_machine_state(machine))))
            elif snaps:
                snap, oracle = snaps[op[1] % len(snaps)]
                machine.restore(snap)
                assert _machine_state(machine) == oracle
        # Every snapshot must still restore exactly at the end, newest
        # to oldest (stacked restores across epochs).
        for snap, oracle in reversed(snaps):
            machine.restore(snap)
            assert _machine_state(machine) == oracle
