"""Decode-cache invalidation: von-Neumann fidelity under caching.

The interpreter caches decoded instructions per executable page.  The
Section III attacks (code injection, self-modifying shellcode) only
behave faithfully if any write into an executable page kills the
page's cached decodes, and any permission flip kills everything.  Each
test here makes the machine execute an address, rewrite its bytes, and
execute it again -- asserting the *newly written* bytes are what runs,
on every dispatch tier.
"""

import pytest

from repro.isa import Mem, R0, R1, R2, R3, build, encode_many
from repro.machine import Machine, MachineConfig, RunStatus
from repro.machine.machine import TIERS
from repro.machine.memory import Memory, PERM_RW, PERM_RX, PERM_RWX


def rwx_machine(**config_kwargs) -> Machine:
    machine = Machine(MachineConfig(**config_kwargs))
    machine.memory.map_region(0x1000, 0x1000, PERM_RWX)
    machine.memory.map_region(0x00200000, 0x10000, PERM_RW)
    machine.cpu.ip = 0x1000
    machine.cpu.sp = 0x0020F000
    return machine


class TestSelfModifyingCode:
    """A program that overwrites its own upcoming instruction."""

    def _program(self):
        # Loop body at T is `add r0, 1` on the first pass; before the
        # second pass the program overwrites T's first word so it
        # becomes `add r0, 2`.  Final r0 is 3 only if the rewritten
        # bytes execute; a stale cached decode would produce 2.
        loop = 0x100C
        exit_at = 0x103A
        insns = [
            build.mov_ri(R0, 0),            # 0x1000
            build.mov_ri(R2, 0),            # 0x1006
            build.add_ri(R0, 1),            # 0x100C  <- T, later patched
            build.add_ri(R2, 1),            # 0x1012  pass counter
            build.cmp_ri(R2, 2),            # 0x1018
            build.jz(exit_at),              # 0x101E
            build.mov_ri(R1, loop),         # 0x1023
            # New first word of T: opcode 0x0B (add_ri), reg r0,
            # immediate low half 0x0002 -> `add r0, 2`.
            build.mov_ri(R3, 0x0002000B),   # 0x1029
            build.store(R3, Mem(R1, 0)),    # 0x102F
            build.jmp_abs(loop),            # 0x1035
            build.sys(3),                   # 0x103A  exit(r0)
        ]
        return encode_many(insns)

    @pytest.mark.parametrize("tier", TIERS)
    def test_patched_instruction_executes(self, tier):
        machine = rwx_machine(tier=tier)
        machine.memory.write_bytes(0x1000, self._program())
        result = machine.run()
        assert result.status is RunStatus.EXITED
        assert result.exit_code == 3  # 1 (original) + 2 (patched)


class TestCodeInjection:
    """Inject shellcode into an already-executed RWX page, then run it."""

    @pytest.mark.parametrize("tier", TIERS)
    def test_injected_bytes_execute(self, tier):
        machine = rwx_machine(tier=tier)
        machine.memory.map_region(0x2000, 0x1000, PERM_RWX)
        # Original stub at 0x2000: executed once first, so its decodes
        # are cached before the injection overwrites them.
        stub = encode_many([build.mov_ri(R0, 1), build.jmp_abs(0x1005)])
        machine.memory.write_bytes(0x2000, stub)
        shellcode = encode_many([build.mov_ri(R0, 7), build.sys(3)])
        assert len(shellcode) == 8
        word0 = int.from_bytes(shellcode[0:4], "little")
        word1 = int.from_bytes(shellcode[4:8], "little")
        main = [
            build.jmp_abs(0x2000),           # 0x1000: run the stub
            # 0x1005: injection, through the machine's checked stores
            build.mov_ri(R1, 0x2000),        # 0x1005
            build.mov_ri(R2, word0),         # 0x100B
            build.store(R2, Mem(R1, 0)),     # 0x1011
            build.mov_ri(R2, word1),         # 0x1017
            build.store(R2, Mem(R1, 4)),     # 0x101D
            build.jmp_abs(0x2000),           # 0x1023: run the shellcode
        ]
        machine.memory.write_bytes(0x1000, encode_many(main))
        result = machine.run(max_instructions=1_000)
        assert result.status is RunStatus.EXITED
        assert result.exit_code == 7  # the injected payload, not the stub


class TestPermFlip:
    """set_perms W->X: freshly written then newly-executable bytes run."""

    @pytest.mark.parametrize("tier", TIERS)
    def test_write_then_execute_cycle(self, tier):
        machine = rwx_machine(tier=tier)
        machine.memory.map_region(0x3000, 0x1000, PERM_RW)
        machine.memory.write_bytes(
            0x3000, encode_many([build.mov_ri(R0, 5), build.sys(3)])
        )
        machine.memory.set_perms(0x3000, 0x1000, PERM_RX)
        machine.cpu.ip = 0x3000
        assert machine.run().exit_code == 5
        # Flip back to writable, rewrite, flip executable again: the
        # second generation of bytes must be what executes.
        machine.memory.set_perms(0x3000, 0x1000, PERM_RW)
        machine.memory.write_bytes(
            0x3000, encode_many([build.mov_ri(R0, 9), build.sys(3)])
        )
        machine.memory.set_perms(0x3000, 0x1000, PERM_RX)
        machine.cpu.ip = 0x3000
        assert machine.run().exit_code == 9


class TestCacheMechanics:
    """White-box checks on population and page-granular invalidation.

    Pinned to ``tier="interp"``: these tests populate the decode
    cache by running, and block-mode runs dispatch through translated
    blocks without per-instruction decode caching (the block cache has
    its own white-box suite in tests/test_block_cache.py).
    """

    def test_cache_populates_and_write_invalidates_page(self):
        machine = rwx_machine(tier="interp")
        machine.memory.write_bytes(
            0x1000, encode_many([build.mov_ri(R0, 4), build.sys(3)])
        )
        machine.run()
        assert 0x1000 in machine._decode_cache
        machine.memory.write_byte(0x1000, 0x00)  # raw write, same page
        assert 0x1000 not in machine._decode_cache
        assert (0x1000 >> 12) not in machine._decode_pages

    def test_word_write_invalidates(self):
        machine = rwx_machine(tier="interp")
        machine.memory.write_bytes(
            0x1000, encode_many([build.mov_ri(R0, 4), build.sys(3)])
        )
        machine.run()
        assert machine._decode_cache
        machine.memory.write_word(0x1004, 0)
        assert 0x1000 not in machine._decode_cache

    def test_writes_to_other_pages_keep_cache(self):
        machine = rwx_machine(tier="interp")
        machine.memory.write_bytes(
            0x1000, encode_many([build.mov_ri(R0, 4), build.sys(3)])
        )
        machine.run()
        assert 0x1000 in machine._decode_cache
        machine.memory.write_word(0x00200000, 0xDEAD)  # data page
        assert 0x1000 in machine._decode_cache

    def test_disabled_cache_stays_empty(self):
        machine = rwx_machine(tier="uncached")
        machine.memory.write_bytes(
            0x1000, encode_many([build.mov_ri(R0, 4), build.sys(3)])
        )
        machine.run()
        assert machine._decode_cache == {}

    def test_pma_registration_flushes(self):
        from repro.pma.module import ProtectedModule

        machine = rwx_machine(tier="interp")
        machine.memory.write_bytes(
            0x1000, encode_many([build.mov_ri(R0, 4), build.sys(3)])
        )
        machine.run()
        assert machine._decode_cache
        module = ProtectedModule(
            name="m", text_start=0x5000, text_end=0x5010,
            data_start=0x6000, data_end=0x6010,
            entry_points=frozenset({0x5000}),
        )
        machine.pma.register(module, b"\x00" * 16)
        assert machine._decode_cache == {}


class TestWrappedAddressMasking:
    """map_region/set_perms/range_perms mask addresses like the raw
    accessors do, so wrapped addresses near 2**32 hit real pages."""

    def test_map_region_masks_address(self):
        mem = Memory()
        mem.map_region((1 << 32) + 0x4000, 0x1000, PERM_RW)
        assert mem.is_mapped(0x4000)
        assert mem.perms_at(0x4000) == PERM_RW

    def test_set_perms_masks_address(self):
        mem = Memory()
        mem.map_region(0x4000, 0x1000, PERM_RW)
        mem.set_perms((1 << 32) + 0x4000, 0x1000, PERM_RX)
        assert mem.perms_at(0x4000) == PERM_RX

    def test_range_perms_wraps_like_read_bytes(self):
        mem = Memory()
        mem.map_region(0xFFFFF000, 0x1000, PERM_RW)
        mem.map_region(0x0000, 0x1000, PERM_RX)
        # A 8-byte range straddling the top of the address space
        # touches the last and the first page, exactly as read_bytes
        # does.
        assert mem.range_perms(0xFFFFFFFC, 8) == (PERM_RW & PERM_RX)
        mem.write_bytes(0xFFFFFFFC, b"ABCDEFGH")
        assert mem.read_bytes(0xFFFFFFFC, 8) == b"ABCDEFGH"
        assert mem.read_bytes(0x0, 4) == b"EFGH"

    def test_iter_words_matches_per_word_reads(self):
        mem = Memory()
        mem.map_region(0x4000, 0x2000, PERM_RW)
        payload = bytes((i * 7 + 3) & 0xFF for i in range(0x2000))
        mem.write_bytes(0x4000, payload)
        words = list(mem.iter_words(0x4000, 0x6000))
        assert len(words) == 0x2000 // 4
        for addr, word in words[:64] + words[-64:]:
            assert word == mem.read_word(addr)

    def test_iter_words_unaligned_page_straddle(self):
        mem = Memory()
        mem.map_region(0x4000, 0x2000, PERM_RW)
        mem.write_bytes(0x4FFE, b"\x01\x02\x03\x04")
        words = dict(mem.iter_words(0x4FFE, 0x5002))
        assert words[0x4FFE] == 0x04030201
