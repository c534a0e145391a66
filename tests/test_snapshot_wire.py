"""Serialized-snapshot differential suite (to_bytes/from_bytes).

The distributed-campaign prerequisite: a :class:`MachineSnapshot`
serialized to bytes, shipped anywhere, and deserialized must restore a
machine into a state *byte-identical* to restoring the original
snapshot object -- same run results, same memory image, same device
and PMA state -- on every dispatch leg (interpreter, superblocks,
trace JIT) and onto both the original machine and a fresh build of the
same image.
"""

from __future__ import annotations

import pytest

from repro.machine.machine import MachineSnapshot
from repro.mitigations.config import NONE, TESTING
from repro.programs.builders import build_secret_program, build_victim
from tests.test_differential_cache import summarize

GET_SMASH = b"GET " + b"A" * 32


def fig1(tier: str = "block"):
    target = build_victim("fig1_staged", TESTING)
    target.machine.config.tier = tier
    return target


def mem_digest(machine) -> list[tuple[int, bytes]]:
    """The full sparse memory image (page number, page bytes)."""
    return sorted(
        (page, bytes(buf)) for page, buf in machine.memory._pages.items()
    )


def machine_digest(machine) -> tuple:
    cpu = machine.cpu
    return (
        tuple(cpu.regs), cpu.ip, cpu.zf, cpu.lt, cpu.ult,
        machine.instructions_executed,
        machine.output.save_state(),
        machine.input.save_state(),
        machine.shell.save_state(),
        machine.rng.save_state(),
        mem_digest(machine),
    )


class TestWireFormat:
    def test_round_trip_preserves_every_field(self):
        machine = fig1().machine
        machine.input.feed(b"GET ")
        machine.run(10_000)
        snap = machine.snapshot()
        back = MachineSnapshot.from_bytes(snap.to_bytes())
        assert back.regs == snap.regs
        assert back.ip == snap.ip
        assert (back.zf, back.lt, back.ult) == (snap.zf, snap.lt, snap.ult)
        assert back.instructions_executed == snap.instructions_executed
        assert back.input_state == snap.input_state
        assert back.output_state == snap.output_state
        assert back.shell_state == snap.shell_state
        assert back.rng_state == snap.rng_state
        assert back.kernel_regions == snap.kernel_regions
        assert back.indirect_targets == snap.indirect_targets
        assert back.redzones == snap.redzones
        assert back.shadow_stack == snap.shadow_stack
        assert back.memory.perms == snap.memory.perms
        assert sorted(back.memory.pages) == sorted(snap.memory.pages)
        for page, buf in snap.memory.pages.items():
            assert bytes(back.memory.pages[page]) == bytes(buf)

    def test_wire_epoch_never_matches_live(self):
        machine = fig1().machine
        snap = machine.snapshot()
        back = MachineSnapshot.from_bytes(snap.to_bytes())
        again = MachineSnapshot.from_bytes(snap.to_bytes())
        assert back.memory.epoch != snap.memory.epoch
        assert back.memory.epoch != again.memory.epoch
        assert back.memory.epoch < 0

    def test_compression_beats_raw_pages(self):
        snap = fig1().machine.snapshot()
        raw = snap.pages * 4096
        assert len(snap.to_bytes()) < raw // 4

    def test_rejects_bad_magic_and_version(self):
        blob = fig1().machine.snapshot().to_bytes()
        with pytest.raises(ValueError, match="not a serialized"):
            MachineSnapshot.from_bytes(b"XXXX" + blob[4:])
        with pytest.raises(ValueError, match="version"):
            MachineSnapshot.from_bytes(blob[:4] + b"\xff" + blob[5:])


class TestRestoreDifferential:
    """serialize -> deserialize -> restore == direct restore."""

    @pytest.mark.parametrize("tier", ["interp", "block", "trace"])
    def test_identical_to_direct_restore(self, tier):
        direct = fig1(tier).machine
        wired = fig1(tier).machine
        blob = None
        snaps = {}
        for name, machine in (("direct", direct), ("wired", wired)):
            machine.input.feed(b"GET x")
            machine.run(50_000)
            snaps[name] = machine.snapshot()
        blob = snaps["wired"].to_bytes()
        digests = []
        for machine, snap in ((direct, snaps["direct"]),
                              (wired, MachineSnapshot.from_bytes(blob))):
            # Diverge hard (a crashing run dirties many pages), then
            # rewind and run a second input from the restore point.
            machine.input.feed(GET_SMASH)
            machine.run(50_000)
            machine.restore(snap)
            machine.input.feed(b"zz")
            result = machine.run(50_000)
            digests.append((summarize(result), machine_digest(machine)))
        assert digests[0] == digests[1]

    def test_restores_onto_fresh_machine(self):
        source = fig1().machine
        source.input.feed(b"GET ")
        source.run(20_000)
        blob = source.snapshot().to_bytes()
        source.input.feed(b"A" * 36)
        expected = summarize(source.run(50_000))

        fresh = fig1().machine
        fresh.restore(MachineSnapshot.from_bytes(blob))
        fresh.input.feed(b"A" * 36)
        assert summarize(fresh.run(50_000)) == expected
        assert machine_digest(fresh) == machine_digest(source)

    def test_repeated_restores_of_wire_snapshot(self):
        """After the first identity-diff restore the wire snapshot
        participates in O(dirty) epoch tracking like any native one."""
        machine = fig1().machine
        back = MachineSnapshot.from_bytes(machine.snapshot().to_bytes())
        results = []
        for _ in range(3):
            machine.restore(back)
            machine.input.feed(GET_SMASH)
            results.append(summarize(machine.run(50_000)))
        assert results[0] == results[1] == results[2]


class TestPMALeg:
    """PMA machines: module table, current module and counters travel."""

    def build(self):
        return build_secret_program(NONE, protected=True, secure=True)

    def test_round_trip_restores_pma_state(self):
        target = self.build()
        machine = target.machine
        machine.run(50_000)
        snap = machine.snapshot()
        back = MachineSnapshot.from_bytes(snap.to_bytes())
        assert len(back.pma_state[0]) == len(snap.pma_state[0])
        assert back.pma_state[1] == snap.pma_state[1]
        names = [m.name for m in snap.pma_state[0]]
        assert [m.name for m in back.pma_state[0]] == names
        for ours, theirs in zip(snap.pma_state[0], back.pma_state[0]):
            assert ours.measurement == theirs.measurement
            assert ours.module_key == theirs.module_key
            assert ours.entry_points == theirs.entry_points

    def test_current_module_identity_survives(self):
        """``current_module`` must reference a module *in* the
        deserialized table (one pickle keeps the identity link)."""
        target = self.build()
        machine = target.machine
        machine.run(50_000)
        snap = machine.snapshot()
        back = MachineSnapshot.from_bytes(snap.to_bytes())
        if back.current_module is not None:
            assert any(back.current_module is module
                       for module in back.pma_state[0])

    def test_fresh_machine_runs_identically(self):
        source = self.build().machine
        source.run(20_000)
        blob = source.snapshot().to_bytes()
        expected = summarize(source.run(200_000))

        fresh = self.build().machine
        fresh.restore(MachineSnapshot.from_bytes(blob))
        assert summarize(fresh.run(200_000)) == expected
