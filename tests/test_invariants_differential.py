"""Differential testing: the invariant monitor vs unmonitored runs.

The monitor is dispatch-transparent, so unlike every earlier observer
it rides the block-translation tier instead of demoting the machine to
per-instruction stepping.  That makes two proof obligations:

* **non-perturbation, per leg** -- a monitored run is byte-identical
  (status, exit code, fault message, instruction count, output,
  registers, flags) to an unmonitored run on each dispatch leg:
  pure interpreter, block translation, and block+trace JIT;
* **attribution stability, across legs** -- the breach timeline
  (invariant, ordinal, IP, detail, pre/post, call stack) is identical
  no matter which leg produced it, so first-breach attribution never
  depends on how the machine happened to dispatch.

Scenarios deliberately include the adversarial cases: a bulk-read
stack smash (object-bounds + return-integrity), self-modifying code
(W^X), and whole attack pipelines.
"""

from __future__ import annotations

import pytest

from repro.isa import Mem, R0, R1, R2, R3, build, encode_many
from repro.machine import Machine, MachineConfig
from repro.machine.memory import PERM_RWX
from repro.mitigations import NONE
from repro.observe import InvariantMonitor, observe_new_machines
from tests.conftest import assert_ran_tier, c_program
from tests.test_differential_cache import C_SCENARIOS, summarize

#: The three dispatch legs, as tiers.
LEGS = ("interp", "block", "trace")

#: A MinC victim whose bulk read() overruns a stack buffer; 64 bytes
#: of filler clobber the saved return address too.
VULN_SOURCE = """
void vuln() {
    int buf[4];
    read(0, buf, 64);
    print_int(buf[0]);
}
void main() { vuln(); }
"""
SMASH_PAYLOAD = b"A" * 64


def timeline_key(monitor: InvariantMonitor | None) -> tuple:
    if monitor is None:
        return ()
    return tuple(
        (b.invariant, b.seq, b.ip, b.detail, repr(b.pre), repr(b.post),
         b.call_stack)
        for b in monitor.timeline
    )


def run_c_leg(source: str, stdin: bytes, leg: str,
              monitored: bool) -> tuple:
    program = c_program(source)
    machine = program.machine
    machine.config.tier = leg
    monitor = None
    if monitored:
        monitor = InvariantMonitor()
        machine.attach_observer(monitor)
        monitor.bind_program(program)
    program.feed(stdin)
    result = program.run()
    state = (
        summarize(result),
        tuple(machine.cpu.regs),
        machine.cpu.ip,
        (machine.cpu.zf, machine.cpu.lt, machine.cpu.ult),
        machine.instructions_executed,
    )
    return state, timeline_key(monitor)


class TestCleanProgramsIdentical:
    @pytest.mark.parametrize("leg", sorted(LEGS))
    @pytest.mark.parametrize("name", sorted(C_SCENARIOS))
    def test_monitored_equals_unmonitored(self, name, leg):
        plain, _ = run_c_leg(C_SCENARIOS[name], b"", leg, monitored=False)
        observed, timeline = run_c_leg(C_SCENARIOS[name], b"", leg,
                                       monitored=True)
        assert observed == plain
        assert timeline == ()


class TestSmashedRunIdentical:
    @pytest.mark.parametrize("leg", sorted(LEGS))
    def test_monitored_equals_unmonitored(self, leg):
        plain, _ = run_c_leg(VULN_SOURCE, SMASH_PAYLOAD, leg,
                             monitored=False)
        observed, _ = run_c_leg(VULN_SOURCE, SMASH_PAYLOAD, leg,
                                monitored=True)
        assert observed == plain

    def test_breach_timeline_identical_across_legs(self):
        timelines = {}
        states = {}
        for leg in LEGS:
            states[leg], timelines[leg] = run_c_leg(
                VULN_SOURCE, SMASH_PAYLOAD, leg, monitored=True)
        assert timelines["interp"] != ()
        invariants = [b[0] for b in timelines["interp"]]
        assert "object-bounds" in invariants
        assert "return-integrity" in invariants
        assert timelines["block"] == timelines["interp"]
        assert timelines["trace"] == timelines["interp"]
        assert states["block"] == states["interp"]
        assert states["trace"] == states["interp"]


class TestSelfModifyingIdentical:
    def _program(self) -> bytes:
        loop, exit_at = 0x100C, 0x103A
        return encode_many([
            build.mov_ri(R0, 0),
            build.mov_ri(R2, 0),
            build.add_ri(R0, 1),
            build.add_ri(R2, 1),
            build.cmp_ri(R2, 2),
            build.jz(exit_at),
            build.mov_ri(R1, loop),
            build.mov_ri(R3, 0x0002000B),
            build.store(R3, Mem(R1, 0)),
            build.jmp_abs(loop),
            build.sys(3),
        ])

    def _run(self, leg: str, monitored: bool) -> tuple:
        machine = Machine(MachineConfig(tier=leg))
        monitor = None
        if monitored:
            monitor = InvariantMonitor()
            machine.attach_observer(monitor)
        machine.memory.map_region(0x1000, 0x1000, PERM_RWX)
        machine.memory.map_region(0x00200000, 0x10000, PERM_RWX)
        machine.memory.write_bytes(0x1000, self._program())
        machine.cpu.ip = 0x1000
        machine.cpu.sp = 0x0020F000
        result = machine.run(max_instructions=10_000)
        state = (summarize(result), tuple(machine.cpu.regs),
                 machine.instructions_executed)
        return state, timeline_key(monitor)

    @pytest.mark.parametrize("leg", sorted(LEGS))
    def test_monitored_equals_unmonitored(self, leg):
        plain, _ = self._run(leg, monitored=False)
        observed, timeline = self._run(leg, monitored=True)
        assert observed == plain
        assert any(b[0] == "wx-write" for b in timeline)

    def test_wx_timeline_identical_across_legs(self):
        timelines = [self._run(leg, monitored=True)[1]
                     for leg in sorted(LEGS)]
        assert timelines[0] != ()
        assert timelines[0] == timelines[1] == timelines[2]


def _attack_summary(result):
    return (
        result.outcome,
        result.detail,
        summarize(result.run) if result.run is not None else None,
    )


class TestAttackPipelinesIdentical:
    """Whole attack pipelines agree monitored vs not, on every leg
    (legs selected via ``REPRO_TIER``, which the machines honour)."""

    def _run_smash(self, monkeypatch, compiled_blocks, leg: str):
        from repro.attacks import attack_stack_smash_injection

        monkeypatch.setenv("REPRO_TIER", leg)
        compiled_blocks.clear()
        plain = _attack_summary(attack_stack_smash_injection(NONE))
        assert_ran_tier(leg, compiled_blocks)
        monitors: list[InvariantMonitor] = []

        def factory(machine):
            monitor = InvariantMonitor()
            monitors.append(monitor)
            return monitor

        with observe_new_machines(factory):
            observed = _attack_summary(attack_stack_smash_injection(NONE))
        timeline = ()
        for monitor in reversed(monitors):
            if monitor.timeline:
                timeline = timeline_key(monitor)
                break
        return plain, observed, timeline

    @pytest.mark.parametrize("leg", sorted(LEGS))
    def test_monitored_exploit_identical(self, monkeypatch, compiled_blocks,
                                         leg):
        plain, observed, timeline = self._run_smash(monkeypatch,
                                                    compiled_blocks, leg)
        assert observed == plain
        assert plain[2][6]          # the shell spawns either way
        assert timeline[0][0] == "return-integrity"

    def test_exploit_timeline_identical_across_legs(self, monkeypatch,
                                                    compiled_blocks):
        timelines = [self._run_smash(monkeypatch, compiled_blocks, leg)[2]
                     for leg in sorted(LEGS)]
        assert timelines[0] == timelines[1] == timelines[2]
