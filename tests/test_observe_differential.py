"""Differential testing: observers attached vs detached.

The observability layer must be a pure read-only tap: attaching every
observer at once (event trace with memory events, metrics, profiler,
instruction tracer) must leave the machine's observable behaviour --
status, exit code, fault, output, instruction count, shell spawning,
and the legacy instruction trace -- byte-identical to an unobserved
run.  The scenarios deliberately include the paper's adversarial
cases (the Fig. 1 exploit, a ROP chain, self-modifying code) where an
observer that perturbed state would be most likely to diverge.
"""

from __future__ import annotations

import pytest

from repro.isa import Mem, R0, R1, R2, R3, build, encode_many
from repro.machine import Machine, MachineConfig, RunResult
from repro.machine.memory import PERM_RWX
from repro.mitigations import DEP, NONE
from repro.observe import (
    EventTrace,
    GuestProfiler,
    InstructionTracer,
    MetricsCollector,
    observe_new_machines,
)
from tests.conftest import c_program
from tests.test_differential_cache import C_SCENARIOS, summarize


def everything():
    """One of each observer, including the memory-event heavy ones."""
    return [EventTrace(), MetricsCollector(), GuestProfiler(),
            InstructionTracer()]


def run_c_both_ways(source: str, stdin: bytes = b"") -> tuple:
    outcomes = []
    for observe in (False, True):
        program = c_program(source)
        tracer = program.machine.attach_observer(InstructionTracer())
        if observe:
            for observer in everything():
                program.machine.attach_observer(observer)
        program.feed(stdin)
        result = program.run()
        outcomes.append((summarize(result), tracer.entries))
    return outcomes


class TestCompiledPrograms:
    @pytest.mark.parametrize("name", sorted(C_SCENARIOS))
    def test_observed_run_identical(self, name):
        (plain, plain_trace), (observed, observed_trace) = run_c_both_ways(
            C_SCENARIOS[name])
        assert observed == plain
        assert observed_trace == plain_trace


class TestAdversarialPrograms:
    def test_self_modifying_identical(self):
        loop, exit_at = 0x100C, 0x103A
        program = encode_many([
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

        outcomes = []
        for observe in (False, True):
            machine = Machine(MachineConfig())
            tracer = machine.attach_observer(InstructionTracer())
            if observe:
                for observer in everything():
                    machine.attach_observer(observer)
            machine.memory.map_region(0x1000, 0x1000, PERM_RWX)
            machine.memory.map_region(0x00200000, 0x10000, PERM_RWX)
            machine.memory.write_bytes(0x1000, program)
            machine.cpu.ip = 0x1000
            machine.cpu.sp = 0x0020F000
            result = machine.run(max_instructions=10_000)
            outcomes.append((summarize(result), tracer.entries))
        (plain, plain_trace), (observed, observed_trace) = outcomes
        assert observed == plain
        assert observed_trace == plain_trace
        assert plain[1] == 3  # both ran the patched bytes


def _attack_summary(result):
    return (
        result.outcome,
        result.detail,
        summarize(result.run) if result.run is not None else None,
    )


class TestAttackPipelines:
    """Whole attack pipelines agree with and without observers."""

    def test_fig1_injection_exploit_identical(self):
        from repro.attacks import attack_stack_smash_injection

        plain = _attack_summary(attack_stack_smash_injection(NONE))
        with observe_new_machines(lambda machine: EventTrace(),
                                  lambda machine: MetricsCollector()):
            observed = _attack_summary(attack_stack_smash_injection(NONE))
        assert observed == plain
        assert plain[2][6]  # the exploit spawns its shell either way

    def test_rop_chain_identical(self):
        from repro.attacks import attack_rop_shell

        plain = _attack_summary(attack_rop_shell(DEP))
        with observe_new_machines(lambda machine: EventTrace(),
                                  lambda machine: MetricsCollector()):
            observed = _attack_summary(attack_rop_shell(DEP))
        assert observed == plain

    def test_dep_blocks_injection_identically(self):
        from repro.attacks import attack_stack_smash_injection

        plain = _attack_summary(attack_stack_smash_injection(DEP))
        with observe_new_machines(lambda machine: EventTrace()):
            observed = _attack_summary(attack_stack_smash_injection(DEP))
        assert observed == plain


class TestTimingFieldExcluded:
    def test_summaries_ignore_wall_clock(self):
        """duration_seconds is wall-clock and legitimately differs
        between runs; everything the summaries compare must not."""
        fields = RunResult.__dataclass_fields__
        assert "duration_seconds" in fields
        compared = {"status", "exit_code", "fault", "instructions",
                    "output", "shell_spawned"}
        assert compared <= set(fields)
