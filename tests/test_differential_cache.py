"""Differential testing: decode cache on vs off.

The decoded-instruction cache is a pure performance layer; it must be
observationally invisible.  Each scenario here runs twice -- on the
``interp`` tier (cache enabled) and on ``uncached`` (the legacy
decode-every-step interpreter) -- and asserts the two runs produce
identical results: status, exit code, fault type, output, instruction
count, shell spawning, and (where traced) the full instruction trace.

The scenarios deliberately include the paper's adversarial cases: the
Fig. 1 stack-smash code-injection exploit, a ROP chain, self-modifying
code, and runtime code injection -- the workloads where a stale cache
would diverge.
"""

from __future__ import annotations

import pytest

from repro.isa import Mem, R0, R1, R2, R3, build, encode_many
from repro.machine import Machine, MachineConfig, RunResult
from repro.machine.memory import PERM_RW, PERM_RWX
from repro.mitigations import DEP, NONE
from repro.observe import InstructionTracer
from tests.conftest import c_program
from tests.test_differential_blocks import pipeline_legs

#: The decode cache's two legs: on (``interp``) and off (``uncached``).
CACHE_TIERS = ("interp", "uncached")


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


def run_c_both_ways(source: str, stdin: bytes = b"") -> tuple:
    results = []
    traces = []
    for tier in CACHE_TIERS:
        program = c_program(source)
        program.machine.config.tier = tier
        tracer = program.machine.attach_observer(InstructionTracer())
        program.feed(stdin)
        results.append(program.run())
        traces.append(tracer.entries)
    assert traces[0] == traces[1]
    return summarize(results[0]), summarize(results[1])


C_SCENARIOS = {
    "hot-loop": """
void main() {
    int acc = 0;
    int i;
    for (i = 0; i < 300; i++) {
        acc += i * 3 - 1;
    }
    print_int(acc);
}
""",
    "array-fold": """
void main() {
    int a[16];
    int i;
    for (i = 0; i < 16; i++) {
        a[i] = i * i - 7;
    }
    int total = 0;
    for (i = 0; i < 16; i++) {
        total += a[i];
    }
    print_int(total);
}
""",
    "recursion": """
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
void main() {
    print_int(fib(12));
}
""",
    "division-fault": """
void main() {
    int zero = 0;
    print_int(100 / zero);
}
""",
}


class TestCompiledPrograms:
    @pytest.mark.parametrize("name", sorted(C_SCENARIOS))
    def test_compiled_program_identical(self, name):
        cached, uncached = run_c_both_ways(C_SCENARIOS[name])
        assert cached == uncached


def _machine_pair(setup):
    """Build two identical bare machines via ``setup``, run both, and
    return their (summary, trace) pairs."""
    outcomes = []
    for tier in CACHE_TIERS:
        machine = Machine(MachineConfig(tier=tier))
        tracer = machine.attach_observer(InstructionTracer())
        setup(machine)
        result = machine.run(max_instructions=10_000)
        outcomes.append((summarize(result), tracer.entries))
    return outcomes


class TestAdversarialPrograms:
    def test_self_modifying_identical(self):
        loop, exit_at = 0x100C, 0x103A
        program = encode_many([
            build.mov_ri(R0, 0),
            build.mov_ri(R2, 0),
            build.add_ri(R0, 1),           # patched to `add r0, 2` below
            build.add_ri(R2, 1),
            build.cmp_ri(R2, 2),
            build.jz(exit_at),
            build.mov_ri(R1, loop),
            build.mov_ri(R3, 0x0002000B),
            build.store(R3, Mem(R1, 0)),
            build.jmp_abs(loop),
            build.sys(3),
        ])

        def setup(machine):
            machine.memory.map_region(0x1000, 0x1000, PERM_RWX)
            machine.memory.map_region(0x00200000, 0x10000, PERM_RW)
            machine.memory.write_bytes(0x1000, program)
            machine.cpu.ip = 0x1000
            machine.cpu.sp = 0x0020F000

        (cached, cached_trace), (uncached, uncached_trace) = _machine_pair(setup)
        assert cached == uncached
        assert cached_trace == uncached_trace
        assert cached[1] == 3  # and both actually ran the patched bytes

    def test_runtime_injection_identical(self):
        shellcode = encode_many([build.mov_ri(R0, 7), build.sys(3)])
        word0 = int.from_bytes(shellcode[0:4], "little")
        word1 = int.from_bytes(shellcode[4:8], "little")
        main = encode_many([
            build.jmp_abs(0x2000),
            build.mov_ri(R1, 0x2000),      # 0x1005
            build.mov_ri(R2, word0),
            build.store(R2, Mem(R1, 0)),
            build.mov_ri(R2, word1),
            build.store(R2, Mem(R1, 4)),
            build.jmp_abs(0x2000),
        ])
        stub = encode_many([build.mov_ri(R0, 1), build.jmp_abs(0x1005)])

        def setup(machine):
            machine.memory.map_region(0x1000, 0x1000, PERM_RWX)
            machine.memory.map_region(0x2000, 0x1000, PERM_RWX)
            machine.memory.map_region(0x00200000, 0x10000, PERM_RW)
            machine.memory.write_bytes(0x1000, main)
            machine.memory.write_bytes(0x2000, stub)
            machine.cpu.ip = 0x1000
            machine.cpu.sp = 0x0020F000

        (cached, cached_trace), (uncached, uncached_trace) = _machine_pair(setup)
        assert cached == uncached
        assert cached_trace == uncached_trace
        assert cached[1] == 7


class TestAttackPipelines:
    """Whole attack pipelines (which build machines internally) agree."""

    def test_fig1_injection_exploit_identical(self, monkeypatch,
                                              compiled_blocks):
        from repro.attacks import attack_stack_smash_injection

        legs = pipeline_legs(monkeypatch, compiled_blocks,
                             lambda: attack_stack_smash_injection(NONE),
                             CACHE_TIERS)
        assert legs["interp"] == legs["uncached"]
        assert legs["interp"][2][6]  # the exploit spawns its shell either way

    def test_rop_chain_identical(self, monkeypatch, compiled_blocks):
        from repro.attacks import attack_rop_shell

        legs = pipeline_legs(monkeypatch, compiled_blocks,
                             lambda: attack_rop_shell(DEP), CACHE_TIERS)
        assert legs["interp"] == legs["uncached"]

    def test_dep_blocks_injection_identically(self, monkeypatch,
                                              compiled_blocks):
        from repro.attacks import attack_stack_smash_injection

        legs = pipeline_legs(monkeypatch, compiled_blocks,
                             lambda: attack_stack_smash_injection(DEP),
                             CACHE_TIERS)
        assert legs["interp"] == legs["uncached"]
