"""Shared test helpers: compile/assemble/run one-liners."""

from __future__ import annotations

import pytest

from repro.asm import assemble
from repro.link import LoadedProgram, load
from repro.machine import Machine, MachineConfig, RunResult
from repro.minic import CompileOptions, compile_source
from repro.mitigations import MitigationConfig, NONE


def asm_program(source: str, config: MitigationConfig = NONE,
                name: str = "test", **load_kwargs) -> LoadedProgram:
    """Assemble one module and load it (needs a global ``main``)."""
    return load([assemble(source, name)], config, **load_kwargs)


def run_asm(source: str, stdin: bytes = b"", config: MitigationConfig = NONE,
            **load_kwargs) -> RunResult:
    """Assemble, load, feed input, run."""
    program = asm_program(source, config, **load_kwargs)
    program.feed(stdin)
    return program.run()


def c_program(source: str, config: MitigationConfig = NONE,
              options: CompileOptions | None = None, name: str = "test",
              **load_kwargs) -> LoadedProgram:
    """Compile one MinC module and load it."""
    if options is None:
        from repro.minic.compiler import options_from_mitigations

        options = options_from_mitigations(config)
    return load([compile_source(source, name, options)], config, **load_kwargs)


def run_c(source: str, stdin: bytes = b"", config: MitigationConfig = NONE,
          options: CompileOptions | None = None, **load_kwargs) -> RunResult:
    """Compile, load, feed input, run."""
    program = c_program(source, config, options, **load_kwargs)
    program.feed(stdin)
    return program.run()


@pytest.fixture
def compiled_blocks(monkeypatch) -> list[int]:
    """Head addresses of every superblock compiled in this process while
    the test runs, on any machine (pipelines build their own)."""
    from repro.machine import machine as machine_module

    heads: list[int] = []
    compile_block = machine_module.compile_block

    def counting(machine, head):
        block = compile_block(machine, head)
        if block is not None:
            heads.append(head)
        return block

    monkeypatch.setattr(machine_module, "compile_block", counting)
    return heads


def assert_ran_tier(tier: str, compiled_blocks: list[int]) -> None:
    """A leg pinned to ``tier`` really ran it: blocks were compiled on
    the block tiers, and none on the per-instruction ones."""
    assert bool(compiled_blocks) == (tier in ("block", "trace")), tier


@pytest.fixture
def bare_machine() -> Machine:
    """A machine with one RWX page of code space and a stack."""
    machine = Machine(MachineConfig())
    # Everything RWX: the historical no-DEP platform.
    machine.memory.map_region(0x1000, 0x1000, 7)
    machine.memory.map_region(0x00200000, 0x10000, 7)
    machine.cpu.ip = 0x1000
    machine.cpu.sp = 0x0020F000
    return machine
