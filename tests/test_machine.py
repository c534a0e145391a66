"""Tests for the machine facade: syscalls, policies, run loop."""

import pytest

from repro.errors import (
    CanaryFault,
    CFIFault,
    ExecutionLimitExceeded,
    MemoryFault,
    PermissionFault,
    RedZoneFault,
    ShadowStackFault,
    SyscallFault,
)
from repro.isa import BP, Mem, R0, R1, R2, SP, build, encode_many
from repro.machine import Machine, MachineConfig, RunStatus
from repro.machine import syscalls
from repro.machine.memory import PERM_R, PERM_RW, PERM_RX, PERM_RWX
from repro.observe import InstructionTracer


def make_machine(config=None):
    machine = Machine(config or MachineConfig())
    machine.memory.map_region(0x1000, 0x1000, PERM_RX)
    machine.memory.map_region(0x00200000, 0x10000, PERM_RW)
    machine.cpu.ip = 0x1000
    machine.cpu.sp = 0x0020F000
    return machine


def run_program(machine, instructions, **kwargs):
    machine.memory.map_region(0x1000, 0x1000, PERM_RWX)
    machine.memory.write_bytes(0x1000, encode_many(instructions))
    machine.memory.set_perms(0x1000, 0x1000, PERM_RX)
    machine.cpu.ip = 0x1000
    return machine.run(**kwargs)


class TestRunLoop:
    def test_exit_status_and_code(self):
        machine = make_machine()
        result = run_program(machine, [build.mov_ri(R0, 42), build.sys(3)])
        assert result.status is RunStatus.EXITED
        assert result.exit_code == 42

    def test_negative_exit_code(self):
        machine = make_machine()
        result = run_program(machine, [build.mov_ri(R0, -7), build.sys(3)])
        assert result.exit_code == -7

    def test_fault_captured_not_raised(self):
        machine = make_machine()
        result = run_program(machine, [build.load(R0, Mem(R1, 0x70000000))])
        assert result.status is RunStatus.FAULT
        assert isinstance(result.fault, MemoryFault)

    def test_instruction_limit(self):
        machine = make_machine()
        result = run_program(machine, [build.jmp_abs(0x1000)],
                             max_instructions=100)
        assert isinstance(result.fault, ExecutionLimitExceeded)
        assert result.status is RunStatus.FAULT

    def test_instruction_count(self):
        machine = make_machine()
        result = run_program(machine, [build.nop()] * 5 + [build.halt()])
        assert result.instructions == 6

    def test_trace_recorded_when_enabled(self):
        machine = make_machine()
        tracer = machine.attach_observer(InstructionTracer())
        run_program(machine, [build.nop(), build.halt()])
        assert [insn.mnemonic for _, insn in tracer.entries] == ["nop", "halt"]

    def test_invalid_syscall_faults(self):
        machine = make_machine()
        result = run_program(machine, [build.sys(99)])
        assert isinstance(result.fault, SyscallFault)

    def test_syscall_hook_called(self):
        machine = make_machine()
        seen = []
        machine.syscall_hooks.append(lambda m, n: seen.append(n))
        run_program(machine, [build.mov_ri(R0, 0), build.sys(3)])
        assert seen == [3]


class TestIOSyscalls:
    def test_read_copies_input(self):
        machine = make_machine()
        machine.input.feed(b"hello")
        run_program(machine, [
            build.mov_ri(R0, 0), build.mov_ri(R1, 0x00200100),
            build.mov_ri(R2, 5), build.sys(syscalls.SYS_READ), build.halt(),
        ])
        assert machine.memory.read_bytes(0x00200100, 5) == b"hello"
        assert machine.cpu.regs[R0] == 5

    def test_read_returns_available_bytes(self):
        machine = make_machine()
        machine.input.feed(b"ab")
        run_program(machine, [
            build.mov_ri(R1, 0x00200100), build.mov_ri(R2, 100),
            build.sys(syscalls.SYS_READ), build.halt(),
        ])
        assert machine.cpu.regs[R0] == 2

    def test_read_at_eof_returns_zero(self):
        machine = make_machine()
        run_program(machine, [
            build.mov_ri(R1, 0x00200100), build.mov_ri(R2, 4),
            build.sys(syscalls.SYS_READ), build.halt(),
        ])
        assert machine.cpu.regs[R0] == 0

    def test_write_emits_output(self):
        machine = make_machine()
        machine.memory.write_bytes(0x00200100, b"out!")
        result = run_program(machine, [
            build.mov_ri(R0, 1), build.mov_ri(R1, 0x00200100),
            build.mov_ri(R2, 4), build.sys(syscalls.SYS_WRITE), build.halt(),
        ])
        assert result.output == b"out!"

    def test_write_overread_faults_on_unmapped(self):
        machine = make_machine()
        result = run_program(machine, [
            build.mov_ri(R1, 0x0020FF00), build.mov_ri(R2, 0x10000),
            build.sys(syscalls.SYS_WRITE),
        ])
        assert isinstance(result.fault, MemoryFault)

    def test_print_int_signed(self):
        machine = make_machine()
        result = run_program(machine, [
            build.mov_ri(R0, -5), build.sys(syscalls.SYS_PRINT_INT), build.halt(),
        ])
        assert result.output == b"-5\n"

    def test_spawn_shell_sets_flag(self):
        machine = make_machine()
        result = run_program(machine, [build.sys(syscalls.SYS_SPAWN_SHELL),
                                       build.halt()])
        assert result.shell_spawned
        assert machine.shell.spawn_count == 1

    def test_rand_is_seeded(self):
        values = []
        for _ in range(2):
            machine = make_machine(MachineConfig(rng_seed=9))
            run_program(machine, [build.sys(syscalls.SYS_RAND), build.halt()])
            values.append(machine.cpu.regs[R0])
        assert values[0] == values[1]

    def test_canary_fail_syscall(self):
        machine = make_machine()
        result = run_program(machine, [build.sys(syscalls.SYS_CANARY_FAIL)])
        assert isinstance(result.fault, CanaryFault)

    def test_pma_syscalls_require_module(self):
        machine = make_machine()
        for number in (syscalls.SYS_ATTEST, syscalls.SYS_SEAL,
                       syscalls.SYS_UNSEAL, syscalls.SYS_CTR_READ,
                       syscalls.SYS_CTR_INCR):
            machine.cpu.ip = 0x1000
            result = run_program(machine, [build.sys(number)])
            assert isinstance(result.fault, SyscallFault), number


class TestPagePermissions:
    def test_write_to_text_denied(self):
        machine = make_machine()
        result = run_program(machine, [
            build.mov_ri(R1, 0x1000),
            build.store(R0, Mem(R1, 0)),
        ])
        assert isinstance(result.fault, PermissionFault)

    def test_execute_data_denied(self):
        machine = make_machine()
        result = run_program(machine, [build.jmp_abs(0x00200100)])
        assert isinstance(result.fault, PermissionFault)

    def test_read_requires_r(self):
        machine = make_machine()
        machine.memory.map_region(0x00300000, 0x1000, 0)
        result = run_program(machine, [
            build.mov_ri(R1, 0x00300000), build.load(R0, Mem(R1, 0)),
        ])
        assert isinstance(result.fault, PermissionFault)

    def test_kernel_bypasses_page_permissions(self):
        machine = make_machine()
        machine.memory.map_region(0x00300000, 0x1000, PERM_R)
        machine.memory.map_region(0xC0000000, 0x1000, PERM_RX)
        machine.add_kernel_region(0xC0000000, 0xC0001000)
        machine.memory.map_region(0xC0000000, 0x1000, PERM_RWX)
        machine.memory.write_bytes(0xC0000000, encode_many([
            build.mov_ri(R1, 0x00300000),
            build.mov_ri(R0, 0xBEEF),
            build.store(R0, Mem(R1, 0)),   # read-only page, but kernel
            build.halt(),
        ]))
        machine.memory.set_perms(0xC0000000, 0x1000, PERM_RX)
        machine.cpu.ip = 0xC0000000
        result = machine.run()
        assert result.status is RunStatus.HALTED
        assert machine.memory.read_word(0x00300000) == 0xBEEF

    def test_kernel_still_faults_on_unmapped(self):
        machine = make_machine()
        machine.memory.map_region(0xC0000000, 0x1000, PERM_RX)
        machine.add_kernel_region(0xC0000000, 0xC0001000)
        machine.memory.map_region(0xC0000000, 0x1000, PERM_RWX)
        machine.memory.write_bytes(0xC0000000, encode_many([
            build.mov_ri(R1, 0x70000000), build.load(R0, Mem(R1, 0)),
        ]))
        machine.cpu.ip = 0xC0000000
        result = machine.run()
        assert isinstance(result.fault, MemoryFault)


class TestShadowStack:
    def test_balanced_calls_pass(self):
        machine = make_machine(MachineConfig(shadow_stack=True))
        result = run_program(machine, [
            build.call_abs(0x1008),           # 5 bytes
            build.halt(), build.nop(), build.nop(),  # pad to 0x1008
            build.ret(),
        ])
        assert result.status is RunStatus.HALTED

    def test_overwritten_return_detected(self):
        machine = make_machine(MachineConfig(shadow_stack=True))
        # call a function that overwrites its own return address
        result = run_program(machine, [
            build.call_abs(0x1006),                    # 0x1000: 5 bytes
            build.halt(),                              # 0x1005
            build.mov_ri(R0, 0xDEAD),                  # 0x1006: 6 bytes
            build.store(R0, Mem(SP, 0)),               # overwrite ret slot
            build.ret(),
        ])
        assert isinstance(result.fault, ShadowStackFault)

    def test_ret_without_call_detected(self):
        machine = make_machine(MachineConfig(shadow_stack=True))
        machine.memory.write_word(machine.cpu.sp - 4, 0x1000)
        machine.cpu.sp -= 4
        result = run_program(machine, [build.ret()])
        assert isinstance(result.fault, ShadowStackFault)

    def test_disabled_by_default(self):
        machine = make_machine()
        result = run_program(machine, [
            build.call_abs(0x1006),
            build.halt(),
            build.mov_ri(R0, 0x1005),
            build.store(R0, Mem(SP, 0)),
            build.ret(),                 # returns to 0x1005 = halt: fine
        ])
        assert result.status is RunStatus.HALTED


class TestCFI:
    def test_indirect_call_to_registered_target(self):
        machine = make_machine(MachineConfig(cfi=True))
        machine.indirect_targets = {0x1008}
        result = run_program(machine, [
            build.mov_ri(R1, 0x1008),
            build.call_reg(R1),
            build.nop(),
            build.halt(),               # 0x1008... careful below
        ])
        # layout: mov(6) call(2) nop(1) halt at 0x1009 -- retarget:
        assert result.status in (RunStatus.HALTED, RunStatus.FAULT)

    def test_indirect_call_to_unregistered_target_faults(self):
        machine = make_machine(MachineConfig(cfi=True))
        machine.indirect_targets = set()
        result = run_program(machine, [
            build.mov_ri(R1, 0x1010), build.call_reg(R1),
        ])
        assert isinstance(result.fault, CFIFault)

    def test_indirect_jmp_checked_too(self):
        machine = make_machine(MachineConfig(cfi=True))
        machine.indirect_targets = set()
        result = run_program(machine, [
            build.mov_ri(R1, 0x1010), build.jmp_reg(R1),
        ])
        assert isinstance(result.fault, CFIFault)

    def test_direct_calls_unchecked(self):
        machine = make_machine(MachineConfig(cfi=True))
        machine.indirect_targets = set()
        result = run_program(machine, [
            build.call_abs(0x1006), build.halt(), build.ret(),
        ])
        assert result.status is RunStatus.HALTED


class TestRedZones:
    def test_poisoned_access_faults(self):
        machine = make_machine(MachineConfig(redzones=True))
        machine.poison(0x00200100, 8)
        result = run_program(machine, [
            build.mov_ri(R1, 0x00200104), build.load(R0, Mem(R1, 0)),
        ])
        assert isinstance(result.fault, RedZoneFault)

    def test_unpoison_clears(self):
        machine = make_machine(MachineConfig(redzones=True))
        machine.poison(0x00200100, 8)
        machine.unpoison(0x00200100, 8)
        result = run_program(machine, [
            build.mov_ri(R1, 0x00200100), build.load(R0, Mem(R1, 0)),
            build.halt(),
        ])
        assert result.status is RunStatus.HALTED

    def test_redzones_ignored_when_disabled(self):
        machine = make_machine(MachineConfig(redzones=False))
        machine.poison(0x00200100, 8)
        result = run_program(machine, [
            build.mov_ri(R1, 0x00200100), build.load(R0, Mem(R1, 0)),
            build.halt(),
        ])
        assert result.status is RunStatus.HALTED

    def test_poison_syscalls(self):
        machine = make_machine(MachineConfig(redzones=True))
        result = run_program(machine, [
            build.mov_ri(R0, 0x00200200), build.mov_ri(R1, 4),
            build.sys(syscalls.SYS_POISON),
            build.mov_ri(R1, 0x00200200), build.load(R2, Mem(R1, 0)),
        ])
        assert isinstance(result.fault, RedZoneFault)

    @pytest.mark.parametrize("number", [syscalls.SYS_POISON,
                                        syscalls.SYS_UNPOISON])
    @pytest.mark.parametrize("length", [syscalls.MAX_IO_SIZE + 1,
                                        0xFFFFFFFC])
    def test_redzone_syscall_length_is_capped(self, number, length):
        # A guest-chosen length (a corrupted heap chunk header reaches
        # free's poison call) must not stall the simulator inside one
        # syscall: past MAX_IO_SIZE the call faults and leaves the red
        # zones as they were.
        machine = make_machine(MachineConfig(redzones=True))
        machine.poison(0x00200100, 8)
        result = run_program(machine, [
            build.mov_ri(R0, 0x00200000), build.mov_ri(R1, length),
            build.sys(number), build.halt(),
        ])
        assert isinstance(result.fault, SyscallFault)
        assert machine._redzones == set(range(0x00200100, 0x00200108))
