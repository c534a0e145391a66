"""Platform services (``sys n``) of the VN32 machine.

These model the thin OS/hardware interface the paper's programs use:
``read``/``write`` on the I/O channels, ``exit``, and the simulated
"dangerous" services (``spawn_shell``) plus the protected-module
hardware services of Section IV-C (attest, seal/unseal, monotonic
counter).

All memory touched on behalf of a syscall goes through the machine's
*checked* accessors with the privileges of the code that invoked the
syscall.  This is what makes ``read(fd, buf, 32)`` into a 16-byte
buffer the faithful spatial-vulnerability primitive of Section III-A:
the service writes wherever the pointer says, but cannot write into a
protected module on behalf of outside code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Final

from repro.errors import CanaryFault, SealingError, SyscallFault
from repro.isa.instructions import WORD_MASK, to_signed
from repro.isa.registers import R0, R1, R2, R3

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine

#: Syscall numbers.
SYS_READ: Final[int] = 1
SYS_WRITE: Final[int] = 2
SYS_EXIT: Final[int] = 3
SYS_SPAWN_SHELL: Final[int] = 4
SYS_RAND: Final[int] = 5
SYS_PRINT_INT: Final[int] = 6
SYS_ATTEST: Final[int] = 7
SYS_SEAL: Final[int] = 8
SYS_UNSEAL: Final[int] = 9
SYS_CTR_READ: Final[int] = 10
SYS_CTR_INCR: Final[int] = 11
SYS_POISON: Final[int] = 12
SYS_UNPOISON: Final[int] = 13
SYS_CANARY_FAIL: Final[int] = 14

#: Largest single I/O transfer the platform will honour (an EFAULT-ish
#: sanity cap so attacker-controlled lengths cannot stall the
#: simulator; real kernels bound copies similarly).
MAX_IO_SIZE: Final[int] = 1 << 20

#: Value returned in R0 to signal failure from services that return
#: lengths (all real lengths are far below 2**32-1).
SYS_ERROR: Final[int] = 0xFFFFFFFF


def _sys_read(machine: "Machine") -> None:
    """``read(fd=r0, buf=r1, n=r2) -> r0 = bytes_read``.

    Copies up to ``n`` bytes from the input channel to ``buf``.  No
    bounds information exists at this level -- if ``n`` exceeds the
    buffer the program allocated, adjacent memory is overwritten.
    """
    buf = machine.cpu.regs[R1]
    size = min(machine.cpu.regs[R2], MAX_IO_SIZE)
    data = machine.input.read(size)
    if data:
        machine.write_bytes(buf, data)
    machine.cpu.regs[R0] = len(data)


def _sys_write(machine: "Machine") -> None:
    """``write(fd=r0, buf=r1, n=r2) -> r0 = n``.

    Reads ``n`` bytes at ``buf`` and emits them on the output channel.
    An attacker-controlled ``n`` larger than the buffer leaks adjacent
    memory (the Heartbleed pattern of Section III-B).
    """
    buf = machine.cpu.regs[R1]
    size = min(machine.cpu.regs[R2], MAX_IO_SIZE)
    if size:
        data = machine.read_bytes(buf, size)
        machine.output.write(data)
    machine.cpu.regs[R0] = size


def _sys_exit(machine: "Machine") -> None:
    """``exit(code=r0)`` -- orderly termination."""
    machine.exit(to_signed(machine.cpu.regs[R0]))


def _sys_spawn_shell(machine: "Machine") -> None:
    """Spawn a shell: the canonical attacker goal, recorded as a flag."""
    machine.shell.spawn(machine.current_ip)
    machine.cpu.regs[R0] = 0


def _sys_rand(machine: "Machine") -> None:
    """``r0 = random 32-bit word``."""
    machine.cpu.regs[R0] = machine.rng.word()


def _sys_print_int(machine: "Machine") -> None:
    """Write the signed decimal of r0 plus newline to the output channel."""
    machine.output.write(str(to_signed(machine.cpu.regs[R0])).encode() + b"\n")


def _require_module(machine: "Machine", service: str):
    module = machine.current_module
    if module is None:
        raise SyscallFault(
            f"sys {service} requires executing inside a protected module",
            machine.current_ip,
        )
    return module


def _sys_attest(machine: "Machine") -> None:
    """``attest(nonce=r0, nonce_len=r1, out=r2)``.

    Writes a 32-byte report ``HMAC(module_key, nonce)`` to ``out``.
    The module key is derived by the hardware from the *measured* code,
    so a tampered module produces reports that fail verification.
    """
    module = _require_module(machine, "attest")
    nonce = machine.read_bytes(machine.cpu.regs[R0], min(machine.cpu.regs[R1], 4096))
    report = machine.pma.attest(module, nonce)
    machine.write_bytes(machine.cpu.regs[R2], report)
    machine.cpu.regs[R0] = len(report)


def _sys_seal(machine: "Machine") -> None:
    """``seal(data=r0, len=r1, out=r2, cap=r3) -> r0 = blob_len``."""
    module = _require_module(machine, "seal")
    data = machine.read_bytes(machine.cpu.regs[R0], min(machine.cpu.regs[R1], MAX_IO_SIZE))
    blob = machine.pma.seal(module, data, machine.rng.bytes(16))
    if len(blob) > machine.cpu.regs[R3]:
        machine.cpu.regs[R0] = SYS_ERROR
        return
    machine.write_bytes(machine.cpu.regs[R2], blob)
    machine.cpu.regs[R0] = len(blob)


def _sys_unseal(machine: "Machine") -> None:
    """``unseal(blob=r0, len=r1, out=r2, cap=r3) -> r0 = plain_len``.

    Returns ``SYS_ERROR`` in r0 if the blob fails authentication (it
    was sealed by a different module, or tampered with).
    """
    module = _require_module(machine, "unseal")
    blob = machine.read_bytes(machine.cpu.regs[R0], min(machine.cpu.regs[R1], MAX_IO_SIZE))
    try:
        plain = machine.pma.unseal(module, blob)
    except SealingError:
        machine.cpu.regs[R0] = SYS_ERROR
        return
    if len(plain) > machine.cpu.regs[R3]:
        machine.cpu.regs[R0] = SYS_ERROR
        return
    if plain:
        machine.write_bytes(machine.cpu.regs[R2], plain)
    machine.cpu.regs[R0] = len(plain)


def _sys_ctr_read(machine: "Machine") -> None:
    """``r0 = module's non-volatile monotonic counter``."""
    module = _require_module(machine, "ctr_read")
    machine.cpu.regs[R0] = machine.pma.counter_read(module) & WORD_MASK


def _sys_ctr_incr(machine: "Machine") -> None:
    """Atomically increment the module's counter; ``r0 = new value``."""
    module = _require_module(machine, "ctr_incr")
    machine.cpu.regs[R0] = machine.pma.counter_increment(module) & WORD_MASK


def _redzone_length(machine: "Machine", service: str) -> int:
    """r1, capped at :data:`MAX_IO_SIZE` like I/O lengths: marking costs
    one set update per byte, which no instruction budget interrupts, and
    a heap overflow controls the length ``free`` passes.  A longer
    request faults rather than (un)poisoning memory it never owned."""
    size = machine.cpu.regs[R1]
    if size > MAX_IO_SIZE:
        raise SyscallFault(
            f"sys {service}: length {size} exceeds {MAX_IO_SIZE}",
            machine.current_ip,
        )
    return size


def _sys_poison(machine: "Machine") -> None:
    """``poison(addr=r0, len=r1)`` -- mark a red zone (testing mode)."""
    machine.poison(machine.cpu.regs[R0], _redzone_length(machine, "poison"))
    machine.cpu.regs[R0] = 0


def _sys_unpoison(machine: "Machine") -> None:
    """``unpoison(addr=r0, len=r1)`` -- clear a red zone."""
    machine.unpoison(machine.cpu.regs[R0],
                     _redzone_length(machine, "unpoison"))
    machine.cpu.regs[R0] = 0


def _sys_canary_fail(machine: "Machine") -> None:
    """``__stack_chk_fail``: abort with a canary fault."""
    raise CanaryFault("stack canary check failed", machine.current_ip)


HANDLERS: Final[dict[int, Callable[["Machine"], None]]] = {
    SYS_READ: _sys_read,
    SYS_WRITE: _sys_write,
    SYS_EXIT: _sys_exit,
    SYS_SPAWN_SHELL: _sys_spawn_shell,
    SYS_RAND: _sys_rand,
    SYS_PRINT_INT: _sys_print_int,
    SYS_ATTEST: _sys_attest,
    SYS_SEAL: _sys_seal,
    SYS_UNSEAL: _sys_unseal,
    SYS_CTR_READ: _sys_ctr_read,
    SYS_CTR_INCR: _sys_ctr_incr,
    SYS_POISON: _sys_poison,
    SYS_UNPOISON: _sys_unpoison,
    SYS_CANARY_FAIL: _sys_canary_fail,
}
