"""A debugger for VN32 programs: breakpoints, watchpoints, backtraces.

This is the tool the attacker's "study phase" informally plays at
(Section III-B: "the attacker should use his knowledge about the
low-level details of the executing program"): run a local copy under
instrumentation, stop at interesting points, inspect the frame chain,
watch values change.  It is equally the honest developer's tool for
understanding what the attacks in this package actually do.

Implementation notes: breakpoints are checked before each fetch (no
code patching, so they work on R-X pages); watchpoints ride the
repro.observe event bus -- a write-event subscriber marks watches
whose range a store overlapped, and only those get their bytes
re-compared after the step.  Machines with no watchpoints stay on the
unobserved fast path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from typing import TYPE_CHECKING

from repro.errors import MachineFault
from repro.isa.registers import BP, REGISTER_NAMES
from repro.machine.machine import Machine, RunStatus
from repro.observe.events import Observer

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.link.loader import LoadedProgram


class StopReason(enum.Enum):
    BREAKPOINT = "breakpoint"
    WATCHPOINT = "watchpoint"
    STEPPED = "stepped"
    EXITED = "exited"
    HALTED = "halted"
    FAULTED = "faulted"
    LIMIT = "limit"


@dataclass
class StopEvent:
    """Why the debugger handed control back."""

    reason: StopReason
    address: int
    detail: str = ""
    fault: MachineFault | None = None

    def __str__(self) -> str:
        return f"{self.reason.value} at 0x{self.address:08x} {self.detail}".strip()


@dataclass
class Frame:
    """One backtrace entry."""

    index: int
    ip: int
    bp: int
    function: str

    def __str__(self) -> str:
        return f"#{self.index} 0x{self.ip:08x} in {self.function} (bp=0x{self.bp:08x})"


@dataclass
class _Watch:
    address: int
    size: int
    label: str
    last: bytes = b""
    #: Set by the write-event subscriber when a store overlapped this
    #: range during the last step; cleared once the bytes are compared.
    dirty: bool = False


class _WatchObserver(Observer):
    """Write-event subscriber that marks overlapped watches dirty."""

    def __init__(self, watches: list[_Watch]):
        self.watches = watches

    def on_write(self, machine, addr, size, value):
        end = addr + size
        for watch in self.watches:
            if addr < watch.address + watch.size and watch.address < end:
                watch.dirty = True


class Debugger:
    """Drives one loaded program interactively."""

    def __init__(self, program: "LoadedProgram"):
        self.program = program
        self.machine: Machine = program.machine
        self.breakpoints: set[int] = set()
        self._watches: list[_Watch] = []
        self._watch_observer: _WatchObserver | None = None
        #: Function symbols sorted by address, for symbolisation.
        self._functions = program.image.function_symbols()

    # -- configuration ------------------------------------------------------

    def resolve(self, location: int | str) -> int:
        """An address, or a symbol name from the image."""
        if isinstance(location, int):
            return location
        return self.program.image.symbol(location)

    def add_breakpoint(self, location: int | str) -> int:
        address = self.resolve(location)
        self.breakpoints.add(address)
        return address

    def remove_breakpoint(self, location: int | str) -> None:
        self.breakpoints.discard(self.resolve(location))

    def add_watchpoint(self, location: int | str, size: int = 4,
                       label: str = "") -> None:
        """Stop when the bytes at ``location`` change."""
        address = self.resolve(location)
        watch = _Watch(address, size, label or f"0x{address:08x}")
        watch.last = self._snapshot(watch)
        self._watches.append(watch)
        if self._watch_observer is None:
            self._watch_observer = _WatchObserver(self._watches)
            self.machine.attach_observer(self._watch_observer)

    def _snapshot(self, watch: _Watch) -> bytes:
        try:
            return self.machine.memory.read_bytes(watch.address, watch.size)
        except MachineFault:
            return b""

    # -- execution -----------------------------------------------------------

    def step(self) -> StopEvent:
        """Execute exactly one instruction.

        Always the per-instruction interpreter path: ``Machine.step``
        never dispatches through translated superblocks, so stepping
        stays instruction-granular on every ``MachineConfig.tier``.
        """
        try:
            self.machine.step()
        except MachineFault as fault:
            return StopEvent(StopReason.FAULTED, self.machine.current_ip,
                             str(fault), fault)
        event = self._check_watches()
        if event is not None:
            return event
        if self.machine._status is RunStatus.EXITED:
            return StopEvent(StopReason.EXITED, self.machine.current_ip)
        if self.machine._status is RunStatus.HALTED:
            return StopEvent(StopReason.HALTED, self.machine.current_ip)
        return StopEvent(StopReason.STEPPED, self.machine.cpu.ip)

    def cont(self, max_instructions: int = 2_000_000) -> StopEvent:
        """Run until a breakpoint, watchpoint change, end, or budget.

        If stopped *on* a breakpoint, steps off it first (standard
        debugger resume semantics).
        """
        if self.machine.cpu.ip in self.breakpoints:
            event = self.step()
            if event.reason is not StopReason.STEPPED:
                return event
        for _ in range(max_instructions):
            if self.machine.cpu.ip in self.breakpoints:
                return StopEvent(
                    StopReason.BREAKPOINT, self.machine.cpu.ip,
                    f"({self.symbolize(self.machine.cpu.ip)})",
                )
            event = self.step()
            if event.reason is not StopReason.STEPPED:
                return event
        return StopEvent(StopReason.LIMIT, self.machine.cpu.ip,
                         f"after {max_instructions} instructions")

    def _check_watches(self) -> StopEvent | None:
        for watch in self._watches:
            if not watch.dirty:
                continue
            watch.dirty = False
            now = self._snapshot(watch)
            if now != watch.last:
                before, watch.last = watch.last, now
                return StopEvent(
                    StopReason.WATCHPOINT, self.machine.current_ip,
                    f"{watch.label}: {before.hex()} -> {now.hex()}",
                )
        return None

    # -- inspection -----------------------------------------------------------

    def symbolize(self, address: int) -> str:
        """Nearest preceding function symbol, with offset."""
        best = None
        for func_addr, name in self._functions:
            if func_addr > address:
                break
            best = (func_addr, name)
        if best is None:
            return f"0x{address:08x}"
        offset = address - best[0]
        return best[1] if offset == 0 else f"{best[1]}+0x{offset:x}"

    def registers(self) -> dict[str, int]:
        state = {name: self.machine.cpu.regs[number]
                 for number, name in enumerate(REGISTER_NAMES)}
        state["ip"] = self.machine.cpu.ip
        return state

    def backtrace(self, limit: int = 16) -> list[Frame]:
        """Walk the saved-BP chain, as the attacker's study phase does."""
        frames: list[Frame] = []
        ip = self.machine.cpu.ip
        bp = self.machine.cpu.regs[BP]
        stack_lo, stack_hi = self.program.image.stack_range
        for index in range(limit):
            frames.append(Frame(index, ip, bp, self.symbolize(ip)))
            if not stack_lo <= bp < stack_hi:
                break
            try:
                ip = self.machine.memory.read_word(bp + 4)
                bp = self.machine.memory.read_word(bp)
            except MachineFault:
                break
            if ip == 0:
                break
        return frames

    def disassemble_around(self, location: int | str, count: int = 8) -> str:
        """Disassemble ``count`` instructions starting at a location."""
        from repro.asm.disassembler import disassemble

        address = self.resolve(location)
        data = self.machine.memory.read_bytes(address, count * 6)
        symbols = {
            addr: name for addr, name in self._functions
        }
        lines = disassemble(data, address, symbols=symbols)[:count]
        marker_lines = []
        for line in lines:
            marker = " ->" if line.address == self.machine.cpu.ip else "   "
            marker_lines.append(marker + " " + line.render())
        return "\n".join(marker_lines)

    def dump(self, location: int | str, words: int = 8) -> str:
        """Hex-dump words of memory with symbolised annotations."""
        address = self.resolve(location)
        out = []
        for offset in range(0, words * 4, 4):
            try:
                value = self.machine.memory.read_word(address + offset)
            except MachineFault:
                out.append(f"0x{address + offset:08x}  <unmapped>")
                continue
            note = ""
            segment = self.program.image.segment_at(value)
            if segment is not None and segment.kind == "text":
                note = f"  ; {self.symbolize(value)}"
            out.append(f"0x{address + offset:08x}  0x{value:08x}{note}")
        return "\n".join(out)
