"""Tracers: bounded recorders of the machine's event stream.

Two recorders live here:

* :class:`InstructionTracer` -- records ``(ip, insn)`` pairs in
  :attr:`~InstructionTracer.entries`; attach one with
  ``machine.attach_observer(InstructionTracer())``.  Past ``limit``
  it keeps counting in :attr:`~InstructionTracer.dropped` instead of
  silently discarding entries.
* :class:`EventTrace` -- records every event kind as typed
  :class:`~repro.observe.events.Event` records, ready for the Chrome
  trace-event / JSONL exporters (:mod:`repro.observe.export`) and for
  provenance queries ("which instruction wrote this address?").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.observe.events import Event, Observer

if TYPE_CHECKING:  # pragma: no cover
    from repro.errors import MachineFault
    from repro.isa.instructions import Instruction
    from repro.machine.machine import Machine
    from repro.pma.module import ProtectedModule

#: Default retention bound for both tracers.
DEFAULT_LIMIT = 100_000


class InstructionTracer(Observer):
    """Records ``(ip, insn)`` pairs for every retired instruction."""

    def __init__(self, limit: int = DEFAULT_LIMIT):
        self.limit = limit
        self.entries: list[tuple[int, "Instruction"]] = []
        #: Entries discarded after ``entries`` filled up.
        self.dropped = 0

    def on_instruction(self, machine: "Machine", ip: int,
                       insn: "Instruction", length: int) -> None:
        if len(self.entries) < self.limit:
            self.entries.append((ip, insn))
        else:
            self.dropped += 1


class EventTrace(Observer):
    """Records the full typed event stream, bounded by ``limit``.

    ``include_memory=False`` skips read/write events (the highest-volume
    kind) which also keeps the machine's memory accessors unwrapped.
    """

    def __init__(self, limit: int = DEFAULT_LIMIT, *,
                 include_memory: bool = True):
        self.limit = limit
        self.events: list[Event] = []
        self.dropped = 0
        self._seq = 0
        if not include_memory:
            # Re-point the hooks at the base no-ops so the hub sees
            # this observer as not subscribed to memory events.
            self.on_read = Observer.on_read.__get__(self)  # type: ignore[method-assign]
            self.on_write = Observer.on_write.__get__(self)  # type: ignore[method-assign]

    def _record(self, kind: str, ip: int, **data) -> None:
        seq = self._seq
        self._seq = seq + 1
        if len(self.events) < self.limit:
            self.events.append(Event(kind, seq, ip, data))
        else:
            self.dropped += 1

    # -- hooks ---------------------------------------------------------------

    def on_instruction(self, machine, ip, insn, length):
        self._record("insn", ip, mnemonic=insn.mnemonic, length=length)

    def on_read(self, machine, addr, size, value):
        self._record("read", machine.current_ip, addr=addr, size=size,
                     value=value if isinstance(value, int) else value.hex())

    def on_write(self, machine, addr, size, value):
        self._record("write", machine.current_ip, addr=addr, size=size,
                     value=value if isinstance(value, int) else value.hex())

    def on_call(self, machine, site, target, return_addr, indirect):
        self._record("call", site, target=target, return_addr=return_addr,
                     indirect=indirect)

    def on_ret(self, machine, site, target):
        self._record("ret", site, target=target)

    def on_jump(self, machine, site, target, indirect):
        self._record("jump", site, target=target, indirect=indirect)

    def on_branch(self, machine, site, target, taken):
        self._record("branch", site, target=target, taken=taken)

    def on_syscall(self, machine, number):
        self._record("syscall", machine.current_ip, number=number)

    def on_fault(self, machine, fault: "MachineFault", ip):
        self._record("fault", ip, fault=type(fault).__name__,
                     detail=str(fault))

    def on_pma_enter(self, machine, module: "ProtectedModule", ip):
        self._record("pma_enter", ip, module=module.name)

    def on_pma_exit(self, machine, module: "ProtectedModule", ip):
        self._record("pma_exit", ip, module=module.name)

    def on_decode_miss(self, machine, ip):
        self._record("decode_miss", ip)

    def on_decode_invalidate(self, machine, page, count):
        self._record("decode_invalidate", machine.current_ip,
                     page=page, count=count)

    def on_snapshot_taken(self, machine, pages):
        self._record("snapshot_taken", machine.current_ip, pages=pages)

    def on_snapshot_restored(self, machine, dirty_pages):
        self._record("snapshot_restored", machine.current_ip,
                     dirty_pages=dirty_pages)

    def on_invariant_breach(self, machine, breach):
        self._record("breach", breach.ip if breach.ip is not None else 0,
                     invariant=breach.invariant, detail=breach.detail)

    # -- queries -------------------------------------------------------------

    def writes_to(self, addr: int, size: int = 4) -> list[Event]:
        """Write events that touched any byte of ``[addr, addr+size)``
        -- the provenance primitive ("who overwrote the return
        address?")."""
        out = []
        for event in self.events:
            if event.kind != "write":
                continue
            start = event.data["addr"]
            if start < addr + size and addr < start + event.data["size"]:
                out.append(event)
        return out
