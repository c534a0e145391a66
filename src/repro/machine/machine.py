"""The VN32 machine: CPU + memory + devices + protection machinery.

:class:`Machine` is the facade the rest of the package programs
against.  It composes, in checking order, every runtime protection the
paper discusses:

1. **Protected-module access control** (Section IV-A) -- consulted
   first and for *every* access, including kernel-privileged ones;
2. **Page permissions** (DEP, Section III-C1) -- skipped for
   kernel-privileged code, which is exactly why DEP alone is useless
   against the machine-code attacker;
3. **Red zones** (ASan-style testing checks, Section III-C2);
4. **Shadow stack** and **coarse CFI** on the control-transfer path.

All of these are *disabled by default*: a bare machine is the
historical unprotected platform that the Section III attacks assume.
The loader switches them on according to a
:class:`~repro.mitigations.config.MitigationConfig`.
"""

from __future__ import annotations

import enum
import os
import pickle
from dataclasses import dataclass, field, fields
from time import perf_counter

from repro.errors import (
    BoundsFault,
    CFIFault,
    DecodeError,
    ExecutionLimitExceeded,
    InvalidInstructionFault,
    MachineFault,
    MemoryFault,
    PermissionFault,
    RedZoneFault,
    ShadowStackFault,
    SyscallFault,
)
from repro.isa.encoding import decode
from repro.isa.instructions import Instruction, WORD_MASK
from repro.isa.opcodes import OPCODE_LENGTHS, OPCODE_SPECS
from repro.machine.access import AccessKind
from repro.machine.blocks import CompiledBlock, compile_block
from repro.machine.cpu import CPU
from repro.machine.devices import InputChannel, OutputChannel, RandomDevice, ShellDevice
from repro.machine.memory import (
    Memory,
    MemorySnapshot,
    PAGE_SIZE,
    PERM_R,
    PERM_W,
    PERM_X,
    _PAGE_SHIFT,
    _U32,
)
from repro.machine.syscalls import HANDLERS
from repro.observe.events import ObserverHub
from repro.pma.module import PMAController

if False:  # pragma: no cover - typing only
    from repro.observe.events import Observer

_PAGE_MASK = PAGE_SIZE - 1

#: Control-transfer opcode bytes, mirroring the dispatch table in
#: :mod:`repro.machine.cpu` (0x19..0x25 is the contiguous transfer
#: block).  The *observed* step classifies transfers by opcode after
#: execution, so the fast path and the cpu dispatch need no
#: instrumentation at all.
_OP_JMP_ABS, _OP_JMP_REG = 0x19, 0x1A
_OP_CALL_ABS, _OP_CALL_REG, _OP_RET = 0x23, 0x24, 0x25

#: Factories called with every newly constructed :class:`Machine`;
#: each returns an :class:`~repro.observe.events.Observer` to attach
#: (or None).  Normally empty -- zero cost -- and managed through
#: :func:`repro.observe.observe_new_machines`, which lets the
#: experiments CLI instrument pipelines that build machines
#: internally.
_DEFAULT_OBSERVER_FACTORIES: list = []

#: Instance attributes swapped to their ``_*_observed`` variants while
#: a subscriber cares about memory events.  With no such subscriber
#: the class-level accessors run untouched (zero cost).
_MEMORY_ACCESSORS = (
    "read_bytes",
    "write_bytes",
    "read_word",
    "write_word",
    "read_byte",
    "write_byte",
)

#: Permission bit required for each access kind, hoisted out of the
#: per-access path (building this dict per call was measurable).
_NEEDED = {
    AccessKind.FETCH: PERM_X,
    AccessKind.READ: PERM_R,
    AccessKind.WRITE: PERM_W,
}

#: Dispatch tiers, slowest first (see :attr:`MachineConfig.tier`).
TIERS = ("uncached", "interp", "block", "trace")


def default_tier() -> str:
    """The process-wide dispatch tier: ``REPRO_TIER`` when set, else
    ``"trace"``.

    Lets CI run the whole suite down one tier (``REPRO_TIER=interp
    pytest ...``) without touching any test, and lets the differential
    suites pin a tier for pipelines that build their own machines.
    """
    return _checked_tier(os.environ.get("REPRO_TIER", "trace"), "REPRO_TIER")


def _checked_tier(tier: str, source: str) -> str:
    if tier not in TIERS:
        raise ValueError(
            f"unknown dispatch tier {tier!r} from {source}; "
            f"expected one of {', '.join(TIERS)}")
    return tier


class RunStatus(enum.Enum):
    """How a :meth:`Machine.run` ended."""

    EXITED = "exited"
    HALTED = "halted"
    FAULT = "fault"
    LIMIT = "limit"


@dataclass
class RunResult:
    """Outcome of one :meth:`Machine.run` call."""

    status: RunStatus
    exit_code: int | None = None
    fault: MachineFault | None = None
    instructions: int = 0
    output: bytes = b""
    shell_spawned: bool = False
    #: Wall-clock seconds the :meth:`Machine.run` call took.
    duration_seconds: float = 0.0

    @property
    def crashed(self) -> bool:
        """True if execution ended in a fault (any kind)."""
        return self.status is RunStatus.FAULT

    @property
    def instructions_per_second(self) -> float:
        """Simulated-instruction throughput of this run (0.0 when the
        run was too short for the clock to resolve)."""
        if self.duration_seconds <= 0.0:
            return 0.0
        return self.instructions / self.duration_seconds

    def fault_name(self) -> str:
        """Short class name of the fault, or '-' if none."""
        return type(self.fault).__name__ if self.fault else "-"


#: Wire-format header for serialized snapshots: magic + format version.
_SNAPSHOT_MAGIC = b"RSNP"
_SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class MachineSnapshot:
    """Frozen machine state, produced by :meth:`Machine.snapshot`.

    Everything is an immutable copy except ``memory``, whose page
    objects are shared copy-on-write with the live machine (see
    :class:`~repro.machine.memory.MemorySnapshot`), and
    ``current_module``, which references the registered
    :class:`~repro.pma.module.ProtectedModule` object itself (restore
    re-installs the module table, so the reference stays valid).

    :meth:`to_bytes`/:meth:`from_bytes` round-trip the whole state
    through a self-contained byte string, so a snapshot can cross
    *hosts* (a distributed campaign coordinator), not just ``fork``.
    """

    memory: MemorySnapshot
    regs: tuple
    ip: int
    zf: bool
    lt: bool
    ult: bool
    current_ip: int
    current_module: object
    kernel_regions: tuple
    indirect_targets: frozenset
    redzones: frozenset
    shadow_stack: tuple
    instructions_executed: int
    status: "RunStatus | None"
    exit_code: int | None
    input_state: tuple
    output_state: bytes
    shell_state: tuple
    rng_state: object
    pma_state: tuple

    @property
    def pages(self) -> int:
        """Pages frozen in the snapshot's page table."""
        return self.memory.page_count

    def to_bytes(self) -> bytes:
        """Serialize to a self-contained, versioned byte string.

        The sparse page table travels as sorted page numbers plus one
        zlib stream (:meth:`MemorySnapshot.to_payload`); registers,
        flags, device cursors, the RNG stream, the shadow stack and
        the PMA module table (including ``current_module``, whose
        identity link into the module table survives because both ride
        in one pickle) are pickled alongside it.
        """
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["memory"] = self.memory.to_payload()
        return (
            _SNAPSHOT_MAGIC
            + bytes((_SNAPSHOT_VERSION,))
            + pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "MachineSnapshot":
        """Rebuild a snapshot serialized by :meth:`to_bytes`.

        The result restores onto any machine built from the same
        program image exactly like the original snapshot would (the
        round-trip differential suite proves the restored machines
        byte-identical).  Deserialization trusts its input -- the
        payload is a pickle -- so snapshots are only accepted from the
        campaign's own coordinator/workers, never from guests.
        """
        header = len(_SNAPSHOT_MAGIC) + 1
        if data[:len(_SNAPSHOT_MAGIC)] != _SNAPSHOT_MAGIC:
            raise ValueError("not a serialized MachineSnapshot")
        version = data[len(_SNAPSHOT_MAGIC)]
        if version != _SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported snapshot format version {version}")
        payload = pickle.loads(data[header:])
        payload["memory"] = MemorySnapshot.from_payload(payload["memory"])
        return cls(**payload)


@dataclass
class MachineConfig:
    """Runtime-protection switches for one machine instance."""

    #: Enforce the shadow stack on call/ret.
    shadow_stack: bool = False
    #: Enforce CFI on indirect calls/jumps.
    cfi: bool = False
    #: CFI precision: "coarse" admits any function entry; "typed"
    #: requires a ``land`` landing pad whose tag matches the call
    #: site's expected type tag (carried in r7 by convention).
    cfi_mode: str = "coarse"
    #: Enforce ASan-style red zones on data accesses.
    redzones: bool = False
    #: Seed for the machine's entropy source.
    rng_seed: int = 0
    #: Dispatch tier :meth:`Machine.run` uses, one of :data:`TIERS`:
    #:
    #: * ``"uncached"`` -- decode every step (the historical
    #:   interpreter, kept as the decode cache's reference);
    #: * ``"interp"`` -- the per-instruction loop over the decode cache
    #:   (invalidated on writes to executable pages and on
    #:   permission/module-table changes);
    #: * ``"block"`` -- straight-line runs translated into fused
    #:   superblock closures (see :mod:`repro.machine.blocks`);
    #: * ``"trace"`` -- blocks plus the tier-2 trace JIT: past
    #:   :attr:`trace_hot_threshold` block-head executions, the hot path
    #:   through taken branches is recorded into one guarded loop
    #:   closure (see :mod:`repro.machine.trace`).
    #:
    #: Defaults to :func:`default_tier`.  Observed machines (unless
    #: every observer is dispatch-transparent) and :meth:`Machine.step`
    #: always take the per-instruction path; the differential suites
    #: hold every tier to identical behaviour.
    tier: str = field(default_factory=default_tier)
    #: Block-head executions before the trace recorder kicks in.
    trace_hot_threshold: int = 20

    def __post_init__(self) -> None:
        _checked_tier(self.tier, "MachineConfig.tier")


class Machine:
    """One simulated VN32 computer."""

    def __init__(
        self,
        config: MachineConfig | None = None,
        pma: PMAController | None = None,
    ) -> None:
        self.config = config or MachineConfig()
        self.memory = Memory()
        self.cpu = CPU()
        self.input = InputChannel()
        self.output = OutputChannel()
        self.shell = ShellDevice()
        self.rng = RandomDevice(self.config.rng_seed)
        self.pma = pma or PMAController()
        #: The protected module the IP is currently inside (or None).
        self.current_module = None
        #: Address of the instruction currently executing.
        self.current_ip = 0
        #: Ranges of kernel-privileged code ``(start, end)``; code
        #: fetched from these bypasses page permissions (but not PMA).
        self.kernel_regions: list[tuple[int, int]] = []
        #: Valid targets for indirect calls/jumps under CFI.
        self.indirect_targets: set[int] = set()
        #: Poisoned byte addresses (red zones).
        self._redzones: set[int] = set()
        #: Page-level index over ``_redzones``: page -> poisoned-byte
        #: count, so the common access into a poison-free page skips
        #: the per-byte set scan entirely.
        self._redzone_pages: dict[int, int] = {}
        #: Decoded-instruction cache: address -> (Instruction, length).
        #: Entries are only created for addresses on executable pages
        #: whose encoding does not cross a page boundary, and the whole
        #: page's entries die on any write to that page (von-Neumann
        #: fidelity: self-modifying code and code injection must
        #: execute the bytes last written, not stale decodes).
        self._decode_cache: dict[int, tuple[Instruction, int]] = {}
        #: Invalidation index: page -> addresses cached on that page.
        self._decode_pages: dict[int, list[int]] = {}
        #: Translated-block cache: head address -> CompiledBlock (see
        #: repro.machine.blocks).  Invalidation rides the same
        #: page-watch machinery as the decode cache above.
        self._block_cache: dict[int, CompiledBlock] = {}
        #: Invalidation index: page -> block head addresses on it.
        self._block_pages: dict[int, list[int]] = {}
        #: Bumped whenever any block is invalidated; a running block
        #: compares it after every store so self-modifying code that
        #: overwrites the block's own tail aborts back to the
        #: dispatcher instead of executing stale decodes.
        self._block_epoch = 0
        #: Chain cells: successor head -> list of one-element lists
        #: embedded in compiled predecessor blocks.  Filling a cell
        #: lets the predecessor hand the successor straight back to
        #: the dispatcher without a dict probe; nulling it (on
        #: invalidation or trace install) severs the chain.
        self._chain_registry: dict[int, list[list]] = {}
        #: Tier-2 trace cache: loop-head address -> CompiledTrace.
        self._trace_cache: dict = {}
        #: Invalidation index: page -> trace head addresses touching it.
        self._trace_pages: dict[int, list[int]] = {}
        #: Block-head execution counters feeding the hotness check.
        self._trace_counts: dict[int, int] = {}
        #: Heads where recording aborted (side exits, caps, syscalls);
        #: never retried until the page is invalidated.
        self._trace_failed: set[int] = set()
        self.memory.code_write_listener = self._invalidate_code_page
        self.memory.perm_change_listener = self.flush_decode_cache
        self.pma.add_change_listener(self.flush_decode_cache)
        self._shadow_stack: list[int] = []
        #: Observation hooks ``f(machine, syscall_number)`` called
        #: before each syscall -- used by tests and by the attacker's
        #: local "debugger" when studying a binary.
        self.syscall_hooks: list = []
        self.instructions_executed = 0
        self._status: RunStatus | None = None
        self._exit_code: int | None = None
        #: Event-bus dispatch hub, or None when nothing is attached --
        #: the single check the fast path pays (see repro.observe).
        self._observers: ObserverHub | None = None
        #: The hub the translated blocks were compiled against: None
        #: for plain unobserved blocks, or a *dispatch-transparent* hub
        #: whose event emission is baked into the block bodies.  Block
        #: dispatch is only legal while ``_observers is _blocks_hub``;
        #: any other hub demotes ``run()`` to per-instruction stepping.
        self._blocks_hub: ObserverHub | None = None
        if _DEFAULT_OBSERVER_FACTORIES:
            for factory in _DEFAULT_OBSERVER_FACTORIES:
                observer = factory(self)
                if observer is not None:
                    self.attach_observer(observer)

    # -- observability -------------------------------------------------------

    @property
    def observers(self) -> tuple:
        """The attached observers, in attach order."""
        return self._observers.observers if self._observers else ()

    def attach_observer(self, observer: "Observer") -> "Observer":
        """Subscribe ``observer`` to this machine's event stream."""
        attached = list(self.observers)
        attached.append(observer)
        self._observers = ObserverHub(attached)
        self._sync_memory_accessors()
        self._sync_block_observers()
        return observer

    def detach_observer(self, observer: "Observer") -> None:
        """Unsubscribe ``observer``; with none left the machine drops
        back to the zero-cost unobserved fast path."""
        remaining = [obs for obs in self.observers if obs is not observer]
        self._observers = ObserverHub(remaining) if remaining else None
        self._sync_memory_accessors()
        self._sync_block_observers()

    def _sync_memory_accessors(self) -> None:
        """Swap the checked accessors to their event-emitting variants
        only while some subscriber wants memory events, so unobserved
        machines (and observed ones that don't care about memory) keep
        the unwrapped class methods."""
        hub = self._observers
        if hub is not None and hub.wants_memory:
            for name in _MEMORY_ACCESSORS:
                self.__dict__[name] = getattr(self, f"_{name}_observed")
        else:
            for name in _MEMORY_ACCESSORS:
                self.__dict__.pop(name, None)

    def _sync_block_observers(self) -> None:
        """Keep the translated-block cache honest about observers.

        A *dispatch-transparent* hub (every subscriber opts in, no
        per-instruction or decode-cache hooks) becomes the block tier's
        target hub: existing translations are flushed, and blocks are
        recompiled with that hub's event emission baked in.  Any other
        hub simply demotes dispatch to the per-instruction loop without
        touching the cache (the status-quo behaviour for ordinary
        observers), so the warm translations survive a temporary
        tracer attach.  A running dispatch loop picks the change up on
        its next iteration; the one block already in flight finishes
        on its compiled-in emission (at most ``MAX_BLOCK_INSNS``
        instructions of skew, only reachable from mid-run attaches out
        of syscall hooks).
        """
        hub = self._observers
        target = hub if (hub is not None and hub.transparent) else None
        if target is not self._blocks_hub:
            self._flush_translations()
            self._blocks_hub = target

    def _flush_translations(self) -> None:
        """Drop translated blocks, chains and traces -- but keep the
        per-instruction decode cache, which is dispatch-independent.

        Unlike :meth:`flush_decode_cache` this emits no
        ``decode_invalidate`` events: it marks a dispatch-strategy
        change, not a semantic invalidation, and emitting here would
        make event streams differ across dispatch legs."""
        if self._block_cache:
            self._block_cache.clear()
            self._block_pages.clear()
            self._block_epoch += 1
        registry = self._chain_registry
        if registry:
            for cells in registry.values():
                for cell in cells:
                    cell[0] = None
            registry.clear()
        if self._trace_cache:
            self._trace_cache.clear()
            self._trace_pages.clear()
            self._block_epoch += 1
        self._trace_counts.clear()
        self._trace_failed.clear()

    def emit_breach(self, breach: object) -> None:
        """Publish an invariant breach to ``on_invariant_breach``
        subscribers (called by
        :class:`~repro.observe.invariants.InvariantMonitor`)."""
        hub = self._observers
        if hub is not None and hub.breach:
            for observer in hub.breach:
                observer.on_invariant_breach(self, breach)

    # -- privilege ----------------------------------------------------------

    def add_kernel_region(self, start: int, end: int) -> None:
        """Mark ``[start, end)`` as kernel-privileged code."""
        self.kernel_regions.append((start, end))

    def in_kernel(self, ip: int) -> bool:
        """True if ``ip`` lies in a kernel-privileged region."""
        for start, end in self.kernel_regions:
            if start <= ip < end:
                return True
        return False

    @property
    def kernel_mode(self) -> bool:
        """True if the currently executing instruction is kernel code."""
        regions = self.kernel_regions
        if not regions:
            return False
        ip = self.current_ip
        for start, end in regions:
            if start <= ip < end:
                return True
        return False

    # -- checked memory access ------------------------------------------------

    def _check(self, kind: AccessKind, addr: int, size: int) -> None:
        addr &= WORD_MASK
        if self.pma.modules:
            if kind is not AccessKind.FETCH:
                self.pma.check_data_access(
                    self.current_module, kind, addr, size, self.current_ip
                )
        page = addr >> _PAGE_SHIFT
        single_page = (addr & _PAGE_MASK) + size <= PAGE_SIZE
        if single_page:
            # Fused fast path: one dict probe against the page table,
            # permission verdict from the hoisted _NEEDED map, and the
            # kernel-region walk only on the deny path (kernel mode
            # merely widens what is allowed, never narrows it).
            perms = self.memory._perms.get(page)
            if perms is None:
                raise MemoryFault(
                    f"access to unmapped address 0x{page << _PAGE_SHIFT:08x}"
                )
            if not perms & _NEEDED[kind] and not self.kernel_mode:
                raise PermissionFault(
                    f"{kind.value} of 0x{addr:08x} denied by page permissions",
                    self.current_ip,
                )
        elif not self.kernel_mode:
            perms = self.memory.range_perms(addr, size)
            if not perms & _NEEDED[kind]:
                raise PermissionFault(
                    f"{kind.value} of 0x{addr:08x} denied by page permissions",
                    self.current_ip,
                )
        else:
            # Kernel code still faults on unmapped memory.
            self.memory.range_perms(addr, size)
        if self.config.redzones and kind is not AccessKind.FETCH and self._redzones:
            # Page-level short circuit: only scan byte-by-byte when
            # some touched page actually holds poison.
            redzone_pages = self._redzone_pages
            if single_page:
                if page not in redzone_pages:
                    return
            elif not any(
                ((addr + offset) & WORD_MASK) >> _PAGE_SHIFT in redzone_pages
                for offset in range(0, size + PAGE_SIZE - 1, PAGE_SIZE)
            ):
                return
            for offset in range(size):
                if (addr + offset) & WORD_MASK in self._redzones:
                    raise RedZoneFault(
                        f"{kind.value} of 0x{(addr + offset) & WORD_MASK:08x} "
                        "hit a red zone",
                        self.current_ip,
                    )

    # The word/byte accessors below take the fast-path legality test
    # every tier shares: one membership probe of ``Memory._fast_read``
    # / ``_fast_write`` answers "may I touch this page directly".  They
    # handle only the common shape -- no PMA modules, access inside one
    # fast page, no poisoned byte under the access -- and fall back to
    # the full ``_check`` + Memory accessor pair (identical semantics,
    # identical fault text) for everything else: every deny, so kernel
    # mode and error messages stay in exactly one place, and every
    # write to a snapshot-shared or watched page, whose copy-on-write
    # break and code-write notification live in ``Memory``.  Superblocks
    # inline the same test (``blocks.py``), and the observed twins below
    # call these accessors, so monitored machines share the fast path.

    def read_bytes(self, addr: int, size: int) -> bytes:
        self._check(AccessKind.READ, addr, size)
        return self.memory.read_bytes(addr, size)

    def write_bytes(self, addr: int, data: bytes) -> None:
        self._check(AccessKind.WRITE, addr, len(data))
        self.memory.write_bytes(addr, data)

    def read_word(self, addr: int) -> int:
        addr &= WORD_MASK
        if not self.pma.modules and (addr & _PAGE_MASK) <= PAGE_SIZE - 4:
            memory = self.memory
            page = addr >> _PAGE_SHIFT
            if page in memory._fast_read:
                rz = self._redzones
                if (not rz or page not in self._redzone_pages
                        or not self.config.redzones
                        or not (addr in rz or addr + 1 in rz
                                or addr + 2 in rz or addr + 3 in rz)):
                    return _U32.unpack_from(memory._pages[page],
                                            addr & _PAGE_MASK)[0]
        self._check(AccessKind.READ, addr, 4)
        return self.memory.read_word(addr)

    def write_word(self, addr: int, value: int) -> None:
        addr &= WORD_MASK
        if not self.pma.modules and (addr & _PAGE_MASK) <= PAGE_SIZE - 4:
            memory = self.memory
            page = addr >> _PAGE_SHIFT
            if page in memory._fast_write:
                rz = self._redzones
                if (not rz or page not in self._redzone_pages
                        or not self.config.redzones
                        or not (addr in rz or addr + 1 in rz
                                or addr + 2 in rz or addr + 3 in rz)):
                    _U32.pack_into(memory._pages[page], addr & _PAGE_MASK,
                                   value & WORD_MASK)
                    return
        self._check(AccessKind.WRITE, addr, 4)
        self.memory.write_word(addr, value)

    def read_byte(self, addr: int) -> int:
        addr &= WORD_MASK
        if not self.pma.modules:
            memory = self.memory
            page = addr >> _PAGE_SHIFT
            if page in memory._fast_read:
                rz = self._redzones
                if (not rz or addr not in rz or not self.config.redzones):
                    return memory._pages[page][addr & _PAGE_MASK]
        self._check(AccessKind.READ, addr, 1)
        return self.memory.read_byte(addr)

    def write_byte(self, addr: int, value: int) -> None:
        addr &= WORD_MASK
        if not self.pma.modules:
            memory = self.memory
            page = addr >> _PAGE_SHIFT
            if page in memory._fast_write:
                rz = self._redzones
                if (not rz or addr not in rz or not self.config.redzones):
                    memory._pages[page][addr & _PAGE_MASK] = value & 0xFF
                    return
        self._check(AccessKind.WRITE, addr, 1)
        self.memory.write_byte(addr, value)

    # -- observed memory access -------------------------------------------------
    #
    # Event-emitting twins of the checked accessors above: each runs the
    # class accessor, fast path included, then emits.  They are
    # installed as *instance* attributes by _sync_memory_accessors only
    # while some observer subscribes to read/write events (so the hub is
    # set whenever they run); otherwise the plain class methods run and
    # the unobserved path pays nothing.

    def _read_bytes_observed(self, addr: int, size: int) -> bytes:
        data = Machine.read_bytes(self, addr, size)
        for observer in self._observers.read:
            observer.on_read(self, addr & WORD_MASK, size, data)
        return data

    def _write_bytes_observed(self, addr: int, data: bytes) -> None:
        Machine.write_bytes(self, addr, data)
        for observer in self._observers.write:
            observer.on_write(self, addr & WORD_MASK, len(data), data)

    def _read_word_observed(self, addr: int) -> int:
        value = Machine.read_word(self, addr)
        for observer in self._observers.read:
            observer.on_read(self, addr & WORD_MASK, 4, value)
        return value

    def _write_word_observed(self, addr: int, value: int) -> None:
        Machine.write_word(self, addr, value)
        for observer in self._observers.write:
            observer.on_write(self, addr & WORD_MASK, 4, value & WORD_MASK)

    def _read_byte_observed(self, addr: int) -> int:
        value = Machine.read_byte(self, addr)
        for observer in self._observers.read:
            observer.on_read(self, addr & WORD_MASK, 1, value)
        return value

    def _write_byte_observed(self, addr: int, value: int) -> None:
        Machine.write_byte(self, addr, value)
        for observer in self._observers.write:
            observer.on_write(self, addr & WORD_MASK, 1, value & 0xFF)

    # -- stack helpers ----------------------------------------------------------

    def push_word(self, value: int) -> None:
        self.cpu.sp = self.cpu.sp - 4
        self.write_word(self.cpu.sp, value)

    def pop_word(self) -> int:
        value = self.read_word(self.cpu.sp)
        self.cpu.sp = self.cpu.sp + 4
        return value

    def push_return_address(self, addr: int) -> None:
        """Used by ``call``: pushes to the architectural stack and, when
        enabled, to the protected shadow stack."""
        self.push_word(addr)
        if self.config.shadow_stack:
            self._shadow_stack.append(addr)

    def pop_return_address(self) -> int:
        """Used by ``ret``: pops the architectural return address and
        cross-checks it against the shadow stack when enabled."""
        addr = self.pop_word()
        if self.config.shadow_stack:
            if not self._shadow_stack:
                raise ShadowStackFault(
                    "ret with empty shadow stack", self.current_ip
                )
            expected = self._shadow_stack.pop()
            if expected != addr:
                raise ShadowStackFault(
                    f"return address 0x{addr:08x} disagrees with shadow "
                    f"stack (expected 0x{expected:08x})",
                    self.current_ip,
                )
        return addr

    # -- control-flow policy -------------------------------------------------------

    def check_indirect_target(self, target: int) -> None:
        """CFI policy on indirect calls/jumps.

        Coarse mode: the target must be a known function entry.
        Typed mode: the target must be a ``land`` landing pad whose
        tag equals the expected-type tag the call site placed in r7
        (the FineIBT/BTI-style refinement).
        """
        if not self.config.cfi:
            return
        if self.config.cfi_mode == "typed":
            from repro.isa.opcodes import LAND_OPCODE
            from repro.isa.registers import R7

            try:
                opcode = self.memory.read_byte(target)
                tag = self.memory.read_byte((target + 1) & WORD_MASK)
            except MachineFault:
                raise CFIFault(
                    f"indirect transfer to unmapped address 0x{target:08x}",
                    self.current_ip,
                ) from None
            expected = self.cpu.regs[R7] & 0xFF
            if opcode != LAND_OPCODE:
                raise CFIFault(
                    f"indirect transfer to 0x{target:08x}: no landing pad",
                    self.current_ip,
                )
            if tag != expected:
                raise CFIFault(
                    f"indirect transfer to 0x{target:08x}: landing-pad tag "
                    f"{tag} does not match expected type tag {expected}",
                    self.current_ip,
                )
            return
        if target not in self.indirect_targets:
            raise CFIFault(
                f"indirect transfer to non-function address 0x{target:08x}",
                self.current_ip,
            )

    def bounds_check(self, value: int, limit: int) -> None:
        """The ``chk`` instruction: fault if ``value >= limit`` (unsigned)."""
        if (value & WORD_MASK) >= (limit & WORD_MASK):
            raise BoundsFault(
                f"index {value} out of bounds (limit {limit})", self.current_ip
            )

    # -- red zones -----------------------------------------------------------------

    def poison(self, addr: int, size: int) -> None:
        redzones = self._redzones
        pages = self._redzone_pages
        for offset in range(size):
            byte = (addr + offset) & WORD_MASK
            if byte not in redzones:
                redzones.add(byte)
                page = byte >> _PAGE_SHIFT
                pages[page] = pages.get(page, 0) + 1

    def unpoison(self, addr: int, size: int) -> None:
        redzones = self._redzones
        pages = self._redzone_pages
        for offset in range(size):
            byte = (addr + offset) & WORD_MASK
            if byte in redzones:
                redzones.discard(byte)
                page = byte >> _PAGE_SHIFT
                count = pages.get(page, 0) - 1
                if count <= 0:
                    pages.pop(page, None)
                else:
                    pages[page] = count

    # -- syscalls -------------------------------------------------------------------

    def do_syscall(self, number: int) -> None:
        handler = HANDLERS.get(number)
        if handler is None:
            raise SyscallFault(f"invalid syscall number {number}", self.current_ip)
        for hook in self.syscall_hooks:
            hook(self, number)
        hub = self._observers
        if hub is not None and hub.syscall:
            for observer in hub.syscall:
                observer.on_syscall(self, number)
        handler(self)

    # -- termination -------------------------------------------------------------------

    def halt(self) -> None:
        self._status = RunStatus.HALTED

    def exit(self, code: int) -> None:
        self._status = RunStatus.EXITED
        self._exit_code = code

    # -- decode cache ------------------------------------------------------------------

    def flush_decode_cache(self) -> None:
        """Drop every cached decoded instruction and translated block.

        Called on any permission change (``map_region``/``set_perms``)
        and on PMA module-table changes; cheap because these events are
        rare compared to instruction fetches.
        """
        dropped = len(self._decode_cache) + len(self._block_cache)
        self._decode_cache.clear()
        self._decode_pages.clear()
        self._flush_translations()
        self.memory.unwatch_all()
        hub = self._observers
        if hub is not None and hub.decode_invalidate:
            for observer in hub.decode_invalidate:
                observer.on_decode_invalidate(self, None, dropped)

    def _invalidate_code_page(self, page: int) -> None:
        """A watched (executable, cached) page was written: kill its
        cached decodes and translated blocks so the newly written
        bytes are what executes."""
        dropped = 0
        addrs = self._decode_pages.pop(page, None)
        if addrs:
            cache = self._decode_cache
            for addr in addrs:
                cache.pop(addr, None)
            dropped += len(addrs)
        heads = self._block_pages.pop(page, None)
        if heads:
            for head in heads:
                self._drop_block(head)
            dropped += len(heads)
            self._block_epoch += 1
        trace_heads = self._trace_pages.pop(page, None)
        if trace_heads:
            traces = self._trace_cache
            pages_index = self._trace_pages
            for head in trace_heads:
                trace = traces.pop(head, None)
                if trace is None:
                    continue
                # Multi-page traces are indexed under every page they
                # touch; scrub the other pages' entries too.
                for other in trace.pages:
                    if other != page:
                        siblings = pages_index.get(other)
                        if siblings is not None:
                            try:
                                siblings.remove(head)
                            except ValueError:
                                pass
            dropped += len(trace_heads)
            self._block_epoch += 1
        counts = self._trace_counts
        if counts:
            for head in [h for h in counts if h >> 12 == page]:
                del counts[head]
        failed = self._trace_failed
        if failed:
            for head in [h for h in failed if h >> 12 == page]:
                failed.discard(head)
        if dropped:
            hub = self._observers
            if hub is not None and hub.decode_invalidate:
                for observer in hub.decode_invalidate:
                    observer.on_decode_invalidate(self, page, dropped)

    def _drop_block(self, head: int) -> None:
        """Remove one compiled block and sever every chain through it.

        Cells *inside* the dead block are nulled and deregistered (so
        the registry does not grow across campaign restores), and cells
        in *other* blocks pointing at ``head`` are nulled so no stale
        closure is ever handed back to the dispatcher.
        """
        block = self._block_cache.pop(head, None)
        registry = self._chain_registry
        if block is not None and block.exits:
            for target, cell in block.exits:
                cell[0] = None
                cells = registry.get(target)
                if cells is not None:
                    try:
                        cells.remove(cell)
                    except ValueError:
                        pass
                    if not cells:
                        del registry[target]
        cells = registry.get(head)
        if cells is not None:
            for cell in cells:
                cell[0] = None

    def block_cache_stats(self) -> dict[str, int]:
        """Counters for tests and diagnostics (not a stable API)."""
        return {
            "blocks": len(self._block_cache),
            "pages": len(self._block_pages),
            "epoch": self._block_epoch,
        }

    def trace_cache_stats(self) -> dict[str, int]:
        """Tier-2 trace counters for tests and diagnostics."""
        return {
            "traces": len(self._trace_cache),
            "pages": len(self._trace_pages),
            "failed": len(self._trace_failed),
            "chained": sum(len(c) for c in self._chain_registry.values()),
        }

    # -- snapshot / restore ------------------------------------------------------------

    def snapshot(self) -> MachineSnapshot:
        """Freeze the complete machine state as a campaign reset point.

        The page table freezes copy-on-write (no bytes are copied
        until someone writes), so taking a snapshot is O(pages) set
        bookkeeping; registers, flags, device cursors, the RNG stream
        and PMA state are tiny and copied outright.  Restoring the
        result with :meth:`restore` rewinds the machine to this exact
        point without recompiling or reloading anything.
        """
        cpu = self.cpu
        snap = MachineSnapshot(
            memory=self.memory.snapshot(),
            regs=tuple(cpu.regs),
            ip=cpu.ip,
            zf=cpu.zf,
            lt=cpu.lt,
            ult=cpu.ult,
            current_ip=self.current_ip,
            current_module=self.current_module,
            kernel_regions=tuple(self.kernel_regions),
            indirect_targets=frozenset(self.indirect_targets),
            redzones=frozenset(self._redzones),
            shadow_stack=tuple(self._shadow_stack),
            instructions_executed=self.instructions_executed,
            status=self._status,
            exit_code=self._exit_code,
            input_state=self.input.save_state(),
            output_state=self.output.save_state(),
            shell_state=self.shell.save_state(),
            rng_state=self.rng.save_state(),
            pma_state=self.pma.save_state(),
        )
        hub = self._observers
        if hub is not None and hub.snapshot_taken:
            for observer in hub.snapshot_taken:
                observer.on_snapshot_taken(self, snap.pages)
        return snap

    def restore(self, snap: MachineSnapshot) -> int:
        """Rewind the machine to ``snap``; returns the dirty-page count.

        O(pages written since the snapshot): only dirty pages are
        swapped back to their frozen contents.  Decoded-instruction and
        translated-block caches survive for every page that stayed
        clean -- trial N+1 starts with trial N's hot superblocks --
        while entries on rewound pages are invalidated through the same
        per-page machinery a guest write uses (a permission or
        module-table difference falls back to the wholesale flush).
        Devices (input cursor, output buffer, shell flag, RNG stream),
        PMA counters and CPU state all return to their snapshot values,
        so a restored trial is indistinguishable from a fresh machine
        that executed the same prefix.  Note the PMA monotonic counters
        rewind too: snapshot/restore deliberately models the *rollback
        attack* a real platform's non-volatile counters exist to
        resist (Section IV-C).
        """
        changed, perms_changed = self.memory.restore(snap.memory)
        pma_changed = self.pma.restore_state(snap.pma_state)
        if perms_changed:
            self.flush_decode_cache()
        elif not pma_changed:
            # The common campaign path: invalidate only what the
            # rewind actually changed, keeping clean pages' decodes
            # and superblocks warm.  (A PMA change already flushed
            # everything through the module-table listener.)
            watched = self.memory._watched_pages
            for page in changed:
                watched.discard(page)
                self.memory._update_fast_page(page)
                self._invalidate_code_page(page)
        cpu = self.cpu
        cpu.regs[:] = snap.regs
        cpu.ip = snap.ip
        cpu.zf = snap.zf
        cpu.lt = snap.lt
        cpu.ult = snap.ult
        self.current_ip = snap.current_ip
        self.current_module = snap.current_module
        self.kernel_regions = list(snap.kernel_regions)
        self.indirect_targets = set(snap.indirect_targets)
        self._redzones = set(snap.redzones)
        redzone_pages: dict[int, int] = {}
        for byte in snap.redzones:
            page = byte >> _PAGE_SHIFT
            redzone_pages[page] = redzone_pages.get(page, 0) + 1
        self._redzone_pages = redzone_pages
        self._shadow_stack = list(snap.shadow_stack)
        self.instructions_executed = snap.instructions_executed
        self._status = snap.status
        self._exit_code = snap.exit_code
        self.input.restore_state(snap.input_state)
        self.output.restore_state(snap.output_state)
        self.shell.restore_state(snap.shell_state)
        self.rng.restore_state(snap.rng_state)
        hub = self._observers
        if hub is not None and hub.snapshot_restored:
            for observer in hub.snapshot_restored:
                observer.on_snapshot_restored(self, len(changed))
        return len(changed)

    # -- execution ---------------------------------------------------------------------

    def fetch_instruction(self, ip: int) -> Instruction:
        """Fetch and decode the instruction at ``ip``.

        Performs the PMA entry-point check (updating the current-module
        tracking) and the page execute-permission check.
        """
        if self.pma.modules:
            self.current_module = self.pma.check_fetch(self.current_module, ip)
        entry = self._decode_cache.get(ip)
        if entry is None:
            entry = self._fetch_slow(ip)
        return entry[0]

    def _fetch_slow(self, ip: int) -> tuple[Instruction, int]:
        """Decode-cache miss: full checked fetch + decode, then cache.

        An address is cached only when its page carries PERM_X (so a
        cache hit implies the fetch would pass the permission check for
        kernel and non-kernel code alike) and the encoding does not
        cross a page boundary (so one page watch covers all its bytes).
        """
        hub = self._observers
        if hub is not None and hub.decode_miss:
            for observer in hub.decode_miss:
                observer.on_decode_miss(self, ip)
        self._check(AccessKind.FETCH, ip, 1)
        opcode = self.memory.read_byte(ip)
        spec = OPCODE_SPECS[opcode]
        if spec is None:
            raise InvalidInstructionFault(f"invalid opcode 0x{opcode:02x}", ip)
        length = OPCODE_LENGTHS[opcode]
        if length > 1:
            self._check(AccessKind.FETCH, ip + 1, length - 1)
        raw = self.memory.read_bytes(ip, length)
        try:
            insn, _ = decode(raw)
        except DecodeError as exc:
            raise InvalidInstructionFault(str(exc), ip) from exc
        entry = (insn, length)
        if self.config.tier != "uncached":
            masked = ip & WORD_MASK
            page = masked >> _PAGE_SHIFT
            if (masked & _PAGE_MASK) + length <= PAGE_SIZE and (
                self.memory.page_perms(page) & PERM_X
            ):
                self._decode_cache[masked] = entry
                self._decode_pages.setdefault(page, []).append(masked)
                self.memory.watch_page(page)
        return entry

    def step(self) -> None:
        """Fetch, decode and execute a single instruction.

        The one ``self._observers`` check below is the entire cost the
        observability layer (repro.observe) adds to an unobserved
        machine; everything else about this loop is the PR 1 fast
        path, unchanged.
        """
        if self._observers is not None:
            return self._step_observed()
        cpu = self.cpu
        ip = cpu.ip
        self.current_ip = ip
        if self.pma.modules:
            self.current_module = self.pma.check_fetch(self.current_module, ip)
        entry = self._decode_cache.get(ip)
        if entry is None:
            entry = self._fetch_slow(ip)
        insn, length = entry
        next_ip = (ip + length) & WORD_MASK
        cpu.ip = next_ip
        cpu.execute(insn, self, next_ip)
        self.instructions_executed += 1

    def _step_observed(self) -> None:
        """One instruction with event emission (observers attached).

        Mirrors :meth:`step` exactly -- the differential suite
        (tests/test_observe_differential.py) holds both paths to
        byte-identical behaviour.  Every added branch is behind a
        subscriber-list check, so event kinds nobody subscribed to
        stay free even in observed mode.  Control transfers are
        classified *after* execution by opcode byte, which keeps the
        cpu dispatch table untouched and naturally records hijacked
        targets (the observed ``ret`` target is wherever the possibly
        clobbered return slot pointed).
        """
        hub = self._observers
        cpu = self.cpu
        ip = cpu.ip
        self.current_ip = ip
        try:
            if self.pma.modules:
                module_before = self.current_module
                module = self.pma.check_fetch(module_before, ip)
                self.current_module = module
                if module is not module_before:
                    if module_before is not None and hub.pma_exit:
                        for observer in hub.pma_exit:
                            observer.on_pma_exit(self, module_before, ip)
                    if module is not None and hub.pma_enter:
                        for observer in hub.pma_enter:
                            observer.on_pma_enter(self, module, ip)
            entry = self._decode_cache.get(ip)
            if entry is None:
                entry = self._fetch_slow(ip)
            insn, length = entry
            next_ip = (ip + length) & WORD_MASK
            cpu.ip = next_ip
            cpu.execute(insn, self, next_ip)
        except MachineFault as fault:
            if hub.fault:
                for observer in hub.fault:
                    observer.on_fault(self, fault, ip)
            raise
        self.instructions_executed += 1
        if hub.insn:
            for observer in hub.insn:
                observer.on_instruction(self, ip, insn, length)
        opcode = insn.opcode
        if _OP_JMP_ABS <= opcode <= _OP_RET:
            new_ip = cpu.ip
            if opcode >= _OP_CALL_ABS:
                if opcode == _OP_RET:
                    if hub.ret:
                        for observer in hub.ret:
                            observer.on_ret(self, ip, new_ip)
                elif hub.call:
                    for observer in hub.call:
                        observer.on_call(self, ip, new_ip, next_ip,
                                         opcode == _OP_CALL_REG)
            elif opcode <= _OP_JMP_REG:
                if hub.jump:
                    for observer in hub.jump:
                        observer.on_jump(self, ip, new_ip,
                                         opcode == _OP_JMP_REG)
            elif hub.branch:
                target = insn.operands[0] & WORD_MASK
                for observer in hub.branch:
                    observer.on_branch(self, ip, target, new_ip != next_ip)

    def run(self, max_instructions: int = 2_000_000) -> RunResult:
        """Run until exit, halt, fault, or the instruction budget.

        Never raises on machine faults -- they are part of the
        experiment outcome and are returned in the result.

        On the ``"block"`` and ``"trace"`` tiers, unobserved machines
        dispatch block-at-a-time through translated superblocks, as do
        machines whose only observers are *dispatch-transparent* (their
        event emission is compiled into the blocks; see
        ``Observer.dispatch_transparent``).  Any other observed
        machine (and the ``"interp"``/``"uncached"`` tiers) runs the
        per-instruction loop, whose behaviour the differential suites
        hold the block path to exactly.  The tier is read once, here.
        """
        self._status = None
        start_count = self.instructions_executed
        started = perf_counter()
        tier = self.config.tier
        try:
            if tier in ("block", "trace") and self._observers is self._blocks_hub:
                self._run_blocks(max_instructions, start_count,
                                 tier == "trace")
            else:
                self._run_steps(max_instructions, start_count)
        except MachineFault as fault:
            return self._result(RunStatus.FAULT, fault, start_count, started)
        return self._result(self._status, None, start_count, started)

    def _run_steps(self, max_instructions: int, start_count: int) -> None:
        """The per-instruction run loop (observed machines, and the
        ``"interp"``/``"uncached"`` tiers)."""
        step = self.step
        while self._status is None:
            if self.instructions_executed - start_count >= max_instructions:
                limit = ExecutionLimitExceeded(
                    f"exceeded {max_instructions} instructions", self.cpu.ip
                )
                hub = self._observers
                if hub is not None and hub.fault:
                    for observer in hub.fault:
                        observer.on_fault(self, limit, self.cpu.ip)
                raise limit
            step()

    def _run_blocks(self, max_instructions: int, start_count: int,
                    jit: bool) -> None:
        """Block-at-a-time dispatch through the translated-block cache.

        Falls back to :meth:`step` for addresses that cannot be
        translated (non-executable page, undecodable bytes) so faults
        reproduce exactly, and for blocks longer than the remaining
        instruction budget so :class:`ExecutionLimitExceeded` fires at
        the identical instruction count and IP as the interpreter.
        Re-checks the observer hub each dispatch: a syscall handler or
        hook attaching one mid-run demotes the rest of the run to the
        per-instruction loop -- unless the hub is dispatch-transparent,
        in which case blocks are recompiled with its event emission
        baked in and dispatch continues here.

        Two tier-2 layers ride on top of plain block dispatch (see
        DESIGN.md "Trace JIT & decoded IR"):

        * **Chaining** -- ``entry.fn`` returns the successor's
          :class:`CompiledBlock` when a static exit's chain cell is
          filled, so hot block-to-block transfers skip the cache probe
          entirely (``entry`` loops straight back into dispatch).
        * **Hot traces** (``jit``, the ``"trace"`` tier) -- block-head
          execution counts past ``config.trace_hot_threshold`` trigger
          the trace recorder; an installed trace runs whole loop
          iterations inside one closure and only returns here on a
          guard exit.  A trace returning 1 means "a guard failed at the
          trace head itself"; ``skip`` makes the very next dispatch take
          the block path once so a permanently failing guard cannot
          livelock.
        """
        cpu = self.cpu
        blocks = self._block_cache
        traces = self._trace_cache
        counts = self._trace_counts
        failed = self._trace_failed
        threshold = self.config.trace_hot_threshold
        entry = None
        skip = None
        while self._status is None:
            if self._observers is not self._blocks_hub:
                return self._run_steps(max_instructions, start_count)
            # Traces carry no observer emission, so the trace tier only
            # engages on genuinely unobserved machines; with a
            # transparent hub attached, hot loops run as (event-
            # emitting) blocks.  Re-derived each iteration because a
            # syscall hook may attach/detach observers mid-run.
            tracing = jit and self._blocks_hub is None
            remaining = max_instructions - (
                self.instructions_executed - start_count
            )
            if remaining <= 0:
                limit = ExecutionLimitExceeded(
                    f"exceeded {max_instructions} instructions", cpu.ip
                )
                hub = self._observers
                if hub is not None and hub.fault:
                    for observer in hub.fault:
                        observer.on_fault(self, limit, cpu.ip)
                raise limit
            if entry is None:
                ip = cpu.ip
                if tracing:
                    trace = traces.get(ip)
                    if (
                        trace is not None
                        and trace is not skip
                        and trace.count <= remaining
                    ):
                        skip = trace if trace.fn(self, cpu, remaining) else None
                        continue
                    skip = None
                entry = blocks.get(ip)
                if entry is None:
                    entry = self._translate_block(ip)
                    if entry is None:
                        self.step()
                        continue
            if entry.count > remaining:
                self.step()
                entry = None
                continue
            if tracing:
                head = entry.head
                count = counts.get(head, 0) + 1
                counts[head] = count
                if (
                    count >= threshold
                    and head not in failed
                    and head not in traces
                ):
                    entry = None
                    self._record_trace(head, max_instructions, start_count)
                    continue
            entry = entry.fn(self, cpu)

    def _translate_block(self, head: int) -> CompiledBlock | None:
        """Translate and cache the block at ``head`` (None if the
        interpreter must handle that address).

        Wires up chaining both ways: the new block's static-exit cells
        are filled for successors already compiled, and every compiled
        predecessor waiting on ``head`` gets its cell filled -- unless
        a trace owns the address, which must keep first claim on
        dispatch (chained predecessors would bypass it)."""
        block = compile_block(self, head)
        if block is None:
            return None
        blocks = self._block_cache
        traces = self._trace_cache
        registry = self._chain_registry
        blocks[block.head] = block
        self._block_pages.setdefault(block.page, []).append(block.head)
        self.memory.watch_page(block.page)
        for target, cell in block.exits:
            if target not in traces:
                cell[0] = blocks.get(target)
            registry.setdefault(target, []).append(cell)
        if block.head not in traces:
            for cell in registry.get(block.head, ()):
                cell[0] = block
        return block

    def _record_trace(self, head: int, max_instructions: int,
                      start_count: int) -> None:
        """Record and install the hot trace at ``head`` (or blacklist
        it so a head that will not trace is never retried).

        PMA module boundaries and red zones take the conservative road:
        their per-instruction bookkeeping (boundary checks, poison
        scans) is not replicated in trace codegen, so those
        configurations simply never trace."""
        from repro.machine.trace import record_and_compile

        if self._observers is not None:
            # Unreachable while dispatch re-derives ``tracing`` per
            # iteration; kept as a safety net.  Not blacklisted: the
            # head may trace fine once the observers detach.
            return
        if self.pma.modules or self.config.redzones:
            self._trace_failed.add(head)
            return
        trace = record_and_compile(self, head, max_instructions, start_count)
        if trace is None:
            self._trace_failed.add(head)
            return
        self._trace_cache[head] = trace
        pages_index = self._trace_pages
        for page in trace.pages:
            pages_index.setdefault(page, []).append(head)
            self.memory.watch_page(page)
        # The trace owns this address now: drop the block so dispatch
        # cannot race past the trace, and sever chains aimed at it.
        self._drop_block(head)
        for cell in self._chain_registry.get(head, ()):
            cell[0] = None

    def _result(
        self,
        status: RunStatus,
        fault: MachineFault | None,
        start_count: int,
        started: float,
    ) -> RunResult:
        return RunResult(
            status=status,
            exit_code=self._exit_code,
            fault=fault,
            instructions=self.instructions_executed - start_count,
            output=self.output.getvalue(),
            shell_spawned=self.shell.spawned,
            duration_seconds=perf_counter() - started,
        )
