"""Edge-coverage feedback over the control-flow event stream.

The greybox fuzzer (:mod:`repro.analysis.greybox`) needs AFL-style
coverage feedback: a fixed-size bitmap where every control-flow edge
the guest takes bumps one cell.  Real AFL instruments compiled code;
here the PR 2 event bus already reports every branch, jump, call and
ret with exact ``(site, target)`` pairs, so the map is derived from
events instead of inserted instrumentation -- the observed run stays
byte-identical to an unobserved one (the zero-cost contract), and the
same observer doubles as the crash-triage probe: it tracks the guest
call stack and records ``(fault type, faulting PC, call-stack hash)``
when a run dies.

Edges are mixed into ``MAP_SIZE`` cells with a deterministic integer
hash (no Python ``hash()``: the map must be identical across
processes and runs, because the fuzzer's corpus decisions and the
campaign-runner parallel path both depend on it).  Hit counts are
classified into AFL's power-of-two buckets, so "loop ran 40x instead
of 4x" counts as new behaviour while "39x vs 40x" does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import TYPE_CHECKING

from repro.observe.events import Observer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.errors import MachineFault
    from repro.machine.machine import Machine

#: Cells in the coverage map.  4096 is plenty for the simulator's
#: programs (a few hundred real edges) while keeping collision odds
#: and per-run bookkeeping low.
MAP_SIZE = 1 << 12
_MAP_MASK = MAP_SIZE - 1

#: Per-event-kind salts so a call and a jump over the same
#: ``(site, target)`` pair land in different cells.
_SALT_BRANCH_TAKEN = 0x1F123BB5
_SALT_BRANCH_FALL = 0x2E1DA9E3
_SALT_JUMP = 0x3D4D3D4D
_SALT_CALL = 0x4C11DB7D
_SALT_RET = 0x5BD1E995

#: Knuth/Murmur-flavoured odd multipliers for the integer mix.
_MIX_A = 0x9E3779B1
_MIX_B = 0x85EBCA77


def edge_index(site: int, target: int, salt: int) -> int:
    """Deterministic map cell for one ``site -> target`` edge.

    The xor-shift finalizer folds the high product bits back down so
    aligned addresses (whose low product bits are all zero) still
    spread across the map instead of collapsing onto the salt.
    """
    digest = ((site * _MIX_A) ^ (target * _MIX_B) ^ salt) & 0xFFFFFFFF
    digest ^= digest >> 15
    digest = (digest * 0x2C1B3C6D) & 0xFFFFFFFF
    digest ^= digest >> 12
    return digest & _MAP_MASK


def bucket_mask(count: int) -> int:
    """AFL hit-count bucket as a single bit (1,2,3,4-7,8-15,...,128+)."""
    if count <= 3:
        return 1 << (count - 1)
    if count < 8:
        return 1 << 3
    if count < 16:
        return 1 << 4
    if count < 32:
        return 1 << 5
    if count < 128:
        return 1 << 6
    return 1 << 7


def stack_hash(stack: tuple[int, ...] | list[int]) -> int:
    """FNV-1a fold of the guest call stack (deterministic everywhere)."""
    digest = 0x811C9DC5
    for addr in stack:
        digest = ((digest ^ addr) * 0x01000193) & 0xFFFFFFFF
    return digest


@dataclass(frozen=True)
class CrashSite:
    """``(fault type, faulting PC, call-stack hash)`` -- the dedup key
    for crash triage.  Frozen (hashable, usable as a dict key) and
    picklable across the campaign runner's worker processes.

    ``first_breach`` names the first security invariant an attached
    :class:`~repro.observe.invariants.InvariantMonitor` saw broken
    before the crash (e.g. ``"canary"`` or ``"return-integrity"``), or
    ``None`` when no monitor ran or nothing was breached.  It extends
    the dedup key: the same faulting PC reached through different
    first breaches is two distinct crashes.  The default keeps old
    three-field call sites (and pickled PR 5 fixtures) constructing
    and comparing exactly as before."""

    fault: str
    ip: int | None
    call_hash: int
    first_breach: str | None = None


class CoverageObserver(Observer):
    """Edge-coverage bitmap + crash-site probe for one machine.

    Attach once, call :meth:`begin_run` before each input, then read
    :attr:`touched` / :meth:`edge_items` after the run.  ``counts`` is
    a persistent ``MAP_SIZE`` bytearray; only the cells listed in
    ``touched`` are live for the current run (and are zeroed lazily on
    the next ``begin_run``), so per-run reset cost is O(edges taken),
    not O(map size).

    The observer is *dispatch-transparent*: it subscribes exactly to
    the control-transfer hooks the superblock translator bakes into
    compiled blocks (branch/jump/call/ret/fault), so an attached
    coverage probe keeps the machine on translated-block dispatch
    instead of demoting it to per-instruction stepping.  The event
    stream is identical either way (the differential suite proves the
    bitmap byte-identical across legs); observed fuzzing runs at block
    speed.
    """

    #: Compiled superblocks emit branch/jump/call/ret/fault events in
    #: the same order and with the same arguments as the stepped
    #: interpreter, so block dispatch may continue with this observer
    #: attached (see ObserverHub.transparent).
    dispatch_transparent = True

    def __init__(self) -> None:
        self.counts = bytearray(MAP_SIZE)
        #: Map cells hit by the current run.
        self.touched: set[int] = set()
        #: Guest call stack (return addresses) for crash triage.
        self.call_stack: list[int] = []
        #: Set by :meth:`on_fault` when the current run dies.
        self.crash_site: CrashSite | None = None

    # -- per-run lifecycle ---------------------------------------------------

    def begin_run(self) -> None:
        """Reset per-run state (cheap: clears only touched cells)."""
        counts = self.counts
        for idx in self.touched:
            counts[idx] = 0
        self.touched.clear()
        self.call_stack.clear()
        self.crash_site = None

    def _hit(self, idx: int) -> None:
        count = self.counts[idx]
        if count < 255:
            self.counts[idx] = count + 1
        self.touched.add(idx)

    # -- event hooks ---------------------------------------------------------

    def on_branch(self, machine: "Machine", site: int, target: int,
                  taken: bool) -> None:
        salt = _SALT_BRANCH_TAKEN if taken else _SALT_BRANCH_FALL
        self._hit(edge_index(site, target, salt))

    def on_jump(self, machine: "Machine", site: int, target: int,
                indirect: bool) -> None:
        self._hit(edge_index(site, target, _SALT_JUMP))

    def on_call(self, machine: "Machine", site: int, target: int,
                return_addr: int, indirect: bool) -> None:
        self._hit(edge_index(site, target, _SALT_CALL))
        self.call_stack.append(return_addr)

    def on_ret(self, machine: "Machine", site: int, target: int) -> None:
        self._hit(edge_index(site, target, _SALT_RET))
        if self.call_stack:
            # Hijacked returns may not match the pushed address; the
            # stack still unwinds one frame (profiler-style tolerance).
            self.call_stack.pop()

    def on_fault(self, machine: "Machine", fault: "MachineFault",
                 ip: int) -> None:
        self.crash_site = CrashSite(
            type(fault).__name__, fault.ip if fault.ip is not None else ip,
            stack_hash(self.call_stack),
        )

    # -- results -------------------------------------------------------------

    def edge_items(self) -> tuple[tuple[int, int], ...]:
        """Sorted ``(cell, bucket_mask)`` pairs for the current run
        (sorted so sequential and parallel integration orders agree)."""
        counts = self.counts
        return tuple(
            (idx, bucket_mask(counts[idx])) for idx in sorted(self.touched)
        )

    def snapshot_counts(self) -> bytes:
        """The raw hit-count map (tests: determinism proofs)."""
        return bytes(self.counts)


def has_new_bits(virgin: bytearray, edges: tuple[tuple[int, int], ...]) -> bool:
    """Merge one run's ``(cell, bucket_mask)`` pairs into ``virgin``.

    Returns True if any cell gained a bucket bit the map had never
    seen -- AFL's "interesting input" test.  ``virgin`` accumulates
    across the whole campaign (allocate with ``bytearray(MAP_SIZE)``).
    """
    new = False
    for idx, mask in edges:
        seen = virgin[idx]
        if mask & ~seen:
            virgin[idx] = seen | mask
            new = True
    return new


# ---------------------------------------------------------------------------
# Wire format: packed edge sets and the shared virgin map
# ---------------------------------------------------------------------------

#: Bytes per packed edge: 2-byte little-endian cell index + 1-byte
#: bucket mask.  MAP_SIZE is 2**12, so the index fits 16 bits with
#: room for the map to grow 16x before the format changes.
_EDGE_RECORD = 3


def pack_edges(edges: tuple[tuple[int, int], ...]) -> bytes:
    """Pack sorted ``(cell, bucket_mask)`` pairs into a compact blob.

    Three bytes per edge instead of a pickled tuple-of-tuples (~25
    bytes per edge plus object overhead) -- this is what crosses the
    campaign runner's process boundary per execution.
    """
    out = bytearray(len(edges) * _EDGE_RECORD)
    pos = 0
    for idx, mask in edges:
        out[pos] = idx & 0xFF
        out[pos + 1] = idx >> 8
        out[pos + 2] = mask
        pos += _EDGE_RECORD
    return bytes(out)


def unpack_edges(blob: bytes) -> tuple[tuple[int, int], ...]:
    """Inverse of :func:`pack_edges` (order preserved)."""
    return tuple(
        (blob[pos] | (blob[pos + 1] << 8), blob[pos + 2])
        for pos in range(0, len(blob), _EDGE_RECORD)
    )


class SharedVirginMap:
    """The campaign-global virgin bitmap in shared memory.

    Protocol (master-authoritative, lock-free):

    * the fuzzing master :meth:`create`\\ s the segment and is the only
      writer -- it :meth:`publish`\\ es its private virgin map after
      integrating each batch;
    * workers :meth:`attach` by name and periodically OR the published
      bytes into a private overlay (:meth:`merge_into`), against which
      they test-and-set each run's edges locally;
    * a worker ships a run's full edge set only when the run set a bit
      its overlay had never seen.  Filtered runs ship an empty blob.

    This is sound without any locking because virgin bits are
    monotonic: anything a worker's overlay knows is a subset of what
    the master's map knows by the time the master integrates that
    worker's later results, so "not new locally" always implies "not
    new globally".  A stale or torn read only makes a worker ship
    edges it did not strictly need to -- never drop coverage.
    """

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool) -> None:
        self._shm = shm
        self._owner = owner

    @property
    def name(self) -> str:
        """Segment name workers use to :meth:`attach`."""
        return self._shm.name

    @classmethod
    def create(cls) -> "SharedVirginMap":
        """Allocate a fresh all-zero map (master side)."""
        shm = shared_memory.SharedMemory(create=True, size=MAP_SIZE)
        shm.buf[:MAP_SIZE] = bytes(MAP_SIZE)
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str) -> "SharedVirginMap":
        """Open an existing map by name (worker side).

        Pool workers share the master's resource tracker, so opening
        the segment only re-registers a name it already holds.  Workers
        must not unregister it: that would drop the master's entry, so
        the master's ``unlink`` would make the tracker report a
        ``KeyError`` and a master that dies mid-campaign would leak the
        segment.
        """
        return cls(shared_memory.SharedMemory(name=name), owner=False)

    def publish(self, virgin: bytearray) -> None:
        """Overwrite the shared bytes with the master's map."""
        self._shm.buf[:MAP_SIZE] = bytes(virgin)

    def snapshot(self) -> bytes:
        """The currently published map."""
        return bytes(self._shm.buf[:MAP_SIZE])

    def merge_into(self, local: bytearray) -> None:
        """OR the published bits into a worker's private overlay."""
        merged = int.from_bytes(local, "little") | int.from_bytes(
            self._shm.buf[:MAP_SIZE], "little"
        )
        local[:] = merged.to_bytes(MAP_SIZE, "little")

    def close(self) -> None:
        """Detach; the owner also unlinks the segment."""
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
