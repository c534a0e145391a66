"""Paged virtual memory for the VN32 machine.

The address space is the flat 32-bit space described in Section II of
the paper: 2**32 bytes, little-endian, holding code, data, stack and
management information side by side.  Storage is sparse (a dict of
4 KiB pages) so a full address space costs nothing until touched.

Each page carries R/W/X permission bits.  Data Execution Prevention
(Section III-C1) is expressed entirely through these bits: the loader
maps text pages R+X and data/stack pages R+W.  With DEP disabled, the
loader simply maps every page RWX, which is the historical pre-DEP
behaviour that direct code injection relies on.

This module performs *no* permission checking itself -- it only stores
bytes and permission bits.  Checked accesses (page permissions, PMA
rules, red zones) are composed in :class:`repro.machine.machine.Machine`,
because what is allowed depends on who is executing (Section IV).

The machine's decoded-instruction cache subscribes to two hooks here:
``code_write_listener`` fires when a write lands on a page the machine
has marked with :meth:`Memory.watch_page` (a page holding cached
decoded instructions), and ``perm_change_listener`` fires on any
mapping or permission change.  Von-Neumann fidelity -- self-modifying
code and code injection executing exactly the bytes last written --
depends on these notifications, so every mutating path below reports
through them.

**Copy-on-write snapshots.**  :meth:`Memory.snapshot` freezes the page
table the way a fork server freezes its parent image: every currently
mapped page becomes *shared* between the live table and the snapshot
(same ``bytearray`` object, recorded in ``_cow_pages``), and the first
subsequent write to a shared page copies it (:meth:`_cow_break`) and
marks it dirty.  :meth:`Memory.restore` then rewinds in O(dirty pages)
by re-installing the shared objects -- it never copies clean pages, so
a trial that touches a handful of stack/data pages resets in
microseconds regardless of image size.  Frozen page objects are never
mutated, which is what makes *multiple* outstanding snapshots sound:
restoring a snapshot other than the most recent one falls back to an
identity diff over the (sparse) page table.
"""

from __future__ import annotations

import struct
import zlib
from itertools import chain, count
from typing import Callable, Iterable, Iterator

from repro.errors import MemoryFault
from repro.isa.instructions import WORD_MASK

#: Page size in bytes.
PAGE_SIZE = 0x1000
_PAGE_SHIFT = 12
_PAGE_MASK = PAGE_SIZE - 1
#: Number of pages in the 32-bit address space.
_NUM_PAGES = 1 << (32 - _PAGE_SHIFT)

#: Permission bits.
PERM_R = 1
PERM_W = 2
PERM_X = 4
PERM_RW = PERM_R | PERM_W
PERM_RX = PERM_R | PERM_X
PERM_RWX = PERM_R | PERM_W | PERM_X

_U32 = struct.Struct("<I")


def perms_to_str(perms: int) -> str:
    """Render permission bits as an ``rwx`` string.

    >>> perms_to_str(PERM_RX)
    'r-x'
    """
    return (
        ("r" if perms & PERM_R else "-")
        + ("w" if perms & PERM_W else "-")
        + ("x" if perms & PERM_X else "-")
    )


def _pages_covering(addr: int, size: int) -> Iterable[int]:
    """Page numbers covering ``[addr, addr+size)``, wrapping at 2**32.

    ``addr`` is masked to the 32-bit space first, matching the raw
    accessors (:meth:`Memory.read_bytes` et al.), so a wrapped address
    near 2**32 resolves to the pages those accessors actually touch.
    """
    addr &= WORD_MASK
    first = addr >> _PAGE_SHIFT
    last = ((addr + size - 1) & WORD_MASK) >> _PAGE_SHIFT
    if first <= last:
        return range(first, last + 1)
    # The byte range wraps past the top of the address space.
    return chain(range(first, _NUM_PAGES), range(0, last + 1))


#: Epochs handed to deserialized snapshots.  Strictly negative and
#: never repeated, so a snapshot that came over the wire can never be
#: mistaken for the live table's most-recent snapshot (whose epochs
#: are positive): restoring one always takes the identity-diff path
#: the first time, then participates in O(dirty) epoch tracking like
#: any other restore point.
_WIRE_EPOCHS = count(-1, -1)


class MemorySnapshot:
    """A frozen page table: shared page objects + a permission copy.

    Produced by :meth:`Memory.snapshot`; opaque to everyone else.  The
    ``bytearray`` objects in ``pages`` are shared with the live table
    (and with any other snapshot taken while they stayed clean) and are
    never mutated -- the live side copies before writing.
    """

    __slots__ = ("epoch", "pages", "perms")

    def __init__(self, epoch: int, pages: dict[int, bytearray],
                 perms: dict[int, int]) -> None:
        self.epoch = epoch
        self.pages = pages
        self.perms = perms

    @property
    def page_count(self) -> int:
        return len(self.pages)

    def to_payload(self) -> tuple:
        """Serializable digest of the frozen page table.

        ``(perms, sorted page numbers, zlib blob)`` -- the sparse
        pages are concatenated in page-number order and compressed as
        one stream (guest images are mostly zeros and repeated code
        patterns; one stream lets the compressor share its window
        across pages).
        """
        nums = sorted(self.pages)
        blob = zlib.compress(
            b"".join(bytes(self.pages[num]) for num in nums), 6)
        return (dict(self.perms), nums, blob)

    @classmethod
    def from_payload(cls, payload: tuple) -> "MemorySnapshot":
        """Rebuild a restorable snapshot from :meth:`to_payload`."""
        perms, nums, blob = payload
        raw = zlib.decompress(blob)
        if len(raw) != len(nums) * PAGE_SIZE:
            raise ValueError(
                f"memory payload holds {len(raw)} bytes for "
                f"{len(nums)} pages"
            )
        pages = {
            num: bytearray(raw[pos:pos + PAGE_SIZE])
            for pos, num in zip(range(0, len(raw), PAGE_SIZE), nums)
        }
        return cls(next(_WIRE_EPOCHS), pages, dict(perms))


class Memory:
    """Sparse paged byte-addressable memory with per-page permissions."""

    def __init__(self) -> None:
        self._pages: dict[int, bytearray] = {}
        self._perms: dict[int, int] = {}
        #: Pages whose raw contents someone wants to be told about
        #: (the machine's decode cache).  Kept tiny: only pages that
        #: currently hold cached decoded instructions are watched.
        self._watched_pages: set[int] = set()
        #: Pages shared with a live :class:`MemorySnapshot`; the first
        #: write to one must copy it (:meth:`_cow_break`).  Mutated in
        #: place, never replaced: the block translator holds aliases.
        self._cow_pages: set[int] = set()
        #: The one legality test of every memory fast path (the
        #: machine's word/byte accessors, superblocks, traces):
        #: ``_fast_read`` holds every mapped page with PERM_R;
        #: ``_fast_write`` holds every mapped page with PERM_W that is
        #: neither watched (cached code lives there -- writes must
        #: take the notifying slow path) nor snapshot-shared (writes
        #: must run the copy-on-write break first).  A single set
        #: membership test therefore replaces the perms-dict probe,
        #: the permission mask, and the watched/CoW exclusions.  Like
        #: ``_cow_pages`` these are mutated in place, never replaced:
        #: compiled code aliases them.  Every mutating path below
        #: keeps them current.
        self._fast_read: set[int] = set()
        self._fast_write: set[int] = set()
        #: Pages copied or created since the last snapshot()/restore()
        #: -- exactly what a restore of the current snapshot must undo.
        self._dirty_pages: set[int] = set()
        #: Monotonic snapshot-id generator (never reused, so stale
        #: snapshots can always be told apart from the current one).
        self._snap_counter = 0
        #: Id of the snapshot ``_dirty_pages`` is relative to.
        self._snap_epoch = 0
        #: Called with the page number when a watched page is written.
        self.code_write_listener: Callable[[int], None] | None = None
        #: Called (no arguments) on any map_region/set_perms change.
        self.perm_change_listener: Callable[[], None] | None = None

    # -- change notification ----------------------------------------------

    def watch_page(self, page: int) -> None:
        """Ask for ``code_write_listener`` to fire when ``page`` is written."""
        self._watched_pages.add(page)
        self._fast_write.discard(page)

    def unwatch_all(self) -> None:
        released = list(self._watched_pages)
        self._watched_pages.clear()
        for page in released:
            self._update_fast_page(page)

    def _update_fast_page(self, page: int) -> None:
        """Recompute ``page``'s membership in the fast read/write sets."""
        if page not in self._pages:
            self._fast_read.discard(page)
            self._fast_write.discard(page)
            return
        perms = self._perms.get(page, 0)
        if perms & PERM_R:
            self._fast_read.add(page)
        else:
            self._fast_read.discard(page)
        if (perms & PERM_W and page not in self._watched_pages
                and page not in self._cow_pages):
            self._fast_write.add(page)
        else:
            self._fast_write.discard(page)

    def _notify_code_write(self, page: int) -> None:
        self._watched_pages.discard(page)
        self._update_fast_page(page)
        listener = self.code_write_listener
        if listener is not None:
            listener(page)

    def _notify_perm_change(self) -> None:
        listener = self.perm_change_listener
        if listener is not None:
            listener()

    # -- copy-on-write snapshots -------------------------------------------

    def _cow_break(self, page: int) -> None:
        """First write to a snapshot-shared page: replace the shared
        ``bytearray`` with a private copy and mark the page dirty.  The
        shared object stays untouched inside every snapshot holding it."""
        self._pages[page] = bytearray(self._pages[page])
        self._cow_pages.discard(page)
        self._dirty_pages.add(page)
        if self._perms.get(page, 0) & PERM_W and page not in self._watched_pages:
            self._fast_write.add(page)

    def snapshot(self) -> MemorySnapshot:
        """Freeze the current page table into a restorable snapshot.

        O(pages) bookkeeping, zero copying: every mapped page becomes
        shared and the dirty set restarts empty."""
        pages = self._pages
        self._cow_pages.update(pages)
        self._fast_write.clear()
        self._dirty_pages.clear()
        self._snap_counter += 1
        self._snap_epoch = self._snap_counter
        return MemorySnapshot(self._snap_epoch, dict(pages), dict(self._perms))

    @property
    def has_snapshot(self) -> bool:
        """Whether :meth:`snapshot` has run: the machine is a fork server."""
        return self._snap_counter > 0

    def restore(self, snap: MemorySnapshot) -> tuple[list[int], bool]:
        """Rewind contents and permissions to ``snap``.

        Returns ``(changed_pages, perms_changed)`` so the machine
        wrapper (:meth:`Machine.restore`) can invalidate exactly the
        decode/block cache entries that now describe stale bytes --
        this raw layer deliberately does not fire the write/perm
        listeners itself.  O(dirty pages) when ``snap`` is the most
        recent snapshot or restore point; an identity diff over the
        sparse page table otherwise."""
        pages = self._pages
        frozen = snap.pages
        if snap.epoch == self._snap_epoch:
            changed = sorted(self._dirty_pages)
        else:
            stale = {page for page, buf in pages.items()
                     if frozen.get(page) is not buf}
            stale.update(frozen.keys() - pages.keys())
            changed = sorted(stale)
        cow = self._cow_pages
        for page in changed:
            shared = frozen.get(page)
            if shared is None:
                # Mapped after the snapshot: unmap it again.
                del pages[page]
                cow.discard(page)
                self._watched_pages.discard(page)
            else:
                pages[page] = shared
                cow.add(page)
        perms_changed = self._perms != snap.perms
        if perms_changed:
            self._perms.clear()
            self._perms.update(snap.perms)
            # Permissions moved under an unknown set of pages: rebuild
            # the fast sets wholesale (restores that change perms are
            # rare; the campaign path below stays O(changed)).
            self._fast_read.clear()
            self._fast_write.clear()
            for page in self._pages:
                self._update_fast_page(page)
        else:
            for page in changed:
                self._update_fast_page(page)
        self._dirty_pages.clear()
        self._snap_epoch = snap.epoch
        return changed, perms_changed

    @property
    def dirty_page_count(self) -> int:
        """Pages copied or created since the last snapshot/restore."""
        return len(self._dirty_pages)

    # -- mapping ----------------------------------------------------------

    def map_region(self, addr: int, size: int, perms: int = PERM_RW) -> None:
        """Map all pages covering ``[addr, addr+size)`` with ``perms``.

        Already-mapped pages keep their contents; their permissions are
        overwritten.
        """
        if size <= 0:
            return
        pages = self._pages
        page_perms = self._perms
        dirty = self._dirty_pages
        for page in _pages_covering(addr, size):
            if page not in pages:
                pages[page] = bytearray(PAGE_SIZE)
                dirty.add(page)
            page_perms[page] = perms
            self._update_fast_page(page)
        self._notify_perm_change()

    def set_perms(self, addr: int, size: int, perms: int) -> None:
        """Change permissions of already-mapped pages covering a range."""
        for page in _pages_covering(addr, size):
            if page not in self._pages:
                raise MemoryFault(f"set_perms on unmapped page 0x{page << _PAGE_SHIFT:08x}")
            self._perms[page] = perms
            self._update_fast_page(page)
        self._notify_perm_change()

    def is_mapped(self, addr: int) -> bool:
        """Return True if the byte at ``addr`` is mapped."""
        return ((addr & WORD_MASK) >> _PAGE_SHIFT) in self._pages

    def page_perms(self, page: int) -> int:
        """Return the permission bits of ``page`` (0 when unmapped).

        The page-number twin of :meth:`perms_at`, for callers that
        already work in page units (the machine's decode cache and
        block translator); unmapped pages read as no-permissions
        rather than faulting.
        """
        return self._perms.get(page, 0)

    def perms_at(self, addr: int) -> int:
        """Return the permission bits of the page containing ``addr``.

        Raises :class:`MemoryFault` if unmapped.
        """
        page = (addr & WORD_MASK) >> _PAGE_SHIFT
        try:
            return self._perms[page]
        except KeyError:
            raise MemoryFault(f"access to unmapped address 0x{addr & WORD_MASK:08x}") from None

    def range_perms(self, addr: int, size: int) -> int:
        """Return the AND of permissions across ``[addr, addr+size)``."""
        if size <= 0:
            return 0
        perms = PERM_RWX
        page_perms = self._perms
        for page in _pages_covering(addr, size):
            try:
                perms &= page_perms[page]
            except KeyError:
                raise MemoryFault(
                    f"access to unmapped address 0x{(page << _PAGE_SHIFT) & WORD_MASK:08x}"
                ) from None
        return perms

    def mapped_regions(self) -> list[tuple[int, int]]:
        """Return maximal contiguous mapped regions as ``(start, end)``.

        ``end`` is exclusive.  Used by memory-scraping attacks, which
        sweep everything that is addressable.
        """
        pages = sorted(self._pages)
        regions: list[tuple[int, int]] = []
        for page in pages:
            start = page << _PAGE_SHIFT
            end = start + PAGE_SIZE
            if regions and regions[-1][1] == start:
                regions[-1] = (regions[-1][0], end)
            else:
                regions.append((start, end))
        return regions

    # -- raw access (no permission checks) --------------------------------

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Read ``size`` raw bytes starting at ``addr``."""
        addr &= WORD_MASK
        page = addr >> _PAGE_SHIFT
        offset = addr & _PAGE_MASK
        pages = self._pages
        if offset + size <= PAGE_SIZE:
            # Fast path: the whole read lives inside one page.
            try:
                data = pages[page]
            except KeyError:
                raise MemoryFault(f"read from unmapped address 0x{addr:08x}") from None
            return bytes(data[offset : offset + size])
        out = bytearray()
        remaining = size
        while remaining > 0:
            page = addr >> _PAGE_SHIFT
            offset = addr & _PAGE_MASK
            chunk = min(remaining, PAGE_SIZE - offset)
            try:
                data = pages[page]
            except KeyError:
                raise MemoryFault(f"read from unmapped address 0x{addr:08x}") from None
            out += data[offset : offset + chunk]
            addr = (addr + chunk) & WORD_MASK
            remaining -= chunk
        return bytes(out)

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Write raw bytes starting at ``addr``."""
        addr &= WORD_MASK
        pages = self._pages
        watched = self._watched_pages
        cow = self._cow_pages
        offset_in_data = 0
        remaining = len(data)
        while remaining > 0:
            page = addr >> _PAGE_SHIFT
            offset = addr & _PAGE_MASK
            chunk = min(remaining, PAGE_SIZE - offset)
            if page in cow:
                self._cow_break(page)
            try:
                target = pages[page]
            except KeyError:
                raise MemoryFault(f"write to unmapped address 0x{addr:08x}") from None
            target[offset : offset + chunk] = data[offset_in_data : offset_in_data + chunk]
            if page in watched:
                self._notify_code_write(page)
            addr = (addr + chunk) & WORD_MASK
            offset_in_data += chunk
            remaining -= chunk

    def read_byte(self, addr: int) -> int:
        addr &= WORD_MASK
        try:
            return self._pages[addr >> _PAGE_SHIFT][addr & _PAGE_MASK]
        except KeyError:
            raise MemoryFault(f"read from unmapped address 0x{addr:08x}") from None

    def write_byte(self, addr: int, value: int) -> None:
        addr &= WORD_MASK
        page = addr >> _PAGE_SHIFT
        if page in self._cow_pages:
            self._cow_break(page)
        try:
            self._pages[page][addr & _PAGE_MASK] = value & 0xFF
        except KeyError:
            raise MemoryFault(f"write to unmapped address 0x{addr:08x}") from None
        if page in self._watched_pages:
            self._notify_code_write(page)

    def read_word(self, addr: int) -> int:
        """Read a 32-bit little-endian word."""
        addr &= WORD_MASK
        offset = addr & _PAGE_MASK
        if offset <= PAGE_SIZE - 4:
            # Fast path: the word lies inside one page.
            try:
                return _U32.unpack_from(self._pages[addr >> _PAGE_SHIFT], offset)[0]
            except KeyError:
                raise MemoryFault(f"read from unmapped address 0x{addr:08x}") from None
        return _U32.unpack(self.read_bytes(addr, 4))[0]

    def write_word(self, addr: int, value: int) -> None:
        """Write a 32-bit little-endian word."""
        addr &= WORD_MASK
        offset = addr & _PAGE_MASK
        if offset <= PAGE_SIZE - 4:
            page = addr >> _PAGE_SHIFT
            if page in self._cow_pages:
                self._cow_break(page)
            try:
                _U32.pack_into(self._pages[page], offset, value & WORD_MASK)
            except KeyError:
                raise MemoryFault(f"write to unmapped address 0x{addr:08x}") from None
            if page in self._watched_pages:
                self._notify_code_write(page)
            return
        self.write_bytes(addr, _U32.pack(value & WORD_MASK))

    def iter_words(self, start: int, end: int) -> Iterator[tuple[int, int]]:
        """Yield ``(address, word)`` for word-aligned addresses in range.

        The inner loop of the memory-scraping attacks: each page's
        buffer is snapshot once and unpacked with
        :meth:`struct.Struct.iter_unpack`, instead of a chunked
        ``read_bytes`` round-trip per word.
        """
        addr = start
        pages = self._pages
        while addr + 4 <= end:
            masked = addr & WORD_MASK
            offset = masked & _PAGE_MASK
            run = min(end - addr, PAGE_SIZE - offset)
            if run >= 4:
                try:
                    buf = pages[masked >> _PAGE_SHIFT]
                except KeyError:
                    raise MemoryFault(
                        f"read from unmapped address 0x{masked:08x}"
                    ) from None
                count = run >> 2
                chunk = bytes(buf[offset : offset + (count << 2)])
                for (word,) in _U32.iter_unpack(chunk):
                    yield addr, word
                    addr += 4
            else:
                # An unaligned word straddling a page boundary.
                yield addr, self.read_word(addr)
                addr += 4
