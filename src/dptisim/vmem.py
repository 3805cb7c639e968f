"""Simulated physical memory, per-process page tables, per-core TLBs, and a
frame-to-mappings reverse map.

The model keeps exactly the machinery that page-permission protection windows
are built on: permission bits and the program's VM flags per page-table
entry, TLB snapshots that go stale unless explicitly flushed, copy-on-write sharing across fork, and alias
mappings of one physical frame in one or several address spaces.

Page tables are flat vpn->entry dicts (no radix walk) and TLBs have unbounded
capacity with explicit-flush-only invalidation, so stale-entry hazards are
deterministic and testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

PAGE_SIZE = 4096

# The location a step writes when it conflicts with every other step: it
# forks, execs, creates or destroys an address space, or runs enclave code.
EVERYTHING = "everything"

# What one step reads and writes: (locations read, locations written). A
# location is a frame's bytes ("frame", frame_id), a page-table entry with
# its VM flags and every core's TLB entry for it ("pte", asid, vpn), whose
# read Vmem.entry records, a frame's reverse-map entry ("rmap", frame_id),
# the frame allocator ("alloc"), the protection windows over a frame and
# the mappings of it they hold closed ("window", frame_id), the tasks
# stalled on a frame ("waitq", frame_id), a task's state ("task", tid), the
# reference count of a filter table, named by the first process it was
# installed for ("filters", tgid), or EVERYTHING. Each is recorded by the
# accessor that reads or writes its state.
Footprint = tuple[set, set]


def vpn_of(vaddr: int) -> int:
    return vaddr // PAGE_SIZE


def page_offset(vaddr: int) -> int:
    return vaddr % PAGE_SIZE


def pages_spanned(vaddr: int, length: int) -> int:
    """Number of pages an access of ``length`` bytes at ``vaddr`` touches."""
    return vpn_of(vaddr + max(length, 1) - 1) - vpn_of(vaddr) + 1


def page_spans(vaddr: int, length: int) -> Iterator[tuple[int, int, int, int]]:
    """The one walk of a byte range over pages: ``(vpn, offset, start, end)``
    for each page the ``length`` bytes at ``vaddr`` touch, where the page
    holds bytes ``start:end`` of the range from ``offset`` on. An empty range
    touches no page."""
    # Plain arithmetic, not divmod() or min(): every memory access runs this.
    vpn = vaddr // PAGE_SIZE
    offset = vaddr - vpn * PAGE_SIZE
    start = 0
    while start < length:
        end = start + PAGE_SIZE - offset
        if end > length:
            end = length
        yield vpn, offset, start, end
        vpn += 1
        offset = 0
        start = end


class VmemError(Exception):
    """API misuse. Simulated faults are values (PageFault), never exceptions."""


class DoubleMapError(VmemError):
    pass


class UnmappedError(VmemError):
    pass


class NotCowError(VmemError):
    pass


class AccessMode:
    USER = "user"
    KERNEL = "kernel"


class AccessKind:
    READ = "read"
    WRITE = "write"
    EXEC = "exec"


class FaultReason:
    NOT_PRESENT = "not_present"
    USER_BIT = "user_bit_violation"
    WRITE_PROT = "write_violation"
    EXEC_PROT = "exec_violation"
    COW_PENDING = "cow_pending"


class PteBit:
    USER = "user"
    WRITABLE = "writable"
    EXECUTABLE = "executable"


@dataclass(slots=True)
class PageTableEntry:
    """The hardware bits of one mapping, then the flags the program gave it,
    as Linux keeps them on its VMA: whether it may take a write (a
    copy-on-write copy takes this as its write bit), run code, and whether
    a fork shares it instead of making it copy-on-write."""

    frame_id: int
    user: bool = True
    writable: bool = True
    executable: bool = False
    cow: bool = False  # cow implies writable=False
    vm_write: bool = True
    vm_exec: bool = False
    shared: bool = False

    def snapshot(self) -> PageTableEntry:
        return PageTableEntry(
            self.frame_id, self.user, self.writable, self.executable, self.cow,
            self.vm_write, self.vm_exec, self.shared,
        )


@dataclass(slots=True)
class Frame:
    frame_id: int
    data: bytearray


@dataclass(slots=True)
class PageFault:
    reason: str  # a FaultReason
    asid: int
    vaddr: int
    vpn: int
    kind: str  # an AccessKind
    frame_id: Optional[int] = None


@dataclass(slots=True)
class AccessResult:
    fault: Optional[PageFault]
    frame: Optional[Frame]

    @property
    def ok(self) -> bool:
        return self.fault is None


class AddressSpace:
    """One process's mapping table. The asid is the CR3-switch unit."""

    def __init__(self, asid: int):
        self.asid = asid
        self.entries: dict[int, PageTableEntry] = {}


class Tlb:
    """Per-core translation cache of PTE snapshots.

    An entry is filled only by a successful access and only replaced by an
    explicit flush, so a cached translation always equals the PTE snapshot
    at last fill, never a mixture.
    """

    def __init__(self) -> None:
        self.cached: dict[tuple[int, int], PageTableEntry] = {}

    def lookup(self, asid: int, vpn: int) -> Optional[PageTableEntry]:
        return self.cached.get((asid, vpn))

    def fill(self, asid: int, vpn: int, pte: PageTableEntry) -> None:
        self.cached[(asid, vpn)] = pte.snapshot()

    def flush(self, asid: int, vpn: int) -> None:
        self.cached.pop((asid, vpn), None)

    def flush_asid(self, asid: int) -> None:
        for key in [k for k in self.cached if k[0] == asid]:
            del self.cached[key]


class Vmem:
    def __init__(self, cores: int = 2):
        self.frames: dict[int, Frame] = {}
        self.spaces: dict[int, AddressSpace] = {}
        self.tlbs: list[Tlb] = [Tlb() for _ in range(cores)]
        # frame_id -> {(asid, vpn) of every mapping of the frame}
        self.rmap: dict[int, set[tuple[int, int]]] = {}
        # The footprint of the step being recorded, or None when no search
        # asks for one. Each layer adds the locations it touches itself.
        self.fp: Optional[Footprint] = None
        self._next_asid = 1
        self._next_frame = 1

    @property
    def cores(self) -> int:
        return len(self.tlbs)

    # ------------------------------------------------------------------
    # allocation

    def new_address_space(self) -> AddressSpace:
        if self.fp is not None:
            self.fp[1].add(EVERYTHING)
        space = AddressSpace(self._next_asid)
        self._next_asid += 1
        self.spaces[space.asid] = space
        return space

    def alloc_frame(self, fill: bytes = b"") -> Frame:
        """A new frame, zeroed past ``fill``."""
        if self.fp is not None:
            self.fp[1].add("alloc")
        data = bytearray(PAGE_SIZE)
        data[: len(fill)] = fill[:PAGE_SIZE]
        frame = Frame(self._next_frame, data)
        self._next_frame += 1
        self.frames[frame.frame_id] = frame
        return frame

    # ------------------------------------------------------------------
    # mapping

    def map(
        self,
        asid: int,
        vpn: int,
        frame_id: int,
        user: bool = True,
        writable: bool = True,
        executable: bool = False,
        shared: bool = False,
    ) -> PageTableEntry:
        space = self.spaces[asid]
        if vpn in space.entries:
            raise DoubleMapError(f"vpn {vpn:#x} already mapped in asid {asid}")
        pte = PageTableEntry(
            frame_id, user, writable, executable, vm_write=writable, vm_exec=executable, shared=shared
        )
        space.entries[vpn] = pte
        self.rmap.setdefault(frame_id, set()).add((asid, vpn))
        if self.fp is not None:
            self.fp[1].update((("pte", asid, vpn), ("rmap", frame_id)))
        return pte

    def unmap(self, asid: int, vpn: int) -> None:
        space = self.spaces[asid]
        pte = space.entries.pop(vpn, None)
        if pte is None:
            raise UnmappedError(f"vpn {vpn:#x} not mapped in asid {asid}")
        self._unlink(pte.frame_id, asid, vpn)

    def destroy_address_space(self, asid: int) -> None:
        if self.fp is not None:
            self.fp[1].add(EVERYTHING)
        space = self.spaces.pop(asid)
        for vpn, pte in space.entries.items():
            self._unlink(pte.frame_id, asid, vpn)
        for tlb in self.tlbs:
            tlb.flush_asid(asid)

    def _unlink(self, frame_id: int, asid: int, vpn: int) -> None:
        """Drop one mapping of ``frame_id`` from the reverse map."""
        mappings = self.rmap[frame_id]
        mappings.discard((asid, vpn))
        if not mappings:
            del self.rmap[frame_id]

    # ------------------------------------------------------------------
    # translation and access

    def entry(self, asid: int, vpn: int) -> Optional[PageTableEntry]:
        """The entry ``asid`` maps at ``vpn``, or None, also once the address
        space is gone; a read of its location."""
        if self.fp is not None:
            self.fp[0].add(("pte", asid, vpn))
        space = self.spaces.get(asid)
        return space.entries.get(vpn) if space is not None else None

    def pte(self, asid: int, vpn: int) -> PageTableEntry:
        pte = self.entry(asid, vpn)
        if pte is None:
            raise UnmappedError(f"vpn {vpn:#x} not mapped in asid {asid}")
        return pte

    def access(
        self, core: int, asid: int, mode: str, kind: str, vaddr: int
    ) -> AccessResult:
        """Translate and permission-check one access; TLB first, fill on miss.

        Returns a handle to the backing frame on success, a PageFault value
        otherwise. A successful translation served from a stale TLB snapshot
        deliberately bypasses the current PTE: this is the hazard that makes
        explicit flushes mandatory.
        """
        vpn = vpn_of(vaddr)
        tlb = self.tlbs[core]
        pte = tlb.lookup(asid, vpn)
        filled_from_walk = False
        if pte is None:
            space = self.spaces.get(asid)
            pte = space.entries.get(vpn) if space is not None else None
            filled_from_walk = True
        fault = self._check(pte, asid, vaddr, vpn, kind, mode)
        fp = self.fp
        if fp is not None:
            fp[0].add(("pte", asid, vpn))
        if fault is not None:
            return AccessResult(fault, None)
        assert pte is not None
        if fp is not None:
            # the caller reads or writes the bytes of the frame it gets
            fp[1 if kind == AccessKind.WRITE else 0].add(("frame", pte.frame_id))
        if filled_from_walk:
            tlb.fill(asid, vpn, pte)
        return AccessResult(None, self.frames[pte.frame_id])

    @staticmethod
    def _check(
        pte: Optional[PageTableEntry],
        asid: int,
        vaddr: int,
        vpn: int,
        kind: str,
        mode: str,
    ) -> Optional[PageFault]:
        if pte is None:
            return PageFault(FaultReason.NOT_PRESENT, asid, vaddr, vpn, kind)
        if mode == AccessMode.USER and not pte.user:
            return PageFault(FaultReason.USER_BIT, asid, vaddr, vpn, kind, pte.frame_id)
        if kind == AccessKind.WRITE:
            if pte.cow:
                return PageFault(FaultReason.COW_PENDING, asid, vaddr, vpn, kind, pte.frame_id)
            if not pte.writable:
                return PageFault(FaultReason.WRITE_PROT, asid, vaddr, vpn, kind, pte.frame_id)
        if kind == AccessKind.EXEC and not pte.executable:
            return PageFault(FaultReason.EXEC_PROT, asid, vaddr, vpn, kind, pte.frame_id)
        return None

    def read_bytes(
        self, core: int, asid: int, mode: str, vaddr: int, length: int
    ) -> tuple[Optional[bytes], Optional[PageFault]]:
        out = b""
        for vpn, offset, start, end in page_spans(vaddr, length):
            res = self.access(core, asid, mode, AccessKind.READ, vpn * PAGE_SIZE + offset)
            if res.fault is not None:
                return None, res.fault
            out += res.frame.data[offset : offset + end - start]
        return out, None

    def write_bytes(
        self, core: int, asid: int, mode: str, vaddr: int, data: bytes
    ) -> Optional[PageFault]:
        for vpn, offset, start, end in page_spans(vaddr, len(data)):
            res = self.access(core, asid, mode, AccessKind.WRITE, vpn * PAGE_SIZE + offset)
            if res.fault is not None:
                return res.fault
            res.frame.data[offset : offset + end - start] = data[start:end]
        return None

    def poke(self, asid: int, vaddr: int, data: bytes) -> None:
        """Write ``data`` straight into the frames ``asid`` maps at ``vaddr``:
        no permission check, no TLB and no copy-on-write, which the caller
        resolves first. Every page the write touches must be mapped."""
        entries = self.spaces[asid].entries
        fp = self.fp
        for vpn, offset, start, end in page_spans(vaddr, len(data)):
            frame_id = entries[vpn].frame_id
            if fp is not None:
                fp[0].add(("pte", asid, vpn))
                fp[1].add(("frame", frame_id))
            self.frames[frame_id].data[offset : offset + end - start] = data[start:end]

    def read_cstring(
        self, core: int, asid: int, mode: str, vaddr: int, max_pages: int
    ) -> tuple[Optional[bytes], Optional[PageFault]]:
        """Read a NUL-terminated string spanning at most max_pages pages.

        Returns (bytes-without-NUL, fault); an unterminated string within the
        span returns (None, None).
        """
        out = b""
        for vpn, offset, _, _ in page_spans(vaddr, max_pages * PAGE_SIZE - page_offset(vaddr)):
            res = self.access(core, asid, mode, AccessKind.READ, vpn * PAGE_SIZE + offset)
            if res.fault is not None:
                return None, res.fault
            data = res.frame.data
            nul = data.find(0, offset)
            if nul >= 0:
                return out + data[offset:nul], None
            out += data[offset:]
        return None, None

    # ------------------------------------------------------------------
    # permission bits and TLB maintenance

    def set_bit(self, asid: int, vpn: int, bit: str, value: bool) -> bool:
        """Set one permission bit; returns the previous value.

        Deliberately does not flush any TLB: callers own the flush step,
        mirroring the real two-step hazard.
        """
        if bit not in (PteBit.USER, PteBit.WRITABLE, PteBit.EXECUTABLE):
            raise VmemError(f"no permission bit {bit!r}")
        if self.fp is not None:
            self.fp[1].add(("pte", asid, vpn))
        pte = self.pte(asid, vpn)
        prev = getattr(pte, bit)
        setattr(pte, bit, value)
        return prev

    def set_perms(self, asid: int, vpn: int, user: bool, writable: bool, executable: bool) -> None:
        """Set all three permission bits; like ``set_bit``, flushes no TLB."""
        if self.fp is not None:
            self.fp[1].add(("pte", asid, vpn))
        pte = self.pte(asid, vpn)
        pte.user, pte.writable, pte.executable = user, writable, executable

    def tlb_flush(self, asid: int, vpn: int) -> None:
        if self.fp is not None:
            self.fp[1].add(("pte", asid, vpn))
        for tlb in self.tlbs:
            tlb.flush(asid, vpn)

    # ------------------------------------------------------------------
    # copy-on-write and fork

    def cow_resolve(self, asid: int, vpn: int) -> int:
        """Give this mapping a private copy of its frame; returns new frame id."""
        pte = self.pte(asid, vpn)
        if not pte.cow:
            raise NotCowError(f"vpn {vpn:#x} in asid {asid} is not copy-on-write")
        old = self.frames[pte.frame_id]
        if self.fp is not None:
            self.fp[0].add(("frame", old.frame_id))
            self.fp[1].update((("pte", asid, vpn), ("rmap", old.frame_id)))
        fresh = self.alloc_frame(bytes(old.data))
        self._unlink(pte.frame_id, asid, vpn)
        pte.frame_id = fresh.frame_id
        pte.cow = False
        pte.writable = pte.vm_write
        self.rmap[fresh.frame_id] = {(asid, vpn)}
        self.tlb_flush(asid, vpn)
        return fresh.frame_id

    def fork_address_space(self, parent_asid: int) -> AddressSpace:
        """COW snapshot of a parent space: every private page, read-only too,
        becomes copy-on-write in both parent and child; shared ones stay shared.
        """
        parent = self.spaces[parent_asid]
        child = self.new_address_space()
        for vpn, ppte in parent.entries.items():
            if not ppte.shared:
                ppte.cow = True
                ppte.writable = False
                self.tlb_flush(parent_asid, vpn)
            child.entries[vpn] = cpte = ppte.snapshot()
            self.rmap[cpte.frame_id].add((child.asid, vpn))
        return child

    # ------------------------------------------------------------------
    # reverse map queries

    def aliases_of(self, frame_id: int) -> list[tuple[int, int]]:
        """Every (asid, vpn) mapping ``frame_id``, in order."""
        if self.fp is not None:
            self.fp[0].add(("rmap", frame_id))
        return sorted(self.rmap.get(frame_id, ()))

    def rebuild_reverse_map(self) -> dict[int, set[tuple[int, int]]]:
        """Brute-force inverse of all address spaces, for soundness checks."""
        rebuilt: dict[int, set[tuple[int, int]]] = {}
        for asid, space in self.spaces.items():
            for vpn, pte in space.entries.items():
                rebuilt.setdefault(pte.frame_id, set()).add((asid, vpn))
        return rebuilt
