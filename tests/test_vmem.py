import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptisim.vmem import (
    AccessKind,
    AccessMode,
    DoubleMapError,
    FaultReason,
    NotCowError,
    PAGE_SIZE,
    PteBit,
    UnmappedError,
    Vmem,
    VmemError,
)

USER = AccessMode.USER
KERNEL = AccessMode.KERNEL
READ = AccessKind.READ
WRITE = AccessKind.WRITE
EXEC = AccessKind.EXEC


def make_space(vm: Vmem, pages: int = 1, **perms):
    space = vm.new_address_space()
    frames = []
    for vpn in range(0x10, 0x10 + pages):
        frame_id = vm.alloc_frame()
        vm.map(space.asid, vpn, frame_id, **perms)
        frames.append(frame_id)
    return space, frames


class TestMapping:
    def test_map_updates_reverse_map(self):
        vm = Vmem()
        space, (frame,) = make_space(vm)
        assert vm.aliases_of(frame) == [(space.asid, 0x10)]

    def test_two_spaces_same_frame_are_aliases(self):
        vm = Vmem()
        s1, (frame,) = make_space(vm)
        s2 = vm.new_address_space()
        vm.map(s2.asid, 0x99, frame)
        assert len(vm.aliases_of(frame)) == 2

    def test_double_map_rejected(self):
        vm = Vmem()
        space, (frame,) = make_space(vm)
        with pytest.raises(DoubleMapError):
            vm.map(space.asid, 0x10, frame)

    def test_unmap_shrinks_alias_list(self):
        vm = Vmem()
        s1, (frame,) = make_space(vm)
        s2 = vm.new_address_space()
        vm.map(s2.asid, 0x20, frame)
        vm.unmap(s2.asid, 0x20)
        assert len(vm.aliases_of(frame)) == 1
        assert vm.rmap == vm.rebuild_reverse_map()

    def test_unmap_unmapped_raises(self):
        vm = Vmem()
        space, _ = make_space(vm)
        with pytest.raises(UnmappedError):
            vm.unmap(space.asid, 0x77)


class TestAccess:
    def test_user_read_of_kernel_page_faults(self):
        vm = Vmem()
        space, _ = make_space(vm, user=False)
        fault, _ = vm.access(0, space.asid, USER, READ, 0x10 * PAGE_SIZE)
        assert fault.reason == FaultReason.USER_BIT

    def test_user_write_to_readonly_faults(self):
        vm = Vmem()
        space, _ = make_space(vm, writable=False)
        fault, _ = vm.access(0, space.asid, USER, WRITE, 0x10 * PAGE_SIZE)
        assert fault.reason == FaultReason.WRITE_PROT

    def test_kernel_ignores_user_bit(self):
        vm = Vmem()
        space, _ = make_space(vm, user=False)
        assert vm.access(0, space.asid, KERNEL, READ, 0x10 * PAGE_SIZE)[0] is None

    def test_kernel_write_respects_write_protection(self):
        vm = Vmem()
        space, _ = make_space(vm, writable=False)
        fault, _ = vm.access(0, space.asid, KERNEL, WRITE, 0x10 * PAGE_SIZE)
        assert fault.reason == FaultReason.WRITE_PROT

    def test_unmapped_not_present(self):
        vm = Vmem()
        space, _ = make_space(vm)
        fault, _ = vm.access(0, space.asid, USER, READ, 0x99 * PAGE_SIZE)
        assert fault.reason == FaultReason.NOT_PRESENT

    def test_exec_requires_executable_bit(self):
        vm = Vmem()
        space, _ = make_space(vm)
        fault, _ = vm.access(0, space.asid, USER, EXEC, 0x10 * PAGE_SIZE)
        assert fault.reason == FaultReason.EXEC_PROT

    def test_access_returns_the_fault_or_the_frames_bytes(self):
        vm = Vmem()
        space, (frame,) = make_space(vm, writable=False)
        assert isinstance(frame, int)
        fault, data = vm.access(0, space.asid, USER, READ, 0x10 * PAGE_SIZE + 5)
        assert fault is None and data is vm.frames[frame] and len(data) == PAGE_SIZE
        fault, data = vm.access(0, space.asid, USER, WRITE, 0x10 * PAGE_SIZE)
        assert fault.reason == FaultReason.WRITE_PROT and data is None

    def test_read_write_roundtrip(self):
        vm = Vmem()
        space, (frame,) = make_space(vm)
        assert vm.write_bytes(0, space.asid, USER, 0x10 * PAGE_SIZE + 7, b"hello") is None
        data, fault = vm.read_bytes(0, space.asid, USER, 0x10 * PAGE_SIZE + 7, 5)
        assert fault is None and data == b"hello"


class TestTlb:
    def test_stale_entry_survives_bit_clear_without_flush(self):
        vm = Vmem(cores=2)
        space, _ = make_space(vm)
        addr = 0x10 * PAGE_SIZE
        assert vm.access(0, space.asid, USER, READ, addr)[0] is None  # warm core 0
        prev = vm.set_bit(space.asid, 0x10, PteBit.USER, False)
        assert prev is True
        # warm core still translates from its snapshot; cold core walks the PTE
        assert vm.access(0, space.asid, USER, READ, addr)[0] is None
        assert vm.access(1, space.asid, USER, READ, addr)[0].reason == FaultReason.USER_BIT

    def test_flush_all_cores_enforces_new_bits(self):
        vm = Vmem(cores=2)
        space, _ = make_space(vm)
        addr = 0x10 * PAGE_SIZE
        vm.access(0, space.asid, USER, READ, addr)
        vm.set_bit(space.asid, 0x10, PteBit.USER, False)
        vm.tlb_flush(space.asid, 0x10)
        for core in (0, 1):
            assert vm.access(core, space.asid, USER, READ, addr)[0].reason == FaultReason.USER_BIT

    def test_flush_then_access_refills_from_current_pte(self):
        vm = Vmem(cores=1)
        space, _ = make_space(vm)
        addr = 0x10 * PAGE_SIZE
        vm.access(0, space.asid, USER, WRITE, addr)
        vm.set_bit(space.asid, 0x10, PteBit.WRITABLE, False)
        vm.tlb_flush(space.asid, 0x10)
        # oracle: direct PTE walk
        pte = vm.pte(space.asid, 0x10)
        expect_ok = pte.writable
        assert (vm.access(0, space.asid, USER, WRITE, addr)[0] is None) == expect_ok

    def test_set_bit_idempotent_returns_previous(self):
        vm = Vmem()
        space, _ = make_space(vm)
        assert vm.set_bit(space.asid, 0x10, PteBit.WRITABLE, False) is True
        assert vm.set_bit(space.asid, 0x10, PteBit.WRITABLE, False) is False

    def test_set_bit_takes_a_permission_bit_only(self):
        """A bit is named by its string, so a name that is no permission bit
        is refused, not set on the entry."""
        vm = Vmem()
        space, _ = make_space(vm)
        assert vm.set_bit(space.asid, 0x10, "".join(["us", "er"]), False) is True
        with pytest.raises(VmemError, match="frame_id"):
            vm.set_bit(space.asid, 0x10, "frame_id", 7)
        assert vm.pte(space.asid, 0x10).frame_id != 7


class TestCow:
    def test_fork_then_child_write_gets_private_frame(self):
        vm = Vmem()
        parent, (frame,) = make_space(vm)
        vm.write_bytes(0, parent.asid, KERNEL, 0x10 * PAGE_SIZE, b"orig")
        child = vm.fork_address_space(parent.asid)
        fault, _ = vm.access(0, child.asid, USER, WRITE, 0x10 * PAGE_SIZE)
        assert fault.reason == FaultReason.COW_PENDING
        new_frame = vm.cow_resolve(child.asid, 0x10)
        assert new_frame != frame
        vm.write_bytes(0, child.asid, USER, 0x10 * PAGE_SIZE, b"MINE")
        data, _ = vm.read_bytes(0, parent.asid, KERNEL, 0x10 * PAGE_SIZE, 4)
        assert data == b"orig"

    def test_cow_resolve_on_plain_page_raises(self):
        vm = Vmem()
        space, _ = make_space(vm)
        with pytest.raises(NotCowError):
            vm.cow_resolve(space.asid, 0x10)

    def test_resolve_removes_child_from_old_frame_aliases(self):
        vm = Vmem()
        parent, (frame,) = make_space(vm)
        child = vm.fork_address_space(parent.asid)
        assert len(vm.aliases_of(frame)) == 2
        vm.cow_resolve(child.asid, 0x10)
        assert (child.asid, 0x10) not in vm.aliases_of(frame)
        assert vm.rmap == vm.rebuild_reverse_map()

    def test_parent_write_after_fork_preserves_child_view(self):
        vm = Vmem()
        parent, _ = make_space(vm)
        vm.write_bytes(0, parent.asid, KERNEL, 0x10 * PAGE_SIZE, b"orig")
        child = vm.fork_address_space(parent.asid)
        fault, _ = vm.access(0, parent.asid, USER, WRITE, 0x10 * PAGE_SIZE)
        assert fault.reason == FaultReason.COW_PENDING
        vm.cow_resolve(parent.asid, 0x10)
        vm.write_bytes(0, parent.asid, USER, 0x10 * PAGE_SIZE, b"NEW!")
        data, _ = vm.read_bytes(0, child.asid, KERNEL, 0x10 * PAGE_SIZE, 4)
        assert data == b"orig"

    def test_shared_mapping_not_cowed_by_fork(self):
        vm = Vmem()
        parent = vm.new_address_space()
        frame = vm.alloc_frame()
        vm.map(parent.asid, 0x10, frame, shared=True)
        child = vm.fork_address_space(parent.asid)
        assert not child.entries[0x10].cow
        assert child.entries[0x10].frame_id == frame


class TestReverseMapSoundness:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5)), max_size=30))
    def test_random_map_unmap_matches_rebuild(self, steps):
        vm = Vmem()
        spaces = [vm.new_address_space() for _ in range(2)]
        frames = [vm.alloc_frame() for _ in range(3)]
        for action, arg in steps:
            space = spaces[arg % 2]
            vpn = 0x10 + (arg % 3)
            if action == 0:
                if vpn not in space.entries:
                    vm.map(space.asid, vpn, frames[arg % 3])
            elif action == 1:
                if vpn in space.entries:
                    vm.unmap(space.asid, vpn)
            elif action == 2:
                if vpn in space.entries:
                    vm.set_bit(space.asid, vpn, PteBit.WRITABLE, bool(arg % 2))
            else:
                if vpn not in space.entries:
                    vm.map(space.asid, vpn, frames[(arg + 1) % 3], user=bool(arg % 2))
        assert vm.rmap == vm.rebuild_reverse_map()

    def test_fork_and_cow_keep_reverse_map_sound(self):
        vm = Vmem()
        parent, _ = make_space(vm, pages=3)
        child = vm.fork_address_space(parent.asid)
        vm.cow_resolve(child.asid, 0x11)
        vm.unmap(parent.asid, 0x12)
        assert vm.rmap == vm.rebuild_reverse_map()


class TestDestroy:
    def test_destroy_drops_only_the_destroyed_spaces_mappings(self):
        """Two spaces alias one frame and both cores are warm on both; the
        destroyed space leaves no TLB entry, and the other keeps its own."""
        vm = Vmem(cores=2)
        gone, (frame,) = make_space(vm)
        kept = vm.new_address_space()
        vm.map(kept.asid, 0x20, frame)
        for core in (0, 1):
            for asid, vpn in ((gone.asid, 0x10), (kept.asid, 0x20)):
                assert vm.access(core, asid, USER, READ, vpn * PAGE_SIZE)[0] is None
        kept_tlbs = [dict(tlb) for tlb in vm.tlbs]
        for tlb in kept_tlbs:
            del tlb[gone.asid, 0x10]
        vm.destroy_address_space(gone.asid)
        assert gone.asid not in vm.spaces
        assert all(asid != gone.asid for tlb in vm.tlbs for asid, _ in tlb)
        assert vm.tlbs == kept_tlbs and all((kept.asid, 0x20) in tlb for tlb in vm.tlbs)
        assert vm.rmap == {frame: {(kept.asid, 0x20)}} == vm.rebuild_reverse_map()
        assert vm.access(0, gone.asid, USER, READ, 0x10 * PAGE_SIZE)[0].reason == FaultReason.NOT_PRESENT


def _predicted(vm, asid, vpn, mode, kind):
    """Direct PTE walk oracle for the coherence check."""
    space = vm.spaces[asid]
    pte = space.entries.get(vpn)
    if pte is None:
        return FaultReason.NOT_PRESENT
    if mode == USER and not pte.user:
        return FaultReason.USER_BIT
    if kind == WRITE and pte.cow:
        return FaultReason.COW_PENDING
    if kind == WRITE and not pte.writable:
        return FaultReason.WRITE_PROT
    return None


class TestTlbCoherence:
    """No access after a flush on all cores can observe a pre-flush
    permission: bounded model check over op sequences."""

    OPS = ("clear_user", "clear_write", "set_write", "flush_all", "user_read", "user_write")

    def _run(self, seq) -> None:
        vm = Vmem(cores=2)
        space, _ = make_space(vm)
        addr = 0x10 * PAGE_SIZE
        coherent = [True, True]  # per core: no un-flushed bit change outstanding
        for op in seq:
            if op == "clear_user":
                vm.set_bit(space.asid, 0x10, PteBit.USER, False)
                coherent = [False, False]
            elif op == "clear_write":
                vm.set_bit(space.asid, 0x10, PteBit.WRITABLE, False)
                coherent = [False, False]
            elif op == "set_write":
                vm.set_bit(space.asid, 0x10, PteBit.WRITABLE, True)
                coherent = [False, False]
            elif op == "flush_all":
                vm.tlb_flush(space.asid, 0x10)
                coherent = [True, True]
            else:
                kind = READ if op == "user_read" else WRITE
                for core in (0, 1):
                    fault, _ = vm.access(core, space.asid, USER, kind, addr)
                    if coherent[core]:
                        expected = _predicted(vm, space.asid, 0x10, USER, kind)
                        got = None if fault is None else fault.reason
                        assert got == expected, (seq, op, core)
                    # a successful access warms the TLB; that snapshot is
                    # coherent with the current PTE only if nothing changed
                    if fault is None:
                        coherent[core] = coherent[core] or False

    def test_exhaustive_short_sequences(self):
        for length in range(1, 5):
            for seq in itertools.product(self.OPS, repeat=length):
                self._run(seq)

    def test_sampled_length_eight_sequences(self):
        rng = random.Random(42)
        for _ in range(1500):
            seq = [self.OPS[rng.randrange(len(self.OPS))] for _ in range(8)]
            self._run(seq)


class TestAccessMonotonicity:
    def _allowed_user_accesses(self, vm, asid):
        addr = 0x10 * PAGE_SIZE
        out = set()
        for kind in (READ, WRITE, EXEC):
            if vm.access(0, asid, USER, kind, addr)[0] is None:
                out.add(kind)
        return out

    def test_clearing_bits_plus_flush_strictly_shrinks(self):
        for bit in (PteBit.USER, PteBit.WRITABLE):
            vm = Vmem(cores=1)
            space, _ = make_space(vm, user=True, writable=True, executable=True)
            before = self._allowed_user_accesses(vm, space.asid)
            vm.set_bit(space.asid, 0x10, bit, False)
            vm.tlb_flush(space.asid, 0x10)
            after = self._allowed_user_accesses(vm, space.asid)
            assert after < before


# A byte range inside a 4-page mapping at vpn 0x10: (offset from the
# mapping's start, the bytes), the bytes a short pattern repeated so that
# some ranges hold NULs and some do not.
SPAN = 4 * PAGE_SIZE
BASE = 0x10 * PAGE_SIZE


@st.composite
def ranges(draw):
    offset = draw(st.integers(0, SPAN))
    length = draw(st.integers(0, SPAN - offset))
    pattern = draw(st.binary(min_size=1, max_size=24))
    return offset, (pattern * (length // len(pattern) + 1))[:length]


class TestPageWalk:
    @settings(max_examples=150, deadline=None)
    @given(ranges())
    def test_write_then_read_matches_a_flat_model(self, write):
        offset, data = write
        vm = Vmem()
        space, _ = make_space(vm, pages=4)
        model = bytearray(SPAN)
        assert vm.write_bytes(0, space.asid, USER, BASE + offset, data) is None
        model[offset : offset + len(data)] = data
        assert vm.read_bytes(1, space.asid, USER, BASE, SPAN) == (bytes(model), None)
        assert vm.read_bytes(0, space.asid, USER, BASE + offset, len(data)) == (data, None)

    @settings(max_examples=150, deadline=None)
    @given(ranges())
    def test_poke_writes_what_a_kernel_write_writes(self, write):
        offset, data = write
        poked, written = Vmem(), Vmem()
        space, poked_frames = make_space(poked, pages=4)
        other, written_frames = make_space(written, pages=4)
        poked.poke(space.asid, BASE + offset, data)
        assert written.write_bytes(0, other.asid, KERNEL, BASE + offset, data) is None
        assert [poked.frames[f] for f in poked_frames] == [written.frames[f] for f in written_frames]

    @settings(max_examples=150, deadline=None)
    @given(ranges(), st.integers(1, 4))
    def test_read_cstring_stops_at_the_first_nul_within_max_pages(self, write, max_pages):
        offset, data = write
        offset = min(offset, SPAN - 1)
        max_pages = min(max_pages, 4 - offset // PAGE_SIZE)  # stay inside the mapping
        vm = Vmem()
        space, _ = make_space(vm, pages=4)
        model = bytearray(b"\x01" * SPAN)  # no NUL but the ones written
        vm.write_bytes(0, space.asid, KERNEL, BASE, bytes(model))
        vm.write_bytes(0, space.asid, KERNEL, BASE + offset, data)
        model[offset : offset + len(data)] = data
        window = model[offset : (offset // PAGE_SIZE + max_pages) * PAGE_SIZE]
        nul = window.find(0)
        expected = bytes(window[:nul]) if nul >= 0 else None
        assert vm.read_cstring(0, space.asid, USER, BASE + offset, max_pages) == (expected, None)
