import pytest

from dptisim import (
    CmpOp,
    ExecOp,
    FilterBuilder,
    ForkOp,
    MapSpec,
    MmapOp,
    MprotectOp,
    ProcMemWriteOp,
    ReadOp,
    Simulation,
    SyscallOp,
    Variant,
    WriteOp,
)
from dptisim.dpti import MAX_SPAN, make_syscall_context
from dptisim.events import (
    KillCause,
    KillEvent,
    MprotectEvent,
    ProtectEvent,
    RestoreEvent,
    StallEvent,
    StatEvent,
    StringCheckEvent,
    SyscallEvent,
)
from dptisim.filters import SYSCALL_NRS
from dptisim.tasks import explore, explore_all, extract_kills
from dptisim.vmem import PAGE_SIZE, AccessKind, AccessMode

from conftest import shared_private_frames

PATH = 0x10000
OPENAT = SYSCALL_NRS["openat"]


def basic_filters(strings=("file1",), extra=()):
    fb = FilterBuilder()
    fb.add_rule("read")
    fb.add_rule("exit_group")
    for nr in extra:
        fb.add_rule(nr)
    for s in strings:
        fb.add_rule_string("openat", 1, CmpOp.EQ, s)
    return fb.install()


def one_proc_sim(variant, threads, *, filters=None, mappings=None, sandboxed=True,
                 deny_mode="kill"):
    sim = Simulation(variant=variant, deny_mode=deny_mode)
    proc = sim.add_process("app", sandboxed=sandboxed, filters=filters)
    for spec in mappings or [MapSpec(vaddr=PATH, pages=1, data=((PATH, b"file1\x00"),))]:
        sim.map_region(proc.asid, spec)
    for i, ops in enumerate(threads):
        sim.add_thread(proc, ops, name=f"t{i + 1}")
    return sim


def kill_causes(sim):
    return [k["cause"] for k in extract_kills(sim.events)]


VARIANTS = pytest.mark.parametrize(
    "variant", [None, Variant.STASH, Variant.FREEZE], ids=["none", "stash", "freeze"]
)


def assert_killed_once_for_a_bad_pointer(sim):
    """One kill, for the bad pointer, before any string was compared."""
    assert kill_causes(sim) == [KillCause.BAD_POINTER]
    assert not [e for e in sim.events if isinstance(e, StringCheckEvent)]


class TestDispatchCases:
    def test_allowed_without_filters_executes(self):
        fb = FilterBuilder()
        fb.add_rule("getppid")
        sim = one_proc_sim(Variant.STASH, [[SyscallOp(SYSCALL_NRS["getppid"], ())]],
                           filters=fb.install())
        sim.run_seeded(0)
        events = [e for e in sim.events if isinstance(e, SyscallEvent)]
        assert events[0].outcome == "executed"
        assert events[0].disposition == "allow"

    def test_unregistered_syscall_kills(self):
        sim = one_proc_sim(Variant.STASH, [[SyscallOp(SYSCALL_NRS["socket"], ())]],
                           filters=basic_filters())
        sim.run_seeded(0)
        assert kill_causes(sim) == [KillCause.UNREGISTERED_SYSCALL]

    def test_unregistered_syscall_errno_mode(self):
        sim = one_proc_sim(Variant.STASH, [[SyscallOp(SYSCALL_NRS["socket"], ()),
                                            SyscallOp(SYSCALL_NRS["getppid"], ())]],
                           filters=basic_filters(extra=("getppid",)), deny_mode="errno")
        sim.run_seeded(0)
        assert not extract_kills(sim.events)
        events = [e for e in sim.events if isinstance(e, SyscallEvent)]
        assert events[0].outcome == "denied" and events[0].result == -1
        assert events[1].outcome == "executed"

    def test_string_mismatch_kills(self):
        sim = one_proc_sim(
            Variant.STASH,
            [[SyscallOp(OPENAT, (0, PATH, 0))]],
            filters=basic_filters(strings=("other",)),
        )
        sim.run_seeded(0)
        assert kill_causes(sim) == [KillCause.FILTER_VIOLATION]

    def test_primitive_filter_checked_on_registers(self):
        fb = FilterBuilder()
        fb.add_rule_primitive("read", 0, CmpOp.EQ, 7)
        sim = one_proc_sim(Variant.STASH, [[SyscallOp(SYSCALL_NRS["read"], (7, 0, 0))]],
                           filters=fb.install())
        sim.run_seeded(0)
        assert not extract_kills(sim.events)

        fb = FilterBuilder()
        fb.add_rule_primitive("read", 0, CmpOp.EQ, 7)
        sim = one_proc_sim(Variant.STASH, [[SyscallOp(SYSCALL_NRS["read"], (8, 0, 0))]],
                           filters=fb.install())
        sim.run_seeded(0)
        assert kill_causes(sim) == [KillCause.FILTER_VIOLATION]

    def test_unsandboxed_bypasses_filtering(self):
        sim = one_proc_sim(Variant.STASH, [[SyscallOp(SYSCALL_NRS["socket"], ())]],
                           sandboxed=False)
        sim.run_seeded(0)
        assert not extract_kills(sim.events)
        ev = next(e for e in sim.events if isinstance(e, SyscallEvent))
        assert ev.disposition == "unsandboxed"


class TestProtectRestore:
    def test_round_trip_restores_bits_exactly(self):
        for variant in (Variant.STASH, Variant.FREEZE):
            sim = one_proc_sim(variant, [[SyscallOp(OPENAT, (0, PATH, 0))]],
                               filters=basic_filters())
            vpn = PATH // PAGE_SIZE
            task = sim.tasks[1]
            before = sim.vmem.pte(task.asid, vpn).snapshot()
            sim.run_seeded(0)
            after = sim.vmem.pte(task.asid, vpn)
            assert after == before
            assert not extract_kills(sim.events)

    def test_protect_covers_every_alias(self):
        sim = Simulation(variant=Variant.STASH)
        table = basic_filters()
        proc = sim.add_process("app", sandboxed=True, filters=table)
        sim.map_region(proc.asid, MapSpec(vaddr=PATH, pages=1, shared=True,
                                          data=((PATH, b"file1\x00"),), label="path"))
        sim.map_region(proc.asid, MapSpec(vaddr=PATH + PAGE_SIZE, shared=True, alias_of="path"))
        other = sim.add_process("other")
        sim.map_region(other.asid, MapSpec(vaddr=0x50000, shared=True, alias_of="path"))
        sim.add_thread(proc, [SyscallOp(OPENAT, (0, PATH, 0))], name="t1")
        sim.run_seeded(0)
        protect = next(e for e in sim.events if isinstance(e, ProtectEvent))
        assert protect.mappings == 3
        restore = next(e for e in sim.events if isinstance(e, RestoreEvent))
        assert restore.mappings == 3

    def test_stash_rejects_executable_argument_page(self):
        sim = one_proc_sim(
            Variant.STASH, [[SyscallOp(OPENAT, (0, PATH, 0))]],
            filters=basic_filters(),
            mappings=[MapSpec(vaddr=PATH, pages=1, executable=True,
                              data=((PATH, b"file1\x00"),))],
        )
        sim.run_seeded(0)
        assert kill_causes(sim) == [KillCause.EXECUTABLE_PAGE]

    def test_freeze_permits_executable_argument_page(self):
        sim = one_proc_sim(
            Variant.FREEZE, [[SyscallOp(OPENAT, (0, PATH, 0))]],
            filters=basic_filters(),
            mappings=[MapSpec(vaddr=PATH, pages=1, executable=True,
                              data=((PATH, b"file1\x00"),))],
        )
        sim.run_seeded(0)
        assert not extract_kills(sim.events)

    def test_stash_clears_executable_bit_during_window(self):
        sim = one_proc_sim(Variant.STASH, [[SyscallOp(OPENAT, (0, PATH, 0))]],
                           filters=basic_filters())
        task = sim.tasks[1]
        vpn = PATH // PAGE_SIZE
        # step to the end of the deep check, while the window is open
        sim.step(1)  # lookup
        sim.step(1)  # deep check: protect + compare
        pte = sim.vmem.pte(task.asid, vpn)
        assert not pte.user and not pte.executable
        sim.run_seeded(0)
        assert sim.vmem.pte(task.asid, vpn).user

    def test_multi_page_string_protects_both_pages(self):
        long_prefix = b"a" * (PAGE_SIZE - 4)
        string = long_prefix + b"tail"
        sim = one_proc_sim(
            Variant.STASH, [[SyscallOp(OPENAT, (0, PATH + 4, 0))]],
            filters=basic_filters(strings=(string.decode(),)),
            mappings=[MapSpec(vaddr=PATH, pages=2, data=((PATH + 4, string + b"\x00"),))],
        )
        sim.run_seeded(0)
        assert not extract_kills(sim.events)
        protect = next(e for e in sim.events if isinstance(e, ProtectEvent))
        assert protect.pages == 2 and protect.mappings == 2

    @VARIANTS
    def test_unterminated_string_kills(self, variant):
        sim = one_proc_sim(
            variant, [[SyscallOp(OPENAT, (0, PATH, 0))]],
            filters=basic_filters(),
            mappings=[MapSpec(vaddr=PATH, pages=MAX_SPAN,
                              data=tuple((PATH + i, b"x") for i in range(0, MAX_SPAN * PAGE_SIZE, 1)))],
        )
        # fill both pages without any terminator
        for frame in sim.vmem.frames.values():
            frame[:] = b"x" * PAGE_SIZE
        sim.run_seeded(0)
        assert_killed_once_for_a_bad_pointer(sim)

    @VARIANTS
    def test_unmapped_argument_pointer_kills(self, variant):
        sim = one_proc_sim(variant, [[SyscallOp(OPENAT, (0, 0x999000, 0))]],
                           filters=basic_filters())
        sim.run_seeded(0)
        assert_killed_once_for_a_bad_pointer(sim)

    @VARIANTS
    @pytest.mark.parametrize("op, arg", [
        (SyscallOp(OPENAT, (0, 0x999000, 0)), "openat arg1"),
        (SyscallOp(SYSCALL_NRS["write"], (1, 0x999000, 5)), "write arg1"),
        (SyscallOp(SYSCALL_NRS["stat"], (0x999000,)), "stat arg0"),
        (ExecOp(0x999000), "execve arg0"),
    ], ids=["openat", "write", "stat", "execve"])
    def test_unsandboxed_unmapped_pointer_kills_in_the_body(self, op, arg, variant):
        sim = one_proc_sim(variant, [[op]], sandboxed=False)
        sim.run_seeded(0)
        assert_killed_once_for_a_bad_pointer(sim)
        assert extract_kills(sim.events)[0]["detail"] == f"{arg} unreadable"
        # an unsandboxed syscall runs its body in its lookup step
        assert sim.trace[-1][2:] == [op.label(), "lookup:done"]

    def test_string_running_from_a_shared_page_into_an_unmapped_one_kills(self):
        """The window closes the other process's alias of the first page,
        then finds the second page unmapped: the kill ends the window and
        puts that alias back as it was."""
        for variant in (Variant.STASH, Variant.FREEZE):
            sim = Simulation(variant=variant)
            proc = sim.add_process("app", sandboxed=True, filters=basic_filters())
            sim.map_region(proc.asid, MapSpec(vaddr=PATH, shared=True, data=((PATH, b"x" * PAGE_SIZE),), label="path"))
            other = sim.add_process("other")
            sim.map_region(other.asid, MapSpec(vaddr=0x50000, shared=True, alias_of="path"))
            vpn = 0x50000 // PAGE_SIZE
            before = sim.vmem.pte(other.asid, vpn).snapshot()
            sim.add_thread(proc, [SyscallOp(OPENAT, (0, PATH, 0))], name="t1")
            sim.run_seeded(0)
            assert_killed_once_for_a_bad_pointer(sim)
            assert extract_kills(sim.events)[0]["detail"] == f"argument page {PATH // PAGE_SIZE + 1:#x} unmapped"
            assert sim.vmem.pte(other.asid, vpn) == before, variant
            assert not sim.engine.closed and not sim.engine.by_frame

    def test_concurrent_stash_windows_on_one_frame_kill(self):
        sim = Simulation(variant=Variant.STASH)
        proc = sim.add_process("app", sandboxed=True, filters=basic_filters())
        sim.map_region(proc.asid, MapSpec(vaddr=PATH, pages=1, data=((PATH, b"file1\x00"),)))
        sim.add_thread(proc, [SyscallOp(OPENAT, (0, PATH, 0))], name="t1")
        sim.add_thread(proc, [SyscallOp(OPENAT, (0, PATH, 0))], name="t2")
        # t1: lookup + protect; t2: lookup + protect (same frame); t1: body,
        # then t1's restore sees the frame still inside t2's window
        sim.step(1); sim.step(1)
        sim.step(2); sim.step(2)
        sim.step(1)  # body
        sim.step(1)  # restore -> concurrent use violation
        assert KillCause.CONCURRENT_USE in kill_causes(sim)

    def test_check_string_comparison_count(self):
        strings = tuple(f"no{i:07d}" for i in range(9)) + ("file1000",)
        sim = one_proc_sim(
            Variant.STASH, [[SyscallOp(OPENAT, (0, PATH, 0))]],
            filters=basic_filters(strings=strings),
            mappings=[MapSpec(vaddr=PATH, pages=1, data=((PATH, b"file1000\x00"),))],
        )
        sim.run_seeded(0)
        check = next(e for e in sim.events if isinstance(e, StringCheckEvent))
        assert check.comparisons == 10 and check.matched

    def test_first_position_match_needs_one_comparison(self):
        sim = one_proc_sim(Variant.STASH, [[SyscallOp(OPENAT, (0, PATH, 0))]],
                           filters=basic_filters(strings=("file1",)))
        sim.run_seeded(0)
        check = next(e for e in sim.events if isinstance(e, StringCheckEvent))
        assert check.comparisons == 1 and check.matched


class TestFaultPolicy:
    def test_write_to_unmapped_address_kills(self):
        sim = one_proc_sim(None, [[WriteOp(0x999000, b"x")]], sandboxed=False)
        sim.run_seeded(0)
        assert kill_causes(sim) == [KillCause.SEGFAULT]

    def test_freeze_write_to_never_writable_page_kills(self):
        sim = one_proc_sim(
            Variant.FREEZE, [[WriteOp(PATH, b"x")]], sandboxed=False,
            mappings=[MapSpec(vaddr=PATH, pages=1, writable=False)],
        )
        sim.run_seeded(0)
        assert kill_causes(sim) == [KillCause.SEGFAULT]

    def test_stalled_writer_resumes_and_succeeds_after_restore(self):
        sim = one_proc_sim(
            Variant.STASH,
            [[SyscallOp(OPENAT, (0, PATH, 0))], [WriteOp(PATH + 4, b"2")]],
            filters=basic_filters(),
        )
        # open the window, then let the writer fault into a stall
        sim.step(1); sim.step(1)
        assert sim.step(2) == "stalled"
        sim.run_seeded(0)
        assert not extract_kills(sim.events)
        data, _ = sim.vmem.read_bytes(0, sim.tasks[1].asid, AccessMode.KERNEL, PATH, 5)
        assert data == b"file2"  # the delayed write landed after the syscall

    def test_freeze_window_allows_concurrent_reads(self):
        sim = one_proc_sim(
            Variant.FREEZE,
            [[SyscallOp(OPENAT, (0, PATH, 0))], [ReadOp(PATH, 5)]],
            filters=basic_filters(),
        )
        sim.step(1); sim.step(1)
        assert sim.step(2) == "ok"
        sim.run_seeded(0)
        assert not extract_kills(sim.events)

    def test_stash_window_stalls_concurrent_reads(self):
        sim = one_proc_sim(
            Variant.STASH,
            [[SyscallOp(OPENAT, (0, PATH, 0))], [ReadOp(PATH, 5)]],
            filters=basic_filters(),
        )
        sim.step(1); sim.step(1)
        assert sim.step(2) == "stalled"
        sim.run_seeded(0)
        assert not extract_kills(sim.events)

    def test_cow_fault_resolves_and_retries(self):
        sim = Simulation(variant=None)
        proc = sim.add_process("app")
        sim.map_region(proc.asid, MapSpec(vaddr=PATH, pages=1, data=((PATH, b"orig"),)))
        sim.add_thread(proc, [WriteOp(PATH, b"NEW!")], name="parent")
        child_space = sim.vmem.fork_address_space(proc.asid)
        sim.run_seeded(0)
        assert not extract_kills(sim.events)
        data, _ = sim.vmem.read_bytes(0, child_space.asid, AccessMode.KERNEL, PATH, 4)
        assert data == b"orig"


class TestMprotect:
    def test_mprotect_on_protected_page_stalls_until_restore(self):
        sim = one_proc_sim(
            Variant.FREEZE,
            [
                [SyscallOp(OPENAT, (0, PATH, 0))],
                [MprotectOp(PATH, 1, writable=True), WriteOp(PATH + 4, b"2")],
            ],
            filters=basic_filters(extra=("mprotect",)),
            mappings=[MapSpec(vaddr=PATH, pages=1, writable=False,
                              data=((PATH, b"file1\x00"),))],
        )
        sim.step(1); sim.step(1)        # window open
        sim.step(2)                      # mprotect lookup
        assert sim.step(2) == "stalled"  # mprotect body waits on the frame
        sim.run_seeded(0)
        assert not extract_kills(sim.events)
        outcomes = [e.outcome for e in sim.events if isinstance(e, MprotectEvent)]
        assert outcomes == ["stalled", "applied"]
        data, _ = sim.vmem.read_bytes(0, sim.tasks[1].asid, AccessMode.KERNEL, PATH, 5)
        assert data == b"file2"  # replay after wake applied, then the write

    def test_mprotect_on_unrelated_page_proceeds(self):
        sim = one_proc_sim(
            Variant.FREEZE,
            [
                [SyscallOp(OPENAT, (0, PATH, 0))],
                [MprotectOp(0x70000, 1, writable=True)],
            ],
            filters=basic_filters(extra=("mprotect",)),
            mappings=[
                MapSpec(vaddr=PATH, pages=1, data=((PATH, b"file1\x00"),)),
                MapSpec(vaddr=0x70000, pages=1, writable=False),
            ],
        )
        sim.run_seeded(0)
        assert not extract_kills(sim.events)
        assert all(e.outcome == "applied" for e in sim.events if isinstance(e, MprotectEvent))

    @VARIANTS
    def test_mprotect_sets_the_mapped_pages_of_its_range_and_skips_the_rest(self, variant):
        """A 2-page mprotect at PATH, whose second page is unmapped, makes
        the first page read-only, flags included, and maps nothing."""
        sim = one_proc_sim(variant, [[MprotectOp(PATH, 2)]], filters=basic_filters(extra=("mprotect",)))
        sim.run_seeded(0)
        assert not extract_kills(sim.events)
        entries = sim.vmem.spaces[sim.tasks[1].asid].entries
        pte = entries[PATH // PAGE_SIZE]
        assert (pte.writable, pte.vm_write) == (False, False)
        assert PATH // PAGE_SIZE + 1 not in entries

    def test_stash_stalls_mprotect_too(self):
        sim = one_proc_sim(
            Variant.STASH,
            [
                [SyscallOp(OPENAT, (0, PATH, 0))],
                [MprotectOp(PATH, 1, writable=True)],
            ],
            filters=basic_filters(extra=("mprotect",)),
        )
        sim.step(1); sim.step(1)
        sim.step(2)
        assert sim.step(2) == "stalled"
        sim.run_seeded(0)
        assert not extract_kills(sim.events)

    @pytest.mark.parametrize(
        "variant, user", [(Variant.FREEZE, True), (Variant.STASH, False), (Variant.FREEZE, False)],
        ids=["freeze-write", "stash-user", "freeze-user"],
    )
    def test_mprotect_taking_a_permission_away_is_not_undone_by_restore(self, variant, user):
        """An mprotect that clears write, or user, on a page inside another
        thread's window waits for the window's restore, so the restore
        cannot put the cleared bit back."""
        op = MprotectOp(PATH, 1, user=user, writable=False)
        undone = []
        for seed in range(40):
            sim = one_proc_sim(
                variant, [[SyscallOp(OPENAT, (0, PATH, 0))], [op]],
                filters=basic_filters(extra=("mprotect",)),
            )
            report = sim.run_seeded(seed)
            assert not report.kills and not report.deadlocked
            space = sim.vmem.spaces[sim.tasks[1].asid]
            pte = space.entries[PATH // PAGE_SIZE]
            bits = (pte.user, pte.writable, pte.executable, pte.vm_write)
            if bits != (op.user, op.writable, op.executable, op.writable):
                undone.append(seed)
        assert undone == []


def fork_probe(variant):
    """Thread t1 opens the path on the page at PATH while thread t2 forks a
    child whose only op reads that page."""
    return one_proc_sim(
        variant, [[SyscallOp(OPENAT, (0, PATH, 0))], [ForkOp((ReadOp(PATH, 5),))]],
        filters=basic_filters(extra=("fork", "exit")),
    )


class TestFork:
    @pytest.mark.parametrize(
        "variant, paths", [(None, 20), (Variant.STASH, 25), (Variant.FREEZE, 25)],
        ids=["none", "stash", "freeze"],
    )
    def test_fork_waits_for_the_windows_in_its_address_space(self, variant, paths):
        """A fork while t1's window is open waits for its restore.
        Forked inside it, the child would copy the closed entry, which no
        window restores: under stash it is killed reading its own page, and
        under freeze the cleared VMA write flag shares the private page with
        the child without copy-on-write."""
        report = explore_all(lambda: fork_probe(variant))
        assert (report.kills, report.deadlock_paths) == ({}, 0)
        stalls = set()
        for seed in range(40):
            sim = fork_probe(variant)
            sim.run_seeded(seed)
            assert not shared_private_frames(sim), seed
            stalls |= {e.kind for e in sim.events if isinstance(e, StallEvent)}
        assert stalls == (set() if variant is None else {"fork"})
        assert report.paths == paths


class TestGenericBody:
    @staticmethod
    def unlink_sim(variant):
        """``t1`` unlinks the path at PATH while ``t2`` writes 4,091 bytes of
        ``x`` from PATH + 5 to the end of the page, over the terminator: the
        string then runs into the unmapped page after it."""
        fb = FilterBuilder()
        fb.add_rule("read")
        fb.add_rule("exit_group")
        fb.add_rule_string("unlink", 0, CmpOp.EQ, "file1")
        return one_proc_sim(
            variant,
            [[SyscallOp(SYSCALL_NRS["unlink"], (PATH,))], [WriteOp(PATH + 5, b"x" * (PAGE_SIZE - 5))]],
            filters=fb.install(),
        )

    @VARIANTS
    def test_a_use_fetch_that_finds_no_terminator_kills_in_the_body(self, variant):
        """The write lands between the check and the use. Unprotected, the
        body's fetch runs off the page and kills; a window makes the writer
        wait until the body has used the checked path."""
        sim = self.unlink_sim(variant)
        for tid in (1, 1, 2, 1):  # lookup, deep check, the write, the body
            sim.step(tid)
        sim.run(0)
        ev = next((e for e in sim.events if isinstance(e, SyscallEvent)), None)
        if variant is None:
            assert sim.trace[3][2:] == ["syscall:unlink", "body:done"]
            assert kill_causes(sim) == [KillCause.BAD_POINTER] and ev is None
        else:
            assert sim.trace[2][3] == "stalled"
            assert not extract_kills(sim.events)
            assert (ev.checked, ev.used) == ({0: "file1"}, {0: "file1"})


class TestStat:
    @staticmethod
    def stat_sim(variant, *racing):
        fb = FilterBuilder()
        fb.add_rule("exit_group")
        fb.add_rule_string("stat", 0, CmpOp.EQ, "file1")
        return one_proc_sim(variant, [[SyscallOp(SYSCALL_NRS["stat"], (PATH, 0))], *racing],
                            filters=fb.install())

    @VARIANTS
    def test_stat_uses_the_checked_path(self, variant):
        sim = self.stat_sim(variant)
        sim.run_seeded(0)
        assert not extract_kills(sim.events)
        ev = next(e for e in sim.events if isinstance(e, SyscallEvent))
        assert (ev.name, ev.result, ev.checked, ev.used) == ("stat", 0, {0: "file1"}, {0: "file1"})
        assert [e.origin for e in sim.events if isinstance(e, StatEvent)] == ["syscall"]

    @VARIANTS
    def test_racing_writer_gives_a_witness_only_without_protection(self, variant):
        """The writer turns file1 into file2: written before the check, the
        check kills; between check and use, only the unprotected stat uses
        the new path."""
        report = explore_all(lambda: self.stat_sim(variant, [WriteOp(PATH + 4, b"2")]))
        assert set(report.kills) == {"filter_violation"}
        assert (report.witness_paths > 0) == (variant is None)


class TestProcMem:
    def test_sandboxed_writer_denied(self):
        sim = one_proc_sim(
            Variant.STASH,
            [[ProcMemWriteOp("t1", PATH, b"X")], [ReadOp(PATH, 1)]],
            filters=basic_filters(),
        )
        sim.run_seeded(0)
        ev = next(e for e in sim.events if e.to_dict()["type"] == "ProcMemWriteEvent")
        assert ev.outcome == "denied"

    def test_unsandboxed_writer_ignores_write_protection(self):
        sim = Simulation(variant=Variant.STASH)
        proc = sim.add_process("app")
        sim.map_region(proc.asid, MapSpec(vaddr=PATH, pages=1, writable=False,
                                          data=((PATH, b"ro"),)))
        sim.add_thread(proc, [ProcMemWriteOp("t1", PATH, b"WR")], name="t1")
        sim.run_seeded(0)
        ev = next(e for e in sim.events if e.to_dict()["type"] == "ProcMemWriteEvent")
        assert ev.outcome == "executed"
        data, _ = sim.vmem.read_bytes(0, proc.asid, AccessMode.KERNEL, PATH, 2)
        assert data == b"WR"

    def test_write_across_a_page_end_fills_both_pages(self):
        sim = Simulation(variant=None)
        proc = sim.add_process("app")
        sim.map_region(proc.asid, MapSpec(vaddr=PATH, pages=2))
        vaddr = PATH + PAGE_SIZE - 4
        sim.add_thread(proc, [ProcMemWriteOp("t1", vaddr, b"0123456789")], name="t1")
        sim.run_seeded(0)
        assert all(len(frame) == PAGE_SIZE for frame in sim.vmem.frames.values())
        tail, _ = sim.vmem.read_bytes(0, proc.asid, AccessMode.KERNEL, PATH + PAGE_SIZE, 6)
        assert tail == b"456789"
        data, _ = sim.vmem.read_bytes(0, proc.asid, AccessMode.KERNEL, vaddr, 10)
        assert data == b"0123456789"

    def test_write_across_a_page_end_resolves_cow_on_each_page(self):
        sim = Simulation(variant=None)
        proc = sim.add_process("app")
        sim.map_region(proc.asid, MapSpec(vaddr=PATH, pages=2, data=((PATH + PAGE_SIZE - 2, b"orig"),)))
        vaddr = PATH + PAGE_SIZE - 2
        sim.add_thread(proc, [ForkOp(()), ProcMemWriteOp("t1", vaddr, b"NEW!")], name="t1")
        sim.run_seeded(0)
        parent, child = sim.tasks[1], sim.tasks[2]
        assert sim.vmem.read_bytes(0, parent.asid, AccessMode.KERNEL, vaddr, 4)[0] == b"NEW!"
        assert sim.vmem.read_bytes(0, child.asid, AccessMode.KERNEL, vaddr, 4)[0] == b"orig"
        assert sum(e.to_dict()["type"] == "CowEvent" for e in sim.events) == 2

    def test_write_into_an_unmapped_next_page_denied_whole(self):
        sim = Simulation(variant=None)
        proc = sim.add_process("app")
        sim.map_region(proc.asid, MapSpec(vaddr=PATH, pages=1))
        sim.add_thread(proc, [ProcMemWriteOp("t1", PATH + PAGE_SIZE - 2, b"XXXX")], name="t1")
        sim.run_seeded(0)
        ev = next(e for e in sim.events if e.to_dict()["type"] == "ProcMemWriteEvent")
        assert ev.outcome == "denied"
        assert sim.vmem.read_bytes(0, proc.asid, AccessMode.KERNEL, PATH, PAGE_SIZE)[0] == bytes(PAGE_SIZE)

    def test_write_to_dead_task_denied(self):
        sim = Simulation(variant=None)
        proc = sim.add_process("app")
        sim.map_region(proc.asid, MapSpec(vaddr=PATH, pages=1))
        sim.add_thread(proc, [ProcMemWriteOp(99, PATH, b"X")], name="t1")
        sim.run_seeded(0)
        ev = next(e for e in sim.events if e.to_dict()["type"] == "ProcMemWriteEvent")
        assert ev.outcome == "denied"


class TestWindowInvariants:
    def test_no_executable_protected_pte_at_any_step_under_stash(self):
        """While any stash window is open, every protected mapping must stay
        non-executable and kernel-only, at every scheduler step."""
        sim = one_proc_sim(
            Variant.STASH,
            [[SyscallOp(OPENAT, (0, PATH, 0))], [WriteOp(PATH + 4, b"2")], [ReadOp(PATH, 2)]],
            filters=basic_filters(),
            mappings=[MapSpec(vaddr=PATH, pages=1, data=((PATH, b"file1\x00"),))],
        )
        import random as _random

        rng = _random.Random(3)
        while sim.runnable_tids() and sim.step_count < 200:
            runnable = sim.runnable_tids()
            sim.step(runnable[rng.randrange(len(runnable))])
            for closed in (c for held in sim.engine.closed.values() for c in held.values()):
                pte = sim.vmem.spaces[closed.asid].entries[closed.vpn]
                assert not pte.executable and not pte.user
        assert not extract_kills(sim.events)

    def test_alias_mapped_mid_window_is_covered_and_restored(self):
        """An alias created while the window is open is protected under the
        covering record; restore returns it to its creation permissions."""
        for variant in (Variant.STASH, Variant.FREEZE):
            sim = Simulation(variant=variant)
            proc = sim.add_process("app", sandboxed=True,
                                   filters=basic_filters(extra=("mmap",)))
            sim.map_region(proc.asid, MapSpec(vaddr=PATH, pages=1, shared=True,
                                              data=((PATH, b"file1\x00"),), label="path"))
            sim.add_thread(proc, [SyscallOp(OPENAT, (0, PATH, 0))], name="t1")
            sim.add_thread(proc, [
                MmapOp(MapSpec(vaddr=0x50000, shared=True, alias_of="path")),
                WriteOp(0x50004, b"2"),
            ], name="t2")
            sim.step(1); sim.step(1)   # window open
            sim.step(2)                # mmap alias mid-window (one-step? allowed case-2)
            sim.step(2)                # mmap body completes
            new_pte = sim.vmem.pte(proc.asid, 0x50000 // PAGE_SIZE)
            if variant == Variant.STASH:
                assert not new_pte.user
            else:
                assert not new_pte.writable
            assert sim.step(2) == "stalled"  # write through the fresh alias
            sim.run_seeded(0)
            assert not extract_kills(sim.events)
            restored = sim.vmem.pte(proc.asid, 0x50000 // PAGE_SIZE)
            assert restored.user and restored.writable
            ev = next(e for e in sim.events if isinstance(e, SyscallEvent) and e.name == "openat")
            assert ev.checked == ev.used  # the delayed write came after the use

    def test_alias_mapped_mid_window_joins_every_window_over_its_frame(self):
        """With two threads' windows over one frame, an alias mapped then is
        closed by both, so the window that stays open still covers it."""
        for variant in (Variant.STASH, Variant.FREEZE):
            sim = Simulation(variant=variant)
            proc = sim.add_process("app", sandboxed=True, filters=basic_filters(extra=("mmap",)))
            sim.map_region(proc.asid, MapSpec(vaddr=PATH, shared=True, data=((PATH, b"file1\x00"),), label="path"))
            for name in ("t1", "t2"):
                sim.add_thread(proc, [SyscallOp(OPENAT, (0, PATH, 0))], name=name)
            sim.add_thread(proc, [MmapOp(MapSpec(vaddr=0x50000, shared=True, alias_of="path"))], name="t3")
            for tid in (1, 1, 2, 2, 3, 3):  # both windows open, then the mmap
                sim.step(tid)
            (records,) = sim.engine.by_frame.values()
            assert len(records) == 2
            for record in records:
                assert (proc.asid, 0x50000 // PAGE_SIZE) in {(p.asid, p.vpn) for p in record.mappings}

    def test_no_user_write_to_any_alias_during_window(self):
        """Alias completeness: while the window is open, user-mode writes to
        every mapping of the protected frame fault, in every address space."""
        for variant in (Variant.STASH, Variant.FREEZE):
            sim = Simulation(variant=variant)
            proc = sim.add_process("app", sandboxed=True, filters=basic_filters())
            frames = sim.map_region(proc.asid, MapSpec(vaddr=PATH, pages=1, shared=True,
                                                       data=((PATH, b"file1\x00"),), label="path"))
            sim.map_region(proc.asid, MapSpec(vaddr=0x30000, shared=True, alias_of="path"))
            other = sim.add_process("other")
            sim.map_region(other.asid, MapSpec(vaddr=0x70000, shared=True, alias_of="path"))
            sim.add_thread(proc, [SyscallOp(OPENAT, (0, PATH, 0))], name="t1")
            sim.step(1); sim.step(1)  # window open
            assert sim.engine.by_frame
            for asid, vpn in sim.vmem.aliases_of(frames[0]):
                for core in range(sim.vmem.cores):
                    fault, _ = sim.vmem.access(core, asid, AccessMode.USER,
                                               AccessKind.WRITE, vpn * PAGE_SIZE)
                    assert fault is not None, (variant, asid)


RENAME = SYSCALL_NRS["rename"]


def rename_sim(variant, old, new, pages):
    """A sandboxed ``rename(old, new)`` whose two string arguments are both
    filtered, with "old" and "new" stored at ``old`` and ``new`` in one
    mapping of ``pages`` pages at PATH."""
    fb = FilterBuilder()
    fb.add_rule("exit_group")
    fb.add_rule_string("rename", 0, CmpOp.EQ, "old")
    fb.add_rule_string("rename", 1, CmpOp.EQ, "new")
    return one_proc_sim(
        variant, [[SyscallOp(RENAME, (old, new))]], filters=fb.install(),
        mappings=[MapSpec(vaddr=PATH, pages=pages, data=((old, b"old\x00"), (new, b"new\x00")))],
    )


class TestOneWindowPerSyscall:
    def test_two_strings_on_one_page_share_the_window(self):
        for variant in (Variant.STASH, Variant.FREEZE):
            sim = rename_sim(variant, PATH, PATH + 0x100, pages=1)
            sim.run_seeded(0)
            assert not extract_kills(sim.events), variant
            assert sim.trace[-1][3] == "restore:done"
            ev = next(e for e in sim.events if isinstance(e, SyscallEvent))
            assert ev.checked == ev.used == {0: "old", 1: "new"}
            first, second = [e for e in sim.events if isinstance(e, ProtectEvent)]
            assert (first.pages, first.mappings) == (1, 1)
            assert (second.frames, second.pages, second.mappings) == ([], 0, 0)
            (restore,) = [e for e in sim.events if isinstance(e, RestoreEvent)]
            assert restore.mappings == 1
            assert not sim.engine.by_frame

    def test_two_strings_on_two_pages_of_one_vma_restore_exactly_under_freeze(self):
        sim = rename_sim(Variant.FREEZE, PATH, PATH + PAGE_SIZE, pages=2)
        space = sim.vmem.spaces[sim.tasks[1].asid]
        vpns = (PATH // PAGE_SIZE, PATH // PAGE_SIZE + 1)
        before = [space.entries[vpn].snapshot() for vpn in vpns]
        assert all(pte.vm_write for pte in before)
        sim.run_seeded(0)
        assert not extract_kills(sim.events)
        assert [space.entries[vpn] for vpn in vpns] == before
        (restore,) = [e for e in sim.events if isinstance(e, RestoreEvent)]
        assert restore.mappings == 2


class TestFreezeVmaFlag:
    @pytest.mark.parametrize("seed", range(40))
    def test_two_threads_freezing_two_pages_of_one_vma_restore_its_flag(self, seed):
        """Each thread's window freezes its own page of one 2-page mapping;
        in whichever order they close and restore, both pages end writable,
        with their vm_write flag set."""
        sim = one_proc_sim(
            Variant.FREEZE,
            [[SyscallOp(OPENAT, (0, PATH, 0))], [SyscallOp(OPENAT, (0, PATH + PAGE_SIZE, 0))]],
            filters=basic_filters(strings=("file1", "file2")),
            mappings=[MapSpec(vaddr=PATH, pages=2,
                              data=((PATH, b"file1\x00"), (PATH + PAGE_SIZE, b"file2\x00")))],
        )
        entries = sim.vmem.spaces[sim.tasks[1].asid].entries
        report = sim.run_seeded(seed)
        assert not report.kills and not report.deadlocked
        assert len([e for e in sim.events if isinstance(e, RestoreEvent)]) == 2
        pages = [entries[PATH // PAGE_SIZE + i] for i in (0, 1)]
        assert all(pte.writable and pte.vm_write for pte in pages)
        assert not sim.engine.by_frame and not sim.engine.closed


class TestMmap:
    def test_mmap_over_a_mapped_page_fails_and_maps_nothing(self, monkeypatch):
        """Like MAP_FIXED_NOREPLACE: a 2-page mmap at 0xF000 over the mapping
        at 0x10000 returns -1 before it maps or allocates anything, and no
        mapping is handed to the protection windows."""
        for variant in (None, Variant.STASH, Variant.FREEZE):
            sim = one_proc_sim(variant, [[MmapOp(MapSpec(vaddr=0xF000, pages=2))]], sandboxed=False)
            covered = []
            monkeypatch.setattr(sim.engine, "cover_new_mapping", lambda asid, vpn: covered.append(vpn))
            frames = len(sim.vmem.frames)
            sim.run_seeded(0)
            assert not extract_kills(sim.events)
            assert 0xF not in sim.vmem.spaces[sim.tasks[1].asid].entries
            assert len(sim.vmem.frames) == frames
            ev = next(e for e in sim.events if isinstance(e, SyscallEvent))
            assert (ev.name, ev.result) == ("mmap", -1)
            assert covered == []


class TestSyscallPhases:
    def test_preemption_points_visited_in_order(self):
        sim = one_proc_sim(Variant.STASH, [[SyscallOp(OPENAT, (0, PATH, 0))]],
                           filters=basic_filters())
        sim.run_seeded(0)
        assert [outcome for _, _, _, outcome in sim.trace] == [
            "lookup", "deep_check", "body", "restore:done",
        ]

    def test_case2_syscall_takes_two_steps(self):
        fb = FilterBuilder()
        fb.add_rule("getppid")
        sim = one_proc_sim(Variant.STASH, [[SyscallOp(SYSCALL_NRS["getppid"], ())]],
                           filters=fb.install())
        report = sim.run_seeded(0)
        assert report.steps == 2


# The fixtures of the fork and freeze-accounting fixes, each a function of
# the variant.
WINDOW_FIXTURES = {
    "fork-probe": fork_probe,
    "mprotect-away": lambda variant: one_proc_sim(
        variant, [[SyscallOp(OPENAT, (0, PATH, 0))], [MprotectOp(PATH, 1, user=False, writable=False)]],
        filters=basic_filters(extra=("mprotect",)),
    ),
    "two-pages-of-one-vma": lambda variant: one_proc_sim(
        variant,
        [[SyscallOp(OPENAT, (0, PATH, 0))], [SyscallOp(OPENAT, (0, PATH + PAGE_SIZE, 0))]],
        filters=basic_filters(strings=("file1", "file2")),
        mappings=[MapSpec(vaddr=PATH, pages=2, data=((PATH, b"file1\x00"), (PATH + PAGE_SIZE, b"file2\x00")))],
    ),
}


@pytest.mark.parametrize("variant", [None, Variant.STASH, Variant.FREEZE], ids=["none", "stash", "freeze"])
@pytest.mark.parametrize("fixture", sorted(WINDOW_FIXTURES))
def test_reduced_search_gives_the_full_enumeration_verdict(fixture, variant):
    def factory():
        return WINDOW_FIXTURES[fixture](variant)

    report, full = explore(factory), explore_all(factory)
    assert report.verdict() == full.verdict()
    assert report.paths <= full.paths
