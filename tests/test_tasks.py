from math import comb

import pytest

from dptisim import (
    CmpOp,
    ExecImage,
    ExecOp,
    ExitOp,
    FilterBuilder,
    ForkOp,
    MapSpec,
    ReadOp,
    Simulation,
    SyscallOp,
    Variant,
    WriteOp,
    explore,
    explore_all,
)
from dptisim.events import ExecEvent, ExitEvent, ForkEvent, KillCause, WakeEvent
from dptisim.filters import SYSCALL_NRS
from dptisim.scenario import build_simulation, load_scenario
from dptisim.tasks import extract_kills
from dptisim.vmem import PAGE_SIZE, AccessKind, AccessMode

PATH = 0x10000
OPENAT = SYSCALL_NRS["openat"]


def plain_sim(threads, pages=1):
    sim = Simulation(variant=None)
    proc = sim.add_process("p")
    sim.map_region(proc.asid, MapSpec(vaddr=PATH, pages=pages))
    for i, ops in enumerate(threads):
        sim.add_thread(proc, ops, name=f"t{i + 1}")
    return sim


def sandboxed_sim(threads, rules=("read", "exit_group", "fork", "execve", "openat")):
    sim = Simulation(variant=Variant.STASH)
    fb = FilterBuilder()
    for nr in rules:
        fb.add_rule(nr)
    proc = sim.add_process("p", sandboxed=True, filters=fb.install())
    sim.map_region(proc.asid, MapSpec(vaddr=PATH, pages=1, data=((PATH, b"img\x00"),)))
    for i, ops in enumerate(threads):
        sim.add_thread(proc, ops, name=f"t{i + 1}")
    return sim, proc


class TestDeterminism:
    def test_same_seed_same_report(self):
        def run():
            sim = plain_sim([[ReadOp(PATH)] * 3, [WriteOp(PATH, b"x")] * 3])
            return sim.run_seeded(7)

        assert run().hash_hex() == run().hash_hex()

    def test_exploration_is_deterministic(self):
        def factory():
            return plain_sim([[ReadOp(PATH)] * 2, [ReadOp(PATH)] * 2])

        assert explore(factory, 24).hash_hex() == explore(factory, 24).hash_hex()

    def test_single_thread_exit_reports_no_violations(self):
        sim, _ = sandboxed_sim([[ExitOp()]])
        report = sim.run_seeded(0)
        assert report.witnesses == [] and report.kills == []


    def test_seeded_run_cut_by_max_steps_reports_truncated(self):
        report = plain_sim([[ReadOp(PATH)] * 3]).run_seeded(0, max_steps=2)
        assert report.truncated and report.steps == 2
        assert not plain_sim([[ReadOp(PATH)] * 2]).run_seeded(0, max_steps=2).truncated


class TestVariantValues:
    """A variant is compared by value, so an equal string built at run time
    behaves as the constant, and a string that names no variant is refused."""

    def test_a_variant_built_at_run_time_runs_as_the_constant(self, scenarios_dir):
        sc = load_scenario(scenarios_dir / "toctou_openat.json")
        built = "".join(["st", "ash"])
        assert built == Variant.STASH and built is not Variant.STASH
        runs = [build_simulation(sc, variant_override=v).run_seeded(0) for v in (Variant.STASH, built)]
        assert runs[0].hash_hex() == runs[1].hash_hex()

    def test_an_unknown_variant_is_refused(self, scenarios_dir):
        sc = load_scenario(scenarios_dir / "toctou_openat.json")
        with pytest.raises(ValueError, match="stsah"):
            build_simulation(sc, variant_override="stsah")


class TestExhaustiveCompleteness:
    def test_two_threads_four_ops_visits_every_interleaving(self):
        def factory():
            return plain_sim([[ReadOp(PATH)] * 4, [ReadOp(PATH)] * 4])

        report = explore_all(factory, max_steps=24)
        assert report.paths == comb(8, 4)
        assert report.truncated_paths == 0

    def test_asymmetric_lengths(self):
        def factory():
            return plain_sim([[ReadOp(PATH)] * 3, [ReadOp(PATH)] * 2])

        assert explore_all(factory, 24).paths == comb(5, 2)

    def test_max_steps_truncates_and_reports(self):
        def factory():
            return plain_sim([[ReadOp(PATH)] * 4, [ReadOp(PATH)] * 4])

        report = explore_all(factory, max_steps=3)
        assert report.truncated_paths == report.paths > 0


class TestStallWake:
    def _window_sim(self, writer_ops):
        sim = Simulation(variant=Variant.STASH)
        fb = FilterBuilder()
        fb.add_rule_string("openat", 1, CmpOp.EQ, "file1")
        fb.add_rule("exit_group")
        proc = sim.add_process("p", sandboxed=True, filters=fb.install())
        sim.map_region(proc.asid, MapSpec(vaddr=PATH, pages=1, data=((PATH, b"file1\x00"),)))
        sim.add_thread(proc, [SyscallOp(OPENAT, (0, PATH, 0))], name="opener")
        for i, ops in enumerate(writer_ops):
            sim.add_thread(proc, ops, name=f"w{i}")
        return sim

    def test_stall_then_wake_resumes_same_op(self):
        sim = self._window_sim([[WriteOp(PATH + 1, b"z")]])
        sim.step(1); sim.step(1)          # open the protection window
        assert sim.step(2) == "stalled"
        sim.step(1)                        # body
        sim.step(1)                        # restore wakes the writer
        assert sim.tasks[2].state == "runnable"
        assert sim.step(2) == "ok"

    def test_restore_wakes_every_waiter_on_the_frame(self):
        sim = self._window_sim([[WriteOp(PATH + 1, b"z")], [WriteOp(PATH + 2, b"y")]])
        sim.step(1); sim.step(1)
        assert sim.step(2) == "stalled"
        assert sim.step(3) == "stalled"
        sim.step(1); sim.step(1)
        wakes = [e for e in sim.events if isinstance(e, WakeEvent)]
        assert {w.tid for w in wakes} == {2, 3}

    def test_thread_stalled_at_end_reported_as_deadlock(self):
        sim = self._window_sim([[WriteOp(PATH + 1, b"z")]])
        sim.step(1); sim.step(1)
        sim.step(2)
        report = sim.run_prefix([], max_steps=3)  # budget exhausted mid-window
        report = sim.build_report()
        assert report.deadlocked == [2]
        assert any(e["type"] == "DeadlockEvent" for e in report.events)


    def test_stalled_task_can_neither_stall_again_nor_step(self):
        sim = self._window_sim([[WriteOp(PATH + 1, b"z")]])
        sim.step(1); sim.step(1)
        assert sim.step(2) == "stalled"
        writer = sim.tasks[2]
        with pytest.raises(RuntimeError, match="cannot stall task 2 in state stalled"):
            sim.stall_task(writer, "frame", writer.stall[1])
        with pytest.raises(RuntimeError, match="stepping non-runnable task 2"):
            sim.step(2)
        assert len(sim.trace) == 3  # neither call left a trace entry

    def test_duplicate_thread_name_rejected(self):
        sim = plain_sim([[ReadOp(PATH)]])
        with pytest.raises(ValueError, match="duplicate thread name 't1'"):
            sim.add_thread(sim.processes[1], [ReadOp(PATH)], name="t1")
        assert list(sim.tasks_by_name) == ["t1"]


class TestForkExit:
    def test_fork_bumps_refcount(self):
        sim, proc = sandboxed_sim([[ForkOp(()), ]])
        sim.run_seeded(0)
        assert proc.filters.refcount == 2
        fork = next(e for e in sim.events if isinstance(e, ForkEvent))
        assert fork.refcount == 2

    def test_child_exit_drops_refcount_back(self):
        sim, proc = sandboxed_sim([[ForkOp((ExitOp(),))]])
        sim.run_seeded(0)
        assert proc.filters.refcount == 1
        assert not proc.filters.freed

    def test_exit_group_decrements_by_thread_count(self):
        sim, proc = sandboxed_sim([[ExitOp()], [ReadOp(PATH)] * 50, [ReadOp(PATH)] * 50])
        assert proc.filters.refcount == 3
        sim.step(1)  # exit_group kills all three
        exit_ev = next(e for e in sim.events if isinstance(e, ExitEvent))
        assert exit_ev.refcount == 0 and exit_ev.freed
        assert proc.filters.freed

    def test_last_exit_frees_filters_in_report(self):
        sim, proc = sandboxed_sim([[ForkOp((ExitOp(),)), ExitOp()]])
        report = sim.run_seeded(0)
        assert report.filters["p"]["freed"] is True
        assert any(e["type"] == "FiltersFreedEvent" for e in report.events)

    def test_fork_child_reads_original_bytes_after_parent_write(self):
        sim = Simulation(variant=None)
        proc = sim.add_process("p")
        sim.map_region(proc.asid, MapSpec(vaddr=PATH, pages=1, data=((PATH, b"orig"),)))
        sim.add_thread(proc, [ForkOp((ReadOp(PATH, 4), ExitOp())), WriteOp(PATH, b"NEW!")],
                       name="parent")
        sim.run_seeded(0)
        assert not extract_kills(sim.events)
        child = sim.tasks[2]
        data, _ = sim.vmem.read_bytes(0, child.asid, AccessMode.KERNEL, PATH, 4)
        assert data == b"orig"

    def test_write_across_five_cow_pages_after_fork_completes(self):
        # one copy-on-write fault per page, each resolved before the retry
        data = bytes(range(256)) * (5 * PAGE_SIZE // 256)
        sim = plain_sim([[ForkOp(()), WriteOp(PATH, data)]], pages=5)
        sim.run_seeded(0)
        assert not extract_kills(sim.events)
        written, _ = sim.vmem.read_bytes(0, sim.tasks[1].asid, AccessMode.KERNEL, PATH, len(data))
        assert written == data
        child, _ = sim.vmem.read_bytes(0, sim.tasks[2].asid, AccessMode.KERNEL, PATH, len(data))
        assert child == bytes(len(data))

    def test_unsandboxed_exit_has_no_filter_bookkeeping(self):
        sim = plain_sim([[ExitOp()]])
        report = sim.run_seeded(0)
        assert report.filters == {}
        ev = next(e for e in report.events if e["type"] == "ExitEvent")
        assert ev["refcount"] == 0 and ev["freed"] is False


class TestExec:
    def test_plain_exec_replaces_address_space(self):
        image = ExecImage(
            mappings=(MapSpec(vaddr=0x20000, pages=1, data=((0x20000, b"fresh"),)),),
            ops=(ReadOp(0x20000, 5), ExitOp()),
        )
        sim, proc = sandboxed_sim([[ExecOp(PATH, image)]])
        old_asid = proc.asid
        sim.run_seeded(0)
        assert not extract_kills(sim.events)
        assert old_asid not in sim.vmem.spaces
        assert any(isinstance(e, ExecEvent) for e in sim.events)
        task = sim.tasks[1]
        data, _ = sim.vmem.read_bytes(0, task.asid, AccessMode.KERNEL, 0x20000, 5)
        assert data == b"fresh"

    def test_exec_denied_by_string_filter_kills(self):
        sim = Simulation(variant=Variant.STASH)
        fb = FilterBuilder()
        fb.add_rule_string("execve", 0, CmpOp.EQ, "/usr/bin/vi")
        proc = sim.add_process("p", sandboxed=True, filters=fb.install())
        sim.map_region(proc.asid, MapSpec(vaddr=PATH, pages=1, data=((PATH, b"/usr/bin/emacs\x00"),)))
        sim.add_thread(proc, [ExecOp(PATH, ExecImage())], name="t1")
        sim.run_seeded(0)
        assert [k["cause"] for k in extract_kills(sim.events)] == [KillCause.FILTER_VIOLATION]

    def test_exec_with_shared_cow_page_leaves_sibling_accessible(self):
        """A forked sibling shares the exec argument page copy-on-write; the
        exec'ing child must not leave the sibling's mapping protected."""
        sim = Simulation(variant=Variant.STASH)
        fb = FilterBuilder()
        fb.add_rule("fork")
        fb.add_rule("exit_group")
        fb.add_rule_string("execve", 0, CmpOp.EQ, "img")
        proc = sim.add_process("p", sandboxed=True, filters=fb.install())
        sim.map_region(proc.asid, MapSpec(vaddr=PATH, pages=1, data=((PATH, b"img\x00"),)))
        child_image = ExecImage(ops=(ExitOp(),))
        sim.add_thread(
            proc,
            [ForkOp((ExecOp(PATH, child_image),)), ReadOp(PATH, 3), ExitOp()],
            name="parent",
        )
        report = sim.run_seeded(1)
        assert not extract_kills(sim.events)
        parent = sim.tasks[1]
        # parent still owns its pre-fork view, fully user-accessible
        fault, _ = sim.vmem.access(0, parent.asid, AccessMode.USER, AccessKind.READ, PATH)
        assert fault is None
        assert not report.deadlocked

    def test_multithreaded_exec_kills_sibling_threads(self):
        image = ExecImage(ops=(ExitOp(),))
        sim, proc = sandboxed_sim([[ExecOp(PATH, image)], [ReadOp(PATH)] * 30])
        sim.run_seeded(0)
        assert sim.tasks[2].state == "dead"
        assert proc.filters.freed  # exec dropped the sibling, exit dropped the last

    def test_exec_counts_the_aliases_of_its_path_page_in_other_processes(self):
        """The window over an execve's filtered path closes the alias another
        process maps; the exec reports it and the restore gives it back."""
        for variant in (Variant.STASH, Variant.FREEZE):
            sim = Simulation(variant=variant)
            fb = FilterBuilder()
            fb.add_rule("exit_group")
            fb.add_rule_string("execve", 0, CmpOp.EQ, "img")
            proc = sim.add_process("p", sandboxed=True, filters=fb.install())
            sim.map_region(proc.asid, MapSpec(vaddr=PATH, shared=True, data=((PATH, b"img\x00"),), label="path"))
            other = sim.add_process("other")
            sim.map_region(other.asid, MapSpec(vaddr=0x50000, shared=True, alias_of="path"))
            before = sim.vmem.pte(other.asid, 0x50000 // PAGE_SIZE).snapshot()
            sim.add_thread(proc, [ExecOp(PATH, ExecImage(ops=(ExitOp(),)))], name="execer")
            sim.run_seeded(0)
            assert not extract_kills(sim.events), variant
            (ev,) = [e for e in sim.events if isinstance(e, ExecEvent)]
            assert ev.restored_sibling_mappings == 1, variant
            assert sim.vmem.pte(other.asid, 0x50000 // PAGE_SIZE) == before, variant

    def test_exec_releases_protection_window_of_killed_sibling(self):
        """A sibling mid-way through a protected syscall dies on exec; its
        window must be unwound so the page comes back and waiters wake."""
        from dptisim.filters import CmpOp

        sim = Simulation(variant=Variant.STASH)
        fb = FilterBuilder()
        fb.add_rule("exit_group")
        fb.add_rule_string("openat", 1, CmpOp.EQ, "file1")
        fb.add_rule_string("execve", 0, CmpOp.EQ, "img")
        proc = sim.add_process("p", sandboxed=True, filters=fb.install())
        sim.map_region(proc.asid, MapSpec(vaddr=PATH, pages=1, data=((PATH, b"file1\x00"),)))
        sim.map_region(proc.asid, MapSpec(vaddr=0x20000, pages=1, data=((0x20000, b"img\x00"),)))
        sim.add_thread(proc, [ExecOp(0x20000, ExecImage(ops=(ExitOp(),)))], name="execer")
        sim.add_thread(proc, [SyscallOp(OPENAT, (0, PATH, 0))], name="opener")
        sim.step(2); sim.step(2)          # opener's window is now open
        assert sim.engine.by_frame
        sim.step(1); sim.step(1); sim.step(1); sim.step(1)  # exec completes
        assert not sim.engine.by_frame     # sibling's window unwound
        sim.run_seeded(0)
        assert sim.deadlocked_tids() == []
