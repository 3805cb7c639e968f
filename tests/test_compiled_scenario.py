"""A scenario is compiled at load and every build shares the result read-only;
reports serialise to the plain JSON of their dictionaries; the memory
model's reverse map and frame sizes, the closure and completeness of every
open protection window, the VMA write flags, the permission bits the program
gave each mapping no window holds and the privacy of private frames hold
after every step of every shipped scenario; and every build is freed by
reference counting."""

import gc
import itertools
import json
import weakref
from functools import partial
from typing import Any, Optional

import pytest

from dptisim import scenario as scenario_module
from dptisim.dpti import SyscallContext, Variant
from dptisim.events import CowEvent, ExecEvent, ForkEvent, MprotectEvent
from dptisim.scenario import build_simulation, load_scenario, scenario_from_dict
from dptisim.tasks import MmapOp, MprotectOp, explore, explore_all, extract_kills
from dptisim.vmem import PAGE_SIZE

from conftest import SCENARIOS, shared_private_frames

VARIANTS = {"none": None, "stash": Variant.STASH, "freeze": Variant.FREEZE}
PATHS = sorted(SCENARIOS.glob("*.json"))
# visudo's own bound means about 90,000 paths; a small one keeps it quick.
BOUNDS = {"visudo": 8}


def plain_json(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))


def lifecycle_scenario() -> dict:
    """One thread that forks, maps an alias, mprotects and execs, so that a
    run changes every kind of per-build state a shared compiled op could
    leak through."""
    return {
        "version": 1,
        "name": "lifecycle",
        "variant": "stash",
        "processes": [
            {
                "name": "app",
                "mappings": [
                    {"vaddr": 0x10000, "label": "buf",
                     "data": [{"at": 0x10000, "string": "/bin/next"}]},
                    {"vaddr": 0x20000, "pages": 2},
                ],
                "threads": [
                    {"name": "main", "ops": [
                        {"op": "fork", "child": [{"op": "write", "vaddr": 0x10000, "string": "child"}]},
                        {"op": "mmap", "vaddr": 0x30000, "alias_of": "buf"},
                        {"op": "write", "vaddr": 0x30000, "string": "/bin/alias"},
                        {"op": "mprotect", "vaddr": 0x20000, "pages": 2, "write": False},
                        {"op": "exec", "path_vaddr": 0x10000, "image": {
                            "mappings": [{"vaddr": 0x40000, "data": [{"at": 0x40000, "string": "new"}]}],
                            "ops": [{"op": "write", "vaddr": 0x40000, "string": "image"}],
                        }},
                    ]},
                    {"name": "reader", "ops": [{"op": "read", "vaddr": 0x20000, "len": 8}]},
                ],
            }
        ],
    }


@pytest.mark.parametrize("path", PATHS, ids=lambda p: p.stem)
def test_second_build_calls_no_parser(path, monkeypatch):
    """Everything is parsed at load, so no build, the first included, reads
    the scenario's JSON again."""
    sc = load_scenario(path)
    called = []
    for name in (
        "scenario_from_dict", "build_filters", "_processes", "_enclave", "_map_spec", "_ops",
        "_fields", "_read",
    ):
        original = getattr(scenario_module, name)
        monkeypatch.setattr(
            scenario_module, name,
            lambda *args, _name=name, _original=original, **kwargs:
                called.append(_name) or _original(*args, **kwargs),
        )
    for variant in VARIANTS.values():
        build_simulation(sc, variant)
    assert called == []
    scenario_module.scenario_from_dict(sc.raw)
    assert {"scenario_from_dict", "_processes", "_map_spec", "_ops", "_fields", "_read"} <= set(called)


ALIASED = [p for p in PATHS if '"alias_of"' in p.read_text()]


@pytest.mark.parametrize("path", ALIASED, ids=lambda p: p.stem)
def test_each_alias_maps_its_labels_frames(path):
    """Every alias, as built or mapped by an mmap op, maps the frames its
    label's pages map."""
    sc = load_scenario(path)
    sim = build_simulation(sc)
    sim.run_seeded(0, sc.schedule.get("max_steps", 1000))
    spaces = sim.vmem.spaces

    def frames(asid, vpn, pages):
        return [spaces[asid].entries[vpn + i].frame_id for i in range(pages)]

    checked = 0
    for proc, plan in zip(sim.processes.values(), sc.compiled.processes):
        ops = [op for _, thread_ops, _, _ in plan.threads for op in thread_ops]
        for spec in [*plan.mappings, *(op.spec for op in ops if isinstance(op, MmapOp))]:
            if spec.alias_of is not None:
                label = frames(*sim.labels[spec.alias_of], spec.pages)
                assert frames(proc.asid, spec.vaddr // PAGE_SIZE, spec.pages) == label
                checked += 1
    assert checked > 0


def fork_probe(ops: list) -> dict:
    """One process whose one thread runs ``ops`` over its private page at
    0x10000, labelled ``buf`` and holding "file1"."""
    return {
        "version": 1, "name": "fork-probe",
        "processes": [{
            "name": "app",
            "mappings": [{"vaddr": 0x10000, "label": "buf", "data": [{"at": 0x10000, "string": "file1"}]}],
            "threads": [{"name": "main", "ops": ops}],
        }],
    }


FORK = {"op": "fork", "child": [{"op": "read", "vaddr": 0x10000, "len": 5}]}
ALIAS = [{"op": "mmap", "vaddr": 0x30000, "alias_of": "buf"}, {"op": "write", "vaddr": 0x30000, "string": "X"}]
# Each writes "X" over the parent's page after a fork, in a way that once
# reached the child's copy too.
FORK_PROBES = {
    "alias after a write": [FORK, {"op": "write", "vaddr": 0x10000, "string": "P"}, *ALIAS],
    "alias": [FORK, *ALIAS],
    "read-only page": [
        {"op": "mprotect", "vaddr": 0x10000, "write": False}, FORK,
        {"op": "mprotect", "vaddr": 0x10000, "write": True}, {"op": "write", "vaddr": 0x10000, "string": "X"},
    ],
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("probe", sorted(FORK_PROBES))
def test_a_write_after_a_fork_leaves_the_childs_page_alone(probe, variant):
    sim = build_simulation(scenario_from_dict(fork_probe(FORK_PROBES[probe])), VARIANTS[variant])
    check_every_step(sim)
    sim.run_seeded(0)
    assert not extract_kills(sim.events)

    def buf(proc):
        frame_id = sim.vmem.spaces[proc.asid].entries[0x10000 // PAGE_SIZE].frame_id
        return bytes(sim.vmem.frames[frame_id][:5])

    parent, child = sim.processes.values()
    assert (buf(parent), buf(child)) == (b"Xile1", b"file1")


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_a_write_to_a_forked_read_only_page_segfaults_without_a_copy(variant):
    """As in Linux, the area's write flag is checked before any copy: a
    write to a read-only private page after a fork kills the writer, and
    no copy is made."""
    ops = [{"op": "mprotect", "vaddr": 0x10000, "write": False}, FORK, {"op": "write", "vaddr": 0x10000, "string": "X"}]
    sim = build_simulation(scenario_from_dict(fork_probe(ops)), VARIANTS[variant])
    check_every_step(sim)
    sim.run_seeded(0)
    kills = extract_kills(sim.events)
    assert [(kill["process"], kill["cause"]) for kill in kills] == [("app", "segfault")]
    assert "write_violation" in kills[0]["detail"]
    assert not any(isinstance(ev, CowEvent) for ev in sim.events)


def test_running_one_build_leaves_its_siblings_unchanged():
    sc = scenario_from_dict(lifecycle_scenario())
    expected = build_simulation(sc).run_seeded(0)
    sibling = build_simulation(sc)
    mutated = build_simulation(sc)
    mutated.run_seeded(0)
    kinds = {type(ev) for ev in mutated.events}
    assert {ForkEvent, ExecEvent, MprotectEvent} <= kinds
    assert not extract_kills(mutated.events)
    assert sibling.run_seeded(0).hash_hex() == expected.hash_hex()
    assert build_simulation(sc).run_seeded(0).hash_hex() == expected.hash_hex()


@pytest.mark.parametrize("path", PATHS, ids=lambda p: p.stem)
def test_builds_run_in_any_order_give_the_same_report(path):
    sc = load_scenario(path)
    for variant in VARIANTS.values():
        first, second = build_simulation(sc, variant), build_simulation(sc, variant)
        a = first.run_seeded(0, sc.schedule.get("max_steps", 1000)).hash_hex()
        assert second.run_seeded(0, sc.schedule.get("max_steps", 1000)).hash_hex() == a


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("path", PATHS, ids=lambda p: p.stem)
def test_report_json_is_the_plain_json_of_its_dict(path, variant):
    sc = load_scenario(path)
    report = build_simulation(sc, VARIANTS[variant]).run_seeded(0, sc.schedule.get("max_steps", 1000))
    assert report.to_json() == plain_json(report)
    bound = BOUNDS.get(path.stem, sc.schedule.get("max_steps", 24))
    exploration = explore(lambda: build_simulation(sc, VARIANTS[variant]), bound)
    assert exploration.to_json() == plain_json(exploration)


def open_window_mappings(sim):
    """Every mapping open protection windows hold closed that still maps the
    frame they closed, as (description, its PTE and every TLB entry for
    it)."""
    vmem = sim.vmem
    for closed in (c for held in sim.engine.closed.values() for c in held.values()):
        space = vmem.spaces.get(closed.asid)
        pte = space.entries.get(closed.vpn) if space is not None else None
        if pte is None or pte.frame_id != closed.frame_id:
            continue
        tlb_entries = [tlb.get((closed.asid, closed.vpn)) for tlb in vmem.tlbs]
        views = [pte] + [entry for entry in tlb_entries if entry is not None]
        yield repr(closed), views


class ProgramBits:
    """The permission bits the program itself gave each mapped page: as
    built, as mapped later by mmap or exec, as a fork copied them from the
    parent, or as an applied mprotect set them. Each page's vm_write and
    vm_exec are the flags the program set last on it: a freeze window never
    touches them. A process's mapping that no open window holds has the user and exec
    bits the program gave it, and unless it is copy-on-write its write bit
    too, in its PTE and every TLB entry for it. No entry, in any page table
    or TLB, is both writable and copy-on-write.

    The bits follow the path the simulation is on: each change is kept with
    the step that made it, and ``rewind`` drops the changes of the steps a
    search undid."""

    def __init__(self, sim):
        self.sim = sim
        # (asid, vpn) -> (write, user, exec)
        self.flags = {
            (asid, vpn): (pte.vm_write, pte.user, pte.executable)
            for asid, space in sim.vmem.spaces.items() for vpn, pte in space.entries.items()
        }
        # (the step, the key and its flags before) of every change
        self.changes: list[tuple[int, tuple[int, int], Any]] = []
        map_region, fork_task = sim.map_region, sim.fork_task

        def recording_map_region(asid, spec, *args):
            frames = map_region(asid, spec, *args)
            start = spec.vaddr // PAGE_SIZE
            for vpn in range(start, start + len(frames)):
                self.set((asid, vpn), (spec.writable, spec.user, spec.executable))
            return frames

        def recording_fork_task(parent, child_ops):
            child = fork_task(parent, child_ops)
            for (asid, vpn), flag in list(self.flags.items()):
                if asid == parent.asid:
                    self.set((child.asid, vpn), flag)
            return child

        sim.map_region = recording_map_region
        sim.fork_task = recording_fork_task

    def set(self, key: tuple[int, int], flag: tuple[bool, bool, bool], step: Optional[int] = None) -> None:
        """Give ``key`` the flags ``flag`` at ``step``, by default the step
        running now."""
        self.changes.append((len(self.sim.trace) if step is None else step, key, self.flags.get(key)))
        self.flags[key] = flag

    def rewind(self) -> None:
        """Drop the changes of every step at or past the simulation's path
        position: steps a search undid."""
        position = len(self.sim.trace)
        while self.changes and self.changes[-1][0] >= position:
            _, key, flag = self.changes.pop()
            if flag is None:
                del self.flags[key]
            else:
                self.flags[key] = flag

    def stepped(self, task, op, events, step: int):
        """Record the bits an applied mprotect ``op`` of ``task`` set at ``step``."""
        if isinstance(op, MprotectOp) and any(
            isinstance(ev, MprotectEvent) and ev.outcome == "applied" for ev in events
        ):
            for vpn in op.vpns:
                self.set((task.asid, vpn), (op.writable, op.user, op.executable), step)

    def problems(self):
        vmem, closed = self.sim.vmem, self.sim.engine.closed
        entries = itertools.chain(
            (pte for space in vmem.spaces.values() for pte in space.entries.values()),
            (entry for tlb in vmem.tlbs for entry in tlb.values()),
        )
        for entry in entries:
            if entry.writable and entry.cow:
                yield f"{entry} is both writable and copy-on-write"
        for proc in self.sim.processes.values():
            for vpn, pte in vmem.spaces[proc.asid].entries.items():
                write, user, executable = self.flags[proc.asid, vpn]
                if (pte.vm_write, pte.vm_exec) != (write, executable):
                    yield f"{proc.name} vpn {vpn:#x}: {pte} lacks the flags the program last set"
                if (proc.asid, vpn) in closed.get(pte.frame_id, ()):
                    continue
                tlb_entries = [tlb.get((proc.asid, vpn)) for tlb in vmem.tlbs]
                views = [pte] + [entry for entry in tlb_entries if entry is not None]
                for view in views:
                    # a copy-on-write entry stays read-only whatever the program set
                    if (view.user, view.executable) != (user, executable) or (
                        not view.cow and view.writable != write
                    ):
                        yield f"{proc.name} vpn {vpn:#x}, held by no window: {view} lacks the program's bits"


def op_of(task):
    """The op ``task`` runs next, or is in the middle of as a syscall."""
    if isinstance(task.micro, SyscallContext):
        return task.micro.op
    return task.ops[task.ip] if task.micro is None and task.ip < len(task.ops) else None


def check_every_step(sim) -> list[int]:
    """Check the memory and window invariants after every step ``sim``
    takes from now on; returns the tids of the steps checked so far."""
    step = sim.step
    checked = []
    program_bits = ProgramBits(sim)

    def checking_step(tid):
        task = sim.tasks[tid]
        program_bits.rewind()
        op, seen, position = op_of(task), len(sim.events), len(sim.trace)
        outcome = step(tid)
        program_bits.stepped(task, op, sim.events[seen:], position)
        at = f"step {sim.step_count - 1}"
        vmem = sim.vmem
        assert vmem.rmap == vmem.rebuild_reverse_map(), at
        assert all(len(frame) == PAGE_SIZE for frame in vmem.frames.values())
        # While a window is open, every mapping it closed stays closed, in
        # the page table and in every core's TLB alike.
        for what, views in open_window_mappings(sim):
            for view in views:
                if sim.engine.variant == Variant.STASH:
                    assert not view.user and not view.executable, (at, what, view)
                else:
                    assert not view.writable, (at, what, view)
        # Every mapping of a frame inside an open window is one the window
        # closed.
        for frame_id, records in sim.engine.by_frame.items():
            for record in records:
                closed = {(mapping.asid, mapping.vpn) for mapping in record.mappings}
                assert vmem.rmap.get(frame_id, set()) <= closed, (at, frame_id)
        assert list(program_bits.problems()) == [], at
        # No private frame is shared between processes without copy-on-write.
        assert not shared_private_frames(sim), at
        checked.append(tid)
        return outcome

    sim.step = checking_step
    return checked


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("path", PATHS, ids=lambda p: p.stem)
def test_memory_and_window_invariants_hold_after_every_step(path, variant, seed):
    sc = load_scenario(path)
    sim = build_simulation(sc, VARIANTS[variant])
    checked = check_every_step(sim)
    report = sim.run_seeded(seed, sc.schedule.get("max_steps", 1000))
    assert len(checked) == report.steps > 0
    if not report.truncated and not report.deadlocked:
        assert not sim.engine.by_frame and not sim.engine.closed


def checked_exploration(raw: dict, variant: str):
    """``explore_all`` of ``raw`` under ``variant``, checking the memory and
    window invariants after every step of every path."""
    sc = scenario_from_dict(raw)

    def checked():
        sim = build_simulation(sc, VARIANTS[variant])
        check_every_step(sim)
        return sim

    return explore_all(checked, 200)


OPENAT_FILE1 = {"rules": [
    {"nr": "read"}, {"nr": "mprotect"}, {"nr": "exit_group"}, {"nr": "openat", "arg": 1, "strings": ["file1"]},
]}


def openat(vaddr: int) -> dict:
    return {"op": "syscall", "nr": "openat", "args": [0, vaddr, 0]}


@pytest.mark.parametrize("variant", ["stash", "freeze"])
def test_killing_an_older_window_leaves_a_newer_one_over_its_frame_closed(variant):
    """Sandboxed ``a`` and ``b`` each open the path on one shared labelled
    page, through their own mapping of it, while ``c`` maps another alias
    and writes "file2" over the path. Where both windows are open and the
    first to restore is killed for concurrent use, the page stays closed
    inside the other window, so ``c``'s write waits for it."""
    raw = {
        "version": 1, "name": "nested-windows", "filters": OPENAT_FILE1,
        "processes": [
            {"name": "a", "sandboxed": True,
             "mappings": [{"vaddr": 0x10000, "shared": True, "label": "path",
                           "data": [{"at": 0x10000, "string": "file1"}]}],
             "threads": [{"name": "a", "ops": [openat(0x10000)]}]},
            {"name": "b", "sandboxed": True,
             "mappings": [{"vaddr": 0x20000, "shared": True, "alias_of": "path"}],
             "threads": [{"name": "b", "ops": [openat(0x20000)]}]},
            {"name": "c", "threads": [{"name": "c", "ops": [
                {"op": "mmap", "vaddr": 0x50000, "shared": True, "alias_of": "path"},
                {"op": "write", "vaddr": 0x50000, "string": "file2"},
            ]}]},
        ],
    }
    verdict = checked_exploration(raw, variant).verdict()
    assert not verdict["witness"]
    assert "concurrent_use_violation" in verdict["kill_causes"]
    assert "c" not in verdict["process_kills"]


WRITE_THE_COPY = {"op": "write", "vaddr": 0x50004, "string": "2"}
# What copies the alias after t2's fork: t2's own openat of the path through
# it, t2's mmap of an alias of it, or another process's write through the
# direct-memory interface.
COW_COPIERS = {
    "openat": ([openat(0x50000), WRITE_THE_COPY], []),
    "alias mmap": ([{"op": "mmap", "vaddr": 0x60000, "alias_of": "copy"}, WRITE_THE_COPY], []),
    "proc_mem_write": ([WRITE_THE_COPY], [{"name": "w", "threads": [{"name": "w", "ops": [
        {"op": "proc_mem_write", "target": "t2", "vaddr": 0x50008, "string": "3"},
    ]}]}]),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("copier", sorted(COW_COPIERS))
def test_a_copy_of_a_mapping_a_window_holds_leaves_the_window(copier, variant):
    """Sandboxed ``app`` maps a shared labelled page holding "file1" and a
    private alias of it. ``t1`` opens the path on the shared page, so its
    window closes the alias too; ``t2`` forks, which makes the alias
    copy-on-write, then the alias is copied and ``t2`` writes it. The copy
    leaves ``t1``'s window with the bits the program gave the alias, so
    once every window has ended the write kills nobody, in full
    enumeration and in the reduced search alike."""
    t2_ops, others = COW_COPIERS[copier]
    raw = {
        "version": 1, "name": "copy-in-window",
        "filters": {"rules": [*OPENAT_FILE1["rules"], {"nr": "fork"}, {"nr": "mmap"}]},
        "processes": [
            {"name": "app", "sandboxed": True,
             "mappings": [
                 {"vaddr": 0x10000, "shared": True, "label": "path",
                  "data": [{"at": 0x10000, "string": "file1"}]},
                 {"vaddr": 0x50000, "alias_of": "path", "label": "copy"},
             ],
             "threads": [
                 {"name": "t1", "ops": [openat(0x10000)]},
                 {"name": "t2", "ops": [{"op": "fork", "child": []}, *t2_ops]},
             ]},
            *others,
        ],
    }
    verdict = checked_exploration(raw, variant).verdict()
    assert verdict["kill_causes"] == [] and not verdict["deadlock"]
    sc = scenario_from_dict(raw)
    assert explore(lambda: build_simulation(sc, VARIANTS[variant]), 200).verdict() == verdict


@pytest.mark.parametrize("write", [True, False])
def test_an_mprotect_beside_a_frozen_page_keeps_the_freeze_and_its_own_flag(write):
    """One thread opens the path on the first page of a 2-page mapping while
    another mprotects the second page and writes it: the freeze holds only
    the first page, and the second ends with the flag the mprotect gave
    it."""
    raw = {
        "version": 1, "name": "mprotect-beside-frozen", "filters": OPENAT_FILE1,
        "processes": [{
            "name": "app", "sandboxed": True,
            "mappings": [{"vaddr": 0x10000, "pages": 2, "data": [{"at": 0x10000, "string": "file1"}]}],
            "threads": [
                {"name": "t0", "ops": [openat(0x10000)]},
                {"name": "t1", "ops": [
                    {"op": "mprotect", "vaddr": 0x11000, "write": write},
                    {"op": "write", "vaddr": 0x11000, "string": "x"},
                ]},
            ],
        }],
    }
    verdict = checked_exploration(raw, "freeze").verdict()
    assert not verdict["witness"] and not verdict["deadlock"]
    assert verdict["kill_causes"] == ([] if write else ["segfault"])


FORK_FILTERS = {"rules": [*OPENAT_FILE1["rules"], {"nr": "fork"}]}
TWO_PAGES = {"vaddr": 0x10000, "pages": 2, "data": [{"at": 0x10000, "string": "file1"}]}
# Mappings and threads of one sandboxed process where a flag that is not
# kept per page kills or leaves a page writable and copy-on-write at once.
FLAG_REPROS = {
    # a freeze of the first page must not refuse the copy of the second
    "freeze beside a copy": (TWO_PAGES, [
        {"name": "main", "ops": [{"op": "fork", "child": [{"op": "read", "vaddr": 0x11000}]}, openat(0x10000)]},
        {"name": "w", "ops": [
            {"op": "read", "vaddr": 0x11000}, {"op": "write", "vaddr": 0x11000, "string": "x"},
        ]},
    ]),
    # an mprotect of the second page leaves the first page's flag alone
    "mprotect of one page of two": (TWO_PAGES, [{"name": "t", "ops": [
        {"op": "mprotect", "vaddr": 0x11000, "write": False},
        {"op": "fork", "child": []},
        {"op": "write", "vaddr": 0x10000, "string": "x"},
    ]}]),
    # a copy-on-write page that mprotect makes writable stays read-only
    # until the write copies it
    "mprotect of a copy-on-write page": ({"vaddr": 0x10000, "write": False}, [{"name": "t", "ops": [
        {"op": "fork", "child": []},
        {"op": "mprotect", "vaddr": 0x10000, "write": True},
        {"op": "write", "vaddr": 0x10000, "string": "x"},
    ]}]),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("repro", sorted(FLAG_REPROS))
def test_vm_flags_are_kept_on_each_page(repro, variant):
    """Each page keeps the flags the program set on it, and a freeze holds
    only the mappings its window closed: no interleaving kills anyone, and
    every step keeps the per-page flags and the write bit of every
    copy-on-write entry clear."""
    mapping, threads = FLAG_REPROS[repro]
    raw = {
        "version": 1, "name": "flags", "filters": FORK_FILTERS,
        "processes": [{"name": "app", "sandboxed": True, "mappings": [mapping], "threads": threads}],
    }
    verdict = checked_exploration(raw, variant).verdict()
    assert verdict["kill_causes"] == [] and not verdict["deadlock"] and not verdict["truncated"]


def test_every_build_is_freed_without_the_cyclic_collector():
    """With the garbage collector off, every build of a seeded run and of an
    exploration is gone once its caller drops it: nothing in a simulation
    points back at it strongly."""
    builds = []

    def factory(sc, variant):
        sim = build_simulation(sc, variant)
        builds.append(weakref.ref(sim))
        return sim

    gc.disable()
    try:
        for path in PATHS:
            sc = load_scenario(path)
            for variant in VARIANTS.values():
                factory(sc, variant).run_seeded(0, sc.schedule.get("max_steps", 1000))
                bound = 10 if path.stem == "visudo" else sc.schedule.get("max_steps", 24)
                explore(partial(factory, sc, variant), bound)
        alive = sum(ref() is not None for ref in builds)
    finally:
        gc.enable()
    assert alive == 0, f"{alive} of {len(builds)} builds alive"
