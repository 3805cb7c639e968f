"""The footprints the reduced search prunes by, checked against the state
they name, location by location.

``location_state`` is the state of a simulation keyed by footprint
location: a frame's bytes, a page-table entry with every core's TLB entry
for it, the vpns each address space maps, a frame's reverse-map entry, the
frame allocator, the id counters, the windows over a frame with the
mappings of it they hold closed, the tasks stalled on a frame, each task,
each process's address space and each filter table. The labels and the
enclave domains, which no step changes, are kept under keys of their own
that no footprint names. The events are kept apart, as a multiset without
``step`` and ``seq``: no location holds them, but two orders of commuting
steps must emit the same ones.

At every state reached from a case's initial one, two checks run:

- the write check: every location a step changed is in its write set. A
  TLB fill is allowed under a read of its entry, a location of a frame
  that did not exist before under a write of ``"alloc"``, and the location
  of an address space, process or task that did not exist before under a
  write of ``"ids"``;
- the pair check: every two runnable steps that ``_independent`` calls
  independent commute. Neither disables the other, and both orders reach
  the same state.

The state is built here, not taken from ``src/``, so that the oracle shares
no code with the footprints it checks. It is also what the search of the
cases below remembers: a state reached twice is checked once.
"""

from collections import Counter
from dataclasses import astuple
from itertools import combinations
from typing import Any, Callable, Iterator

import pytest

from dptisim import tasks
from dptisim.dpti import SyscallContext
from dptisim.scenario import build_simulation, load_scenario, scenario_from_dict
from dptisim.tasks import Simulation, TaskState

from conftest import enclave_bystanders, enclave_race, pair_race, sgx_data_only_with
from test_explore_oracle import MUTANTS, PATHS, SHRUNK, VARIANTS, _bound, _dropping

FIXTURES = [path for path in PATHS if path.stem != "visudo"]


def _micro(ctx: Any) -> Any:
    if ctx is None:
        return None
    if isinstance(ctx, SyscallContext):
        record = ctx.record
        return (
            ctx.op, ctx.phase, ctx.rule is not None, ctx.disposition,
            None if record is None else tuple(record.frames),
            tuple(sorted(ctx.checked.items())), tuple(sorted(ctx.used.items())), ctx.result,
        )
    return (ctx.domain.name, ctx.at_entry, tuple(ctx.stack_vpns), ctx.ip, ctx.state, ctx.exit_kind)


def location_state(sim: Simulation) -> dict[Any, Any]:
    """The state of ``sim`` by footprint location, plus its events under
    ``"events"``; every value is hashable, so the items of two states can
    be compared and remembered."""
    vmem, engine = sim.vmem, sim.engine
    state: dict[Any, Any] = {("frame", fid): bytes(frame.data) for fid, frame in vmem.frames.items()}
    ptes = {(asid, vpn) for asid, space in vmem.spaces.items() for vpn in space.entries}
    ptes.update(key for tlb in vmem.tlbs for key in tlb.cached)
    for asid, vpn in ptes:
        space = vmem.spaces.get(asid)
        pte = space.entries.get(vpn) if space is not None else None
        cached = tuple(tlb.cached.get((asid, vpn)) for tlb in vmem.tlbs)
        state["pte", asid, vpn] = (
            pte and astuple(pte), tuple(entry and astuple(entry) for entry in cached),
        )
    state.update((("space", asid), frozenset(space.entries)) for asid, space in vmem.spaces.items())
    state.update((("rmap", fid), frozenset(mappings)) for fid, mappings in vmem.rmap.items())
    state["alloc"] = vmem._next_frame
    state["ids"] = (vmem._next_asid, sim._next_pid, sim._next_tid)
    state.update((("process", p.tgid), (p.name, p.asid, p.sandboxed)) for p in sim.processes.values())
    state["labels"] = tuple(sorted(sim.labels.items()))
    state["enclaves"] = repr(sorted(sim.enclaves.items()))

    owners = {
        id(task.micro.record): tid for tid, task in sim.tasks.items()
        if isinstance(task.micro, SyscallContext) and task.micro.record is not None
    }
    frames = set(engine.by_frame) | {closed.frame_id for closed in engine.closed.values()}
    for fid in frames:
        state["window", fid] = (
            tuple(
                (owners.get(id(record)),
                 tuple((c.asid, c.vpn) for c in record.mappings if c.frame_id == fid))
                for record in engine.by_frame.get(fid, [])
            ),
            frozenset(
                (c.asid, c.vpn, c.user, c.writable, c.executable, c.windows)
                for c in engine.closed.values() if c.frame_id == fid
            ),
        )

    tables: dict[int, int] = {}  # id of a filter table -> the first process installed for
    for proc in sim.processes.values():
        if proc.filters is not None:
            tables.setdefault(id(proc.filters), proc.tgid)
            state["filters", tables[id(proc.filters)]] = (proc.filters.refcount, proc.filters.freed)
    waitqs: dict[int, set] = {}
    for tid, task in sim.tasks.items():
        if task.state == TaskState.STALLED:
            waitqs.setdefault(task.stall[1], set()).add((tid, task.stall[0]))
        state["task", tid] = (
            task.state, task.ip, task.stall, task.asid, astuple(task.cpu), task.sandboxed,
            None if task.filters is None else tables[id(task.filters)], tuple(task.ops),
            _micro(task.micro),
        )
    state.update((("waitq", fid), frozenset(waiters)) for fid, waiters in waitqs.items())
    events = Counter()
    for ev in sim.events:
        out = ev.to_dict()
        del out["step"], out["seq"]
        events[repr(sorted(out.items()))] += 1
    state["events"] = frozenset(events.items())
    return state


def unlisted_writes(before: dict, after: dict, footprint) -> set:
    """The locations a step changed from ``before`` to ``after`` that its
    ``footprint`` does not account for."""
    reads, writes = footprint
    new = after.keys() - before.keys()
    new_frames = {loc[1] for loc in new if loc[0] == "frame"}
    out = set()
    for loc in before.keys() | after.keys():
        if loc == "events" or before.get(loc) == after.get(loc) or loc in writes:
            continue
        if loc[0] == "pte" and loc in reads and loc in before and _filled(before[loc], after[loc]):
            continue
        if "alloc" in writes and loc[0] in ("frame", "rmap", "window", "waitq") and loc[1] in new_frames:
            continue
        if "ids" in writes and loc in new and loc[0] in ("space", "process", "task"):
            continue
        out.add(loc)
    return out


def _filled(before, after) -> bool:
    """Whether a page-table location went from ``before`` to ``after`` by
    TLB fills of its entry alone."""
    (pte, cached), (pte_after, cached_after) = before, after
    return pte == pte_after and all(
        old == new or (old is None and new == pte) for old, new in zip(cached, cached_after)
    )


def check_failures(factory: Callable[[], Simulation], max_steps: int) -> Iterator[str]:
    """Run the write check and the pair check at every state that some
    schedule of at most ``max_steps`` steps reaches from ``factory()``, and
    yield one line per failure."""

    def replay(prefix: tuple[int, ...]) -> Simulation:
        sim = factory()
        for tid in prefix:
            sim.step(tid)
        return sim

    def stepped(prefix: tuple[int, ...], tid: int):
        sim = replay(prefix)
        before = location_state(sim)
        footprint = tasks._recorded_step(sim, tid)
        return footprint, before, location_state(sim)

    seen: set = set()
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) >= max_steps:
            continue
        sim = replay(prefix)
        ready = sim.runnable_tids()
        key = frozenset(location_state(sim).items())
        if key in seen:
            continue
        seen.add(key)
        after: dict[int, tuple] = {}
        for tid in ready:
            footprint, before, state = after[tid] = stepped(prefix, tid)
            for loc in sorted(unlisted_writes(before, state, footprint), key=repr):
                yield f"write check: {list(prefix)} + {tid} writes {loc} outside {sorted(footprint[1], key=repr)}"
            stack.append(prefix + (tid,))
        for a, b in combinations(ready, 2):
            if not tasks._independent(after[a][0], after[b][0]):
                continue
            ends = []
            for first, second in ((a, b), (b, a)):
                sim = replay(prefix + (first,))
                if second not in sim.runnable_tids():
                    yield f"pair check: {list(prefix)}: {first} disables {second}, which it is independent of"
                    break
                sim.step(second)
                ends.append(location_state(sim))
            else:
                if ends[0] != ends[1]:
                    differ = sorted((loc for loc in ends[0].keys() | ends[1].keys()
                                     if ends[0].get(loc) != ends[1].get(loc)), key=repr)
                    yield f"pair check: {list(prefix)}: {a} and {b} are independent but do not commute on {differ}"


def _factory(raw_or_sc, variant) -> Callable[[], Simulation]:
    sc = raw_or_sc if not isinstance(raw_or_sc, dict) else scenario_from_dict(raw_or_sc)
    return lambda: build_simulation(sc, VARIANTS[variant])


# Two sandboxed processes that each openat "file1" on one page they share:
# the second maps the first's labelled page as an alias.
TWO_OPENERS = {
    "version": 1, "name": "two_openers",
    "filters": {"rules": [
        {"nr": "read"}, {"nr": "exit_group"}, {"nr": "openat", "arg": 1, "strings": ["file1"]},
    ]},
    "processes": [
        {"name": "a", "sandboxed": True,
         "mappings": [{"vaddr": 0x10000, "label": "buf", "data": [{"at": 0x10000, "string": "file1"}]}],
         "threads": [{"name": "a-main", "ops": [{"op": "syscall", "nr": "openat", "args": [0, 0x10000, 0]}]}]},
        {"name": "b", "sandboxed": True,
         "mappings": [{"vaddr": 0x20000, "alias_of": "buf"}],
         "threads": [{"name": "b-main", "ops": [{"op": "syscall", "nr": "openat", "args": [0, 0x20000, 0]}]}]},
    ],
}

# Under stash and freeze, a thread of the second process stalls on the
# window the first process's openat holds over their shared page, while its
# sibling ends their process.
STALLED_KILL = {
    "version": 1, "name": "stalled_kill",
    "filters": {"rules": [{"nr": "exit_group"}, {"nr": "openat", "arg": 1, "strings": ["file1"]}]},
    "processes": [
        {"name": "a", "sandboxed": True,
         "mappings": [{"vaddr": 0x10000, "label": "buf", "data": [{"at": 0x10000, "string": "file1"}]}],
         "threads": [{"name": "opener", "ops": [{"op": "syscall", "nr": "openat", "args": [0, 0x10000, 0]}]}]},
        {"name": "b",
         "mappings": [{"vaddr": 0x20000, "alias_of": "buf"}],
         "threads": [{"name": "writer", "ops": [{"op": "write", "vaddr": 0x20000, "string": "file2"}]},
                     {"name": "exiter", "ops": [{"op": "exit", "group": True}]}]},
    ],
}

# A thread execs an image that aliases the process's labelled page while
# another thread writes that page.
EXEC_RACE = {
    "version": 1, "name": "exec_race",
    "processes": [{
        "name": "p",
        "mappings": [{"vaddr": 0x10000, "label": "buf", "data": [{"at": 0x10000, "string": "/bin/next"}]}],
        "threads": [
            {"name": "execer", "ops": [{"op": "exec", "path_vaddr": 0x10000, "image": {
                "mappings": [{"vaddr": 0x40000, "alias_of": "buf"}],
                "ops": [{"op": "read", "vaddr": 0x40000, "len": 4}],
            }}]},
            {"name": "writer", "ops": [{"op": "write", "vaddr": 0x10000, "string": "/x"}]},
        ],
    }],
}

# A thread takes write away from a shared page while another forks, which
# copies the page's entry into the child without making it copy-on-write.
SHARED_FORK = {
    "version": 1, "name": "shared_fork",
    "processes": [{
        "name": "p",
        "mappings": [{"vaddr": 0x10000, "shared": True}],
        "threads": [
            {"name": "protector", "ops": [{"op": "mprotect", "vaddr": 0x10000, "write": False}]},
            {"name": "forker", "ops": [
                {"op": "fork", "child": [{"op": "write", "vaddr": 0x10000, "string": "c"}]},
            ]},
        ],
    }],
}

# The generated cases, each under every variant, with their step bound:
# the race of an mmap and a fork whose child reads the new page, an mprotect
# racing a fork, an exec racing a write, a stalled thread killed by its
# sibling, and the enclave cases, one with a host thread that writes the
# stack page the enclave call is lent.
CASES = {
    "two openers": (TWO_OPENERS, 40),
    "2+1 one page": (pair_race(2, 1, one_page=True), 400),
    "mmap and fork": (SHRUNK["space writes"][0], 200),
    "mprotect and fork": (SHARED_FORK, 200),
    "exec and write": (EXEC_RACE, 200),
    "stalled and killed": (STALLED_KILL, 200),
    "enclave race": (enclave_race(), 80),
    "enclave and stack writer": (sgx_data_only_with("enclave_stack_race", [
        {"name": "other", "ops": [{"op": "write", "vaddr": 0x301000, "string": "x"}]},
    ]), 80),
    "1 enclave bystander": (enclave_bystanders(1), 80),
    "2 enclave bystanders": (enclave_bystanders(2), 80),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_every_shipped_fixture_passes_the_write_and_pair_checks(path, variant):
    sc = load_scenario(path)
    assert list(check_failures(_factory(sc, variant), _bound(path, sc))) == []


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_generated_races_pass_the_write_and_pair_checks(case, variant):
    raw, max_steps = CASES[case]
    assert list(check_failures(_factory(raw, variant), max_steps)) == []


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_the_checks_catch_a_broken_footprint(mutant, monkeypatch):
    """With one kind of location dropped from every footprint, the write
    check fails on some generated race or shipped fixture."""
    monkeypatch.setattr(tasks, "_recorded_step", _dropping(MUTANTS[mutant]))
    cases = [(raw, max_steps) for raw, max_steps in CASES.values()]
    cases += [(load_scenario(path), _bound(path, load_scenario(path))) for path in FIXTURES]
    assert any(
        line.startswith("write check")
        for raw, max_steps in cases for variant in VARIANTS
        for line in check_failures(_factory(raw, variant), max_steps)
    ), f"no case tells a footprint without {mutant}"
